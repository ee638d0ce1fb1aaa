"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo bench), ``fit`` (fusion model on
a CSV table), ``smooth`` (signal smoothing with an identity design) and
``select`` (spike-and-slab variable selection baseline). Every command
is deterministic given its full flag set including ``--seed``.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .baseline import FSlab, GSlab, ISlab, selection_gibbs, summarize_selection
from .io import TableParseError, read_table, write_chain, write_summary
from .model import BayesFuseError, Dataset, HyperParams, standardize
from .sampler import SamplerConfig, run_chain, summarize
from .simbench import fused_estimate, make_case, run_study

DEFAULT_SEED = 20_230_815


def _add_common(parser: argparse.ArgumentParser, *, threshold=False, chain=False, threads=False) -> None:
    """Flags of every subcommand, plus the optional ones the subcommand reads."""
    parser.add_argument("--iters", type=int, default=10_000, help="total Gibbs iterations")
    parser.add_argument("--burnin", type=int, default=2_000, help="discarded initial draws")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--g", default="auto",
                        help="g-prior scale; 'auto' resolves to the sample size n")
    parser.add_argument("--a-omega", type=float, default=1.0)
    parser.add_argument("--b-omega", type=float, default=1.0)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if threshold:
        parser.add_argument("--threshold", type=float, default=0.5,
                            help="boundary probability cut for the declared partition")
    if chain:
        parser.add_argument("--chain", default=None, help="optional chain file path")
    if threads:
        parser.add_argument("--threads", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bayesfuse")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--case", type=int, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--rho", type=float, default=0.0)
    sim.add_argument("--replicates", type=int, default=100)
    _add_common(sim, threshold=True, threads=True)

    fit = sub.add_parser("fit", help="fit the fusion model to a CSV table")
    fit.add_argument("input")
    fit.add_argument("--response", required=True, help="name of the response column")
    fit.add_argument("--no-standardize", action="store_true")
    _add_common(fit, threshold=True, chain=True)

    smooth = sub.add_parser("smooth", help="smooth a single-column signal")
    smooth.add_argument("input")
    _add_common(smooth, threshold=True, chain=True)

    sel = sub.add_parser("select", help="spike-and-slab variable selection baseline")
    sel.add_argument("input")
    sel.add_argument("--response", required=True)
    sel.add_argument("--slab", default="gslab:auto",
                     help="slab kind: islab:C, gslab:G|auto, or fslab:B")
    sel.add_argument("--no-standardize", action="store_true")
    _add_common(sel, chain=True)

    return parser


def _fail(message: str, code: int = 2) -> int:
    print("error:", " ".join(message.split()), file=sys.stderr)
    return code


def _resolve_g(spec: str | float, n: int) -> float:
    if isinstance(spec, str):
        if spec == "auto":
            return float(n)
        try:
            value = float(spec)
        except ValueError:
            raise ValueError(f"--g must be a positive number or 'auto', got {spec!r}")
    else:
        value = float(spec)
    if value <= 0:
        raise ValueError("--g must be positive")
    return value


def _config(args) -> SamplerConfig:
    return SamplerConfig(total_iterations=args.iters, burn_in=args.burnin, seed=args.seed)


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:  # NaN fails too
        raise ValueError("--threshold must be in (0, 1)")


def _write(args, payload: dict) -> None:
    if args.out is None:
        write_summary(sys.stdout, payload)
    else:
        write_summary(args.out, payload)


def _blocks_one_based(blocks) -> list[list[int]]:
    return [[start + 1, stop] for start, stop in blocks]


def cmd_simulate(args) -> int:
    if args.case not in range(1, 7):
        return _fail("case must be 1..6")
    if args.n < 20:
        return _fail("n must be at least the number of predictors (20)")
    if not 0.0 <= args.rho < 1.0:
        return _fail("rho must be in [0, 1)")
    if args.replicates < 1:
        return _fail("replicates must be >= 1")
    if args.threads < 1:
        return _fail("threads must be >= 1")
    try:
        _check_threshold(args.threshold)
        config = _config(args)
        g = _resolve_g(args.g, args.n)
        hyper = HyperParams(g=g, a_omega=args.a_omega, b_omega=args.b_omega)
    except ValueError as exc:
        return _fail(str(exc))
    case = make_case(args.case, args.n, args.rho)
    result = run_study(
        case, hyper, config, args.replicates, args.seed,
        threads=args.threads, threshold=args.threshold,
    )
    payload = {
        "command": "simulate",
        "case": case.case_id,
        "n": case.n,
        "rho": case.rho,
        "replicates": result.replicates,
        "seed": args.seed,
        "iterations": config.total_iterations,
        "burn_in": config.burn_in,
        "g": g,
        "a_omega": hyper.a_omega,
        "b_omega": hyper.b_omega,
        "threshold": args.threshold,
        "per_replicate": [
            {
                "replicate": k + 1,
                "mse": result.mse[k],
                "pse": result.pse[k],
                "p_b": result.p_b[k],
                "rand_index": result.rand[k],
            }
            for k in range(result.replicates)
        ],
        "aggregate": result.aggregate(),
        "mean_delta_prob": result.delta_prob.mean(axis=0),
    }
    _write(args, payload)
    return 0


def _load_regression(args):
    header, values = read_table(args.input)
    if args.response not in header:
        raise TableParseError(f"response column {args.response!r} not found")
    y_col = header.index(args.response)
    y = values[:, y_col]
    X = np.delete(values, y_col, axis=1)
    names = [h for h in header if h != args.response]
    return y, X, names


def _prepare(y, X, no_standardize: bool) -> Dataset:
    if no_standardize:
        data = Dataset(y=y, X=X, standardized=False)
        data.validate()
        return data
    return standardize(y, X)


def cmd_fit(args) -> int:
    try:
        y, X, names = _load_regression(args)
    except (OSError, TableParseError) as exc:
        return _fail(str(exc))
    if X.shape[1] < 2:
        return _fail("need at least two predictor columns")
    if X.shape[0] <= X.shape[1] + 1:
        print(
            f"warning: only {X.shape[0]} rows for {X.shape[1]} predictors",
            file=sys.stderr,
        )
    try:
        _check_threshold(args.threshold)
        config = _config(args)
        g = _resolve_g(args.g, X.shape[0])
        hyper = HyperParams(g=g, a_omega=args.a_omega, b_omega=args.b_omega)
        data = _prepare(y, X, args.no_standardize)
    except (ValueError, BayesFuseError) as exc:
        return _fail(str(exc))
    chain = run_chain(data, hyper, config)
    summary = summarize(chain, args.threshold)
    payload = {
        "command": "fit",
        "predictors": names,
        "response": args.response,
        "n": data.n,
        "p": data.p,
        "standardized": data.standardized,
        "g": g,
        "seed": args.seed,
        "iterations": config.total_iterations,
        "burn_in": config.burn_in,
        "threshold": args.threshold,
        "beta_mean": summary.beta_mean,
        "delta_prob": summary.delta_prob,
        "partition": _blocks_one_based(summary.partition_est),
        "sigma2_mean": summary.sigma2_mean,
        "omega_mean": summary.omega_mean,
    }
    _write(args, payload)
    if args.chain:
        write_chain(args.chain, chain)
    return 0


def cmd_smooth(args) -> int:
    try:
        header, values = read_table(args.input)
    except (OSError, TableParseError) as exc:
        return _fail(str(exc))
    if values.shape[1] != 1:
        return _fail("smooth expects a single numeric column")
    y = values[:, 0]
    n = y.shape[0]
    if n < 2:
        return _fail("need at least two observations")
    try:
        _check_threshold(args.threshold)
        config = _config(args)
        g = _resolve_g(args.g, n)
        hyper = HyperParams(g=g, a_omega=args.a_omega, b_omega=args.b_omega)
        data = Dataset(y=y, X=np.eye(n), standardized=False)
        data.validate()
    except (ValueError, BayesFuseError) as exc:
        return _fail(str(exc))
    chain = run_chain(data, hyper, config)
    summary = summarize(chain, args.threshold)
    fitted = fused_estimate(summary.beta_mean, summary.partition_est)
    lines = ["index,observed,fitted,boundary_prob"]
    for i in range(n):
        prob = format(summary.delta_prob[i], ".17g") if i < n - 1 else ""
        lines.append(
            f"{i + 1},{format(y[i], '.17g')},{format(fitted[i], '.17g')},{prob}"
        )
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.chain:
        write_chain(args.chain, chain)
    return 0


def _parse_slab(spec: str, n: int):
    kind, sep, value = spec.partition(":")
    if not sep:
        raise ValueError("slab must look like islab:C, gslab:G or fslab:B")
    if kind == "gslab" and value == "auto":
        return GSlab(float(n))
    try:
        scale = float(value)
    except ValueError:
        raise ValueError(f"invalid slab hyper-parameter {value!r}")
    if kind == "islab":
        return ISlab(scale)
    if kind == "gslab":
        return GSlab(scale)
    if kind == "fslab":
        return FSlab(scale)
    raise ValueError(f"unknown slab kind {kind!r}")


def cmd_select(args) -> int:
    try:
        y, X, names = _load_regression(args)
    except (OSError, TableParseError) as exc:
        return _fail(str(exc))
    if X.shape[1] < 2:
        return _fail("need at least two predictor columns")
    try:
        config = _config(args)
        slab = _parse_slab(args.slab, X.shape[0])
        hyper = HyperParams(g=1.0, a_omega=args.a_omega, b_omega=args.b_omega)
        data = _prepare(y, X, args.no_standardize)
    except (ValueError, BayesFuseError) as exc:
        return _fail(str(exc))
    chain = selection_gibbs(data, slab, hyper, config)
    summary = summarize_selection(chain)
    payload = {
        "command": "select",
        "predictors": names,
        "response": args.response,
        "n": data.n,
        "p": data.p,
        "standardized": data.standardized,
        "slab": args.slab,
        "slab_resolved": repr(slab),
        "seed": args.seed,
        "iterations": config.total_iterations,
        "burn_in": config.burn_in,
        "beta_mean": summary.beta_mean,
        "xi_prob": summary.xi_prob,
        "sigma2_mean": summary.sigma2_mean,
        "omega_mean": summary.omega_mean,
    }
    _write(args, payload)
    if args.chain:
        write_chain(args.chain, chain)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "smooth": cmd_smooth,
    "select": cmd_select,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BayesFuseError as exc:
        # Input is checked before sampling; what the samplers raise
        # (singular design or posterior system, degenerate scale) exits 3.
        return _fail(str(exc), code=3)


if __name__ == "__main__":
    sys.exit(main())
