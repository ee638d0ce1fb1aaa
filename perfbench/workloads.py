"""The four benchmark workloads: seeded inputs, command lines and output checks.

Each workload turns a seeded generator into input files in an input
directory, the ``bayesfuse`` arguments that run on them (inputs by absolute
path, outputs relative to the job's working directory), the number of Gibbs
sweeps the job performs, and a check of the outputs in a working directory. The program sees only
the generated files and arguments. Every design is chosen so that the check
passes on every seed: a failed check is a fault of the program, not of the
data.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A job's output is missing, unparsable or wrong."""


@dataclass(frozen=True)
class Job:
    args: list[str]
    sweeps: int
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    make: Callable[[np.random.Generator, Path, bool], Job]


def _write_csv(path: Path, names: list[str], columns: np.ndarray) -> None:
    np.savetxt(path, columns, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


def _read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if not rows:
        raise CheckFailed(f"{path.name}: empty")
    return rows[0], rows[1:]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


#: Largest |t| a spurious effect may have in the generated data.
SPURIOUS_T = 2.5
#: Largest distance, in residual standard deviations, of one point of a
#: generated signal from its segment's mean. A lone outlier is a spurious
#: segment of one point, which no split into two parts shows: a signal with
#: a 4.2 sd outlier had it declared as a segment, once in about 200 jobs.
OUTLIER_Z = 3.5


def _ols_t(Z: np.ndarray, y: np.ndarray, contrast: np.ndarray) -> float:
    """t statistic of ``contrast @ b`` in the least-squares fit of y on Z."""
    n, k = Z.shape
    inv = np.linalg.inv(Z.T @ Z)
    b = inv @ (Z.T @ y)
    resid = y - Z @ b
    s2 = float(resid @ resid) / (n - k)
    return float(contrast @ b) / np.sqrt(s2 * float(contrast @ inv @ contrast))


def _max_split_t(X: np.ndarray, y: np.ndarray, blocks) -> float:
    """Largest |t| over every split of a true block into two adjacent parts."""
    inner = [j for a, b in blocks for j in range(a, b - 1)]
    return max(abs(_split_t(X, y, blocks, j)) for j in inner)


def _split_t(X: np.ndarray, y: np.ndarray, blocks, j: int) -> float:
    """t of the difference between the two parts of the block split after index j."""
    groups = []
    for a, b in blocks:
        groups += [(a, j + 1), (j + 1, b)] if a <= j < b - 1 else [(a, b)]
    Z = np.column_stack([X[:, a:b].sum(axis=1) for a, b in groups])
    at = next(i for i, (a, _) in enumerate(groups) if a == j + 1)
    contrast = np.zeros(len(groups))
    contrast[at - 1], contrast[at] = 1.0, -1.0
    return _ols_t(Z, y, contrast)


def _sampler_args(iters: int, burnin: int, rng: np.random.Generator) -> list[str]:
    seed = int(rng.integers(1, 2**31))
    return ["--iters", str(iters), "--burnin", str(burnin), "--seed", str(seed)]


# ---------------------------------------------------------------------------
# fit_p20: fusion fit of a p = 20 regression, with a chain file
# ---------------------------------------------------------------------------

FIT_BLOCKS = [[1, 5], [6, 10], [11, 15], [16, 20]]
#: (iterations, burn-in) of a full job and of a smoke job. Full jobs of
#: every workload last one to three seconds, so that a 30-second run
#: averages over ten to thirty jobs, each on its own input.
FIT_SWEEPS = {False: (1500, 500), True: (400, 100)}


def make_fit(rng: np.random.Generator, workdir: Path, smoke: bool) -> Job:
    # Bench case 1 design (four blocks of five, noise sd 0.75) with
    # equicorrelated predictors, rho = 0.5. Columns are generated already
    # standardized, so the CLI's standardization keeps the coefficients
    # within a block equal. Data are redrawn while some split of a true
    # block has |t| >= SPURIOUS_T, so the true partition is the one the
    # posterior declares and the check tests the sampler, not the noise.
    n, p, rho = 200, 20, 0.5
    cov = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
    chol = np.linalg.cholesky(cov)
    beta = np.repeat([1.0, 1.5, 1.0, 1.5], 5)
    blocks = [(a - 1, b) for a, b in FIT_BLOCKS]
    while True:
        X = rng.standard_normal((n, p)) @ chol.T
        X -= X.mean(axis=0)
        X /= np.sqrt((X * X).mean(axis=0))
        y = X @ beta + 0.75 * rng.standard_normal(n)
        if _max_split_t(X, y - y.mean(), blocks) < SPURIOUS_T:
            break
    _write_csv(workdir / "fit.csv", [f"x{j + 1}" for j in range(p)] + ["y"],
               np.column_stack([X, y]))
    iters, burnin = FIT_SWEEPS[smoke]
    kept = iters - burnin

    def check(d: Path) -> None:
        out = _read_json(d / "fit.json")
        _expect(out.get("partition") == FIT_BLOCKS, f"partition {out.get('partition')}")
        header, rows = _read_csv(d / "chain.csv")
        _expect(header[:3] == ["iter", "sigma2", "omega"] and len(header) == 3 + 19 + 20,
                f"chain header {header[:4]}...")
        _expect(len(rows) == kept, f"chain has {len(rows)} rows, expected {kept}")
        try:
            for row in rows:
                _expect(len(row) == len(header), "ragged chain row")
                [float(v) for v in row]
        except ValueError as exc:
            raise CheckFailed(f"chain.csv: {exc}") from None

    args = ["fit", str(workdir / "fit.csv"), "--response", "y", "--out", "fit.json",
            "--chain", "chain.csv"]
    return Job(args + _sampler_args(iters, burnin, rng), iters, check)


# ---------------------------------------------------------------------------
# smooth_n300: change-point smoothing of a three-jump signal
# ---------------------------------------------------------------------------

#: The first sweeps, which meet the most new configurations, cost the most:
#: 12 sweeps cost 90% of what 20 do, and misplaced a boundary once in 40 jobs.
SMOOTH_SWEEPS = {False: (20, 8), True: (60, 20)}


def make_smooth(rng: np.random.Generator, workdir: Path, smoke: bool) -> Job:
    # Jumps of 2 at the quarter points of the signal against noise sd 0.2.
    # Noise sd 0.3, as in the smoothing acceptance test, makes a job's cost
    # vary more from signal to signal. The noise is redrawn while some split
    # of a flat segment has |t| >= SPURIOUS_T or some point lies OUTLIER_Z
    # residual sds or more from its segment's mean.
    n = 120 if smoke else 300
    quarter = n // 4
    jumps = [quarter, 2 * quarter, 3 * quarter]  # boundary after these 1-based indices
    level = np.repeat([0.0, 2.0, 0.0, 2.0], quarter)
    segments = [(a, a + quarter) for a in range(0, n, quarter)]
    while True:
        signal = level + 0.2 * rng.standard_normal(n)
        resid = signal - np.repeat([signal[a:b].mean() for a, b in segments], quarter)
        if (np.abs(resid).max() < OUTLIER_Z * resid.std()
                and _max_split_t(np.eye(n), signal, segments) < SPURIOUS_T):
            break
    _write_csv(workdir / "signal.csv", ["signal"], signal[:, None])
    iters, burnin = SMOOTH_SWEEPS[smoke]

    def check(d: Path) -> None:
        header, rows = _read_csv(d / "smooth.csv")
        _expect(header == ["index", "observed", "fitted", "boundary_prob"], f"header {header}")
        _expect(len(rows) == n, f"{len(rows)} rows, expected {n}")
        try:
            declared = [int(r[0]) for r in rows[:-1] if float(r[3]) > 0.5]
            [float(v) for r in rows for v in r[:3]]
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"smooth.csv: {exc}") from None
        _expect(len(declared) == 3 and all(abs(a - b) <= 1 for a, b in zip(declared, jumps)),
                f"boundaries {declared}, expected {jumps} within 1")

    args = ["smooth", str(workdir / "signal.csv"), "--out", "smooth.csv"]
    return Job(args + _sampler_args(iters, burnin, rng), iters, check)


# ---------------------------------------------------------------------------
# study_threads2: Monte Carlo study on a two-thread pool
# ---------------------------------------------------------------------------

STUDY_THREADS = 2
#: (replicates, iterations, burn-in) of a full job and of a smoke job
STUDY_SWEEPS = {False: (8, 150, 30), True: (4, 150, 50)}


def make_study(rng: np.random.Generator, workdir: Path, smoke: bool) -> Job:
    # Eight replicates, not four: about 8% of replicates misplace one
    # coefficient (P_B = 15/16), and the mean over eight stays >= 0.95
    # unless seven do, which keeps the check from failing by chance.
    replicates, iters, burnin = STUDY_SWEEPS[smoke]

    def check(d: Path) -> None:
        out = _read_json(d / "study.json")
        try:
            reps = out["per_replicate"]
            p_b = out["aggregate"]["p_b"]["mean"]
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"study.json: missing {exc}") from None
        _expect(len(reps) == replicates, f"{len(reps)} replicates, expected {replicates}")
        _expect(p_b >= 0.95, f"mean P_B {p_b} < 0.95")

    args = ["simulate", "--case", "3", "--n", "100", "--replicates", str(replicates),
            "--threads", str(STUDY_THREADS), "--out", "study.json"]
    return Job(args + _sampler_args(iters, burnin, rng), replicates * iters, check)


# ---------------------------------------------------------------------------
# select_p60: spike-and-slab selection with a sparse true support
# ---------------------------------------------------------------------------

SELECT_SWEEPS = {False: (150, 40), True: (200, 50)}


def make_select(rng: np.random.Generator, workdir: Path, smoke: bool) -> Job:
    # Six active predictors of effect 1 to 2 against noise sd 1. Data are
    # redrawn while some null predictor, added to the true support, has
    # |t| >= SPURIOUS_T, so the true support is the one the posterior selects.
    n, p, k = 200, 60, 6
    support = np.sort(rng.choice(p, k, replace=False))
    beta = np.zeros(p)
    beta[support] = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k)
    nulls = [j for j in range(p) if j not in support]
    last = np.eye(k + 1)[k]
    while True:
        X = rng.standard_normal((n, p))
        y = X @ beta + rng.standard_normal(n)
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        if max(abs(_ols_t(Xc[:, [*support, j]], yc, last)) for j in nulls) < SPURIOUS_T:
            break
    _write_csv(workdir / "select.csv", [f"x{j + 1}" for j in range(p)] + ["y"],
               np.column_stack([X, y]))
    iters, burnin = SELECT_SWEEPS[smoke]
    truth = support.tolist()

    def check(d: Path) -> None:
        out = _read_json(d / "select.json")
        probs = out.get("xi_prob")
        _expect(isinstance(probs, list) and len(probs) == p, "xi_prob missing or wrong length")
        selected = [j for j, prob in enumerate(probs) if prob > 0.5]
        _expect(selected == truth, f"selected {selected}, expected {truth}")

    args = ["select", str(workdir / "select.csv"), "--response", "y", "--slab", "gslab:auto",
            "--out", "select.json"]
    return Job(args + _sampler_args(iters, burnin, rng), iters, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_p20", "n=200, p=20 fusion fit with a chain file: ~95% of evidence calls "
                 "repeat a configuration, so the flip loop, draws and chain writing dominate",
                 1, make_fit),
        Workload("smooth_n300", "300-point three-jump signal, identity design: time is in "
                 "evidence evaluation of new configurations (O(p^2) reduceat plus Cholesky)",
                 1, make_smooth),
        Workload("study_threads2", "simulate case 3, n=100, 8 replicates on 2 threads: many "
                 "short chains with cold kernels, the only path through the thread pool",
                 STUDY_THREADS, make_study),
        Workload("select_p60", "n=200, p=60 spike-and-slab selection, sparse support: the only "
                 "path through SelectionKernel and the selection flip loop",
                 1, make_select),
    )
}
