#!/usr/bin/env python3
"""Benchmark of the ``bayesfuse`` command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run starts one CLI job at a time (closed loop, one client) for as long
as another job fits in S seconds; each job gets a fresh input seeded with
N and its number.
Each job is a fresh interpreter with ``PYTHONPATH=src`` and one BLAS
thread, and every job's output is checked. While a job runs, a thread of
this process measures the machine's speed with a fixed loop (see
``SpeedProbe``); end-to-end times are scaled by it to a reference speed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
input untraced and then traced: the traced jobs give the per-layer
metrics (see ``launch.py``) and the difference between the two kinds
gives the tracing overhead.

The second-to-last line of standard output is a JSON report (environment,
job counts, failures); the last line is the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs
every workload at a tiny size in both modes and asserts that every metric
named in BENCHMARK.json is emitted and every check passes.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches
from workloads import WORKLOADS, CheckFailed, Job, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
REQUIRED = [ROOT / "src" / "bayesfuse" / "cli.py", ROOT / "tests" / "oracles.py",
            ROOT / "BENCHMARK.json"]
BLAS_THREADS = "1"
#: Inputs a run measures at least, whatever its seconds.
MIN_INPUTS = 4
#: The speed probe's loop: iterations, seconds between runs of it, and the
#: CPU time that counts as the reference speed. The loop takes 1.6 to 2.0 ms
#: on the 2-vCPU Xeon (Sapphire Rapids) KVM guest the benchmark was tuned on,
#: so scaled times read as seconds on that machine in a quiet moment.
PROBE_LOOP = 20_000
PROBE_EVERY_S = 0.05
PROBE_REFERENCE_S = 1.6e-3
#: A run ends within this many seconds of its start, whatever its jobs do.
RUN_LIMIT_S = 170.0
#: The gate of ROADMAP aim 3 on cached or incremental evidence arithmetic.
EVIDENCE_TOLERANCE = 1e-10
UNMEASURED = {
    "fusion_prior": "no CLI path calls it; the sampler evaluates evidence through FusionKernel",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


@dataclass
class Outcome:
    input: int
    traced: bool
    error: str | None = None
    wall_s: float = 0.0
    rss_mb: float = 0.0
    setup_s: float | None = None
    sweeps_per_s: float | None = None
    done_s: float | None = None
    scipy_import_s: float = 0.0
    sampler_s: float | None = None
    speed: float = 1.0
    record: dict = field(default_factory=dict)


def _scipy_import_s(stderr: str) -> float:
    """Summed self time of scipy modules in ``-X importtime`` output."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(self_us)
    return total_us / 1e6


class SpeedProbe:
    """How fast the machine runs while a job runs.

    A thread of this process times a fixed interpreter loop every
    PROBE_EVERY_S seconds, in the thread's own CPU time, so that waiting
    for a core does not count. The loop runs none of the program under
    test, so a change to the program cannot move it; load on the host can.
    ``factor`` is PROBE_REFERENCE_S over the median time measured: 1 at
    the reference speed, below 1 when the machine runs slower.
    """

    def __init__(self):
        self._stop = threading.Event()
        self._times: list[float] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            t0 = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i
            self._times.append(time.thread_time() - t0)
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self._times)


def run_job(job: Job, index: int, workdir: Path, traced: bool, deadline: float) -> Outcome:
    """Run one job in a fresh working directory and check its outputs."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    record_path = workdir / "record.json"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(LAUNCH),
           str(record_path), "trace" if traced else "plain", "--", *job.args]
    out = Outcome(index, traced)
    with (SpeedProbe() as probe, open(workdir / "stdout.txt", "wb") as so,
          open(workdir / "stderr.txt", "wb") as se):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=so, stderr=se)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        out.wall_s = time.perf_counter() - start
    out.speed = probe.factor()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    out.rss_mb = usage.ru_maxrss / 1024.0
    stderr = (workdir / "stderr.txt").read_text(errors="replace")
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        out.error = f"exit code {code}: {last[0]}"
    elif "Traceback" in stderr:
        out.error = "traceback on stderr"
    else:
        try:
            job.check(workdir)
        except CheckFailed as exc:
            out.error = f"check: {exc}"
    try:
        out.record = rec = json.loads(record_path.read_text())
    except (OSError, ValueError):
        out.error = out.error or "no timing record"
        return out
    out.done_s = rec["main_done"] - start
    if "sampler_exit" in rec:
        out.setup_s = rec["sampler_enter"] - start
        out.sampler_s = rec["sampler_exit"] - rec["sampler_enter"]
        out.sweeps_per_s = job.sweeps / out.sampler_s
    elif out.error is None:
        out.error = "the sampler entry point was not called"
    if traced:
        out.scipy_import_s = _scipy_import_s(stderr)
        check = rec.get("evidence_check", {})
        err = check.get("max_rel_err")
        if out.error is None and not check.get("samples"):
            out.error = "evidence check sampled no configuration"
        elif out.error is None and not err <= EVIDENCE_TOLERANCE:
            out.error = f"evidence relative error {err:.3g} > {EVIDENCE_TOLERANCE:g}"
    return out


def warm_up(workdir: Path) -> None:
    """Compile bytecode and fill the page cache before the first timed job."""
    subprocess.run([sys.executable, "-c", "import bayesfuse.cli"], cwd=workdir,
                   env=child_env(), check=True, timeout=60)


def fits(outcomes: list[Outcome], elapsed: float, seconds: float) -> bool:
    """Whether a job as long as the median job so far ends within ``seconds``."""
    return elapsed + statistics.median(o.wall_s for o in outcomes) <= seconds


def run_jobs(workload: Workload, seed: int, seconds: float, trace: bool,
             smoke: bool) -> list[Outcome]:
    """Closed loop: one job at a time while another fits in ``seconds``.

    Input k comes from the generator seeded with (seed, k), so a job's
    cost varies with its data as well as with the machine, and a run
    averages over as many inputs as it has jobs. Without tracing, job k
    runs input k; with tracing, input k runs untraced and then traced, so
    the two kinds of job cover the same inputs.
    """
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    outcomes: list[Outcome] = []
    per_input = 2 if trace else 1
    try:
        warm_up(tmp)
        start = time.perf_counter()
        deadline = start + RUN_LIMIT_S
        while (len(outcomes) < MIN_INPUTS * per_input or len(outcomes) % per_input
               or fits(outcomes, time.perf_counter() - start, seconds)):
            k, traced = divmod(len(outcomes), per_input)
            if not traced:
                (tmp / f"input{k}").mkdir()
                job = workload.make(np.random.default_rng([seed, k]), tmp / f"input{k}", smoke)
            outcomes.append(run_job(job, k, tmp / "job", bool(traced), deadline))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    return outcomes


def _median(values: list[float]) -> float:
    if not values:
        raise ValueError("no job produced this measurement")
    return statistics.median(values)


def end_to_end(outcomes: list[Outcome], at_reference: bool = True) -> dict[str, float]:
    """End-to-end metrics of the jobs that passed their checks.

    With ``at_reference``, every job's times are scaled by its speed
    factor to seconds at the reference speed. On a shared 2-vCPU virtual
    machine the host's load changed in phases of seconds to a minute, and
    whole 30-second runs ran up to 1.6 times slower than others; scaled,
    the quartile spread of ten runs fell from 0.12-0.23 of the median to
    0.03-0.12. The report line keeps the unscaled values.
    """
    ok = [o for o in outcomes if o.error is None]
    scale = (lambda o: o.speed) if at_reference else (lambda o: 1.0)
    return {
        "job_wall_s": _median([o.wall_s * scale(o) for o in ok]),
        "setup_s": _median([o.setup_s * scale(o) for o in ok]),
        "sweeps_per_s": _median([o.sweeps_per_s / scale(o) for o in ok]),
        "peak_rss_mb": _median([o.rss_mb for o in ok]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(outcomes: list[Outcome], threads: int) -> dict[str, float]:
    traced = [o for o in outcomes if o.traced and o.error is None]
    plain = [o for o in outcomes if not o.traced and o.error is None]
    jobs = len(traced)
    if not jobs:
        raise ValueError("no traced job succeeded")

    def span(name):
        """(calls, total seconds, self seconds) summed over traced jobs."""
        recs = [o.record["spans"][name] for o in traced if name in o.record["spans"]]
        return tuple(sum(r[k] for r in recs) for k in ("calls", "total_s", "self_s"))

    def summed(key, sub):
        return sum(o.record[key][sub] for o in traced)

    def mean_s(name):
        calls, total, _ = span(name)
        return _ratio(total, calls)

    m: dict[str, float] = {
        "cli.import_s": _median([o.record["import_s"] for o in traced]),
        "cli.import_scipy_s": _median([o.scipy_import_s for o in traced]),
        "io.read_table_s": mean_s("io.read_table"),
        "io.read_table_bytes": _ratio(summed("bytes", "read_table"), span("io.read_table")[0]),
        "io.write_chain_s": mean_s("io.write_chain"),
        "io.write_chain_bytes": _ratio(summed("bytes", "write_chain"), span("io.write_chain")[0]),
        "io.write_summary_s": mean_s("io.write_summary"),
        "model.standardize_s": mean_s("model.standardize"),
        "sampler.kernel_init_s": mean_s("sampler.kernel_init"),
        "sampler.summarize_s": mean_s("sampler.summarize"),
        "simbench.generate_case_s": mean_s("simbench.generate_case"),
        "simbench.replicate_s": mean_s("simbench.replicate"),
        "simbench.parallel_efficiency": _ratio(sum(o.record["replicate_cpu_s"] for o in traced),
                                               span("simbench.run_study")[1] * threads),
        "check.evidence_max_rel_err": max(o.record["evidence_check"]["max_rel_err"]
                                          for o in traced),
        "trace.overhead_s": (_median([o.done_s * o.speed for o in traced])
                             - _median([o.done_s * o.speed for o in plain])) if plain else 0.0,
    }
    for layer, kind in (("sampler", "fusion"), ("baseline", "selection")):
        calls, busy, _ = span(f"{layer}.log_marginal")
        counts = {k: sum(o.record[f"{kind}_evidence"][k] for o in traced)
                  for k in ("calls", "distinct", "ninf")}
        sweeps, _, sweep_self = span(f"{layer}.sweep")
        accepted = sum(o.record["flips"][kind][0] for o in traced)
        proposed = sum(o.record["flips"][kind][1] for o in traced)
        m[f"{layer}.log_marginal_calls"] = calls / jobs
        m[f"{layer}.log_marginal_us"] = 1e6 * _ratio(busy, calls)
        m[f"{layer}.log_marginal_distinct_share"] = _ratio(counts["distinct"], counts["calls"])
        m[f"{layer}.flip_loop_self_us"] = 1e6 * _ratio(sweep_self, sweeps)
        m[f"{layer}.flip_accept_share"] = _ratio(accepted, proposed)
        if layer == "sampler":
            m["sampler.log_marginal_busy_s"] = busy / jobs
            m["sampler.log_marginal_ninf_share"] = _ratio(counts["ninf"], counts["calls"])
            m["sampler.posterior_us"] = 1e6 * mean_s("sampler.posterior")
            m["sampler.draws_us"] = 1e6 * _ratio(span("sampler.draws")[1], sweeps)
        else:
            m["baseline.factors_us"] = 1e6 * mean_s("baseline.factors")
    return m


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            names: list[str]) -> tuple[dict, dict]:
    """Run one workload; return (report, result) as printed."""
    workload = WORKLOADS[name]
    outcomes = run_jobs(workload, seed, seconds, trace, smoke)
    failed = [o for o in outcomes if o.error is not None]
    unscaled: dict[str, float] = {}
    try:
        if trace:
            values = per_layer(outcomes, workload.threads)
        else:
            values = end_to_end(outcomes)
            unscaled = end_to_end(outcomes, at_reference=False)
    except ValueError as exc:
        values = {}
        failed = failed or [Outcome(-1, trace, error=str(exc))]
    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        "jobs": len(outcomes),
        "traced_jobs": sum(o.traced for o in outcomes),
        "error_rate": len(failed) / max(len(outcomes), 1),
        "inputs": len({o.input for o in outcomes}),
        "unscaled": unscaled,
        "job_wall_s": [round(o.wall_s, 4) for o in outcomes],
        "setup_s": [o.setup_s and round(o.setup_s, 4) for o in outcomes],
        "speed": [round(o.speed, 4) for o in outcomes],
        "sampler_s": [o.sampler_s and round(o.sampler_s, 4) for o in outcomes],
        "errors": [o.error for o in failed][:5],
        "evidence_samples": sum(o.record.get("evidence_check", {}).get("samples", 0)
                                for o in outcomes),
        "unmeasured": UNMEASURED,
        "environment": environment(),
    }
    result = {
        "correct": not failed and all(n in values for n in names),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": values,
    }
    return report, result


def with_units(values: dict, metrics: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics if m["name"] in values}


def run_smoke(spec: dict) -> int:
    """Every workload at tiny size, both modes; all metrics present, all checks pass."""
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            names = [m["name"] for m in spec[key]]
            report, result = measure(name, 1, 0.0, trace, True, names)
            missing = [n for n in names if n not in result["metrics"]]
            status = "ok" if result["correct"] and not missing else "FAIL"
            print(f"{status} {name} trace={int(trace)} jobs={result['attempted']} "
                  f"errors={report['errors']} missing={missing}")
            if status != "ok":
                problems.append(f"{name} trace={int(trace)}")
    print(json.dumps({"smoke_failures": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a bayesfuse checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return run_smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), False,
                             [m["name"] for m in metrics])
    result["metrics"] = with_units(result["metrics"], metrics)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
