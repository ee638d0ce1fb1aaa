"""Run one ``bayesfuse`` command line in this process and record its timings.

Usage: launch.py RECORD MODE -- ARGS...

MODE ``plain`` wraps only the sampler entry points the CLI calls
(``run_chain``, ``selection_gibbs``, ``run_study``) to timestamp entry and
exit, once per job. MODE ``trace`` also wraps the functions of each module
(the sweep and replicate helpers too) where the CLI and the sampler look
them up, aggregates the spans per
name (calls, total time, self time), counts evidence calls, and afterwards
checks a sample of the evidence values the kernels returned against the
dense oracles in ``tests/oracles.py``. RECORD receives a JSON object.

Timestamps come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC and so is comparable with the parent's clock.
"""
from __future__ import annotations

import functools
import importlib.util
import json
import math
import os
import sys
import threading
import time
from pathlib import Path

perf = time.perf_counter

ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


class Tracer:
    """Spans aggregated per name; self time excludes nested traced calls.

    Each thread keeps its own stack and table, so the two-thread study
    needs no lock; tables are merged when the job ends.
    """

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []

    def _thread(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {})
            self._tables.append(state[1])
            return state

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` traced as span ``name``; ``observe(args, result)``
        runs after the span closes and is charged to no span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._thread()
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                rec = table.get(name)
                if rec is None:
                    rec = table[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if observe is not None:
                t1 = perf()
                observe(args, result)
                if stack:
                    stack[-1] += perf() - t1
            return result

        return traced

    def totals(self) -> dict:
        out: dict[str, list] = {}
        for table in self._tables:
            for name, (calls, total, self_s) in table.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
        return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in out.items()}


class EvidenceProbe:
    """Counts one kernel class's evidence calls and samples what it returned.

    A call is distinct when its kernel has not seen the configuration
    before. The sample keeps the finite values of calls 1, 2, 4, 8, ... of
    each kernel, so it covers both the early, many-block configurations and
    the late ones. Kernels are kept alive so that ``id`` stays unique.
    """

    def __init__(self):
        self.calls = self.distinct = self.ninf = 0
        self.kernels: dict[int, list] = {}   # id -> [kernel, data, param, calls, seen]
        self.samples: list[tuple] = []       # (kernel entry, config, value)

    def on_init(self, args, _result):
        kernel, data, param = args[:3]
        self.kernels[id(kernel)] = [kernel, data, param, 0, set()]

    def on_call(self, args, value):
        kernel, config = args[:2]
        entry = self.kernels[id(kernel)]
        entry[3] += 1
        self.calls += 1
        key = config.tobytes()
        if key not in entry[4]:
            entry[4].add(key)
            self.distinct += 1
        if value == -math.inf:
            self.ninf += 1
        elif entry[3] & (entry[3] - 1) == 0:
            self.samples.append((entry, config.copy(), value))

    def counts(self) -> dict:
        return {"calls": self.calls, "distinct": self.distinct, "ninf": self.ninf}


class FlipProbe:
    """Flips accepted and proposed: accepted ones are the Hamming distance
    between consecutive kept draws, and each draw proposes one flip per bit."""

    def __init__(self):
        self.accepted = self.proposed = 0

    def on_chain(self, _args, chain):
        bits = chain.delta.astype(bool)
        self.accepted += int((bits[1:] != bits[:-1]).sum())
        self.proposed += int(bits[1:].size)


class CpuProbe:
    """Thread CPU time spent inside a function, summed over calls and threads.

    Unlike wall time, this leaves out time a thread spends waiting for the
    interpreter lock, so it measures how busy a pool's workers really were.
    """

    def __init__(self):
        self.seconds = 0.0
        self._lock = threading.Lock()

    def wrap(self, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            t0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.thread_time() - t0
                with self._lock:
                    self.seconds += spent

        return call


class FileProbe:
    """Bytes of the file named by a call's first argument, summed."""

    def __init__(self):
        self.bytes = 0

    def on_call(self, args, _result):
        self.bytes += os.path.getsize(args[0])


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def evidence_check(fusion: EvidenceProbe, selection: EvidenceProbe) -> dict:
    """Largest relative error of sampled kernel evidences against the oracles."""
    oracles = _load_oracles()
    worst, count = 0.0, 0
    for (_, data, hyper, *_), delta, value in fusion.samples:
        ref = oracles.dense_fusion_log_marginal(data.y, data.X, delta, hyper.g)
        worst = max(worst, abs(value - ref) / abs(ref))
        count += 1
    for (_, data, slab, *_), xi, value in selection.samples:
        kind = type(slab).__name__.lower()
        scale = slab.fraction if kind == "fslab" else slab.scale
        ref = oracles.dense_selection_log_marginal(data.y, data.X, xi, kind, scale)
        worst = max(worst, abs(value - ref) / abs(ref))
        count += 1
    return {"max_rel_err": worst, "samples": count}


def install_tracing(cli, record: dict):
    """Wrap each layer where it is called; return the finisher that fills ``record``."""
    from bayesfuse import baseline, sampler, simbench

    tracer = Tracer()
    fusion, selection = EvidenceProbe(), EvidenceProbe()
    fusion_flips, selection_flips = FlipProbe(), FlipProbe()
    read_bytes, chain_bytes = FileProbe(), FileProbe()
    plan = [
        (cli, "read_table", "io.read_table", read_bytes.on_call),
        (cli, "write_chain", "io.write_chain", chain_bytes.on_call),
        (cli, "write_summary", "io.write_summary", None),
        (cli, "standardize", "model.standardize", None),
        (cli, "run_chain", "sampler.run_chain", fusion_flips.on_chain),
        (simbench, "run_chain", "sampler.run_chain", fusion_flips.on_chain),
        (cli, "summarize", "sampler.summarize", None),
        (simbench, "summarize", "sampler.summarize", None),
        (sampler.FusionKernel, "__init__", "sampler.kernel_init", fusion.on_init),
        (sampler.FusionKernel, "log_marginal", "sampler.log_marginal", fusion.on_call),
        (sampler.FusionKernel, "posterior", "sampler.posterior", None),
        (sampler, "_sweep", "sampler.sweep", None),
        (sampler, "sample_sigma2", "sampler.draws", None),
        (sampler, "sample_omega", "sampler.draws", None),
        (sampler, "sample_beta", "sampler.draws", None),
        (cli, "selection_gibbs", "baseline.selection_gibbs", selection_flips.on_chain),
        (baseline.SelectionKernel, "__init__", "baseline.kernel_init", selection.on_init),
        (baseline.SelectionKernel, "log_marginal", "baseline.log_marginal", selection.on_call),
        (baseline.SelectionKernel, "factors", "baseline.factors", None),
        (baseline, "_selection_sweep", "baseline.sweep", None),
        (baseline, "sample_sigma2", "baseline.draws", None),
        (cli, "run_study", "simbench.run_study", None),
        (simbench, "generate_case", "simbench.generate_case", None),
        (simbench, "_one_replicate", "simbench.replicate", None),
    ]
    for owner, attr, name, observe in plan:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))
    replicate_cpu = CpuProbe()
    simbench.run_chain = replicate_cpu.wrap(simbench.run_chain)

    def finish():
        record["spans"] = tracer.totals()
        record["fusion_evidence"] = fusion.counts()
        record["selection_evidence"] = selection.counts()
        record["flips"] = {
            "fusion": [fusion_flips.accepted, fusion_flips.proposed],
            "selection": [selection_flips.accepted, selection_flips.proposed],
        }
        record["bytes"] = {"read_table": read_bytes.bytes, "write_chain": chain_bytes.bytes}
        record["replicate_cpu_s"] = replicate_cpu.seconds
        record["evidence_check"] = evidence_check(fusion, selection)

    return finish


def stamp_sampler(cli, record: dict) -> None:
    """Record entry and exit times of the one sampler call a job makes."""

    def stamped(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            record["sampler_enter"] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                record["sampler_exit"] = perf()

        return call

    for attr in ("run_chain", "selection_gibbs", "run_study"):
        setattr(cli, attr, stamped(getattr(cli, attr)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("plain", "trace") or argv[2] != "--":
        print("usage: launch.py RECORD plain|trace -- ARGS...", file=sys.stderr)
        return 2
    record_path, mode, _, *args = argv
    record: dict = {}
    t0 = perf()
    import bayesfuse.cli as cli

    record["import_s"] = perf() - t0
    finish = install_tracing(cli, record) if mode == "trace" else None
    stamp_sampler(cli, record)
    try:
        code = cli.main(args)
    finally:
        record["main_done"] = perf()
        if finish is not None:
            finish()
        Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
