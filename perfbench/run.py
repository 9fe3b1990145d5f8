"""subforge benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload select-greedy --seed 1 --seconds 22 --trace 0

Run from the root of a subforge checkout; the package is imported from
`src/`. The workload's inputs are made from `--seed` and written under
`perfbench/_work/`. The client calls each op only after the previous one has
returned, running whole cycles of the inputs until `--seconds` of op time
have been measured (and at least MIN_CYCLES cycles). Every op's output is
checked untimed. Each timing metric is computed per cycle and reported as the
median over the run's cycles: every cycle holds the same inputs, and a burst
of host contention that slows one or two cycles then leaves the result as it
was. The set-up probes run between cycles, so they too sample the whole run.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs every input
untraced and then traced, and reports the per-layer split from the traced
ops (whole cycles only, so the counts repeat exactly for a given seed) and
the tracing overhead. The full report, with machine facts and the output
digest, is printed and written to `perfbench/results/`; the last line of
stdout is the summary `{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_CYCLES = 3
THREAD_VARS = ("SUBFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
NOTE = ("Shared host: no CPU pinning, no cache dropping and no system-wide tracing "
        "were done (the host does not allow them). Repeats and medians are the only "
        "noise control.")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _attempt(op):
    """Run one op; returns (seconds, raw output or None, error text)."""
    t0 = time.perf_counter()
    try:
        raw = op.run()
    except SystemExit as exc:  # argparse rejecting the argv
        return time.perf_counter() - t0, None, f"SystemExit({exc.code})"
    except Exception:  # any other escape is a failed op, recorded with its cause
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, raw, ""


class Tally:
    """Checks every op's output and keeps the first record per input for the digest."""

    def __init__(self, n_inputs):
        self.records = [None] * n_inputs
        self.attempted = 0
        self.failed = 0
        self.removed = 0
        self.failures: list[str] = []

    def judge(self, j, op, raw, error, traced=False) -> bool:
        """Check one op's output (raw is None when the op raised); True if it passed."""
        self.attempted += 1
        if raw is None:
            return self.fail(j, error)
        outcome = op.check(raw)
        if not outcome.ok:
            return self.fail(j, outcome.detail)
        if self.records[j] is None:
            self.records[j] = outcome.record
        elif outcome.record != self.records[j]:
            return self.fail(j, "output changed between repeats of one input")
        if traced:
            self.removed += outcome.removed
        return True

    def fail(self, j, detail) -> bool:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"input {j}: {detail}")
        return False

    def digest(self) -> str:
        blob = json.dumps([list(r) if r is not None else None for r in self.records])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def timed_loop(ops, seconds, tally, between_cycles):
    """Whole cycles until `seconds` of op time are measured; returns
    (op times, ops that passed their check) per cycle."""
    cycles = []
    measured = 0.0
    while measured < seconds or len(cycles) < MIN_CYCLES:
        times, completed = [], 0
        for j, op in enumerate(ops):
            dt, raw, error = _attempt(op)
            times.append(dt)
            completed += tally.judge(j, op, raw, error)
        measured += sum(times)
        cycles.append((times, completed))
        between_cycles()
    return cycles


def traced_loop(ops, seconds, tally, tracer):
    plain, traced = [], []
    cycles = 0
    started = time.perf_counter()
    # whole cycles only, and no cycle that would end past `seconds`
    while cycles == 0 or (time.perf_counter() - started) * (cycles + 1) / cycles <= seconds:
        for j, op in enumerate(ops):
            dt, raw, error = _attempt(op)
            plain.append(dt)
            tally.judge(j, op, raw, error)
            with tracer.op(len(traced)):
                dt, raw, error = _attempt(op)
            traced.append(dt)
            tally.judge(j, op, raw, error, traced=True)
        cycles += 1
    return plain, traced, cycles


def setup_probe(op, tally):
    """Wall time of one fresh interpreter from process start through `import
    subforge` and the workload's first op."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", op.probe(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    tally.attempted += 1
    fields = proc.stdout.split()
    if proc.returncode == 0 and len(fields) == 2 and fields[1] == "0":
        return float(fields[0]) - t0
    tally.fail(0, f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}")
    return time.monotonic() - t0


def machine_facts():
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except (TypeError, ValueError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "note": NOTE,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "subforge" / "__init__.py").is_file():
        print(f"perfbench: no subforge package under {SRC}; run from a subforge checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import subforge

    if Path(subforge.__file__).resolve().parent != SRC / "subforge":
        print(f"perfbench: imported subforge from {subforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    load_start = os.getloadavg()
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        tally = Tally(len(ops))
        tally.judge(0, ops[0], *_attempt(ops[0])[1:])  # warm-up, untimed

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "inputs_per_cycle": len(ops), "client": "closed loop, 1"}
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced, cycles = traced_loop(ops, args.seconds, tally, tracer)
            metrics = tracer.layer_metrics(len(traced), tally.removed)
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
            report.update(traced_ops=len(traced), cycles=cycles,
                          worker_threads=subforge.worker_count(),
                          bindings=tracer.binding_names(), spans=len(tracer.spans))
            tracer.write(results / f"{args.workload}.spans.jsonl")
        else:
            probes = []

            def between_cycles():
                if len(probes) < SETUP_REPEATS:
                    probes.append(setup_probe(ops[0], tally))

            cycles = timed_loop(ops, args.seconds, tally, between_cycles)
            while len(probes) < SETUP_REPEATS:
                between_cycles()
            per_cycle = {
                "ops_per_s": [done / sum(times) for times, done in cycles],
                "op_p50_s": [statistics.median(times) for times, _ in cycles],
                "op_p90_s": [statistics.quantiles(times, n=10, method="inclusive")[8]
                             for times, _ in cycles],
            }
            metrics = {name: statistics.median(v) for name, v in per_cycle.items()}
            metrics["setup_s"] = statistics.median(probes)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            samples = [t for times, _ in cycles for t in times]
            report.update(cycles=len(cycles), samples=len(samples),
                          samples_beyond_p90=sum(t > metrics["op_p90_s"] for t in samples),
                          measured_s=sum(samples), per_cycle=per_cycle, setup_probes_s=probes)
        report.update(
            correct=tally.failed == 0,
            attempted=tally.attempted,
            failed=tally.failed,
            fail_ratio=tally.failed / tally.attempted,
            failures=tally.failures,
            output_digest=tally.digest(),
            machine=machine_facts(),
            loadavg_start=load_start,
            loadavg_end=os.getloadavg(),
            metrics={m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(results / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
