#!/usr/bin/env python3
"""qhmeans benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run. The lines before it print every metric with its unit,
and a run record (and, traced, the span file) is written to
perfbench/results/. See perfbench/README.md for the workloads and metrics.
"""

import os

# Pinned before numpy loads, and inherited by every child process. On a
# two-core VM the default of two OpenBLAS threads made the small solves here
# about 9% slower, and the figures would depend on the core count.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# Process-spawn samples per run, for setup_s and verify_paper_s.
SPAWNS = 8
IMPORT_SPAWNS = 3
CHILD_TIMEOUT_S = 120
# Ops a traced run samples of each kind its own ops did not cover, so that
# every run reports every per-layer metric: (workload, op count).
TRACE_SAMPLES = {"barycenter": ("descent", 40), "fixed_point": ("fixed-point", 80), "campaign": ("campaign", 8)}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("descent", "illcond", "fixed-point", "campaign"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first timed op.

    The child stamps CLOCK_MONOTONIC, which all processes share, after its
    import, input generation, spec construction and warm-up op.
    """
    t0 = time.monotonic()
    done = spawn([sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)])
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


def verify_paper_sample() -> tuple:
    """Wall seconds of one `python -m qhmeans.cli verify-paper`, and whether it passed."""
    t0 = time.perf_counter()
    done = spawn([sys.executable, "-m", "qhmeans.cli", "verify-paper"])
    return time.perf_counter() - t0, done.returncode == 0


def measure_import() -> list:
    code = "import time; t = time.perf_counter(); import qhmeans; print(time.perf_counter() - t)"
    samples = []
    for _ in range(1 + IMPORT_SPAWNS):
        done = spawn([sys.executable, "-c", code])
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


def run_loop(runner, seconds: float, interludes: int, interlude) -> list:
    """Closed loop, untraced: op after op until `seconds` of op time have passed.

    `interlude` is called `interludes` times at evenly spaced points of the
    loop, so process-spawn samples are spread over the run like the ops are;
    its own time does not count as loop time.
    """
    records = []
    due = [(k + 0.5) * seconds / interludes for k in range(interludes)]
    elapsed = 0.0
    while not records or elapsed < seconds:
        if due and elapsed >= due[0]:
            due.pop(0)
            interlude()
            continue
        t0 = time.perf_counter()
        records.append(runner.run(len(records), NullTracer()))
        elapsed += time.perf_counter() - t0
    for _ in due:
        interlude()
    return records


def paired_loop(runner, tracer, seconds: float) -> tuple:
    """Each op twice, traced and untraced, first one then the other by turns.

    Returns the traced records and the untraced op times; pairing the two
    runs of one op keeps machine speed drift out of the tracing overhead.
    """
    records, untraced = [], []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        index = len(records)
        if index % 2:
            untraced.append(runner.run(index, NullTracer()).seconds)
        records.append(runner.run(index, tracer))
        if not index % 2:
            untraced.append(runner.run(index, NullTracer()).seconds)
    return records, untraced


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qhmeans").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(records, workload, setup, verify) -> tuple:
    import numpy as np

    times = np.array([r.seconds for r in records])
    tail_ms = float(np.percentile(times, workload.tail_percentile)) * 1e3
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(records) / float(times.sum()),
        "op_ms.p50": float(np.median(times)) * 1e3,
        "op_ms.tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verify_paper_s": statistics.median(verify),
    }
    extra = {
        "failed_frac": sum(r.failed for r in records) / len(records),
        "false_converged": sum(r.false_converged for r in records),
        "op_ms.tail_percentile": workload.tail_percentile,
        "op_ms.tail_ops_beyond": int((times * 1e3 > tail_ms).sum()),
        "op_count": len(records),
        "op_ms": [r.seconds * 1e3 for r in records],
        "setup_s_samples": setup,
        "verify_paper_s_samples": verify,
    }
    return metrics, extra


def cell_summary(records) -> list:
    by_cell = {}
    for r in records:
        by_cell.setdefault(r.cell, []).append(r)
    rows = []
    for cell, rs in by_cell.items():
        rows.append({
            "cell": list(cell),
            "ops": len(rs),
            "median_ms": statistics.median(r.seconds for r in rs) * 1e3,
            "failed": sum(r.failed for r in rs),
            "not_converged": sum(not r.converged for r in rs),
            "false_converged": sum(r.false_converged for r in rs),
            "median_iterations": statistics.median(r.iterations for r in rs),
            "max_true_residual": max(r.true_residual for r in rs),
        })
    return rows


def setup_probe(args) -> int:
    """Child side of measure_setup: set up exactly as a run does, then stamp the clock."""
    from workloads import WORKLOADS, Runner

    Runner(WORKLOADS[args.workload], args.seed).run(0, NullTracer())
    print(time.monotonic())
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qhmeans" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qhmeans'}; run from a qhmeans checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qhmeans

    if Path(qhmeans.__file__).resolve().parent != (SRC / "qhmeans").resolve():
        print(f"error: imported qhmeans from {qhmeans.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", qhmeans.ConditioningWarning)
    if args.setup_probe:
        return setup_probe(args)

    from layers import missing_kinds, op_metrics, run_probes
    from metrics import END_TO_END, FAILURE_METRICS, PER_LAYER
    from workloads import WORKLOADS, Runner

    workload = WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        runner = Runner(workload, args.seed)
        runner.run(0, NullTracer())  # warm-up op, as in the setup probe
        setup_sample(args.workload, args.seed)  # fills the bytecode and file caches
        setup, verify, verify_ok = [], [], True

        def spawn_samples():
            nonlocal verify_ok
            setup.append(setup_sample(args.workload, args.seed))
            seconds, ok = verify_paper_sample()
            verify.append(seconds)
            verify_ok = verify_ok and ok

        records = run_loop(runner, args.seconds, SPAWNS, spawn_samples)
        metrics, extra = end_to_end(records, workload, setup, verify)
        extra["verify_paper_passed"] = verify_ok
        catalogue = [(name, unit) for name, unit, _, _ in END_TO_END]
        printed = {**metrics, **{name: extra[name] for name, _ in FAILURE_METRICS}}
        catalogue += list(FAILURE_METRICS)
    else:
        verify_ok = True
        import_s = measure_import()
        runner = Runner(workload, args.seed)
        runner.run(0, NullTracer())
        tracer = Tracer()
        records, untraced = paired_loop(runner, tracer, args.seconds)
        samples = []
        for kind in sorted(missing_kinds(records)):
            name, count = TRACE_SAMPLES[kind]
            sampler = Runner(WORKLOADS[name], args.seed)
            samples += [sampler.run(i, tracer) for i in range(count)]
        metrics = op_metrics(records + samples, tracer)
        metrics.update(run_probes(tracer, args.seed))
        metrics["cli.import_s"] = statistics.median(import_s)
        metrics["trace.overhead_frac"] = sum(r.seconds for r in records) / sum(untraced) - 1.0
        extra = {"op_count": len(records), "sampled_ops": len(samples), "import_s_samples": import_s,
                 "span_summary": tracer.summary()}
        spans_path = RESULTS / f"{stem}-spans.json"
        tracer.dump(spans_path)
        extra["span_file"] = str(spans_path.relative_to(ROOT))
        record["moves"] = {name: moves for name, _, _, moves in PER_LAYER}
        catalogue = [(name, unit) for name, unit, _, _ in PER_LAYER]
        printed = metrics

    failed = sum(r.failed for r in records)
    correct = verify_ok and not any(r.error or r.false_converged or r.violations for r in records)
    units = dict(catalogue)
    record.update({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": printed[name], "unit": units[name]} for name, _ in catalogue},
        "extra": extra,
        "cells": cell_summary(records),
        "errors": [{"index": r.index, "cell": list(r.cell), "error": r.error} for r in records if r.error][:5],
    })
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, unit in catalogue:
        print(f"{args.workload:<12} {name:<48} {printed[name]:>14.6g} {unit}")
    print(f"{args.workload:<12} attempted={len(records)} failed={failed} correct={correct}")
    result_names = [name for name, _, _, _ in (END_TO_END if args.trace == 0 else PER_LAYER)]
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in result_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
