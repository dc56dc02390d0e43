"""loccsynth benchmark: one closed-loop client, one process, BLAS on one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pair_files --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each cycle untraced and then traced, prints a
per-call and per-layer table and the tracing overhead, writes the spans
to ``.perfbench/trace-<workload>-<seed>.jsonl`` and reports the per-layer
metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the benchmark models one client on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_OPS = 100  # so that at least ten samples lie beyond p90


def wall_limit(seconds: float) -> float:
    """Deadline for a measuring loop, so ops that fail fast or run slow cannot keep it going."""
    return time.monotonic() + 3 * seconds + 30
SETUP_REPEATS = 5

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "build_p50_ms": "ms",
    "check_p50_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.share": "%" for layer in spans.LAYERS},
    "flatten.uflatgen.ms": "ms",
    "flatten.layer.0.ms": "ms",
    "flatten.layer.1.ms": "ms",
    "flatten.calls": "count/op",
    "flatten.flops_computed": "flop/op",
    "flatten.bytes_computed": "B/op",
    "formats.bytes_written": "B/op",
    "formats.bytes_read": "B/op",
    "synthesis.tree_nodes": "count/op",
    "trace.overhead": "%",
}


def import_program():
    """Put the checkout's ``src`` first on the path and import loccsynth from it."""
    if not (SRC / "loccsynth" / "__init__.py").is_file():
        sys.exit(f"error: no loccsynth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loccsynth

    if Path(loccsynth.__file__).resolve().parent != SRC / "loccsynth":
        sys.exit(f"error: imported loccsynth from {loccsynth.__file__}, not from {SRC}")


def machine_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache_l2": caches.get("L2"),
        "cache_l3": caches.get("L3"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def setup(cls, seed: int, workdir: Path):
    """Import the program in a fresh interpreter, generate the inputs and write them."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import loccsynth.cli"], env=env, check=True)
    workload = cls(seed, str(workdir))
    workload.write()
    return workload, time.perf_counter() - start


def tally() -> dict:
    return {"attempted": 0, "op_ns": [], "phases": {"build": [], "check": []}, "failures": [], "busy_ns": 0}


def run_cycle(workload, cycle: int, into: dict, tracer=None) -> None:
    """Run one cycle's ops, timing each and checking its output afterwards.

    Checks run outside the timed interval.  An op that fails its check or
    raises counts as failed; one that raises has no time.
    """
    for op in workload.cycle(cycle):
        try:
            if tracer is None:
                output, times = workload.run(op)
            else:
                output = workload.run_traced(op, tracer)
                rec = tracer.last_op
                times = {"op": rec["end_ns"] - rec["start_ns"]}
            problems = workload.check(op, output)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            times, problems = {}, [repr(exc)]
        into["attempted"] += 1
        if times:
            into["op_ns"].append(sum(times.values()))
            into["busy_ns"] += into["op_ns"][-1]
        for phase, ns in times.items():
            into["phases"].setdefault(phase, []).append(ns)
        into["failures"].extend(f"{op.name} {op.key}: {p}" for p in problems[:1])


def measure(workload, seconds: float, min_ops: int) -> dict:
    """Whole cycles until the ops have taken ``seconds`` and ``min_ops`` have run, or the wall limit."""
    run, cycle, deadline = tally(), 1, wall_limit(seconds)
    while (run["busy_ns"] < seconds * 1e9 or run["attempted"] < min_ops) and time.monotonic() < deadline:
        run_cycle(workload, cycle, run)
        cycle += 1
    return run


def measure_traced(workload, seconds: float, tracer) -> tuple[dict, dict]:
    """Each cycle untraced, then again traced, until each side has taken ``seconds / 2``.

    Running the same cycle back to back keeps drift of the host out of
    the tracing overhead.
    """
    untraced, traced, cycle, deadline = tally(), tally(), 1, wall_limit(seconds)
    while cycle == 1 or (
        min(untraced["busy_ns"], traced["busy_ns"]) < seconds / 2 * 1e9 and time.monotonic() < deadline
    ):
        run_cycle(workload, cycle, untraced)
        run_cycle(workload, cycle, traced, tracer)
        cycle += 1
    return untraced, traced


def _percentile(values_ns, q) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), q)) / 1e6


def end_to_end(run: dict, setup_s: list[float]) -> dict:
    n = len(run["op_ns"])
    return {
        "op_p50_ms": _percentile(run["op_ns"], 50),
        "op_p90_ms": _percentile(run["op_ns"], 90),
        "build_p50_ms": _percentile(run["phases"]["build"], 50),
        "check_p50_ms": _percentile(run["phases"]["check"], 50),
        "ops_per_s": n / (run["busy_ns"] / 1e9),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary: dict, untraced: dict, traced: dict) -> dict:
    ops = summary["ops"]
    calls = summary["calls"]
    counts = summary["counts"]
    metrics = {
        f"{layer}.share": 100.0 * summary["layers"][layer] / summary["op_ns"] for layer in spans.LAYERS
    }
    metrics["flatten.uflatgen.ms"] = calls.get("flatten.uflatgen", (0, 0))[1] / ops / 1e6
    for p in (0, 1):
        metrics[f"flatten.layer.{p}.ms"] = summary["flatten_layers"].get(p, 0) / ops / 1e6
    for name, key in (
        ("flatten.calls", "flatten.calls"),
        ("flatten.flops_computed", "flatten.flops"),
        ("flatten.bytes_computed", "flatten.bytes"),
        ("formats.bytes_written", "formats.bytes_written"),
        ("formats.bytes_read", "formats.bytes_read"),
        ("synthesis.tree_nodes", "synthesis.tree_nodes"),
    ):
        metrics[name] = counts.get(key, 0) / ops
    plain = untraced["busy_ns"] / len(untraced["op_ns"])
    metrics["trace.overhead"] = 100.0 * (traced["busy_ns"] / len(traced["op_ns"]) - plain) / plain
    return metrics


def main(argv=None) -> int:
    import workloads  # after the path is set: it imports loccsynth

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = benchmark(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def benchmark(cls, seed: int, seconds: float, trace: int, min_ops: int = MIN_OPS, setup_repeats: int = SETUP_REPEATS) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{cls.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = [setup(cls, seed, workdir) for _ in range(setup_repeats if trace == 0 else 1)]
        workload = setups[-1][0]
        run_cycle(workload, 0, tally())  # warm-up: lazy imports, allocator, caches
        if trace == 0:
            runs = [measure(workload, seconds, min_ops)]
        else:
            tracer = spans.Tracer()
            runs = list(measure_traced(workload, seconds, tracer))
            tracer.write(str(WORK / f"trace-{cls.name}-{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not all(r["op_ns"] for r in runs):
        sys.exit(f"error: no {cls.name} op completed; first failure: {runs[0]['failures'][:1]}")
    if trace == 0:
        run = runs[0]
        metrics, units = end_to_end(run, [s for _, s in setups]), END_TO_END
    else:
        summary = spans.summarize(tracer.spans)
        metrics, units = per_layer(summary, *runs), PER_LAYER

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    print(f"workload {cls.name} seed {seed} trace {trace}: {attempted} ops, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4f})")
    for line in failures[:10]:
        print(f"  failed: {line}")
    print("machine " + json.dumps(machine_info()))
    if trace == 0:
        beyond = sum(ns / 1e6 > metrics["op_p90_ms"] for ns in run["op_ns"])
        print(f"samples: {len(run['op_ns'])} op times, {beyond} beyond p90; "
              f"{len(run['phases']['build'])} build, {len(run['phases']['check'])} check")
    else:
        for line in spans.table(summary):
            print(line)
        print(f"tracing overhead: {metrics['trace.overhead']:.2f} % of the untraced mean op time")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


if __name__ == "__main__":
    import_program()
    sys.exit(main())
