"""What a worker process runs: timed operations, set-up, the traced run.

One caller runs operations back to back. The untraced run gives raw op
times with a host-speed factor per op (see calibrate.py); run.py turns
them into the end-to-end metrics. The traced run repeats a fixed list of
operations untraced and then traced, so its call counts repeat exactly for
a given seed; its times are plain wall times.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy
import tecsim

import tracing
import workloads
from workloads import Op, Workload

MIN_OPS_PER_WORKER = 3  # with run.py's 8 workers, op_s_tail has >= 10 ops beyond it

# (ROADMAP baseline row, its value, unit, span name, op-label prefix the row is about)
BASELINE = (
    ("philox_generator(seed, point, trial)", 41, "us", "rng.philox_generator", ""),
    ("simulate_trial, tableau", 94, "us", "tec.simulate_trial", "tableau"),
    ("simulate_trial, dense", 200, "us", "tec.simulate_trial", "dense"),
    ("measure_all X, g8 (8 q), tableau", 39, "us", "cluster.measure_all", "tableau"),
    ("decode_and_correct", 4.8, "us", "tec.decode_and_correct", ""),
    ("extract_syndrome", 3.5, "us", "tec.extract_syndrome", ""),
    ("fast point, 10^6 trials", 93, "ms", "tec.monte_carlo_sweep", "fast"),
    ("tableau build_cluster, cuboid 2x2x2", 3.8, "ms", "cluster.build_cluster", "cuboid 2x2x2"),
    ("tableau build_cluster, cuboid 3x3x3", 35, "ms", "cluster.build_cluster", "cuboid 3x3x3"),
    ("measure_all, cuboid 2x2x2", 1.6, "ms", "cluster.measure_all", "cuboid 2x2x2"),
    ("measure_all, cuboid 3x3x3", 10, "ms", "cluster.measure_all", "cuboid 3x3x3"),
    ("witness settings form", 2.4, "ms", "witness.witness_expectation.settings", ""),
    ("witness projector form", 2.5, "us", "witness.witness_expectation.projector", ""),
)
_SCALE = {"us": 1e6, "ms": 1e3}


@dataclass(frozen=True)
class Outcome:
    op: Op
    seconds: float
    error: str | None


def run_op(op: Op, out: Path) -> Outcome:
    """Time one operation, then check its output outside the timed region."""
    out.unlink(missing_ok=True)
    seconds = None
    start = time.perf_counter()
    try:
        extra = workloads.execute(op, out)
        seconds = time.perf_counter() - start
        workloads.check(op, out, extra)
    except Exception as exc:  # a failed op is counted, never retried, and the run goes on
        if seconds is None:
            seconds = time.perf_counter() - start
        if not isinstance(exc, workloads.CheckError):
            traceback.print_exc(file=sys.stderr)
        return Outcome(op, seconds, f"{type(exc).__name__}: {exc}")
    return Outcome(op, seconds, None)


def measure(workload: Workload, seed: int, index: int, seconds: float, workdir: Path,
            host_speed) -> dict:
    """One worker's share of the untraced run: set-up, then whole timed cycles.

    ``host_speed()`` asks for the calibration factor; it is called before
    and after every timed op, outside the op's timed region.
    """
    out = workdir / f"worker{index}.out"
    stream = workload.ops(seed, index)
    warm = [next(stream) for _ in workload.warm]
    first = [run_op(op, out) for op in warm]
    second = [run_op(op, out) for op in warm]
    timed: list[Outcome] = []
    speeds: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timed) < MIN_OPS_PER_WORKER:
        for _ in workload.grid:
            before = host_speed()
            timed.append(run_op(next(stream), out))
            # the slower reading, so a slowdown on either side of the op counts
            speeds.append(min(before, host_speed()))
    out.unlink(missing_ok=True)
    outcomes = first + second + timed
    return {
        "attempted": len(outcomes),
        "errors": [f"{o.op.label}: {o.error}" for o in outcomes if o.error],
        "timed": [[o.op.trials, o.op.qubits, o.seconds, speed, o.error is None]
                  for o, speed in zip(timed, speeds)],
        "setup_wall_s": sum(o.seconds for o in first) - sum(o.seconds for o in second),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload: Workload, seed: int, workdir: Path) -> dict:
    """The traced run: a fixed op list, untraced then traced, plus an allocation pass."""
    out = workdir / "trace.out"
    stream = workload.ops(seed, 0)
    warm_ops = [next(stream) for _ in workload.warm]
    warm = [run_op(op, out) for op in warm_ops]
    ops = [next(stream) for _ in range(workload.trace_cycles * len(workload.grid))]
    reference = [run_op(op, out) for op in ops]
    tracer = tracing.Tracer()
    traced = []
    with tracer.installed():
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append(run_op(op, out))
    sweeps = [op for op in warm_ops if op.kind == "sweep"]
    alloc_peak, allocated = sweep_alloc_peak(sweeps, out)

    totals = tracer.totals()
    trials = sum(op.trials for op in ops)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    copies = totals.get("tableau.copy", (0,))[0]
    reference_s = sum(o.seconds for o in reference)
    metrics.update({
        "tableau.copies_per_trial": (copies / trials, "1/trial"),
        "tec.monte_carlo_sweep.alloc_peak_mb": (alloc_peak / 2**20, "MiB"),
        "trace.overhead_ratio": (sum(o.seconds for o in traced) / reference_s, "ratio"),
        "trace.ops": (len(ops), "count"),
        "trace.trials": (trials, "count"),
    })
    outcomes = warm + reference + traced + allocated
    return {
        "attempted": len(outcomes),
        "errors": [f"{o.op.label}: {o.error}" for o in outcomes if o.error],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "cross_check": cross_check(tracer, ops, reference, alloc_peak),
    }


def sweep_alloc_peak(ops: list[Op], out: Path) -> tuple[int, list[Outcome]]:
    """Peak bytes tracemalloc sees inside tec.monte_carlo_sweep while ``ops`` run."""
    peak = 0

    def make(_, fn):
        def measured(*args, **kwargs):
            nonlocal peak
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    layer = {"tec.monte_carlo_sweep": tracing.LAYERS["tec.monte_carlo_sweep"]}
    with tracing.patched(make, layer):
        outcomes = [run_op(op, out) for op in ops]
    return peak, outcomes


def cross_check(tracer, ops, reference, alloc_peak) -> list[str]:
    """Traced per-call means beside the ROADMAP baseline rows this workload exercises."""
    lines = []
    for row, baseline, unit, name, prefix in BASELINE:
        ids = {i for i, op in enumerate(ops) if op.label.startswith(prefix)}
        calls, inclusive, _ = tracer.totals(ids).get(name, (0, 0.0, 0.0))
        if calls:
            mean = inclusive / calls * _SCALE[unit]
            lines.append(f"{row:<40} baseline {baseline:>7g} {unit:<7} measured {mean:9.3f} {unit}")
    fast = [o for o in reference if o.op.label.startswith("fast")]
    if fast:
        rate = sum(o.op.trials for o in fast) / sum(o.seconds for o in fast) / 1e6
        lines.append(f"{'fast throughput, untraced':<40} baseline {10:>7g} {'Mtrial/s':<7} "
                     f"measured {rate:9.3f} Mtrial/s")
        lines.append(f"{'fast point peak, 10^6 trials':<40} baseline {54:>7g} {'MB':<7} "
                     f"measured {alloc_peak / 1e6:9.3f} MB (tracemalloc)")
    return lines


def provenance(workload: Workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tecsim": tecsim.__version__,
        "workload": workload.name,
        "seed": seed,
        "params": workload.params(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()
