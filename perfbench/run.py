"""tecsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tecsim checkout; the package is imported from its
``src/``. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Provenance, op
counts and (traced) the ROADMAP baseline cross-check go to stderr.

This process never imports tecsim. It pins itself to one CPU and runs the
workload in fresh worker processes, one after another (worker.py), and it
measures the host speed (calibrate.py) whenever a worker asks. The untraced run
splits ``--seconds`` over WORKERS workers, so each run averages over as
many processes: their hash seeds and memory layouts differ, and a single
process moved its median by up to 10 %.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = 8
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # op_s_tail is the slowest op with at least this many ops beyond it

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "qubits_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def run_worker(args: list[str]) -> dict:
    """Run worker.py to completion, answering its calibration requests."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    report = None
    try:
        for line in iter(proc.stdout.readline, ""):
            if line == "C\n":
                proc.stdin.write(f"{calibrate.speed()!r}\n")
                proc.stdin.flush()
            elif line.startswith("R "):
                report = json.loads(line[2:])
    except BrokenPipeError:
        pass  # the worker died; its exit status says why
    finally:
        watchdog.cancel()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        proc.wait()
    if proc.returncode != 0 or report is None:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode} without a report")
    return report


def git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(reports: list[dict]) -> tuple[dict, dict]:
    """Pool the workers' timed ops into the end-to-end metrics."""
    timed = [row for r in reports for row in r["timed"]]  # trials, qubits, s, speed, ok
    ref = sorted(seconds * speed for _, _, seconds, speed, _ in timed)  # reference seconds
    busy = sum(seconds * speed for trials, _, seconds, speed, _ in timed if trials)
    metrics = {
        "trials_per_s": sum(row[0] for row in timed if row[4]) / busy,
        "qubits_per_s": sum(row[1] for row in timed if row[4]) / busy,
        "op_s_p50": statistics.median(ref),
        "op_s_tail": ref[-TAIL_BEYOND - 1],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
    }
    notes = {
        "timed_ops": len(ref),
        "op_s_tail_percentile": round(100.0 * (len(ref) - TAIL_BEYOND) / len(ref), 2),
        "host_speed_median": statistics.median(row[3] for row in timed),
        "op_wall_s_p50_unscaled": statistics.median(row[2] for row in timed),
        "setup_s_workers": [r["setup_s"] for r in reports],
        "setup_wall_s_workers_unscaled": [r["setup_wall_s"] for r in reports],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def main(argv=None) -> int:
    if not (SRC / "tecsim" / "__init__.py").is_file():
        print(f"perfbench: error: no tecsim sources under {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="untraced measuring time; the traced run uses a fixed op list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    # workers inherit the CPU, so the kernel runs where the ops ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    common = [args.workload, str(args.seed)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            reports = [run_worker(["trace", *common, tmp])]
            metrics, notes = reports[0]["metrics"], {}
        else:
            share = str(args.seconds / WORKERS)
            reports = [run_worker(["measure", *common, str(i), share, tmp])
                       for i in range(WORKERS)]
            metrics, notes = end_to_end(reports)
    errors = [e for r in reports for e in r["errors"]]
    attempted = sum(r["attempted"] for r in reports)
    report = {
        "provenance": {**reports[0]["provenance"], "commit": git_commit()},
        **notes,
        "error_rate": len(errors) / attempted,
        "errors": errors[:10],
    }
    print(json.dumps(report, indent=1), file=sys.stderr)
    if args.trace:
        print("ROADMAP baseline cross-check (traced means per call):", file=sys.stderr)
        print("\n".join(reports[0]["cross_check"]), file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
