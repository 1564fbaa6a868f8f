"""One fresh process of a benchmark run. run.py starts it and answers its calibration requests.

    python3 perfbench/worker.py measure WORKLOAD SEED INDEX SECONDS WORKDIR
    python3 perfbench/worker.py trace WORKLOAD SEED WORKDIR

A line "C" on stdout asks the parent for the host-speed factor, which it
measures with calibrate.py and sends on stdin. The last line
on stdout is "R <json>", the worker's report.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    channel = sys.stdout  # ops redirect sys.stdout; requests go to the real one

    def host_speed() -> float:
        channel.write("C\n")
        channel.flush()
        return float(sys.stdin.readline())

    mode, name, seed, *rest = argv
    speed = host_speed()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tecsim  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - start

    import harness
    import workloads

    workload = workloads.WORKLOADS[name]
    if mode == "trace":
        (workdir,) = rest
        report = harness.trace(workload, int(seed), Path(workdir))
    else:
        index, seconds, workdir = rest
        report = harness.measure(workload, int(seed), int(index), float(seconds),
                                 Path(workdir), host_speed)
        report["setup_wall_s"] += import_s
        report["setup_s"] = report["setup_wall_s"] * speed
    report["provenance"] = harness.provenance(workload, int(seed))
    channel.write("R " + json.dumps(report) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
