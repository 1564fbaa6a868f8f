"""Byte-exact command outputs, pinned against the files in tests/golden/.

Each case is one ``tecsim`` argv and the exact stdout it must produce. Sweeps
must produce the same bytes for one and for two workers. Regenerate the files
only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tecsim.cli import main

from reference import RING5

GOLDEN = Path(__file__).resolve().parent / "golden"

# engine -> (trials, steps), small enough that every sweep case runs in well under a second
_SWEEP_SIZES = {"fast": (20_000, 5), "tableau": (150, 3), "dense": (40, 3)}

CASES = {
    "syndrome-table.txt": ["syndrome-table"],
    "syndrome-table.csv": ["syndrome-table", "--format", "csv"],
    "syndrome-table.json": ["syndrome-table", "--format", "json"],
    "complex-g8.json": ["complex", "g8"],
    "complex-elementary.json": ["complex", "elementary"],
    "complex-cuboid-2x2x2.json": ["complex", "cuboid", "2x2x2"],
    "complex-ring5.json": ["complex", str(RING5)],
    **{
        f"sweep-{engine}-seed{seed}.{fmt}": [
            "sweep", "--engine", engine, "--seed", str(seed), "--trials", str(trials),
            "--steps", str(steps), "--format", fmt,
        ]
        for engine, (trials, steps) in _SWEEP_SIZES.items()
        for seed in (7, 13)
        for fmt in ("csv", "json")
    },
}

_RUNS = {
    f"{name}-workers{workers}" if workers else name: (
        name, argv + ["--workers", str(workers)] if workers else argv
    )
    for name, argv in CASES.items()
    for workers in ((1, 2) if argv[0] == "sweep" else (None,))
}


@pytest.mark.parametrize("name, argv", _RUNS.values(), ids=_RUNS.keys())
def test_output_matches_golden_file(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes(), name


def _without_engine(name: str, text: str):
    """A sweep output without the engine it names: its data rows, or its JSON without "engine"."""
    if name.endswith(".json"):
        payload = json.loads(text)
        del payload["engine"]
        return payload
    return [line for line in text.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("name", [n for n in CASES if n.startswith(("sweep-tableau", "sweep-dense"))])
def test_state_engine_golden_sweeps_hold_the_fast_engines_rows(capsys, name):
    """Every engine reads the same flips, so a state engine's file differs from the fast
    output at its own arguments only where it names its engine."""
    argv = list(CASES[name])
    argv[argv.index("--engine") + 1] = "fast"
    assert main(argv) == 0
    fast = capsys.readouterr().out
    assert _without_engine(name, (GOLDEN / name).read_text("utf-8")) == _without_engine(name, fast)


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        if code != 0:
            sys.exit(f"tecsim {' '.join(argv)} exited {code}")
        (GOLDEN / name).write_bytes(buffer.getvalue().encode("utf-8"))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
