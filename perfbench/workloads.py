"""The benchmark's workloads: the operations each runs and their output checks.

Every operation calls tecsim's public entry points in-process and looks
them up as module attributes at call time, so the tracer's wrappers see
every call. The workload seed only picks the tecsim seed of each
operation; the grids and trial counts are fixed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import tecsim
from tecsim import cli, cluster, complexes, rng, witness

G8_QUBITS = 8  # every sweep trial prepares and reads out the 8-qubit g8 state
SIGMAS = 5.0
SWEEP_HEADER = (
    "p,mc_protected,se_protected,mc_unprotected,se_unprotected,"
    "analytic_protected,analytic_unprotected"
)


class CheckError(Exception):
    """An operation exited nonzero or its output failed a check."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a tecsim CLI call, plus a library chain for lattices."""

    kind: str  # "sweep", "witness" or "lattice"
    label: str
    argv: tuple[str, ...]
    param: object  # p, visibility, or cuboid dimensions
    trials: int = 0  # Monte-Carlo trials; one per lattice preparation
    qubits: int = 0  # qubits prepared and read out
    seed: int = 0

    def seeded(self, seed: int) -> "Op":
        argv = self.argv + ("--seed", str(seed)) if self.kind == "sweep" else self.argv
        return dataclasses.replace(self, argv=argv, seed=seed)


def sweep_op(engine: str, trials: int, p: float) -> Op:
    argv = ("sweep", "--engine", engine, "--trials", str(trials), "--steps", "1",
            "--p-min", repr(p), "--p-max", repr(p), "--workers", "1")
    return Op("sweep", f"{engine} p={p!r}", argv, p, trials, trials * G8_QUBITS)


def witness_op(v: float) -> Op:
    return Op("witness", f"witness v={v!r}", ("witness", "--visibility", repr(v)), v)


def lattice_op(dims: tuple[int, int, int]) -> Op:
    _, faces, edges, _ = complexes.build_cuboid_complex(*dims).counts()
    size = "x".join(map(str, dims))
    return Op("lattice", f"cuboid {size}", ("complex", "cuboid", size), dims, 1, faces + edges)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: tuple[Op, ...]  # one cycle of operations, in order
    trace_cycles: int  # cycles in the traced run's fixed operation list

    @property
    def warm(self) -> tuple[Op, ...]:
        """The first operation of each kind: it pays the lazy builds."""
        first: dict[str, Op] = {}
        for op in self.grid:
            first.setdefault(op.kind, op)
        return tuple(first.values())

    def ops(self, seed: int, stream: int):
        """The warm-up operations, then whole cycles of the grid, forever.

        Each worker process of a run takes its own ``stream``.
        """
        draw = random.Random(f"{seed}/{stream}")
        for op in self.warm:
            yield op.seeded(draw.randrange(2**31))
        while True:
            for op in self.grid:
                yield op.seeded(draw.randrange(2**31))

    def params(self) -> dict:
        return {
            "cycle": [op.label for op in self.grid],
            "trials": sorted({op.trials for op in self.grid if op.kind == "sweep"}),
            "trace_cycles": self.trace_cycles,
        }


def _workloads() -> dict[str, Workload]:
    # Grids and trial counts are the README's documented invocations; every
    # nonzero p keeps at least 20 expected failures, so the CLI's zero-variance
    # self-check cannot raise its known false alarm (see README.md here).
    fast = tuple(sweep_op("fast", 1_000_000, i / 20) for i in range(21))
    tab = tuple(sweep_op("tableau", 500, p) for p in (0.0, 0.25, 0.5, 0.75, 1.0))
    dense = tuple(sweep_op("dense", 200, p) for p in (0.0, 0.5, 1.0))
    wit = tuple(witness_op(v) for v in (1.0, 0.605, 0.5, 0.0))
    lat = tuple(lattice_op(d) for d in ((2, 2, 2), (3, 3, 2), (3, 3, 3)))
    return {
        w.name: w
        for w in (
            Workload("fast_sweep",
                     "vectorized fast kernel and its (trials x 6) draw array; one Philox "
                     "stream per op and no state engine, the bypass case for per-trial work",
                     fast, 1),
            Workload("tableau_sweep",
                     "per-trial tableau path on the 8-qubit state: Philox stream, two state "
                     "copies, flips, 8 X measurements, syndrome and decode per trial",
                     tab, 2),
            Workload("lattice",
                     "cuboid complexes, their homology summary, tableau H/CZ cluster build "
                     "and X readout on 90 to 252 qubits; no Monte-Carlo path",
                     lat, 2),
            Workload("dense_oracle",
                     "the only workload on the dense state-vector engine and the witness: "
                     "dense sweeps, then both witness forms at four visibilities",
                     dense + wit, 2),
        )
    }


WORKLOADS = _workloads()


def execute(op: Op, out: Path):
    """Run one operation; returns what its check needs beyond the output file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # cmd_sweep prints a stray "max |MC - analytic|" line to stdout; it is
    # captured here and never parsed.
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*op.argv, "--out", str(out)])
        except SystemExit as exc:  # argparse exits on arguments it rejects
            code = exc.code
    if code != 0:
        raise CheckError(f"tecsim {' '.join(op.argv)} exited {code}: {stderr.getvalue().strip()}")
    if op.kind != "lattice":
        return None
    cx = complexes.build_cuboid_complex(*op.param)
    state = cluster.build_cluster(cluster.interaction_graph(cx), "tableau")
    return cx, state.graph, cluster.measure_all(state, rng.philox_generator(op.seed), "x")


def check(op: Op, out: Path, extra) -> None:
    """Raise CheckError unless the operation's output is correct."""
    text = out.read_text(encoding="utf-8")
    {"sweep": _check_sweep, "witness": _check_witness, "lattice": _check_lattice}[op.kind](
        op, text, extra
    )


def _check_sweep(op: Op, text: str, _) -> None:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if len(rows) != 2 or rows[0] != SWEEP_HEADER:
        raise CheckError(f"{op.label}: expected the CSV header and one row, got {rows!r}")
    p, mc_prot, _, mc_unprot, _, an_prot, an_unprot = map(float, rows[1].split(","))
    if abs(p - op.param) > 1e-12:
        raise CheckError(f"{op.label}: row is for p={p}")
    for column, mc, analytic, exact in (
        ("protected", mc_prot, an_prot, tecsim.analytic_protected(op.param)),
        ("unprotected", mc_unprot, an_unprot, tecsim.analytic_unprotected(op.param)),
    ):
        if abs(analytic - exact) > 1e-12:
            raise CheckError(f"{op.label}: analytic_{column} {analytic} != {exact}")
        sigma = math.sqrt(exact * (1.0 - exact) / op.trials)
        if abs(mc - exact) > SIGMAS * sigma + 1e-12:
            raise CheckError(
                f"{op.label}: mc_{column} {mc} is more than {SIGMAS:g} sigma from {exact}"
            )


def _check_witness(op: Op, text: str, _) -> None:
    (result,) = json.loads(text)["results"]
    v = op.param
    value = result["witness_expectation"]
    coefficients = {s.name: s.coefficient for s in witness.build_witness().settings}
    if set(result["settings"]) != set(coefficients):
        raise CheckError(f"{op.label}: settings {sorted(result['settings'])}")
    settings_form = 0.5 + sum(coefficients[k] * x for k, x in result["settings"].items())
    if abs(settings_form - value) > 1e-10:
        raise CheckError(f"{op.label}: settings form {settings_form} != projector form {value}")
    # white noise gives W = 1/2 - v: v = 0.605 -> -0.105, v = 1 -> -0.5
    if abs(value - (0.5 - v)) > 1e-9 or abs(result["fidelity_bound"] - v) > 1e-9:
        raise CheckError(f"{op.label}: W = {value}, fidelity bound {result['fidelity_bound']}")


def _check_lattice(op: Op, text: str, extra) -> None:
    cx, graph, record = extra
    payload = json.loads(text)
    counts = tuple(payload["counts"][k] for k in ("volumes", "faces", "edges", "vertices"))
    if counts != cx.counts() or payload["qubits"] != graph.qubit_count:
        raise CheckError(f"{op.label}: complex JSON counts {counts} != {cx.counts()}")
    for volume, faces in cx.volumes.items():
        if record.product(faces) != 1:
            raise CheckError(f"{op.label}: X product over the boundary of {volume} is -1")
