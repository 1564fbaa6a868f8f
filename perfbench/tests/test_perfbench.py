"""Tests of the benchmark itself: seeds, tracing hygiene, metric coverage, failure counting.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tecsim  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _first_ops(workload, seed, count, stream=0):
    return list(itertools.islice(workload.ops(seed, stream), count))


def test_seed_changes_outputs_but_not_op_counts(tmp_path):
    for workload in WORKLOADS.values():
        count = len(workload.warm) + workload.trace_cycles * len(workload.grid)
        a, b = _first_ops(workload, 1, count), _first_ops(workload, 2, count)
        assert [op.label for op in a] == [op.label for op in b]
        assert [op.seed for op in a] != [op.seed for op in b]
        assert [op.seed for op in a] == [op.seed for op in _first_ops(workload, 1, count)]
        assert [op.seed for op in a] != [op.seed for op in _first_ops(workload, 1, count, 1)]

    outputs = []
    for seed in (1, 2):
        (first,) = _first_ops(WORKLOADS["tableau_sweep"], seed, 1)
        op = workloads.sweep_op("tableau", 500, 0.5).seeded(first.seed)  # p = 0 is seed-free
        out = tmp_path / f"sweep{seed}.csv"
        assert harness.run_op(op, out).error is None
        outputs.append(out.read_text())
    assert outputs[0] != outputs[1]

    lattice = WORKLOADS["lattice"]
    records = []
    for seed in (1, 2):
        (op,) = _first_ops(lattice, seed, 1)
        _, _, record = workloads.execute(op, tmp_path / "cx.json")
        records.append(record.outcomes)
    assert records[0] != records[1]


def test_tracing_restores_every_wrapped_attribute():
    targets = [t for ts in tracing.LAYERS.values() for t in ts]
    before = {t: getattr(*tracing._resolve(t)) for t in targets}
    original = tecsim.rng.philox_generator
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tecsim.tec.philox_generator is tecsim.rng.philox_generator is not original
            tecsim.tec.philox_generator(1, 2)
            raise RuntimeError("leave the block early")
    assert tecsim.tec.philox_generator is tecsim.rng.philox_generator
    for target, original in before.items():
        assert getattr(*tracing._resolve(target)) is original, target
    assert [span[0] for span in tracer.spans] == ["rng.philox_generator"]


def test_traced_counts_repeat_and_separate_bypass_from_mechanism(tmp_path):
    tableau = harness.trace(WORKLOADS["tableau_sweep"], 7, tmp_path)
    again = harness.trace(WORKLOADS["tableau_sweep"], 7, tmp_path)
    calls = {k: v["value"] for k, v in tableau["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in again["metrics"].items() if k.endswith(".calls")}
    m = {k: v["value"] for k, v in tableau["metrics"].items()}
    assert m["tableau.copies_per_trial"] == 2.0
    assert m["rng.philox_generator.calls"] == m["trace.trials"]

    fast = WORKLOADS["fast_sweep"]
    small = dataclasses.replace(fast, grid=fast.grid[:2], trace_cycles=1)
    m = {k: v["value"] for k, v in harness.trace(small, 7, tmp_path)["metrics"].items()}
    assert m["rng.philox_generator.calls"] == m["trace.ops"] == 2
    assert m["tableau.copy.calls"] == m["tec.simulate_trial.calls"] == 0
    assert m["tec.monte_carlo_sweep.alloc_peak_mb"] > 40


def test_failed_ops_count_without_stopping_the_run(tmp_path):
    good = workloads.witness_op(0.605)
    wrong_check = dataclasses.replace(good, param=0.5)  # expects W = 0
    nonzero_exit = workloads.sweep_op("fast", 1000, 1.5)  # tecsim rejects p > 1
    broken = workloads.Workload("broken", "", (good, wrong_check, nonzero_exit), 1)
    result = harness.trace(broken, 1, tmp_path)
    # warm-up: good + exit; reference and traced: 3 each; allocation pass: exit
    assert result["attempted"] == 9 and len(result["errors"]) == 6
    assert sum("exited 1" in e for e in result["errors"]) == 4
    assert sum("W = " in e for e in result["errors"]) == 2
    assert result["metrics"]["witness.witness_expectation.projector.calls"]["value"] == 2


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_emits_its_declared_metrics(workload):
    assert workload in {w["name"] for w in BENCH["workloads"]}
    for trace, declared in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
        proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "lattice", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
