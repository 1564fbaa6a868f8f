"""Named one-line mutants of ``src/`` and the test nodes that must kill each.

Run from anywhere: ``python tests/mutants.py [NAME ...]`` runs every mutant, or those named. For each one the
runner copies the repository, without ``.git``, to a temporary directory, replaces the mutant's snippet there
(it must occur exactly once in its file), runs only the mutant's nodes with ``src/`` of the copy first on the
path, and prints ``KILLED`` when every node fails and ``SURVIVED`` otherwise. A node fails when any of its cases
fails or errors; a file node, when any of its tests does. The exit status is 1 if a mutant survived or a snippet
is not found exactly once, else 0.

An equivalent mutant changes no behaviour, so no test can kill it. It is listed in ``EQUIVALENT`` with the
argument that it is equivalent; the runner checks that its snippet is still found once and does not run it.

Tier-1 does not collect this file: its name does not start with ``test_``. A check added to ``src/`` adds its
mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2  # pytest processes at once


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    nodes: tuple[str, ...] = ()  # pytest node ids, relative to the repository root, that must each fail
    argument: str = ""  # why an equivalent mutant changes no behaviour


CLI, TEC, DENSE, TABLEAU = (f"src/tecsim/{name}.py" for name in ("cli", "tec", "dense", "tableau"))
T_CLI, T_TEC, T_DENSE, T_TABLEAU, T_CODE = (
    f"tests/test_{name}.py" for name in ("cli", "tec", "dense", "tableau", "code")
)

MUTANTS = (
    Mutant(
        "syndrome-table row-count self-check off", CLI,
        "if len(rows) != 2 ** len(names):", "if False:",
        (f"{T_CLI}::test_a_syndrome_table_missing_a_row_is_an_internal_error",),
    ),
    Mutant(
        "witness forms self-check off", CLI,
        "if abs(w_proj - w_set) > 1e-10:", "if False:",
        (f"{T_CLI}::test_witness_forms_that_disagree_are_an_internal_error",),
    ),
    Mutant(
        "sweep self-check sigma without its subnormal fallback", CLI,
        " or math.sqrt(ref) * math.sqrt((1.0 - ref) / pt.trials)", "",
        ("tests/test_cli_fuzz.py", f"{T_CLI}::test_sweep_subnormal_rate_is_not_a_false_alarm"),
    ),
    Mutant(
        "grid's first point rebuilt from the span", CLI,
        "[p_min + 0.0, *(", "[p_max - span + 0.0, *(",
        (f"{T_CLI}::test_unclamped_grid_points_stay_within_the_ends",),
    ),
    Mutant(
        "NaN passes the probability check", TEC,
        "if not 0.0 <= p <= 1.0:", "if p < 0.0 or p > 1.0:",
        (f"{T_TEC}::test_noise_model_validation",),
    ),
    Mutant(
        "certificate check off", TEC,
        "if abs(value - 1.0) > 1e-9:", "if False:",
        (f"{T_TEC}::test_a_shared_state_with_z_on_face_1_makes_the_sweep_exit_3",),
    ),
    Mutant(
        "certificate not cached", TEC,
        "self._certified.add(engine)", "pass",
        (f"{T_TEC}::test_a_state_engine_point_certifies_once_and_reads_no_row",),
    ),
    Mutant(
        "cell counts drawn in cell order, not rarest first", TEC,
        'order = chances.argsort(kind="stable")', "order = np.arange(chances.size)",
        (f"{T_TEC}::test_huge_points_draw_no_trials_onto_patterns_they_cannot_reach", "tests/test_golden.py"),
    ),
    Mutant(
        "unprotected failures summed over classes 1 and 2", TEC,
        "counts.reshape(4, -1)[1::2]", "counts.reshape(4, -1)[1:3]",
        (f"{T_TEC}::test_chunked_fast_kernel_matches_whole_array_draw", "tests/test_golden.py"),
    ),
    Mutant(
        "trial member offset without the cell's own size taken off", TEC,
        "np.cumsum(sizes) - sizes", "np.cumsum(sizes)",
        (f"{T_TEC}::test_sample_errors_is_the_documented_trial_rule",),
    ),
    Mutant(
        "trial picks drawn from a fresh (seed, point) stream", TEC,
        "rng.random(trials)", "philox_generator(seed, point).random(trials)",
        (f"{T_TEC}::test_sample_errors_is_the_documented_trial_rule",),
    ),
    Mutant(
        "simulate_trial reads its rows from (seed, point)", TEC,
        "stream = philox_generator(seed, point, 1)", "stream = philox_generator(seed, point)",
        (f"{T_TEC}::test_simulate_trial_rows_are_the_replayed_trials",),
    ),
    Mutant(
        "decode_and_correct's mask check dropped", TEC,
        "check_flips(outcomes, len(self.faces) + len(self.complex.edges))", "pass",
        (f"{T_TEC}::test_a_mask_outside_the_codes_qubits_is_rejected",),
    ),
    Mutant(
        "syndrome's mask check dropped", TEC,
        "check_flips(flips, len(self.faces) + len(self.complex.edges))", "pass",
        (f"{T_TEC}::test_a_mask_outside_the_codes_qubits_is_rejected",),
    ),
    Mutant(
        "decoder tie check off", TEC,
        "if tied.size:", "if False:",
        (f"{T_CODE}::test_minimum_weight_tie_raises",),
    ),
    Mutant(
        "open surface accepted", TEC,
        "if not is_closed(chain, cx):", "if False:",
        (f"{T_CODE}::test_surface_must_be_closed_and_nontrivial",),
    ),
    Mutant(
        "dense one-qubit gate matrix transposed", DENSE,
        "u = GATE_MATRICES.get(gate, _H)", "u = GATE_MATRICES.get(gate, _H).T",
        (f"{T_DENSE}::test_gates_are_the_kronecker_reference_on_random_states",),
    ),
    Mutant(
        "dense fixed outcome read as d > 0", DENSE,
        "history = 2 * history + (d < 0)", "history = 2 * history + (d > 0)",
        (f"{T_DENSE}::test_block_readout_is_the_per_row_reference_bit_for_bit",),
    ),
    Mutant(
        "dense drawn outcome ignores the flip's sign", DENSE,
        "0.5 * (1.0 + (-d if z else d))", "0.5 * (1.0 + d)",
        (f"{T_DENSE}::test_block_readout_is_the_per_row_reference_bit_for_bit",),
    ),
    Mutant(
        "dense Kronecker runs of three qubits", DENSE,
        "mats[:, a + 1 : a + 4]", "mats[:, a + 1 : a + 3]",
        (f"{T_DENSE}::test_batched_expectations_match_the_per_term_oracle",),
    ),
    Mutant(
        "tableau graph-form sign without its rs term", TABLEAU,
        "        sign ^= rs[j]\n        twice +=", "        twice +=",
        (f"{T_TABLEAU}::test_graph_form_reads_and_expects_as_the_collapse_the_dense_oracle_and_its_rows_reversed",),
    ),
)

EQUIVALENT = (
    Mutant(
        "grid's inner points clamped to p_max", CLI,
        "*(p_min + span * i / (steps - 1) for i", "*(min(p_min + span * i / (steps - 1), p_max) for i",
        argument="no inner point exceeds p_max unclamped: the proof is the comment in cli._grid, and "
        f"{T_CLI}::test_unclamped_grid_points_stay_within_the_ends searches the grids nearest to a counterexample",
    ),
    Mutant(
        "dense fixed outcome read as d <= 0", DENSE,
        "history = 2 * history + (d < 0)", "history = 2 * history + (d <= 0)",
        argument="that branch runs only where |d| > 1 - 1e-9, so d is never 0 there",
    ),
)


def _failed(output: str) -> list[str]:
    """The ids pytest's -rfE summary names as failed or errored."""
    return [line.split(" ", 1)[1].split(" - ", 1)[0] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def _node_failed(node: str, failed: list[str]) -> bool:
    return any(
        f == node or f.startswith((node + "[", node + "::")) or ("::" not in f and node.startswith(f + "::"))
        for f in failed
    )


def _snippet_found_once(mutant: Mutant) -> bool:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1


def run(mutant: Mutant) -> bool:
    """Whether every node of ``mutant`` fails on a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="tecsim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "*.egg-info"))
        path = copy / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.nodes]
        result = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=600)
    failed = _failed(result.stdout)
    return all(_node_failed(node, failed) for node in mutant.nodes)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS + EQUIVALENT}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS + EQUIVALENT if not names or m.name in names]
    missing = [m for m in chosen if not _snippet_found_once(m)]
    for mutant in missing:
        print(f"NOT FOUND  {mutant.name}: {mutant.file} must hold {mutant.snippet!r} exactly once")
    for mutant in chosen:
        if mutant in EQUIVALENT and mutant not in missing:
            print(f"EQUIVALENT {mutant.name}: {mutant.argument}")
    start, runnable = time.perf_counter(), [m for m in chosen if m in MUTANTS and m not in missing]
    with ThreadPoolExecutor(WORKERS) as pool:  # each mutant runs in its own copy and pytest process
        killed = list(pool.map(run, runnable))
    for mutant, dead in zip(runnable, killed):
        print(f"{'KILLED  ' if dead else 'SURVIVED'}   {mutant.name}")
    print(f"{len(runnable)} mutants run in {time.perf_counter() - start:.0f} s, {WORKERS} at a time")
    return 1 if missing or not all(killed) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
