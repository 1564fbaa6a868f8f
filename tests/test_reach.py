"""The reach of ``src/``: which of its functions no README line, README example or benchmark
workload calls. The uncalled set is pinned, so code that nothing runs is added, or leaves, only
on purpose.

The reach runs in-process under ``sys.setprofile``: a fresh import of ``tecsim``, so code that
runs at import counts as reached, then every ``tecsim`` line and the Python block of the README,
then one cycle of every grid in ``perfbench/workloads.py``, each operation run and checked as the
benchmark does. Only named functions count: class bodies, lambdas and comprehensions do not.
"""

import importlib.util
import inspect
import shlex
import sys
import types
from pathlib import Path

from test_readme import ROOT, readme_blocks, tecsim_lines

WORKLOADS = ROOT / "perfbench" / "workloads.py"

# module.qualified name of every function in src/tecsim that the reach never calls
UNCALLED = {
    "cluster.ClusterState.copy",
    "complexes.CellComplex.__hash__",
    "complexes.Chain.__bool__",
    "complexes.Chain.__xor__",
    "dense.StateVector.apply_gate",
    "dense.StateVector.copy",
    "dense.StateVector.measure_pauli",
    "dense.StateVector.measure_x",
    "pauli.PauliOperator.__str__",
    "pauli.PauliOperator.letter",
    "pauli.PauliOperator.phase",
    "pauli.PauliOperator.single",
    "pauli.PauliOperator.support",
    "pauli.check_gate",
    "pauli.pauli_to_text",
    "tableau.StabilizerTableau._anticommuting",
    "tableau.StabilizerTableau._collapse",
    "tableau.StabilizerTableau._deterministic_sign",
    "tableau.StabilizerTableau._pauli",
    "tableau.StabilizerTableau.apply_gate",
    "tableau.StabilizerTableau.cnot",
    "tableau.StabilizerTableau.copy",
    "tableau.StabilizerTableau.cz",
    "tableau.StabilizerTableau.h",
    "tableau.StabilizerTableau.measure_pauli",
    "tableau.StabilizerTableau.measure_x",
    "tableau.StabilizerTableau.s",
    "tableau.StabilizerTableau.x",
    "tableau.StabilizerTableau.y",
    "tableau.StabilizerTableau.z",
    "tec.TopologicalCode.state",
}


def _functions(package: Path) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every named function in the package -> module.qualified name."""
    found = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                found[const.co_filename, const.co_firstlineno, const.co_name] = prefix + const.co_name
                walk(const, f"{prefix}{const.co_name}.<locals>.")
            else:
                walk(const, f"{prefix}{const.co_name}.")

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), f"{path.stem}.")
    return found


def _run_the_reach(out: Path) -> set[tuple[str, int, str]]:
    """(file, first line, name) of every code object called while the reach runs."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        cli = importlib.import_module("tecsim.cli")
        for line in tecsim_lines():
            argv = [str(ROOT / a) if a.startswith("tests/") else a for a in shlex.split(line, comments=True)[1:]]
            assert cli.main(argv) == 0, line
        for block in readme_blocks("python"):
            exec(compile(block, "README.md", "exec"), {})
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            for op in workload.grid:
                op = op.seeded(3)
                workloads.check(op, out, workloads.execute(op, out))
    finally:
        sys.setprofile(None)
    return called


def _tecsim_modules() -> dict[str, types.ModuleType]:
    return {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "tecsim"}


def test_the_uncalled_functions_of_src_are_the_pinned_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the README's sweep writes its --out file
    imported = _tecsim_modules()
    for name in imported:
        del sys.modules[name]
    try:
        called = _run_the_reach(tmp_path / "out")
        package = Path(sys.modules["tecsim"].__file__).parent
    finally:  # the other tests keep the modules they imported
        for name in [*_tecsim_modules(), "perfbench_workloads"]:
            sys.modules.pop(name, None)
        sys.modules.update(imported)
    uncalled = {name for key, name in _functions(package).items() if key not in called}
    assert uncalled == UNCALLED, {"newly uncalled": uncalled - UNCALLED, "now called or gone": UNCALLED - uncalled}
