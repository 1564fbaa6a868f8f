import re
import shlex
from pathlib import Path

import pytest

from tecsim import cli

from reference import SINGLE_ERROR_SYNDROMES

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def tecsim_lines():
    """Every ``tecsim …`` line of the README's sh blocks, with ``\\`` continuations joined."""
    lines = "".join(block.replace("\\\n", " ") for block in readme_blocks("sh")).splitlines()
    return [line.strip() for line in lines if line.startswith("tecsim ")]


def test_readme_python_blocks_run(capsys):
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the quick start prints the error-free syndrome, the protected correlation, its readout product, the dense
    # syndrome, then Table 1 on each engine: each flip's syndrome from the row's mask, its correction and verdict;
    # it ends with a replayed sweep point, its first failed trial and whether its failures are the sweep's count
    out = capsys.readouterr().out
    assert out.startswith("(1, 1, 1, 1)\n1\n1\n(1, 1, 1, 1)\n")
    assert out.endswith(", corrected -1\nTrue\n")
    for engine in ("tableau", "dense"):
        for q, syndrome in SINGLE_ERROR_SYNDROMES.items():
            line = f"{engine} f{q} flipped, syndrome {syndrome}, correction [{q}], corrected +1\n"
            assert line in out, (engine, q)


@pytest.mark.parametrize("line", tecsim_lines())
def test_readme_tecsim_lines_exit_zero(line, tmp_path, monkeypatch, capsys):
    """Run from a temporary directory, so output files land there; repository paths resolve
    against the repository root."""
    argv = [str(ROOT / arg) if arg.startswith("tests/") else arg for arg in shlex.split(line, comments=True)[1:]]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_readme_lists_every_subcommand():
    commands = {line.split()[1] for line in tecsim_lines()}
    assert commands == {"syndrome-table", "sweep", "witness", "complex"}
