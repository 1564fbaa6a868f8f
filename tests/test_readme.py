import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the quick start prints the error-free syndrome, then the protected correlation
    assert capsys.readouterr().out.startswith("(1, 1, 1, 1)\n1\n")
