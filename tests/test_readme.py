"""The README's Library example runs as written, so a removed name cannot
linger in it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(compile(block, f"{README.name} Library example", "exec"), {})
    # it prints the sampled frequencies of the four outcomes
    assert len(capsys.readouterr().out.split()) == 4
