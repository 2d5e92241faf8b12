"""Run the doctests embedded in the library modules and the README's library example."""

import contextlib
import doctest
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from balacyc import cli

MODULE_NAMES = [
    "balacyc.cyclotomic",
    "balacyc.intlinalg",
    "balacyc.groups",
    "balacyc.complexes",
    "balacyc.cyclo_family",
]

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_library_example():
    # the one python block runs as written and prints the value that each
    # print line's comment states (the comment up to its first colon)
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    expected = [line.split("#", 1)[1].split(":")[0].strip() for line in prints]
    assert expected == ["Z^2", "True", "True True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_cli_block(tmp_path, capsys):
    # every line of the CLI block runs as written and exits 0, its report
    # sent to a file under tmp_path
    blocks = [b for b in re.findall(r"```\n(.*?)```", README.read_text(), re.S) if b.startswith("balacyc ")]
    (block,) = blocks
    lines = block.splitlines()
    assert len(lines) == 10
    for number, line in enumerate(lines):
        program, *argv = shlex.split(line, comments=True)
        assert program == "balacyc"
        target = str(tmp_path / f"{number}.out")
        if "--out" in argv:
            argv[argv.index("--out") + 1] = target
        else:
            argv += ["--out", target]
        assert cli.main(argv) == 0, line
        assert Path(target).read_text()
    assert capsys.readouterr().out == ""
