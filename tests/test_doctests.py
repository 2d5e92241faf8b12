"""Run the doctests embedded in the library modules and the README's library example."""

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import pytest

import balacyc
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


def test_readme_counts_the_caches_and_the_exported_names():
    # every lru_cache defined in balacyc is bounded, and README states how
    # many there are and how many names balacyc exports
    caches = []
    for info in pkgutil.iter_modules(balacyc.__path__):
        module = importlib.import_module(f"balacyc.{info.name}")
        classes = [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == module.__name__]
        for owner in [module, *classes]:
            for value in vars(owner).values():
                if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                    caches.append(value)
    assert {f.__name__ for f in caches} >= {"_tuples", "cyclotomic", "_fourier_certificate"}
    for f in caches:
        assert f.cache_info().maxsize == (16 if f.__name__ == "_tuples" else 8), f.__qualname__
    text = " ".join(README.read_text().split())
    assert f"kept in {len(caches)} bounded caches" in text
    assert f"exports the {len(balacyc.__all__)} names of `balacyc.__all__`" in text


def test_importing_the_main_module_runs_nothing(monkeypatch, capsys):
    # a walk of the package imports balacyc.__main__ under its own argv:
    # only `python -m balacyc` runs the CLI
    monkeypatch.setattr(sys, "argv", ["walker", "--no-such-option"])
    monkeypatch.delitem(sys.modules, "balacyc.__main__", raising=False)
    module = importlib.import_module("balacyc.__main__")
    assert module.entry is cli.entry
    assert capsys.readouterr() == ("", "")
