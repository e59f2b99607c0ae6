"""The prose stays in step with the code it names."""

import doctest
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import qcong
from qcong.cli import _build_parser

_PACKAGE = Path(qcong.__file__).parent
# CPython's builtin SHA-256 modules, which `qcong.store` imports by name
_OUTSIDE = {"_sha256", "_sha2"}


def _defined_names() -> set[str]:
    """Every name bound in a qcong module or on a class one defines."""
    names = set()
    for path in _PACKAGE.glob("*.py"):
        module = importlib.import_module("qcong" if path.stem == "__init__" else f"qcong.{path.stem}")
        names.update(vars(module))
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__.startswith("qcong"):
                names.update(dir(cls))
    return names


def test_every_backticked_private_name_is_defined():
    # a private name in backticks in README.md or a module's docstrings and
    # comments must still exist; a deleted helper leaves no mention behind
    defined = _defined_names() | _OUTSIDE
    stale = []
    for path in [Path(__file__).parents[1] / "README.md", *sorted(_PACKAGE.glob("*.py"))]:
        for span in re.findall(r"`([^`\n]+)`", path.read_text()):
            for name in re.findall(r"\b_\w+", span):
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in defined:
                    stale.append(f"{path.name}: {name}")
    assert stale == []


def test_readme_cli_examples_parse():
    # a flag the parser no longer has must not linger in the examples
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [shlex.split(line, comments=True) for b in blocks for line in b.splitlines()]
    examples = [argv[1:] for argv in lines if argv[:1] == ["qcong"]]
    assert len(examples) >= 10
    parser = _build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: qcong {shlex.join(argv)}")


def test_readme_quick_tour_runs():
    # the quick tour is a doctest: a deleted name or a changed value fails it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    tour = [b for b in blocks if b.startswith(">>> ")]
    assert len(tour) == 1
    test = doctest.DocTestParser().get_doctest(tour[0], {}, "README quick tour", "README.md", 0)
    runner = doctest.DocTestRunner()
    failures = []
    runner.run(test, out=failures.append)
    assert runner.summarize(verbose=False).attempted >= 10
    assert failures == []
