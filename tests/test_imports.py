"""The package runs on the standard library alone, and starts without
the modules it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcong


def test_package_imports_only_the_standard_library():
    # store's builtin SHA-256 is _sha256 up to CPython 3.11, _sha2 from 3.12
    stdlib = sys.stdlib_module_names | {"_sha256", "_sha2"}
    outside = []
    for path in sorted(Path(qcong.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            outside += [f"{path.name}: {m}" for m in top - stdlib]
    assert outside == []


_QUADRATIC_AND_RATIONAL = {"QuadInt", "QuadRing", "QUAD", "RationalRing", "QQ"}


def test_only_the_ring_layer_names_the_quadratic_and_rational_rings():
    # every claim runs over Z or Z/m: above ring.py and qseries.py no module
    # imports, builds or reads Z[sqrt(-3)] or Q (__init__ only re-exports)
    named = []
    for path in sorted(Path(qcong.__file__).parent.glob("*.py")):
        if path.name in ("ring.py", "qseries.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in _QUADRATIC_AND_RATIONAL:
                named.append(f"{path.name}:{node.lineno}: {name}")
    assert named == []


# each module's rank: a module imports only modules of lower rank, so the
# package is one stack, ring at the bottom and the CLI on top; __init__
# re-exports every layer
_LAYERS = {
    "ring": 0, "qseries": 1, "eta": 2, "forms": 3, "operators": 3, "sturm": 3,
    "store": 4, "diamond": 5, "cli": 6, "__init__": 7,
}


def test_every_relative_import_names_a_lower_layer():
    # at any depth, so an import inside a function counts: `from . import
    # diamond` and `from .diamond import x` both name diamond
    paths = sorted(Path(qcong.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == set(_LAYERS)
    upward = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            names = [node.module] if node.module else [alias.name for alias in node.names]
            upward += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if _LAYERS[name.split(".")[0]] >= _LAYERS[path.stem]
            ]
    assert upward == []


# Each run prints the modules it added to sys.modules; `-m` is run as the
# interpreter runs it, through runpy.
_ADDED = """import runpy, sys
before = set(sys.modules)
try:
    {}
finally:
    print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""
_RUNS = {
    "import qcong.cli": "import qcong.cli",
    "-m qcong.cli sturm --k 5 --N 24696": (
        "sys.argv[1:] = ['sturm', '--k', '5', '--N', '24696']; "
        "runpy.run_module('qcong.cli', run_name='__main__', alter_sys=True)"
    ),
}


def _added(run: str) -> set[str]:
    src = Path(qcong.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _ADDED.format(_RUNS[run])],
        env=env, capture_output=True, text=True, timeout=60,
    )
    added = proc.stderr.split()
    assert proc.returncode == 0 and "qcong.sturm" in added, proc.stderr
    return set(added)


@pytest.mark.parametrize("run", _RUNS)
def test_start_up_loads_no_dataclasses_or_inspect(run):
    # @dataclass execs generated methods per class, and dataclasses pulls in
    # inspect, ast and dis: about a tenth of a small run's CPU
    assert {"dataclasses", "inspect"} & _added(run) == set()


@pytest.mark.parametrize("run", _RUNS)
def test_start_up_loads_no_openssl(run):
    # hashlib maps OpenSSL's libcrypto, a few MB of resident memory; the
    # store hashes with the interpreter's own SHA-256
    assert {"hashlib", "_hashlib", "ssl"} & _added(run) == set()
