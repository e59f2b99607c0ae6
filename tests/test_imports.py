"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import qcong


def test_package_imports_only_the_standard_library():
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
            outside += [f"{path.name}: {m}" for m in top - sys.stdlib_module_names]
    assert outside == []
