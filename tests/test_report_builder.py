"""Every claim report comes from one builder, sturm._scan_report."""

import ast
from pathlib import Path

import qcong


def _report_builders(path: Path) -> list[str]:
    """`module.function` for each ClaimReport(...) call in the module at path."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "ClaimReport":
                    found.append(scope)
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_claim_reports_are_built_only_in_scan_report():
    builders = []
    for path in sorted(Path(qcong.__file__).parent.glob("*.py")):
        builders += _report_builders(path)
    assert builders == ["sturm._scan_report"]
