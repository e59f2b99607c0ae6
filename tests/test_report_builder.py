"""Every claim report comes from one builder, sturm._scan_report, and every
space, with its Sturm bound, from sturm."""

import ast
from pathlib import Path

import qcong

MODULES = sorted(Path(qcong.__file__).parent.glob("*.py"))


def _callers(path: Path, callee: str) -> list[tuple[str, int]]:
    """(`module.function`, line) for each callee(...) call in the module at path."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == callee:
                    found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_claim_reports_are_built_only_in_scan_report():
    builders = [scope for path in MODULES for scope, _ in _callers(path, "ClaimReport")]
    assert builders == ["sturm._scan_report"]


def test_spaces_and_their_bounds_come_from_sturm():
    # outside sturm, a SpaceTag is built only on the data line of _F_SPACE
    outside = [
        (path, line) for path in MODULES if path.stem != "sturm"
        for _, line in _callers(path, "SpaceTag")
    ]
    assert [path.stem for path, _ in outside] == ["diamond"]
    path, line = outside[0]
    assert path.read_text().splitlines()[line - 1].startswith("_F_SPACE = SpaceTag(")
    # a space's bound is read through SpaceTag.sturm_bound; only the CLI's
    # `sturm` subcommand asks for a bare (k, N)
    bounds = {scope for path in MODULES for scope, _ in _callers(path, "sturm_bound")}
    assert bounds == {"cli.main", "sturm.SpaceTag.sturm_bound"}
