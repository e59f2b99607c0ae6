"""A mutation battery for the certificate path: every mutant must be killed.

    python scripts/mutants.py

Each row of MUTANTS is one mutant: a file of the package, the exact old
text, the new text, and the test node IDs that should kill it.  Every old
text must occur exactly once in its file; a row where it does not is
stale, and the script exits 1 before it runs anything.  Then the named
nodes are run once on an unchanged copy of the tree, where they must pass:
a node that fails there kills nothing.  Then, for each row, the tree is
copied to a temporary directory, the one edit is applied there, and
pytest runs the row's nodes: the mutant is killed when a node fails,
survived when all pass.  Any other pytest outcome (a node that no longer
exists, a collection error) is an error.
The script prints one line per row and a total, and exits 1 when a mutant
survives or anything is stale or in error, else 0.  Standard library only;
the checkout itself is never edited.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/qcong"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/qcong
    old: str
    new: str
    nodes: tuple[str, ...]


MUTANTS = (
    Mutant(
        "sturm-bound-over-13", "sturm.py",
        "return k * index_gamma0(N) // 12",
        "return k * index_gamma0(N) // 13",
        ("tests/test_acceptance.py::test_criterion_01_sturm_bound_anchor",),
    ),
    Mutant(
        "compare-one-term-short", "sturm.py",
        "x, y = a.truncate(bound + 1).coeffs, b.truncate(bound + 1).coeffs",
        "x, y = a.truncate(bound).coeffs, b.truncate(bound).coeffs",
        ("tests/test_diamond.py::test_eq_1_2_mutation_flips_to_fail",),
    ),
    Mutant(
        "compare-without-ring-check", "sturm.py",
        "    if a.ring != b.ring:\n",
        "    if False:\n",
        ("tests/test_sturm.py::test_compare_rejects_a_ring_mismatch",),
    ),
    Mutant(
        "compare-without-offset-check", "sturm.py",
        "    if a.offset24 != 0 or b.offset24 != 0:\n",
        "    if False:\n",
        ("tests/test_sturm.py::test_compare_rejects_a_nonzero_offset",),
    ),
    Mutant(
        "input-without-offset-check", "diamond.py",
        "    if series.offset24 != 0:\n",
        "    if False:\n",
        ("tests/test_diamond.py::test_input_refuses_an_entry_whose_offset_is_not_0",),
    ),
    Mutant(
        "twist-keeps-multiples-of-p", "operators.py",
        "        elif s == 0:\n",
        "        elif False:\n",
        ("tests/test_operators.py::test_twist_by_7_signs",),
    ),
    Mutant(
        "hecke-without-character", "operators.py",
        "scal = ring.from_int(kronecker(chi_disc, p) * p ** (k - 1))",
        "scal = ring.from_int(p ** (k - 1))",
        ("tests/test_acceptance.py::test_criterion_09_theorem_3_1_primes_to_97",),
    ),
    Mutant(
        "chain-d-without-class-20", "diamond.py",
        "        for r in (5, 14, 17, 20)\n        for i in islice",
        "        for r in (5, 14, 17)\n        for i in islice",
        ("tests/test_diamond.py::test_section_2_chain_d_reports_the_first_nonzero_of_its_classes[bumps6]",),
    ),
    Mutant(
        "thm-1.2-without-f1-cross-check", "diamond.py",
        "    if f1.coeffs[p] != y:\n",
        "    if False:\n",
        ("tests/test_diamond.py::test_theorem_1_2_mutations_match_the_index_recurrence[17]",),
    ),
    Mutant(
        "eigen-scan-stops-at-17", "diamond.py",
        "            n for n in range(bound + 1)\n",
        "            n for n in range(bound)\n",
        ("tests/test_diamond.py::test_theorem_3_1_matches_the_quad_reference[18-f1]",),
    ),
    Mutant(
        "thm-1.1-never-fails", "diamond.py",
        "        if u[49 * n + (r - 5) // 7] != 0\n",
        "        if False\n",
        ("tests/test_diamond.py::test_delta3_claims_read_only_the_class_5_mod_7",),
    ),
    Mutant(
        "reality-without-f2-clause", "diamond.py",
        "(e[1] == 0) != (p % 4 == 1 or f2.coeffs[p] == 0)",
        "(e[1] == 0) != (p % 4 == 1)",
        ("tests/test_diamond.py::test_theorem_3_1_reduced",),
    ),
    Mutant(
        "metadata-level-gcd-12", "sturm.py",
        "L * 24 // math.gcd(24, S)",
        "L * 24 // math.gcd(12, S)",
        ("tests/test_eta.py::test_metadata_three_paper_quotients",),
    ),
    # Theorem 3.1's T_7 sub-check: the check it replaced, which failed on
    # -f, and the check without its i != 0
    Mutant(
        "t7-old-check", "diamond.py",
        "eig[7] is not None and eig[7][1] != 0 else [7]",
        "eig[7] is not None and eig[7][1] == 8 * f2.coeffs[7] != 0 else [7]",
        ("tests/test_diamond.py::test_theorem_3_1_t7_holds_for_minus_f",),
    ),
    Mutant(
        "t7-without-nonzero", "diamond.py",
        "eig[7] is not None and eig[7][1] != 0 else [7]",
        "eig[7] is not None else [7]",
        ("tests/test_diamond.py::test_theorem_3_1_t7_fails_on_equal_eigenvalues",),
    ),
    # the one builder of eta quotients
    Mutant(
        "expand-without-two-series-reduction", "eta.py",
        "return ring.mul_each(ring.one, coeffs) if len(series) == 2 else coeffs",
        "return coeffs",
        ("tests/test_eta.py::test_eta_powers_match_the_naive_product[2]",),
    ),
    Mutant(
        "one-factor-not-inverted", "eta.py",
        "return s if r > 0 else s.invert()",
        "return s",
        ("tests/test_eta.py::test_eta_powers_match_the_naive_product[-1]",),
    ),
    Mutant(
        "one-theta-series-for-two", "eta.py",
        "return [(d, _theta_terms)] * (a // 2) + _index_formulas(f)",
        "return [(d, _theta_terms)] + _index_formulas(f)",
        ("tests/test_eta.py::test_eta_powers_match_the_naive_product[theta-after-a-gcd]",),
    ),
    Mutant(
        "frobenius-drops-the-pd-term", "eta.py",
        "        exps[p * d] = exps.get(p * d, 0) + q\n",
        "",
        ("tests/test_eta.py::test_eta_powers_match_the_naive_product[8]",),
    ),
)


def stale(mutants) -> list[str]:
    """One message per row whose old text does not occur exactly once."""
    out = []
    for m in mutants:
        path = ROOT / PACKAGE / m.path
        n = path.read_text().count(m.old) if path.is_file() else 0
        if n != 1:
            out.append(f"{m.name}: old text found {n} times in {m.path}")
    return out


def _copy(into: Path) -> Path:
    tree = into / "tree"
    ignore = shutil.ignore_patterns(".git", ".perfbench-work", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT, tree, ignore=ignore)
    return tree


def _pytest(tree: Path, nodes) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(args, cwd=tree, env=env, capture_output=True).returncode


def run(mutant: Mutant) -> str:
    """killed, survived, or error: the outcome of the row's nodes on a copy
    of the tree with the one edit applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = _copy(Path(tmp))
        path = tree / PACKAGE / mutant.path
        path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        # pytest exits 1 when a test failed, 0 when all passed
        return {0: "survived", 1: "killed"}.get(_pytest(tree, mutant.nodes), "error")


def main() -> int:
    problems = stale(MUTANTS)
    if problems:
        print(*problems, sep="\n")
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        nodes = sorted({node for m in MUTANTS for node in m.nodes})
        if _pytest(_copy(Path(tmp)), nodes) != 0:
            print("the named nodes do not all pass on the unchanged tree")
            return 1
    outcomes = []
    for m in MUTANTS:
        t = time.perf_counter()
        outcomes.append(run(m))
        print(f"{outcomes[-1]:<9}{time.perf_counter() - t:>7.1f} s  {m.name}", flush=True)
    counts = {k: outcomes.count(k) for k in ("killed", "survived", "error")}
    print(
        f"{counts['killed']} killed, {counts['survived']} survived, {counts['error']} in error"
        f" of {len(MUTANTS)} in {time.perf_counter() - start:.1f} s"
    )
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
