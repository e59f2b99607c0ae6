#!/usr/bin/env python3
"""Print the Hecke eigenvalues of f and its conjugate at each prime, next
to the recurrence constant y(p) extracted from the c-series at p = 1 mod 4.

The two columns agreeing at every p = 1 mod 4 is the mechanism behind the
exact c-series recurrence; at p = 3 mod 4 the eigenvalues are conjugate
purely-imaginary pairs and no y(p) exists.

The whole table reads its series through one memory-only Cache: f1 and f2
at the table's length first, then c for the largest prime, so every other
request is a prefix of an entry and c, f1 and f2 are each built once.
"""

import argparse

from qcong.cli import _integer
from qcong.diamond import eigenvalue_table, verify_theorem_1_2
from qcong.store import Cache


def fmt(re: int, im: int) -> str:
    """re + im sqrt(-3), as re alone when im is 0."""
    if im == 0:
        return str(re)
    sign = "+" if im >= 0 else "-"
    return f"{re} {sign} {abs(im)}*sqrt(-3)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # ASCII digits only, like every qcong flag
    parser.add_argument("--prime-max", type=_integer, default=97)
    parser.add_argument("--y-depth", type=_integer, default=50,
                        help="n-range over which each y(p) is re-verified")
    args = parser.parse_args()
    if args.prime_max < 2:
        parser.error(f"--prime-max must be at least 2, got {args.prime_max}")
    if args.y_depth < 1:
        parser.error(f"--y-depth must be at least 1, got {args.y_depth}")
    T = max(2000, 19 * args.prime_max)
    cache = Cache(None)
    table = eigenvalue_table(T, args.prime_max, cache)
    ys = {}
    for p in sorted(table, reverse=True):
        if p % 4 == 1:
            y, rep = verify_theorem_1_2(p, args.y_depth, cache)
            ys[p] = str(y) if rep.passed else f"{y} (FAILS)"
    print(f"{'p':>4}  {'lambda(f, T_p)':>28}  {'lambda(conj f, T_p)':>28}  {'y(p)':>12}")
    for p, e in table.items():
        # f has r + i sqrt(-3) and its conjugate r - i sqrt(-3)
        lam, lam_bar = ("(not an eigenform)",) * 2 if e is None else (fmt(*e), fmt(e[0], -e[1]))
        print(f"{p:>4}  {lam:>28}  {lam_bar:>28}  {ys.get(p, '-'):>12}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
