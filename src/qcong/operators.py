"""Operators on q-expansions: Atkin U_d, quadratic twist, Hecke T_p.

They act on coefficients only; the space of an image, its level included,
comes from `sturm.SpaceTag` (`u` and `twist`).  Each works on whole
residue classes by slices, with the ring's list forms `mul_each` and
`add_each`, so over Z and Z/m no Python call is made per coefficient.

Output truncations are conservative: U_d and T_p on a T-coefficient input
justify floor((T-1)/d)+1 coefficients, so callers needing N valid Hecke
coefficients must supply at least p*N input coefficients.
"""

from __future__ import annotations

import re

from .qseries import QSeries
from .ring import is_prime, kronecker

__all__ = [
    "u_operator",
    "twist",
    "hecke",
    "parse_operator",
    "apply_operator",
]


def u_operator(f: QSeries, d: int) -> QSeries:
    """a(n) -> a(d n); requires integer exponents (offset 0)."""
    if f.offset24 != 0:
        raise ValueError("U-operator requires offset 0")
    if d < 1:
        raise ValueError(f"U-operator index must be >= 1, got {d}")
    return f.extract_progression(d, 0)


def twist(f: QSeries, p: int) -> QSeries:
    """Multiply coefficient n by the Legendre symbol (n|p), p an odd prime."""
    if f.offset24 != 0:
        raise ValueError("twist requires offset 0")
    if p == 2 or not is_prime(p):
        raise ValueError(f"twist needs an odd prime, got {p}")
    ring = f.ring
    a = f.coeffs
    out = list(a)
    # (n|p) depends on n mod p only: one slice assignment per class with
    # symbol -1 or 0, and the classes with symbol 1 stay as they are
    for r in range(p):
        s = kronecker(r, p)
        if s == -1:
            out[r::p] = ring.mul_each(ring.from_int(-1), a[r::p])
        elif s == 0:
            out[r::p] = [ring.zero] * len(range(r, len(a), p))
    return QSeries(ring, 0, out)


def hecke(f: QSeries, p: int, k: int, chi_disc: int) -> QSeries:
    """Hecke operator: b(n) = a(pn) + chi(p) p^(k-1) a(n/p), with the
    second term zero unless p | n.  chi is the Kronecker symbol of
    chi_disc; k is the weight."""
    if f.offset24 != 0:
        raise ValueError("Hecke operator requires offset 0")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ring = f.ring
    scal = ring.from_int(kronecker(chi_disc, p) * p ** (k - 1))
    # b(n) = a(pn) for every n, plus scal a(n/p) at the n divisible by p:
    # one slice, and one mapped add over every p-th term of it
    b = f.coeffs[::p]
    at = b[::p]
    b[::p] = ring.add_each(at, ring.mul_each(scal, f.coeffs[: len(at)]))
    return QSeries(ring, 0, b)


_OP_RE = re.compile(r"(U|twist|T)_([0-9]+)")


def parse_operator(text: str) -> tuple[str, int]:
    """Parse an operator name of the form U_7, twist_7, or T_5."""
    m = _OP_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad operator {text!r}: expected U_d, twist_p, or T_p")
    return m.group(1), int(m.group(2))


def apply_operator(
    f: QSeries, op: str, weight: int | None = None, chi_disc: int | None = None
) -> QSeries:
    """Apply a parsed operator to a series (T_p needs weight and character)."""
    kind, n = parse_operator(op)
    if kind == "U":
        return u_operator(f, n)
    if kind == "twist":
        return twist(f, n)
    if weight is None or chi_disc is None:
        raise ValueError(f"{op} needs --weight and --chi to be applied")
    return hecke(f, n, weight, chi_disc)
