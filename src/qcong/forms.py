"""Named modular forms: Eisenstein series, theta, and the eta-quotient
cusp forms used by the congruence verifications.

Every constructor takes a truncation T and returns a series with offset 0
and exactly T coefficients (indices = exponents 0..T-1).  All arithmetic
is exact over Z; the one rational is the Eisenstein normalisation -2k/B_k,
and `eisenstein_int` rejects a weight where it is not an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .eta import EtaQuotient, dilated, eta_quotient_series
from .qseries import QSeries
from .ring import QUAD, ZZ, QuadInt, bernoulli, is_prime

__all__ = [
    "sigma",
    "eisenstein_int",
    "theta0",
    "form_F",
    "form_h",
    "form_f1",
    "form_f2",
    "form_f",
    "form_g",
    "TwoSquares",
    "two_squares",
    "cm_coefficient",
    "FORM_NAMES",
    "resolve_form",
]


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d**k over divisors d of n."""
    if n < 1:
        raise ValueError(f"sigma needs n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"sigma needs exponent k >= 1, got {k}")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


def _sigma_coeffs(k: int, T: int) -> list[int]:
    # sieve: s[n] = sigma_k(n), s[0] = 0
    if T < 1:
        raise ValueError("truncation must be at least 1")
    s = [0] * T
    for d in range(1, T):
        dk = d**k
        for m in range(d, T, d):
            s[m] += dk
    return s


def eisenstein_int(k: int, T: int) -> QSeries:
    """Integer-coefficient Eisenstein series, when -2k/B_k is an integer."""
    if k < 4 or k % 2 != 0:
        raise ValueError(f"eisenstein needs even k >= 4, got {k}")
    factor = -Fraction(2 * k) / bernoulli(k)
    if factor.denominator != 1:
        raise ValueError(f"E_{k} does not have integer coefficients")
    c = factor.numerator
    s = _sigma_coeffs(k - 1, T)
    return QSeries(ZZ, 0, [1] + [c * s[n] for n in range(1, T)])


def theta0(T: int) -> QSeries:
    """1 + 2 sum_{n>=1} q^(n^2)."""
    if T < 1:
        raise ValueError("truncation must be at least 1")
    c = [0] * T
    c[0] = 1
    n = 1
    while n * n < T:
        c[n * n] = 2
        n += 1
    return QSeries(ZZ, 0, c)


def _quotient_form(factors: tuple[tuple[int, int], ...], T: int) -> QSeries:
    # eta quotient whose offset is a nonnegative integer, returned at offset 0
    e = EtaQuotient(factors)
    off24 = e.offset24
    if off24 % 24 != 0 or off24 < 0:
        raise ValueError(f"quotient {e} does not start at an integer exponent")
    o = off24 // 24
    if T <= o:
        return QSeries(ZZ, 0, [0] * T)
    return eta_quotient_series(e, T - o).to_offset_zero().truncate(T)


def _e4_dilated(T: int, d: int) -> QSeries:
    # E4(dz)
    return dilated(lambda n: eisenstein_int(4, n), T, d)


def form_F(T: int) -> QSeries:
    """eta(4z)^8 / eta(2z)^4, the weight-2 series sum sigma_1(2n+1) q^(2n+1)."""
    return _quotient_form(((2, -4), (4, 8)), T)


def form_h(T: int) -> QSeries:
    """eta(4z)^6 = q - 6q^5 + 9q^9 + ..., the CM cusp form of weight 3."""
    return _quotient_form(((4, 6),), T)


def form_f1(T: int, F: QSeries | None = None) -> QSeries:
    """E4(4z) F(z) [4 t4^6 - t2^6 + 4 t2^4 t4^2 - 6 t2^2 t4^4] where
    t2 = theta0(2z), t4 = theta0(4z).  Supported on odd exponents.  F, if
    given, is form_F to at least T terms."""
    t2 = dilated(theta0, T, 2)
    t4 = dilated(theta0, T, 4)
    t2_2 = t2.mul(t2)
    t2_4 = t2_2.mul(t2_2)
    t4_2 = t4.mul(t4)
    t4_4 = t4_2.mul(t4_2)
    bracket = (
        t4_4.mul(t4_2).scale(4)
        .sub(t2_4.mul(t2_2))
        .add(t2_4.mul(t4_2).scale(4))
        .sub(t2_2.mul(t4_4).scale(6))
    )
    F = form_F(T) if F is None else F.truncate(T)
    return _e4_dilated(T, 4).mul(F).mul(bracket)


def form_f2(T: int, F: QSeries | None = None) -> QSeries:
    """E4(4z) F(2z) h(z), supported on exponents congruent to 3 mod 4.  F, if
    given, is form_F to at least T terms; F(2z) reads only its prefix."""
    F2 = dilated(form_F if F is None else F.truncate, T, 2)
    return _e4_dilated(T, 4).mul(F2).mul(form_h(T))


def _f1_f2(T: int) -> tuple[QSeries, QSeries]:
    # f1 and f2 from one expansion of F
    F = form_F(T)
    return form_f1(T, F), form_f2(T, F)


def _f_from(f1: QSeries, f2: QSeries) -> QSeries:
    # f1 + 8 sqrt(-3) f2 over Z[sqrt(-3)], from the two integer series
    return QSeries(
        QUAD, 0, [QuadInt(a, 8 * b) for a, b in zip(f1.coeffs, f2.coeffs)]
    )


def form_f(T: int) -> QSeries:
    """f1 + 8 sqrt(-3) f2 over Z[sqrt(-3)] (identifying 8 i sqrt(3))."""
    return _f_from(*_f1_f2(T))


def form_g(T: int) -> QSeries:
    """E4(4z) eta(2z)^8 eta(4z)^2 over Z, the odd-supported weight-9 form
    whose odd coefficients b(2n+1) are the c-series."""
    return _quotient_form(((2, 8), (4, 2)), T).mul(_e4_dilated(T, 4))


@dataclass(frozen=True)
class TwoSquares:
    """p = x^2 + y^2 with x odd and both positive (canonical for p = 1 mod 4)."""

    p: int
    x: int
    y: int

    def __post_init__(self):
        if self.x * self.x + self.y * self.y != self.p:
            raise ValueError(f"{self.x}^2 + {self.y}^2 != {self.p}")
        if self.x % 2 == 0 or self.x <= 0 or self.y <= 0:
            raise ValueError("need x odd and x, y positive")


def two_squares(p: int) -> TwoSquares:
    """Decompose a prime p = 1 mod 4 as x^2 + y^2 with x odd."""
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"{p} is not a prime congruent to 1 mod 4")
    for x in range(1, math.isqrt(p) + 1, 2):
        y2 = p - x * x
        y = math.isqrt(y2)
        if y > 0 and y * y == y2:
            return TwoSquares(p, x, y)
    raise AssertionError(f"no two-squares decomposition found for {p}")


def cm_coefficient(p: int) -> int:
    """Prime coefficient of eta(4z)^6: 2x^2 - 2y^2 for p = x^2 + y^2 (x odd),
    and 0 for p = 2 or p = 3 mod 4."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 or p % 4 == 3:
        return 0
    ts = two_squares(p)
    return 2 * ts.x * ts.x - 2 * ts.y * ts.y


FORM_NAMES = ("E4", "theta0", "F", "h", "f1", "f2", "f", "g", "c", "delta_k:<k>")


def resolve_form(name: str, T: int, modulus: int | None = None) -> QSeries:
    """Named-form registry used by the CLI: build `name` to truncation T,
    once the name and the modulus have been checked.  delta_k is expanded
    over Z/modulus directly, as its exact coefficients grow exponentially
    in sqrt(n); every other form is built exactly, then reduced."""
    from . import diamond

    if name == "f" and modulus is not None:
        raise ValueError("form f has quadratic-ring coefficients; no --mod")
    if name.startswith("delta_k:"):
        digits = name.split(":", 1)[1]
        # ASCII digits only: int() would also take "1_3", " 3" or "٣"
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad form {name!r}: expected delta_k:<k>, k an integer")
        return diamond.delta_series(int(digits), T, modulus)
    builders = {
        "E4": lambda: eisenstein_int(4, T),
        "theta0": lambda: theta0(T),
        "F": lambda: form_F(T),
        "h": lambda: form_h(T),
        "f1": lambda: form_f1(T),
        "f2": lambda: form_f2(T),
        "f": lambda: form_f(T),
        "g": lambda: form_g(T),
        "c": lambda: diamond.c_series(T),
    }
    if name not in builders:
        raise ValueError(f"unknown form {name!r}; known: {', '.join(FORM_NAMES)}")
    s = builders[name]()
    return s if modulus is None else s.reduce_mod(modulus)
