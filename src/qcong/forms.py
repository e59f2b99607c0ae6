"""Named modular forms: Eisenstein series, theta, and the eta-quotient
cusp forms used by the congruence verifications.

Every constructor takes a truncation T and returns a series with offset 0
and exactly T coefficients (indices = exponents 0..T-1).  All arithmetic
is exact over Z; the one rational is the Eisenstein normalisation -2k/B_k,
and `eisenstein_int` rejects a weight where it is not an integer.  Each
form has one expansion, and every E4(4z) product is eta.times_dilated.
F = eta(4z)^8 / eta(2z)^4 is read off its divisor sums, as the theta
series and E4 are; the other eta quotients are expanded as products.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .eta import EtaQuotient, dilated, eta_quotient_series, times_dilated
from .qseries import QSeries
from .ring import QUAD, ZZ, QuadInt, _Frozen, bernoulli, is_prime

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


def form_F(T: int) -> QSeries:
    """eta(4z)^8 / eta(2z)^4, the weight-2 series sum sigma_1(2n+1) q^(2n+1),
    built from that sum: Legendre's eta(4z)^8 / eta(2z)^4 = q psi(q^2)^4."""
    s = _sigma_coeffs(1, T)
    s[::2] = [0] * len(s[::2])
    return QSeries(ZZ, 0, s)


def form_h(T: int) -> QSeries:
    """eta(4z)^6 = q - 6q^5 + 9q^9 + ..., the CM cusp form of weight 3."""
    return _quotient_form(((4, 6),), T)


def _times_e4_4z(x: QSeries) -> QSeries:
    # x E4(4z), one product per residue class mod 4
    return times_dilated(x, lambda n: eisenstein_int(4, n), 4)


def _theta_bracket(T: int) -> QSeries:
    # 4 t2^6 - t1^6 + 4 t1^4 t2^2 - 6 t1^2 t2^4 to T terms, t1 = theta0(z)
    # and t2 = theta0(2z): f1's bracket with q^2 -> q
    t1 = theta0(T)
    t2 = dilated(theta0, T, 2)
    t1_2 = t1.mul(t1)
    t1_4 = t1_2.mul(t1_2)
    t2_2 = t2.mul(t2)
    t2_4 = t2_2.mul(t2_2)
    return (
        t2_4.mul(t2_2).scale(4)
        .sub(t1_4.mul(t1_2))
        .add(t1_4.mul(t2_2).scale(4))
        .sub(t1_2.mul(t2_4).scale(6))
    )


def form_f1(T: int) -> QSeries:
    """E4(4z) F(z) [4 t4^6 - t2^6 + 4 t2^4 t4^2 - 6 t2^2 t4^4] where
    t2 = theta0(2z), t4 = theta0(4z).  Supported on odd exponents.

    The bracket is a series in q^2: it is built from theta0(z) and
    theta0(2z) at the inner length and applied by eta.times_dilated."""
    return _times_e4_4z(times_dilated(form_F(T), _theta_bracket, 2))


def form_f2(T: int) -> QSeries:
    """E4(4z) eta(4z)^2 eta(8z)^8, which is E4(4z) F(2z) h(z), supported on
    exponents congruent to 3 mod 4."""
    return _times_e4_4z(_quotient_form(((4, 2), (8, 8)), T))


def _f_from(f1: QSeries, f2: QSeries) -> QSeries:
    # f1 + 8 sqrt(-3) f2 over Z[sqrt(-3)], from the two integer series
    return QSeries(
        QUAD, 0, [QuadInt(a, 8 * b) for a, b in zip(f1.coeffs, f2.coeffs)]
    )


def form_f(T: int) -> QSeries:
    """f1 + 8 sqrt(-3) f2 over Z[sqrt(-3)] (identifying 8 i sqrt(3))."""
    return _f_from(form_f1(T), form_f2(T))


def form_g(T: int) -> QSeries:
    """E4(4z) eta(2z)^8 eta(4z)^2 over Z, the odd-supported weight-9 form
    whose odd coefficients b(2n+1) are the c-series."""
    return _times_e4_4z(_quotient_form(((2, 8), (4, 2)), T))


class TwoSquares(_Frozen):
    """p = x^2 + y^2 with x odd and both positive (canonical for p = 1 mod 4)."""

    __slots__ = ("p", "x", "y")

    def __init__(self, p: int, x: int, y: int):
        if x * x + y * y != p:
            raise ValueError(f"{x}^2 + {y}^2 != {p}")
        if x % 2 == 0 or x <= 0 or y <= 0:
            raise ValueError("need x odd and x, y positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def _key(self) -> tuple[int, int, int]:
        return self.p, self.x, self.y

    def __repr__(self) -> str:
        return "TwoSquares(p={!r}, x={!r}, y={!r})".format(*self._key())


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
