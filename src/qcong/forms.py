"""Named modular forms: Eisenstein series, theta, and the eta-quotient
cusp forms used by the congruence verifications.

Every constructor takes a truncation T and returns a series over Z with
offset 0 and exactly T coefficients (indices = exponents 0..T-1).  Theorem
3.1's eigenform f = f1 + 8 sqrt(-3) f2 has no builder: diamond reads it off
f1 and f2 over Z.  All arithmetic is exact over Z; the one rational is the
Eisenstein normalisation -2k/B_k, and `eisenstein_int` rejects a weight
where it is not an integer.  Each form has one expansion here, and every
E4(4z) product is eta.times_dilated.
g alone has two: `diamond.c_series` expands g = sum c(n) q^(2n+1) as
its odd part, and `form_g` (`qcong expand --form g`) stays as the
independent expansion that the tests compare c against and check
g = f1 - 8 f2 on.
F = eta(4z)^8 / eta(2z)^4 is read off its divisor sums, as the theta
series and E4 are, and so is theta(-q)^4 = eta(z)^8 / eta(2z)^4, the factor
of c by Jacobi's four-square theorem; the other eta quotients are expanded
as products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import sub

from .eta import EtaQuotient, dilated, eta_quotient_series, times_dilated
from .qseries import QSeries
from .ring import ZZ, bernoulli

__all__ = [
    "sigma",
    "eisenstein_int",
    "theta0",
    "form_F",
    "form_h",
    "form_f1",
    "form_f2",
    "form_g",
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


def _theta_minus_q_4(T: int) -> list[int]:
    # theta(-q)^4 = eta(z)^8 / eta(2z)^4 to T terms, built in place on the
    # sigma_1 list: Jacobi's r_4(n) = 8 sigma(n) - 32 sigma(n/4), signed
    # (-1)^n.  Each slice on the right is read before the one assignment.
    s = _sigma_coeffs(1, T)
    s[4::4] = map(sub, s[4::4], [4 * x for x in s[1 : len(range(4, T, 4)) + 1]])
    s[::2] = [8 * x for x in s[::2]]
    s[1::2] = [-8 * x for x in s[1::2]]
    s[0] = 1
    return s


def form_h(T: int) -> QSeries:
    """eta(4z)^6 = q - 6q^5 + 9q^9 + ..., the CM cusp form of weight 3."""
    return _quotient_form(((4, 6),), T)


def _times_e4_4z(x: QSeries) -> QSeries:
    # x E4(4z), one product per residue class mod 4
    return times_dilated(x, lambda n: eisenstein_int(4, n), 4)


def _theta_bracket(T: int) -> QSeries:
    # 4v^3 - u^3 + 4u^2 v - 6u v^2 = (2v - u)((u - v)^2 + v^2) to T terms,
    # u = theta0(z)^2 and v = theta0(2z)^2: f1's bracket with q^2 -> q
    u = theta0(T).pow(2)
    v = dilated(theta0, T, 2).pow(2)
    w = u.sub(v)
    return v.scale(2).sub(u).mul(w.mul(w).add(v.mul(v)))


def form_f1(T: int) -> QSeries:
    """E4(4z) F(z) [4 t4^6 - t2^6 + 4 t2^4 t4^2 - 6 t2^2 t4^4], t2 = theta0(2z),
    t4 = theta0(4z), supported on odd exponents.  The bracket is a series in
    q^2, (2v - u)((u - v)^2 + v^2) with u = t2^2, v = t4^2: five products of
    theta0(z) and theta0(2z) at the inner length, applied by eta.times_dilated."""
    return _times_e4_4z(times_dilated(form_F(T), _theta_bracket, 2))


def form_f2(T: int) -> QSeries:
    """E4(4z) eta(4z)^2 eta(8z)^8, which is E4(4z) F(2z) h(z), supported on
    exponents congruent to 3 mod 4."""
    return _times_e4_4z(_quotient_form(((4, 2), (8, 8)), T))


def form_g(T: int) -> QSeries:
    """E4(4z) eta(2z)^8 eta(4z)^2 over Z, the odd-supported weight-9 form
    whose odd coefficients b(2n+1) are the c-series."""
    return _times_e4_4z(_quotient_form(((2, 8), (4, 2)), T))
