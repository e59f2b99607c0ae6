"""Dedekind eta and the expansion of eta quotients.

An eta quotient is expanded by a nested build: the factor of least d is
built at the full length, and the other factors form one sub-quotient
R(z^g), g the gcd of their d's, with R built the same way at the inner
length.  R(z^g) is never formed: the head is multiplied by R one residue
class mod g at a time, so no product packs the zeros of a dilation.  Modulo
a prime p the exponents are first reduced once by eta(dz)^p == eta(pdz)
(mod p), which moves large denominators to short inner lengths; modulo
prime powers, composites, and over Z the factors are used as given.

One residue class mod a prime p, sum c(pn + r) q^n, is built without the
other classes: after the rewrite the factors split as H(q) G(q^p), G from
the factors with p | d, and class r of the product is class r of H times
G.  H is built without its factor of largest d at the full length, and
class r of H is that head's classes times the factor's nonempty classes.
Expansion only: the space of a quotient is `sturm.eta_quotient_metadata`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

from .qseries import QSeries, convolve
from .ring import ZZ, ModRing, Ring, is_prime

__all__ = [
    "EtaQuotient",
    "eta_series",
    "dilated",
    "eta_quotient_series",
    "eta_quotient_progression",
]

_FACTOR_RE = re.compile(r"([0-9]+)\^(-?[0-9]+)")
_TOKEN_RE = re.compile(r"[^ ]+")


@dataclass(frozen=True)
class EtaQuotient:
    """Formal product of eta(d z)^r factors with distinct d, sorted by d.

    Text form: ``"3^4 6^6"`` is eta(3z)^4 eta(6z)^6; negative exponents
    are allowed (``"4^8 2^-4"``).  Factors are separated by ASCII spaces.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for d, r in self.factors:
            if d < 1:
                raise ValueError(f"eta argument multiplier must be >= 1, got {d}")
            if r == 0:
                raise ValueError(f"zero exponent for eta({d}z)")
            if d in seen:
                raise ValueError(f"repeated eta argument multiplier {d}")
            seen.add(d)
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        factors = []
        # factors are separated by runs of ASCII spaces only: any other
        # whitespace stays inside a token, which then fails to match
        for token in _TOKEN_RE.finditer(text):
            m = _FACTOR_RE.fullmatch(token.group())
            if not m:
                raise ValueError(
                    f"bad eta-quotient factor {token.group()!r} at position "
                    f"{token.start()}: expected d^r"
                )
            factors.append((int(m.group(1)), int(m.group(2))))
        if not factors:
            raise ValueError("empty eta-quotient text")
        return cls(tuple(factors))

    def __str__(self) -> str:
        return " ".join(f"{d}^{r}" for d, r in self.factors)

    def __mul__(self, other: "EtaQuotient") -> "EtaQuotient":
        exps: dict[int, int] = {}
        for d, r in self.factors + other.factors:
            exps[d] = exps.get(d, 0) + r
        merged = tuple((d, r) for d, r in sorted(exps.items()) if r != 0)
        if not merged:
            raise ValueError("product of eta quotients is empty")
        return EtaQuotient(merged)

    @property
    def offset24(self) -> int:
        """Lowest exponent of the expansion, in 24ths: sum of d*r."""
        return sum(d * r for d, r in self.factors)


def _inner_T(T: int, d: int) -> int:
    # least base truncation whose d-dilation covers T coefficients
    return (T + d - 2) // d + 1


def dilated(build, T: int, d: int) -> QSeries:
    """f(dz) to T coefficients, where build(n) returns f(z) to n terms and is
    called at the least n that covers T: the one expansion of a dilated factor."""
    if T < 1:
        raise ValueError("truncation must be at least 1")
    return build(_inner_T(T, d)).dilate(d).truncate(T)


def _euler_coeffs(T: int, ring: Ring) -> list:
    # prod(1 - q^n) by the pentagonal number theorem: the only nonzero
    # coefficients sit at j*(3j+-1)/2 with sign (-1)^j
    if T < 1:
        raise ValueError("truncation must be at least 1")
    one = ring.one
    neg_one = ring.neg(one)
    c = [ring.zero] * T
    c[0] = one
    j = 1
    while True:
        e1 = j * (3 * j - 1) // 2
        if e1 >= T:
            break
        s = one if j % 2 == 0 else neg_one
        c[e1] = s
        e2 = j * (3 * j + 1) // 2
        if e2 < T:
            c[e2] = s
        j += 1
    return c


def eta_series(T: int) -> QSeries:
    """eta(z) = q^(1/24) prod(1 - q^n), with T stored coefficients."""
    return QSeries(ZZ, 1, _euler_coeffs(T, ZZ))


def _jacobi_cube_coeffs(T: int, ring: Ring) -> list:
    # eta(z)^3 = q^(1/8) sum (-1)^n (2n+1) q^(n(n+1)/2), Jacobi's identity
    c = [ring.zero] * T
    n = e = 0
    while e < T:
        c[e] = ring.from_int((-1) ** n * (2 * n + 1))
        n += 1
        e += n
    return c


def _eta_power(T: int, r: int, ring: Ring) -> QSeries:
    # eta(z)^r for r != 0: eta^3 from Jacobi's identity, so eta^4 = eta^3 eta
    # is one product; a negative power is inverted once, at the end
    k = abs(r)
    s = QSeries(ring, 3, _jacobi_cube_coeffs(T, ring)).pow(k // 3) if k >= 3 else None
    if k % 3:
        e = QSeries(ring, 1, _euler_coeffs(T, ring)).pow(k % 3)
        s = e if s is None else s.mul(e)
    return s if r > 0 else s.invert()


def _frobenius_reduced(factors: tuple, p: int) -> tuple:
    # one pass of eta(dz)^(qp+s) == eta(dz)^s eta(pdz)^q (mod p), true as
    # (1 - q^n)^p == 1 - q^(pn) mod the prime p.  Merged exponents may leave
    # [0, p) again, and a negative one never enters it: each pass moves it
    # on to p times its d.
    exps: dict[int, int] = {}
    for d, r in factors:
        q, s = divmod(r, p)
        exps[d] = exps.get(d, 0) + s
        exps[p * d] = exps.get(p * d, 0) + q
    reduced = tuple((d, r) for d, r in sorted(exps.items()) if r)
    if sum(d * r for d, r in reduced) != sum(d * r for d, r in factors):
        raise AssertionError(f"rewrite of {factors} mod {p} moved the offset")
    return reduced


def _quotient_series(factors: tuple, T: int, ring: Ring) -> QSeries:
    # factors: nonempty, sorted by d, distinct d, nonzero r.  Only the head
    # (least d) is built at length T; the rest is one sub-quotient R(z^g), g
    # the gcd of its d's, with R built by the same rule at the inner length.
    # R(z^g) is never formed: residue class c of the product is head's class
    # c times R, so each class is one product of about T/g terms.
    g = reduce(math.gcd, (d for d, _ in factors))
    if g > 1:
        inner = tuple((d // g, r) for d, r in factors)
        return dilated(lambda n: _quotient_series(inner, n, ring), T, g)
    (d, r), rest = factors[0], factors[1:]
    head = dilated(lambda n: _eta_power(n, r, ring), T, d)
    if not rest:
        return head
    g = reduce(math.gcd, (d for d, _ in rest))
    R = _quotient_series(tuple((d // g, r) for d, r in rest), _inner_T(T, g), ring)
    out = [ring.zero] * T
    for c in range(g):
        # len(range(c, T, g)) terms: none when c >= T
        out[c::g] = convolve(ring, head.coeffs[c::g], R.coeffs, len(range(c, T, g)))
    return QSeries(ring, head.offset24 + g * R.offset24, out)


def eta_quotient_series(
    e: EtaQuotient, T: int, modulus: int | None = None
) -> QSeries:
    """Expand an eta quotient to T coefficients of its integer-indexed part.

    The result has offset sum(d*r)/24.  With a modulus, all arithmetic is
    done in Z/m from the start (the leading coefficients are 1, so every
    inverse exists).  When m is a prime p, the exponents are first rewritten
    once by eta(dz)^(qp+s) == eta(dz)^s eta(pdz)^q (mod p), with s in
    [0, p): delta_3 mod 7 becomes eta(z)^4 eta(2z) eta(14z)^6 / eta(98z).
    The rewrite is false mod p^k and mod composites, so there (and over Z)
    the factors are used as given.

    The quotient is built nested: after dividing out the gcd g of the d's
    (build at the inner length, dilate by g), the factor of least d is the
    only one built at length T, and the remaining factors form one
    sub-quotient R(z^g), with R built by the same rule at the inner length
    of their gcd g.  So a denominator eta(98z) is inverted at about T/98
    terms, not at T.  The head times R(z^g) is g products, one per residue
    class c mod g: coefficients c, c + g, ... of the head times R give the
    same coefficients of the result, so each product has about T/g terms
    and none holds the zeros of the dilation.
    """
    ring: Ring = ZZ if modulus is None else ModRing(modulus)
    factors = e.factors
    if modulus is not None and is_prime(modulus):
        factors = _frobenius_reduced(factors, modulus)
        if not factors:
            return QSeries.one(ring, T)
    return _quotient_series(factors, T, ring)


def _class_of_product(factors: tuple, p: int, r: int, N: int, ring: Ring) -> list:
    # coefficients r, r + p, ..., < N of the quotient of `factors` (sorted
    # by d, none divisible by p): the factor of largest d, f, meets the rest
    # one class at a time, as class t of f times class r - t of the rest
    # (shifted by one exponent when t > r), skipping f's empty classes
    T = len(range(r, N, p))
    (d, e), rest = factors[-1], factors[:-1]
    # the head is built before f: its build peaks at several lists of
    # length N, and f need not be held through it
    head = _quotient_series(rest, N, ring).coeffs if rest else [ring.one]
    f = dilated(lambda n: _eta_power(n, e, ring), N, d).coeffs
    m = ring.modulus
    out = [0] * T
    for t in range(p):
        f_t = f[t::p]
        shift = int(t > r)
        if T <= shift or not any(f_t):
            continue
        prod = convolve(ring, head[(r - t) % p :: p], f_t, T - shift)
        out[shift:] = [(x + y) % m for x, y in zip(out[shift:], prod)]
    return out


def eta_quotient_progression(e: EtaQuotient, p: int, r: int, T: int) -> QSeries:
    """sum c(pn + r) q^n mod the prime p to T terms, offset 0, where c are
    the coefficients of eta_quotient_series(e, ., p); the other classes are
    never formed.

    After the Frobenius rewrite the quotient is H(q) G(q^p): G from the
    factors with p | d (over d/p), built at T terms, and H from the rest,
    whose exponents now lie in [1, p).  Class r of H G(q^p) is class r of H
    times G, and class r of H, to N = p(T - 1) + r + 1 terms of H, is H
    without its factor of largest d, built at length N, times that factor
    one residue class mod p at a time.  For delta_3 mod 7 that is eta(z)^4
    at full length and four products of about N/7 terms with the classes
    of eta(2z), then one with G = eta(2z)^6 / eta(14z).
    """
    if not is_prime(p):
        raise ValueError(f"need a prime modulus, got {p}")
    if not 0 <= r < p:
        raise ValueError(f"need a residue r in [0, {p}), got {r}")
    if T < 1:
        raise ValueError("truncation must be at least 1")
    ring = ModRing(p)
    N = p * (T - 1) + r + 1
    factors = _frobenius_reduced(e.factors, p)
    H = tuple(f for f in factors if f[0] % p)
    G = tuple((d // p, k) for d, k in factors if d % p == 0)
    out = _class_of_product(H, p, r, N, ring) if H else [int(r == 0)] + [0] * (T - 1)
    if G:
        out = convolve(ring, out, _quotient_series(G, T, ring).coeffs, T)
    return QSeries(ring, 0, out)
