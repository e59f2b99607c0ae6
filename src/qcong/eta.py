"""Dedekind eta, eta quotients, and their weight/level/character metadata."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

from .qseries import QSeries, SpaceTag
from .ring import ZZ, ModRing, Ring, _factorize

__all__ = [
    "EtaQuotient",
    "EtaMetadata",
    "eta_series",
    "dilated",
    "eta_quotient_series",
    "eta_quotient_metadata",
]

_FACTOR_RE = re.compile(r"([0-9]+)\^(-?[0-9]+)")


@dataclass(frozen=True)
class EtaQuotient:
    """Formal product of eta(d z)^r factors with distinct d, sorted by d.

    Text form: ``"3^4 6^6"`` is eta(3z)^4 eta(6z)^6; negative exponents
    are allowed (``"4^8 2^-4"``).
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
        pos = 0
        for token in text.split():
            pos = text.index(token, pos)
            m = _FACTOR_RE.fullmatch(token)
            if not m:
                raise ValueError(
                    f"bad eta-quotient factor {token!r} at position {pos}: "
                    "expected d^r"
                )
            factors.append((int(m.group(1)), int(m.group(2))))
            pos += len(token)
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


def eta_quotient_series(
    e: EtaQuotient, T: int, modulus: int | None = None
) -> QSeries:
    """Expand an eta quotient to T coefficients of its integer-indexed part.

    The result has offset sum(d*r)/24.  With a modulus, all arithmetic is
    done in Z/m from the start (the leading coefficients are 1, so the
    denominator stays invertible).
    """
    ring: Ring = ZZ if modulus is None else ModRing(modulus)
    g = reduce(math.gcd, (d for d, _ in e.factors))
    if g > 1:
        # compute in the compressed variable x = q^g, then dilate back
        inner = EtaQuotient(tuple((d // g, r) for d, r in e.factors))
        return dilated(lambda n: eta_quotient_series(inner, n, modulus), T, g)
    num = None
    den = None
    for d, r in e.factors:
        # eta(dz)^|r| is eta(z)^|r| at its inner length, dilated by d
        factor = dilated(
            lambda n: QSeries(ring, 1, _euler_coeffs(n, ring)).pow(abs(r)), T, d
        )
        if r > 0:
            num = factor if num is None else num.mul(factor)
        else:
            den = factor if den is None else den.mul(factor)
    if num is None:
        num = QSeries.one(ring, T)
    return num if den is None else num.mul(den.invert())


@dataclass(frozen=True)
class EtaMetadata:
    """Space tag plus the two 24-divisibility validity flags.

    The level is the least valid one for the quotient itself; operators
    that change levels do their own bookkeeping and never consult this.
    """

    tag: SpaceTag
    sum_dr_divisible: bool
    sum_inv_divisible: bool


def eta_quotient_metadata(e: EtaQuotient) -> EtaMetadata:
    """Weight, minimal valid level, and quadratic character of a quotient.

    weight = sum(r)/2 (odd sums are rejected: half-integer weight is out
    of scope).  The level is the least multiple N of lcm(d) with
    24 | sum((N/d) r); the character is the Kronecker symbol of the
    fundamental discriminant attached to (-1)^weight * prod(d^r).
    """
    rsum = sum(r for _, r in e.factors)
    if rsum % 2 != 0:
        raise ValueError(f"odd exponent sum {rsum}: half-integer weight unsupported")
    weight = rsum // 2
    if weight < 0:
        raise ValueError(f"negative weight {weight} is out of scope")
    L = reduce(math.lcm, (d for d, _ in e.factors))
    S = sum((L // d) * r for d, r in e.factors)
    t = 24 // math.gcd(24, S)
    level = L * t
    dr = sum(d * r for d, r in e.factors)
    inv_sum = sum((level // d) * r for d, r in e.factors)
    # squarefree kernel of (-1)^weight * prod(d^r)
    odd = math.prod(d for d, r in e.factors if r % 2)
    s = (-1) ** weight * math.prod(p for p, k in _factorize(odd) if k % 2)
    character = s if s % 4 == 1 else 4 * s
    return EtaMetadata(
        tag=SpaceTag(weight=weight, level=level, character=character),
        sum_dr_divisible=dr % 24 == 0,
        sum_inv_divisible=inv_sum % 24 == 0,
    )
