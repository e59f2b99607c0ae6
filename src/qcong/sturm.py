"""Spaces of modular forms, their Sturm bounds, and the verification drivers.

A SpaceTag is the space M_k(Gamma_0(N), chi) a series lies in and the one
place that knows its Sturm bound and the levels U_d and a twist lead to;
eta_quotient_metadata gives the space of an eta quotient.  A claim is
checked by scanning coefficients up to an explicit bound and recording the
outcome in a ClaimReport, built only by `_scan_report`.  An identity
between two series goes through the one comparison driver `_compare`,
which reads the report's modulus from the series' ring and rejects two
rings or a nonzero offset; it compares the two coefficient lists whole and
finds a first mismatch with no Python call per coefficient.  Nothing here
applies an operator: the claims build both sides, and `diamond` reads
Theorem 3.1's eigenform checks off operators.hecke on f1 and f2 over Z.
Insufficient truncation is always an error, never a pass: these
reports are proof artifacts, so partial data must be unambiguous.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from functools import reduce
from itertools import compress, count
from operator import ne
from typing import NamedTuple

from .eta import EtaQuotient
from .qseries import QSeries
from .ring import ModRing, _factorize, _Frozen

__all__ = [
    "index_gamma0",
    "sturm_bound",
    "SpaceTag",
    "eta_quotient_metadata",
    "ClaimReport",
]


def index_gamma0(N: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z): N * prod over p | N of (1 + 1/p)."""
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    idx = N
    for p, _ in _factorize(N):
        idx = idx // p * (p + 1)
    return idx


def sturm_bound(k: int, N: int) -> int:
    """floor(k * [SL2(Z) : Gamma_0(N)] / 12).

    If all coefficients at exponents <= this bound vanish (exactly, or mod
    m), the form vanishes (exactly, or mod m).  The same bound certifies
    equality of two forms in one space, applied to their difference.
    """
    if k < 1:
        raise ValueError(f"weight must be >= 1, got {k}")
    return k * index_gamma0(N) // 12


class SpaceTag(_Frozen):
    """The space M_k(Gamma_0(N), chi) a series lies in: weight k, level N,
    chi a Kronecker discriminant (1 is trivial).  Bookkeeping only, never
    enforced analytically."""

    __slots__ = ("weight", "level", "character")

    def __init__(self, weight: int, level: int, character: int = 1):
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "character", character)

    def _key(self) -> tuple[int, int, int]:
        return self.weight, self.level, self.character

    def __repr__(self) -> str:
        return "SpaceTag(weight={!r}, level={!r}, character={!r})".format(*self._key())

    @property
    def sturm_bound(self) -> int:
        """The equality Sturm bound of the space."""
        return sturm_bound(self.weight, self.level)

    def u(self, d: int) -> "SpaceTag":
        """The space of the U_d image: the level times d."""
        return SpaceTag(self.weight, self.level * d, self.character)

    def twist(self, p: int) -> "SpaceTag":
        """The space of the twist by (./p): the level times p^2, the quoted
        bookkeeping value, not the sharper conductor level."""
        return SpaceTag(self.weight, self.level * p * p, self.character)


def eta_quotient_metadata(e: EtaQuotient) -> SpaceTag:
    """The space of an eta quotient: weight, least valid level, character.

    weight = sum(r)/2 (odd sums are rejected: half-integer weight is out
    of scope).  The level is the least multiple N of lcm(d) with
    24 | sum((N/d) r): N = L * 24/gcd(24, S) for L = lcm(d) and
    S = sum((L/d) r).  The character is the Kronecker symbol of the
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
    # squarefree kernel of (-1)^weight * prod(d^r)
    odd = math.prod(d for d, r in e.factors if r % 2)
    s = (-1) ** weight * math.prod(p for p, k in _factorize(odd) if k % 2)
    character = s if s % 4 == 1 else 4 * s
    return SpaceTag(weight, L * 24 // math.gcd(24, S), character)


class ClaimReport(NamedTuple):
    """Auditable outcome of one bounded verification."""

    claim: str
    weight: int | None
    level: int | None
    modulus: int | None  # None means the check was exact
    bound: int
    checked: int
    passed: bool
    first_failure: int | None

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "weight": self.weight,
            "level": self.level,
            "modulus": "exact" if self.modulus is None else self.modulus,
            "bound": self.bound,
            "checked": self.checked,
            "pass": self.passed,
            "first_failure": self.first_failure,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _scan_report(
    claim: str,
    failures: Iterable[int],
    bound: int,
    space: SpaceTag | None = None,
    modulus: int | None = None,
) -> ClaimReport:
    """The one place a ClaimReport is built: a scan through `bound`.

    `failures` yields the failing indices in increasing order; it is
    consumed only up to the first one, which is recorded.  Private, so a
    traced run charges the scan to the claim that asked for it.
    """
    first = next(iter(failures), None)
    return ClaimReport(
        claim=claim,
        weight=None if space is None else space.weight,
        level=None if space is None else space.level,
        modulus=modulus,
        bound=bound,
        checked=bound,
        passed=first is None,
        first_failure=first,
    )


def _compare(
    claim: str, a: QSeries, b: QSeries, bound: int, space: SpaceTag | None
) -> ClaimReport:
    """The report on a == b at every exponent 0..bound, where a and b are
    offset-0 series over one ring; the modulus is the ring's (m over
    ModRing(m), exact otherwise).

    A series that stops short of the bound is an error, not a shorter
    scan.  Private, like _scan_report, so a traced run charges the scan to
    the claim that asked for it.
    """
    if a.ring != b.ring:
        raise ValueError(f"{claim}: ring mismatch {a.ring!r} vs {b.ring!r}")
    if a.offset24 != 0 or b.offset24 != 0:
        raise ValueError(
            f"{claim}: comparison needs offset 0, got {a.offset} and {b.offset}"
        )
    x, y = a.truncate(bound + 1).coeffs, b.truncate(bound + 1).coeffs
    # one list comparison when the two agree, else the indices of the
    # differing terms, found in C
    failures = () if x == y else compress(count(), map(ne, x, y))
    modulus = a.ring.modulus if isinstance(a.ring, ModRing) else None
    return _scan_report(claim, failures, bound, space, modulus)
