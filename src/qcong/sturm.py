"""Sturm bounds and the bounded-verification drivers.

A claim is checked by scanning coefficients up to an explicit bound and
recording the outcome in a ClaimReport, built only by `_scan_report`.  An
identity between two series, eigenform checks included, goes through the
one comparison driver `_compare`, which reads the report's modulus from
the series' ring and rejects two rings or a nonzero offset.  Insufficient
truncation is always an error, never a pass: these reports are proof
artifacts, so partial data must be unambiguous.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass

from .operators import hecke
from .qseries import QSeries, SpaceTag
from .ring import ModRing, _factorize

__all__ = [
    "index_gamma0",
    "sturm_bound",
    "ClaimReport",
    "verify_eigenform",
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


@dataclass(frozen=True)
class ClaimReport:
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
    failures = (n for n in range(bound + 1) if x[n] != y[n])
    modulus = a.ring.modulus if isinstance(a.ring, ModRing) else None
    return _scan_report(claim, failures, bound, space, modulus)


def verify_eigenform(f: QSeries, p: int, space: SpaceTag, claim: str = "eigenform"):
    """Check that f | T_p is a scalar multiple of f through the equality
    Sturm bound of `space`; returns (eigenvalue, report).

    The candidate eigenvalue is read off at the lowest nonzero coefficient
    of f, which must be a unit.  On non-proportionality the eigenvalue is
    None and the report carries the first failing exponent.
    """
    if f.offset24 != 0:
        raise ValueError("eigenform check requires offset 0")
    bound = sturm_bound(space.weight, space.level)
    if f.T < p * (bound + 1):
        raise ValueError(
            f"insufficient truncation {f.T}: eigenform check at p={p} "
            f"needs at least {p * (bound + 1)} coefficients"
        )
    ring = f.ring
    zero = ring.zero
    n0 = next((n for n, c in enumerate(f.coeffs) if c != zero), None)
    if n0 is None or n0 > bound:
        raise ValueError("series vanishes through the bound; eigenvalue undefined")
    if not ring.is_unit(f.coeffs[n0]):
        raise ValueError(f"leading coefficient {f.coeffs[n0]!r} is not a unit")
    g = hecke(f, p, space.weight, space.character)
    lam = ring.mul(g.coeffs[n0], ring.inv(f.coeffs[n0]))
    report = _compare(claim, g, f.truncate(bound + 1).scale(lam), bound, space)
    return (lam if report.passed else None), report
