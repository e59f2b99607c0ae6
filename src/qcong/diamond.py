"""Broken k-diamond partition series, the c-series, and the end-to-end
verification of every congruence and eigenform claim.

Each verify_* function reads the relevant series through the run's
store.Cache (given none, it builds them), scans the claim through an
explicit bound, and returns one or more ClaimReports.  A run shares one
Cache, so each input is built at most once, in one ring: sum
delta_3(7n+5) q^n mod 7 and sum delta_5(11n+6) q^n mod 11 (every claim on
delta_k reads only that progression, and eta.eta_quotient_progression
builds it without the other classes), eq. (1.2)'s left side mod 7 (lifted
for the Section 2 chain), the exact c (reduced for eq. (1.4), and lifted
to g = sum c(n) q^(2n+1) for Theorem 3.1) and the exact f1 and f2, each
built by its own form_* builder.  An identity is two series built from
QSeries operations and the operators (Theorem 1.2 and the remark through
operators.hecke), compared by the one comparison driver sturm._compare,
which reads each report's modulus from the series' ring.
Series arguments can be injected to support mutation self-tests; injected
series are validated for offset, length, ring, and (mod m) for
coefficients reduced into [0, m).  An injected delta_k is the full series,
reduced to its progression once validated.

CLAIMS, the claim table, has one row per claim ID; run_suite runs every
row and `qcong verify` runs one.  Claim IDs: eq-1.2, thm-1.1, sec-2-chain
(reports :a to :d), eq-1.4, thm-1.2:p=<p>, thm-3.1 (reports thm-3.1:*),
remark:p=<p>.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import compress, count, islice
from typing import NamedTuple

from .eta import EtaQuotient, eta_quotient_progression, eta_quotient_series
from .eta import times_dilated
from .forms import _f_from, eisenstein_int, form_f1, form_f2, form_g
from .operators import hecke, twist, u_operator
from .qseries import QSeries
from .ring import ZZ, ModRing, QuadInt, is_prime, primes_up_to
from .store import Cache, CacheKey
from .sturm import ClaimReport, _compare, _scan_report, verify_eigenform
from .sturm import SpaceTag, eta_quotient_metadata

__all__ = [
    "delta_series",
    "c_series",
    "eq_1_2_lhs",
    "verify_eq_1_2",
    "verify_theorem_1_1",
    "verify_section_2_chain",
    "verify_eq_1_4",
    "verify_theorem_1_2",
    "verify_g_combination",
    "verify_theorem_3_1",
    "eigenvalue_table",
    "verify_remark",
    "SuiteConfig",
    "CLAIMS",
    "run_suite",
]

_SECTION2_QUOTIENT = EtaQuotient(((3, 4), (6, 6)))
# spaces of the Section 2 chain: the eta product (step a), its U_7 image
# (steps b and d), and that image minus its twist (step c)
_CHAIN_A = eta_quotient_metadata(_SECTION2_QUOTIENT)
_CHAIN_B = _CHAIN_A.u(7)
_CHAIN_C = _CHAIN_B.twist(7)

# the space of f = f1 + 8 sqrt(-3) f2, its conjugate, g, f1 and f2; its
# weight and character also fix the Hecke operator of Theorem 1.2
_F_SPACE = SpaceTag(weight=9, level=16, character=-4)


def _lift(u: QSeries, d: int, s: int) -> QSeries:
    """sum u(n) q^(dn+s), offset 0, to the d*T + s terms u's T coefficients fix."""
    out = [u.ring.zero] * (d * u.T + s)
    out[s::d] = u.coeffs
    return QSeries(u.ring, 0, out)


def _euler_part(e: EtaQuotient, T: int, modulus: int | None) -> QSeries:
    # prod (1-q^(dn))^r over the factors d^r of e: its expansion with the
    # q^(sum dr/24) prefactor dropped, offset 0
    s = eta_quotient_series(e, T, modulus)
    return QSeries(s.ring, 0, s.coeffs)


def _delta_quotient(k: int) -> EtaQuotient:
    # eta(2z) eta((2k+1)z) / (eta(z)^3 eta((4k+2)z)), whose offset the
    # q^((k+1)/12) prefactor of delta_k must cancel
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    e = EtaQuotient(((1, -3), (2, 1), (2 * k + 1, 1), (4 * k + 2, -1)))
    if e.offset24 != -2 * (k + 1):
        raise AssertionError(
            f"offset {e.offset24}/24 of {e} does not cancel the q^({k + 1}/12) prefactor"
        )
    return e


def delta_series(k: int, T: int, modulus: int | None = None) -> QSeries:
    """Counting series of broken k-diamond partitions, offset 0.

    Built as the eta quotient eta(2z) eta((2k+1)z) / (eta(z)^3 eta((4k+2)z));
    its fractional offset -(k+1)/12 is cancelled exactly by the defining
    prefactor, which is checked, not assumed.
    """
    return _euler_part(_delta_quotient(k), T, modulus)


def c_series(T: int) -> QSeries:
    """E4(2z) prod (1-q^n)^8 (1-q^{2n})^2 over Z, offset 0.

    Built by eta.times_dilated as prod (1-q^n)^8 times R(q^2), where R =
    E4 prod (1-q^n)^2 is built at the inner length: one product per residue
    class mod 2, so no product packs the zeros of E4(2z).
    """
    def R(n: int) -> QSeries:
        return eisenstein_int(4, n).mul(_euler_part(EtaQuotient(((1, 2),)), n, None))

    return times_dilated(_euler_part(EtaQuotient(((1, 8),)), T, None), R, 2)


def _series(given, cache, form, T: int, modulus: int | None, build, what: str) -> QSeries:
    """A claim's input series `what` over Z or Z/modulus, to at least T terms:
    the injected series `given` once validated, else the cached entry for
    `form`, else build(T), which is then cached."""
    ring = ZZ if modulus is None else ModRing(modulus)
    if given is None:
        if cache is None:
            return build(T)
        key = CacheKey(form, ring.tag)
        hit = cache.get(key, T)
        if hit is not None:
            return hit
        s = build(T)
        cache.put(key, s)
        return s
    if given.offset24 != 0:
        raise ValueError(f"injected {what} must have offset 0")
    if given.T < T:
        raise ValueError(f"injected {what} has {given.T} coefficients, need {T}")
    if given.ring != ring:
        raise ValueError(f"injected {what} has ring {given.ring!r}, need {ring!r}")
    if modulus is not None:
        c = given.coeffs
        bad = next((n for n in range(given.T) if not 0 <= c[n] < modulus), None)
        if bad is not None:
            raise ValueError(
                f"injected {what} coefficient {bad} is {c[bad]}, outside [0, {modulus})"
            )
    return given


# the one progression of delta_k that the claims read, as (p, r): every
# claim on delta_3 reads delta_3(7n+5) mod 7, every one on delta_5
# delta_5(11n+6) mod 11
_DELTA_PROGRESSION = {3: (7, 5), 5: (11, 6)}


def _delta(given: QSeries | None, cache, k: int, T: int) -> QSeries:
    """sum delta_k(pn + r) q^n mod p to T terms, (p, r) the progression of
    delta_k: the injected full series `given` once validated, reduced to
    the progression, else the cached progression, else one built from the
    eta quotient's class r alone, which is then cached."""
    p, r = _DELTA_PROGRESSION[k]
    what = f"delta_{k} series"
    if given is not None:
        full = _series(given, None, None, p * (T - 1) + r + 1, p, None, what)
        return full.extract_progression(p, r).truncate(T)
    return _series(
        None, cache, f"delta_k:{k} {p}n+{r}", T, p,
        lambda n: eta_quotient_progression(_delta_quotient(k), p, r, n), what,
    )


def eq_1_2_lhs(T: int) -> QSeries:
    """prod (1-q^n)^4 (1-q^{2n})^6 reduced mod 7."""
    return _euler_part(EtaQuotient(((1, 4), (2, 6))), T, 7)


def _lhs(given: QSeries | None, cache, T: int) -> QSeries:
    return _series(given, cache, "eq_1_2_lhs", T, 7, eq_1_2_lhs, "left-hand side")


def verify_eq_1_2(
    T: int,
    lhs: QSeries | None = None,
    delta3: QSeries | None = None,
    cache=None,
) -> ClaimReport:
    """prod (1-q^n)^4 (1-q^{2n})^6 == 6 * sum delta_3(7n+5) q^n mod 7,
    compared coefficientwise for n < T."""
    if T < 10:
        raise ValueError(f"need T >= 10, got {T}")
    delta3 = _delta(delta3, cache, 3, T)
    lhs = _lhs(lhs, cache, T)
    rhs = delta3.scale(6)
    return _compare("eq-1.2", lhs, rhs, T - 1, None)


def verify_theorem_1_1(
    n_max: int, delta3: QSeries | None = None, cache=None
) -> ClaimReport:
    """delta_3(343 n + r) == 0 mod 7 for r in {82, 229, 278, 327}, n < n_max.

    Each 343 n + r is 5 mod 7, so it reads delta_3(7m + 5) at
    m = 49 n + (r - 5)/7."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    residues = (82, 229, 278, 327)
    delta3 = _delta(delta3, cache, 3, 49 * (n_max - 1) + (max(residues) - 5) // 7 + 1)
    u = delta3.coeffs
    failures = (
        343 * n + r
        for n in range(n_max)
        for r in residues
        if u[49 * n + (r - 5) // 7] != 0
    )
    bound = 343 * (n_max - 1) + max(residues)
    return _scan_report("thm-1.1", failures, bound, modulus=delta3.ring.modulus)


def verify_section_2_chain(T_final: int, cache=None) -> list[ClaimReport]:
    """The four-step congruence chain behind the four b(21n+r) residues.

    (a) the eta product eta(3z)^4 eta(6z)^6, built as q^2 times eq. (1.2)'s
        left side under q -> q^3, mod 7 equals 6 sum delta_3(7n+5) q^{3n+2};
    (b) its image under U_7 equals 6 sum delta_3(49n+33) q^{3n+2};
    (c) that image minus its quadratic twist vanishes mod 7 -- a full Sturm
        certificate at (5, 24696) when T_final exceeds the bound 23520,
        otherwise a partial scan recorded with the scanned depth;
    (d) b(21n+r) == 0 mod 7 for r in {5, 14, 17, 20} over the computed range.
    """
    if T_final < 3:
        raise ValueError(f"need T_final >= 3, got {T_final}")
    T_prod = 7 * T_final + 1
    prod0 = _lift(_lhs(None, cache, T_prod // 3), 3, 2).truncate(T_prod)
    f = u_operator(prod0, 7)
    n_a = (T_prod - 3) // 3
    n_b = (f.T - 3) // 3
    # u(n) = delta_3(7n + 5), and delta_3(49n + 33) = u(7n + 4)
    u = _delta(None, cache, 3, max(n_a, 7 * n_b + 4) + 1)

    def lifted(v: QSeries) -> QSeries:
        # 6 sum v(n) q^(3n+2) mod 7
        return _lift(v.scale(6), 3, 2)

    bound_c = min(_CHAIN_C.sturm_bound, f.T - 1)
    # (d) reads each class r mod 21 as one slice: its first nonzero term,
    # if any, and the least of these is the first failure
    fail_d = sorted(
        r + 21 * i
        for r in (5, 14, 17, 20)
        for i in islice(compress(count(), f.coeffs[r::21]), 1)
    )
    return [
        _compare("sec-2-chain:a", prod0, lifted(u), prod0.T - 1, _CHAIN_A),
        _compare(
            "sec-2-chain:b", f, lifted(u.extract_progression(7, 4)), f.T - 1, _CHAIN_B
        ),
        _compare("sec-2-chain:c", f, twist(f, 7), bound_c, _CHAIN_C),
        _scan_report("sec-2-chain:d", fail_d, f.T - 1, _CHAIN_B, f.ring.modulus),
    ]


def verify_eq_1_4(
    T: int,
    c_exact: QSeries | None = None,
    delta5: QSeries | None = None,
    cache=None,
) -> ClaimReport:
    """c(n) == 8 delta_5(11n + 6) mod 11 for n < T, reading the exact c."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    delta5 = _delta(delta5, cache, 5, T)
    c = _series(c_exact, cache, "c", T, None, c_series, "c series")
    c_mod = c.truncate(T).reduce_mod(11)
    rhs = delta5.scale(8)
    return _compare("eq-1.4", c_mod, rhs, T - 1, None)


def _recurrence(claim: str, p: int, T: int, series) -> tuple[int, ClaimReport]:
    """(y, the report on Theorem 1.2's recurrence u(pn + h) + p^8 u((n-h)/p)
    == y u(n) for n < T), h = (p-1)/2, where (u, y) = series(h) is built
    once p and T are checked.  The left side is T_p on g = sum u(n) q^(2n+1)
    in g's space, read at the odd exponents."""
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"need a prime p = 1 mod 4, got {p}")
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    u, y = series((p - 1) // 2)
    g = hecke(_lift(u, 2, 1), p, _F_SPACE.weight, _F_SPACE.character)
    image = g.extract_progression(2, 1)
    return y, _compare(claim, image, u.truncate(T).scale(y), T - 1, None)


def verify_theorem_1_2(
    p: int, T: int, c_exact: QSeries | None = None, cache=None
) -> tuple[int, ClaimReport]:
    """Exact recurrence c(pn + (p-1)/2) + p^8 c((n-(p-1)/2)/p) = y(p) c(n).

    This is T_p g = y(p) g for g = sum c(n) q^(2n+1) in S_9(Gamma_0(16),
    chi_-4), read at the odd exponents.  y(p) is read off at n = 0 (where it
    equals c((p-1)/2)), the image of g under `operators.hecke` is compared
    with y(p) g for all n < T, and a y(p) that differs from the
    independently built series f1 at exponent p, read through the run's
    cache like every other input, fails the report at p.
    """
    def series(half: int):
        L = p * (T - 1) + half + 1
        c = _series(c_exact, cache, "c", L, None, c_series, "c series")
        return c, c.coeffs[half]

    y, report = _recurrence(f"thm-1.2:p={p}", p, T, series)
    # independent derivation of the same number through the eigenform route
    f1 = _series(None, cache, "f1", p + 1, None, form_f1, "f1 series")
    if f1.coeffs[p] != y:
        return y, _scan_report(report.claim, [p], T - 1)
    return y, report


def verify_g_combination(
    T: int,
    g: QSeries | None = None,
    f1: QSeries | None = None,
    f2: QSeries | None = None,
) -> ClaimReport:
    """g == f1 - 8 f2 coefficientwise for the first T coefficients."""
    g = _series(g, None, None, T, None, form_g, "g series")
    f1 = _series(f1, None, None, T, None, form_f1, "f1 series")
    f2 = _series(f2, None, None, T, None, form_f2, "f2 series")
    return _compare("thm-3.1:combination", g, f1.sub(f2.scale(8)), T - 1, _F_SPACE)


def _eigenvalues(f1: QSeries, f2: QSeries, primes: list[int]):
    """Eigenvalues of f = f1 + 8 sqrt(-3) f2 and its conjugate by prime (None
    where the eigenform check failed), and the per-prime eigenform reports."""
    f = _f_from(f1, f2)
    fbar = f.conjugate()
    eig: dict[int, tuple[QuadInt | None, QuadInt | None]] = {}
    reports = []
    for p in primes:
        lam_f, rf = verify_eigenform(f, p, _F_SPACE, f"thm-3.1:eigen:f:p={p}")
        lam_b, rb = verify_eigenform(fbar, p, _F_SPACE, f"thm-3.1:eigen:fbar:p={p}")
        reports.extend([rf, rb])
        eig[p] = (lam_f, lam_b)
    return eig, reports


def eigenvalue_table(
    T: int, prime_max: int
) -> dict[int, tuple[QuadInt | None, QuadInt | None]]:
    """Hecke eigenvalues of f and its conjugate at every prime <= prime_max.

    A None entry means the eigenform check failed at that prime.
    """
    return _eigenvalues(form_f1(T), form_f2(T), primes_up_to(prime_max))[0]


def verify_theorem_3_1(T: int, prime_max: int, cache=None) -> list[ClaimReport]:
    """Eigenform claims for f and its conjugate at every prime <= prime_max.

    Sub-checks: per-prime eigenform reports for both forms; eigenvalues are
    conjugate pairs, real exactly when p = 1 mod 4 or the f2 coefficient at
    p vanishes; g = f1 - 8 f2; both T_5 eigenvalues equal 258; the two T_7
    eigenvalues differ, with imaginary parts +-8 * f2(7).  f1 and f2 are
    read from the cache, and on a miss built by form_f1 and form_f2; g is
    sum c(n) q^(2n+1), read from the cached c, so no run expands g.
    """
    if prime_max < 7:
        raise ValueError("the T_5 and T_7 sub-checks need prime_max >= 7")
    primes = primes_up_to(prime_max)
    bound = _F_SPACE.sturm_bound
    if T < (bound + 1) * max(primes):
        raise ValueError(
            f"need T >= {(bound + 1) * max(primes)} "
            f"for eigenform checks up to {max(primes)}, got {T}"
        )
    f1 = _series(None, cache, "f1", T, None, form_f1, "f1 series")
    f2 = _series(None, cache, "f2", T, None, form_f2, "f2 series")
    c = _series(None, cache, "c", (T + 1) // 2, None, c_series, "c series")
    eig, reports = _eigenvalues(f1, f2, primes)
    conj_fail = (
        p for p, (lam, lam_bar) in eig.items()
        if lam is None or lam_bar is None or lam_bar != lam.conj()
    )
    reality_fail = (
        p for p, (lam, _) in eig.items()
        if lam is None or (lam.im == 0) != (p % 4 == 1 or f2.coeffs[p] == 0)
    )
    # prime_max >= 7, so both primes have entries
    t5_holds = eig[5] == (QuadInt(258, 0), QuadInt(258, 0))
    lam7, lam7_bar = eig[7]
    d2_7 = f2.coeffs[7]
    t7_holds = (
        None not in eig[7]
        and lam7 != lam7_bar
        and (lam7.im, lam7_bar.im) == (8 * d2_7, -8 * d2_7)
    )
    return reports + [
        _scan_report("thm-3.1:conjugate-pairs", conj_fail, bound, _F_SPACE),
        _scan_report("thm-3.1:reality-pattern", reality_fail, bound, _F_SPACE),
        verify_g_combination(T, g=_lift(c, 2, 1), f1=f1, f2=f2),
        _scan_report(
            "thm-3.1:t5-eigenvalue-258", [] if t5_holds else [5], bound, _F_SPACE
        ),
        _scan_report(
            "thm-3.1:t7-distinct-eigenvalues", [] if t7_holds else [7], bound, _F_SPACE
        ),
    ]


def verify_remark(
    p: int, T: int, delta5: QSeries | None = None, cache=None
) -> ClaimReport:
    """delta_5((11n+6)p - (p-1)/2) + p^8 delta_5((11n+6)/p + (p-1)/(2p))
    == y(p) delta_5(11n+6) mod 11 for n < T: Theorem 1.2's recurrence for
    u(n) = delta_5(11n+6), since (11n+6)p - (p-1)/2 = 11(pn + (p-1)/2) + 6
    and (11n+6)/p + (p-1)/(2p) = 11 (n - (p-1)/2)/p + 6."""
    def series(half: int):
        u = _delta(delta5, cache, 5, p * (T - 1) + half + 1)
        c = _series(None, cache, "c", half + 1, None, c_series, "c series")
        return u, c.coeffs[half]

    return _recurrence(f"remark:p={p}", p, T, series)[1]


class SuiteConfig(NamedTuple):
    """Verification depths for the claim suite; the paper fixes only the
    23520 Sturm bound, every other depth is artifact policy."""

    eq_1_2_T: int = 5000
    thm_1_1_n_max: int = 100
    chain_T_final: int = 23521
    eq_1_4_T: int = 2000
    thm_1_2_primes: tuple[int, ...] = (17, 13, 5)
    thm_1_2_T: int = 1000
    thm_3_1_T: int = 2000
    thm_3_1_prime_max: int = 97
    remark_cases: tuple[tuple[int, int], ...] = ((5, 200), (13, 50))

    @classmethod
    def quick(cls) -> "SuiteConfig":
        return cls(
            eq_1_2_T=1000,
            thm_1_1_n_max=10,
            chain_T_final=2000,
            eq_1_4_T=300,
            thm_1_2_T=100,
            thm_3_1_T=500,
            thm_3_1_prime_max=23,
            remark_cases=((5, 50), (13, 20)),
        )


class Claim(NamedTuple):
    """A row of CLAIMS: `run` runs one claim ID at a SuiteConfig's depths.
    `qcong verify` sets the fields named by `depth` and `n_max` from --T and
    --n-max; only claims indexed by a prime have `for_prime`, which maps
    (config, p, --T) to the fields that narrow the run to p."""

    run: Callable[[SuiteConfig, object], list[ClaimReport]]
    depth: str | None = None
    n_max: str | None = None
    for_prime: Callable[[SuiteConfig, int, int | None], dict] | None = None


# in suite order, which fixes the order of cache requests: each series'
# longest request comes first, so later ones read a prefix of what it holds.
# f1 is the exception: thm-1.2's cross-check asks for p + 1 terms (18 at
# its largest prime, 17) before thm-3.1 asks for its length, so a cold run
# builds f1 twice, first at p + 1 terms, and a warm run reads both requests
# from the one entry
CLAIMS: dict[str, Claim] = {
    "sec-2-chain": Claim(
        lambda c, cache: verify_section_2_chain(c.chain_T_final, cache=cache),
        depth="chain_T_final",
    ),
    "eq-1.2": Claim(
        lambda c, cache: [verify_eq_1_2(c.eq_1_2_T, cache=cache)], depth="eq_1_2_T"
    ),
    "thm-1.1": Claim(
        lambda c, cache: [verify_theorem_1_1(c.thm_1_1_n_max, cache=cache)],
        n_max="thm_1_1_n_max",
    ),
    "thm-1.2": Claim(
        lambda c, cache: [
            verify_theorem_1_2(p, c.thm_1_2_T, cache=cache)[1] for p in c.thm_1_2_primes
        ],
        depth="thm_1_2_T",
        for_prime=lambda c, p, T: {"thm_1_2_primes": (p,)},
    ),
    "eq-1.4": Claim(
        lambda c, cache: [verify_eq_1_4(c.eq_1_4_T, cache=cache)], depth="eq_1_4_T"
    ),
    "thm-3.1": Claim(
        lambda c, cache: verify_theorem_3_1(
            c.thm_3_1_T, c.thm_3_1_prime_max, cache=cache
        ),
        depth="thm_3_1_T",
    ),
    "remark": Claim(
        lambda c, cache: [verify_remark(p, t, cache=cache) for p, t in c.remark_cases],
        for_prime=lambda c, p, T: {
            "remark_cases": ((p, dict(c.remark_cases).get(p, 50) if T is None else T),)
        },
    ),
}


def run_suite(config: SuiteConfig, cache: Cache | None = None) -> list[ClaimReport]:
    """Run every claim at the configured depths, sharing one cache (a
    memory-only one when none is given); reports sorted by claim ID."""
    cache = Cache(None) if cache is None else cache
    reports = [r for claim in CLAIMS.values() for r in claim.run(config, cache)]
    return sorted(reports, key=lambda r: r.claim)
