"""Broken k-diamond partition series, the c-series, and the end-to-end
verification of every congruence and eigenform claim.

Each verify_* function reads its series through the run's store.Cache,
scans the claim through an explicit bound, and returns one or more
ClaimReports.  _INPUTS has one row per series a claim reads, keyed by its
cache form, and _input reads a row: the cached entry, else one built and
then cached.  The six are sum delta_3(7n+5) q^n mod 7 and sum
delta_5(11n+6) q^n mod 11 (eta.eta_quotient_progression builds each
without the other classes), eq. (1.2)'s left side mod 7 (lifted for the
Section 2 chain), the exact c (reduced for eq. (1.4), lifted to g = sum
c(n) q^(2n+1) for Theorem 3.1) and the exact f1 and f2.  A run shares one
Cache, so each is built at most once, in one ring; a series from outside
(a mutation self-test's) enters through Cache.put.  An identity is two
series built from QSeries operations and the operators (Theorem 1.2 and
the remark through operators.hecke), compared by sturm._compare, which
reads each report's modulus from the series' ring.  Theorem 3.1's
eigenform reports come from operators.hecke on f1 and f2 over Z, so every
claim runs over Z or Z/m.

CLAIMS, the claim table, has one row per claim ID; run_suite runs every
row and `qcong verify` one, with a prime only from the ID's :p= suffix
and a depth only from --T.  Claim IDs: eq-1.2, thm-1.1, sec-2-chain (:a
to :d), eq-1.4, thm-1.2:p=<p>, thm-3.1 (thm-3.1:*), remark:p=<p>.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import compress, count, islice
from typing import NamedTuple

from .eta import EtaQuotient, eta_quotient_progression, eta_quotient_series
from .eta import times_dilated
from .forms import _theta_minus_q_4, eisenstein_int, form_f1, form_f2
from .operators import hecke, twist, u_operator
from .qseries import QSeries
from .ring import ZZ, ModRing, QuadInt, is_prime, primes_up_to
from .store import Cache, CacheKey
from .sturm import ClaimReport, _compare, _scan_report
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

    By Gauss's theta(-q) = eta(z)^2 / eta(2z) this is theta(-q)^4 times
    R(q^2), R = E4 prod (1-q^n)^6.  theta(-q)^4 is read off divisor sums
    (Jacobi's four-square theorem), as forms.form_F is, and R is built at
    the inner length and applied by eta.times_dilated: one product per
    residue class mod 2, so no product packs the zeros of R(q^2).
    """
    def R(n: int) -> QSeries:
        return eisenstein_int(4, n).mul(_euler_part(EtaQuotient(((1, 6),)), n, None))

    return times_dilated(QSeries(ZZ, 0, _theta_minus_q_4(T)), R, 2)


def eq_1_2_lhs(T: int) -> QSeries:
    """prod (1-q^n)^4 (1-q^{2n})^6 reduced mod 7."""
    return _euler_part(EtaQuotient(((1, 4), (2, 6))), T, 7)


# every series a claim reads, by cache form: (modulus, or None over Z, and
# the builder of T terms).  Each builder looks its function up when called,
# so a rebound module attribute (a tracer's wrapper, a test's patch) runs
_INPUTS: dict[str, tuple[int | None, Callable[[int], QSeries]]] = {
    "delta_k:3 7n+5": (7, lambda T: eta_quotient_progression(_delta_quotient(3), 7, 5, T)),
    "delta_k:5 11n+6": (11, lambda T: eta_quotient_progression(_delta_quotient(5), 11, 6, T)),
    "eq_1_2_lhs": (7, lambda T: eq_1_2_lhs(T)),
    "c": (None, lambda T: c_series(T)),
    "f1": (None, lambda T: form_f1(T)),
    "f2": (None, lambda T: form_f2(T)),
}


def _input(cache: Cache | None, form: str, T: int) -> QSeries:
    """The series `form` of _INPUTS to T terms: the cache's entry (None is a
    fresh memory-only Cache), else one built and then cached.  Claims index
    its coefficients, so an offset other than 0 is refused."""
    modulus, build = _INPUTS[form]
    key = CacheKey(form, (ZZ if modulus is None else ModRing(modulus)).tag)
    cache = Cache(None) if cache is None else cache
    series = cache.get(key, T)
    if series is None:
        series = build(T)
        cache.put(key, series)
    if series.offset24 != 0:
        raise ValueError(f"{form} series has offset {series.offset24}/24, need 0")
    return series


def verify_eq_1_2(T: int, cache=None) -> ClaimReport:
    """prod (1-q^n)^4 (1-q^{2n})^6 == 6 * sum delta_3(7n+5) q^n mod 7,
    compared coefficientwise for n < T."""
    if T < 10:
        raise ValueError(f"need T >= 10, got {T}")
    delta3 = _input(cache, "delta_k:3 7n+5", T)
    lhs = _input(cache, "eq_1_2_lhs", T)
    rhs = delta3.scale(6)
    return _compare("eq-1.2", lhs, rhs, T - 1, None)


def verify_theorem_1_1(n_max: int, cache=None) -> ClaimReport:
    """delta_3(343 n + r) == 0 mod 7 for r in {82, 229, 278, 327}, n < n_max.

    Each 343 n + r is 5 mod 7, so it reads delta_3(7m + 5) at
    m = 49 n + (r - 5)/7."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    residues = (82, 229, 278, 327)
    delta3 = _input(cache, "delta_k:3 7n+5", 49 * (n_max - 1) + (max(residues) - 5) // 7 + 1)
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
    prod0 = _lift(_input(cache, "eq_1_2_lhs", T_prod // 3), 3, 2).truncate(T_prod)
    f = u_operator(prod0, 7)
    n_a = (T_prod - 3) // 3
    n_b = (f.T - 3) // 3
    # u(n) = delta_3(7n + 5), and delta_3(49n + 33) = u(7n + 4)
    u = _input(cache, "delta_k:3 7n+5", max(n_a, 7 * n_b + 4) + 1)

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


def verify_eq_1_4(T: int, cache=None) -> ClaimReport:
    """c(n) == 8 delta_5(11n + 6) mod 11 for n < T, reading the exact c."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    delta5 = _input(cache, "delta_k:5 11n+6", T)
    c = _input(cache, "c", T)
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


def verify_theorem_1_2(p: int, T: int, cache=None) -> tuple[int, ClaimReport]:
    """Exact recurrence c(pn + (p-1)/2) + p^8 c((n-(p-1)/2)/p) = y(p) c(n).

    This is T_p g = y(p) g for g = sum c(n) q^(2n+1) in S_9(Gamma_0(16),
    chi_-4), read at the odd exponents.  y(p) is read off at n = 0 (where it
    equals c((p-1)/2)), the image of g under `operators.hecke` is compared
    with y(p) g for all n < T, and a y(p) that differs from the
    independently built series f1 at exponent p, read through the run's
    cache like every other input, fails the report at p.
    """
    def series(half: int):
        c = _input(cache, "c", p * (T - 1) + half + 1)
        return c, c.coeffs[half]

    y, report = _recurrence(f"thm-1.2:p={p}", p, T, series)
    # independent derivation of the same number through the eigenform route
    f1 = _input(cache, "f1", p + 1)
    if f1.coeffs[p] != y:
        return y, _scan_report(report.claim, [p], T - 1)
    return y, report


def verify_g_combination(T: int, g: QSeries, f1: QSeries, f2: QSeries) -> ClaimReport:
    """g == f1 - 8 f2 coefficientwise for the first T coefficients."""
    return _compare("thm-3.1:combination", g, f1.sub(f2.scale(8)), T - 1, _F_SPACE)


def _eigenvalues(f1: QSeries, f2: QSeries, primes: list[int]):
    """Eigenvalues r + i sqrt(-3) of f = f1 + 8 sqrt(-3) f2 by prime, as (r, i)
    or None where the check failed, and the eigenform reports for f and its
    conjugate, from T_p on f1 and f2 over Z.  lambda is read at f's first
    nonzero coefficient n0, the unit f1(n0) = +-1: r = f1(n0) (T_p f1)(n0),
    i = 8 f1(n0) (T_p f2)(n0).  T_p f - lambda f has real part T_p f1 - r f1
    + 24 i f2 and sqrt(-3) part 8 T_p f2 - i f1 - 8 r f2; the conjugate's
    differs in sign only, so both reports fail first where either is nonzero.
    """
    bound, k, chi = _F_SPACE.sturm_bound, _F_SPACE.weight, _F_SPACE.character
    a, b = f1.coeffs, f2.coeffs
    n0 = next((n for n, x, y in zip(range(bound + 1), a, b) if x or y), None)
    eig, reports = {}, []
    for p in primes:
        need, have = p * (bound + 1), min(f1.T, f2.T)
        if have < need:
            raise ValueError(f"insufficient truncation {have}: eigenform check at "
                             f"p={p} needs at least {need} coefficients")
        if n0 is None:
            raise ValueError("series vanishes through the bound; eigenvalue undefined")
        if b[n0] or a[n0] not in (1, -1):
            raise ValueError(f"f({n0}) = {a[n0]} + {8 * b[n0]} sqrt(-3) is not a unit")
        t1, t2 = (hecke(s.truncate(need), p, k, chi).coeffs for s in (f1, f2))
        r, i = a[n0] * t1[n0], 8 * a[n0] * t2[n0]
        failures = [
            n for n in range(bound + 1)
            if t1[n] - r * a[n] + 24 * i * b[n] or 8 * t2[n] - i * a[n] - 8 * r * b[n]
        ]
        eig[p] = None if failures else (r, i)
        for claim in (f"thm-3.1:eigen:f:p={p}", f"thm-3.1:eigen:fbar:p={p}"):
            reports.append(_scan_report(claim, failures, bound, _F_SPACE))
    return eig, reports


def eigenvalue_table(
    T: int, prime_max: int, cache=None
) -> dict[int, tuple[QuadInt | None, QuadInt | None]]:
    """Hecke eigenvalues of f and its conjugate at every prime <= prime_max,
    from f1 and f2 to T terms read through the cache.

    A None entry means the eigenform check failed at that prime.
    """
    eig = _eigenvalues(_input(cache, "f1", T), _input(cache, "f2", T), primes_up_to(prime_max))[0]
    return {
        p: (None, None) if e is None else (QuadInt(*e), QuadInt(e[0], -e[1]))
        for p, e in eig.items()
    }


def verify_theorem_3_1(T: int, prime_max: int, cache=None) -> list[ClaimReport]:
    """Eigenform claims for f and its conjugate at every prime <= prime_max.

    Sub-checks: per-prime eigenform reports for both forms; eigenvalues are
    conjugate pairs, real exactly when p = 1 mod 4 or the f2 coefficient at
    p vanishes; g = f1 - 8 f2; both T_5 eigenvalues equal 258; the two T_7
    eigenvalues differ, with imaginary parts +-8 * f2(7).  The conjugate's
    eigenvalue is r - i sqrt(-3) by construction, so conjugate-pairs fails
    exactly where an eigen report fails: its pass says every one passed.
    f1 and f2 are read from the cache, and on a miss built by form_f1 and
    form_f2; g is sum c(n) q^(2n+1), read from the cached c, so no run
    expands g.
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
    f1, f2 = _input(cache, "f1", T), _input(cache, "f2", T)
    c = _input(cache, "c", (T + 1) // 2)
    eig, reports = _eigenvalues(f1, f2, primes)
    conj_fail = (p for p, e in eig.items() if e is None)
    reality_fail = (
        p for p, e in eig.items()
        if e is None or (e[1] == 0) != (p % 4 == 1 or f2.coeffs[p] == 0)
    )
    # prime_max >= 7, so both primes have entries
    t5_fail = [] if eig[5] == (258, 0) else [5]
    t7_fail = [] if eig[7] is not None and eig[7][1] == 8 * f2.coeffs[7] != 0 else [7]
    return reports + [
        _scan_report("thm-3.1:conjugate-pairs", conj_fail, bound, _F_SPACE),
        _scan_report("thm-3.1:reality-pattern", reality_fail, bound, _F_SPACE),
        verify_g_combination(T, g=_lift(c, 2, 1), f1=f1, f2=f2),
        _scan_report("thm-3.1:t5-eigenvalue-258", t5_fail, bound, _F_SPACE),
        _scan_report("thm-3.1:t7-distinct-eigenvalues", t7_fail, bound, _F_SPACE),
    ]


def verify_remark(p: int, T: int, cache=None) -> ClaimReport:
    """delta_5((11n+6)p - (p-1)/2) + p^8 delta_5((11n+6)/p + (p-1)/(2p))
    == y(p) delta_5(11n+6) mod 11 for n < T: Theorem 1.2's recurrence for
    u(n) = delta_5(11n+6), since (11n+6)p - (p-1)/2 = 11(pn + (p-1)/2) + 6
    and (11n+6)/p + (p-1)/(2p) = 11 (n - (p-1)/2)/p + 6."""
    def series(half: int):
        u = _input(cache, "delta_k:5 11n+6", p * (T - 1) + half + 1)
        c = _input(cache, "c", half + 1)
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
    `qcong verify` sets the field named by `depth` from --T; only claims
    indexed by a prime have `for_prime`, which maps (config, p, --T) to the
    fields that narrow the run to the ID's :p= prime.  Each row has one or both."""

    run: Callable[[SuiteConfig, object], list[ClaimReport]]
    depth: str | None = None
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
        depth="thm_1_1_n_max",
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
