"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Depths and tolerances are pinned here; everything is exact arithmetic, so
"tolerance" always means exact equality.  Expensive series are shared
through module-scoped fixtures and enter a claim through a memory-only
Cache seeded with them; the disk cache stays disabled throughout, so every
criterion is checked from a cold start.  The delta_k fixtures are full
series from delta_series, sliced to the progression a claim reads, which
cross-checks that build against the progression builder the claims use.
"""

import random
import time

import pytest

from oracles import naive_c, naive_delta, naive_euler_product
from qcong.diamond import (
    c_series,
    delta_series,
    eq_1_2_lhs,
    verify_eq_1_2,
    verify_eq_1_4,
    verify_g_combination,
    verify_remark,
    verify_section_2_chain,
    verify_theorem_1_1,
    verify_theorem_1_2,
)
from qcong.eta import EtaQuotient, eta_series
from qcong.forms import cm_coefficient, form_f1, form_f2, form_g, form_h
from qcong.qseries import QSeries, convolve, convolve_schoolbook
from qcong.ring import QQ, QUAD, ZZ, ModRing, QuadInt, primes_up_to
from qcong.sturm import SpaceTag, eta_quotient_metadata, sturm_bound, verify_eigenform

from conftest import mutate, seeded_cache


def _line(num: int, passed: bool, detail: str, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {status} ({time.time() - started:.1f}s): {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def delta3_mod7():
    # sum delta_3(7n+5) q^n, n < 5000: criterion 4 needs 5000 terms (34,999
    # of the full series) and criterion 5 needs 4898 (34,285)
    return delta_series(3, 35_000, modulus=7).extract_progression(7, 5)


@pytest.fixture(scope="module")
def delta5_mod11():
    # sum delta_5(11n+6) q^n, n < 2000: criterion 7 needs 2000 terms, 21,996
    # of the full series
    return delta_series(5, 22_000, modulus=11).extract_progression(11, 6)


@pytest.fixture(scope="module")
def c_exact_17k():
    # criterion 10 at p=17, n < 1000 needs 17*999 + 8 + 1 = 16,992
    return c_series(17_000)


@pytest.fixture(scope="module")
def forms_2000():
    return form_g(2000), form_f1(2000), form_f2(2000)


def test_criterion_01_sturm_bound_anchor():
    t0 = time.time()
    ok = sturm_bound(5, 24696) == 23520
    _line(1, ok, "sturm_bound(5, 24696) == 23520", t0)


def test_criterion_02_eta_metadata():
    t0 = time.time()
    cases = {
        "3^4 6^6": (5, 72, -4),
        "4^6": (3, 16, -4),
        "4^8 2^-4": (2, 4, 1),
    }
    got = {
        text: (m.weight, m.level, m.character)
        for text, m in (
            (t, eta_quotient_metadata(EtaQuotient.parse(t))) for t in cases
        )
    }
    _line(2, got == cases, f"eta metadata {got}", t0)


def test_criterion_03_cm_form():
    t0 = time.time()
    h = form_h(10_001)
    ok = h.coeffs[1] == 1 and h.coeffs[5] == -6 and h.coeffs[9] == 9
    bad = [p for p in primes_up_to(9999) if h.coeffs[p] != cm_coefficient(p)]
    _line(3, ok and not bad, f"h = q - 6q^5 + 9q^9 ...; CM mismatches: {bad}", t0)


def test_criterion_04_eq_1_2_first_5000(delta3_mod7):
    t0 = time.time()
    rep = verify_eq_1_2(5000, cache=seeded_cache({"delta_k:3 7n+5": delta3_mod7}))
    _line(4, rep.passed, rep.to_json(), t0)


def test_criterion_05_theorem_1_1_n_below_100(delta3_mod7):
    t0 = time.time()
    rep = verify_theorem_1_1(100, cache=seeded_cache({"delta_k:3 7n+5": delta3_mod7}))
    _line(5, rep.passed, rep.to_json(), t0)


def test_criterion_06_section_2_chain_full():
    t0 = time.time()
    reports = verify_section_2_chain(23521)
    by_claim = {r.claim: r for r in reports}
    ok = all(r.passed for r in reports)
    ok = ok and by_claim["sec-2-chain:c"].bound == 23520
    ok = ok and by_claim["sec-2-chain:a"].checked + 1 >= 164_648
    _line(6, ok, "full chain: " + "; ".join(r.to_json() for r in reports), t0)


def test_criterion_06_section_2_chain_quick_variant():
    t0 = time.time()
    reports = verify_section_2_chain(2000)
    ok = all(r.passed for r in reports)
    bound = next(r.bound for r in reports if r.claim == "sec-2-chain:c")
    _line(6, ok and bound == 2000, f"quick chain at bound {bound}", t0)


def test_criterion_07_eq_1_4_n_below_2000(delta5_mod11):
    t0 = time.time()
    rep = verify_eq_1_4(2000, cache=seeded_cache({"delta_k:5 11n+6": delta5_mod11}))
    _line(7, rep.passed, rep.to_json(), t0)


def test_criterion_08_g_combination_first_2000(forms_2000):
    t0 = time.time()
    g, f1, f2 = forms_2000
    rep = verify_g_combination(2000, g=g, f1=f1, f2=f2)
    ok = rep.passed and g.coeffs[1] == 1 and g.coeffs[3] == -8 and g.coeffs[5] == 258
    _line(8, ok, rep.to_json(), t0)


def test_criterion_09_theorem_3_1_primes_to_97(forms_2000):
    t0 = time.time()
    _, f1, f2 = forms_2000
    f = QSeries(QUAD, 0, [QuadInt(a, 8 * b) for a, b in zip(f1.coeffs, f2.coeffs)])
    fbar = QSeries(QUAD, 0, [c.conj() for c in f.coeffs])
    failures = []
    eig = {}
    space = SpaceTag(9, 16, -4)
    for p in primes_up_to(97):
        lam, rep = verify_eigenform(f, p, space)
        lam_bar, rep_bar = verify_eigenform(fbar, p, space)
        if not (rep.passed and rep_bar.passed):
            failures.append(f"eigenform fails at {p}")
            continue
        eig[p] = (lam, lam_bar)
        if lam_bar != lam.conj():
            failures.append(f"not conjugate at {p}")
        if p % 2 == 1 and (lam.im == 0) != (p % 4 == 1):
            failures.append(f"reality pattern broken at {p}")
    if eig[5] != (QuadInt(258, 0), QuadInt(258, 0)):
        failures.append(f"T_5 eigenvalue {eig[5]}")
    lam7, lam7_bar = eig[7]
    if lam7 == lam7_bar or lam7.im != 8 * 238 or lam7_bar.im != -8 * 238:
        failures.append(f"T_7 eigenvalues {eig[7]}")
    # p = 2: chi(2) = 0 and f is odd-supported, so T_2 annihilates f
    if eig[2] != (QuadInt(0, 0), QuadInt(0, 0)):
        failures.append(f"T_2 eigenvalue {eig[2]}")
    _line(9, not failures, f"eigenforms for all p <= 97; {failures or 'ok'}", t0)


def test_criterion_10_theorem_1_2(c_exact_17k, forms_2000):
    t0 = time.time()
    _, f1, _ = forms_2000
    failures = []
    ys = {}
    cache = seeded_cache({"c": c_exact_17k})
    for p in (5, 13, 17):
        y, rep = verify_theorem_1_2(p, 1000, cache=cache)
        ys[p] = y
        if not rep.passed:
            failures.append(f"identity fails at p={p}")
        if y != f1.coeffs[p]:
            failures.append(f"y({p}) != f1 coefficient")
    if ys[5] != 258:
        failures.append(f"y(5) = {ys[5]}")
    _line(10, not failures, f"y-values {ys}; {failures or 'ok'}", t0)


def test_criterion_11_remark():
    t0 = time.time()
    rep5 = verify_remark(5, 200)
    rep13 = verify_remark(13, 50)
    _line(11, rep5.passed and rep13.passed, rep5.to_json() + "; " + rep13.to_json(), t0)


def test_criterion_12_oracle_equivalence():
    t0 = time.time()
    T = 2000
    failures = []
    if eta_series(T).coeffs != naive_euler_product(T):
        failures.append("eta_series")
    for k in (1, 2, 3, 5):
        if delta_series(k, T).coeffs != naive_delta(k, T):
            failures.append(f"delta_{k}")
    if c_series(T).coeffs != naive_c(T):
        failures.append("c_series")
    rng = random.Random(20260809)
    rings = (ZZ, QQ, QUAD, ModRing(7))
    for ring in rings:
        for _ in range(100):
            Ta, Tb = rng.randint(1, 40), rng.randint(1, 40)
            if ring == QUAD:
                a = [QuadInt(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(Ta)]
                b = [QuadInt(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(Tb)]
            elif isinstance(ring, ModRing):
                a = [rng.randrange(ring.modulus) for _ in range(Ta)]
                b = [rng.randrange(ring.modulus) for _ in range(Tb)]
            else:
                a = [ring.from_int(rng.randint(-99, 99)) for _ in range(Ta)]
                b = [ring.from_int(rng.randint(-99, 99)) for _ in range(Tb)]
            n = min(Ta, Tb)
            if convolve(ring, a, b, n) != convolve_schoolbook(ring, a, b, n):
                failures.append(f"mul variants differ over {ring!r}")
                break
    _line(12, not failures, f"oracle equivalence at T={T}; {failures or 'ok'}", t0)


def test_criterion_13_mutation_self_test(delta3_mod7, delta5_mod11, forms_2000):
    t0 = time.time()
    failures = []
    rng = random.Random(13)

    lhs = eq_1_2_lhs(5000)
    for idx in rng.sample(range(5000), 3):
        cache = seeded_cache({"eq_1_2_lhs": mutate(lhs, idx), "delta_k:3 7n+5": delta3_mod7})
        rep = verify_eq_1_2(5000, cache=cache)
        if rep.passed or rep.first_failure != idx:
            failures.append(f"eq-1.2 mutation at {idx} not caught")

    c = c_series(2000)
    for idx in rng.sample(range(2000), 3):
        cache = seeded_cache({"c": mutate(c, idx), "delta_k:5 11n+6": delta5_mod11})
        rep = verify_eq_1_4(2000, cache=cache)
        if rep.passed or rep.first_failure != idx:
            failures.append(f"eq-1.4 mutation at {idx} not caught")

    g, f1, f2 = forms_2000
    for idx in rng.sample(range(2000), 3):
        rep = verify_g_combination(2000, g=mutate(g, idx), f1=f1, f2=f2)
        if rep.passed or rep.first_failure != idx:
            failures.append(f"combination mutation at {idx} not caught")
    _line(13, not failures, f"9 injected mutations all flipped; {failures or 'ok'}", t0)
