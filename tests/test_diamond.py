import pytest

from oracles import naive_c, naive_delta, naive_hecke_recurrence, over_quad, verify_eigenform
from qcong import diamond
from qcong.diamond import (
    SuiteConfig,
    c_series,
    delta_series,
    eigenvalue_table,
    eq_1_2_lhs,
    run_suite,
    verify_eq_1_2,
    verify_eq_1_4,
    verify_g_combination,
    verify_remark,
    verify_section_2_chain,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_3_1,
)
from qcong.forms import form_f1, form_f2, form_g
from qcong.qseries import QSeries
from qcong.ring import ZZ, ModRing, QuadInt, primes_up_to
from qcong.store import Cache, CacheKey
from qcong.sturm import ClaimReport, SpaceTag
from conftest import mutate, seeded_cache


def test_delta_series_frozen_values():
    assert delta_series(1, 11).coeffs == [1, 3, 8, 18, 38, 75, 142, 258, 455, 780, 1308]
    assert delta_series(3, 12).coeffs == [1, 3, 8, 19, 41, 83, 161, 298, 535, 934, 1591, 2653]


def test_delta_constant_term_and_offset_cancellation():
    for k in range(1, 11):
        d = delta_series(k, 3)
        assert d.offset24 == 0
        assert d.coeffs[0] == 1


def test_delta_matches_naive_oracle():
    for k in (1, 2, 3, 5):
        T = 120
        assert delta_series(k, T).coeffs == naive_delta(k, T), k


def test_delta3_mod7_value_at_5():
    assert delta_series(3, 6, modulus=7).coeffs[5] == 6


def test_c_series_values_and_oracle():
    c = c_series(60)
    assert c.coeffs[:3] == [1, -8, 258]
    assert c.coeffs == naive_c(60)


@pytest.mark.parametrize("T", [1, 2, 3, 17, 1000, 16992])
def test_c_series_is_e4_of_2z_times_the_eta_product(T):
    # c is built as theta(-q)^4, read off divisor sums, times R(q^2), R = E4
    # eta(z)^6 at the inner length; the product it stands for is E4(2z)
    # times the whole eta product
    from qcong.diamond import _euler_part
    from qcong.eta import EtaQuotient, dilated
    from qcong.forms import eisenstein_int

    e4_2z = dilated(lambda n: eisenstein_int(4, n), T, 2)
    want = e4_2z.mul(_euler_part(EtaQuotient(((1, 8), (2, 2))), T, None))
    assert c_series(T) == want


def test_c_and_g_mod_m_reduce_the_exact_series():
    from qcong.diamond import resolve_form

    c = naive_c(80)
    g = [0] * 161
    g[1::2] = c
    for m in (7, 11, 12):
        assert resolve_form("c", 80, m).coeffs == [x % m for x in c], m
        assert resolve_form("g", 161, m).coeffs == [x % m for x in g], m


def test_eq_1_2_passes_and_bound_recorded():
    rep = verify_eq_1_2(300)
    assert rep.passed and rep.modulus == 7 and rep.bound == 299


def test_eq_1_2_rejects_tiny_T():
    with pytest.raises(ValueError):
        verify_eq_1_2(5)


def test_eq_1_2_mutation_flips_to_fail():
    T = 120
    lhs = eq_1_2_lhs(T)
    delta3 = delta_series(3, 7 * (T - 1) + 6, modulus=7).extract_progression(7, 5)

    def cache(lhs):
        return seeded_cache({"eq_1_2_lhs": lhs, "delta_k:3 7n+5": delta3})

    assert verify_eq_1_2(T, cache(lhs)).passed
    for idx in (0, 57, T - 1):
        rep = verify_eq_1_2(T, cache(mutate(lhs, idx)))
        assert not rep.passed and rep.first_failure == idx


def test_eq_1_2_rejects_short_injection():
    # a seeded left side shorter than T is a miss: the claim builds it at
    # full depth and passes, though the short one would fail, so it never
    # scans it, and the rebuilt series replaces it in the cache
    T = 100
    cache = Cache(None)
    key = CacheKey("eq_1_2_lhs", "mod:7")
    cache.put(key, mutate(eq_1_2_lhs(50), 17))
    rep = verify_eq_1_2(T, cache)
    assert rep.passed and rep.bound == rep.checked == T - 1
    assert cache.get(key, T) == eq_1_2_lhs(T)


def test_injected_delta_length_is_checked_on_the_full_series():
    # a seeded delta progression shorter than the claim needs is a miss:
    # each claim rebuilds it to the depth its full range of n reads and
    # passes, though the short mutated entry would fail
    cache = Cache(None)
    delta3 = mutate(delta_series(3, 500, 7).extract_progression(7, 5), 3)
    cache.put(CacheKey("delta_k:3 7n+5", "mod:7"), delta3)
    rep = verify_eq_1_2(100, cache)
    assert rep.passed and rep.bound == rep.checked == 99
    assert verify_theorem_1_1(4, cache).passed
    delta5 = mutate(delta_series(5, 100, 11).extract_progression(11, 6), 3)
    cache.put(CacheKey("delta_k:5 11n+6", "mod:11"), delta5)
    rep = verify_eq_1_4(80, cache)
    assert rep.passed and rep.bound == rep.checked == 79


def test_injected_mod_series_must_be_reduced():
    # lhs + 7 at index 17 is the same series mod 7, but not a reduced one;
    # Cache.put, where every outside series enters, refuses it
    T = 60
    lhs = eq_1_2_lhs(T)
    lhs.coeffs[17] += 7
    bad = lhs.coeffs[17]
    with pytest.raises(ValueError, match=rf"coefficient 17 is {bad}, outside \[0, 7\)"):
        Cache(None).put(CacheKey("eq_1_2_lhs", "mod:7"), lhs)
    delta5 = delta_series(5, T, modulus=11).extract_progression(11, 6)
    delta5.coeffs[3] = -1
    with pytest.raises(ValueError, match=r"delta_k:5 11n\+6 coefficient 3 is -1"):
        seeded_cache({"delta_k:5 11n+6": delta5})


def test_input_refuses_an_entry_whose_offset_is_not_0():
    # thm-1.1 and sec-2-chain:d index coefficients directly, so a shifted
    # series would be misread, not rejected, past this check
    lhs = eq_1_2_lhs(60)
    cache = seeded_cache({"eq_1_2_lhs": QSeries(lhs.ring, 24, lhs.coeffs)})
    with pytest.raises(ValueError, match="eq_1_2_lhs series has offset 24/24, need 0"):
        verify_eq_1_2(60, cache)
    delta3 = delta_series(3, 1400, 7).extract_progression(7, 5)
    cache = seeded_cache({"delta_k:3 7n+5": QSeries(delta3.ring, -24, delta3.coeffs)})
    with pytest.raises(ValueError, match="offset -24/24"):
        verify_theorem_1_1(4, cache)


def test_every_input_row_builds_an_offset_0_series_in_its_keys_ring():
    for form, (modulus, build) in diamond._INPUTS.items():
        ring = ZZ if modulus is None else ModRing(modulus)
        for T in (1, 30):
            s = build(T)
            assert (s.ring, s.offset24, s.T) == (ring, 0, T), (form, T)
            assert diamond._input(None, form, T) == s


def test_only_the_g_combination_takes_a_series():
    # every other claim reads its series through the run's Cache
    import inspect

    takes = {
        name: [p.name for p in inspect.signature(fn).parameters.values()
               if "QSeries" in str(p.annotation)]
        for name, fn in vars(diamond).items()
        if name.startswith("verify_") and inspect.isfunction(fn)
    }
    assert len(takes) == 8
    assert {name: ps for name, ps in takes.items() if ps} == {
        "verify_g_combination": ["g", "f1", "f2"]
    }


def test_theorem_1_1_small_depth():
    rep = verify_theorem_1_1(4)
    assert rep.passed and rep.modulus == 7


def test_section_2_chain_reduced_depth():
    reports = verify_section_2_chain(300)
    assert [r.claim for r in reports] == [
        "sec-2-chain:a", "sec-2-chain:b", "sec-2-chain:c", "sec-2-chain:d",
    ]
    assert all(r.passed for r in reports)
    # partial-depth scan is recorded as such, not as the full Sturm bound
    assert reports[2].bound == 301 - 1


@pytest.mark.parametrize(
    "bumps",
    [(), (5,), (14, 26), (20 + 21 * 3, 17 + 21 * 2), (4, 6, 21, 42), (200, 5 + 21 * 9), (6, 20 + 21 * 8)],
)
def test_section_2_chain_d_reports_the_first_nonzero_of_its_classes(monkeypatch, bumps):
    # step (d) reads the classes 5, 14, 17, 20 mod 21 of the U_7 image by
    # slices; with coefficients bumped off zero, its first failure is the
    # first one a per-coefficient scan of the image finds
    import qcong.diamond

    images = []
    u_operator = qcong.diamond.u_operator

    def bumped(f, d):
        g = u_operator(f, d)
        for e in bumps:
            g = mutate(g, e)
        images.append(g)
        return g

    monkeypatch.setattr(qcong.diamond, "u_operator", bumped)
    rep = verify_section_2_chain(200)[3]
    (f,) = images
    assert f.T == 201
    want = next(
        (e for e in range(f.T) if e % 21 in (5, 14, 17, 20) and f.coeffs[e] != 0), None
    )
    assert rep.claim == "sec-2-chain:d" and rep.bound == f.T - 1
    assert rep.first_failure == want and rep.passed == (want is None)
    assert want == min((e for e in bumps if e % 21 in (5, 14, 17, 20)), default=None)


@pytest.mark.parametrize("T_final", [3, 4, 5, 150, 2001])
def test_section_2_eta_product_is_the_lifted_eq_1_2_lhs(T_final):
    # the chain builds eta(3z)^4 eta(6z)^6 mod 7 from eq. (1.2)'s left side;
    # T_prod = 7 T_final + 1 takes every residue mod 3 over these cases
    from qcong.diamond import _SECTION2_QUOTIENT, _lift
    from qcong.eta import eta_quotient_series

    T_prod = 7 * T_final + 1
    lifted = _lift(eq_1_2_lhs(T_prod // 3), 3, 2).truncate(T_prod)
    direct = eta_quotient_series(_SECTION2_QUOTIENT, T_prod - 2, 7).to_offset_zero()
    assert lifted == direct


def test_section_2_chain_uses_cache(tmp_path):
    from qcong.store import Cache

    cache = Cache(tmp_path)
    first = verify_section_2_chain(150, cache=cache)
    assert any(tmp_path.glob("*.qs"))
    second = verify_section_2_chain(150, cache=cache)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_eq_1_4_passes():
    rep = verify_eq_1_4(150)
    assert rep.passed and rep.modulus == 11


def test_eq_1_4_mutation_flips_to_fail():
    T = 80
    delta5 = delta_series(5, 11 * (T - 1) + 7, modulus=11).extract_progression(11, 6)
    c = c_series(T)

    def cache(c):
        return seeded_cache({"c": c, "delta_k:5 11n+6": delta5})

    assert verify_eq_1_4(T, cache(c)).passed
    for idx in (0, 33, T - 1):
        rep = verify_eq_1_4(T, cache(mutate(c, idx)))
        assert not rep.passed and rep.first_failure == idx


def test_theorem_1_2_y_values():
    y5, rep5 = verify_theorem_1_2(5, 60)
    assert y5 == 258 and rep5.passed
    y13, rep13 = verify_theorem_1_2(13, 40)
    assert rep13.passed and y13 == c_series(7).coeffs[6]


def test_theorem_1_2_y_matches_f1_coefficient():
    for p in (5, 13, 17):
        y, rep = verify_theorem_1_2(p, 30)
        assert rep.passed
        assert y == form_f1(p + 1).coeffs[p]


def test_theorem_1_2_rejects_bad_prime():
    for p in (3, 4, 9):
        with pytest.raises(ValueError):
            verify_theorem_1_2(p, 10)


def test_lift_fills_the_exponents_its_coefficients_fix():
    from qcong.diamond import _lift
    from qcong.qseries import QSeries
    from qcong.ring import ModRing

    u = QSeries.from_ints(ModRing(7), [1, 2, 3])
    # 1 q^2 + 2 q^5 + 3 q^8, and zeros through q^10 (the next term is q^11)
    assert _lift(u, 3, 2).coeffs == [0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0]
    assert _lift(u, 2, 1).coeffs == [0, 1, 0, 2, 0, 3, 0]
    assert _lift(u, 2, 1).ring == u.ring and _lift(u, 2, 1).offset24 == 0


def _recurrence_mutations(p: int, T: int, y: int):
    """(bumps {index of u: amount}, first n < T where Theorem 1.2's recurrence
    for u then fails), for bumps at n, at pn + (p-1)/2 (mid-range, and the
    last index the scan reads), at (n - (p-1)/2)/p, and at (p-1)/2.  The
    (n - (p-1)/2)/p case bumps u(1) by 1 and u(p + (p-1)/2) by y, so the
    recurrence still holds at n = 1 and only the p^8 term at n = p + (p-1)/2
    sees it."""
    half = (p - 1) // 2
    return [
        ({3: 1}, 3),
        ({3 * p + half: 1}, 3),
        ({p * (T - 1) + half: 1}, T - 1),
        ({1: 1, p + half: y}, p + half),
        ({half: 1}, 0),
    ]


def _bumped(series, bumps: dict[int, int]):
    for idx, bump in bumps.items():
        series = mutate(series, idx, bump)
    return series


@pytest.mark.parametrize("p", [5, 13, 17])
def test_theorem_1_2_mutations_match_the_index_recurrence(p):
    T = 30
    half = (p - 1) // 2
    c = c_series(p * (T - 1) + half + 1)
    y = c.coeffs[half]
    assert naive_hecke_recurrence(c.coeffs, p, y, T) is None
    for bumps, first in _recurrence_mutations(p, T, y):
        u = _bumped(c, bumps)
        assert naive_hecke_recurrence(u.coeffs, p, y, T) == first, bumps
        y_mut, rep = verify_theorem_1_2(p, T, seeded_cache({"c": u}))
        assert y_mut == u.coeffs[half]
        # a bump at (p-1)/2 moves y itself, and the f1 cross-check reports p
        want = p if half in bumps else first
        assert not rep.passed and rep.first_failure == want, bumps


@pytest.mark.parametrize("p", [5, 13, 17])
def test_remark_mutations_match_the_index_recurrence(p):
    T = 30
    half = (p - 1) // 2
    delta5 = delta_series(5, (11 * (T - 1) + 6) * p - half + 1, modulus=11)
    y = c_series(half + 1).coeffs[half]
    assert naive_hecke_recurrence(delta5.coeffs[6::11], p, y, T, modulus=11) is None

    def remark(d):
        # the full delta_5 sliced to the progression the remark reads
        return verify_remark(p, T, seeded_cache({"delta_k:5 11n+6": d.extract_progression(11, 6)}))

    assert remark(delta5).passed
    # off the progression 11n + 6 nothing is read
    assert remark(mutate(delta5, 11 * 3 + 2)).passed
    for bumps, first in _recurrence_mutations(p, T, y):
        d = _bumped(delta5, {11 * j + 6: b for j, b in bumps.items()})
        u = d.coeffs[6::11]
        assert naive_hecke_recurrence(u, p, y, T, modulus=11) == first, bumps
        rep = remark(d)
        assert not rep.passed and rep.first_failure == first, bumps


def test_g_combination_and_mutations():
    T = 200
    g = form_g(T)
    f1 = form_f1(T)
    f2 = form_f2(T)
    assert verify_g_combination(T, g=g, f1=f1, f2=f2).passed
    for idx in (1, 77, T - 1):
        rep = verify_g_combination(T, g=mutate(g, idx), f1=f1, f2=f2)
        assert not rep.passed and rep.first_failure == idx


def test_theorem_3_1_reduced():
    reports = verify_theorem_3_1(250, 13)
    assert all(r.passed for r in reports), [r.claim for r in reports if not r.passed]
    names = {r.claim for r in reports}
    assert "thm-3.1:t5-eigenvalue-258" in names
    assert "thm-3.1:t7-distinct-eigenvalues" in names


def test_theorem_3_1_expands_F_once(monkeypatch):
    # F is read off its divisor sums (forms.form_F), not expanded as an
    # eta quotient, so count the builder's calls
    from qcong import forms

    built = []
    build_F = forms.form_F

    def counting(T):
        built.append(T)
        return build_F(T)

    monkeypatch.setattr(forms, "form_F", counting)
    reports = verify_theorem_3_1(250, 13)
    assert all(r.passed for r in reports)
    assert len(built) == 1, built


def test_theorem_3_1_insufficient_truncation():
    with pytest.raises(ValueError, match="need T >="):
        verify_theorem_3_1(100, 13)


# the space of f = f1 + 8 sqrt(-3) f2; bound 18, and 13 * 19 = 247 <= 250
_F = SpaceTag(9, 16, -4)
_T31, _PRIMES31 = 250, primes_up_to(13)


def _report_31(claim, failures):
    return ClaimReport(claim, 9, 16, None, 18, 18, not failures, (failures or [None])[0])


def _reference_3_1(f1, f2, T, primes):
    """Theorem 3.1's reports through Z[sqrt(-3)]: verify_eigenform on
    f = f1 + 8 sqrt(-3) f2 and on f1 - 8 sqrt(-3) f2, and the sub-checks
    read off the QuadInt eigenvalues."""
    f, fbar = over_quad(f1, f2), over_quad(f1, f2, -1)
    eig, reports = {}, []
    for p in primes:
        lam, rep = verify_eigenform(f, p, _F, f"thm-3.1:eigen:f:p={p}")
        lam_bar, rep_bar = verify_eigenform(fbar, p, _F, f"thm-3.1:eigen:fbar:p={p}")
        reports += [rep, rep_bar]
        eig[p] = lam, lam_bar
    conj = [
        p for p, (lam, lam_bar) in eig.items()
        if None in (lam, lam_bar) or lam_bar != lam.conj()
    ]
    real = [
        p for p, (lam, _) in eig.items()
        if lam is None or (lam.im == 0) != (p % 4 == 1 or f2.coeffs[p] == 0)
    ]
    t7 = None not in eig[7] and eig[7][0] != eig[7][1]
    t5 = eig[5] == (QuadInt(258, 0), QuadInt(258, 0))
    return reports + [
        _report_31("thm-3.1:conjugate-pairs", conj),
        _report_31("thm-3.1:reality-pattern", real),
        verify_g_combination(T, form_g(T), f1, f2),
        _report_31("thm-3.1:t5-eigenvalue-258", [] if t5 else [5]),
        _report_31("thm-3.1:t7-distinct-eigenvalues", [] if t7 else [7]),
    ]


def _bumped_pair(which, n, by=1):
    coeffs = [form_f1(_T31).coeffs, form_f2(_T31).coeffs]
    coeffs[which] = list(coeffs[which])
    coeffs[which][n] += by
    return [QSeries(ZZ, 0, c) for c in coeffs]


@pytest.mark.parametrize("which", [0, 1], ids=["f1", "f2"])
@pytest.mark.parametrize("n", [*range(19), 21])
def test_theorem_3_1_matches_the_quad_reference(which, n):
    # 21 = 3 * 7 lies past the bound, yet (T_3 f)(7) and (T_7 f)(3) read it
    f1, f2 = _bumped_pair(which, n)
    cache = seeded_cache({"f1": f1, "f2": f2})
    try:
        want = _reference_3_1(f1, f2, _T31, _PRIMES31)
    except ValueError as exc:
        # f(n0) is not +-1: f1(1) = 2, or f2(0) = 1
        assert "not a unit" in str(exc)
        with pytest.raises(ValueError, match="not a unit"):
            verify_theorem_3_1(_T31, 13, cache)
        return
    assert verify_theorem_3_1(_T31, 13, cache) == want
    assert not all(r.passed for r in want)


def test_theorem_3_1_t7_reads_imaginary_parts_8_f2_7():
    assert form_f2(140).coeffs[7] == 238
    assert eigenvalue_table(140, 7)[7] == (0, 1904)


def test_theorem_3_1_t7_holds_for_minus_f():
    # -f = -f1 - 8 sqrt(-3) f2 has f's eigenvalues, so its two T_7
    # eigenvalues differ too; g = f1 - 8 f2 is read from the cached c, which
    # is not negated, so the combination still fails at its first term
    neg = [s.scale(-1) for s in (form_f1(_T31), form_f2(_T31))]
    reports = verify_theorem_3_1(_T31, 13, seeded_cache({"f1": neg[0], "f2": neg[1]}))
    by_claim = {r.claim: r for r in reports}
    assert by_claim["thm-3.1:t7-distinct-eigenvalues"].passed
    assert by_claim["thm-3.1:eigen:f:p=7"].passed
    assert by_claim["thm-3.1:combination"].first_failure == 1


def test_theorem_3_1_t7_fails_on_equal_eigenvalues():
    # f1 = q + 7^8 q^49 and f2 = 0 pass T_7 with eigenvalue 0 = 0 + 0 sqrt(-3)
    # (chi_-4(7) = -1): an eigenform at 7 whose two eigenvalues are equal
    f1 = [0] * _T31
    f1[1], f1[49] = 1, 7**8
    cache = seeded_cache({"f1": QSeries(ZZ, 0, f1), "f2": QSeries(ZZ, 0, [0] * _T31)})
    by_claim = {r.claim: r for r in verify_theorem_3_1(_T31, 13, cache)}
    assert eigenvalue_table(_T31, 7, cache)[7] == (0, 0)
    assert by_claim["thm-3.1:eigen:f:p=7"].passed
    assert by_claim["thm-3.1:t7-distinct-eigenvalues"].first_failure == 7


def test_theorem_3_1_pair_with_unequal_diagonal_fails():
    # T_3 (f1 + f2) = (f1 + f2) - 193 f2 and T_3 f2 = (f1 + f2) - f2: on this
    # pair a = 1 != d = -1, so f1 + f2 + 8 sqrt(-3) f2 is no eigenform at 3,
    # while T_5 is 258 times the identity on any pair
    f1, f2 = form_f1(_T31), form_f2(_T31)
    g1 = f1.add(f2)
    eig, reports = diamond._eigenvalues(g1, f2, [3, 5])
    assert eig == {3: None, 5: (258, 0)}
    assert [r.passed for r in reports] == [False, False, True, True]
    assert reports == _reference_3_1(g1, f2, _T31, [3, 5, 7])[:4]


@pytest.mark.parametrize("short", [0, 1], ids=["f1", "f2"])
def test_theorem_3_1_short_input_raises(short):
    # 246 < 13 * 19 terms: a short image must be an error, never a pass
    pair = [form_f1(_T31), form_f2(_T31)]
    pair[short] = pair[short].truncate(13 * 19 - 1)
    with pytest.raises(ValueError, match="insufficient truncation 246"):
        diamond._eigenvalues(*pair, _PRIMES31)
    with pytest.raises(ValueError, match="insufficient truncation"):
        eigenvalue_table(13 * 19 - 1, 13)


@pytest.mark.parametrize("which", [0, 1], ids=["f1(1)=2", "f2(1)=1"])
def test_theorem_3_1_non_unit_leading_coefficient_raises(which):
    with pytest.raises(ValueError, match="not a unit"):
        diamond._eigenvalues(*_bumped_pair(which, 1), _PRIMES31)


def test_theorem_3_1_vanishing_pair_raises():
    zero = QSeries(ZZ, 0, [0] * _T31)
    with pytest.raises(ValueError, match="vanishes through the bound"):
        diamond._eigenvalues(zero, zero, _PRIMES31)


def test_theorem_3_1_leading_minus_one_matches_the_reference():
    f1, f2 = _bumped_pair(0, 1, -2)  # f1(1) = -1
    eig, reports = diamond._eigenvalues(f1, f2, _PRIMES31)
    assert reports == _reference_3_1(f1, f2, _T31, _PRIMES31)[: len(reports)]
    # T_2 maps every odd-supported series to 0; each odd prime fails
    assert [r.passed for r in reports] == [True, True] + [False] * 10
    # -f is an eigenform with f's eigenvalues, read at f1(1) = -1
    neg = [s.scale(-1) for s in (form_f1(_T31), form_f2(_T31))]
    eig, reports = diamond._eigenvalues(*neg, _PRIMES31)
    assert reports == _reference_3_1(*neg, _T31, _PRIMES31)[: len(reports)]
    assert all(r.passed for r in reports) and eig[7] == (0, 1904)


def test_suite_constructs_no_quadint(monkeypatch):
    def refuse(self, re, im):
        raise AssertionError("QuadInt built on the claim path")

    monkeypatch.setattr(QuadInt, "__init__", refuse)
    reports = run_suite(SuiteConfig.quick(), cache=None)
    assert reports and all(r.passed for r in reports)
    # nor does the eigenvalue table: its entries are integer pairs (r, i)
    table = eigenvalue_table(_T31, 13)
    assert table[5] == (258, 0) and table[7] == (0, 1904)


def test_remark_small():
    assert verify_remark(5, 25).passed
    assert verify_remark(13, 8).passed
    with pytest.raises(ValueError):
        verify_remark(3, 10)


def test_run_suite_quick_ordering_and_pass(tmp_path):
    from qcong.store import Cache

    config = SuiteConfig(
        eq_1_2_T=60,
        thm_1_1_n_max=2,
        chain_T_final=60,
        eq_1_4_T=30,
        thm_1_2_primes=(5,),
        thm_1_2_T=20,
        thm_3_1_T=250,
        thm_3_1_prime_max=13,
        remark_cases=((5, 10),),
    )
    cache = Cache(tmp_path)
    reports = run_suite(config, cache=cache)
    claims = [r.claim for r in reports]
    assert claims == sorted(claims)
    assert all(r.passed for r in reports)
    assert "eq-1.2" in claims and "sec-2-chain:c" in claims
    space = {r.claim: (r.weight, r.level, r.modulus) for r in reports}
    assert space["sec-2-chain:a"] == (5, 72, 7)
    assert space["sec-2-chain:b"] == (5, 504, 7)
    assert space["sec-2-chain:c"] == (5, 24696, 7)
    assert space["sec-2-chain:d"] == (5, 504, 7)
    thm_3_1 = [v for claim, v in space.items() if claim.startswith("thm-3.1:")]
    assert thm_3_1 and all(v == (9, 16, None) for v in thm_3_1)
    # a warm run on the same cache and a run without one report the same
    warm = run_suite(config, cache=cache)
    uncached = run_suite(config, cache=None)
    want = [r.to_dict() for r in reports]
    assert [r.to_dict() for r in warm] == want
    assert [r.to_dict() for r in uncached] == want


def test_quick_suite_builds_each_cached_series_once(tmp_path):
    from qcong.store import Cache

    class CountingCache(Cache):
        def __init__(self, root):
            super().__init__(root)
            self.puts = []

        def put(self, key, series):
            self.puts.append((key.form, key.ring))
            return super().put(key, series)

    # with files and memory-only alike
    for root in (tmp_path, None):
        cache = CountingCache(root)
        cold = run_suite(SuiteConfig.quick(), cache=cache)
        # f1 twice: thm-1.2's cross-check asks for 18 terms before thm-3.1
        # asks for 500 (see CLAIMS)
        assert sorted(cache.puts) == [
            ("c", "int"),
            ("delta_k:3 7n+5", "mod:7"),
            ("delta_k:5 11n+6", "mod:11"),
            ("eq_1_2_lhs", "mod:7"),
            ("f1", "int"),
            ("f1", "int"),
            ("f2", "int"),
        ], (root, cache.puts)
        cache.puts.clear()
        warm = run_suite(SuiteConfig.quick(), cache=cache)
        assert cache.puts == [], root
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
    assert list(tmp_path.iterdir()) and cache.root is None


def test_quick_suite_without_a_cache_builds_each_input_once(monkeypatch):
    from collections import Counter

    from qcong import diamond, forms

    built = Counter()

    def counted(name, fn, label=lambda *args: ()):
        def counting(*args):
            built[(name, *label(*args))] += 1
            return fn(*args)

        monkeypatch.setattr(diamond, name, counting)

    counted(
        "eta_quotient_progression", diamond.eta_quotient_progression,
        lambda e, p, r, T: (p, r),
    )
    counted("c_series", diamond.c_series)
    counted("eq_1_2_lhs", diamond.eq_1_2_lhs)
    for form in ("form_f1", "form_f2"):
        counted(form, getattr(diamond, form), lambda T: (T,))

    def refuse(T):
        raise AssertionError("g expanded: Theorem 3.1 lifts the cached c")

    monkeypatch.setattr(forms, "form_g", refuse)
    reports = run_suite(SuiteConfig.quick(), cache=None)
    assert all(r.passed for r in reports)
    # f1 is also built at 18 terms for thm-1.2's cross-check at p = 17,
    # whose entry serves p = 13 and 5 too
    assert built == {
        ("eta_quotient_progression", 7, 5): 1,
        ("eta_quotient_progression", 11, 6): 1,
        ("c_series",): 1,
        ("eq_1_2_lhs",): 1,
        ("form_f1", 500): 1,
        ("form_f2", 500): 1,
        ("form_f1", 18): 1,
    }


def test_warm_quick_suite_reads_each_entry_file_once(tmp_path, monkeypatch):
    from collections import Counter
    from pathlib import Path

    from qcong.store import Cache

    cold = run_suite(SuiteConfig.quick(), cache=Cache(tmp_path))
    reads = Counter()
    read_text = Path.read_text

    def counting(path, *args, **kwargs):
        reads[path.name] += 1
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    warm = run_suite(SuiteConfig.quick(), cache=Cache(tmp_path))
    assert reads == {path.name: 1 for path in tmp_path.glob("*.qs")}
    assert len(reads) == 6
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]


def test_warm_quick_suite_reads_f1_and_f2_from_the_cache(tmp_path, monkeypatch):
    from qcong import diamond, forms
    from qcong.store import Cache

    cache = Cache(tmp_path)
    cold = run_suite(SuiteConfig.quick(), cache=cache)

    def unexpected(name):
        def build(T):
            raise AssertionError(f"{name} built at T={T}")

        return build

    # thm-1.2's cross-check reads f1 from the cache too: nothing is built
    for name in ("form_f1", "form_f2", "form_g"):
        monkeypatch.setattr(forms, name, unexpected(name))
    for name in ("form_f1", "form_f2"):
        monkeypatch.setattr(diamond, name, unexpected(name))
    warm = run_suite(SuiteConfig.quick(), cache=Cache(tmp_path))
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]


def test_delta3_claims_read_only_the_class_5_mod_7():
    # one full delta_3 serves eq-1.2 (n < 120) and thm-1.1 (n < 4)
    T, n_max = 120, 4
    delta3 = delta_series(3, 343 * (n_max - 1) + 328, modulus=7)

    def cache(d):
        # the full delta_3, bumped anywhere, sliced to what the claims read
        return seeded_cache({"delta_k:3 7n+5": d.extract_progression(7, 5)})

    def reports(d):
        return [
            verify_eq_1_2(T, cache(d)).to_dict(),
            verify_theorem_1_1(n_max, cache(d)).to_dict(),
        ]

    clean = reports(delta3)
    assert all(r["pass"] for r in clean)
    off_class = (0, 4, 6, 7 * 57 + 3, 343 + 81, 7 * (T - 1) + 6, len(delta3.coeffs) - 2)
    for idx in off_class:
        assert idx % 7 != 5
        assert reports(mutate(delta3, idx)) == clean, idx
    for j in (0, 57, T - 1):
        rep = verify_eq_1_2(T, cache(mutate(delta3, 7 * j + 5)))
        assert not rep.passed and rep.first_failure == j
    for idx in (82, 343 + 229, 2 * 343 + 278, 3 * 343 + 327):
        rep = verify_theorem_1_1(n_max, cache(mutate(delta3, idx)))
        assert not rep.passed and rep.first_failure == idx
    # class 5, but outside 343n + {82, 229, 278, 327}: thm-1.1 still holds
    assert verify_theorem_1_1(n_max, cache(mutate(delta3, 7 * 20 + 5))).passed


def test_delta5_claims_read_only_the_class_6_mod_11():
    # one full delta_5 serves eq-1.4 (n < 80) and the remark at p = 5 (n < 30)
    T, p, T_remark = 80, 5, 30
    delta5 = delta_series(5, (11 * (T_remark - 1) + 6) * p - 1, modulus=11)
    c = c_series(T)

    def cache(d):
        # the full delta_5, bumped anywhere, sliced to what the claims read
        return seeded_cache({"c": c, "delta_k:5 11n+6": d.extract_progression(11, 6)})

    def reports(d):
        return [
            verify_eq_1_4(T, cache(d)).to_dict(),
            verify_remark(p, T_remark, cache(d)).to_dict(),
        ]

    clean = reports(delta5)
    assert all(r["pass"] for r in clean)
    for idx in (0, 5, 7, 11 * 40 + 2, 11 * (T - 1) + 7, len(delta5.coeffs) - 2):
        assert idx % 11 != 6
        assert reports(mutate(delta5, idx)) == clean, idx
    for j in (0, 33, T - 1):
        rep = verify_eq_1_4(T, cache(mutate(delta5, 11 * j + 6)))
        assert not rep.passed and rep.first_failure == j


def test_delta5_at_6_mod_11():
    # n=0 case of the mod-11 identity: 8 * delta_5(6) = 8 * 7 = 56 = 1 = c(0)
    assert delta_series(5, 7, modulus=11).coeffs[6] == 7


def test_theorem_1_1_residues_come_from_b_progressions():
    # 343n + {82, 229, 278, 327} = 7*(49n + {11, 32, 39, 46}) + 5 and the
    # b-indices 21m + {5, 14, 17, 20} hit exactly those delta_3 arguments
    assert {49 * j + 33 for j in (1, 4, 5, 6)} == {82, 229, 278, 327}
    for r in (5, 14, 17, 20):
        assert r % 3 == 2  # b(3m+2) is the only populated progression
        j = (r - 2) // 3
        assert j in (1, 4, 5, 6)
