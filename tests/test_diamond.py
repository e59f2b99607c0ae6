import pytest

from oracles import naive_c, naive_delta, naive_hecke_recurrence
from qcong.diamond import (
    SuiteConfig,
    c_series,
    delta_series,
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
from qcong.forms import form_f1, form_f2
from conftest import mutate


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
    # c is built as eta(z)^8 times R(q^2), R = E4 eta(z)^2 at the inner
    # length; the product it stands for is E4(2z) times the whole eta product
    from qcong.diamond import _euler_part
    from qcong.eta import EtaQuotient, dilated
    from qcong.forms import eisenstein_int

    e4_2z = dilated(lambda n: eisenstein_int(4, n), T, 2)
    want = e4_2z.mul(_euler_part(EtaQuotient(((1, 8), (2, 2))), T, None))
    assert c_series(T) == want


def test_c_and_g_mod_m_reduce_the_exact_series():
    from qcong.forms import resolve_form

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
    delta3 = delta_series(3, 7 * (T - 1) + 6, modulus=7)
    assert verify_eq_1_2(T, lhs=lhs, delta3=delta3).passed
    for idx in (0, 57, T - 1):
        rep = verify_eq_1_2(T, lhs=mutate(lhs, idx), delta3=delta3)
        assert not rep.passed and rep.first_failure == idx


def test_eq_1_2_rejects_short_injection():
    with pytest.raises(ValueError, match="coefficients"):
        verify_eq_1_2(100, lhs=eq_1_2_lhs(50))


def test_injected_mod_series_must_be_reduced():
    # lhs + 7 at index 17 is the same series mod 7, but not a reduced one
    T = 60
    lhs = eq_1_2_lhs(T)
    lhs.coeffs[17] += 7
    bad = lhs.coeffs[17]
    with pytest.raises(ValueError, match=rf"coefficient 17 is {bad}, outside \[0, 7\)"):
        verify_eq_1_2(T, lhs=lhs)
    delta5 = delta_series(5, 11 * (T - 1) + 7, modulus=11)
    delta5.coeffs[3] = -1
    with pytest.raises(ValueError, match="delta_5 series coefficient 3"):
        verify_eq_1_4(T, delta5=delta5)


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
    delta5 = delta_series(5, 11 * (T - 1) + 7, modulus=11)
    c = c_series(T)
    assert verify_eq_1_4(T, c_exact=c, delta5=delta5).passed
    for idx in (0, 33, T - 1):
        rep = verify_eq_1_4(T, c_exact=mutate(c, idx), delta5=delta5)
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
        y_mut, rep = verify_theorem_1_2(p, T, c_exact=u)
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
    assert verify_remark(p, T, delta5=delta5).passed
    # off the progression 11n + 6 nothing is read
    assert verify_remark(p, T, delta5=mutate(delta5, 11 * 3 + 2)).passed
    for bumps, first in _recurrence_mutations(p, T, y):
        d = _bumped(delta5, {11 * j + 6: b for j, b in bumps.items()})
        u = d.coeffs[6::11]
        assert naive_hecke_recurrence(u, p, y, T, modulus=11) == first, bumps
        rep = verify_remark(p, T, delta5=d)
        assert not rep.passed and rep.first_failure == first, bumps


def test_g_combination_and_mutations():
    T = 200
    g = None
    from qcong.forms import form_g

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

    from qcong import diamond

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
    for form in ("form_f1", "form_f2", "form_g"):
        counted(form, getattr(diamond, form), lambda T: (T,))
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
    for module in (forms, diamond):
        for name in ("form_f1", "form_f2", "form_g"):
            monkeypatch.setattr(module, name, unexpected(name))
    warm = run_suite(SuiteConfig.quick(), cache=Cache(tmp_path))
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]


def test_delta3_claims_read_only_the_class_5_mod_7():
    # one full delta_3 serves eq-1.2 (n < 120) and thm-1.1 (n < 4)
    T, n_max = 120, 4
    delta3 = delta_series(3, 343 * (n_max - 1) + 328, modulus=7)

    def reports(d):
        return [
            verify_eq_1_2(T, delta3=d).to_dict(),
            verify_theorem_1_1(n_max, delta3=d).to_dict(),
        ]

    clean = reports(delta3)
    assert all(r["pass"] for r in clean)
    off_class = (0, 4, 6, 7 * 57 + 3, 343 + 81, 7 * (T - 1) + 6, len(delta3.coeffs) - 2)
    for idx in off_class:
        assert idx % 7 != 5
        assert reports(mutate(delta3, idx)) == clean, idx
    for j in (0, 57, T - 1):
        rep = verify_eq_1_2(T, delta3=mutate(delta3, 7 * j + 5))
        assert not rep.passed and rep.first_failure == j
    for idx in (82, 343 + 229, 2 * 343 + 278, 3 * 343 + 327):
        rep = verify_theorem_1_1(n_max, delta3=mutate(delta3, idx))
        assert not rep.passed and rep.first_failure == idx
    # class 5, but outside 343n + {82, 229, 278, 327}: thm-1.1 still holds
    assert verify_theorem_1_1(n_max, delta3=mutate(delta3, 7 * 20 + 5)).passed


def test_delta5_claims_read_only_the_class_6_mod_11():
    # one full delta_5 serves eq-1.4 (n < 80) and the remark at p = 5 (n < 30)
    T, p, T_remark = 80, 5, 30
    delta5 = delta_series(5, (11 * (T_remark - 1) + 6) * p - 1, modulus=11)
    c = c_series(T)

    def reports(d):
        return [
            verify_eq_1_4(T, c_exact=c, delta5=d).to_dict(),
            verify_remark(p, T_remark, delta5=d).to_dict(),
        ]

    clean = reports(delta5)
    assert all(r["pass"] for r in clean)
    for idx in (0, 5, 7, 11 * 40 + 2, 11 * (T - 1) + 7, len(delta5.coeffs) - 2):
        assert idx % 11 != 6
        assert reports(mutate(delta5, idx)) == clean, idx
    for j in (0, 33, T - 1):
        rep = verify_eq_1_4(T, c_exact=c, delta5=mutate(delta5, 11 * j + 6))
        assert not rep.passed and rep.first_failure == j


def test_injected_delta_length_is_checked_on_the_full_series():
    # the messages name the full series and the length it needs
    with pytest.raises(ValueError, match="delta_3 series has 500 coefficients, need 699"):
        verify_eq_1_2(100, delta3=delta_series(3, 500, 7))
    with pytest.raises(ValueError, match="has 1356 coefficients, need 1357"):
        verify_theorem_1_1(4, delta3=delta_series(3, 1356, 7))
    with pytest.raises(ValueError, match="delta_5 series has 100 coefficients, need 876"):
        verify_eq_1_4(80, delta5=delta_series(5, 100, 11))


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
