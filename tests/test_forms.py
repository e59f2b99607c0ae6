import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_eta_product, naive_sigma
from qcong.eta import EtaQuotient, dilated, eta_quotient_series
from qcong.forms import (
    _quotient_form,
    _sigma_coeffs,
    _theta_bracket,
    _theta_minus_q_4,
    cm_coefficient,
    eisenstein_int,
    form_F,
    form_f,
    form_f1,
    form_f2,
    form_g,
    form_h,
    resolve_form,
    sigma,
    theta0,
    two_squares,
)
from qcong.qseries import QSeries
from qcong.ring import QuadInt, primes_up_to


def test_sigma_examples_and_oracle():
    assert sigma(1, 1) == 1
    assert sigma(3, 2) == 9
    assert sigma(1, 9) == 13
    for n in range(1, 200):
        assert sigma(3, n) == naive_sigma(3, n)
    with pytest.raises(ValueError):
        sigma(1, 0)


@pytest.mark.parametrize("k", [1, 3])
def test_sigma_sieve_matches_sigma(k):
    # every short length, and the pinned range n < 2000
    for T in [*range(1, 41), 2000]:
        assert _sigma_coeffs(k, T) == [0] + [sigma(k, n) for n in range(1, T)], T


def test_eisenstein_e4():
    as_int = eisenstein_int(4, 4)
    assert as_int.coeffs == [1, 240, 2160, 6720]
    dil = as_int.dilate(2)
    assert dil.coeffs[:3] == [1, 0, 240]


def test_eisenstein_rejects_bad_weight():
    for k in (2, 3, 5):
        with pytest.raises(ValueError, match="even k >= 4"):
            eisenstein_int(k, 4)


def test_theta0():
    assert theta0(11).coeffs == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert theta0(11).coeff(2) == 0
    t2 = theta0(5).dilate(2)
    assert t2.coeffs[:9] == [1, 0, 2, 0, 0, 0, 0, 0, 2]


def test_form_F_is_odd_sigma_series():
    F = form_F(64)
    for n in range(64):
        want = naive_sigma(1, n) if n % 2 == 1 else 0
        assert F.coeffs[n] == want, n
    assert F.coeffs[:10] == [0, 1, 0, 4, 0, 6, 0, 8, 0, 13]


@pytest.mark.parametrize("T", [1, 2, 3, 17, 2000])
def test_form_F_equals_its_eta_quotient(T):
    # Legendre: eta(4z)^8 / eta(2z)^4 = q psi(q^2)^4 = sum sigma_1(2n+1) q^(2n+1)
    assert form_F(T) == _quotient_form(((2, -4), (4, 8)), T)


@given(st.integers(1, 400))
@settings(max_examples=40, deadline=None)
@example(1)
@example(4)
@example(5)
@example(16992)
def test_theta_minus_q_fourth_from_divisor_sums_equals_its_eta_quotient(T):
    # Jacobi: theta(-q)^4 = eta(z)^8 / eta(2z)^4 = 1 + sum (-1)^n r_4(n) q^n,
    # r_4(n) = 8 sigma(n) - 32 sigma(n/4); 16,992 terms is the c a full
    # suite reads
    want = eta_quotient_series(EtaQuotient(((1, 8), (2, -4))), T).coeffs
    assert _theta_minus_q_4(T) == want


def test_form_h_leading_values():
    h = form_h(18)
    assert h.coeffs[1] == 1 and h.coeffs[5] == -6 and h.coeffs[9] == 9
    assert h.coeffs[2] == 0
    assert h.coeffs[13] == 10  # 2*3^2 - 2*2^2 for 13 = 9 + 4


def test_two_squares_and_cm_examples():
    ts = two_squares(5)
    assert (ts.x, ts.y) == (1, 2)
    assert cm_coefficient(5) == -6
    assert cm_coefficient(3) == 0
    assert cm_coefficient(2) == 0
    assert cm_coefficient(13) == 10
    with pytest.raises(ValueError):
        cm_coefficient(15)
    with pytest.raises(ValueError):
        two_squares(7)


def test_cm_formula_matches_expansion_small():
    h = form_h(1000)
    for p in primes_up_to(999):
        assert h.coeffs[p] == cm_coefficient(p), p


def test_f1_leading_and_support():
    f1 = form_f1(40)
    assert f1.coeffs[1] == 1  # bracket constant term 4 - 1 + 4 - 6 = 1
    assert f1.coeffs[2] == 0
    assert f1.coeffs[5] == 258
    assert all(f1.coeffs[n] == 0 for n in range(0, 40, 2))


def test_f2_leading_support_and_238():
    f2 = form_f2(40)
    assert f2.coeffs[3] == 1
    assert f2.coeffs[7] == 238
    assert all(f2.coeffs[n] == 0 for n in range(40) if n % 4 != 3)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 6, 7, 8, 17, 251, 2000])
def test_f1_is_the_full_length_theta_bracket_formula(T):
    # the formula with its bracket built at full length from t2 = theta0(2z)
    # and t4 = theta0(4z), then multiplied by F and E4(4z)
    t2 = dilated(theta0, T, 2)
    t4 = dilated(theta0, T, 4)
    bracket = (
        t4.pow(6).scale(4)
        .sub(t2.pow(6))
        .add(t2.pow(4).mul(t4.pow(2)).scale(4))
        .sub(t2.pow(2).mul(t4.pow(4)).scale(6))
    )
    e4_4z = dilated(lambda n: eisenstein_int(4, n), T, 4)
    assert form_f1(T) == e4_4z.mul(form_F(T).mul(bracket))


@pytest.mark.parametrize("T", [1, 2, 17, 1000])
def test_theta_bracket_takes_five_products(T, monkeypatch):
    # (2v - u)((u - v)^2 + v^2): u, v, (u - v)^2, v^2 and the outer product
    calls = []
    mul = QSeries.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "mul", counted)
    bracket = _theta_bracket(T)
    assert len(calls) == 5 and bracket.T == T


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 6, 7, 8, 17, 251, 2000])
def test_f2_is_e4_of_4z_times_F_of_2z_times_h(T):
    # eta(4z)^2 eta(8z)^8 = F(2z) h(z), as eta(8z)^8 eta(4z)^-4 eta(4z)^6
    e4_4z = dilated(lambda n: eisenstein_int(4, n), T, 4)
    assert form_f2(T) == e4_4z.mul(dilated(form_F, T, 2)).mul(form_h(T))


@pytest.mark.parametrize("T", [1, 3, 4, 5, 12, 40, 97])
def test_f2_matches_the_naive_eta_product(T):
    # q^3 prod (1 - q^(4n))^2 (1 - q^(8n))^8 times E4(4z), term by term
    eta = [0] * T
    eta[3:] = naive_eta_product(((4, 2), (8, 8)), T)[: max(T - 3, 0)]
    e4_4z = [1] + [240 * naive_sigma(3, n // 4) if n % 4 == 0 else 0 for n in range(1, T)]
    want = [sum(eta[i] * e4_4z[n - i] for i in range(n + 1)) for n in range(T)]
    assert form_f2(T).coeffs == want


def test_f2_vanishes_at_primes_1_mod_4():
    f2 = form_f2(10000)
    for p in primes_up_to(9999):
        if p % 4 == 1:
            assert f2.coeffs[p] == 0, p


def test_form_f_quad_coefficients():
    f = form_f(8)
    assert f.coeffs[1] == QuadInt(1, 0)
    assert f.coeffs[3] == QuadInt(0, 8)
    assert [c.conj() for c in f.coeffs][3] == QuadInt(0, -8)


def test_form_g_values_and_even_vanishing():
    g = form_g(30)
    assert g.coeffs[1] == 1 and g.coeffs[3] == -8 and g.coeffs[5] == 258
    assert all(g.coeffs[n] == 0 for n in range(0, 30, 2))


def test_g_odd_part_is_c_series():
    from qcong.diamond import c_series

    g = form_g(101)
    c = c_series(50)
    assert g.extract_progression(2, 1).coeffs == c.coeffs


def test_registry_rejects_mod_for_f_before_building(monkeypatch):
    import qcong.forms

    def no_build(T):
        raise AssertionError("form f was built before --mod was checked")

    monkeypatch.setattr(qcong.forms, "form_f1", no_build)
    with pytest.raises(ValueError, match="no --mod"):
        resolve_form("f", 20000, 7)


def test_registry_resolves_all_names():
    assert resolve_form("h", 10).coeffs == form_h(10).coeffs
    assert resolve_form("E4", 3).coeffs == [1, 240, 2160]
    assert resolve_form("delta_k:3", 6).coeffs == [1, 3, 8, 19, 41, 83]
    assert resolve_form("c", 3).coeffs == [1, -8, 258]
    assert resolve_form("g", 6, modulus=7).coeffs == [0, 1, 0, 6, 0, 6]
    with pytest.raises(ValueError, match="unknown form"):
        resolve_form("nope", 5)
    with pytest.raises(ValueError):
        resolve_form("f", 5, modulus=7)
