import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate, series_over
from oracles import naive_eta_level, naive_first_mismatch, over_quad, verify_eigenform
from qcong.cli import main
from qcong.eta import EtaQuotient
from qcong.qseries import QSeries
from qcong.ring import QUAD, ZZ, ModRing, QuadInt
from qcong.sturm import (
    ClaimReport,
    SpaceTag,
    _compare,
    eta_quotient_metadata,
    index_gamma0,
    sturm_bound,
)

M7 = ModRing(7)
F_SPACE = SpaceTag(9, 16, -4)
LEVEL_1 = SpaceTag(12, 1)


def vanishing(f: QSeries, k: int, N: int, claim: str = "vanishing") -> ClaimReport:
    """f == 0 through the Sturm bound of weight k and level N, by _compare."""
    bound = sturm_bound(k, N)
    zero = QSeries(f.ring, 0, [f.ring.zero] * (bound + 1))
    return _compare(claim, f, zero, bound, SpaceTag(k, N))


def test_index_gamma0_values():
    assert index_gamma0(1) == 1
    assert index_gamma0(16) == 24
    assert index_gamma0(72) == 144
    assert index_gamma0(24696) == 56448


def test_sturm_bound_values():
    assert sturm_bound(5, 24696) == 23520
    assert sturm_bound(9, 16) == 18
    assert sturm_bound(5, 72) == 60


def test_space_sturm_bound_and_levels():
    chain = eta_quotient_metadata(EtaQuotient.parse("3^4 6^6"))
    assert chain == SpaceTag(5, 72, -4) and chain.sturm_bound == 60
    assert chain.u(7).twist(7) == SpaceTag(5, 24696, -4)
    assert chain.u(7).twist(7).sturm_bound == 23520
    assert F_SPACE.sturm_bound == 18


# quotients with every d | 48, exponents in [-6, 6] and an even,
# nonnegative exponent sum: weights 0 and up, levels up to 48 * 24
eta_quotients = st.dictionaries(
    st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24, 48]),
    st.integers(-6, 6).filter(bool),
    min_size=1,
    max_size=5,
).filter(lambda e: sum(e.values()) >= 0 and sum(e.values()) % 2 == 0)


@given(eta_quotients)
@settings(max_examples=200, deadline=None)
def test_eta_level_is_the_least_valid_multiple(exps):
    e = EtaQuotient(tuple(exps.items()))
    space = eta_quotient_metadata(e)
    assert space.weight == sum(exps.values()) // 2
    assert space.level == naive_eta_level(e.factors), str(e)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["metadata", str(e)]) == 0
    assert json.loads(out.getvalue())["sum_inv_divisible"] is True, str(e)


def test_sturm_bound_rejects_bad_weight():
    with pytest.raises(ValueError):
        sturm_bound(0, 7)


def test_verify_vanishing_zero_series_passes():
    z = QSeries(M7, 0, [0] * 70)
    rep = vanishing(z, 5, 72, claim="zero")
    assert rep.passed and rep.bound == 60 and rep.first_failure is None
    assert rep.modulus == 7
    assert (rep.weight, rep.level) == (5, 72)


def test_verify_vanishing_reports_first_failure():
    coeffs = [0] * 70
    coeffs[1] = 1
    rep = vanishing(QSeries(M7, 0, coeffs), 5, 72)
    assert not rep.passed and rep.first_failure == 1


def test_verify_vanishing_insufficient_truncation_is_error():
    with pytest.raises(ValueError, match="cannot truncate"):
        vanishing(QSeries(M7, 0, [0] * 60), 5, 72)  # need 61


def test_verify_vanishing_exact_integer_series():
    rep = vanishing(QSeries(ZZ, 0, [0] * 3), 1, 16)  # bound 2
    assert rep.passed and rep.modulus is None


def test_compare_rejects_a_ring_mismatch():
    a = QSeries(M7, 0, [1, 0, 3])
    b = QSeries(ZZ, 0, [1, 0, 3])
    with pytest.raises(ValueError, match="ring mismatch"):
        _compare("x", a, b, 2, None)
    with pytest.raises(ValueError, match="ring mismatch"):
        _compare("x", a, QSeries(ModRing(11), 0, [1, 0, 3]), 2, None)


def test_compare_rejects_a_nonzero_offset():
    a = QSeries(ZZ, 0, [1, 0, 3])
    shifted = QSeries(ZZ, 24, [1, 0, 3])  # the same coefficients from q^1
    with pytest.raises(ValueError, match="offset 0"):
        _compare("x", a, shifted, 2, None)
    with pytest.raises(ValueError, match="offset 0"):
        _compare("x", shifted, shifted, 2, None)


def test_compare_either_series_short_of_the_bound_is_error():
    full, cut = QSeries(ZZ, 0, [0] * 5), QSeries(ZZ, 0, [0] * 4)
    for a, b in ((cut, full), (full, cut)):
        with pytest.raises(ValueError, match="cannot truncate"):
            _compare("x", a, b, 4, None)
        assert _compare("x", a, b, 3, None).passed


@pytest.mark.parametrize(
    "ring, one, modulus",
    [(M7, 1, 7), (ZZ, 1, None), (QUAD, QuadInt(1, 0), None)],
)
def test_compare_reads_the_modulus_from_the_ring(ring, one, modulus):
    s = QSeries(ring, 0, [one, ring.zero, one])
    rep = _compare("x", s, s, 2, F_SPACE)
    assert rep.passed and rep.modulus == modulus
    assert (rep.weight, rep.level, rep.bound, rep.checked) == (9, 16, 2, 2)


def test_compare_records_the_first_failing_exponent():
    a = QSeries(ZZ, 0, [1, 2, 3, 4, 5, 6])
    b = QSeries(ZZ, 0, [1, 2, 0, 4, 0, 6])
    rep = _compare("x", a, b, 5, None)
    assert not rep.passed and rep.first_failure == 2
    assert (rep.weight, rep.level, rep.modulus) == (None, None, None)
    # mod 3 the two differ first at exponent 4
    rep = _compare("x", a.reduce_mod(3), b.reduce_mod(3), 5, None)
    assert not rep.passed and rep.first_failure == 4 and rep.modulus == 3


# the rings of the list-wise checks: Z, a small modulus, a modulus far above
# any length (so no table of its residues can be built), and Z[sqrt(-3)]
LIST_RINGS = (ZZ, M7, ModRing(10**30), QUAD)


@given(st.data())
@settings(max_examples=80)
def test_compare_finds_the_first_mismatch_of_the_per_coefficient_scan(data):
    # a mismatch at 0, at the bound, none, or anywhere (past the bound too),
    # with more mismatches after it
    ring = data.draw(st.sampled_from(LIST_RINGS), label="ring")
    a = data.draw(series_over(ring, min_T=1, max_T=40, offsets=st.just(0)))
    bound = data.draw(st.integers(0, a.T - 1), label="bound")
    first = data.draw(st.sampled_from(("none", "zero", "bound", "any")), label="first")
    at = {"none": set(), "zero": {0}, "bound": {bound}}.get(first)
    if at is None:
        at = data.draw(st.sets(st.integers(0, a.T - 1), min_size=1), label="at")
    elif at:
        at |= data.draw(st.sets(st.integers(min(at), a.T - 1)), label="after")
    b = a
    for n in at:
        b = mutate(b, n)
    rep = _compare("x", a, b, bound, None)
    want = naive_first_mismatch(a.coeffs, b.coeffs, bound)
    assert want == (min(at) if at and min(at) <= bound else None)
    assert rep.first_failure == want and rep.passed == (want is None)
    assert rep.checked == bound


def test_report_json_key_order():
    rep = ClaimReport("x", 5, 72, 7, 60, 60, True, None)
    keys = list(json.loads(rep.to_json()).keys())
    assert keys == [
        "claim", "weight", "level", "modulus", "bound", "checked", "pass",
        "first_failure",
    ]
    assert json.loads(ClaimReport("x", 5, 72, None, 1, 1, True, None).to_json())[
        "modulus"
    ] == "exact"


def test_verify_eigenform_on_real_form():
    from qcong.forms import form_g

    g = form_g(100)  # bound 18 for (9,16) needs T >= 5*19 = 95
    lam, rep = verify_eigenform(g, 5, F_SPACE, claim="g-T5")
    assert rep.passed and lam == 258
    assert rep.bound == 18 and rep.checked == 18


def test_verify_eigenform_insufficient_truncation():
    from qcong.forms import form_g

    with pytest.raises(ValueError, match="insufficient truncation"):
        verify_eigenform(form_g(90), 5, F_SPACE)


def test_verify_eigenform_non_proportional_reports_exponent():
    # weight 12, level 1: bound 1, so coefficients 0 and 1 must both match
    f = QSeries(ZZ, 0, [1, 1] + [3] * 61)
    lam, rep = verify_eigenform(f, 3, LEVEL_1, claim="bad")
    assert not rep.passed
    assert lam is None
    assert rep.first_failure is not None


def test_verify_eigenform_rejects_non_unit_leading():
    f = QSeries(ZZ, 0, [2] * 40)
    with pytest.raises(ValueError, match="not a unit"):
        verify_eigenform(f, 2, LEVEL_1)


def test_verify_eigenform_conjugate_eigenvalue():
    from qcong.forms import form_f1, form_f2

    f = over_quad(form_f1(140), form_f2(140))
    lam, rep = verify_eigenform(f, 7, F_SPACE)
    fbar = QSeries(QUAD, 0, [c.conj() for c in f.coeffs])
    lam_bar, rep_bar = verify_eigenform(fbar, 7, F_SPACE)
    assert rep.passed and rep_bar.passed
    assert lam_bar == lam.conj()
    assert lam == QuadInt(0, 8 * 238)


def test_vanishing_pass_is_monotone_in_bound():
    # a pass at (5, 72) (bound 60) implies a pass at any smaller bound
    z = QSeries(M7, 0, [0] * 70)
    assert vanishing(z, 5, 72).passed
    assert vanishing(z, 5, 16).passed  # bound 10
    assert vanishing(z, 1, 72).passed  # bound 12


def test_g_and_f_share_eigenvalues_at_primes_1_mod_4():
    from qcong.forms import form_f1, form_f2, form_g
    from qcong.ring import primes_up_to

    T = 2000
    g = form_g(T)
    f = over_quad(form_f1(T), form_f2(T))
    for p in primes_up_to(97):
        if p % 4 != 1:
            continue
        lam_g, rep_g = verify_eigenform(g, p, F_SPACE)
        lam_f, rep_f = verify_eigenform(f, p, F_SPACE)
        assert rep_g.passed and rep_f.passed, p
        assert lam_f == QuadInt(lam_g, 0), p
