import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_hecke, naive_twist
from qcong.operators import (
    apply_operator,
    hecke,
    parse_operator,
    twist,
    u_operator,
)
from qcong.qseries import QSeries
from qcong.ring import QUAD, ZZ, ModRing, QuadInt, kronecker
from qcong.sturm import SpaceTag

from conftest import series_over


def S(coeffs, ring=ZZ):
    return QSeries.from_ints(ring, coeffs)


def test_u_operator_examples():
    f = S([0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 3])
    assert u_operator(f, 1) == f
    assert u_operator(f, 7).coeffs == [0, 2, 3]


def test_u_operator_rejects_fractional_offset():
    with pytest.raises(ValueError, match="offset 0"):
        u_operator(QSeries.from_ints(ZZ, [1], offset24=1), 2)


@given(series_over(ZZ, max_T=25, offsets=st.just(0)), st.integers(1, 3), st.integers(1, 3))
def test_u_operator_composes_multiplicatively(f, d1, d2):
    assert u_operator(f, d1 * d2) == u_operator(u_operator(f, d1), d2)


def test_twist_by_7_signs():
    ones = S([1] * 15)
    out = twist(ones, 7)
    assert out.coeffs == [
        0, 1, 1, -1, 1, -1, -1, 0, 1, 1, -1, 1, -1, -1, 0,
    ]
    assert all(out.coeffs[7 * k] == 0 for k in range(3))


def test_twist_twice_kills_p_divisible_indices():
    f = S(list(range(1, 22)))
    tt = twist(twist(f, 3), 3)
    for n in range(tt.T):
        assert tt.coeffs[n] == (0 if n % 3 == 0 else f.coeffs[n])


def test_twist_rejects_bad_p():
    with pytest.raises(ValueError):
        twist(S([1, 2]), 2)
    with pytest.raises(ValueError):
        twist(S([1, 2]), 9)
    for p in (1, 2, 9, 15, 49):
        with pytest.raises(ValueError, match="odd prime"):
            twist(S(list(range(60))), p)


@pytest.mark.parametrize("ring", [ModRing(7), QUAD, ZZ], ids=lambda r: r.tag)
@pytest.mark.parametrize("p", [3, 7, 11, 13])
def test_twist_matches_a_per_coefficient_kronecker_oracle(ring, p):
    # three periods and a part of a fourth, so every residue class, n = 0
    # mod p included, recurs; the oracle asks `kronecker` at each n
    T = 3 * p + p // 2 + 1
    if ring == QUAD:
        f = QSeries(ring, 0, [QuadInt(n + 1, 2 - 3 * n) for n in range(T)])
    else:
        f = QSeries.from_ints(ring, [(-1) ** n * (n + 2) for n in range(T)])
    want = []
    for n, c in enumerate(f.coeffs):
        s = kronecker(n, p)
        want.append(c if s == 1 else ring.neg(c) if s == -1 else ring.zero)
    out = twist(f, p)
    assert out.ring == ring and out.offset24 == 0
    assert out.coeffs == want
    assert all(out.coeffs[n] == ring.zero for n in range(0, T, p))


# the rings of the list-wise operators: Z, a small modulus, a modulus far
# above any length (so no table of its residues can be built), and
# Z[sqrt(-3)]
LIST_RINGS = (ZZ, ModRing(7), ModRing(10**30), QUAD)


def _modulus(ring):
    return ring.modulus if isinstance(ring, ModRing) else None


@given(st.data())
@settings(max_examples=80)
def test_twist_matches_the_per_coefficient_oracle(data):
    ring = data.draw(st.sampled_from(LIST_RINGS))
    p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
    f = data.draw(series_over(ring, min_T=1, max_T=60, offsets=st.just(0)))
    out = twist(f, p)
    assert out.ring == ring and out.offset24 == 0 and out.T == f.T
    assert out.coeffs == naive_twist(f.coeffs, p, _modulus(ring))


def test_hecke_zero_series():
    z = S([0] * 20)
    assert hecke(z, 5, 9, -4).coeffs == [0, 0, 0, 0]


def test_hecke_single_term_through_t5():
    # q^5 through T_{5,9,chi} with chi(5)=1: contributions at n=1 (a(5))
    # and n=25 (chi(5) 5^8 a(5)); frozen from the displayed formula
    coeffs = [0] * 130
    coeffs[5] = 1
    out = hecke(S(coeffs), 5, 9, -4)
    assert out.T == 26
    want = [0] * 26
    want[1] = 1
    want[25] = 5**8
    assert out.coeffs == want


def test_hecke_truncation_rule():
    assert hecke(S([0] * 11), 5, 9, -4).T == 3  # floor(10/5)+1


@given(st.data())
@settings(max_examples=40)
def test_hecke_matches_naive_formula(data):
    ring = data.draw(st.sampled_from((ZZ, ModRing(7), ModRing(10**30))))
    f = data.draw(series_over(ring, min_T=1, max_T=60, offsets=st.just(0)))
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    k = data.draw(st.integers(1, 6))
    chi = data.draw(st.sampled_from((-4, 1, -3)))
    out = hecke(f, p, k, chi)
    lifted = [c if isinstance(c, int) else c for c in f.coeffs]
    want = naive_hecke(lifted, p, k, kronecker(chi, p))
    if isinstance(ring, ModRing):
        want = [w % ring.modulus for w in want]
    assert out.coeffs == want


@given(
    series_over(ZZ, max_T=30, offsets=st.just(0)),
    series_over(ZZ, max_T=30, offsets=st.just(0)),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
@settings(max_examples=30)
def test_hecke_is_linear(f, g, a, b):
    T = min(f.T, g.T)
    f, g = f.truncate(T), g.truncate(T)
    combo = f.scale(a).add(g.scale(b))
    lhs = hecke(combo, 3, 4, -4)
    rhs = hecke(f, 3, 4, -4).scale(a).add(hecke(g, 3, 4, -4).scale(b))
    assert lhs == rhs


def test_hecke_over_quad_ring():
    f = QSeries(QUAD, 0, [QuadInt(0, 0), QuadInt(1, 2)] + [QuadInt(0, 0)] * 10)
    out = hecke(f, 3, 2, -4)
    # n=1: a(3) = 0; n must reach 3 for the p^{k-1} a(1) term
    assert out.coeffs[3] == QuadInt(1, 2) * QuadInt(kronecker(-4, 3) * 3, 0)


def test_operator_level_bookkeeping():
    # the spaces of the U_7 image and of its twist by 7
    tag = SpaceTag(5, 72, -4)
    assert tag.u(7) == SpaceTag(5, 504, -4)
    assert SpaceTag(5, 504, -4).twist(7) == SpaceTag(5, 24696, -4)
    with pytest.raises(ValueError, match="expected"):
        parse_operator("V_3")


def test_apply_operator_pipeline():
    f = S(list(range(30)))
    assert apply_operator(f, "U_3") == u_operator(f, 3)
    assert apply_operator(f, "twist_3") == twist(f, 3)
    assert apply_operator(f, "T_3", weight=4, chi_disc=-4) == hecke(f, 3, 4, -4)
    with pytest.raises(ValueError, match="needs --weight"):
        apply_operator(f, "T_3")


def test_twist_subtract_kills_nonzero_squares():
    from qcong.forms import form_g

    g = form_g(60).reduce_mod(7)
    diff = g.sub(twist(g, 7))
    squares = {pow(x, 2, 7) for x in range(1, 7)}
    for n in range(60):
        if n % 7 in squares:
            assert diff.coeffs[n] == 0, n


def test_g_is_t5_eigenform_directly():
    from qcong.forms import form_g

    g = form_g(120)
    out = hecke(g, 5, 9, -4)
    want = g.scale(258)
    assert out.coeffs == want.coeffs[: out.T]
