import math
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcong.eta
import qcong.qseries
from oracles import naive_delta, naive_eta_product, naive_euler_product
from qcong.diamond import c_series, delta_series, eq_1_2_lhs
from qcong.eta import (
    EtaQuotient,
    _euler_terms,
    _frobenius_reduced,
    _index_formulas,
    _inner_T,
    _jacobi_cube_terms,
    _quotient_series,
    _series,
    _series_terms,
    _theta_terms,
    dilated,
    eta_quotient_progression,
    eta_quotient_series,
    eta_series,
    times_dilated,
)
from qcong.qseries import QSeries
from qcong.ring import ZZ, ModRing, is_prime
from qcong.sturm import SpaceTag, eta_quotient_metadata


def test_eta_series_frozen_values_and_offset():
    e = eta_series(13)
    assert e.offset == Fraction(1, 24)
    assert e.coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert e.coeffs[5] == 1  # pentagonal exponent j=2


def test_eta_series_matches_naive_product_oracle():
    T = 2000
    assert eta_series(T).coeffs == naive_euler_product(T)


def test_parse_and_str():
    e = EtaQuotient.parse("3^4 6^6")
    assert e.factors == ((3, 4), (6, 6))
    assert str(EtaQuotient.parse("4^8 2^-4")) == "2^-4 4^8"


def test_parse_rejects_repeats_and_garbage():
    with pytest.raises(ValueError, match="repeated"):
        EtaQuotient.parse("3^4 3^2")
    with pytest.raises(ValueError, match="position"):
        EtaQuotient.parse("3^4 6*6")
    with pytest.raises(ValueError):
        EtaQuotient.parse("")
    with pytest.raises(ValueError):
        EtaQuotient(((4, 0),))


def test_quotient_series_h_values():
    h = eta_quotient_series(EtaQuotient.parse("4^6"), 10)
    assert h.offset24 == 24
    assert h.coeffs == [1, 0, 0, 0, -6, 0, 0, 0, 9, 0]  # q - 6q^5 + 9q^9


def test_quotient_series_lowest_exponent_is_sum_dr_24ths():
    for text in ("3^4 6^6", "4^8 2^-4", "1^-3 2^1 7^1 14^-1"):
        e = EtaQuotient.parse(text)
        s = eta_quotient_series(e, 5)
        assert s.offset24 == sum(d * r for d, r in e.factors)
        assert s.coeffs[0] == 1


def test_quotient_series_delta3_case_constant_term():
    # eta(2z) eta(7z) / (eta(z)^3 eta(14z)): offset -(3+1)/12 = -8/24
    e = EtaQuotient(((1, -3), (2, 1), (7, 1), (14, -1)))
    s = eta_quotient_series(e, 6)
    assert s.offset == Fraction(-1, 3)
    assert s.coeffs[0] == 1


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_quotient_series_multiplicative(data):
    ds = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))
    rs = data.draw(st.lists(st.integers(-2, 3).filter(bool), min_size=len(ds), max_size=len(ds)))
    ds2 = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))
    rs2 = data.draw(st.lists(st.integers(-2, 3).filter(bool), min_size=len(ds2), max_size=len(ds2)))
    e1 = EtaQuotient(tuple(zip(ds, rs)))
    e2 = EtaQuotient(tuple(zip(ds2, rs2)))
    try:
        prod = e1 * e2
    except ValueError:
        return  # exponents cancelled entirely
    T = 12
    lhs = eta_quotient_series(prod, T)
    rhs = eta_quotient_series(e1, T).mul(eta_quotient_series(e2, T))
    assert lhs == rhs


def test_quotient_series_mod_matches_integer_reduction():
    e = EtaQuotient.parse("3^4 6^6")
    T = 120
    exact = eta_quotient_series(e, T).reduce_mod(7)
    direct = eta_quotient_series(e, T, modulus=7)
    assert exact == direct


def test_metadata_three_paper_quotients():
    cases = {
        "3^4 6^6": (5, 72, -4),
        "4^6": (3, 16, -4),
        "4^8 2^-4": (2, 4, 1),
    }
    for text, (k, N, chi) in cases.items():
        m = eta_quotient_metadata(EtaQuotient.parse(text))
        assert (m.weight, m.level, m.character) == (k, N, chi), text


def test_metadata_rejects_odd_weight():
    with pytest.raises(ValueError, match="half-integer"):
        eta_quotient_metadata(EtaQuotient.parse("1^3"))


def test_metadata_flags_non_divisible_quotient():
    # 24 does not divide sum(d r) = 2, yet the quotient still has a space;
    # the flag itself is pinned through `qcong metadata` in test_cli
    e = EtaQuotient.parse("1^2")
    assert e.offset24 % 24 != 0
    assert eta_quotient_metadata(e) == SpaceTag(1, 12, -4)


def test_euler_product_step():
    # eta(2z) = q^(2/24) prod(1 - q^(2n))
    p2 = eta_quotient_series(EtaQuotient(((2, 1),)), 9)
    assert p2.offset24 == 2
    assert p2.coeffs == [1, 0, -1, 0, -1, 0, 0, 0, 0]


def test_dilated_builds_at_inner_length():
    asked = []

    def build(n):
        asked.append(n)
        return eta_series(n)

    s = dilated(build, 9, 2)
    assert asked == [5]  # exponents 0, 2, ..., 8 of eta(2z)
    assert s.offset24 == 2 and s.T == 9
    assert s.coeffs == [1, 0, -1, 0, -1, 0, 0, 0, 0]
    assert dilated(build, 1, 14).coeffs == [1]
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        dilated(build, 0, 2)
    assert asked == [5, 1]


@st.composite
def dilated_products(draw):
    # (x, f's coefficients, f's offset24, g): x dense, lacunary or zero, with
    # T from 1 (below every g > 1) to 60, and f long enough for any build
    ring = draw(st.sampled_from([ZZ, ModRing(7)]))
    g = draw(st.sampled_from([1, 2, 3, 4, 7]))
    T = draw(st.integers(1, 60))
    value = st.integers(-10**6, 10**6).map(ring.from_int)
    kind = draw(st.sampled_from(["dense", "lacunary", "zero"]))
    x = [draw(value) for _ in range(T)] if kind == "dense" else [ring.zero] * T
    if kind == "lacunary":
        for e in draw(st.lists(st.integers(0, T - 1), max_size=4, unique=True)):
            x[e] = draw(value)
    x_off = draw(st.integers(-48, 48))
    f = [draw(value) for _ in range(_inner_T(T, g))]
    return QSeries(ring, x_off, x), f, draw(st.integers(-48, 48)), g


@given(dilated_products())
@settings(max_examples=120, deadline=None)
@example((QSeries(ZZ, 0, [1, 2, 3]), [5, 6], 0, 7))
@example((QSeries(ModRing(7), 5, [0] * 9), [1, 2, 3], -2, 4))
def test_times_dilated_matches_the_dilated_product(case):
    x, f, f_off, g = case
    asked = []

    def build(n):
        asked.append(n)
        return QSeries(x.ring, f_off, f[:n])

    got = times_dilated(x, build, g)
    assert asked == [_inner_T(x.T, g)]
    assert got == x.mul(dilated(lambda n: QSeries(x.ring, f_off, f[:n]), x.T, g))
    with pytest.raises(ValueError, match="ring mismatch"):
        times_dilated(x, lambda n: QSeries(ModRing(11), 0, [1] * n), g)


@st.composite
def eta_products(draw):
    # multiples of a drawn g, so that a common gcd > 1 is drawn often
    g = draw(st.integers(1, 7))
    ds = draw(st.lists(st.integers(1, 14 // g), min_size=1, max_size=4, unique=True))
    rs = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(ds), max_size=len(ds)))
    return tuple((g * d, r) for d, r in zip(ds, rs))


@given(eta_products(), st.integers(1, 200), st.sampled_from([None, 2, 3, 5, 7, 11]))
@settings(max_examples=60, deadline=None)
@example(((3, 4), (6, 6)), 200, 7)
@example(((2, -3), (4, 2), (10, 4)), 197, None)
@example(((1, -3), (2, 1), (7, 1), (14, -1)), 200, 11)
@example(((4, -2),), 1, 2)
# the head times the rest R(z^g), one residue class mod g at a time: T < g,
# so some classes are empty; T not a multiple of g; the delta_3 and delta_5
# quotients as reduced mod 7 and mod 11; and a rest whose gcd is 49
@example(((1, 1), (14, 2)), 5, None)
@example(((1, 1), (14, 2)), 5, 7)
@example(((1, 2), (3, -1), (6, 2)), 200, None)
@example(((1, -1), (7, 3)), 201, 5)
@example(((1, 4), (2, 1), (14, 6), (98, -1)), 200, 7)
@example(((1, 8), (2, 1), (22, 10), (242, -1)), 200, 11)
@example(((1, 2), (49, 1), (98, -2)), 200, None)
def test_quotient_series_matches_naive_product(factors, T, m):
    s = eta_quotient_series(EtaQuotient(factors), T, m)
    want = naive_eta_product(factors, T)
    if m is not None:
        want = [x % m for x in want]
    assert s.offset24 == sum(d * r for d, r in factors)
    assert s.coeffs == want


_POWERS = [s * k for k in range(1, 13) for s in (1, -1)]
# a theta shape after a gcd (Section 2's eta(3z)^4 eta(6z)^6), inside a
# nested rest (eta(z) times theta(-q^2)^2 eta(4z) eta(28z) mod 7), and
# beside a negative rest, where the builder nests
_THETA_SHAPES = {
    "theta-after-a-gcd": ((3, 4), (6, 6)),
    "theta-inside-a-nested-rest": ((1, 1), (2, 4), (4, 6)),
    "theta-beside-a-negative-rest": ((1, 4), (2, -2), (7, -1)),
}


@pytest.mark.parametrize(
    "factors",
    [((1, r),) for r in _POWERS] + list(_THETA_SHAPES.values()),
    ids=[str(r) for r in _POWERS] + list(_THETA_SHAPES),
)
def test_eta_powers_match_the_naive_product(factors):
    # eta(z)^r for |r| up to 12, so every count of Jacobi cubes (0 to 4) and
    # Euler series (0 to 2) the one rule takes, one and two series through
    # the loop alone and more through convolve, and three quotients with a
    # theta shape; over Z and mod 2, 7, 11 and 131 (past the byte path),
    # from T = 1 up
    want = naive_eta_product(factors, 400)
    for m in (None, 2, 7, 11, 131):
        for T in (1, 2, 3, 60, 400):
            s = eta_quotient_series(EtaQuotient(factors), T, m)
            got = want[:T] if m is None else [x % m for x in want[:T]]
            assert s.offset24 == sum(d * r for d, r in factors) and s.coeffs == got, (m, T)


def test_one_series_is_not_reduced_again(monkeypatch):
    # eta(z) mod 7 is one Euler series, whose terms are already residues:
    # the one rule copies them and reduces nothing
    reduced, mul_each = [], ModRing.mul_each

    def counting_mul_each(self, c, xs):
        reduced.append(len(xs))
        return mul_each(self, c, xs)

    monkeypatch.setattr(ModRing, "mul_each", counting_mul_each)
    s = eta_quotient_series(EtaQuotient(((1, 1),)), 2000, 7)
    assert reduced == [] and s.coeffs == [x % 7 for x in eta_series(2000).coeffs]


def test_quotient_series_over_mod_ring_type():
    s = eta_quotient_series(EtaQuotient.parse("1^1"), 8, modulus=7)
    assert s.ring == ModRing(7)
    assert s.coeffs == [1, 6, 6, 0, 0, 1, 0, 1]


_DELTA3 = ((1, -3), (2, 1), (7, 1), (14, -1))
_DELTA5 = ((1, -3), (2, 1), (11, 1), (22, -1))
# exponents span [-2p, 2p] for the largest prime p dividing each modulus
_EXPONENT_SPAN = {2: 4, 3: 6, 5: 10, 7: 14, 11: 22, 4: 4, 9: 6, 12: 6, 49: 14}


@st.composite
def quotients_mod_m(draw):
    m = draw(st.sampled_from(sorted(_EXPONENT_SPAN)))
    span = _EXPONENT_SPAN[m]
    ds = draw(st.lists(st.integers(1, 14), min_size=1, max_size=4, unique=True))
    rs = draw(
        st.lists(st.integers(-span, span).filter(bool), min_size=len(ds), max_size=len(ds))
    )
    return tuple(zip(ds, rs)), m


@given(quotients_mod_m(), st.integers(1, 120))
@settings(max_examples=80, deadline=None)
@example((_DELTA3, 7), 120)
@example((_DELTA5, 11), 120)
@example((_DELTA3, 49), 120)
@example((_DELTA3, 12), 120)
@example((((1, -7), (7, 1)), 7), 30)
def test_quotient_series_mod_m_matches_reduced_product(quotient, T):
    # mod a prime the exponents are Frobenius-reduced first, which must not
    # change the value or the offset; mod 4, 9, 12, 49 the rewrite is false,
    # so the result must be the exact expansion reduced
    factors, m = quotient
    e = EtaQuotient(factors)
    s = eta_quotient_series(e, T, m)
    if is_prime(m):
        want = naive_eta_product(factors, T)
    else:
        want = eta_quotient_series(e, T).coeffs
    assert s.ring == ModRing(m) and s.T == T
    assert s.offset24 == e.offset24
    assert s.coeffs == [x % m for x in want]


def test_frobenius_reduction_of_the_delta_quotients():
    assert _frobenius_reduced(_DELTA3, 7) == ((1, 4), (2, 1), (14, 6), (98, -1))
    assert _frobenius_reduced(_DELTA5, 11) == ((1, 8), (2, 1), (22, 10), (242, -1))
    # eta(z)^-7 eta(7z) == 1 mod 7: every factor cancels
    assert _frobenius_reduced(((1, -7), (7, 1)), 7) == ()
    one = eta_quotient_series(EtaQuotient(((1, -7), (7, 1))), 5, 7)
    assert one.offset24 == 0 and one.coeffs == [1, 0, 0, 0, 0]
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        eta_quotient_series(EtaQuotient(((1, -7), (7, 1))), 0, 7)


def _counting_build(monkeypatch, N):
    # (outputs, full, packed, schoolbook, sums): every convolve's output
    # length, the operands of each convolve at output length N, the length
    # of every operand packed for the Kronecker product, every schoolbook's
    # output length, and each convolve_sum's output length with its pairs'
    # (len(a), len(b)).  eta calls `convolve` and `convolve_sum`
    # through its own bindings, QSeries.mul through the module's: all are
    # counted
    outputs, full, packed, schoolbook, sums = [], [], [], [], []
    convolve, convolve_sum = qcong.qseries.convolve, qcong.qseries.convolve_sum
    pack, sparse = qcong.qseries._pack, qcong.qseries._convolve_int_schoolbook

    def counting_convolve(ring, a, b, n_out):
        outputs.append(n_out)
        if n_out == N:
            full.append(sorted([a, b]))
        return convolve(ring, a, b, n_out)

    def counting_convolve_sum(ring, pairs, n_out):
        sums.append((n_out, [(len(a), len(b)) for a, b in pairs]))
        return convolve_sum(ring, pairs, n_out)

    def counting_pack(xs, *args):
        packed.append(len(xs))
        return pack(xs, *args)

    def counting_schoolbook(a, b, n_out):
        schoolbook.append(n_out)
        return sparse(a, b, n_out)

    monkeypatch.setattr(qcong.qseries, "convolve", counting_convolve)
    monkeypatch.setattr(qcong.eta, "convolve", counting_convolve)
    monkeypatch.setattr(qcong.eta, "convolve_sum", counting_convolve_sum)
    monkeypatch.setattr(qcong.qseries, "_pack", counting_pack)
    monkeypatch.setattr(qcong.qseries, "_convolve_int_schoolbook", counting_schoolbook)
    return outputs, full, packed, schoolbook, sums


def _counting_loop(monkeypatch):
    # (len(out), multiply-adds, terms_a, terms_b) of every call of eta's
    # binding of the one nonzero-term product loop: each (i, x) of terms_a
    # meets the terms of terms_b below len(out) - i - shift
    calls, add_products = [], qcong.eta._add_products

    def counting_loop(out, terms_a, terms_b, shift=0):
        ends = [j for j, _ in terms_b]
        madds = sum(bisect_left(ends, len(out) - i - shift) for i, _ in terms_a)
        calls.append((len(out), madds, terms_a, terms_b))
        return add_products(out, terms_a, terms_b, shift)

    monkeypatch.setattr(qcong.eta, "_add_products", counting_loop)
    return calls


def _terms_mod(terms: list, m: int) -> list:
    # (index, value) terms reduced mod m, the zeros left out
    return [(i, v % m) for i, v in terms if v % m]


def test_delta3_mod7_builds_little_at_full_length(monkeypatch):
    # the reduced delta_3 eta(z)^4 eta(2z) eta(14z)^6 / eta(98z) makes one
    # full-length product, eta^3 eta, from the two lacunary series' terms
    # through the one nonzero-term product loop, so no convolve and no
    # schoolbook runs at that length; the dense head meets the rest one
    # residue class mod 2 at a time, so nothing longer than T/2 + 1 terms
    # is packed; and only eta(z) is inverted, at the inner length of
    # eta(98z)
    T = 20000
    outputs, full, packed, schoolbook, _ = _counting_build(monkeypatch, T)
    loops = _counting_loop(monkeypatch)
    inverted, invert = [], QSeries.invert

    def counting_invert(self):
        inverted.append(self.T)
        return invert(self)

    monkeypatch.setattr(QSeries, "invert", counting_invert)
    s = delta_series(3, T, 7)
    assert s.T == T
    assert outputs.count(T) == 0 and full == [] and schoolbook.count(T) == 0
    at_T = [(a, b) for n, _, a, b in loops if n == T]
    assert at_T == [(_terms_mod(_jacobi_cube_terms(T), 7), _terms_mod(_euler_terms(T), 7))]
    assert packed and max(packed) <= -(-T // 2) + 1
    assert inverted and max(inverted) <= _inner_T(T, 98)


def test_delta3_progression_builds_little_at_full_length(monkeypatch):
    # sum delta_3(7n+5) q^n to T terms reads N = 7(T-1) + 6 terms of the
    # quotient and builds nothing at that length.  Its part prime to 7,
    # eta(z)^4 eta(2z), is theta(-q)^2 eta(2z)^3 by Gauss's theta(-q) =
    # eta(z)^2 / eta(2z): two lacunary series on each side.  Only the
    # three classes of theta(-q)^2 that meet eta(2z)^3's three nonempty
    # classes mod 7 (0, 2 and 6: 2k + 1 == 0 kills each Jacobi term with k
    # == 3) are formed, from the class rows of the index formulas' terms.
    # Class 6 lies past r = 5, so it enters one exponent up, as a leading
    # zero beside a head class of T - 1 terms.  The three class products
    # are one convolve_sum, and every operand packed is one residue class.
    T = 54882
    N = 7 * (T - 1) + 6
    e = EtaQuotient(_DELTA3)
    # peak traced memory of the build: 2.87 MB measured (Python 3.11), 2.96
    # MB when the head was eta(z)^4 = eta^3 eta, 5.14 MB when its classes
    # were lists of ints and 15.4 MB when eta(z)^4 was formed at length N;
    # the bound leaves about 20%
    tracemalloc.start()
    try:
        want = eta_quotient_progression(e, 7, 5, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_600_000, peak
    outputs, full, packed, schoolbook, sums = _counting_build(monkeypatch, N)
    loops = _counting_loop(monkeypatch)
    s = eta_quotient_progression(e, 7, 5, T)
    assert s == want and s.T == T and s.offset24 == 0 and s.ring == ModRing(7)
    short = -(-N // 7) + 1
    assert full == [] and max(outputs) <= short
    assert schoolbook and max(schoolbook) <= short
    assert packed and max(packed) <= short
    assert sums == [(T, [(T, T), (T, T), (T - 1, T)])]
    # the class rows: 427,330 when the head classes were eta^3 eta's
    assert sum(madds for n, madds, _, _ in loops if n in (T, T - 1)) == 148_291
    # and G = eta(2z)^6 / eta(14z) at T terms, nested over eta(z)^6
    # eta(7z)^-1 at the inner length of eta(2z): Jacobi's cube squared,
    # and Euler's series times 1 at the inner length of eta(7z), inverted
    inner = _inner_T(T, 2)
    rest = [(n, madds) for n, madds, _, _ in loops if n not in (T, T - 1)]
    assert rest == [(inner, 31_694), (_inner_T(inner, 7), 102)]


@pytest.mark.parametrize("T", [4667, 54882], ids=("quick", "full"))
def test_delta3_class_sum_takes_only_the_shift_add_kernel(monkeypatch, T):
    # the three pairs of the class sum of sum delta_3(7n+5) q^n are each a
    # dense class of theta(-q)^2 (about 26% to 29% nonzero) times a class
    # of eta(2z)^3 with 51 to 177 nonzero terms, all residues mod 7: inside
    # that one convolve_sum nothing is packed in decimal and nothing goes
    # to the nonzero-term schoolbook, and each pair takes a shift-add call
    # of its own
    inside, sums = [], []
    convolve_sum = qcong.eta.convolve_sum

    def recording(name):
        kernel = getattr(qcong.qseries, name)

        def wrapped(*args):
            if sums and sums[-1] is None:
                inside.append(name)
            return kernel(*args)

        monkeypatch.setattr(qcong.qseries, name, wrapped)

    def class_sum(ring, pairs, n_out):
        sums.append(None)
        out = convolve_sum(ring, pairs, n_out)
        sums[-1] = (n_out, len(pairs))
        return out

    for name in ("_pack", "_convolve_int_schoolbook", "_convolve_shift_add"):
        recording(name)
    monkeypatch.setattr(qcong.eta, "convolve_sum", class_sum)
    s = eta_quotient_progression(EtaQuotient(_DELTA3), 7, 5, T)
    assert s.T == T and sums == [(T, 3)]
    assert inside == ["_convolve_shift_add"] * 3


def test_exact_c_builds_below_the_delta3_progression_peak():
    # c to the 16,992 terms a full suite reads: theta(-q)^4 off divisor
    # sums times E4 eta(z)^6 at the inner length.  Traced peaks measured
    # (Python 3.11): 2.42 MB for c, 2.87 MB for the delta_3 progression;
    # 2.07 MB for c built from the 16,992-term eta(z)^8
    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    delta3 = peak(lambda: eta_quotient_progression(EtaQuotient(_DELTA3), 7, 5, 54882))
    c = peak(lambda: c_series(16992))
    assert c < delta3, (c, delta3)


def test_delta5_progression_builds_its_dense_head_at_full_length(monkeypatch):
    # the other side of the head choice: for sum delta_5(11n+6) q^n mod 11
    # the head is eta(z)^8, two Jacobi cubes and two Euler series, not one
    # product of two lacunary series, so it is built at the full length N
    # and sliced: the two cubes from their terms through the one loop, then
    # each Euler series (242 nonzero terms) multiplied in by a shift-add
    T = 2000
    N = 11 * (T - 1) + 7
    outputs, full, _, _, sums = _counting_build(monkeypatch, N)
    loops = _counting_loop(monkeypatch)
    shifts, shift_add = [], qcong.qseries._convolve_shift_add

    def counting_shift_add(d, e, n, m):
        shifts.append(n)
        return shift_add(d, e, n, m)

    monkeypatch.setattr(qcong.qseries, "_convolve_shift_add", counting_shift_add)
    s = eta_quotient_progression(EtaQuotient(_DELTA5), 11, 6, T)
    assert s.T == T and max(outputs) == N and outputs.count(N) == 2
    cube = _terms_mod(_jacobi_cube_terms(N), 11)
    assert [(a, b) for n, _, a, b in loops if n == N] == [(cube, cube)]
    euler = [0] * N
    for i, v in _euler_terms(N):
        euler[i] = v % 11
    euler = euler[: max(i for i, x in enumerate(euler) if x) + 1]
    assert len(full) == 2 and all(euler in pair for pair in full)
    assert shifts.count(N) == 2
    # six nonempty classes t of eta(2z) mod 11; the two past r = 6 enter one
    # exponent up, as a leading zero, so they are T terms long beside head
    # classes of T - 1
    assert sums == [(T, [(T, T)] * 4 + [(T - 1, T)] * 2)]


@pytest.mark.parametrize(
    "factors",
    [
        (),
        *(((d, e),) for d in (1, 2, 5) for e in (1, 2, 3, 4, 6)),
        *(((d, 2 * k), (2 * d, -k)) for d in (1, 3) for k in (1, 2)),
    ],
    ids=str,
)
def test_lacunary_heads_take_the_term_path_through_the_one_product_loop(monkeypatch, factors):
    # eta(dz)^e with e in 1..4 or 6, theta(-q^d) and theta(-q^d)^2, and the
    # empty quotient, are at most two of Jacobi's, Euler's and Gauss's
    # series: every class mod p is formed from their terms, at most p row
    # products per class through qseries' one loop, each with terms on both
    # sides, and no quotient is built at any length.  A class with no such
    # row pair is not formed: it is zero
    p, N = 7, 600
    ring = ModRing(p)
    want = _quotient_series(factors, N, ring).coeffs if factors else [1] + [0] * (N - 1)
    assert qcong.eta._add_products is qcong.qseries._add_products
    loops, built = [], []
    add_products, quotient_series = qcong.eta._add_products, qcong.eta._quotient_series

    def counting_loop(out, terms_a, terms_b, shift=0):
        assert terms_a and terms_b
        loops.append(len(out))
        return add_products(out, terms_a, terms_b, shift)

    def counting_quotient(factors, T, ring):
        built.append(T)
        return quotient_series(factors, T, ring)

    monkeypatch.setattr(qcong.eta, "_add_products", counting_loop)
    monkeypatch.setattr(qcong.eta, "_quotient_series", counting_quotient)
    classes = qcong.eta._classes(factors, p, range(p), N, ring)
    assert built == []
    assert 0 < len(loops) <= p * len(classes)
    assert set(classes) >= {c for c in range(p) if any(want[c::p])}
    assert {c: bytes(want[c::p]) for c in classes} == classes


def test_other_heads_are_built_at_full_length_and_sliced(monkeypatch):
    # eta(z)^5 is three series and eta(z)^-1 none: both are built at N, by
    # the one builder under p, and sliced; the slices are those of the
    # nested build over the ring alone
    p, N = 7, 600
    ring = ModRing(p)
    built, quotient_series = [], qcong.eta._quotient_series

    def counting_quotient(factors, T, ring, p=None):
        built.append((T, p))
        return quotient_series(factors, T, ring, p)

    monkeypatch.setattr(qcong.eta, "_quotient_series", counting_quotient)
    for factors in (((1, 5),), ((1, -1),)):
        built.clear()
        classes = qcong.eta._classes(factors, p, [3], N, ring)
        assert built == [(N, p)] and classes == {3: bytes(quotient_series(factors, N, ring).coeffs[3::p])}


@given(st.integers(1, 6), st.sampled_from([1, 2]), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
@example(1, 1, 1)
@example(1, 2, 2)
@example(3, 2, 300)
def test_theta_index_terms_match_the_quotient(d, k, N):
    # theta(-q^d)^k = eta(dz)^2k / eta(2dz)^k is k of Gauss's series under
    # every prime (f is 1), and from their index terms, (d n^2, 2 (-1)^n)
    # and (0, 1), it is the nested build over Z and mod 2 (where theta ==
    # 1), 7 and 131
    factors = ((d, 2 * k), (2 * d, -k))
    for ring, p in ((ZZ, 5), (ModRing(2), 2), (ModRing(7), 7), (ModRing(131), 131)):
        series = _series(factors, p)
        assert series == [(d, _theta_terms)] * k
        a, b = _series_terms(series, N, ring)
        got = [ring.zero] * N
        for i, x in a:
            for j, y in b:
                if i + j < N:
                    got[i + j] = ring.add(got[i + j], ring.mul(x, y))
        assert got == _quotient_series(factors, N, ring).coeffs, ring


@pytest.mark.parametrize(
    "factors, head",
    [
        (((1, 2), (2, 1)), ((1, 2), (2, -1))),  # theta(-q) eta(2z)^2
        (((1, 4), (2, 1)), ((1, 4), (2, -2))),  # theta(-q)^2 eta(2z)^3
        (((3, 4), (6, 2)), ((3, 4), (6, -2))),  # theta(-q^3)^2 eta(6z)^4
        (((1, 4), (2, 4)), ((1, 4), (2, -2))),  # theta(-q)^2 eta(2z)^6
        (((1, 2), (2, 4)), ((1, 2),)),  # eta(2z)^5 is three series
        (((1, 4), (2, 3)), ((1, 4),)),  # so is eta(2z)^5 here
        (((1, 4), (2, -3)), ((1, 4),)),  # eta(2z)^-1 has no index formula
        (((1, 3), (2, 1)), ((1, 3),)),  # a = 3
        (((1, 2), (3, 1)), ((1, 2),)),  # eta(3z) is not eta(2z)
        (((1, 2), (2, 1), (5, 1)), ((1, 2), (2, 1))),  # three factors
    ],
    ids=str,
)
def test_theta_split_takes_exactly_the_quotients_with_index_formulas(factors, head):
    # eta(dz)^a eta(2dz)^b with a in {2, 4} splits as theta(-q^d)^(a/2)
    # times eta(2dz)^(b + a/2) when that has index formulas (mod 7 and 11
    # no exponent here reaches p, so f is not rewritten); any other
    # quotient falls back to the rest times its factor of largest d
    for p in (7, 11):
        split = qcong.eta._theta_split(factors, p)
        h, f = split or (factors[:-1], factors[-1:])
        assert h == head and (split is None) == (len(head) < 2 or head[1][1] > 0)
        assert EtaQuotient(h) * EtaQuotient(f) == EtaQuotient(factors)


@pytest.mark.parametrize(
    "factors, p, f",
    [
        (((1, 4), (2, 6)), 7, ((2, 1), (14, 1))),  # eq. (1.2)'s left side
        (((1, 2), (2, 4)), 5, ((10, 1),)),  # eta(2z)^5: three series mod 7
        (((1, 4), (2, 5)), 7, ((14, 1),)),  # eta(2z)^7
        (((3, 4), (6, 4)), 5, ((6, 1), (30, 1))),  # eta(6z)^6
        (((1, 4), (2, -2)), 7, ()),  # theta(-q)^2 alone: f is 1
    ],
    ids=str,
)
def test_theta_split_reduces_its_second_factor_mod_p(factors, p, f):
    # f = eta(2dz)^(b + a/2) is rewritten once more by eta(dz)^p ==
    # eta(pdz) (mod p), so a power that is three or more series becomes
    # one or two Euler series
    (d, a), _ = factors
    assert qcong.eta._theta_split(factors, p) == (((d, a), (2 * d, -(a // 2))), f)


@st.composite
def _two_factor_quotients(draw):
    """eta(dz)^a eta(2dz)^b mod p, p in {5, 7, 11}: a theta head (a in {2,
    4}) most of the time, b from -8 to 16, so that b + a/2 spans negative
    powers, powers with and without index formulas and powers past p."""
    d = draw(st.integers(1, 4))
    a = draw(st.sampled_from((2, 4, 2, 4, 1, 3, 6)))
    b = draw(st.integers(-8, 16).filter(bool))
    return ((d, a), (2 * d, b)), draw(st.sampled_from((5, 7, 11)))


@given(_two_factor_quotients(), st.integers(1, 300))
@settings(max_examples=80, deadline=None)
# eq. (1.2)'s left side, theta(-q)^2 eta(2z) eta(14z) mod 7; theta(-q)
# eta(10z) mod 5; theta(-q^3)^2 eta(6z) eta(30z) mod 5, by a dilation of 3;
# f = eta(2z)^9 mod 11, three series, so the nested build; theta(-q)^2
# alone; T = 1
@example((((1, 4), (2, 6)), 7), 300)
@example((((1, 2), (2, 4)), 5), 200)
@example((((3, 4), (6, 4)), 5), 250)
@example((((1, 2), (2, 8)), 11), 120)
@example((((1, 4), (2, -2)), 7), 90)
@example((((2, 4), (4, 6)), 7), 1)
def test_two_factor_quotients_mod_p_match_the_nested_build(case, T):
    # under a prime modulus the one builder, given p, expands a quotient
    # that `_theta_split` cuts once by the one rule, theta(-q^d)^k's series
    # and then f's, at the inner length of the gcd; it equals the nested
    # build of the same factors over the ring alone (p=None), and expands
    # Gauss's series only when there is a split
    factors, p = case
    e = EtaQuotient(factors)
    ring = ModRing(p)
    want = _quotient_series(factors, T, ring)
    reduced = _frobenius_reduced(factors, p)
    g = math.gcd(*(d for d, _ in reduced))
    inner = tuple((d // g, r) for d, r in reduced)
    split = qcong.eta._theta_split(inner, p)
    built, expanded = [], []
    quotient_series, expand = qcong.eta._quotient_series, qcong.eta._expand

    def counting_build(factors, n, ring, p=None):
        built.append((factors, n, p))
        return quotient_series(factors, n, ring, p)

    def counting_expand(series, n, ring):
        expanded.append((series, n))
        return expand(series, n, ring)

    with mock.patch.object(qcong.eta, "_quotient_series", counting_build):
        with mock.patch.object(qcong.eta, "_expand", counting_expand):
            s = eta_quotient_series(e, T, p)
    assert s == want
    assert built and all(q == p for _, _, q in built)
    thetas = [series for series, _ in expanded if (1, _theta_terms) in series]
    if split is None:
        assert thetas == []
    else:
        assert built[-1][0] == inner
        assert expanded == [(_series(inner, p), _inner_T(T, g))]
        assert expanded[0][0][: inner[0][1] // 2] == [(1, _theta_terms)] * (inner[0][1] // 2)


def test_a_theta_rest_is_expanded_from_theta_terms(monkeypatch):
    # eta(z) eta(2z)^4 eta(4z)^6 mod 7 nests: eta(z) at T terms times the
    # rest R(q^2), R = eta(z)^4 eta(2z)^6 == theta(-q)^2 eta(2z) eta(14z)
    # (mod 7), a theta split that the builder expands from Gauss's terms
    # and then two Euler series, at the inner length
    T = 3000
    expanded, expand = [], qcong.eta._expand

    def counting_expand(series, n, ring):
        expanded.append((series, n))
        return expand(series, n, ring)

    monkeypatch.setattr(qcong.eta, "_expand", counting_expand)
    factors = ((1, 1), (2, 4), (4, 6))
    s = eta_quotient_series(EtaQuotient(factors), T, 7)
    assert s.coeffs == [x % 7 for x in naive_eta_product(factors, T)]
    theta_rest = [(1, _theta_terms)] * 2 + [(2, _euler_terms), (14, _euler_terms)]
    assert expanded == [([(1, _euler_terms)], T), (theta_rest, _inner_T(T, 2))]


@pytest.mark.parametrize("T", [1, 2, 3, 14, 15, 4667])
def test_eq_1_2_lhs_matches_the_naive_product_mod_7(T):
    # theta(-q)^2 eta(2z) eta(14z) mod 7 against eta(z)^4 eta(2z)^6 expanded
    # one binomial factor at a time; 4,667 terms is a quick suite's length
    assert eq_1_2_lhs(T).coeffs == [x % 7 for x in naive_eta_product(((1, 4), (2, 6)), T)]


def test_eq_1_2_lhs_of_a_full_suite_matches_the_nested_build(monkeypatch):
    # at the 54,883 terms a full suite reads: the coefficients of the
    # nested build, eta(z)^4 at full length times eta(z)^6 at the inner
    # length; and no product of the new build goes to the decimal kernel:
    # theta(-q)^2 is formed by the nonzero-term loop, and eta(2z)'s 271 and
    # eta(14z)'s 102 nonzero terms each meet it in one shift-add
    T = 54883
    want = _quotient_series(((1, 4), (2, 6)), T, ModRing(7))
    ran = Counter()
    for name in ("_convolve_decimal", "_convolve_shift_add", "_convolve_int_schoolbook"):

        def wrapped(*args, kernel=getattr(qcong.qseries, name), name=name):
            ran[name] += 1
            return kernel(*args)

        monkeypatch.setattr(qcong.qseries, name, wrapped)
    s = eq_1_2_lhs(T)
    assert s.coeffs == want.coeffs and s.offset24 == 0 and s.T == T
    assert ran == Counter(_convolve_shift_add=2)


@st.composite
def progressions(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ds = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True))
    rs = draw(
        st.lists(st.integers(-2 * p, 2 * p).filter(bool), min_size=len(ds), max_size=len(ds))
    )
    return tuple(zip(ds, rs)), p, draw(st.integers(0, p - 1))


@given(progressions(), st.integers(1, 80))
@settings(max_examples=80, deadline=None)
# no factor with p not dividing d; no factor with p | d; a quotient that
# cancels entirely; a common gcd > 1; T = 1 with r = p - 1; an f, the factor
# of largest d, with one nonempty class (eta(6z) to 6 terms); and the
# delta_3 and delta_5 progressions the claims read, whose heads eta(z)^4
# and eta(z)^8 take the two sides of the head choice; both sides of it mod
# 131, whose residue bytes go through convolve_sum's Z path, and mod 257,
# whose residues a byte cannot hold; the theta split of eta(dz)^a eta(2dz)^b,
# a in {2, 4}, with and without a G factor at p = 5, 7, 11, 131 and 257;
# and its fallbacks when b + a/2 = 5, and when b + a/2 < 0 before the
# rewrite, which leaves eta(z)^2 eta(2z)^4 eta(14z)^-1, b + a/2 = 5 again
@example((((7, 1),), 7, 3), 40)
@example((((7, 1),), 7, 0), 40)
@example((((1, 3), (2, -1), (3, 2)), 5, 2), 60)
@example((((1, -7), (7, 1)), 7, 0), 20)
@example((((1, -7), (7, 1)), 7, 4), 20)
@example((((6, 2), (12, -1), (18, 5)), 5, 1), 50)
@example((((2, 3), (4, -1)), 2, 1), 1)
@example((((1, 4), (13, -3)), 13, 12), 1)
@example((((1, 3), (6, 1)), 7, 5), 1)
@example((_DELTA3, 7, 5), 80)
@example((_DELTA5, 11, 6), 80)
@example((((1, 4), (2, 1)), 131, 5), 30)
@example((((1, 5), (2, 3)), 131, 0), 30)
@example((((1, 3), (2, 1)), 257, 100), 20)
@example((((1, 5), (2, 3)), 257, 3), 10)
@example((((1, 2), (2, 1)), 5, 3), 60)
@example((((1, 4), (2, 2), (5, 1)), 5, 4), 60)
@example((((1, 2), (2, 2), (14, -1)), 7, 6), 50)
@example((((3, 4), (6, 4)), 11, 2), 40)
@example((((1, 2), (2, 1), (11, 3)), 11, 10), 40)
@example((((1, 4), (2, 2), (262, 1)), 131, 7), 20)
@example((((1, 2), (2, 1)), 257, 100), 20)
@example((((2, 2), (4, 2), (257, -1)), 257, 3), 10)
@example((((1, 2), (2, 4)), 7, 1), 50)
@example((((1, 4), (2, 3), (22, 1)), 11, 4), 40)
@example((((1, 2), (2, -3)), 7, 0), 50)
def test_quotient_progression_matches_the_full_build(progression, T):
    factors, p, r = progression
    e = EtaQuotient(factors)
    s = eta_quotient_progression(e, p, r, T)
    want = eta_quotient_series(e, p * (T - 1) + r + 1, p).coeffs[r::p]
    assert s.ring == ModRing(p) and s.offset24 == 0 and s.T == T
    assert s.coeffs == want


def test_quotient_progression_rejects_bad_arguments():
    e = EtaQuotient(_DELTA3)
    for m in (1, 4, 49, 12):
        with pytest.raises(ValueError, match="prime modulus"):
            eta_quotient_progression(e, m, 0, 5)
    for r in (-1, 7, 12):
        with pytest.raises(ValueError, match=r"residue r in \[0, 7\)"):
            eta_quotient_progression(e, 7, r, 5)
    for T in (0, -3):
        with pytest.raises(ValueError, match="truncation must be at least 1"):
            eta_quotient_progression(e, 7, 5, T)


@pytest.mark.parametrize("k, p", [(3, 7), (5, 11)])
def test_delta_mod_p_matches_naive_oracle(k, p):
    T = 2000
    assert delta_series(k, T, p).coeffs == [x % p for x in naive_delta(k, T)]
