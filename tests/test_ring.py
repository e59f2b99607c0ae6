import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import euler_criterion, naive_is_prime
from qcong import ring as ring_module
from qcong.ring import (
    QQ,
    QUAD,
    ZZ,
    ModRing,
    QuadInt,
    _factorize,
    bernoulli,
    is_prime,
    kronecker,
    primes_up_to,
    ring_from_tag,
)

from conftest import quad_elems, small_ints


def test_kronecker_spec_values():
    assert kronecker(1, 7) == 1
    assert kronecker(3, 7) == -1  # squares mod 7 are {1, 2, 4}
    assert kronecker(14, 7) == 0
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 7) == -1


def test_kronecker_matches_euler_criterion_exhaustively():
    for p in primes_up_to(50):
        if p == 2:
            continue
        for a in range(-2 * p, 2 * p + 1):
            assert kronecker(a, p) == euler_criterion(a, p), (a, p)


def test_kronecker_at_two_and_negative():
    assert [kronecker(a, 2) for a in range(9)] == [0, 1, 0, -1, 0, -1, 0, 1, 0]
    assert kronecker(0, 1) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(-1, -1) == -1
    assert kronecker(0, -1) == 1  # so (0 * -1|-1) = 1, not (0|-1)(-1|-1) = -1
    assert kronecker(1, 0) == 1
    assert kronecker(2, 0) == 0


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60))
@example(0, -1, -1)
@example(-7, 0, -1)
@example(0, 0, -1)
def test_kronecker_multiplicative_top(a, b, n):
    if n == -1 and 0 in (a, b) and min(a, b) < 0:
        # the one exception: (0|-1) = 1 but (b|-1) = -1 for b < 0
        assert kronecker(a * b, n) == 1
        assert kronecker(a, n) * kronecker(b, n) == -1
    else:
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60))
def test_kronecker_multiplicative_bottom(a, m, n):
    # bottom multiplicativity needs nonzero factors ((−1|0) breaks it)
    assume(m != 0 and n != 0)
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_satisfies_recurrence_independently():
    # re-evaluate sum_j C(m+1, j) B_j = 0 from scratch, odd orders included
    vals = {0: Fraction(1), 1: Fraction(-1, 2)}
    for k in range(2, 31):
        vals[k] = bernoulli(k) if k % 2 == 0 else Fraction(0)
    for m in range(1, 31):
        assert sum(math.comb(m + 1, j) * vals[j] for j in range(m + 1)) == 0, m


def test_bernoulli_rejects_odd_and_negative():
    for k in (-2, 1, 7):
        with pytest.raises(ValueError):
            bernoulli(k)


def test_quad_conj_examples():
    assert QuadInt(1, 0).conj() == QuadInt(1, 0)
    assert QuadInt(0, 8).conj() == QuadInt(0, -8)
    x, y = QuadInt(1, 2), QuadInt(3, -1)
    assert x * y == QuadInt(9, 5)
    assert (x * y).conj() == x.conj() * y.conj() == QuadInt(9, -5)


@given(quad_elems, quad_elems)
def test_quad_conj_is_ring_homomorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


@given(quad_elems, quad_elems, quad_elems)
def test_quad_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(small_ints, small_ints, small_ints)
def test_mod_ring_axioms(a, b, c):
    R = ModRing(7)
    x, y, z = R.from_int(a), R.from_int(b), R.from_int(c)
    assert R.add(R.add(x, y), z) == R.add(x, R.add(y, z))
    assert R.mul(R.mul(x, y), z) == R.mul(x, R.mul(y, z))
    assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))


def test_mod_ring_strict_reduction_and_inverse():
    R = ModRing(7)
    assert R.from_int(-1) == 6
    assert R.inv(2) == 4
    assert not R.is_unit(0)
    R6 = ModRing(6)
    assert not R6.is_unit(2)
    with pytest.raises(ValueError):
        ModRing(1)


def test_quad_units():
    assert QUAD.is_unit(QuadInt(1, 0)) and QUAD.is_unit(QuadInt(-1, 0))
    assert not QUAD.is_unit(QuadInt(0, 1))
    assert QUAD.inv(QuadInt(-1, 0)) == QuadInt(-1, 0)
    with pytest.raises(ValueError):
        QUAD.inv(QuadInt(2, 0))


def test_integer_and_rational_units():
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    with pytest.raises(ValueError):
        ZZ.inv(3)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)


@given(rationals1=st.fractions(max_denominator=30), rationals2=st.fractions(max_denominator=30))
def test_rational_normalization(rationals1, rationals2):
    x = rationals1 * rationals2
    assert math.gcd(x.numerator, x.denominator) == 1
    assert x.denominator > 0


def test_from_int_conversions():
    assert ModRing(7).from_int(10) == 3
    assert QUAD.from_int(-2) == QuadInt(-2, 0)
    assert QQ.from_int(3) == Fraction(3)


def test_ring_equality_and_tags():
    assert ModRing(7) == ModRing(7)
    assert ModRing(7) != ModRing(11)
    for ring in (ZZ, QQ, QUAD, ModRing(13)):
        assert ring_from_tag(ring.tag) == ring
    with pytest.raises(ValueError):
        ring_from_tag("weird")


def test_is_prime_and_sieve():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(97)[-1] == 97
    assert len(primes_up_to(97)) == 25
    assert is_prime(10007) and not is_prime(10001)


def test_is_prime_and_sieve_agree_with_trial_division_below_5000():
    oracle = [n for n in range(5000) if naive_is_prime(n)]
    assert [n for n in range(5000) if is_prime(n)] == oracle == primes_up_to(4999)
    assert is_prime(999_983) and naive_is_prime(999_983)
    assert _factorize(1_000_001) == [(101, 1), (9901, 1)]
    assert not is_prime(1_000_001) and not naive_is_prime(1_000_001)


@given(st.integers(1, 10**5))
def test_factorize_rebuilds_n_from_increasing_primes(n):
    pairs = _factorize(n)
    assert math.prod(p**e for p, e in pairs) == n
    primes = [p for p, _ in pairs]
    assert primes == sorted(set(primes)) and all(map(naive_is_prime, primes))
    assert all(e >= 1 for _, e in pairs)


def test_factorize_examples():
    assert _factorize(1) == []
    assert _factorize(24696) == [(2, 3), (3, 2), (7, 3)]
    assert _factorize(10007) == [(10007, 1)]


@given(small_ints, small_ints, small_ints)
def test_ring_axioms_via_ring_ops_all_rings(a, b, c):
    from fractions import Fraction

    for R in (ZZ, QQ, QUAD, ModRing(12)):
        x, y, z = R.from_int(a), R.from_int(b), R.from_int(c)
        assert R.add(R.add(x, y), z) == R.add(x, R.add(y, z))
        assert R.mul(R.mul(x, y), z) == R.mul(x, R.mul(y, z))
        assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))
        assert R.add(x, y) == R.add(y, x)
        assert R.mul(x, y) == R.mul(y, x)
        assert R.add(x, R.neg(x)) == R.zero
        assert R.add(x, R.neg(y)) == R.from_int(a - b)


# ---- ModRing.mul_each by one translate, ZZ.parse_elem as the builtin ----


def _mul_each_cases(m):
    return [
        list(range(min(m, 256))),  # reduced residues (all 256 bytes mod 257)
        list(range(m, 256)),  # unreduced, still bytes
        [-1, 3, -m, -300, 0],  # negatives
        [256, 2, 1000, 10**30],  # at and past 256
        [True, False, True],
        [Fraction(3, 2), 1],
        [],
    ]


@pytest.mark.parametrize("m", [2, 7, 11, 128, 255, 256, 257])
def test_mod_mul_each_matches_the_per_element_product(m):
    R = ModRing(m)
    # a c whose multiples are not ints keeps the comprehension's values too
    for c in (0, 1, 3, m - 1, -1, -5, m + 2, 10**20, True, Fraction(1, 2)):
        for xs in _mul_each_cases(m):
            want = [c * x % m for x in xs]
            got = R.mul_each(c, xs)
            assert got == want and list(map(type, got)) == list(map(type, want)), (c, xs)


@pytest.mark.parametrize("m", [2, 7, 11, 128, 255, 256, 257])
def test_mod_mul_each_scales_bytes_by_translate_up_to_256(m):
    # residues take the translate for m <= 256; mod 257 always the comprehension
    with mock.patch.object(ring_module, "_times", wraps=ring_module._times) as table:
        assert ModRing(m).mul_each(5, [0, 1, m - 1 if m <= 256 else 255]) == [0, 5 % m, 5 * min(m - 1, 255) % m]
    assert table.call_count == (1 if m <= 256 else 0)


def test_integer_parse_elem_is_the_builtin_int():
    # so a map over the lines of a Z dump runs no Python frame per line; it
    # takes and refuses exactly what int() does
    assert ZZ.parse_elem is int
    for text, value in (("+3\n", 3), (" 3", 3), ("1_0", 10), ("\u0663", 3), ("-12\n", -12)):
        assert ZZ.parse_elem(text) == value
    for text in ("3.0", ""):
        with pytest.raises(ValueError):
            ZZ.parse_elem(text)
