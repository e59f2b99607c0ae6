import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcong import diamond, qseries
from qcong.qseries import (
    QSeries,
    convolve,
    convolve_schoolbook,
    convolve_sum,
    dumps,
    loads,
)
from qcong.ring import QQ, QUAD, ZZ, ModRing, QuadInt
from qcong.store import Cache
from qcong.sturm import SpaceTag

from conftest import mutate, series_over
from oracles import (
    MERSENNE_61,
    dumps_per_line,
    evaluate_mod,
    evaluate_product_mod,
    loads_per_line,
    naive_scale,
    unpack_per_slot,
)

M7 = ModRing(7)
ALL_RINGS = (ZZ, QQ, QUAD, M7, ModRing(12))


def S(coeffs, offset24=0, ring=ZZ):
    return QSeries.from_ints(ring, coeffs, offset24)


# ---- add ----


def test_add_basic_and_offset_alignment():
    assert S([1, 1]).add(S([1, -1])).coeffs == [2, 0]
    # q^(1/24)(1 + 0q) + q^(25/24)(1) = q^(1/24)(1 + q)
    a = S([1, 0], offset24=1)
    b = S([1], offset24=25)
    out = a.add(b)
    assert out.offset24 == 1 and out.coeffs == [1, 1]


def test_add_never_fabricates_beyond_justified_truncation():
    # with only one known coefficient on the left, the sum cannot justify
    # the exponent the shifted right operand sits at
    out = S([1], offset24=1).add(S([1], offset24=25))
    assert out.offset24 == 1 and out.coeffs == [1]


def test_add_rejects_fractional_difference():
    with pytest.raises(ValueError, match="not an integer"):
        S([1], offset24=1).add(S([1], offset24=8))  # 1/3 - 1/24 = 7/24


def test_add_rejects_ring_mismatch():
    with pytest.raises(ValueError, match="ring mismatch"):
        S([1]).add(S([1], ring=M7))


def test_add_truncation_is_min_after_alignment():
    a = S([1, 2, 3, 4, 5])
    b = S([1, 1], offset24=48)  # q^2 (1 + q)
    out = a.add(b)
    assert out.offset24 == 0
    assert out.coeffs == [1, 2, 4, 5]  # min(5, 2 + 2) = 4 coefficients


# ---- mul ----


def test_mul_telescoping():
    out = S([1, -1, 0, 0]).mul(S([1, 1, 1, 1]))
    assert out.coeffs == [1, 0, 0, 0]


def test_mul_offsets_add():
    out = S([1], offset24=1).mul(S([1], offset24=1))
    assert out.offset24 == 2 and out.coeffs == [1]


def test_mul_three_binomials():
    # (1-q)(1-q^2)(1-q^3) at T=7, expanded by hand
    f = S([1, -1, 0, 0, 0, 0, 0])
    g = S([1, 0, -1, 0, 0, 0, 0])
    h = S([1, 0, 0, -1, 0, 0, 0])
    assert f.mul(g).mul(h).coeffs == [1, -1, -1, 0, 1, 1, -1]


# ---- pow ----


def test_pow_zero_one_preserved():
    f = S([3, 1, 4], offset24=24)
    out = f.pow(0)
    assert out.offset24 == 0 and out.coeffs == [1, 0, 0]


def test_pow_negative_is_geometric():
    out = S([1, -1, 0, 0, 0]).pow(-1)
    assert out.coeffs == [1, 1, 1, 1, 1]


def test_pow_binomial():
    assert S([1, -1, 0]).pow(8).coeffs == [1, -8, 28]


# ---- invert ----


def test_invert_one():
    assert S([1, 0, 0]).invert().coeffs == [1, 0, 0]


def test_invert_fibonacci():
    assert S([1, -1, -1, 0, 0]).invert().coeffs == [1, 1, 2, 3, 5]


def test_invert_mod7_with_unit_leading():
    f = QSeries(M7, 0, [2, 1, 0, 0, 0])
    g = f.invert()
    assert g.coeffs[0] == 4  # 2 * 4 = 8 = 1 mod 7
    prod = f.mul(g)
    assert prod.coeffs == [1, 0, 0, 0, 0]


def test_invert_rejects_non_unit():
    with pytest.raises(ValueError, match="not a unit"):
        S([2, 1]).invert()
    with pytest.raises(ValueError, match="not a unit"):
        QSeries(ModRing(6), 0, [3, 1]).invert()


def test_invert_negates_offset():
    f = S([1, 1], offset24=24)
    assert f.invert().offset24 == -24


# ---- dilate ----


def test_dilate_examples():
    assert S([1, 1]).dilate(2).coeffs == [1, 0, 1]
    out = S([1], offset24=1).dilate(4)
    assert out.offset24 == 4 and out.coeffs == [1]


def test_dilate_truncation_rule():
    assert S([1, 2, 3]).dilate(3).T == 7


# ---- coeff ----


def test_coeff_access():
    assert S([1, 2]).coeff(1) == 2
    assert S([1, -1], offset24=1).coeff(Fraction(25, 24)) == -1


def test_coeff_out_of_truncation_errors():
    with pytest.raises(ValueError, match="truncation"):
        S([1, 1]).coeff(5)
    with pytest.raises(ValueError):
        S([1, 1], offset24=1).coeff(1)  # 1 - 1/24 not an integer


# ---- extract_progression ----


def test_extract_identity_and_strides():
    f = S([1, 2, 3, 4])
    assert f.extract_progression(1, 0).coeffs == [1, 2, 3, 4]
    assert f.extract_progression(2, 1).coeffs == [2, 4]


def test_extract_pentagonal_values():
    # frozen from the naive factor-by-factor product oracle
    from oracles import naive_euler_product

    P = S(naive_euler_product(30))
    assert P.extract_progression(5, 0).coeffs == [1, 1, 0, -1, 0, 0]


def test_extract_requires_offset_zero():
    with pytest.raises(ValueError, match="offset 0"):
        S([1, 2], offset24=24).extract_progression(2, 0)


# ---- reduce_mod ----


def test_reduce_mod_values():
    out = S([6, 7, 8]).reduce_mod(7)
    assert out.ring == M7 and out.coeffs == [6, 0, 1]
    assert S([-1]).reduce_mod(7).coeffs == [6]


@given(series_over(ZZ, max_T=8, offsets=st.just(0)), series_over(ZZ, max_T=8, offsets=st.just(0)))
def test_reduce_mod_is_multiplicative(f, g):
    lhs = f.mul(g).reduce_mod(7)
    rhs = f.reduce_mod(7).mul(g.reduce_mod(7))
    assert lhs == rhs


# ---- property tests across rings ----


@given(st.data())
@settings(max_examples=60)
def test_mul_offsets_add_and_min_truncation(data):
    for ring in (ZZ, M7):
        f = data.draw(series_over(ring))
        g = data.draw(series_over(ring))
        out = f.mul(g)
        assert out.offset24 == f.offset24 + g.offset24
        assert out.T == min(f.T, g.T)


@given(st.data())
@settings(max_examples=40)
def test_invert_is_two_sided_inverse(data):
    ring = data.draw(st.sampled_from((QQ, M7)))
    f = data.draw(series_over(ring, min_T=1, max_T=9))
    if not ring.is_unit(f.coeffs[0]):
        f = QSeries(ring, f.offset24, [ring.one] + f.coeffs[1:])
    inv = f.invert()
    prod = f.mul(inv)
    assert prod.offset24 == 0
    assert prod.coeffs == [ring.one] + [ring.zero] * (prod.T - 1)


@given(series_over(ZZ, max_T=7), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40)
def test_pow_is_additive_in_exponent(f, a, b):
    lhs = f.pow(a + b)
    rhs = f.pow(a).mul(f.pow(b))
    assert lhs == rhs


@given(series_over(ZZ, max_T=10, offsets=st.just(0)), st.integers(1, 4), st.integers(0, 3))
def test_extract_progression_reindexes(f, a, b):
    if b >= f.T:
        b = f.T - 1
    out = f.extract_progression(a, b)
    assert out.T == (f.T - 1 - b) // a + 1
    for n in range(out.T):
        assert out.coeffs[n] == f.coeff(a * n + b)


@given(st.data())
@settings(max_examples=30)
def test_convolve_matches_schoolbook_all_rings(data):
    ring = data.draw(st.sampled_from(ALL_RINGS))
    f = data.draw(series_over(ring, max_T=12))
    g = data.draw(series_over(ring, max_T=12))
    n = min(f.T, g.T)
    assert convolve(ring, f.coeffs, g.coeffs, n) == convolve_schoolbook(
        ring, f.coeffs, g.coeffs, n
    )


def test_convolve_matches_schoolbook_large_integactual():
    # force the packed path (above the schoolbook cutoff) with mixed signs
    import random

    rng = random.Random(7)
    a = [rng.randint(-999, 999) for _ in range(200)]
    b = [rng.randint(-999, 999) for _ in range(150)]
    assert convolve(ZZ, a, b, 200) == convolve_schoolbook(ZZ, a, b, 200)


# ---- list-wise scalar multiples against the per-coefficient oracle ----

# Z, a small modulus, a modulus far above any length (so no table of its
# residues can be built), and Z[sqrt(-3)]
LIST_RINGS = (ZZ, M7, ModRing(10**30), QUAD)


@given(st.data())
@settings(max_examples=80)
def test_scale_matches_the_per_coefficient_oracle(data):
    ring = data.draw(st.sampled_from(LIST_RINGS))
    f = data.draw(series_over(ring, min_T=1, max_T=40))
    scalars = st.integers(-(10**40), 10**40)
    if ring == QUAD:
        scalars = scalars | st.builds(QuadInt, st.integers(-99, 99), st.integers(-99, 99))
    c = data.draw(scalars)
    modulus = ring.modulus if isinstance(ring, ModRing) else None
    out = f.scale(c)
    assert out.ring == ring and out.offset24 == f.offset24
    assert out.coeffs == naive_scale(c, f.coeffs, modulus)
    assert f.neg().coeffs == naive_scale(-1, f.coeffs, modulus)


@pytest.mark.parametrize("m", [7, 10**30])
def test_scale_reduces_an_unreduced_residue(m):
    # a residue outside [0, m) comes out reduced, never wrapped into a
    # wrong value; so does its negative
    xs = [m + 2, -1, -m - 3, 2 * m, 5]
    f = QSeries(ModRing(m), 0, xs)
    assert f.scale(3).coeffs == [x * 3 % m for x in xs]
    assert f.scale(-2).coeffs == [x * -2 % m for x in xs]
    assert f.neg().coeffs == [-x % m for x in xs]


# ---- the packed (Kronecker) multiply against the schoolbook oracle ----

# (len(a), len(b)) on both sides of the schoolbook cutoff: 1 x N, short
# times long, squares just below and above it, long operands, and a pair
# past the shift-add cutoff, where residues mod m reach the decimal multiply
PACKED_LENGTHS = (
    (1, 90), (90, 1), (12, 40), (24, 24), (25, 25), (13, 200), (40, 90), (260, 300),
)
SHAPES = ("mixed", "negative", "zero", "one", "edge", "edge-negative")
HEIGHTS = tuple(10**k - 1 for k in (1, 2, 9, 19, 20))
KERNELS = {
    "_convolve_shift_add": "shift",
    "_convolve_int_schoolbook": "schoolbook",
    "_convolve_decimal": "decimal",
}


def _width(bound: int):
    """The least machine-word width of 8, 16, 32 or 64 bits above bound."""
    return next((w for w in (8, 16, 32, 64) if bound < 2**w), None)


def _rule(a, b, m) -> str:
    """The kernel an integer product a*b, alone in its sum, is due; m is
    the modulus of a sum of residue bytes (m <= _BYTE_MODULUS), else None.
    With d the operand of more nonzero terms (the shorter on a tie) and e
    the other: shift-add only for residue bytes, when e has a nonzero term,
    the worst slot nnz(e) max(a) max(b) fits a word of some width, nnz(e)
    times that width is at most _SHIFT_ADD_BITS and nnz(d) _SCHOOLBOOK_BITS
    reaches len(d) times it; else the schoolbook while nnz(a) nnz(b) <=
    _SCHOOLBOOK_CUTOFF (len(a) + len(b)); else decimal."""
    (nnz_d, _, d), (nnz_e, _, e) = sorted(
        ((len(x) - x.count(0), -len(x), x) for x in (a, b)), key=lambda t: t[:2], reverse=True
    )
    if m is not None and nnz_e:
        width = _width(nnz_e * max(a) * max(b))
        if (
            width
            and nnz_e * width <= qseries._SHIFT_ADD_BITS
            and nnz_d * qseries._SCHOOLBOOK_BITS >= len(d) * width
        ):
            return "shift"
    if nnz_d * nnz_e <= qseries._SCHOOLBOOK_CUTOFF * (len(a) + len(b)):
        return "schoolbook"
    return "decimal"


def _record_kernels(monkeypatch) -> list:
    """[kernel, a, b, m] for every integer product that reaches the kernels:
    every ring's product reaches them as one pair, cut to n_out, with the
    modulus of a sum of residue bytes or None."""
    calls = []
    convolve_int_sum = qseries._convolve_int_sum

    def recorded(pairs, n_out, m=None):
        ((a, b),) = pairs
        calls.append([None, a[:n_out], b[:n_out], m])
        return convolve_int_sum(pairs, n_out, m)

    def marking(name):
        kernel = getattr(qseries, name)

        def wrapped(*args):
            calls[-1][0] = KERNELS[name]
            return kernel(*args)

        monkeypatch.setattr(qseries, name, wrapped)

    monkeypatch.setattr(qseries, "_convolve_int_sum", recorded)
    for name in KERNELS:
        marking(name)
    return calls


def _assert_each_product_took_its_kernel(calls, ring):
    for kernel, a, b, m in calls:
        assert kernel == _rule(a, b, m), (len(a), len(b), kernel)
    # every kernel ran over Z/m of the byte path; the schoolbook and the
    # decimal one elsewhere
    residues = isinstance(ring, ModRing) and ring.modulus <= qseries._BYTE_MODULUS
    due = set(KERNELS.values()) if residues else {"schoolbook", "decimal"}
    assert {kernel for kernel, *_ in calls} == due


def _shaped_ints(rng, n: int, shape: str, h: int) -> list[int]:
    """n integers of one shape, each of absolute value at most h; the edge
    shapes repeat +-h, so the product's slots reach the width's bound."""
    if shape == "mixed":
        return [rng.randint(-h, h) for _ in range(n)]
    if shape == "negative":
        return [rng.randint(-h, -1) for _ in range(n)]
    if shape == "one":
        xs = [0] * n
        xs[rng.randrange(n)] = rng.choice((-h, h))
        return xs
    return [{"zero": 0, "edge": h, "edge-negative": -h}[shape]] * n


def _shaped(ring, rng, n: int, shape: str, h: int) -> list:
    xs = _shaped_ints(rng, n, shape, h)
    if ring == ZZ:
        return xs
    if ring == QQ:
        return [Fraction(x, rng.choice((1, 2, 3, 4, 6, 12))) for x in xs]
    if ring == QUAD:
        return [QuadInt(x, y) for x, y in zip(xs, _shaped_ints(rng, n, shape, h))]
    m = ring.modulus
    if shape.startswith("edge"):
        return [m - 1] * n  # the largest residue fills the slots
    return [x % m for x in xs]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.tag)
def test_packed_convolve_matches_schoolbook_across_the_cutoff(ring, monkeypatch):
    # each integer product takes the kernel `_rule` names, and every kernel
    # that ring is offered runs
    calls = _record_kernels(monkeypatch)
    rng = random.Random(ring.tag)
    for la, lb in PACKED_LENGTHS:
        for i, shape in enumerate(SHAPES):
            h = HEIGHTS[(i + la) % len(HEIGHTS)]
            a = _shaped(ring, rng, la, shape, h)
            b = _shaped(ring, rng, lb, rng.choice(SHAPES), rng.choice(HEIGHTS))
            # a shorter output is a prefix of the longest one
            want = convolve_schoolbook(ring, a, b, la + lb + 3)
            # n_out below, at and above len(a) + len(b) - 1
            for n in {1, max(la, lb), la + lb - 1, la + lb + 3}:
                got = convolve(ring, a, b, n)
                assert got == want[:n], (la, lb, shape, h, n)
    _assert_each_product_took_its_kernel(calls, ring)


def test_packed_convolve_at_every_slot_width_boundary():
    # all coefficients 10^k - 1: the product's middle slots equal the bound
    # the width is chosen from, so a slot one digit short overflows
    for k in range(1, 25):
        h = 10**k - 1
        for la, lb in ((25, 25), (30, 57)):
            for a, b in (([h] * la, [h] * lb), ([-h] * la, [h] * lb), ([h, -h] * la, [-h] * lb)):
                n = len(a) + len(b) - 1
                assert convolve(ZZ, a, b, n) == convolve_schoolbook(ZZ, a, b, n), (k, la, lb)


def test_packed_convolve_of_5000_terms_checked_by_evaluation():
    rng = random.Random(5000)
    n = 6000
    x = rng.randrange(2, MERSENNE_61 - 1)
    a = [rng.randrange(7) for _ in range(n)]
    b = [rng.randrange(7) for _ in range(n - 17)]
    exact = convolve(ZZ, a, b, n)
    assert evaluate_mod(exact, x) == evaluate_product_mod(a, b, n, x)
    assert convolve(M7, a, b, n) == [v % 7 for v in exact]
    # signed operands of unequal heights, cut below their full length
    a = [rng.randint(-(10**12), 10**9) for _ in range(n)]
    b = [rng.randint(-3, 10**15) for _ in range(n + 999)]
    out = convolve(ZZ, a, b, n)
    assert len(out) == n and evaluate_mod(out, x) == evaluate_product_mod(a, b, n, x)


def test_packed_convolve_of_coefficients_past_the_int_str_limit():
    # 5,000-digit coefficients: CPython will not turn such an int into text
    # or back under its default limit, and the product must still be exact
    rng = random.Random(4300)
    big = 10**5000
    a = [rng.randint(-big, big) for _ in range(30)]
    b = [rng.randint(-big, big) for _ in range(26)]
    a[3] = big - 1
    for n in (26, 55, 60):
        assert convolve(ZZ, a, b, n) == convolve_schoolbook(ZZ, a, b, n)
    assert convolve(M7, [x % 7 for x in a], [x % 7 for x in b], 55) == [
        x % 7 for x in convolve_schoolbook(ZZ, a, b, 55)
    ]


@pytest.mark.parametrize(
    "ring, lead",
    [(ZZ, -1), (QQ, Fraction(-3, 4)), (ModRing(12), 5), (QUAD, QuadInt(-1, 0))],
    ids=("int", "rat", "mod12", "quad"),
)
def test_invert_across_the_cutoff_is_a_two_sided_inverse(ring, lead):
    # Newton steps at every size from schoolbook to packed, the half-size
    # second product included; checked with the schoolbook oracle
    rng = random.Random(ring.tag)
    one = ring.one
    for T in (1, 2, 3, 24, 25, 26, 49, 50, 51, 97, 300):
        rest = _shaped(ring, rng, T, "mixed", 99)[1:]
        f = QSeries(ring, 5, [lead] + rest)
        inv = f.invert()
        assert inv.T == T and inv.offset24 == -5
        want = [one] + [ring.zero] * (T - 1)
        assert convolve_schoolbook(ring, f.coeffs, inv.coeffs, T) == want, T
        assert convolve_schoolbook(ring, inv.coeffs, f.coeffs, T) == want, T


# ---- lacunary and dilated operands: the nonzero-count dispatch ----

# (support of a, len(a), support of b, len(b)): lacunary times lacunary,
# short dense times lacunary in both orders (the dispatch must count the
# nonzeros of both), dense times dilated, k-sparse pairs just at and just
# past the schoolbook cutoff, an all-zero operand against a dense one, a
# dense times 30-sparse pair, whose worst slot over Z/m is exactly the
# width's bound min(nnz a, nnz b) (m - 1)^2 = 30 (m - 1)^2, and two dense
# operands past the shift-add cutoff.  A kind ending in "+" has only
# nonnegative values: over Z, Q and Z[sqrt(-3)] it still never reaches the
# shift-add, which only residue bytes are offered.
LACUNARY_PAIRS = (
    ("pentagonal", 2000, "triangular", 2000),
    ("dense", 40, "triangular", 3000),
    ("triangular", 3000, "dense", 40),
    ("dilated2", 300, "dense", 300),
    ("dense", 200, "dilated7", 1400),
    ("pentagonal", 600, "dilated7", 600),
    ("dilated2", 240, "pentagonal", 2000),
    ("sparse48", 100, "sparse50", 100),
    ("sparse48", 100, "sparse51", 100),
    ("sparse5", 500, "dense", 500),
    ("zero", 300, "dense", 300),
    ("dense", 300, "zero", 120),
    ("dense", 300, "sparse30", 300),
    ("dense+", 300, "sparse30+", 300),
    ("dilated7+", 700, "dense+", 250),
    ("dense", 300, "dense", 280),
)


def _support(rng, n: int, kind: str) -> list[int]:
    """Indices below n of one lacunary shape."""
    kind = kind.removesuffix("+")
    if kind == "pentagonal":  # Euler's product: j(3j -+ 1)/2
        return sorted({j * (3 * j + s) // 2 for j in range(n) for s in (-1, 1)} & set(range(n)))
    if kind == "triangular":  # Jacobi's eta^3: j(j + 1)/2
        return [e for e in (j * (j + 1) // 2 for j in range(n)) if e < n]
    if kind.startswith("dilated"):
        return list(range(0, n, int(kind[len("dilated") :])))
    if kind.startswith("sparse"):
        return sorted(rng.sample(range(n), int(kind[len("sparse") :])))
    return list(range(n)) if kind == "dense" else []


def _on_support(ring, rng, n: int, kind: str, h: int) -> list:
    """n coefficients of `ring`, zero off the support of `kind` and at the
    edge height +-h (h alone for a kind ending in "+"; the largest residue
    mod m) on it."""
    def edge():
        return h if kind.endswith("+") else rng.choice((-h, h))

    xs = [ring.zero] * n
    for i in _support(rng, n, kind):
        if ring == ZZ:
            xs[i] = edge()
        elif ring == QQ:
            xs[i] = Fraction(edge(), rng.choice((1, 2, 3, 4, 6, 12)))
        elif ring == QUAD:
            xs[i] = QuadInt(edge(), edge())
        else:
            xs[i] = ring.modulus - 1
    return xs


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.tag)
def test_lacunary_convolve_matches_schoolbook_and_takes_the_nnz_kernel(ring, monkeypatch):
    # each integer product goes to the kernel its nonzero counts, lengths
    # and values call for (`_rule`), and every kernel that ring is offered
    # runs; either way it equals the generic oracle
    calls = _record_kernels(monkeypatch)
    rng = random.Random(f"lacunary {ring.tag}")
    for k, (kind_a, la, kind_b, lb) in enumerate(LACUNARY_PAIRS):
        h = HEIGHTS[k % len(HEIGHTS)]
        a = _on_support(ring, rng, la, kind_a, h)
        b = _on_support(ring, rng, lb, kind_b, h)
        # the oracle skips a's zeros only, so the sparser operand goes first;
        # a shorter output is a prefix of its longest one
        x, y = (a, b) if not kind_a.startswith("dense") else (b, a)
        want = convolve_schoolbook(ring, x, y, la + lb + 3)
        # n_out below, at and above len(a) + len(b) - 1
        for n in (1, min(la, lb), max(la, lb) + 1, la + lb - 1, la + lb + 3):
            assert convolve(ring, a, b, n) == want[:n], (kind_a, kind_b, n)
    _assert_each_product_took_its_kernel(calls, ring)


# ---- the class sum: products added before one unpack ----


@st.composite
def _sum_operands(draw, ring):
    """Empty, all-zero, lacunary or dense operands: residues over Z/m, signed
    over Z, so the packed path offsets them."""
    kind = draw(st.sampled_from(("empty", "zero", "lacunary", "dense")))
    if kind == "empty":
        return []
    n = draw(st.integers(1, 70))
    if ring == ZZ:
        value = st.integers(-(10**6), 10**6)
    else:
        value = st.integers(0, ring.modulus - 1)
    if kind == "zero":
        return [0] * n
    if kind == "dense":
        return draw(st.lists(value, min_size=n, max_size=n))
    xs = [0] * n
    for i in draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 8))):
        xs[i] = draw(value)
    return xs


def _sum_of_schoolbook_products(ring, pairs, n: int) -> list:
    want = [ring.zero] * n
    for a, b in pairs:
        # the oracle skips the zeros of its first operand
        x, y = sorted((a, b), key=lambda v: len(v) - v.count(0))
        want = [ring.add(u, v) for u, v in zip(want, convolve_schoolbook(ring, x, y, n))]
    return want


@st.composite
def _sum_pairs(draw):
    ring = draw(st.sampled_from([ZZ] + [ModRing(p) for p in (2, 3, 5, 7, 11, 13)]))
    pairs = draw(
        st.lists(
            st.tuples(_sum_operands(ring), _sum_operands(ring)),
            max_size=4,
        )
    )
    return ring, pairs


_TOP = [12] * 40
_BIASED = [-9 if i % 10 == 0 else 0 for i in range(300)]


@given(_sum_pairs())
@settings(max_examples=150, deadline=None)
# every slot of 12 x 12 products over Z/13: slot 39 sums 40 products of the
# first pair and 39 of the second, one slot up behind its leading zero, so it
# equals the width's bound (40 + 39) 144 = 11376, all five digits of w
@example((ModRing(13), [(_TOP, _TOP), ([0] + _TOP[:39], _TOP)]))
# a signed lacunary operand: a - lo, the text it is packed from, has 271
# nonzero terms, not 30, and the exact value its repunit term restores has 30
@example((ZZ, [([0] + _BIASED, [9] * 300)]))
@example((ModRing(7), []))
def test_convolve_sum_matches_the_sum_of_shifted_schoolbook_products(case):
    ring, pairs = case
    top = max((len(a) + len(b) - 1 for a, b in pairs), default=1)
    # n_out below, at and above the longest len(a) + len(b) - 1
    for n in sorted({1, max(top // 2, 1), top - 1 or 1, top, top + 3}):
        assert convolve_sum(ring, pairs, n) == _sum_of_schoolbook_products(ring, pairs, n), n


def test_convolve_sum_takes_only_z_and_z_mod_m():
    with pytest.raises(ValueError, match="needs Z or Z/m"):
        convolve_sum(QQ, [([Fraction(1, 2)], [Fraction(1, 3)])], 1)


# ---- the one nonzero-term product loop ----


def _terms(xs: list[int]) -> list[tuple[int, int]]:
    return [(i, x) for i, x in enumerate(xs) if x]


@given(
    st.lists(st.integers(-9, 9), max_size=30),
    st.lists(st.integers(-9, 9), max_size=30),
    st.integers(1, 70),
    st.integers(0, 1),
)
@settings(max_examples=150, deadline=None)
# empty rows on either side; an out of one term, the shifted row then past
# it; rows cut at the output, with a zero at the cut
@example([], [1, 2], 5, 0)
@example([3, 0, 1], [], 5, 1)
@example([1, 2, 3], [4, 5], 1, 0)
@example([1, 2, 3], [4, 5], 1, 1)
@example([0, 2] * 10, [1, 0, 3] * 10, 12, 1)
@example([5] * 30, [0, -7] * 15, 30, 0)
def test_add_products_matches_the_schoolbook(a, b, n, shift):
    # it adds into what out holds, shift places up, and stops at its end
    out = [4] * n
    qseries._add_products(out, _terms(a), _terms(b), shift)
    want = [0] * shift + convolve_schoolbook(ZZ, a, b, max(n - shift, 0))
    assert out == [4 + x for x in want[:n]]


def test_the_dense_schoolbook_runs_through_the_one_product_loop(monkeypatch):
    rows = []
    add_products = qseries._add_products

    def counting(out, terms_a, terms_b, shift=0):
        terms_a = list(terms_a)
        rows.append((len(out), terms_a, terms_b, shift))
        return add_products(out, terms_a, terms_b, shift)

    monkeypatch.setattr(qseries, "_add_products", counting)
    a, b = [0, 2, 0, -1], [3, 0, 0, 5, 1]
    assert qseries._convolve_int_schoolbook(a, b, 6) == convolve_schoolbook(ZZ, a, b, 6)
    assert rows == [(6, _terms(a), _terms(b), 0)]


# ---- the shift-add kernel: a dense operand times a sparse one ----

BITS = qseries._SHIFT_ADD_BITS
# the most nonzero terms a sparse operand may have for the shift-add in
# 16-bit slots (residues mod 13 meet in them) and in 64-bit ones
K16, K64 = BITS // 16, BITS // 64
# moduli whose residues take the shift-add: small primes, the paper's 7 and
# 11, and the largest two of the byte path, whose products need 16 bits
SHIFT_MODULI = (2, 3, 5, 7, 11, 13, 127, 128)


@st.composite
def _shift_add_case(draw):
    """(ring, pairs, due, lane): over Z/m, m in SHIFT_MODULI, one to three
    pairs of a dense operand (residues in [1, m - 1]) and a sparse one, and
    the least slot width in bits the shift-add total is given (8 leaves it
    to the slot bound; 16 to 64 force wider lanes through `_slot_bits`).
    The sparse one has from one nonzero term up to the most the shift-add
    takes with the pairs before it, never more than the dense one has,
    index 0 and the last index among them as drawn.  Then maybe a lacunary
    pair for the schoolbook.  `due` names each pair's kernel."""
    m = draw(st.sampled_from(SHIFT_MODULI))
    lane = draw(st.sampled_from((8, 16, 32, 64)))
    top = m - 1
    value = st.integers(1, top)
    pairs, due = [], []
    slot = 0  # the worst slot of the shift-add total so far
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 300))
        dense = draw(st.lists(value, min_size=n, max_size=n))
        k = draw(st.integers(1, 300))
        limit = max(
            j for j in range(1, min(n, k) + 1)
            if j * max(lane, _width(slot + j * top * top)) <= BITS
        )
        support = set(draw(st.sampled_from([(), (0,), (k - 1,), (0, k - 1)]))[:limit])
        for i in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=limit, unique=True)):
            if len(support) < limit:
                support.add(i)
        sparse = [0] * k
        for i in support:
            sparse[i] = draw(value)
        slot += len(support) * top * top
        pair = (dense, sparse) if draw(st.booleans()) else (sparse, dense)
        pairs.append(pair)
        due.append("shift")
    if draw(st.booleans()):
        a, b = [0] * 200, [0] * 200
        a[0] = b[199] = a[77] = b[5] = top
        pairs.append((a, b))
        due.append("schoolbook")
    return ModRing(m), pairs, due, lane


def _ones(n: int, at, y: int = 1) -> list[int]:
    xs = [0] * n
    for i in at:
        xs[i] = y
    return xs


M127 = ModRing(127)


@given(_shift_add_case())
@settings(max_examples=100, deadline=None)
# worst slots of exactly 2^8 - 1 and 2^16 - 1 (mod 127, so no residue is
# reduced): 3 terms of 5 against a dense 17, met at slot 2 onwards, and 255
# terms of 15 and then 2 more against a dense 17, met at slot 254 onwards
# (an operand one slot up is written with a leading zero)
@example((M127, [([17] * 20, [5, 5, 5])], ["shift"], 8))
@example((M127, [([0] + [17] * 30, [5, 5, 5])], ["shift"], 8))
@example((M127, [([17] * 300, [15] * 255), ([17] * 300, [15, 15])], ["shift"] * 2, 8))
# the sum over pairs: 120 + 135 = 2^8 - 1, and 128 + 128 = 2^8, which needs
# the next width though each pair alone fits in 8 bits; over Z/13 two
# 144s, one of them a slot up, meet in a slot of 288
@example((M127, [([15] * 20, [4, 4]), ([9] * 20, [5, 5, 5])], ["shift"] * 2, 8))
@example((M127, [([8] * 20, [8, 8]), ([0] + [8] * 20, [8, 8])], ["shift"] * 2, 8))
@example((ModRing(13), [([12] * 30, [12]), ([0] + [12] * 30, [0, 0, 12])], ["shift"] * 2, 8))
# the most nonzero terms the shift-add takes, index 0 and the last among
# them, in 16-bit slots (mod 13) and in 64-bit ones, forced; one more goes
# to the decimal multiply
@example((ModRing(13), [([0] + [12] * 300, _ones(300, [*range(K16 - 1), 299], 12))], ["shift"], 8))
@example((ModRing(13), [([12] * 300, _ones(300, range(K16 + 1), 12))], ["decimal"], 8))
@example((M7, [([6] * 100, _ones(100, [*range(K64 - 1), 99], 6))], ["shift"], 64))
@example((M7, [([0] + [6] * 100, _ones(100, range(K64 + 1), 6))], ["decimal"], 64))
# an all-zero sparse side never reaches the shift-add: it has no term to
# shift, and the schoolbook makes its zero product
@example(
    (ModRing(128), [([0] * 50, [127 - i for i in range(50)]), ([0] + [3] * 9, [1])], ["schoolbook", "shift"], 8)
)
# over Z no pair reaches the shift-add, a nonnegative dense-times-sparse
# one neither: the schoolbook takes a sparse pair, the decimal multiply a
# dense one, signed or not
@example((ZZ, [([17] * 20, [5, 5, 5])], ["schoolbook"], 8))
@example((ZZ, [([2**40] * 100, _ones(100, [*range(K64 - 1), 99]))], ["decimal"], 8))
@example((ZZ, [([3] * 7 + [-1] + [3] * 32, [0, 2, 0, 2])], ["schoolbook"], 8))
@example((ZZ, [([3] * 39 + [-1], [2] * 40)], ["decimal"], 8))
@example((ZZ, [([1], [1]), ([0] * 41, [-1] * 40)], ["schoolbook"] * 2, 8))
# one sum over Z/7 mixing all three kernels
@example(
    (
        M7,
        [
            ([0] + [6] * 60, _ones(9, (0, 3, 8), 6)),
            (_ones(200, (0, 77), 6), _ones(200, (5, 199), 6)),
            ([0] + [(i * i) % 7 or 1 for i in range(260)], [(3 * i) % 7 or 6 for i in range(270)]),
        ],
        ["shift", "schoolbook", "decimal"],
        8,
    )
)
def test_shift_add_pairs_match_the_sum_of_shifted_schoolbook_products(case):
    ring, pairs, due, lane = case
    top = max(len(a) + len(b) - 1 for a, b in pairs)
    want = _sum_of_schoolbook_products(ring, pairs, top + 3)
    slot_bits = qseries._slot_bits

    def at_least_lane(bound):
        bits = slot_bits(bound)
        return bits and max(lane, bits)

    ran = Counter()

    def counting(name, kernel, per_call):
        def wrapped(*args):
            ran[name] += per_call(args)
            return kernel(*args)

        return mock.patch.object(qseries, kernel.__name__, wrapped)

    with mock.patch.object(qseries, "_slot_bits", at_least_lane):
        # n_out below, at and above the longest len(a) + len(b) - 1
        for n in sorted({1, max(top // 2, 1), top - 1 or 1, top}):
            assert convolve_sum(ring, pairs, n) == want[:n], n
        # the whole sum: each pair, none cut, takes the kernel it is due
        with counting("shift", qseries._convolve_shift_add, lambda args: len(args[0])), counting(
            "decimal", qseries._convolve_decimal, lambda args: len(args[0])
        ), counting("schoolbook", qseries._convolve_int_schoolbook, lambda args: 1):
            assert convolve_sum(ring, pairs, top + 3) == want
    assert ran == Counter(due)


def test_a_quick_suite_sends_only_residue_bytes_to_the_shift_add(monkeypatch):
    # the suite's products mod 7 and mod 11 reach the shift-add as checked
    # residue bytes; its products over Z, nonnegative dense-times-sparse
    # ones too, take the schoolbook or the decimal kernel.  Every kernel
    # runs
    ran, shifted = Counter(), Counter()

    def wrap(name):
        kernel = getattr(qseries, name)

        def wrapped(*args):
            ran[KERNELS[name]] += 1
            if name == "_convolve_shift_add":
                shifted.update(type(x).__name__ for pair in args[0] for x in pair)
            return kernel(*args)

        monkeypatch.setattr(qseries, name, wrapped)

    for name in KERNELS:
        wrap(name)
    reports = diamond.run_suite(diamond.SuiteConfig.quick(), Cache(None))
    assert all(r.passed for r in reports)
    assert set(shifted) == {"bytes"}, shifted
    assert set(ran) == set(KERNELS.values()), ran


# ---- the decimal kernel's decode: 32-bit lanes, else one int per slot ----

# lane widths up to 9 digits, the lane/int boundary at 9 and 10, and the
# int/Decimal boundary at 640 and 641, the int-to-str threshold
DECODE_WIDTHS = (1, 2, 3, 4, 5, 9, 10, 19, 20, 24, 33, 640, 641)


def _numeral(rng, w: int, n: int) -> str:
    """n w-digit slots, most significant first: random ones, with an
    all-nines slot 10^w - 1 and an all-zero one at each end."""
    digits = "".join(rng.choices("0123456789", k=n * w))
    slots = [digits[i : i + w] for i in range(0, n * w, w)]
    for i in {0, n // 2}:
        slots[i] = "9" * w
    for i in {n - 1, n // 3} - {0, n // 2}:
        slots[i] = "0" * w
    return "".join(slots)


@pytest.mark.parametrize("w", DECODE_WIDTHS)
@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_unpack_matches_the_per_slot_parse(w, n):
    rng = random.Random(f"unpack {w} {n}")
    text = _numeral(rng, w, n)
    assert qseries._unpack(text, w, n) == unpack_per_slot(text, w, n)
    # slots above the n read: the total is longer than its kept part
    longer = _numeral(rng, w, 3) + text
    assert qseries._unpack(longer, w, n) == unpack_per_slot(text, w, n)
    # a numeral shorter than n w digits is zero-filled: its top slots are 0
    short = ("9" + text)[: max(1, len(text) // 2)]
    assert qseries._unpack(short, w, n) == unpack_per_slot(short, w, n)
    assert qseries._unpack("0", w, n) == [0] * n


@pytest.mark.parametrize("w", DECODE_WIDTHS[:-1])
def test_unpack_of_the_extreme_slots(w):
    assert qseries._unpack("0" * w, w, 1) == [0]
    assert qseries._unpack("9" * w, w, 1) == [10**w - 1]
    assert qseries._unpack("9" * (3 * w), w, 3) == [10**w - 1] * 3


@pytest.mark.parametrize("w", [1, 9, 10, 20])
@pytest.mark.parametrize("n", [1, 4_095, 4_096, 4_097, 8_193])
def test_unpack_across_the_block_boundaries(w, n):
    # long numerals, either side of 4,096 and 8,192 slots: the most
    # significant slot is 10^w - 1 and, past one slot, the least is 0, so a
    # lane or parse that drops or shifts one slot shows at an end
    rng = random.Random(f"block {w} {n}")
    text = _numeral(rng, w, n)
    got = qseries._unpack(text, w, n)
    assert got == unpack_per_slot(text, w, n)
    assert got[-1] == 10**w - 1 and (n == 1 or got[0] == 0)


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 9])
def test_unpack_reads_words_in_either_byte_order(w, monkeypatch):
    # slots of at most 9 digits go out as little-endian 32-bit lanes; a
    # big-endian host reads each byte-reversed, and `_words` swaps it back.
    # On a host of the other order that same branch shows as every value
    # byte-reversed in its 4-byte lane
    rng = random.Random(f"byte order {w}")
    n = 300
    text = _numeral(rng, w, n)
    want = unpack_per_slot(text, w, n)
    assert qseries._unpack(text, w, n) == want
    other = {"little": "big", "big": "little"}[sys.byteorder]
    words = qseries._words
    monkeypatch.setattr(qseries, "_words", lambda lanes: words(lanes, other))
    swapped = qseries._unpack(text, w, n)
    assert [int.from_bytes(v.to_bytes(4, "little"), "big") for v in swapped] == want


def test_decode_is_exact_under_the_strictest_int_to_str_limit(monkeypatch):
    # 640 digits is the lowest limit CPython allows: an int parse of a
    # 641-digit slot, or str() of an int that wide, raises under it
    widths = []
    unpack = qseries._unpack

    def recording(digits, w, n):
        widths.append(w)
        return unpack(digits, w, n)

    monkeypatch.setattr(qseries, "_unpack", recording)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rng = random.Random("strict limit")
        for w in (640, 641):
            text = _numeral(rng, w, 5)
            assert unpack(text, w, 5) == unpack_per_slot(text, w, 5), w
        # 30 dense terms each, a signed, so the decimal kernel's slots hold
        # 2 * 30 top^2: 641, 2,002 and 4,300 digits
        for top in (2 * 10**319, 10**1000, 10**2149):
            a = [-top, *(rng.randrange(-top, top + 1) for _ in range(29))]
            b = [top, *(rng.randrange(top + 1) for _ in range(29))]
            assert convolve(ZZ, a, b, 50) == convolve_schoolbook(ZZ, a, b, 50)
    finally:
        sys.set_int_max_str_digits(limit)
    assert widths == [641, 2_002, 4_300]


# ---- the decimal kernel's signed offset ----


def _count_decimal_calls(monkeypatch) -> list:
    """The number of pairs in each call of the decimal kernel, as made."""
    ran = []
    convolve_decimal = qseries._convolve_decimal

    def counted(*args):
        ran.append(len(args[0]))
        return convolve_decimal(*args)

    monkeypatch.setattr(qseries, "_convolve_decimal", counted)
    return ran


# (shape of a, shape of b): all-negative, mixed and one-nonzero operands
SIGNED_SHAPES = (
    ("negative", "negative"),
    ("negative", "mixed"),
    ("mixed", "mixed"),
    ("one", "negative"),
    ("one", "mixed"),
    ("one", "one"),
    ("edge-negative", "edge"),
)


@pytest.mark.parametrize("ring", [ZZ, QQ, QUAD], ids=lambda r: r.tag)
@pytest.mark.parametrize("shapes", SIGNED_SHAPES, ids="-".join)
def test_signed_products_through_the_decimal_kernel(ring, shapes, monkeypatch):
    # every integer product is sent to the decimal kernel, one-nonzero
    # operands too, which alone would go to the schoolbook
    ran = _count_decimal_calls(monkeypatch)
    monkeypatch.setattr(qseries, "_kernel", lambda *args: "decimal")
    rng = random.Random(f"signed {ring.tag} {shapes}")
    for h in HEIGHTS:
        for la, lb in ((1, 1), (1, 30), (40, 40), (57, 23)):
            a = _shaped(ring, rng, la, shapes[0], h)
            b = _shaped(ring, rng, lb, shapes[1], h)
            want = convolve_schoolbook(ring, a, b, la + lb + 2)
            for n in {1, min(la, lb), la + lb - 1, la + lb + 2}:
                assert convolve(ring, a, b, n) == want[:n], (h, la, lb, n)
    assert ran


def _at_the_signed_bound(ring, xs: list[int]) -> list:
    if ring == QQ:
        return [Fraction(x) for x in xs]
    if ring == QUAD:
        return [QuadInt(x, 0) for x in xs]
    return xs


# (n, h): the middle slot of n terms of +-h times n of +-h is n h^2, the
# signed bound itself, whose leading digit is 5 or more, so a width for the
# bound not doubled leaves no room for the offset: 640, 5000 = 5 10^3,
# 31 127^2 = 5 10^5 - 1, 540, 9 10^19 and 5 10^41
AT_THE_BOUND = ((40, 4), (50, 10), (31, 127), (60, 3), (90, 10**9), (50, 10**20))


@pytest.mark.parametrize("ring", [ZZ, QQ, QUAD], ids=lambda r: r.tag)
@pytest.mark.parametrize("n, h", AT_THE_BOUND)
def test_signed_slots_exactly_at_the_bound(ring, n, h, monkeypatch):
    ran = _count_decimal_calls(monkeypatch)
    for sa, sb in ((-1, -1), (1, -1), (-1, 1)):
        a = _at_the_signed_bound(ring, [sa * h] * n)
        b = _at_the_signed_bound(ring, [sb * h] * n)
        got = convolve(ring, a, b, 2 * n - 1)
        assert got == convolve_schoolbook(ring, a, b, 2 * n - 1), (sa, sb)
        assert got[n - 1] == ring.from_int(sa * sb * n * h * h)
    assert ran


@pytest.mark.parametrize("order", ["signed first", "signed last"])
def test_convolve_sum_mixes_a_signed_pair_with_a_nonnegative_one(order, monkeypatch):
    # both pairs go to the decimal kernel, the nonnegative one because its
    # slots pass 64 bits: one signed total, offset once for both
    ran = _count_decimal_calls(monkeypatch)
    rng = random.Random(order)
    h = 10**12
    signed = ([rng.randint(-h, h) for _ in range(70)], [-h] * 40 + [rng.randint(-h, 0) for _ in range(25)])
    nonnegative = ([0] + [h] * 60, [rng.randint(0, h) for _ in range(80)])
    pairs = [signed, nonnegative] if order == "signed first" else [nonnegative, signed]
    top = max(len(a) + len(b) - 1 for a, b in pairs)
    for n in (64, top, top + 2):
        assert convolve_sum(ZZ, pairs, n) == _sum_of_schoolbook_products(ZZ, pairs, n), n
    assert ran == [2] * 3


# ---- Z/m operands as bytes: residues checked, packed and decoded ----

# moduli whose residues take the byte path: 2, the paper's 7 and 11, 13,
# and the largest two (127 and 128), whose residues still add in pairs
# within a byte
BYTE_MODULI = (2, 7, 11, 13, 127, 128)
# and moduli of one byte past it, whose sums are made over Z and reduced once
WIDE_MODULI = (255, 256)
LANE_BYTES = (1, 2, 4, 8)


@st.composite
def _residue_sum(draw):
    """(m, pairs, kernel, lane): over Z/m, m in BYTE_MODULI or WIDE_MODULI,
    one to three pairs of residue operands of 1 to 70 terms (dense, with at
    most three nonzero terms, or all m - 1); a kernel to force on every
    product, the shift-add only for a modulus of the byte path, and a lane
    size in bytes for the shift-add total."""
    m = draw(st.sampled_from(BYTE_MODULI + WIDE_MODULI))

    def operand():
        n = draw(st.integers(1, 70))
        kind = draw(st.sampled_from(("dense", "sparse", "top")))
        if kind == "top":
            return [m - 1] * n
        xs = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        if kind == "sparse":
            keep = draw(st.sets(st.integers(0, n - 1), max_size=3))
            xs = [x if i in keep else 0 for i, x in enumerate(xs)]
        return xs

    pairs = [(operand(), operand()) for _ in range(draw(st.integers(1, 3)))]
    offered = ("shift",) if m <= qseries._BYTE_MODULUS else ()
    kernel = draw(st.sampled_from((*offered, "schoolbook", "decimal")))
    return m, pairs, kernel, draw(st.sampled_from(LANE_BYTES))


@given(_residue_sum())
@settings(max_examples=200, deadline=None)
# the largest residue everywhere: every slot of the total is a multiple of
# (m - 1)^2; mod 255 and 256 the same products are made over Z and reduced
# (an operand some slots up is written with leading zeros)
@example((256, [([255] * 70, [255] * 70), ([0, 0] + [255] * 70, [255] * 3)], "decimal", 1))
@example((255, [([0] + [254] * 70, [254] * 70)], "schoolbook", 8))
@example((127, [([0] + [126] * 70, [126] * 70)], "shift", 8))
@example((128, [([127] * 64, [127] * 64)], "shift", 2))
@example((7, [([6] * 70, [6] * 70), ([0] + [1] * 9, [6, 0, 6])], "decimal", 4))
def test_residue_products_match_the_schoolbook_on_every_kernel(case):
    # every product forced onto one kernel, and the shift-add total into
    # lanes of the drawn size (or wider, when its slots need it); the
    # packed kernels are handed the modulus up to 128, so they take the byte
    # path, and no modulus past it, where no shift-add is forced
    m, pairs, kernel, lane = case
    ring = ModRing(m)
    top = max(len(a) + len(b) - 1 for a, b in pairs)
    want = _sum_of_schoolbook_products(ring, pairs, top + 2)
    slot_bits = qseries._slot_bits
    moduli = []

    def recording(kernel_fn):
        def wrapped(*args):
            moduli.append(args[3])
            return kernel_fn(*args)

        return mock.patch.object(qseries, kernel_fn.__name__, wrapped)

    with mock.patch.object(qseries, "_kernel", lambda *args: kernel), mock.patch.object(
        qseries, "_slot_bits", lambda bound: max(8 * lane, slot_bits(bound))
    ), recording(qseries._convolve_shift_add), recording(qseries._convolve_decimal):
        # n_out below, at and above the longest len(a) + len(b) - 1
        for n in sorted({1, max(top // 2, 1), top, top + 2}):
            assert convolve_sum(ring, pairs, n) == want[:n], n
        a, b = pairs[0]
        n = len(a) + len(b) - 1
        assert convolve(ring, a, b, n) == convolve_schoolbook(ring, a, b, n)
    assert moduli == [m if m <= qseries._BYTE_MODULUS else None] * len(moduli)
    assert bool(moduli) == (kernel != "schoolbook")


@pytest.mark.parametrize("m", BYTE_MODULI)
@pytest.mark.parametrize("size", LANE_BYTES)
def test_lane_residues_match_each_lane_mod_m(m, size):
    # every byte of a lane nonzero somewhere, the extreme lanes at both ends
    rng = random.Random(f"lanes {m} {size}")
    top = 256**size - 1
    lanes = [top, 0, 1, m - 1, 255, *(rng.randrange(top + 1) for _ in range(300)), top]
    raw = b"".join(v.to_bytes(size, "little") for v in lanes)
    assert list(qseries._lane_residues(raw, size, m)) == [v % m for v in lanes]


@pytest.mark.parametrize("m", BYTE_MODULI)
# 7, 11 and 13 add up to 42, 25 and 21 columns in one group: widths on both
# sides of each
@pytest.mark.parametrize("w", [1, 2, 3, 7, 21, 22, 25, 26, 42, 43, 60])
def test_digit_residues_match_each_slot_mod_m(m, w):
    rng = random.Random(f"digits {m} {w}")
    n = 50
    text = _numeral(rng, w, n)
    want = [v % m for v in unpack_per_slot(text, w, n)]
    assert list(qseries._digit_residues(text, w, n, m)) == want
    # slots above the n read are cut; a numeral shorter than n w digits is
    # zero-filled
    assert list(qseries._digit_residues(_numeral(rng, w, 2) + text, w, n, m)) == want
    short = text[len(text) // 2 :]
    assert list(qseries._digit_residues(short, w, n, m)) == [v % m for v in unpack_per_slot(short, w, n)]


# k (m - 1) = 255 exactly, with k = 255 // (m - 1) the columns `_fold` adds
# in one group, at m = 2, 16, 52 and 86 (k = 255, 17, 5 and 3); k = 2 at 127
# and 128, the largest modulus of the byte path
FOLD_MODULI = (2, 7, 11, 13, 16, 52, 86, 127, 128)


@pytest.mark.parametrize("m", FOLD_MODULI)
def test_fold_adds_columns_mod_m(m):
    # columns of the largest residue fill each group to k (m - 1), so a
    # group one column larger carries a byte into its neighbour
    k = 255 // (m - 1)
    rng = random.Random(f"fold {m}")
    for count in sorted({1, 2, 3, k, k + 1, 2 * k + 1}):
        cols = [bytes([m - 1] * 40) + bytes(rng.randrange(m) for _ in range(40)) for _ in range(count)]
        want = [sum(lane) % m for lane in zip(*cols)]
        assert list(qseries._fold(cols, m)) == want, count


# the byte path up to 128, and past it moduli of one byte (129, 255, 256),
# one past a byte (257) and one far past it, where the sum is made over Z
# and reduced once
REDUCED_MODULI = (2, 7, 11, 127, 128, 129, 255, 256, 257, 10**30)
# (m, bad): mod 7 a value >= m, a negative value and a value >= 256; 128 mod
# 128; residues mod 129, 255, 256 and 257; then for every modulus above a
# value that is negative, unreduced (m itself, or m + 1 past a byte), past a
# byte, and far past any modulus
NOT_RESIDUES = tuple(
    dict.fromkeys(
        [
            (7, 7), (7, -1), (7, 256), (128, 128), (129, 3), (255, 254), (256, 255), (257, 3),
            *((m, bad) for m in REDUCED_MODULI for bad in (-1, -m - 3, m + 1 if m >= 256 else m, 256 + m, 10**40)),
        ]
    )
)


@pytest.mark.parametrize("m, bad", NOT_RESIDUES)
def test_operands_that_are_not_residues_take_the_integer_path(m, bad, monkeypatch):
    # bad beside residues in each of a dense, a sparse and a lacunary
    # operand, and an operand of nothing else, whose slots would overflow if
    # it were packed unreduced: alone and in a sum beside a pair of
    # residues, the product is that of the integers given, reduced mod m,
    # whichever kernel makes it.  Up to m = 128 each operand enters as the
    # bytes of its values reduced as integers, never wrapped, and every
    # packed kernel is handed the modulus; past it the sum is made over Z,
    # no kernel is handed the modulus, and it is reduced once
    moduli = []
    for name in ("_convolve_shift_add", "_convolve_decimal"):
        kernel = getattr(qseries, name)

        def wrapped(*args, kernel=kernel):
            moduli.append(args[3])
            return kernel(*args)

        monkeypatch.setattr(qseries, name, wrapped)
    rng = random.Random(f"not residues {m} {bad}")
    ring = ModRing(m)
    top = min(m, 256)
    dense = [rng.randrange(top) for _ in range(200)]
    sparse = _ones(200, (0, 100, 199), top - 1)
    lacunary = _ones(200, (3, 150), 1)
    residues = _sum_of_schoolbook_products(ZZ, [(dense, sparse)], 400)
    products = []
    for first, other in ((dense, dense), (dense, sparse), (lacunary, lacunary), ([bad] * 200, dense)):
        a = list(first)
        a[rng.randrange(200)] = bad
        if m <= qseries._BYTE_MODULUS:
            assert qseries._residues(a, m) == bytes(x % m for x in a)
        exact = _sum_of_schoolbook_products(ZZ, [(other, a)], 400)
        products.append((a, other, exact))
        got = convolve_sum(ring, [(dense, sparse), (other, a)], 400)
        assert got == [(x + y) % m for x, y in zip(residues, exact)]
    # alone, each product takes the kernel `_rule` names for the operands
    # the kernels are handed: reduced up to 128, as given past it
    calls = _record_kernels(monkeypatch)
    for a, other, exact in products:
        assert convolve(ring, a, other, 400) == [x % m for x in exact], a
    assert [kernel for kernel, *_ in calls] == [_rule(a, b, m) for _, a, b, m in calls]
    assert moduli and moduli == [m if m <= qseries._BYTE_MODULUS else None] * len(moduli)


def test_residues_are_checked_not_trusted():
    assert qseries._residues([0, 6, 3], 7) == bytes([0, 6, 3])
    assert qseries._residues([], 7) == b""
    assert qseries._residues([127, 0], 128) == bytes([127, 0])
    # a value outside [0, m) comes back reduced, never wrapped into a wrong
    # residue: past a byte by `% m`, inside one by a translate
    for xs in ([0, 7], [-1], [256, 3], [10**30], [-(10**30), 255], [128, 255, 129]):
        for m in (2, 7, 128):
            assert qseries._residues(xs, m) == bytes([x % m for x in xs]), (xs, m)
    # a value that is not an int is an error, before or after a value that
    # needs reducing
    for xs in ([Fraction(1, 2)], [1.0], [300, Fraction(1, 2)], [3, 2.0]):
        with pytest.raises(TypeError):
            qseries._residues(xs, 7)


def test_large_products_stay_within_the_traced_peak_of_the_per_slot_parse():
    # two 100,001-term products, as perfbench's large kernels operands: one
    # over Z/7, one over Z with operands in [0, 76].  With one int parse per
    # slot they peaked at 6.18 and 6.95 MB of traced memory (Python 3.11),
    # and at 3.94 and 4.93 MB while the decimal total's 0.9 MB numeral was
    # held through its decode; now at 3.94 and 4.36 MB.  The bounds leave
    # room for other allocators and decimal builds (a fifth and a tenth);
    # the second still fails a numeral held through the decode
    n = 100_001
    rng = random.Random(1)
    a = [rng.randrange(77) for _ in range(n)]
    b = [rng.randrange(77) for _ in range(n)]
    outs, peaks = [], []
    for ring, x, y in ((M7, [v % 7 for v in a], [v % 7 for v in b]), (ZZ, a, b)):
        tracemalloc.start()
        try:
            outs.append(convolve(ring, x, y, n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4_700_000 and peaks[1] <= 4_850_000, peaks
    point = rng.randrange(2, MERSENNE_61 - 1)
    assert evaluate_mod(outs[1], point) == evaluate_product_mod(a, b, n, point)
    assert outs[0] == [v % 7 for v in outs[1]]


# ---- mutation sanity for the container ----


def test_mutate_helper_changes_exactly_one_coefficient():
    f = S([1, 2, 3])
    g = mutate(f, 1)
    assert g.coeffs == [1, 3, 3] and f.coeffs == [1, 2, 3]


# ---- dump / load ----


@given(st.data())
@settings(max_examples=40)
def test_dump_round_trip_all_rings(data):
    ring = data.draw(st.sampled_from(ALL_RINGS))
    f = data.draw(series_over(ring, max_T=8))
    assert loads(dumps(f)) == f


def test_dump_header_format():
    f = QSeries(QUAD, 3, [QuadInt(1, -2)])
    text = dumps(f)
    assert text.splitlines()[0] == "qseries v1 ring=quad offset24=3 T=1"
    assert text.splitlines()[1] == "1,-2"


def test_load_rejects_bad_header_and_truncated_body():
    with pytest.raises(ValueError, match="header"):
        loads("nope\n")
    with pytest.raises(ValueError, match="truncated"):
        loads("qseries v1 ring=int offset24=0 T=3\n1\n2\n")
    with pytest.raises(ValueError, match="after its 3 coefficients"):
        loads("qseries v1 ring=int offset24=0 T=3\n1\n2\n3\n4\n")
    with pytest.raises(ValueError):
        loads("qseries v1 ring=int offset24=0 T=3\n1\n\n3\n")
    # a missing or unknown header field
    with pytest.raises(ValueError, match="header"):
        loads("qseries v1 a=1 b=2 c=3\n")
    with pytest.raises(ValueError, match="header"):
        loads("qseries v1 ring=int offset24=0 X=3\n0\n")
    # a header field without "="
    with pytest.raises(ValueError, match="header"):
        loads("qseries v1 ring=int offset24 T=1\n0\n")


@pytest.mark.parametrize(
    "fields",
    [
        "ring=int offset24=\u0663 T=1",  # an Arabic-Indic 3
        "ring=int offset24=+3 T=1",
        "ring=int offset24=1_0 T=1",
        "ring=int offset24=0 T=1_0",
        "ring=int offset24=0 T=\u0662",
        "ring=int offset24=0 T=-1",
        "ring=int offset24=0 T=0",
        "ring=mod:\u0667 offset24=0 T=1",  # an Arabic-Indic 7
        "ring=mod:7_0 offset24=0 T=1",
        "ring=mod:+7 offset24=0 T=1",
        "ring=mod: offset24=0 T=1",
    ],
)
def test_load_reads_header_numbers_as_ascii_integers(fields):
    # int() accepts Unicode digits, "+" and "_": given the lines it would
    # read T as, each header would otherwise load
    lines = max(int(fields.rpartition("T=")[2]), 0)
    with pytest.raises(ValueError, match="header|ring tag"):
        loads(f"qseries v1 {fields}\n" + "5\n" * lines)


def test_mod_ring_data_enters_reduced():
    # the constructor trusts its caller; outside data is reduced on entry
    assert loads("qseries v1 ring=mod:7 offset24=0 T=2\n8\n-1\n").coeffs == [1, 6]
    assert QSeries.from_ints(ModRing(7), [8, -1]).coeffs == [1, 6]


# the table codec: over Z/m with m <= T, lines map through one table of
# residues; short series and every other ring go one line at a time
CODEC_RINGS = (ZZ, QQ, QUAD, M7, ModRing(11), ModRing(12), ModRing(2), ModRing(10**30))


@given(st.data())
@settings(max_examples=80)
def test_dumps_matches_the_per_line_writer_all_rings(data):
    ring = data.draw(st.sampled_from(CODEC_RINGS))
    f = data.draw(series_over(ring, max_T=40))
    assert dumps(f) == dumps_per_line(f)


@pytest.mark.parametrize("ring", CODEC_RINGS, ids=repr)
def test_long_dumps_and_loads_match_the_per_line_oracles(ring):
    rng = random.Random(12)
    elems = {
        ZZ: lambda: rng.randint(-10**20, 10**20),
        QQ: lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 24)),
        QUAD: lambda: QuadInt(rng.randint(-99, 99), rng.randint(-99, 99)),
    }
    draw = elems.get(ring, lambda: rng.randrange(ring.modulus))
    f = QSeries(ring, -5, [draw() for _ in range(300)])
    assert dumps(f) == dumps_per_line(f)
    # prefixes on both sides of each modulus, where the codec switches between
    # its table and the per-line parser
    for T in (1, 6, 7, 11, 299, 300):
        text = dumps(f.truncate(T))
        got = loads(text)
        assert got.ring == ring and got.offset24 == -5
        assert got.coeffs == loads_per_line(text, ring) == f.coeffs[:T]


# non-canonical residue lines, each still entering reduced into [0, m)
_ODD_LINES = ["8", "-1", "07", "+3", " 5", "6 ", "-0", "700", "0", "6", "1"]


@pytest.mark.parametrize("n", [3, 11, 40])
@pytest.mark.parametrize("prefix", [None, 1, 2, 10, 11, 12])
def test_mod_loads_matches_the_per_line_parser_on_non_canonical_lines(n, prefix):
    # a dump of the first `prefix` of n lines (all of them for None)
    T = n if prefix is None else min(n, prefix)
    lines = [_ODD_LINES[i % len(_ODD_LINES)] for i in range(T)]
    for last_newline in ("\n", ""):
        text = f"qseries v1 ring=mod:7 offset24=0 T={T}\n" + "\n".join(lines) + last_newline
        got = loads(text)
        assert got.coeffs == loads_per_line(text, M7)
        assert all(0 <= c < 7 for c in got.coeffs)


@pytest.mark.parametrize("n", [3, 7, 30])
def test_mod_loads_rejects_an_empty_line(n):
    good = "\n".join(str(i % 7) for i in range(n - 1))
    for body in (f"{good}\n\n", f"\n{good}\n"):
        with pytest.raises(ValueError):
            loads(f"qseries v1 ring=mod:7 offset24=0 T={n}\n{body}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_dumps_bytes_are_pinned():
    from qcong.diamond import c_series, delta_series

    assert _sha256(dumps(delta_series(3, 20000, 7))) == (
        "80cedf40b12b66cea01a47a66313952ef9e475c09bd852be3050f9db1eec9653"
    )
    assert _sha256(dumps(c_series(2000))) == (
        "184ac5903759f9b49ff16b7fdf2526f233c083bde73d1ce2ca6b63457f624665"
    )


def test_delta_progression_dumps_bytes_are_pinned():
    # the bytes of delta_series(3, 384173, 7).extract_progression(7, 5) and
    # delta_series(5, 21996, 11).extract_progression(11, 6), the classes the
    # claims read, as the full builds gave them
    from qcong.diamond import _delta

    delta3 = _delta(None, None, 3, 54882)
    assert _sha256(dumps(delta3)) == (
        "c524b2ab426125987bf6a125171b10e9ac32bd3827fc20ce23d6d7bb3226a4d3"
    )
    delta5 = _delta(None, None, 5, 2000)
    assert _sha256(dumps(delta5)) == (
        "8d711cb736e7734b10f57b09d8167b7f3a5b52c7618754d172e10759619e89a8"
    )


# ---- SpaceTag ----


def test_space_tag_validation():
    tag = SpaceTag(5, 72, -4)
    assert tag.weight == 5
    with pytest.raises(ValueError):
        SpaceTag(5, 0)
    with pytest.raises(ValueError):
        SpaceTag(-1, 7)
