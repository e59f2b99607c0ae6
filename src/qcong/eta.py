"""Dedekind eta and the expansion of eta quotients.

Euler's series prod(1 - q^n), Jacobi's eta(z)^3 = q^(1/8) sum (-1)^k (2k +
1) q^(k(k+1)/2) and Gauss's theta(-q) = eta(z)^2 / eta(2z) = sum (-1)^k
q^(k^2) have index formulas: their nonzero terms are listed, not computed.
A quotient with no negative exponent is a product of such series in q^d
(`_index_formulas`): eta(dz)^e is e // 3 Jacobi cubes and e % 3 Euler
series.  Under a prime p, eta(dz)^a eta(2dz)^b with a in {2, 4} is
theta(-q^d)^(a/2), a/2 of Gauss's series, times f = eta(2dz)^(b + a/2), f
reduced mod p once more, when f is then at most two series: the theta
split (`_theta_split`, the one test of that shape; `_series` lists a
quotient's series either way).  The one rule that expands a product of
series (`_expand`): its first two series meet from their terms in
`qseries`' one nonzero-term product loop, each further series is
multiplied in by `convolve` (a dense operand times a lacunary one, so mod
p <= 128 a byte-lane shift-add), and the loop's sums of two series are
reduced in the ring.

Every eta quotient is expanded by one builder (`_quotient_series`).  Modulo
a prime p the exponents are first reduced once by eta(dz)^p == eta(pdz)
(mod p), which moves large denominators to short inner lengths; modulo
prime powers, composites, and over Z the factors are used as given.  The
builder divides out the gcd of the d's (it builds at the inner length and
dilates) and takes one of three routes.  One factor eta(z)^r is expanded
by the rule and inverted once when r < 0.  A theta split under p is
expanded by the rule, theta(-q^d)'s series first (eq. (1.2)'s left side
eta(z)^4 eta(2z)^6 mod 7 is theta(-q)^2 eta(2z) eta(14z): the loop, then
two shift-adds).  Any other quotient is its factor of least d, the head,
built by the builder at the full length, times the rest R(z^g), g the gcd
of the rest's d's, R built by the builder at the inner length with p
passed down.  R(z^g) is never formed: the head is multiplied by R one
residue class mod g at a time (`times_dilated`, which also serves the
E4(dz) products of `forms` and `diamond`), so no product packs the zeros
of a dilation.

One residue class mod a prime p, sum c(pn + r) q^n, is built without the
other classes: after the rewrite the factors split as H(q) G(q^p), G from
the factors with p | d, and class r of the product is class r of H times
G.  H is split as a head times a factor f by the theta split, and any
other H as the rest times its factor f of largest d.  Class r of H is the
sum, over the classes t of f with terms, of class t of f times class r - t
of the head, added exactly by one `qseries.convolve_sum`.  A head or f
that is at most two series has their terms split into rows by class mod p
once, and each class of the product is a sum of row products through the
one loop, so no list of its full length exists and a class with no pair
of rows is never formed; any other is built at full length by the builder
and sliced.  Every class is held as bytes, one residue a byte, for p <
256 (a list of ints for a larger prime), so only the class being formed
is a list of ints.
Expansion only: the space of a quotient is `sturm.eta_quotient_metadata`.
"""

from __future__ import annotations

import math
import re
from functools import reduce

from .qseries import QSeries, _add_products, convolve, convolve_sum
from .ring import ZZ, ModRing, Ring, _Frozen, is_prime

__all__ = [
    "EtaQuotient",
    "eta_series",
    "dilated",
    "times_dilated",
    "eta_quotient_series",
    "eta_quotient_progression",
]

_FACTOR_RE = re.compile(r"([0-9]+)\^(-?[0-9]+)")
_TOKEN_RE = re.compile(r"[^ ]+")


class EtaQuotient(_Frozen):
    """Formal product of eta(d z)^r factors with distinct d, sorted by d.

    Text form: ``"3^4 6^6"`` is eta(3z)^4 eta(6z)^6; negative exponents
    are allowed (``"4^8 2^-4"``).  Factors are separated by ASCII spaces.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        if not factors:
            raise ValueError("empty eta quotient")
        seen = set()
        for d, r in factors:
            if d < 1:
                raise ValueError(f"eta argument multiplier must be >= 1, got {d}")
            if r == 0:
                raise ValueError(f"zero exponent for eta({d}z)")
            if d in seen:
                raise ValueError(f"repeated eta argument multiplier {d}")
            seen.add(d)
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    def _key(self) -> tuple[tuple[int, int], ...]:
        return self.factors

    def __repr__(self) -> str:
        return f"EtaQuotient(factors={self.factors!r})"

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        factors = []
        # factors are separated by runs of ASCII spaces only: any other
        # whitespace stays inside a token, which then fails to match
        for token in _TOKEN_RE.finditer(text):
            m = _FACTOR_RE.fullmatch(token.group())
            if not m:
                raise ValueError(
                    f"bad eta-quotient factor {token.group()!r} at position "
                    f"{token.start()}: expected d^r"
                )
            factors.append((int(m.group(1)), int(m.group(2))))
        if not factors:
            raise ValueError("empty eta-quotient text")
        return cls(tuple(factors))

    def __str__(self) -> str:
        return " ".join(f"{d}^{r}" for d, r in self.factors)

    def __mul__(self, other: "EtaQuotient") -> "EtaQuotient":
        if not isinstance(other, EtaQuotient):
            return NotImplemented
        exps: dict[int, int] = {}
        for d, r in self.factors + other.factors:
            exps[d] = exps.get(d, 0) + r
        merged = tuple((d, r) for d, r in sorted(exps.items()) if r != 0)
        if not merged:
            raise ValueError("product of eta quotients is empty")
        return EtaQuotient(merged)

    @property
    def offset24(self) -> int:
        """Lowest exponent of the expansion, in 24ths: sum of d*r."""
        return sum(d * r for d, r in self.factors)


def _inner_T(T: int, d: int) -> int:
    # least base truncation whose d-dilation covers T coefficients
    return (T + d - 2) // d + 1


def dilated(build, T: int, d: int) -> QSeries:
    """f(dz) to T coefficients, where build(n) returns f(z) to n terms and is
    called at the least n that covers T: the one expansion of a dilated factor."""
    if T < 1:
        raise ValueError("truncation must be at least 1")
    return build(_inner_T(T, d)).dilate(d).truncate(T)


def times_dilated(x: QSeries, build, g: int) -> QSeries:
    """x(q) f(q^g) to x's T terms, where build(n) returns f(q) to n terms and
    is called once, at the least n that covers T.  f(q^g) is never formed:
    residue class c mod g of the product is x's class c times f, so each
    class is one product of about T/g terms and none packs the zeros of the
    dilation."""
    f = build(_inner_T(x.T, g))
    x._check_same_ring(f)
    out = [x.ring.zero] * x.T
    for c in range(g):
        # len(range(c, T, g)) terms: none when c >= T
        out[c::g] = convolve(x.ring, x.coeffs[c::g], f.coeffs, len(range(c, x.T, g)))
    return QSeries(x.ring, x.offset24 + g * f.offset24, out)


def _euler_terms(n: int) -> list[tuple[int, int]]:
    # prod(1 - q^k) below q^n as (index, value) terms in index order, by the
    # pentagonal number theorem: the only nonzero coefficients sit at
    # j*(3j+-1)/2 with sign (-1)^j
    terms = [(0, 1)]
    j = 1
    while True:
        e1 = j * (3 * j - 1) // 2
        if e1 >= n:
            return terms
        s = -1 if j % 2 else 1
        terms.append((e1, s))
        e2 = j * (3 * j + 1) // 2
        if e2 < n:
            terms.append((e2, s))
        j += 1


def _jacobi_cube_terms(n: int) -> list[tuple[int, int]]:
    # eta(z)^3 = q^(1/8) sum (-1)^k (2k+1) q^(k(k+1)/2) below q^n, Jacobi's
    # identity, as (index, value) terms in index order
    terms = []
    k = e = 0
    while e < n:
        terms.append((e, (-1) ** k * (2 * k + 1)))
        k += 1
        e += k
    return terms


def _theta_terms(n: int) -> list[tuple[int, int]]:
    # theta(-q) = sum (-1)^k q^(k^2) over all integers k below q^n, as
    # (index, value) terms in index order: Gauss's eta(z)^2 / eta(2z)
    return [(0, 1)] + [(k * k, 2 if k % 2 == 0 else -2) for k in range(1, math.isqrt(n - 1) + 1)]


def _index_formulas(factors: tuple) -> list | None:
    # the quotient of `factors` as its series with index formulas, each as
    # (d, terms): terms(n) lists the series' nonzero (index, value) terms
    # below q^n, and the quotient's factor is that series in q^d.
    # eta(dz)^e is e // 3 Jacobi cubes and e % 3 Euler series, and an empty
    # quotient is none.  None when an exponent is negative
    if any(e < 0 for _, e in factors):
        return None
    return [
        (d, terms)
        for d, e in factors
        for terms in [_jacobi_cube_terms] * (e // 3) + [_euler_terms] * (e % 3)
    ]


def _series(factors: tuple, p: int) -> list | None:
    # the series of the quotient of `factors` mod the prime p, as
    # `_index_formulas` lists them: theta(-q^d)^(a/2), a/2 of Gauss's
    # series, then f's when `_theta_split` cuts it, else `_index_formulas`
    split = _theta_split(factors, p)
    if split is None:
        return _index_formulas(factors)
    ((d, a), _), f = split
    return [(d, _theta_terms)] * (a // 2) + _index_formulas(f)


def _series_terms(series: list, N: int, ring: Ring) -> list:
    # each of `series` (from `_series`) to N terms as its nonzero (index,
    # value) terms in ring, in index order; at least two lists, a missing
    # series as 1
    parts = [
        [(d * i, x) for i, v in terms(-(-N // d)) if (x := ring.from_int(v)) != ring.zero]
        for d, terms in series
    ]
    return parts + [[(0, ring.one)]] * (2 - len(parts))


def _expand(series: list, T: int, ring: Ring) -> list:
    # coefficients 0 .. T - 1 of the product of `series` (from `_series`)
    # in ring: the first two from their terms through the one nonzero-term
    # product loop, each further one multiplied in by `convolve`, a dense
    # operand times a lacunary one.  `convolve` returns its product
    # reduced, and with fewer than two series the loop only copies reduced
    # terms, so only the loop's sums of exactly two series are reduced, as
    # ring.one times each
    a, b, *rest = _series_terms(series, T, ring)
    coeffs = [0] * T
    _add_products(coeffs, a, b)
    for terms in rest:
        dense = [ring.zero] * (terms[-1][0] + 1)
        for i, x in terms:
            dense[i] = x
        coeffs = convolve(ring, coeffs, dense, T)
    return ring.mul_each(ring.one, coeffs) if len(series) == 2 else coeffs


def eta_series(T: int) -> QSeries:
    """eta(z) = q^(1/24) prod(1 - q^n), with T stored coefficients."""
    return _quotient_series(((1, 1),), T, ZZ)


def _frobenius_reduced(factors: tuple, p: int) -> tuple:
    # one pass of eta(dz)^(qp+s) == eta(dz)^s eta(pdz)^q (mod p), true as
    # (1 - q^n)^p == 1 - q^(pn) mod the prime p.  Merged exponents may leave
    # [0, p) again, and a negative one never enters it: each pass moves it
    # on to p times its d.
    exps: dict[int, int] = {}
    for d, r in factors:
        q, s = divmod(r, p)
        exps[d] = exps.get(d, 0) + s
        exps[p * d] = exps.get(p * d, 0) + q
    reduced = tuple((d, r) for d, r in sorted(exps.items()) if r)
    if sum(d * r for d, r in reduced) != sum(d * r for d, r in factors):
        raise AssertionError(f"rewrite of {factors} mod {p} moved the offset")
    return reduced


def _quotient_series(factors: tuple, T: int, ring: Ring, p: int | None = None) -> QSeries:
    # the one builder, for factors nonempty, sorted by d, with distinct d
    # and nonzero r, and p the prime of ring or None.  After the gcd g of
    # the d's is divided out (built at the inner length, dilated by g):
    # eta(z)^r is expanded and inverted once when r < 0; a theta split
    # under p is expanded from its series; any other quotient is its head
    # (least d) at length T times the rest R(z^g), R built here at the
    # inner length, one residue class of the head mod g at a time
    g = reduce(math.gcd, (d for d, _ in factors))
    if g > 1:
        inner = tuple((d // g, r) for d, r in factors)
        return dilated(lambda n: _quotient_series(inner, n, ring, p), T, g)
    (_, r), rest = factors[0], factors[1:]
    if not rest:
        s = QSeries(ring, abs(r), _expand(_index_formulas(((1, abs(r)),)), T, ring))
        return s if r > 0 else s.invert()
    if p is not None and _theta_split(factors, p) is not None:
        return QSeries(ring, sum(d * r for d, r in factors), _expand(_series(factors, p), T, ring))
    head = _quotient_series(factors[:1], T, ring, p)
    g = reduce(math.gcd, (d for d, _ in rest))
    inner = tuple((d // g, r) for d, r in rest)
    return times_dilated(head, lambda n: _quotient_series(inner, n, ring, p), g)


def eta_quotient_series(
    e: EtaQuotient, T: int, modulus: int | None = None
) -> QSeries:
    """Expand an eta quotient to T coefficients of its integer-indexed part.

    The result has offset sum(d*r)/24.  With a modulus, all arithmetic is
    done in Z/m from the start (the leading coefficients are 1, so every
    inverse exists).  When m is a prime p, the exponents are first rewritten
    once by eta(dz)^(qp+s) == eta(dz)^s eta(pdz)^q (mod p), with s in
    [0, p): delta_3 mod 7 becomes eta(z)^4 eta(2z) eta(14z)^6 / eta(98z).
    The rewrite is false mod p^k and mod composites, so there (and over Z)
    the factors are used as given.  Then the module docstring's one builder
    expands them: a denominator eta(98z) is inverted at about T/98 terms,
    not at T, and eq. (1.2)'s left side mod 7 forms no series of eta(z) at
    any length.
    """
    ring: Ring = ZZ if modulus is None else ModRing(modulus)
    p = modulus if modulus is not None and is_prime(modulus) else None
    factors = e.factors if p is None else _frobenius_reduced(e.factors, p)
    if not factors:
        return QSeries.one(ring, T)
    return _quotient_series(factors, T, ring, p)


def _residue_bytes(xs: list, p: int) -> bytes | list:
    # residues mod p as bytes while p fits a byte: one byte a residue
    # against a list's 8-byte pointer, and `convolve_sum` takes either.  A
    # prime past 255 keeps the list.
    return bytes(xs) if p < 256 else xs


def _classes_of_terms(a: list, b: list, p: int, classes, N: int, m: int) -> dict[int, bytes | list]:
    # classes c of a*b mod m to N terms, each as its coefficients c, c + p,
    # ... < N in `_residue_bytes`, from the (index, value) terms of a and b
    # in index order.  Each is split once into rows by class mod p,
    # (i // p, x) for i in class s: class c of a*b is the sum over s of a's
    # row s times b's row (c - s) % p, one place higher when s > c, each
    # through the one product loop.
    rows_a, rows_b = [[] for _ in range(p)], [[] for _ in range(p)]
    for terms, rows in ((a, rows_a), (b, rows_b)):
        for i, x in terms:
            rows[i % p].append((i // p, x))
    out = {}
    for c in classes:
        # only the row pairs with terms on both sides; a class with none is
        # zero and is not formed
        pairs = [(s, rows_b[(c - s) % p]) for s in range(p) if rows_a[s] and rows_b[(c - s) % p]]
        if not pairs:
            continue
        cls = [0] * len(range(c, N, p))
        for s, row_b in pairs:
            _add_products(cls, rows_a[s], row_b, int(s > c))
        # every value is a sum of products of residues: reduce only if one
        # reached m (a class of a single series never does)
        out[c] = _residue_bytes(cls if max(cls, default=0) < m else [x % m for x in cls], p)
    return out


def _classes(factors: tuple, p: int, classes, N: int, ring: ModRing) -> dict[int, bytes | list]:
    # classes c of the quotient of `factors` to N terms, each as its
    # coefficients c, c + p, ... < N in `_residue_bytes`.  A quotient that
    # is at most two series (theta(-q^d) or its square, eta(dz)^e with e in
    # 1..4 or 6, eta(dz) eta(d'z), or the empty quotient) is formed one
    # class at a time from its series' terms, with no list of N terms, and
    # a class none of whose row pairs has terms is left out: it is zero.
    # Any other quotient is built at full length by the builder and sliced.
    series = _series(factors, p)
    if series is not None and len(series) <= 2:
        return _classes_of_terms(*_series_terms(series, N, ring), p, classes, N, ring.modulus)
    full = _residue_bytes(_quotient_series(factors, N, ring, p).coeffs, p)
    return {c: full[c::p] for c in classes}


def _theta_split(factors: tuple, p: int) -> tuple[tuple, tuple] | None:
    # (head, f) with head times f the quotient of `factors` mod the prime p,
    # each at most two series: eta(dz)^a eta(2dz)^b with a in {2, 4} as
    # theta(-q^d)^(a/2) times f = eta(2dz)^(b + a/2), f reduced mod p once
    # more (`_frobenius_reduced`), when f is at most two series.  None for
    # any other quotient
    if len(factors) == 2:
        (d, a), (d2, b) = factors
        if d2 == 2 * d and a in (2, 4):
            f = _frobenius_reduced(((d2, b + a // 2),), p)
            series = _index_formulas(f)
            if series is not None and len(series) <= 2:
                return ((d, a), (d2, -(a // 2))), f
    return None


def _class_of_product(factors: tuple, p: int, r: int, N: int, ring: ModRing) -> list:
    # coefficients r, r + p, ..., < N of the quotient of `factors` (sorted
    # by d, none divisible by p), cut as head times f by `_theta_split`, or
    # else as the rest times its factor of largest d: f meets the head one
    # class at a time, as class t of f times class r - t of the head, one
    # exponent higher when t > r, so there class t enters as q f_t, f_t
    # after one zero.  Only f's classes with terms count, so only their
    # partner classes of the head are built; a head class that is missing
    # is zero, and its pair is left out.  The products are summed by one
    # convolve_sum.
    head, f = _theta_split(factors, p) or (factors[:-1], factors[-1:])
    f = _classes(f, p, range(p), N, ring)
    head = _classes(head, p, {(r - t) % p for t in f}, N, ring)
    zero = _residue_bytes([0], p)
    pairs = [
        (head[(r - t) % p], zero + f_t if t > r else f_t) for t, f_t in f.items() if (r - t) % p in head
    ]
    return convolve_sum(ring, pairs, len(range(r, N, p)))


def eta_quotient_progression(e: EtaQuotient, p: int, r: int, T: int) -> QSeries:
    """sum c(pn + r) q^n mod the prime p to T terms, offset 0, where c are
    the coefficients of eta_quotient_series(e, ., p); the other classes are
    never formed.

    After the Frobenius rewrite the quotient is H(q) G(q^p): G from the
    factors with p | d (over d/p), built at T terms, and H from the rest,
    whose exponents now lie in [1, p), cut as a head times a factor f as
    the module docstring says.  Class r of H, to N = p(T - 1) + r + 1
    terms of H, is the sum over the classes t of f with terms of class t
    of f times class r - t of the head, class t times q when t > r (one
    more leading zero, so `convolve_sum` adds plain products).  For
    delta_3 mod 7 H = eta(z)^4 eta(2z) is theta(-q)^2 eta(2z)^3: eta(2z)^3
    has 3 nonempty classes, as 2k + 1 == 0 kills its Jacobi terms with k
    == 3, so 3 classes of theta(-q)^2 of about N/7 terms are formed and
    meet them in one `convolve_sum`; then one product with G = eta(2z)^6 /
    eta(14z).  For delta_5 mod 11 the head eta(z)^8 is four series, so it
    is built at length N by the builder (two Jacobi cubes through the loop,
    then two shift-adds of Euler's series) and sliced.
    """
    if not is_prime(p):
        raise ValueError(f"need a prime modulus, got {p}")
    if not 0 <= r < p:
        raise ValueError(f"need a residue r in [0, {p}), got {r}")
    if T < 1:
        raise ValueError("truncation must be at least 1")
    ring = ModRing(p)
    N = p * (T - 1) + r + 1
    factors = _frobenius_reduced(e.factors, p)
    H = tuple(f for f in factors if f[0] % p)
    G = tuple((d // p, k) for d, k in factors if d % p == 0)
    out = _class_of_product(H, p, r, N, ring) if H else [int(r == 0)] + [0] * (T - 1)
    if G:
        out = convolve(ring, out, _quotient_series(G, T, ring, p).coeffs, T)
    return QSeries(ring, 0, out)
