"""Truncated formal q-expansions with a rational exponent offset.

A series is q^(offset24/24) * (c[0] + c[1] q + ... + c[T-1] q^(T-1)),
with every coefficient at exponent >= offset + T unknown.  Operations
return the largest truncation fully justified by their inputs, and
reading past the truncation is a hard error, never a silent zero:
the Sturm-bound arguments downstream depend on "unknown" being
distinguishable from "zero".

Coefficients are stored densely.  Products over Z/m with m <= 128 have
three kernels and products over Z (or a larger modulus) two, chosen by
`_kernel` from the operands' nonzero counts and lengths:

- shift-add, for a dense operand of residue bytes (below) times one with
  few nonzero terms (at most 384): the dense one is read once as one
  integer of 8-bit lanes, and each nonzero term y q^j of the other adds
  it shifted j lanes.  The shifts of one value y are summed at most
  255 // (m - 1) at a time, so no lane carries, and each partial sum is
  cut to bytes and multiplied by y mod m with one translate;
- a schoolbook over the nonzero terms of both operands, while
  nnz(a) nnz(b) is small against their length: two lacunary operands
  (Euler's and Jacobi's expansions, whose nonzero terms number about
  sqrt(T)), or a short one.  Its loop, `_add_products`, is the one
  nonzero-term product loop: `eta`'s class split runs its rows through it;
- Kronecker substitution on the standard library's `decimal`, for the
  rest: each operand becomes its exact value as one decimal number of
  fixed-width base-10^w slots (a signed operand is packed as x - lo and
  given back lo times the base-10^w repunit), and libmpdec multiplies the
  two with a number-theoretic transform.  The product's slots are read
  back through 32-bit lanes up to 9 digits, else by one `int` parse each;
  a signed product has 5 10^(w-1) added to every slot first, so each reads
  as a nonnegative numeral, and taken off after.

A decimal slot's width comes from the nonzero counts too: a slot sums at
most min(nnz a, nnz b) products, so a dense operand times a lacunary one
packs narrow slots.  `convolve_sum` adds several products over Z or Z/m,
each made alone by the kernel its own operands pick, at the widths its
own slots need, so no product's kernel depends on the others in its sum.

Over Z/m with m <= 128 (the paper's congruences are mod 7 and mod 11)
`convolve_sum` carries every operand as bytes of residues in [0, m):
`bytes` and one translate check it, never trusting it, and an int operand
that fails the check is reduced first.  Byte counts give its nonzero
count, which chooses the kernel, and membership tests its largest value,
which sets a decimal slot's width; it is packed by slices of translated
bytes.  Every product comes back as residues: each partial sum of shifts,
or each digit column, goes through a table of v y or v 10^e mod m, and
the parts, then the products, are added as integers a few at a time, so
no byte carries, and reduced by one more translate.  No product is
unpacked into ints and no `% m` pass runs over it.  A larger modulus
takes the sum over Z, reduced once.

Every kernel is exact; property tests assert they agree with the generic
schoolbook, the oracle for every ring.

A dump body of canonical one-digit residues mod m <= 10 (a digit below m
and a newline a line) is written and read by stride, its even positions
through one translate each way.  Any other body is written as one join of
`str` lines and read line by line through the ring's `parse_elem`.
"""

from __future__ import annotations

import decimal
import io
import re
import sys
from array import array
from fractions import Fraction
from functools import reduce
from itertools import compress, islice, repeat
from math import lcm
from operator import add, sub
from typing import Iterable

from .ring import (
    ZZ,
    IntegerRing,
    ModRing,
    QuadInt,
    QuadRing,
    RationalRing,
    Ring,
    _times,
    ring_from_tag,
)

__all__ = ["QSeries", "dumps", "loads"]

# The kernels of an integer product (`_kernel`).  Schoolbook, when the
# shift-add declines or is not offered, while nnz(a) nnz(b) <= cutoff
# (len(a) + len(b)), nnz counting nonzero coefficients: decimal packing
# costs about as much per coefficient, zero or not, as a dozen Python
# multiply-adds, so short operands and lacunary ones (eta^3 times eta:
# about 1,000 x 1,000 nonzero terms in 384,173) stay off the decimal path.
_SCHOOLBOOK_CUTOFF = 12

# Shift-add while the sparser operand has at most this many nonzero terms:
# each shifts and adds the whole dense operand, one byte a term, and each
# 255 // (m - 1) terms of one value add one cut to bytes and one translate,
# so past it the decimal transform is cheaper.  Measured (2-vCPU KVM guest,
# Python 3.11, medians of 7), dense operands of 4,667 and 54,882 terms mod
# 7 times sparse ones of 2 nnz or of the dense length: the shift-add took
# 0.5-0.9 of the decimal time from 192 to 448 nonzero terms (one 1.16) and
# 0.8-1.6 at 512.  eta(2z)'s 271 nonzero terms to 54,883 are inside it.
_SHIFT_ADD_TERMS = 384
# One Python multiply-add of the schoolbook costs about as much as shifting
# and adding this many bytes of a packed operand, or half of it to leave
# room for packing: Euler's times Jacobi's series mod 7, from 1,000 to
# 40,000 terms, took 0.43 of the schoolbook's time in the shift-add at 20
# bytes per nonzero term of the denser, 0.58 at 61 and 0.94 at 122.  So the
# packed operand must be dense: its nonzero terms times this reach its
# length.  theta(-q)^2's classes mod 7, 26% nonzero, are; Euler's and
# Jacobi's series past about 10,000 terms are not.
_SCHOOLBOOK_BYTES = 64
# the array typecode of an unsigned 32-bit word: `_unpack`'s lanes
_WORD32 = next(c for c in "IL" if array(c).itemsize == 4)

# Exact big-number products: libmpdec multiplies long operands with a
# number-theoretic transform.  Maximum precision with Inexact and Rounded
# trapped, so a result that would need rounding raises instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)
# slots this wide convert between int and str under any CPython digit limit
_TEXT_DIGITS = sys.int_info.str_digits_check_threshold
# ASCII digits to their values
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
# Z/m with m up to this carries each operand, once checked, as bytes: two
# residues then fit a byte together, so `_fold` adds at least two columns
# before it reduces
_BYTE_MODULUS = 128
# the ASCII digit of column e (the 10^e place) of each byte value, e < 3
_DIGIT_COLUMNS = tuple(bytes(48 + v // 10**e % 10 for v in range(256)) for e in range(3))


def _kernel(nnz_a: int, nnz_b: int, len_a: int, len_b: int, residues: bool) -> str:
    """The kernel that multiplies an operand of len_a terms, nnz_a of them
    nonzero, by one of len_b terms, nnz_b nonzero, a the denser (more
    nonzero terms, or the shorter on a tie): "shift", "schoolbook" or
    "decimal".  Only `residues`, operands of residue bytes (mod m <=
    _BYTE_MODULUS), are offered the shift-add.

    Shift-add takes the product while b has from one to _SHIFT_ADD_TERMS
    nonzero terms and a is dense: it costs len_a bytes per term of b, the
    schoolbook nnz_a multiply-adds.  Otherwise two lacunary operands go to
    the nonzero-term schoolbook and two dense ones to the decimal multiply.
    """
    if residues and 0 < nnz_b <= _SHIFT_ADD_TERMS and nnz_a * _SCHOOLBOOK_BYTES >= len_a:
        return "shift"
    lacunary = nnz_a * nnz_b <= _SCHOOLBOOK_CUTOFF * (len_a + len_b)
    return "schoolbook" if lacunary else "decimal"


def _add_products(out: list[int], terms_a, terms_b, shift: int = 0) -> None:
    """Add x y into out[i + j + shift] for each (i, x) of terms_a and (j, y)
    of terms_b, in place: the one nonzero-term product loop.  terms_b is in
    index order, so each row stops at the first term past the end of out."""
    for i, x in terms_a:
        base = i + shift
        lim = len(out) - base
        for j, y in terms_b:
            if j >= lim:
                break
            out[base + j] += x * y


def _convolve_int_schoolbook(a: list[int], b: list[int], n_out: int) -> list[int]:
    # the nonzero terms of both operands (`compress` and `filter` skip the
    # zeros in C) through the one product loop; b's are listed once
    out = [0] * n_out
    terms_b = list(zip(compress(range(len(b)), b), filter(None, b)))
    _add_products(out, zip(compress(range(len(a)), a), filter(None, a)), terms_b)
    return out


def _pack(xs: list[int] | bytes, lo: int, hi: int, w: int) -> decimal.Decimal:
    """Sum of x 10^(w i) over xs, exactly, with every x in [lo, hi], lo <= 0
    and hi - lo < 10^w: the text of the w-digit slots x - lo, most
    significant first, plus lo times the base-10^w repunit of len(xs)
    slots.  Residues carried as bytes (lo = 0) write each of hi's digit
    columns into a zero-filled numeral as one slice of translated bytes."""
    if isinstance(xs, bytes):
        text = bytearray(b"0") * (len(xs) * w)
        backwards = xs[::-1]
        for e in range(min(w, len(str(hi)))):
            text[w - 1 - e :: w] = backwards.translate(_DIGIT_COLUMNS[e])
        return decimal.Decimal(text.decode("ascii"))
    slots = reversed(xs) if lo == 0 else map(sub, reversed(xs), repeat(lo))
    if hi - lo < len(xs):
        # one shared string per value, not one per coefficient
        table = [f"{v:0{w}d}" for v in range(hi - lo + 1)]
        text = "".join(map(table.__getitem__, slots))
    else:
        # slots wider than _TEXT_DIGITS go to text through Decimal, which
        # no int-to-str digit limit applies to
        digits = map(str, slots if w <= _TEXT_DIGITS else map(decimal.Decimal, slots))
        text = "".join(map(str.zfill, digits, repeat(w)))
    packed = decimal.Decimal(text)
    return _EXACT.add(packed, _EXACT.multiply(lo, _repunit(w, len(xs)))) if lo else packed


def _repunit(w: int, k: int) -> decimal.Decimal:
    """Sum of 10^(w i) for i < k, exactly: (10^(w k) - 1) / (10^w - 1), one
    short division."""
    return _EXACT.divide(_EXACT.subtract(_EXACT.scaleb(1, w * k), 1), 10**w - 1)


def _words(words: array, byteorder: str = sys.byteorder) -> list[int]:
    """Little-endian machine words as ints, swapped in place on a big-endian host."""
    if byteorder == "big":
        words.byteswap()
    return words.tolist()


def _unpack(digits: str, w: int, n: int) -> list[int]:
    """The n lowest w-digit slots of a decimal numeral, least first.

    Slots of at most 9 digits (10^9 < 2^32) fill one 32-bit lane each of
    one integer, read big-endian: acc = 10 acc + digit column k of every
    slot in each lane's low byte, so no lane carries into the next, and
    `_words` reads the lanes back little-endian, least slot first.  A
    wider slot is one `int` parse, through `Decimal` past _TEXT_DIGITS.
    """
    raw = digits[-n * w :].zfill(n * w).encode("ascii")
    del digits  # freed here when the caller passed its only reference
    if w > 9:
        parse = int if w <= _TEXT_DIGITS else lambda text: int(decimal.Decimal(text.decode()))
        return [parse(raw[i - w : i]) for i in range(n * w, 0, -w)]
    buf = bytearray(4 * n)
    acc = 0
    for k in range(w):
        buf[3::4] = raw[k::w].translate(_DIGIT_VALUES)
        acc = 10 * acc + int.from_bytes(buf, "big")
    del raw, buf
    words = array(_WORD32, acc.to_bytes(4 * n, "little"))
    del acc  # the lanes are not kept twice beside the ints of tolist
    return _words(words)


def _residues(xs: list[int], m: int) -> bytes:
    """The ints xs mod m as bytes, m <= 128, checked, never trusted: `bytes`
    rejects a value outside [0, 256), and a translate that deletes 0..m-1
    leaves any value in [m, 256); xs is then reduced, by `% m` or by one
    more translate.  A value that is not an int raises TypeError."""
    try:
        packed = bytes(xs)
    except ValueError:
        return bytes([x % m for x in xs])
    return packed.translate(_times(1, m)) if packed.translate(None, bytes(range(m))) else packed


def _bounds(xs: list[int] | bytes, nnz: int, m: int | None) -> tuple[int, int]:
    """(lo, hi): the least value of xs or 0, whichever is less, and the
    largest, 0 for no values.  Residues mod m as bytes have lo 0 and find
    hi by membership tests from m - 1 down, one memchr each."""
    if m is None:
        return min(min(xs, default=0), 0), max(xs, default=0)
    return 0, next((v for v in range(m - 1, 0, -1) if v in xs), 0) if nnz else 0


def _fold(cols: list[bytes], m: int) -> bytes:
    """The lane-by-lane sum mod m of equal-length byte strings of residues
    mod m.  Up to k = 255 // (m - 1) columns are added as integers, whose
    byte lanes then cannot carry, and one translate reduces their sum; the
    sums are folded again until one column is left.  m <= 128 (see
    `_BYTE_MODULUS`), so k >= 2."""
    k = 255 // (m - 1)
    n, modulo = len(cols[0]), _times(1, m)
    while len(cols) > 1:
        cols = [
            sum(map(int.from_bytes, cols[i : i + k], repeat("little"))).to_bytes(n, "little").translate(modulo)
            for i in range(0, len(cols), k)
        ]
    return cols[0]


def _group_size(m: int) -> int:
    """How many shifts of one residue mod m the shift-add sums before it
    cuts them to bytes: 255 // (m - 1), so no byte lane carries."""
    return 255 // (m - 1)


def _digit_residues(digits: str, w: int, n: int, m: int) -> bytes:
    """The n lowest w-digit slots of a decimal numeral mod m, least first,
    one byte each: digit column k of every slot (0 the most significant)
    goes through the table of v 10^(w - 1 - k) mod m, and `_fold` adds the
    columns."""
    raw = digits[-n * w :].zfill(n * w).encode("ascii")
    del digits  # as in `_unpack`
    cols = [raw[k::w].translate(_times(pow(10, w - 1 - k, m), m, 48)) for k in range(w)]
    del raw
    return _fold(cols, m)[::-1]


def _convolve_shift_add(d: bytes, e: bytes, n: int, m: int) -> bytes:
    """First n terms mod m of d*e, both residues mod m as bytes, e sparse;
    the terms come back as residues, one byte each.

    d is read once as one integer of 8-bit lanes, and each nonzero term y
    q^j of e adds it shifted j lanes.  The shifts of one value y are summed
    k = `_group_size(m)` at a time, so no lane passes 255: each partial sum
    is cut to its n lowest bytes, one translate multiplies them by y mod m,
    and `_fold` adds the parts.
    """
    packed = int.from_bytes(d, "little")
    shifts = {}
    for j in compress(range(len(e)), e):
        shifts.setdefault(e[j], []).append(8 * j)
    k, mask = _group_size(m), (1 << 8 * n) - 1
    parts = []
    for y, by in shifts.items():
        times_y = _times(y, m)
        for i in range(0, len(by), k):
            part = sum(map(packed.__lshift__, by[i : i + k])) & mask
            parts.append(part.to_bytes(n, "little").translate(times_y))
    return _fold(parts or [bytes(n)], m)


def _convolve_decimal(a, b, bounds_a, bounds_b, slot: int, n: int, m: int | None) -> list[int] | bytes:
    """First n terms of a*b, every value of a in bounds_a = (lo, hi) with
    lo <= 0 and of b in bounds_b, when min(nnz a, nnz b) max|a| max|b| is
    slot; with a modulus m, both operands are residues as bytes and the
    terms come back as residues, one byte each (`_digit_residues`).

    One Kronecker substitution in base 10^w (`_decimal_total`), whose text
    is cut back into slots once (`_unpack`).  Every slot of a*b lies in
    [-slot, slot].  With no negative operand w holds slot; otherwise w
    holds 2 slot, 5 10^(w-1) is added to every slot of the product so each
    lies in [0, 10^w), and one pass over the unpacked slots takes it off.
    The text is only an argument, so the decoder frees it before it builds
    the terms.
    """
    signed = bounds_a[0] < 0 or bounds_b[0] < 0
    w = decimal.Decimal(2 * slot if signed else slot).adjusted() + 1
    half = 5 * 10 ** (w - 1) if signed else 0
    if m is not None:
        return _digit_residues(str(_decimal_total(a, b, bounds_a, bounds_b, w, half)), w, n, m)
    out = _unpack(str(_decimal_total(a, b, bounds_a, bounds_b, w, half)), w, n)
    return [x - half for x in out] if signed else out


def _decimal_total(a, b, bounds_a, bounds_b, w: int, half: int) -> decimal.Decimal:
    """a*b, each operand its exact value as one `decimal.Decimal` of w-digit
    slots (`_pack`) multiplied by libmpdec, plus half in every slot the
    product reaches; exact, and with exponent 0, so its text has none."""
    total = _EXACT.multiply(_pack(a, *bounds_a, w), _pack(b, *bounds_b, w))
    if half:
        total = _EXACT.add(total, _EXACT.multiply(half, _repunit(w, len(a) + len(b) - 1)))
    return total


def _product(a, b, n_out: int, m: int | None) -> list[int] | bytes:
    """First n_out terms of a*b, or fewer when a*b has fewer, both operands
    at most n_out terms: over Z, exact; with a modulus m, both are residues
    mod m as bytes and the terms come back as residues, one byte each.

    The pair alone picks its kernel (`_kernel`), from its operands' nonzero
    counts and lengths: only residue operands are offered the shift-add.
    A slot of a*b sums at most min(nnz a, nnz b) terms, so that count
    times max|a| max|b| bounds every decimal slot (doubled by
    `_convolve_decimal` for a signed operand): no slot overflows into its
    neighbour.  Residue operands give their nonzero counts and largest
    values by byte operations.
    """
    nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
    if (nnz_a, -len(a)) < (nnz_b, -len(b)):
        # a is the denser operand from here on
        a, b, nnz_a, nnz_b = b, a, nnz_b, nnz_a
    kernel = _kernel(nnz_a, nnz_b, len(a), len(b), m is not None)
    n = min(n_out, len(a) + len(b) - 1)
    if kernel == "shift":
        return _convolve_shift_add(a, b, n, m)
    if kernel == "decimal":
        bounds_a, bounds_b = _bounds(a, nnz_a, m), _bounds(b, nnz_b, m)
        slot = nnz_b * max(map(abs, bounds_a)) * max(map(abs, bounds_b))
        return _convolve_decimal(a, b, bounds_a, bounds_b, slot, n, m)
    out = _convolve_int_schoolbook(a, b, n_out)
    return out if m is None else bytes([x % m for x in out])


def _lcm_denominators(xs: Iterable[Fraction]) -> int:
    return reduce(lcm, (x.denominator for x in xs), 1)


def convolve(ring: Ring, a: list, b: list, n_out: int) -> list:
    """Ring-dispatched exact convolution truncated to n_out coefficients."""
    if isinstance(ring, (IntegerRing, ModRing)):
        return convolve_sum(ring, ((a, b),), n_out)
    if isinstance(ring, RationalRing):
        da = _lcm_denominators(a)
        db = _lcm_denominators(b)
        ia = [x.numerator * (da // x.denominator) for x in a]
        ib = [x.numerator * (db // x.denominator) for x in b]
        d = da * db
        return [Fraction(x, d) for x in convolve_sum(ZZ, ((ia, ib),), n_out)]
    if isinstance(ring, QuadRing):
        # 3-multiplication Karatsuba split over the two components
        ra = [x.re for x in a]
        ma = [x.im for x in a]
        rb = [x.re for x in b]
        mb = [x.im for x in b]
        m1 = convolve_sum(ZZ, ((ra, rb),), n_out)
        m2 = convolve_sum(ZZ, ((ma, mb),), n_out)
        m3 = convolve_sum(ZZ, (([u + v for u, v in zip(ra, ma)], [u + v for u, v in zip(rb, mb)]),), n_out)
        return [QuadInt(p - 3 * q, r - p - q) for p, q, r in zip(m1, m2, m3)]
    return convolve_schoolbook(ring, a, b, n_out)


def convolve_sum(ring: Ring, pairs, n_out: int) -> list:
    """Sum of a*b over the (a, b) in pairs, truncated to n_out coefficients,
    over Z or Z/m: the products `convolve` would make, each from the kernel
    its own operands pick (`_product`), added.  Over Z/m with m <=
    _BYTE_MODULUS every operand enters as residues in bytes (`_residues`),
    every product comes back as residues and `_fold` adds them mod m, so no
    product is unpacked into ints; over a larger modulus it is the sum over
    Z reduced once."""
    if not isinstance(ring, (IntegerRing, ModRing)):
        raise ValueError(f"convolve_sum needs Z or Z/m, got {ring!r}")
    m = ring.modulus if isinstance(ring, ModRing) else None

    def cut(xs):
        # no copy of an operand that is short enough already, and none kept
        # beside its residues
        return xs if len(xs) <= n_out else xs[:n_out]

    if m is not None and m <= _BYTE_MODULUS:
        parts = [_product(_residues(cut(a), m), _residues(cut(b), m), n_out, m) for a, b in pairs]
        return list(_fold([part.ljust(n_out, b"\0") for part in parts] or [bytes(n_out)], m))
    parts = [_product(cut(a), cut(b), n_out, None) for a, b in pairs]
    out = parts.pop() if parts else []
    out.extend([0] * (n_out - len(out)))
    for part in parts:
        out[: len(part)] = map(add, out[: len(part)], part)
    return out if m is None else [x % m for x in out]


def convolve_schoolbook(ring: Ring, a: list, b: list, n_out: int) -> list:
    """Reference quadratic-time convolution; the oracle for `convolve`."""
    zero = ring.zero
    add, mul = ring.add, ring.mul
    out = [zero] * n_out
    for i, x in enumerate(a):
        if i >= n_out:
            break
        if x == zero:
            continue
        for j in range(min(len(b), n_out - i)):
            out[i + j] = add(out[i + j], mul(x, b[j]))
    return out


class QSeries:
    """Immutable truncated q-expansion over one coefficient ring.

    `coeffs` is never mutated after construction; operations build new
    series, so values may be shared and sent across threads freely.

    The constructor trusts its caller: over a `ModRing` the coefficients
    must already be reduced into [0, m), and it does not rescan them.
    Outside series enter reduced through `from_ints`, `loads` and
    `Cache.put`, which checks every coefficient.
    """

    __slots__ = ("ring", "offset24", "coeffs")

    def __init__(self, ring: Ring, offset24: int, coeffs: list):
        if not isinstance(offset24, int):
            raise ValueError(f"offset24 must be an integer, got {offset24!r}")
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("truncation must be at least 1")
        self.ring = ring
        self.offset24 = offset24
        self.coeffs = coeffs

    @classmethod
    def from_ints(cls, ring: Ring, coeffs: Iterable[int], offset24: int = 0) -> "QSeries":
        return cls(ring, offset24, [ring.from_int(c) for c in coeffs])

    @classmethod
    def one(cls, ring: Ring, T: int) -> "QSeries":
        if T < 1:
            raise ValueError("truncation must be at least 1")
        return cls(ring, 0, [ring.one] + [ring.zero] * (T - 1))

    @property
    def T(self) -> int:
        return len(self.coeffs)

    @property
    def offset(self) -> Fraction:
        return Fraction(self.offset24, 24)

    def _check_same_ring(self, other: "QSeries") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def add(self, other: "QSeries") -> "QSeries":
        self._check_same_ring(other)
        d24 = other.offset24 - self.offset24
        if d24 % 24 != 0:
            raise ValueError(
                f"offset difference {Fraction(abs(d24), 24)} is not an integer"
            )
        lo, hi = (self, other) if d24 >= 0 else (other, self)
        d = abs(d24) // 24
        T = min(lo.T, hi.T + d)
        out = lo.coeffs[:T]
        out[d:] = self.ring.add_each(out[d:], hi.coeffs)
        return QSeries(self.ring, lo.offset24, out)

    def neg(self) -> "QSeries":
        return self.scale(-1)

    def sub(self, other: "QSeries") -> "QSeries":
        return self.add(other.neg())

    def mul(self, other: "QSeries") -> "QSeries":
        self._check_same_ring(other)
        T = min(self.T, other.T)
        out = convolve(self.ring, self.coeffs, other.coeffs, T)
        return QSeries(self.ring, self.offset24 + other.offset24, out)

    def scale(self, c) -> "QSeries":
        """Multiply every coefficient by a scalar (int or ring element)."""
        if isinstance(c, int) and not isinstance(self.ring, IntegerRing):
            c = self.ring.from_int(c)
        return QSeries(self.ring, self.offset24, self.ring.mul_each(c, self.coeffs))

    def pow(self, e: int) -> "QSeries":
        if e == 0:
            return QSeries.one(self.ring, self.T)
        if e < 0:
            return self.invert().pow(-e)
        result = None
        base = self
        n = e
        while n:
            if n & 1:
                result = base if result is None else result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def invert(self) -> "QSeries":
        """Two-sided inverse up to truncation, by Newton iteration.

        Requires the lowest stored coefficient to be a unit.  Each step
        doubles the length k of b, where a*b = 1 mod q^k: with the error
        e = (a*b)[k:m], b - q^k b*e is right to m <= 2k terms, so only
        b*e's first m - k terms are needed.
        """
        ring = self.ring
        a = self.coeffs
        if not ring.is_unit(a[0]):
            raise ValueError(
                f"leading coefficient {a[0]!r} is not a unit; cannot invert"
            )
        T = len(a)
        b = [ring.inv(a[0])]
        minus_one = ring.neg(ring.one)
        while len(b) < T:
            k = len(b)
            m = min(2 * k, T)
            e = convolve(ring, a[:m], b, m)[k:]
            b += ring.mul_each(minus_one, convolve(ring, b, e, m - k))
        return QSeries(ring, -self.offset24, b)

    def dilate(self, d: int) -> "QSeries":
        """Substitute q -> q^d: exponents and offset scale by d."""
        if d < 1:
            raise ValueError(f"dilation factor must be >= 1, got {d}")
        if d == 1:
            return self
        out = [self.ring.zero] * (d * (self.T - 1) + 1)
        out[::d] = self.coeffs
        return QSeries(self.ring, d * self.offset24, out)

    def truncate(self, T: int) -> "QSeries":
        if not 1 <= T <= self.T:
            raise ValueError(f"cannot truncate T={self.T} series to {T}")
        if T == self.T:
            return self
        return QSeries(self.ring, self.offset24, self.coeffs[:T])

    def coeff(self, e):
        """Coefficient at exponent e (int or Fraction); error past truncation."""
        e24 = Fraction(e) * 24
        if e24.denominator != 1:
            raise ValueError(f"exponent {e} is not a multiple of 1/24")
        d24 = int(e24) - self.offset24
        if d24 % 24 != 0:
            raise ValueError(
                f"exponent {e} is not an integer offset from {self.offset}"
            )
        idx = d24 // 24
        if not 0 <= idx < self.T:
            raise ValueError(
                f"exponent {e} is outside the justified truncation "
                f"[{self.offset}, {self.offset + self.T})"
            )
        return self.coeffs[idx]

    def extract_progression(self, a: int, b: int) -> "QSeries":
        """Sum over n of coeff(a*n + b) q^n; requires offset 0."""
        if self.offset24 != 0:
            raise ValueError("extract_progression requires offset 0")
        if a < 1 or b < 0:
            raise ValueError(f"need a >= 1 and b >= 0, got a={a}, b={b}")
        if b >= self.T:
            raise ValueError(f"residue {b} is beyond truncation {self.T}")
        return QSeries(self.ring, 0, self.coeffs[b :: a])

    def reduce_mod(self, m: int) -> "QSeries":
        """Coefficientwise reduction of an integer series into Z/m."""
        if not isinstance(self.ring, IntegerRing):
            raise ValueError(f"reduce_mod needs an integer series, got {self.ring!r}")
        return QSeries(ModRing(m), self.offset24, [c % m for c in self.coeffs])

    def to_offset_zero(self) -> "QSeries":
        """Pad with justified zeros so the series starts at exponent 0."""
        if self.offset24 == 0:
            return self
        if self.offset24 % 24 != 0 or self.offset24 < 0:
            raise ValueError(
                f"offset {self.offset} is not a nonnegative integer"
            )
        d = self.offset24 // 24
        return QSeries(self.ring, 0, [self.ring.zero] * d + self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.offset24 == other.offset24
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        head = ", ".join(repr(c) for c in self.coeffs[:6])
        tail = ", ..." if self.T > 6 else ""
        return (
            f"QSeries({self.ring.tag}, offset={self.offset}, T={self.T}, "
            f"[{head}{tail}])"
        )


def _str_lines(coeffs: list) -> str:
    """The generic dump body: each coefficient's `str` and a newline, one join."""
    return "".join([str(c) + "\n" for c in coeffs])


def dumps(s: QSeries) -> str:
    """Text coefficient dump; one coefficient per line, bit-exact round trip:
    a canonical one-digit body mod m <= 10 (see the module docstring) by
    stride, and any other body, in any ring, line by line."""
    header = f"qseries v1 ring={s.ring.tag} offset24={s.offset24} T={s.T}\n"
    if isinstance(s.ring, ModRing) and s.ring.modulus <= 10:
        try:
            raw = bytes(s.coeffs)  # rejects a value that is not an int in [0, 256)
        except (TypeError, ValueError):
            pass
        else:
            if not raw.translate(None, bytes(range(s.ring.modulus))):  # every value below m
                body = bytearray(b"\n") * (2 * s.T)
                body[::2] = raw.translate(_DIGIT_COLUMNS[0])
                return header + body.decode("ascii")
    return header + _str_lines(s.coeffs)


def loads(text: str) -> QSeries:
    """Inverse of `dumps`: exactly the header's T coefficients, with nothing
    after them: a canonical one-digit body mod m <= 10 (see the module
    docstring) by stride, and any other body, in any ring, line by line."""
    lines = io.StringIO(text)
    header = lines.readline().strip()
    parts = header.split()
    if len(parts) != 5 or parts[0] != "qseries" or parts[1] != "v1":
        raise ValueError(f"bad qseries dump header: {header!r}")
    fields = dict(p.partition("=")[::2] for p in parts[2:])
    # offset24 and T in ASCII digits, T >= 1: never a Unicode digit, "+" or "_"
    if fields.keys() != {"ring", "offset24", "T"} or not (
        re.fullmatch("-?[0-9]+", fields["offset24"]) and re.fullmatch("0*[1-9][0-9]*", fields["T"])
    ):
        raise ValueError(f"bad qseries dump header fields: {header!r}")
    ring = ring_from_tag(fields["ring"])
    offset24 = int(fields["offset24"])
    T = int(fields["T"])
    start = lines.tell()  # the body's start: the header line was stripped
    if isinstance(ring, ModRing) and ring.modulus <= 10 and len(text) - start == 2 * T == 2 * text.count("\n", start):
        raw = text[start::2].encode("ascii", "replace")  # "?" for a non-ASCII character
        if not raw.translate(None, b"0123456789"[: ring.modulus]):  # T digits: the T newlines fill the odd places
            return QSeries(ring, offset24, list(raw.translate(_DIGIT_VALUES)))
    # every parser accepts the line's trailing newline
    coeffs = list(map(ring.parse_elem, islice(lines, T)))
    if len(coeffs) < T:
        raise ValueError(f"dump truncated: expected {T} coefficients")
    if lines.readline():
        raise ValueError(f"dump has lines after its {T} coefficients")
    return QSeries(ring, offset24, coeffs)
