"""Truncated formal q-expansions with a rational exponent offset.

A series is q^(offset24/24) * (c[0] + c[1] q + ... + c[T-1] q^(T-1)),
with every coefficient at exponent >= offset + T unknown.  Operations
return the largest truncation fully justified by their inputs, and
reading past the truncation is a hard error, never a silent zero:
the Sturm-bound arguments downstream depend on "unknown" being
distinguishable from "zero".

Coefficients are stored densely.  Products over Z/m with m <= 128 have
three kernels and products over Z (or a larger modulus) two, chosen by
`_kernel` from the operands' nonzero counts and lengths, and over Z/m
their largest residues:

- shift-add, for a dense operand of residue bytes (below) times one with
  few nonzero terms (256 in 16-bit slots, 64 in 64-bit ones): the dense one
  is written once into one integer of 8- to 64-bit binary slots, and each
  nonzero term y q^j of the other adds it shifted j slots, grouped by y so
  one multiply per distinct value remains;
- a schoolbook over the nonzero terms of both operands, while
  nnz(a) nnz(b) is small against their length: two lacunary operands
  (Euler's and Jacobi's expansions, whose nonzero terms number about
  sqrt(T)), or a short one.  Its loop, `_add_products`, is the one
  nonzero-term product loop: `eta`'s class split runs its rows through it;
- Kronecker substitution on the standard library's `decimal`, for the
  rest: each operand becomes its exact value as one decimal number of
  fixed-width base-10^w slots (a signed operand is packed as x - lo and
  given back lo times the base-10^w repunit), and libmpdec multiplies the
  two with a number-theoretic transform.  The total's slots are read back
  through 32-bit lanes up to 9 digits, else by one `int` parse each; a
  signed total has 5 10^(w-1) added to every slot first, so each reads as
  a nonnegative numeral, and taken off after.

Slot widths come from the nonzero counts too: a slot sums at most
min(nnz a, nnz b) products, so a dense operand times a lacunary one packs
narrow slots.  `convolve_sum` adds several products over Z or Z/m: its
shift-add products share one binary total and its decimal ones one decimal
total, each sized for the sum and unpacked once.

Over Z/m with m <= 128 (the paper's congruences are mod 7 and mod 11)
`convolve_sum` carries every operand as bytes of residues in [0, m):
`bytes` and one translate check it, never trusting it, and an int operand
that fails the check is reduced first.  Byte counts and membership tests
give its nonzero count and largest value, which choose the kernel and
every slot width, and it is packed by slices of translated bytes.  Every
part of the sum comes back as residues: each lane byte or digit column
goes through a table of v base^e mod m, and the columns are added as
integers a few at a time, so no byte carries, and reduced by one more
translate.  No total is unpacked into ints and no `% m` pass runs over
it.  A larger modulus takes the sum over Z, reduced once.

Every kernel is exact; property tests assert they agree with the generic
schoolbook, the oracle for every ring.
"""

from __future__ import annotations

import decimal
import io
import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache, reduce
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

# Shift-add while the sparser operand's nonzero terms times the slot width
# in bits are at most this: each term shifts and adds the whole packed dense
# operand, which costs its length times the width, so past it the decimal
# transform is cheaper.  Measured (2-vCPU KVM guest, Python 3.11), dense
# operands of 4,667 and 54,882 terms in 8- to 64-bit slots: the shift-add
# took 0.2-0.7 of the decimal time at a product of 4,096 or less, 0.5-1.2
# at 8,192 and 1.1-4.2 past it.  The 205-term classes of eta(2z) that meet
# eta(z)^4 in sum delta_3(7n+5) q^n at 54,882 terms, in 16-bit slots, make
# 3,280.
_SHIFT_ADD_BITS = 4096
# One Python multiply-add of the schoolbook costs about as much as shifting
# and adding this many bits of a packed operand (measured: 80-100 ns against
# 0.07-0.11 ns a bit, so about 900; half that leaves room for packing).  So
# the shift-add's packed operand must be dense: its nonzero terms times this
# reach its length times the slot width.  eta(z)^4's classes mod 7, 38%
# nonzero, are; Euler's and Jacobi's series past a few hundred terms are not.
_SCHOOLBOOK_BITS = 512
# array typecodes of the unsigned machine words, by width in bits: the
# shift-add's slot widths, and `_unpack`'s 32-bit lanes
_SLOT_CODES = {8 * array(c).itemsize: c for c in "BHIQ"}

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


def _slot_bits(bound: int) -> int | None:
    """The narrowest machine-word slot that holds every value in [0, bound],
    None past 64 bits."""
    return next((bits for bits in _SLOT_CODES if bound >> bits == 0), None)


def _kernel(nnz_a: int, nnz_b: int, len_a: int, len_b: int, slot: int | None) -> str:
    """The kernel that multiplies an operand of len_a terms, nnz_a of them
    nonzero, by one of len_b terms, nnz_b nonzero, a the denser (more
    nonzero terms, or the shorter on a tie): "shift", "schoolbook" or
    "decimal".  `slot` bounds every slot of the shift-add total with this
    product in it; None, for every product but one of residue bytes (a
    sum mod m <= _BYTE_MODULUS), offers no shift-add.

    Shift-add takes the product while the slots fit in 64 bits, b's
    nonzero terms times the slot width are at most _SHIFT_ADD_BITS and a
    is dense: it costs len_a times the width in bits per term of b, the
    schoolbook nnz_a multiply-adds.  Otherwise two lacunary operands go to
    the nonzero-term schoolbook and two dense ones to the decimal multiply.
    """
    bits = _slot_bits(slot) if slot is not None and nnz_b else None
    if bits and nnz_b * bits <= _SHIFT_ADD_BITS and nnz_a * _SCHOOLBOOK_BITS >= len_a * bits:
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
    words = array(_SLOT_CODES[32], acc.to_bytes(4 * n, "little"))
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
    """(least, largest) value of xs, 0 for no values.  Residues mod m as
    bytes count their least as 0 and find the largest by membership tests
    from m - 1 down, one memchr each."""
    if m is None:
        return min(xs, default=0), max(xs, default=0)
    return 0, next((v for v in range(m - 1, 0, -1) if v in xs), 0) if nnz else 0


@lru_cache(maxsize=1024)
def _times(p: int, m: int, zero: int = 0) -> bytes:
    """The translate table of each byte b to (b - zero) p mod m: a lane
    byte's share (zero 0) or an ASCII digit's (zero 48) of its slot's
    residue."""
    return bytes((b - zero) * p % m for b in range(256))


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


def _lane_residues(raw: bytes, size: int, m: int) -> bytes:
    """The little-endian size-byte lanes of raw mod m, least first, one byte
    each: byte e of every lane goes through the table of v 256^e mod m, and
    `_fold` adds the lane bytes."""
    return _fold([raw[e::size].translate(_times(256**e % m, m)) for e in range(size)], m)


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


def _reach(group, n_out: int) -> int:
    # terms of the sum of a*b over a group of (a, b, ...) below n_out
    return min(n_out, max(len(a) + len(b) - 1 for a, b, *_ in group))


def _convolve_shift_add(pairs, bits: int, n: int, m: int) -> bytes:
    """First n terms mod m of the sum of d*e over the (d, e) in pairs,
    every operand residues mod m as bytes, e sparse and every slot of the
    exact total below 2^bits; the terms come back as residues, one byte
    each.

    Each d is packed once into one integer of bits-wide binary slots, its
    bytes written into zeroed little-endian lanes by one slice assignment,
    each nonzero term y q^j of e adds that integer shifted j slots, and the
    shifts are grouped by y, so one multiply per distinct value remains.
    The total is cut back into slots mod m once (`_lane_residues`).
    """
    size = bits // 8
    total = 0
    for d, e in pairs:
        lanes = bytearray(len(d) * size)
        lanes[::size] = d
        packed = int.from_bytes(lanes, "little")
        del lanes  # not kept beside the unpacked total
        shifts = {}
        for j in compress(range(len(e)), e):
            shifts.setdefault(e[j], []).append(bits * j)
        for y, by in shifts.items():
            total += y * sum(map(packed.__lshift__, by))
    total &= (1 << bits * n) - 1
    raw = total.to_bytes(n * size, "little")
    del total
    return _lane_residues(raw, size, m)


def _convolve_decimal(packed, scale: int, n: int, m: int | None = None) -> list[int] | bytes:
    """First n terms of the sum of a*b over the (a, b, lo_a, hi_a, lo_b,
    hi_b) in packed, lo <= min(0, least value) and hi the largest, when the
    sum over its pairs of min(nnz a, nnz b) max|a| max|b| is scale; with a
    modulus m, every operand is residues as bytes and the terms come back
    as residues, one byte each (`_digit_residues`).

    Kronecker substitutions in one base 10^w (`_decimal_total`), whose text
    is cut back into slots once (`_unpack`).  Every slot of the total lies
    in [-scale, scale].  With no negative operand w holds scale; otherwise
    w holds 2 scale, 5 10^(w-1) is added to every slot of the total so each
    lies in [0, 10^w), and one pass over the unpacked slots takes it off.
    The text is only an argument, so the decoder frees it before it builds
    the terms.
    """
    signed = any(lo_a or lo_b for _, _, lo_a, _, lo_b, _ in packed)
    w = decimal.Decimal(2 * scale if signed else scale).adjusted() + 1
    half = 5 * 10 ** (w - 1) if signed else 0
    if m is not None:
        return _digit_residues(str(_decimal_total(packed, w, half)), w, n, m)
    out = _unpack(str(_decimal_total(packed, w, half)), w, n)
    return [x - half for x in out] if signed else out


def _decimal_total(packed, w: int, half: int) -> decimal.Decimal:
    """Sum of a*b over the (a, b, lo_a, hi_a, lo_b, hi_b) in packed, each
    operand its exact value as one `decimal.Decimal` of w-digit slots
    (`_pack`) multiplied by libmpdec, plus half in every slot the products
    reach; exact."""
    # from an exact zero the sum keeps exponent 0, so its text has no exponent
    total = decimal.Decimal(0)
    for a, b, lo_a, hi_a, lo_b, hi_b in packed:
        # no product outlives its turn beside the total
        total = _EXACT.add(total, _EXACT.multiply(_pack(a, lo_a, hi_a, w), _pack(b, lo_b, hi_b, w)))
    if half:
        slots = max(len(a) + len(b) - 1 for a, b, *_ in packed)
        total = _EXACT.add(total, _EXACT.multiply(half, _repunit(w, slots)))
    return total


def _convolve_int_sum(pairs, n_out: int, m: int | None = None) -> list[int]:
    """Sum of a*b over the (a, b) in pairs, every operand at most n_out
    terms, truncated to n_out terms: over Z, exact; with a modulus m, every
    operand is residues mod m as bytes and the sum is reduced mod m.

    Each product goes to the kernel `_kernel` picks from its operands'
    nonzero counts and lengths, and with a modulus from the shift-add
    total's slot bound too: only residue operands are offered the
    shift-add.  The shift-add products share one binary total and the
    decimal ones one decimal total, each unpacked once.  A slot of a*b
    sums at most min(nnz a, nnz b) terms, so each total's slot is sized by
    the sum over its pairs of that count times max|a| max|b| (doubled by
    `_convolve_decimal` for a signed total): no slot overflows into its
    neighbour.

    Residue operands give their nonzero counts and largest values by byte
    operations.  Every part then comes back as residues: the shift-add and
    decimal totals as bytes, each schoolbook product reduced, and `_fold`
    adds them mod m, so no total is unpacked into ints.
    """
    parts, shifted, packed = [], [], []
    slot = scale = 0
    for a, b in pairs:
        nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
        if (nnz_a, -len(a)) < (nnz_b, -len(b)):
            # a is the denser operand from here on
            a, b, nnz_a, nnz_b = b, a, nnz_b, nnz_a
        lo_a, hi_a = _bounds(a, nnz_a, m)
        lo_b, hi_b = _bounds(b, nnz_b, m)
        with_pair = None if m is None else slot + nnz_b * hi_a * hi_b
        kernel = _kernel(nnz_a, nnz_b, len(a), len(b), with_pair)
        if kernel == "schoolbook":
            part = _convolve_int_schoolbook(a, b, n_out)
            parts.append(part if m is None else bytes([x % m for x in part]))
        elif kernel == "shift":
            slot = with_pair
            shifted.append((a, b))
        else:
            scale += min(nnz_a, nnz_b) * max(hi_a, -lo_a) * max(hi_b, -lo_b)
            packed.append((a, b, min(lo_a, 0), hi_a, min(lo_b, 0), hi_b))
    if shifted:
        parts.append(_convolve_shift_add(shifted, _slot_bits(slot), _reach(shifted, n_out), m))
    if packed:
        parts.append(_convolve_decimal(packed, scale, _reach(packed, n_out), m))
    if not parts:
        return [0] * n_out
    if m is not None:
        return list(_fold([part.ljust(n_out, b"\0") for part in parts], m))
    out = parts.pop()
    out.extend([0] * (n_out - len(out)))
    for part in parts:
        out[: len(part)] = map(add, out[: len(part)], part)
    return out


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
    over Z or Z/m: the products `convolve` would make, added before one
    unpack (see `_convolve_int_sum`).  Over Z/m with m <= _BYTE_MODULUS
    every operand enters as residues in bytes (`_residues`), so the whole
    sum is made and added mod m; over a larger modulus it is the sum over Z
    reduced once."""
    if not isinstance(ring, (IntegerRing, ModRing)):
        raise ValueError(f"convolve_sum needs Z or Z/m, got {ring!r}")
    m = ring.modulus if isinstance(ring, ModRing) else None
    # no copy of an operand that is short enough already, and none kept
    # beside its residues
    cut = ((a if len(a) <= n_out else a[:n_out], b if len(b) <= n_out else b[:n_out]) for a, b in pairs)
    if m is not None and m <= _BYTE_MODULUS:
        return _convolve_int_sum([(_residues(a, m), _residues(b, m)) for a, b in cut], n_out, m)
    out = _convolve_int_sum(list(cut), n_out)
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
    Outside data enters reduced through `from_ints`, `loads` and the
    injected-series check in `diamond._series`.
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

    def conjugate(self) -> "QSeries":
        conj = self.ring.conj
        return QSeries(self.ring, self.offset24, [conj(c) for c in self.coeffs])

    def __add__(self, other):
        return self.add(other) if isinstance(other, QSeries) else NotImplemented

    def __sub__(self, other):
        return self.sub(other) if isinstance(other, QSeries) else NotImplemented

    def __mul__(self, other):
        return self.mul(other) if isinstance(other, QSeries) else NotImplemented

    def __pow__(self, e):
        return self.pow(e) if isinstance(e, int) else NotImplemented

    def __neg__(self):
        return self.neg()

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


class _Table(dict):
    """A prebuilt map that sends every key outside it through `fallback`."""

    __slots__ = ("fallback",)

    def __init__(self, pairs, fallback):
        super().__init__(pairs)
        self.fallback = fallback

    def __missing__(self, key):
        return self.fallback(key)


def _line_codec(ring: Ring, n: int, entry, fallback):
    # over Z/m with m <= n, a table lookup from entry(v) for each residue v:
    # n lines share m strings (or m ints), and the table is no bigger than
    # the data; anything outside the table, and every other ring, goes
    # through `fallback` one line at a time
    if isinstance(ring, ModRing) and ring.modulus <= n:
        return _Table(map(entry, range(ring.modulus)), fallback).__getitem__
    return fallback


def dumps(s: QSeries) -> str:
    """Text coefficient dump; one coefficient per line, bit-exact round trip."""
    fmt = s.ring.format_elem
    line = _line_codec(
        s.ring, s.T, lambda v: (v, f"{fmt(v)}\n"), lambda c: f"{fmt(c)}\n"
    )
    header = f"qseries v1 ring={s.ring.tag} offset24={s.offset24} T={s.T}\n"
    # one join: over Z/m its list holds the table's m shared strings; other
    # rings hold one string per line until the join
    return header + "".join(map(line, s.coeffs))


def loads(text: str) -> QSeries:
    """Inverse of `dumps`: exactly the header's T coefficients, with nothing
    after them."""
    # streamed line by line: a split would hold every line's string at once
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
    fmt = ring.format_elem
    # every parser accepts the line's trailing newline; a line outside the
    # table (the last one without its newline, "8" or "-1" mod 7) is parsed
    parse = _line_codec(ring, T, lambda v: (f"{fmt(v)}\n", v), ring.parse_elem)
    coeffs = list(map(parse, islice(lines, T)))
    if len(coeffs) < T:
        raise ValueError(f"dump truncated: expected {T} coefficients")
    if lines.readline():
        raise ValueError(f"dump has lines after its {T} coefficients")
    return QSeries(ring, offset24, coeffs)
