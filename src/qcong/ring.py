"""Exact coefficient rings for series arithmetic.

Four rings are supported: arbitrary-precision integers, rationals,
integers modulo m, and the quadratic ring Z[sqrt(-3)].  Every claim runs
over Z or Z/m, and no module above this one and qseries names the other
two: they serve the rat and quad rows of perfbench/kernels.py and the
tests, among them the tests' Z[sqrt(-3)] reference for Theorem 3.1.  A
ring object holds the scalar operations; elements themselves are plain
immutable values (``int``, ``Fraction``, ``QuadInt``), so they can be
shared freely across threads.  Mixed-ring arithmetic is never coerced: series
code checks ring equality and rejects mismatches, and the only sanctioned
conversions are each ring's ``from_int``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

__all__ = [
    "QuadInt",
    "Ring",
    "IntegerRing",
    "RationalRing",
    "ModRing",
    "QuadRing",
    "ZZ",
    "QQ",
    "QUAD",
    "ring_from_tag",
    "kronecker",
    "bernoulli",
    "is_prime",
    "primes_up_to",
]


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integer pairs.

    Extends the Legendre symbol multiplicatively with the standard
    conventions: (a|2) is 0 for even a, +1 for a = +-1 mod 8, -1 for
    a = +-3 mod 8; (a|-1) is -1 exactly for a < 0; (a|0) is 1 only
    for a = +-1.  For odd prime n it is the Legendre symbol.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 and a % 8 in (3, 5):
            k = -k
    # n now odd and positive: quadratic reciprocity loop (Jacobi)
    a %= n
    while a:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


@lru_cache(maxsize=None)
def _bernoulli_list(m: int) -> tuple[Fraction, ...]:
    # sum_{j<=i} C(i+1, j) B_j = 0 for i >= 1, solved for B_i
    vals = [Fraction(1)]
    for i in range(1, m + 1):
        s = sum(math.comb(i + 1, j) * vals[j] for j in range(i))
        vals.append(Fraction(-s, i + 1))
    return tuple(vals)


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, for even k >= 0."""
    if k < 0 or k % 2 == 1:
        raise ValueError(f"bernoulli requires an even k >= 0, got {k}")
    return _bernoulli_list(k)[k]


def is_prime(n: int) -> bool:
    """Primality by factorisation: n is its own only prime factor (n < 10**6)."""
    return n >= 2 and _factorize(n) == [(n, 1)]


def _factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division, primes increasing."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


# The quadratic ring is specialised to discriminant -3 (sqrt(-3)), but the
# multiplication is written against this stored constant.
_QUAD_D = -3


class _Frozen:
    """Base of the slotted value types.  __init__ sets each field in
    __slots__ once, through object.__setattr__, and the fields are
    read-only after.  Two values are equal, and hash alike, when they are
    of one class and their `_key()`s are equal."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # copy and pickle rebuild a value through __init__
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


_set = object.__setattr__  # bound once: QuadInt is built per coefficient


class QuadInt(_Frozen):
    """Element re + im*sqrt(-3) of Z[sqrt(-3)]."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        _set(self, "re", re)
        _set(self, "im", im)

    def _key(self) -> tuple[int, int]:
        return self.re, self.im

    def __repr__(self) -> str:
        return f"QuadInt(re={self.re!r}, im={self.im!r})"

    # another type's operand gets NotImplemented, so Python raises TypeError
    # (or tries the reflected operator) instead of reading fields it lacks
    def __add__(self, other: "QuadInt") -> "QuadInt":
        if not isinstance(other, QuadInt):
            return NotImplemented
        return QuadInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        if not isinstance(other, QuadInt):
            return NotImplemented
        return QuadInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.re, -self.im)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        if not isinstance(other, QuadInt):
            return NotImplemented
        return QuadInt(
            self.re * other.re + _QUAD_D * self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "QuadInt":
        return QuadInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re - _QUAD_D * self.im * self.im

    def __str__(self) -> str:
        return f"{self.re},{self.im}"


class Ring(_Frozen):
    """Scalar operations of one coefficient ring.

    Rings are immutable and compare and hash by their tag, so two
    ModRing(7) are the same ring.  ``add``, ``neg`` and ``mul`` default
    to the elements' own operators; ``mul_each`` and ``add_each`` are the
    same products and sums over whole lists, mapped in C with no Python
    call per element for ``int`` elements.  Only ``ModRing`` overrides
    the arithmetic, to reduce mod m; it scales residues mod m <= 256 by
    one translate of their bytes.  Each ring supplies ``from_int``,
    ``is_unit``, ``inv`` and ``parse_elem``, the inverse of ``str`` on its
    elements.
    """

    __slots__ = ()
    tag: str
    zero: object
    one: object

    def _key(self) -> str:
        return self.tag

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def mul_each(self, c, xs: list) -> list:
        """[c * x for x in xs]."""
        return list(map(operator.mul, repeat(c), xs))

    def add_each(self, xs: list, ys: list) -> list:
        """[x + y for x, y in zip(xs, ys)]."""
        return list(map(operator.add, xs, ys))

    def from_int(self, n: int):
        """The sanctioned conversion from a plain integer into this ring."""
        raise NotImplementedError

    def is_unit(self, x) -> bool:
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def parse_elem(self, s: str):
        raise NotImplementedError


class IntegerRing(Ring):
    __slots__ = ()
    tag = "int"
    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n

    def is_unit(self, x: int) -> bool:
        return x in (1, -1)

    def inv(self, x: int) -> int:
        if x not in (1, -1):
            raise ValueError(f"{x} is not a unit in Z")
        return x

    # the builtin itself, so a map over the lines of a dump runs no Python
    # frame per line
    parse_elem = staticmethod(int)

    def __repr__(self) -> str:
        return "ZZ"


class RationalRing(Ring):
    __slots__ = ()
    tag = "rat"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def is_unit(self, x: Fraction) -> bool:
        return x != 0

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ValueError("0 is not a unit in Q")
        return 1 / x

    def parse_elem(self, s: str) -> Fraction:
        return Fraction(s)

    def __repr__(self) -> str:
        return "QQ"


@lru_cache(maxsize=1024)
def _times(p: int, m: int, zero: int = 0) -> bytes:
    """The translate table of each byte b to (b - zero) p mod m: a residue
    byte's multiple, or a lane byte's share (zero 0) or an ASCII digit's
    (zero 48) of its slot's residue."""
    return bytes((b - zero) * p % m for b in range(256))


class ModRing(Ring):
    """Z/m with elements stored as plain ints reduced into [0, m)."""

    __slots__ = ("modulus",)
    zero = 0
    one = 1

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        _set(self, "modulus", modulus)

    @property
    def tag(self) -> str:
        return f"mod:{self.modulus}"

    def add(self, x: int, y: int) -> int:
        s = x + y
        return s - self.modulus if s >= self.modulus else s

    def neg(self, x: int) -> int:
        return -x % self.modulus

    def mul(self, x: int, y: int) -> int:
        return x * y % self.modulus

    # the list forms reduce every result with %, so an unreduced residue
    # (9 or -1 mod 7) comes out reduced, never wrapped into a wrong value
    def mul_each(self, c: int, xs: list) -> list:
        """[c * x % m for x in xs].  For m <= 256, ints in [0, 256) are
        scaled as bytes by one translate through the table of b c mod m;
        `bytes` rejects any other value, with ValueError or TypeError, and
        the comprehension takes the list."""
        m = self.modulus
        if m <= 256:
            try:
                return list(bytes(xs).translate(_times(c % m, m)))
            except (TypeError, ValueError):
                pass
        return [x % m for x in map(operator.mul, repeat(c), xs)]

    def add_each(self, xs: list, ys: list) -> list:
        m = self.modulus
        return [x % m for x in map(operator.add, xs, ys)]

    def from_int(self, n: int) -> int:
        return n % self.modulus

    def is_unit(self, x: int) -> bool:
        return math.gcd(x, self.modulus) == 1

    def inv(self, x: int) -> int:
        return pow(x, -1, self.modulus)

    def parse_elem(self, s: str) -> int:
        return int(s) % self.modulus

    def __repr__(self) -> str:
        return f"ModRing({self.modulus})"


class QuadRing(Ring):
    __slots__ = ()
    tag = "quad"
    zero = QuadInt(0, 0)
    one = QuadInt(1, 0)

    def from_int(self, n: int) -> QuadInt:
        return QuadInt(n, 0)

    def is_unit(self, x: QuadInt) -> bool:
        return x.norm() == 1

    def inv(self, x: QuadInt) -> QuadInt:
        if x.norm() != 1:
            raise ValueError(f"{x} is not a unit in Z[sqrt(-3)]")
        return x.conj()

    def parse_elem(self, s: str) -> QuadInt:
        re, im = s.split(",")
        return QuadInt(int(re), int(im))

    def __repr__(self) -> str:
        return "QUAD"


ZZ = IntegerRing()
QQ = RationalRing()
QUAD = QuadRing()


def ring_from_tag(tag: str) -> Ring:
    """Inverse of ``ring.tag``, used by the dump format and the cache."""
    if tag == "int":
        return ZZ
    if tag == "rat":
        return QQ
    if tag == "quad":
        return QUAD
    if tag.startswith("mod:") and tag[4:].isascii() and tag[4:].isdigit():
        return ModRing(int(tag[4:]))
    raise ValueError(f"unknown ring tag {tag!r}")
