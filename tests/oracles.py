"""Independent brute-force reference implementations used as test oracles.

Nothing here touches the package's arithmetic: products are expanded one
binomial factor at a time, divisor sums come from trial division, and
characters from Euler's criterion.  Slow on purpose.  The one exception is
the Z[sqrt(-3)] reference for Theorem 3.1, `over_quad` and
`verify_eigenform`: it applies the package's Hecke operator and comparison
to f = f1 + 8 sqrt(-3) f2 as one series over the quadratic ring, where the
claims read f as two integer series.
"""

import math
from decimal import Decimal
from operator import add, sub

from qcong.operators import hecke
from qcong.qseries import QSeries
from qcong.ring import QUAD, QuadInt
from qcong.sturm import _compare


def mult_binomial(c: list[int], n: int) -> list[int]:
    """Multiply a coefficient list by (1 - q^n), in place: c[i] - c[i - n]
    for every i >= n, all from the old values, as one slice."""
    c[n:] = map(sub, c[n:], c[: len(c) - n])
    return c


def div_binomial(c: list[int], n: int) -> list[int]:
    """Divide a coefficient list by (1 - q^n) (multiply by 1 + q^n + ...), in
    place: c[i] + c[i - n] with c[i - n] already divided, so one block of n
    terms at a time, in order."""
    for k in range(n, len(c), n):
        c[k : k + n] = map(add, c[k : k + n], c[k - n : k])
    return c


def naive_euler_product(T: int, step: int = 1) -> list[int]:
    """prod_{n>=1} (1 - q^(step*n)) truncated to T coefficients."""
    c = [0] * T
    c[0] = 1
    n = step
    while n < T:
        c = mult_binomial(c, n)
        n += step
    return c


def naive_eta_product(factors, T: int) -> list[int]:
    """prod over (d, r) of prod_{n>=1} (1 - q^(dn))^r to T coefficients, one
    binomial factor at a time; the q^(sum dr/24) prefactor is left off."""
    c = [0] * T
    c[0] = 1
    for d, r in factors:
        step = mult_binomial if r > 0 else div_binomial
        for n in range(d, T, d):
            for _ in range(abs(r)):
                c = step(c, n)
    return c


def naive_eta_level(factors) -> int:
    """Least multiple N of lcm(d) over the factors (d, r) with
    24 | sum((N/d) r), by scanning the multiples of lcm(d) in turn."""
    L = 1
    while any(L % d for d, _ in factors):
        L += 1
    N = L
    while sum((N // d) * r for d, r in factors) % 24:
        N += L
    return N


def naive_delta(k: int, T: int) -> list[int]:
    """Broken k-diamond counting series by factor-by-factor expansion."""
    c = [0] * T
    c[0] = 1
    for n in range(1, T):
        if 2 * n < T:
            c = mult_binomial(c, 2 * n)
        if (2 * k + 1) * n < T:
            c = mult_binomial(c, (2 * k + 1) * n)
        for _ in range(3):
            c = div_binomial(c, n)
        if (4 * k + 2) * n < T:
            c = div_binomial(c, (4 * k + 2) * n)
    return c


def naive_is_prime(n: int) -> bool:
    """n >= 2 with no divisor d in 2 <= d <= sqrt(n), trying every d."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def naive_c(T: int) -> list[int]:
    """E4(2z) prod (1-q^n)^8 (1-q^{2n})^2 via divisor sums and binomials."""
    e4 = [1] + [240 * naive_sigma(3, n) for n in range(1, (T + 1) // 2)]
    c = [0] * T
    for n, v in enumerate(e4):
        if 2 * n < T:
            c[2 * n] = v
    for n in range(1, T):
        for _ in range(8):
            c = mult_binomial(c, n)
        if 2 * n < T:
            for _ in range(2):
                c = mult_binomial(c, 2 * n)
    return c


def euler_criterion(a: int, p: int) -> int:
    """Legendre symbol of a mod an odd prime p, as a**((p-1)/2) mod p."""
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def naive_hecke(a: list[int], p: int, k: int, chi_p: int) -> list[int]:
    """Literal Hecke formula b(n) = a(pn) + chi(p) p^(k-1) a(n/p)."""
    out = []
    for n in range((len(a) - 1) // p + 1):
        v = a[p * n]
        if n % p == 0:
            v += chi_p * p ** (k - 1) * a[n // p]
        out.append(v)
    return out


def _times(c, x, modulus):
    # c x, written out: an element of Z[sqrt(-3)] (a QuadInt) by
    # (a + b s)(c + d s) = (ac - 3bd) + (ad + bc) s, an int exactly or mod m
    if hasattr(x, "im"):
        c = c if hasattr(c, "im") else type(x)(c, 0)
        return type(x)(c.re * x.re - 3 * c.im * x.im, c.re * x.im + c.im * x.re)
    return c * x if modulus is None else c * x % modulus


def naive_scale(c, coeffs: list, modulus=None) -> list:
    """c times each coefficient, one at a time (mod `modulus` if given)."""
    return [_times(c, x, modulus) for x in coeffs]


def naive_twist(coeffs: list, p: int, modulus=None) -> list:
    """Coefficient n times the Legendre symbol (n|p), asked of Euler's
    criterion at each n (mod `modulus` if given; a symbol 1 keeps the
    coefficient as it is)."""
    out = []
    for n, x in enumerate(coeffs):
        s = euler_criterion(n, p)
        out.append(x if s == 1 else _times(s, x, modulus))
    return out


def naive_first_mismatch(x: list, y: list, bound: int):
    """The least n <= bound with x[n] != y[n], None if there is none."""
    for n in range(bound + 1):
        if x[n] != y[n]:
            return n
    return None


def naive_hecke_recurrence(u: list[int], p: int, y: int, T: int, modulus=None):
    """First n < T where u(pn + (p-1)/2) + p^8 u((n - (p-1)/2)/p) != y u(n),
    exactly or mod `modulus`, by the literal index recurrence of Theorem 1.2;
    the quotient term counts when p divides n - (p-1)/2 >= 0.  None if none."""
    half = (p - 1) // 2
    for n in range(T):
        lhs = u[p * n + half]
        if n >= half and (n - half) % p == 0:
            lhs += p**8 * u[(n - half) // p]
        diff = lhs - y * u[n]
        if modulus is not None:
            diff %= modulus
        if diff:
            return n
    return None


MERSENNE_61 = (1 << 61) - 1


def evaluate_mod(c: list[int], x: int) -> int:
    """sum_k c_k x^k mod P = 2^61 - 1, by Horner's rule."""
    P = MERSENNE_61
    acc = 0
    for v in reversed(c):
        acc = (acc * x + v) % P
    return acc


def evaluate_product_mod(a: list[int], b: list[int], n: int, x: int) -> int:
    """sum_{k<n} (a*b)_k x^k mod P = 2^61 - 1 in O(len(a) + len(b)), without
    forming the product: sum_i a_i x^i B(n - i), where B(m) is the value at x
    of the first m terms of b."""
    P = MERSENNE_61
    prefix = [0]
    xp = 1
    for v in b[:n]:
        prefix.append((prefix[-1] + v * xp) % P)
        xp = xp * x % P
    total = 0
    xp = 1
    for i, v in enumerate(a[:n]):
        total = (total + v * xp * prefix[min(n - i, len(prefix) - 1)]) % P
        xp = xp * x % P
    return total


def unpack_per_slot(digits: str, w: int, n: int) -> list[int]:
    """The n lowest w-digit slots of a decimal numeral, least first, zero
    filled when it is shorter, each slot parsed on its own (through
    `Decimal`, which no int-to-str digit limit applies to)."""
    digits = digits.zfill(n * w)
    top = len(digits)
    return [int(Decimal(digits[i - w : i])) for i in range(top, top - n * w, -w)]


def dumps_per_line(s) -> str:
    """The qseries v1 text dump of a series, written one coefficient at a time
    through `str`."""
    out = [f"qseries v1 ring={s.ring.tag} offset24={s.offset24} T={s.T}\n"]
    for c in s.coeffs:
        out.append(str(c))
        out.append("\n")
    return "".join(out)


def loads_per_line(text: str, ring) -> list:
    """The T coefficients of a qseries v1 dump over `ring`, each line parsed
    on its own by `ring.parse_elem`; the header is only read for T."""
    header, *lines = text.split("\n")
    n = int(header.split()[4].removeprefix("T="))
    # the split drops each line's newline; parse_elem is given it back,
    # except on a last line that had none
    return [ring.parse_elem(line + "\n" if i + 1 < len(lines) else line)
            for i, line in enumerate(lines[:n])]


def cm_coefficient(p: int) -> int:
    """Prime coefficient of eta(4z)^6: 2x^2 - 2y^2 for p = x^2 + y^2 with x
    odd, found by trying every odd x, and 0 for p = 2 or p = 3 mod 4."""
    if p == 2 or p % 4 == 3:
        return 0
    for x in range(1, math.isqrt(p) + 1, 2):
        y = math.isqrt(p - x * x)
        if y > 0 and x * x + y * y == p:
            return 2 * x * x - 2 * y * y
    raise AssertionError(f"{p} is not a sum of two squares")


def over_quad(f1: QSeries, f2: QSeries, sign: int = 1) -> QSeries:
    """f1 + 8 sqrt(-3) f2 over Z[sqrt(-3)], or its conjugate for sign -1."""
    pairs = zip(f1.coeffs, f2.coeffs)
    return QSeries(QUAD, 0, [QuadInt(a, sign * 8 * b) for a, b in pairs])


def verify_eigenform(f: QSeries, p: int, space, claim: str = "eigenform"):
    """Check that f | T_p is a scalar multiple of f through the equality
    Sturm bound of `space`, over any ring; returns (eigenvalue, report).

    The candidate eigenvalue is read off at the lowest nonzero coefficient
    of f, which must be a unit.  On non-proportionality the eigenvalue is
    None and the report carries the first failing exponent.
    """
    if f.offset24 != 0:
        raise ValueError("eigenform check requires offset 0")
    bound = space.sturm_bound
    if f.T < p * (bound + 1):
        raise ValueError(
            f"insufficient truncation {f.T}: eigenform check at p={p} "
            f"needs at least {p * (bound + 1)} coefficients"
        )
    ring = f.ring
    zero = ring.zero
    n0 = next((n for n, c in enumerate(f.coeffs) if c != zero), None)
    if n0 is None or n0 > bound:
        raise ValueError("series vanishes through the bound; eigenvalue undefined")
    if not ring.is_unit(f.coeffs[n0]):
        raise ValueError(f"leading coefficient {f.coeffs[n0]!r} is not a unit")
    g = hecke(f, p, space.weight, space.character)
    lam = ring.mul(g.coeffs[n0], ring.inv(f.coeffs[n0]))
    report = _compare(claim, g, f.truncate(bound + 1).scale(lam), bound, space)
    return (lam if report.passed else None), report
