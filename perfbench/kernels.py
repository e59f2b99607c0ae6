"""The kernel battery: `qcong.qseries.convolve` over every ring and
`QSeries.invert`, on seeded operands, each result checked in O(n).

    python perfbench/kernels.py OPERANDS.json [CPU_OUT.json]

`generate(seed)` makes the operands (the benchmark's set-up for this
workload) and `write_operands` stores them; the battery then runs as its
own process, so the program sees only the generated inputs.  It prints one
JSON object, the same for the same operands: per case, the calls made and
the calls that failed their check.  The CPU seconds spent inside the qcong
calls alone (not decoding operands or checking results) go to CPU_OUT as
``{"qcong_cpu_s": ...}``.

Checks never use the quadratic schoolbook oracle:
- int, rat and quad products are evaluated at a random point mod the prime
  P = 2^61 - 1, the truncated product through prefix sums of b;
- mod 7 and mod 11 operands are reductions of the int operands of the same
  size, so their products must equal the checked int product reduced;
- invert operands are products of geometric series 1/(1 - c q^s), whose
  inverse prod(1 - c q^s) is built exactly in O(n) per factor.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

P = (1 << 61) - 1  # prime, = 1 mod 3, so sqrt(-3) exists mod P
SQRT_M3 = pow(P - 3, (P + 1) // 4, P)

SMALL, MID, LARGE = 1_000, 10_000, 100_001
# (size, n, repetitions, int height in bits or None for [0, 76], other rings)
SIZES = (
    ("small", SMALL, 10, 48, ("mod:7", "mod:11", "rat", "quad")),
    ("mid", MID, 1, 40, ("mod:7", "mod:11", "rat", "quad")),
    ("large", LARGE, 1, None, ("mod:7",)),
)
INVERT = (("int", SMALL, 10), ("int", MID, 1), ("mod:7", SMALL, 10),
          ("mod:7", MID, 1), ("mod:7", LARGE, 1))
RAT_DENS = (1, 2, 3, 4, 6, 8, 12, 24)
GEOMETRIC_FACTORS = 6


def _ints(rng: random.Random, n: int, bits: int | None) -> list[int]:
    if bits is None:
        # 77 = 7 * 11: the reductions mod 7 and mod 11 are both uniform
        xs = [rng.randrange(77) for _ in range(n)]
        xs[rng.randrange(n)] = 76
        return xs
    h = 1 << bits
    xs = [rng.randint(-h, h) for _ in range(n)]
    xs[rng.randrange(n)] = h  # fixes the packing width across seeds
    return xs


def _factors(rng: random.Random, modulus: int | None) -> list[tuple[int, int]]:
    """(c, s) pairs; the first has s = 1 so the operand is dense."""
    out = []
    for k in range(GEOMETRIC_FACTORS):
        s = 1 if k == 0 else rng.randint(2, 40)
        c = rng.choice((-1, 1)) if modulus is None else rng.randrange(1, modulus)
        out.append((c, s))
    return out


def divide_geometric(xs: list[int], factors, modulus: int | None) -> list[int]:
    """xs / prod(1 - c q^s), truncated to len(xs)."""
    xs = list(xs)
    for c, s in factors:
        if modulus is None:
            for i in range(s, len(xs)):
                xs[i] += c * xs[i - s]
        else:
            for i in range(s, len(xs)):
                xs[i] = (xs[i] + c * xs[i - s]) % modulus
    return xs


def multiply_binomials(n: int, factors, modulus: int | None) -> list[int]:
    """prod(1 - c q^s), truncated to n."""
    xs = [1] + [0] * (n - 1)
    for c, s in factors:
        for i in range(n - 1, s - 1, -1):
            xs[i] -= c * xs[i - s]
        if modulus is not None:
            xs = [x % modulus for x in xs]
    return xs


def generate(seed: int) -> dict:
    """Every operand of the battery, as JSON-ready data, from one seed."""
    rng = random.Random(seed)
    cases = []
    for size, n, reps, bits, rings in SIZES:
        a, b = _ints(rng, n, bits), _ints(rng, n, bits)
        base = {"op": "convolve", "size": size, "n": n, "reps": reps}
        cases.append({**base, "ring": "int", "a": a, "b": b})
        for m in (7, 11):
            if f"mod:{m}" in rings:
                cases.append({**base, "ring": f"mod:{m}", "a": [x % m for x in a],
                              "b": [x % m for x in b], "check": size})
        if "rat" in rings:
            rat = [[[rng.randint(-(1 << 16), 1 << 16), rng.choice(RAT_DENS)]
                    for _ in range(n)] for _ in "ab"]
            cases.append({**base, "ring": "rat", "a": rat[0], "b": rat[1]})
        if "quad" in rings:
            quad = [[[rng.randint(-(1 << 16), 1 << 16), rng.randint(-(1 << 16), 1 << 16)]
                     for _ in range(n)] for _ in "ab"]
            cases.append({**base, "ring": "quad", "a": quad[0], "b": quad[1]})
    for ring, n, reps in INVERT:
        modulus = None if ring == "int" else int(ring[4:])
        factors = _factors(rng, modulus)
        a = divide_geometric([1] + [0] * (n - 1), factors, modulus)
        size = {SMALL: "small", MID: "mid", LARGE: "large"}[n]
        cases.append({"op": "invert", "ring": ring, "size": size, "n": n,
                      "reps": reps, "a": a, "factors": factors})
    return {"seed": seed, "x": rng.randrange(2, P - 1), "cases": cases}


def write_operands(data: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(data, separators=(",", ":")))


def case_id(case: dict) -> str:
    return f"{case['op']}/{case['ring']}/{case['size']}"


def _ring(tag: str):
    from qcong.ring import ring_from_tag

    return ring_from_tag(tag)


def _decode(tag: str, xs: list) -> list:
    if tag == "rat":
        return [Fraction(p, q) for p, q in xs]
    if tag == "quad":
        from qcong.ring import QuadInt

        return [QuadInt(re, im) for re, im in xs]
    return xs


def _to_field(tag: str):
    if tag == "rat":
        inverses: dict[int, int] = {}

        def rat(f: Fraction) -> int:
            d = f.denominator
            if d not in inverses:
                inverses[d] = pow(d, -1, P)
            return f.numerator * inverses[d] % P

        return rat
    if tag == "quad":
        return lambda z: (z.re + z.im * SQRT_M3) % P
    return lambda v: v % P


def evaluate(c: list, x: int, to_f) -> int:
    """sum c_k x^k mod P."""
    acc = 0
    for v in reversed(c):
        acc = (acc * x + to_f(v)) % P
    return acc


def evaluate_product(a: list, b: list, n: int, x: int, to_f) -> int:
    """sum_{k<n} (a*b)_k x^k mod P in O(n): sum_i a_i x^i B_{n-i}, where
    B_m is the value of the first m terms of b."""
    nb = min(len(b), n)
    prefix = [0] * (nb + 1)
    acc, xp = 0, 1
    for j in range(nb):
        acc = (acc + to_f(b[j]) * xp) % P
        xp = xp * x % P
        prefix[j + 1] = acc
    total, xp = 0, 1
    for i in range(min(len(a), n)):
        total = (total + to_f(a[i]) * xp % P * prefix[min(n - i, nb)]) % P
        xp = xp * x % P
    return total


def check_convolve(case: dict, a: list, b: list, out: list, x: int, done: dict) -> bool:
    """True when out is the n-term product of a and b in the case's ring."""
    n, tag = case["n"], case["ring"]
    if len(out) != n:
        return False
    if "check" in case:
        ref = done.get(case["check"])
        m = int(tag[4:])
        return ref is not None and out == [v % m for v in ref]
    to_f = _to_field(tag)
    return evaluate(out, x, to_f) == evaluate_product(a, b, n, x, to_f)


def check_invert(case: dict, out: list) -> bool:
    """True when out is the exact inverse of the case's operand."""
    modulus = None if case["ring"] == "int" else int(case["ring"][4:])
    return out == multiply_binomials(case["n"], case["factors"], modulus)


def call_count() -> int:
    """The number of qcong calls in a battery, whatever the seed."""
    return (sum(reps * (1 + len(rings)) for _, _, reps, _, rings in SIZES)
            + sum(reps for _, _, reps in INVERT))


def run(data: dict) -> tuple[list[dict], float]:
    """Run every case; returns per-case check outcomes and the CPU seconds
    spent inside the qcong calls."""
    from qcong import qseries

    results = []
    done: dict[str, list] = {}  # checked int products, by size
    cpu = 0.0
    for case in data["cases"]:
        ring = _ring(case["ring"])
        a = _decode(case["ring"], case["a"])
        outs = []
        if case["op"] == "convolve":
            b = _decode(case["ring"], case["b"])
        for _ in range(case["reps"]):
            if case["op"] == "convolve":
                t0 = time.process_time()
                out = qseries.convolve(ring, a, b, case["n"])
                cpu += time.process_time() - t0
            else:
                s = qseries.QSeries(ring, 0, a)
                t0 = time.process_time()
                out = s.invert().coeffs
                cpu += time.process_time() - t0
            outs.append(out)
        if case["op"] == "convolve":
            ok = check_convolve(case, a, b, outs[0], data["x"], done)
            if ok and case["ring"] == "int":
                done[case["size"]] = outs[0]
        else:
            ok = check_invert(case, outs[0])
        passed = sum(1 for out in outs if ok and out == outs[0])
        results.append({"case": case_id(case), "n": case["n"],
                        "calls": len(outs), "failed": len(outs) - passed})
    return results, cpu


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        data = json.load(fh)
    results, cpu = run(data)
    print(json.dumps({"seed": data["seed"], "results": results}))
    if len(argv) > 1:
        with open(argv[1], "w") as fh:
            fh.write(json.dumps({"qcong_cpu_s": cpu}))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
