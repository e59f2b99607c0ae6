"""Per-case CPU of the perfbench `kernels` battery, in process.

    python scripts/kernel_cases.py --seed N [--runs K]

Makes the battery's operands for seed N with `perfbench/kernels.py`
(imported, never changed), runs every case K times (default 5) through
qcong from this checkout's `src/`, and prints per case the median and the
least, over the K runs, of the CPU seconds spent inside the qcong calls of
all its repetitions, then the same for the whole battery.  Every result is
checked as the battery checks it; a failed check exits with status 1.

The benchmark's per-layer `qseries.convolve.*` metrics read near 0 on this
workload, so this is where a change of `kernels` `cpu_ref` shows which
cases it came from.  Run it from two checkouts to compare them.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import kernels  # noqa: E402
from qcong import qseries  # noqa: E402


def run_cases(data: dict) -> list[tuple[str, float, bool]]:
    """(case id, CPU seconds inside qcong, checked) for each case, in order."""
    rows = []
    done: dict[str, list] = {}  # checked int products, by size
    for case in data["cases"]:
        ring = kernels._ring(case["ring"])
        a = kernels._decode(case["ring"], case["a"])
        convolve = case["op"] == "convolve"
        if convolve:
            b = kernels._decode(case["ring"], case["b"])
        cpu = 0.0
        for _ in range(case["reps"]):
            if convolve:
                t0 = time.process_time()
                out = qseries.convolve(ring, a, b, case["n"])
            else:
                s = qseries.QSeries(ring, 0, a)
                t0 = time.process_time()
                out = s.invert().coeffs
            cpu += time.process_time() - t0
        if convolve:
            ok = kernels.check_convolve(case, a, b, out, data["x"], done)
            if ok and case["ring"] == "int":
                done[case["size"]] = out
        else:
            ok = kernels.check_invert(case, out)
        rows.append((kernels.case_id(case), cpu, ok))
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    data = kernels.generate(args.seed)
    runs = [run_cases(data) for _ in range(args.runs)]
    ids = [case_id for case_id, _, _ in runs[0]]
    print(f"{'case':<24}{'median ms':>12}{'least ms':>12}")
    for k, case_id in enumerate(ids):
        cpu = [run[k][1] for run in runs]
        print(f"{case_id:<24}{1e3 * statistics.median(cpu):>12.2f}{1e3 * min(cpu):>12.2f}")
    totals = [sum(cpu for _, cpu, _ in run) for run in runs]
    print(f"{'all':<24}{1e3 * statistics.median(totals):>12.2f}{1e3 * min(totals):>12.2f}")
    failed = sorted({case_id for run in runs for case_id, _, ok in run if not ok})
    if failed:
        print("failed checks: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
