"""Per-case CPU of the perfbench `kernels` battery, in process.

    python scripts/kernel_cases.py --seed N [--runs K] [--peak]

Makes the battery's operands for seed N with `perfbench/kernels.py`
(imported, never changed) and runs the battery's own loop, `kernels.run`,
K times (default 5) on qcong from this checkout's `src/`.  The `time`
module that loop sees is a stand-in that records each `process_time`
reading, so a case's CPU is the sum of the spans around its calls, exactly
the spans the battery adds up.  Prints per case the median and the least,
over the K runs, of those CPU seconds, then the same for the whole battery.
A case is checked by the battery's own `failed` count; a failed check
exits with status 1.  With --peak, one more run traces memory with
`tracemalloc` from each call's first reading to its second, and beside its
CPU each case gets the largest of its calls' traced peaks: the memory its
calls allocated, their outputs included, not the operands made before.
That run's CPU is not counted, as tracing slows every allocation.

The benchmark's per-layer `qseries.convolve.*` metrics read near 0 on this
workload, so this is where a change of `kernels` `cpu_ref` shows which
cases it came from.  Run it from two checkouts to compare them.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from itertools import islice
from operator import sub
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import kernels  # noqa: E402


class _Clock:
    """The `time` module as `kernels.run` uses it: `process_time`, each
    reading kept."""

    def __init__(self):
        self.readings = []

    def process_time(self) -> float:
        t = time.process_time()
        self.readings.append(t)
        return t


class _PeakClock:
    """The `time` module as `kernels.run` uses it, tracing memory from each
    call's first `process_time` reading to its second: `peaks` holds each
    call's traced peak in bytes."""

    def __init__(self):
        self.peaks = []

    def process_time(self) -> float:
        if tracemalloc.is_tracing():
            self.peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        else:
            tracemalloc.start()
        return 0.0


def case_peaks(data: dict) -> list[int]:
    """The traced peak in bytes of each case, in order: the largest over its
    calls, from one run of `kernels.run`."""
    clock = _PeakClock()
    with mock.patch.object(kernels, "time", clock):
        results, _ = kernels.run(data)
    peaks = iter(clock.peaks)
    return [max(islice(peaks, r["calls"])) for r in results]


def run_cases(data: dict) -> list[tuple[str, float, bool]]:
    """(case id, CPU seconds inside qcong, checked) for each case, in order,
    from one run of `kernels.run`: its readings come in (before, after)
    pairs, one per call, and a case makes `calls` of them."""
    clock = _Clock()
    with mock.patch.object(kernels, "time", clock):
        results, _ = kernels.run(data)
    spans = map(sub, clock.readings[1::2], clock.readings[::2])
    return [(r["case"], sum(islice(spans, r["calls"])), r["failed"] == 0) for r in results]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--peak", action="store_true", help="add each case's tracemalloc peak")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    data = kernels.generate(args.seed)
    runs = [run_cases(data) for _ in range(args.runs)]
    ids = [case_id for case_id, _, _ in runs[0]]
    peaks = case_peaks(data) if args.peak else None
    print(f"{'case':<24}{'median ms':>12}{'least ms':>12}" + (f"{'peak MB':>12}" if peaks else ""))
    for k, case_id in enumerate(ids):
        cpu = [run[k][1] for run in runs]
        peak = f"{peaks[k] / 1e6:>12.2f}" if peaks else ""
        print(f"{case_id:<24}{1e3 * statistics.median(cpu):>12.2f}{1e3 * min(cpu):>12.2f}{peak}")
    totals = [sum(cpu for _, cpu, _ in run) for run in runs]
    print(f"{'all':<24}{1e3 * statistics.median(totals):>12.2f}{1e3 * min(totals):>12.2f}")
    failed = sorted({case_id for run in runs for case_id, _, ok in run if not ok})
    if failed:
        print("failed checks: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
