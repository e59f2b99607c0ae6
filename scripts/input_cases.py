"""Per-input CPU and traced peak of the series a claim suite reads, in process.

    python scripts/input_cases.py [--quick] [--runs K]

A suite reads six series, one per row of `qcong.diamond._INPUTS`: the δ₃
and δ₅ progressions, eq. (1.2)'s left side, the exact c, f1 and f2.  One
memory-only `suite --full` run (`--quick` for the quick depths) records
the longest length the suite asks each of them for.  Then each row's
builder is run K times (default 5) at that length, on qcong from this
checkout's `src/`, and the script prints per input the length, the median
and the least CPU seconds over the K builds, and the traced peak of one
more build under `tracemalloc`: the memory the build allocated, its output
included.  That build's CPU is not counted, as tracing slows every
allocation.

perfbench traces only some builders (`eta_quotient_series`, `c_series`,
`form_f1`, `form_f2`); the progressions go through
`eta.eta_quotient_progression`, which it does not see, so this is where a
change of `full-cold` shows which input it came from.  Run it from two
checkouts to compare them.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcong import diamond  # noqa: E402


def suite_depths(config: diamond.SuiteConfig) -> dict[str, int]:
    """The longest length a suite run at `config` builds each input at,
    from one run on a memory-only Cache with every builder recording."""
    depths: dict[str, int] = {}

    def recording(form, build):
        def record(T):
            depths[form] = max(T, depths.get(form, 0))
            return build(T)

        return record

    rows = {form: (m, recording(form, build)) for form, (m, build) in diamond._INPUTS.items()}
    with mock.patch.dict(diamond._INPUTS, rows):
        diamond.run_suite(config)
    return depths


def cpu_seconds(build, T: int) -> float:
    t = time.process_time()
    build(T)
    return time.process_time() - t


def traced_peak(build, T: int) -> int:
    tracemalloc.start()
    try:
        build(T)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="the quick suite's depths")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    config = diamond.SuiteConfig.quick() if args.quick else diamond.SuiteConfig()
    depths = suite_depths(config)
    print(f"{'T':>8}{'median ms':>12}{'least ms':>12}{'peak MB':>12}  input")
    for form, (_, build) in diamond._INPUTS.items():
        T = depths[form]
        cpu = [cpu_seconds(build, T) for _ in range(args.runs)]
        peak = traced_peak(build, T)
        print(f"{T:>8}{1e3 * statistics.median(cpu):>12.2f}{1e3 * min(cpu):>12.2f}{peak / 1e6:>12.2f}  {form}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
