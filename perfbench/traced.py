"""Run one qcong command, or the kernel battery, with the span tracer on.

    python perfbench/traced.py SPANS_OUT cli ARG...
    python perfbench/traced.py SPANS_OUT kernels OPERANDS [CPU_OUT]

The first form behaves like ``python -m qcong.cli ARG...`` (same stdout,
stderr and exit code); the second like ``python perfbench/kernels.py
OPERANDS [CPU_OUT]``.  Spans are written as JSON to SPANS_OUT when the
command ends.
"""

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
import kernels  # noqa: E402
import tracer  # noqa: E402

sys.dont_write_bytecode = False
import qcong.cli  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, mode, *rest = argv
    if mode not in ("cli", "kernels"):
        raise SystemExit(f"unknown mode {mode!r}")
    t = tracer.Tracer()
    tracer.install(t)
    # looked up after install, so that cli.main is the wrapped one
    entry = qcong.cli.main if mode == "cli" else kernels.main
    try:
        return entry(rest)
    finally:
        sys.stdout.flush()
        t.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
