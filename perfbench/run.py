"""Benchmark of the qcong certificate pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from any directory; the checkout is the parent of this file's
directory, and the program runs from its ``src/``.  Each sample is a fresh
child process, run one at a time on one pinned CPU and measured from
outside.  With ``--trace 0`` the last stdout line is one JSON object
carrying the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of one traced child.  Lines before it are a readable
report.  Every child gets a private QCONG_CACHE_DIR and XDG_CACHE_HOME
under ``.perfbench-work/``, so no user cache is read.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
import kernels  # noqa: E402
import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = BENCH / "reference"

RUN_LIMIT_S = 170.0  # a run exits within 180 s
END_TO_END = (("cpu_ref", "ref"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_MIN = 9  # set-ups per run: one before each child, the rest after
POLL_S = 0.002
REF_GAP_S = 0.3
STURM_PROBE = ("sturm", "--k", "5", "--N", "24696")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float  # the whole child's, from wait4
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    ref_slices: list[float] = field(default_factory=list)
    program_cpu_s: float | None = None  # spent in qcong; set by the workload


@dataclass
class Env:
    """One private environment a child runs in."""

    root: Path

    @property
    def cache(self) -> Path:
        return self.root / "cache"

    def variables(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("QCONG_", "PYTHON"))}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        env["QCONG_CACHE_DIR"] = str(self.cache)
        env["XDG_CACHE_HOME"] = str(self.root / "xdg")
        return env


@dataclass(frozen=True)
class Suite:
    """A `qcong suite` workload, checked against the seed code's stdout."""

    name: str
    cli_args: tuple[str, ...]
    reference: str  # file under perfbench/reference/
    cache: str = "unused"  # "empty" | "filled" | "unused"
    operations = "claims"

    def prepare(self, env: Env, seed: int) -> None:
        """The suites have no inputs."""

    def argv(self, env: Env) -> list[str]:
        return ["-m", "qcong.cli", *self.cli_args]

    def traced_argv(self, env: Env) -> list[str]:
        return ["cli", *self.cli_args]

    def check(self, child: Child, env: Env) -> tuple[int, int]:
        return check_suite_output(child, (REFERENCE / self.reference).read_bytes())

    def program_cpu_s(self, child: Child, env: Env) -> float:
        return child.cpu_s


@dataclass(frozen=True)
class Kernels:
    """The kernel battery of kernels.py on operands made from the seed."""

    name: str = "kernels"
    cache = "unused"
    operations = "kernel calls"

    @staticmethod
    def operands(env: Env) -> Path:
        return env.root / "operands.json"

    @staticmethod
    def cpu_out(env: Env) -> Path:
        return env.root / "qcong-cpu.json"

    def prepare(self, env: Env, seed: int) -> None:
        kernels.write_operands(kernels.generate(seed), self.operands(env))

    def argv(self, env: Env) -> list[str]:
        return [str(BENCH / "kernels.py"), str(self.operands(env)), str(self.cpu_out(env))]

    def traced_argv(self, env: Env) -> list[str]:
        return ["kernels", str(self.operands(env)), str(self.cpu_out(env))]

    def check(self, child: Child, env: Env) -> tuple[int, int]:
        return check_kernel_output(child, kernels.call_count())

    def program_cpu_s(self, child: Child, env: Env) -> float:
        """CPU time inside the qcong calls, without the battery's own
        decoding and checking; the whole child's if it wrote none."""
        try:
            return json.loads(self.cpu_out(env).read_text())["qcong_cpu_s"]
        except (OSError, ValueError, KeyError):
            return child.cpu_s


WORKLOADS = {
    w.name: w
    for w in (
        Suite("full-cold", ("suite", "--full"), "suite-full.json", "empty"),
        Suite("full-warm", ("suite", "--full"), "suite-full.json", "filled"),
        Suite("quick-nocache", ("suite", "--quick", "--no-cache"), "suite-quick.json"),
        Kernels(),
    )
}


class ReferenceWork:
    """A fixed slice of work whose CPU time tracks the speed of the vCPU.

    On a shared host a vCPU's speed changes by up to 2x within seconds, for
    reasons no child can see.  While a child runs, the benchmark (pinned to
    the same CPU) runs a slice every REF_GAP_S seconds and reads its own CPU
    time.  A child's CPU time divided by the mean slice time follows the
    program's cost rather than the host's load.  Of the slices tried (a
    bytecode loop, a random list walk, a memory copy, integer multiplies)
    the multiplies tracked the children's speed best.

    Set-up seconds are scaled by slices too: each set-up's by the two slices
    around it, to a vCPU on which a slice takes NOMINAL_S of wall time.
    """

    INT_BYTES = 16_000
    REPEAT = 2
    NOMINAL_S = 0.010

    def __init__(self):
        rng = random.Random(0)
        self._a = rng.getrandbits(8 * self.INT_BYTES)
        self._b = rng.getrandbits(8 * self.INT_BYTES)

    def slice(self, clock=time.process_time) -> float:
        t0 = clock()
        for _ in range(self.REPEAT):
            self._a * self._b
        return clock() - t0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def run_child(argv: list[str], env: Env, timeout: float,
              ref: ReferenceWork | None = None) -> Child:
    """Run argv to completion, killing it after `timeout` seconds.

    With `ref`, a reference slice runs before, every REF_GAP_S seconds
    during, and after the child.
    """
    out_path, err_path = env.root / "stdout", env.root / "stderr"
    slices = [ref.slice()] if ref else []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env.variables(),
                                stdout=out, stderr=err)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - t0 > timeout:
                    proc.kill()
                if ref:
                    slices.append(ref.slice())
                time.sleep(REF_GAP_S if ref else POLL_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if ref:
        slices.append(ref.slice())
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        ref_slices=slices,
    )


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcong").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def check_suite_output(child: Child, reference: bytes) -> tuple[int, int]:
    """(claims attempted, claims failed) for one suite run.

    A claim fails when its report differs from the reference report of the
    same position; a run whose bytes differ anywhere else, or that exits
    non-zero, fails at least one claim; unparseable output fails them all.
    """
    ref_claims = json.loads(reference)["claims"]
    attempted = len(ref_claims)
    if child.returncode == 0 and child.stdout == reference:
        return attempted, 0
    try:
        got = json.loads(child.stdout)["claims"]
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    failed = sum(
        1
        for i, ref in enumerate(ref_claims)
        if i >= len(got) or json.dumps(got[i]) != json.dumps(ref)
    )
    return attempted, max(failed, 1)


def check_kernel_output(child: Child, expected_calls: int) -> tuple[int, int]:
    """(calls attempted, calls failed); calls missing from the output fail."""
    try:
        results = json.loads(child.stdout)["results"]
        done = sum(r["calls"] for r in results)
        failed = sum(r["failed"] for r in results)
    except (ValueError, KeyError, TypeError):
        return expected_calls, expected_calls
    failed += max(expected_calls - done, 0)
    if child.returncode != 0 and failed == 0:
        failed = 1
    return expected_calls, failed


def cache_listing(env: Env) -> list[tuple[str, int]]:
    if not env.cache.exists():
        return []
    return sorted((p.name, p.stat().st_size) for p in env.cache.iterdir())


class Bench:
    def __init__(self, workload: Suite | Kernels, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.run_dir = WORK / f"run-{workload.name}-seed{seed}-pid{os.getpid()}"
        self.info: dict = {}
        self.tally = Tally()
        self.fill: Path | None = None
        self.ref_work = ReferenceWork()
        self.setups: list[tuple[float, float]] = []  # (seconds, local slice)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    # -- set-up -------------------------------------------------------------

    def preflight(self) -> None:
        """Check, untimed, that qcong imports from this checkout; fill the
        warm cache if the workload needs it."""
        if not (SRC / "qcong" / "cli.py").is_file():
            raise BenchError(f"no program to benchmark: {SRC / 'qcong'} is missing")
        self.run_dir.mkdir(parents=True)
        env = self.new_env("probe")
        probe = run_child(
            [
                sys.executable,
                "-c",
                "import importlib.util, json, sys, qcong; print(json.dumps({"
                "'qcong': qcong.__file__, 'python': sys.version.split()[0], "
                "'gmpy2': importlib.util.find_spec('gmpy2') is not None}))",
            ],
            env,
            self.remaining(),
        )
        if probe.returncode != 0:
            raise BenchError("qcong does not import:\n" + probe.stderr.decode()[-2000:])
        found = json.loads(probe.stdout)
        if not Path(found["qcong"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"qcong imported from {found['qcong']}, not {SRC}")
        self.info = {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "git_sha": git_sha(),
            "src_sha256": src_digest(),
            "python": found["python"],
            "gmpy2": found["gmpy2"],
            "nproc": os.cpu_count(),
            "cpu": sorted(os.sched_getaffinity(0)),
            "cache_dir": str(self.run_dir.relative_to(ROOT) / "env*" / "cache"),
        }
        if self.w.cache == "filled":
            self.fill = self.warm_fill()

    def new_env(self, tag: str) -> Env:
        env = Env(self.run_dir / tag)
        (env.root / "xdg").mkdir(parents=True)
        return env

    def warm_fill(self) -> Path:
        """A cache filled by one cold run of this source tree, made once per
        checkout and source digest, and checked against the reference."""
        fill = WORK / f"warm-fill-{src_digest()[:16]}"
        if fill.is_dir():
            return fill
        env = self.new_env("fill")
        child = run_child([sys.executable, *self.w.argv(env)], env, self.remaining())
        attempted, failed = self.w.check(child, env)
        if failed:
            raise BenchError(
                f"the cold run that fills the warm cache failed {failed} of "
                f"{attempted} claims:\n" + child.stderr.decode()[-2000:]
            )
        staging = WORK / f".staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        shutil.copytree(env.cache, staging)
        staging.rename(fill)
        return fill

    def prepare(self, tag: str) -> Env:
        """Make one private environment: the set-up that setup_s times.

        It ends with a `qcong sturm` child in the new environment, which
        checks that the CLI starts there and times the program's start-up,
        so that work moved into import time shows in setup_s.  A reference
        slice runs just before and just after, on the wall clock as the
        set-up is, to give the vCPU's speed at that moment.
        """
        before = self.ref_work.slice(time.perf_counter)
        t0 = time.perf_counter()
        env = self.new_env(tag)
        if self.w.cache == "filled":
            shutil.copytree(self.fill, env.cache)
        elif self.w.cache == "empty":
            env.cache.mkdir()
        self.w.prepare(env, self.seed)
        probe = run_child([sys.executable, "-m", "qcong.cli", *STURM_PROBE], env,
                          self.remaining())
        seconds = time.perf_counter() - t0
        after = self.ref_work.slice(time.perf_counter)
        self.setups.append((seconds, (before + after) / 2))
        if probe.returncode != 0 or probe.stdout.strip() != b"23520":
            raise BenchError("the qcong CLI does not start:\n"
                             + probe.stderr.decode()[-2000:])
        return env

    def top_up_setups(self) -> None:
        """Set up more, unused, environments until there are SETUP_MIN."""
        while len(self.setups) < SETUP_MIN:
            shutil.rmtree(self.prepare(f"extra{len(self.setups)}").root)

    # -- measurement --------------------------------------------------------

    def sample(self, traced: bool = False) -> Child:
        """Set up a fresh environment and run one child in it."""
        env = self.prepare(f"env{len(self.setups)}")
        spans = self.run_dir / "spans.json" if traced else None
        if spans:
            argv = [str(BENCH / "traced.py"), str(spans), *self.w.traced_argv(env)]
        else:
            argv = self.w.argv(env)
        before = cache_listing(env)
        child = run_child([sys.executable, *argv], env, self.remaining(), self.ref_work)
        child.program_cpu_s = self.w.program_cpu_s(child, env)
        what = "traced run" if traced else "run"
        self.tally.add(*self.w.check(child, env), f"{what} failed its check")
        after = cache_listing(env)
        if self.w.cache == "unused" and after:
            self.tally.add(0, 1, f"{what} wrote to the cache: {after[:3]}")
        if self.w.cache == "filled" and after != before:
            self.tally.add(0, 1, f"{what} changed the warm cache")
        if child.returncode != 0:
            self.tally.notes.append(
                f"exit {child.returncode}: {child.stderr.decode()[-500:]}")
        shutil.rmtree(env.root)
        return child

    def measure(self) -> list[Child]:
        """Children one after another until `seconds` of child wall time."""
        children: list[Child] = []
        while True:
            child = self.sample()
            children.append(child)
            spent = sum(c.wall_s for c in children)
            if spent >= self.seconds or child.returncode != 0:
                break
            if self.remaining() < 2 * max(c.wall_s for c in children) + 5:
                break
        self.top_up_setups()
        return children

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(p, value): the highest whole percentile with ten samples above it,
    when that is above the median."""
    n = len(samples)
    if n < 21:
        return None
    return (100 * (n - 10)) // n, sorted(samples)[n - 11]


def summarize(name: str, unit: str, samples: list[float]) -> str:
    t = tail(samples)
    tail_text = f"p{t[0]}={t[1]:.6g}" if t else "no tail (needs 21 samples)"
    return (f"  {name:<12} median={statistics.median(samples):.6g} {unit}  "
            f"{tail_text}  n={len(samples)}")


def cpu_ref(children: list[Child]) -> float:
    """Mean CPU time in qcong per child over the mean reference slice time."""
    slices = [t for c in children for t in c.ref_slices]
    return statistics.fmean(c.program_cpu_s for c in children) / statistics.fmean(slices)


def setup_seconds(setups: list[tuple[float, float]]) -> list[float]:
    """Each set-up's seconds, scaled to a vCPU on which a reference slice
    takes ReferenceWork.NOMINAL_S, by the slices run around it."""
    return [s * ReferenceWork.NOMINAL_S / local for s, local in setups]


def end_to_end(bench: Bench) -> tuple[dict, list[str]]:
    children = bench.measure()
    samples = {
        "cpu_ref": [cpu_ref([c]) for c in children],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "setup_s": setup_seconds(bench.setups),
        "cpu_s": [c.program_cpu_s for c in children],
        "child_cpu_s": [c.cpu_s for c in children],
        "wall_s": [c.wall_s for c in children],
        "raw_setup_s": [s for s, _ in bench.setups],
        "ref_slice_s": [t for c in children for t in c.ref_slices],
    }
    units = {k: "s" for k in samples} | dict(END_TO_END)
    lines = [summarize(k, units[k], v) for k, v in samples.items()]
    metrics = {k: {"value": statistics.median(samples[k]), "unit": unit}
               for k, unit in END_TO_END}
    # the run's value pools every slice: it averages the speed over the run
    metrics["cpu_ref"]["value"] = cpu_ref(children)
    lines.append(f"  cpu_ref of the run (pooled slices) = {metrics['cpu_ref']['value']:.6g} ref")
    bench.info["samples"] = samples
    return metrics, lines


def per_layer(bench: Bench) -> tuple[dict, list[str]]:
    untraced = bench.measure()
    traced = bench.sample(traced=True)
    if traced.stdout != untraced[0].stdout:
        bench.tally.add(0, 1, "traced stdout differs from untraced stdout")
    # the untraced cost is converted to seconds at the traced child's speed,
    # so that the host's speed swings between the two children cancel
    untraced_ref = statistics.median(cpu_ref([c]) for c in untraced)
    overhead = traced.program_cpu_s - untraced_ref * statistics.fmean(traced.ref_slices)
    spans_path = bench.run_dir / "spans.json"
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
    values = layers.layer_metrics(spans, overhead)
    keep = WORK / "traces"
    keep.mkdir(parents=True, exist_ok=True)
    if spans_path.exists():
        shutil.copyfile(spans_path, keep / f"{bench.w.name}-seed{bench.seed}.spans.json")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in layers.PER_LAYER}
    lines = [f"  {name:<44} {values[name]:.6g} {unit}"
             for name, unit, _ in layers.PER_LAYER if values[name]]
    lines.append(f"  traced child {traced.program_cpu_s:.4f} s CPU in qcong, "
                 f"{len(spans)} spans; untraced median of {len(untraced)}")
    bench.info["traced_cpu_s"] = traced.program_cpu_s
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(WORKLOADS[name], seed, seconds)
    try:
        bench.preflight()
        metrics, lines = (per_layer if trace else end_to_end)(bench)
    finally:
        bench.cleanup()
    tally = bench.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    print("  env " + json.dumps({k: v for k, v in bench.info.items()
                                 if k != "samples"}))
    for line in lines:
        print(line)
    print(f"  fail_frac={tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} "
          f"{bench.w.operations})")
    for note in tally.notes:
        print(f"  FAILURE: {note}")
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {**bench.info, "trace": int(trace), "result": result, "notes": tally.notes}
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the vCPUs change speed independently: keep the reference timings and
    # every child on one of them
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
