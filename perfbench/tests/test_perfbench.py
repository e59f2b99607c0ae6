"""Tests of the benchmark itself: self-time arithmetic, per-layer
aggregation, the O(n) kernel checks and the reference gate.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
sys.dont_write_bytecode = True

import kernels  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, 0),
        span("c", 4.0, 6.0, 0),
        span("d", 4.5, 5.5, 2),  # grandchild: only c loses it
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 5.0, 0),  # overlaps b: [1, 5] is covered once
        span("d", 8.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_outermost_skips_recursive_calls():
    spans = [
        span("f", 0.0, 5.0),
        span("g", 1.0, 4.0, 0),
        span("f", 2.0, 3.0, 1),
        span("f", 6.0, 7.0),
    ]
    assert tracer.outermost(spans, "f") == [0, 3]


def test_wrapped_calls_nest_and_carry_attrs():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda x: x + 1, after=lambda a, r, s: {"r": r})
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [s[tracer.NAME] for s in t.spans] == ["outer", "inner"]
    assert t.spans[1][tracer.PARENT] == 0
    assert t.spans[1][tracer.ATTRS] == {"r": 2}
    assert tracer.self_times(t.spans) == pytest.approx([2.0, 1.0])


def test_install_rebinds_copied_names_and_uninstall_restores():
    import qcong.diamond
    import qcong.eta
    from qcong.qseries import QSeries
    from qcong.ring import ZZ

    original = qcong.eta.eta_quotient_series
    t = tracer.Tracer()
    records = tracer.install(t)
    try:
        assert qcong.diamond.eta_quotient_series is qcong.eta.eta_quotient_series
        assert qcong.eta.eta_quotient_series is not original
        QSeries(ZZ, 0, [1, 1, 0, 0]).invert()
    finally:
        tracer.uninstall(records)
    assert qcong.eta.eta_quotient_series is original
    assert qcong.diamond.eta_quotient_series is original
    names = [s[tracer.NAME] for s in t.spans]
    assert names[0] == "qseries.invert"
    assert "qseries.convolve" in names
    n_spans = len(t.spans)
    QSeries(ZZ, 0, [1, 1, 0, 0]).invert()
    assert len(t.spans) == n_spans


# -- per-layer aggregation --------------------------------------------------


def test_layer_metrics_buckets_and_ratios():
    spans = [
        span("qseries.invert", 0.0, 10.0),
        span("qseries.convolve", 1.0, 3.0, 0, {"ring": "mod:7", "n": 200_000}),
        span("qseries.convolve", 4.0, 5.0, 0, {"ring": "int", "n": 1000}),
        span("store.get", 11.0, 12.0, -1, {"hit": True, "bytes_read": 50, "meta_scanned": 2}),
        span("store.get", 12.0, 12.5, -1, {"hit": False, "meta_scanned": 2}),
        span("diamond.delta_series", 13.0, 14.0, -1, {"T": 35000}),
    ]
    m = layers.layer_metrics(spans, 0.25)
    assert set(m) == {name for name, _, _ in layers.PER_LAYER}
    assert m["qseries.convolve.mod7.gt1e5.self_s"] == pytest.approx(2.0)
    assert m["qseries.convolve.int.le1e3.calls"] == 1
    assert m["qseries.convolve.out_coeffs"] == 201_000
    assert m["qseries.invert.self_s"] == pytest.approx(7.0)
    assert m["qseries.invert.total_s"] == pytest.approx(10.0)
    assert m["store.get.calls"] == 2 and m["store.get.hits"] == 1
    assert m["store.hit_ratio"] == pytest.approx(0.5)
    assert m["store.get.meta_scanned"] == 4 and m["store.get.bytes_read"] == 50
    assert m["diamond.delta_series.coeffs_built"] == 35000
    assert m["layer.qseries.self_s"] == pytest.approx(10.0)
    assert m["trace.overhead_s"] == 0.25


def test_size_buckets_edges():
    assert [layers.size_bucket(n) for n in (1000, 1001, 10_000, 100_000, 100_001)] == [
        "le1e3", "le1e4", "le1e4", "le1e5", "gt1e5"]


# -- kernel checks ----------------------------------------------------------


def small_operands():
    data = kernels.generate(7)
    return data, [c for c in data["cases"] if c["size"] == "small"]


@pytest.mark.parametrize("ring", ["int", "rat", "quad", "mod:7", "mod:11"])
def test_convolve_check_catches_one_coefficient_mutation(ring):
    from qcong.qseries import convolve

    data, cases = small_operands()
    by_ring = {c["ring"]: c for c in cases if c["op"] == "convolve"}
    done = {}
    base = by_ring["int"]
    done["small"] = convolve(kernels._ring("int"), base["a"], base["b"], base["n"])
    case = by_ring[ring]
    a, b = kernels._decode(ring, case["a"]), kernels._decode(ring, case["b"])
    out = convolve(kernels._ring(ring), a, b, case["n"])
    assert kernels.check_convolve(case, a, b, out, data["x"], done)
    bumped = list(out)
    k = 377
    if ring == "rat":
        bumped[k] += Fraction(1, 3)
    elif ring == "quad":
        from qcong.ring import QuadInt

        bumped[k] = QuadInt(bumped[k].re, bumped[k].im + 1)
    elif ring.startswith("mod:"):
        bumped[k] = (bumped[k] + 1) % int(ring[4:])
    else:
        bumped[k] += 1
    assert not kernels.check_convolve(case, a, b, bumped, data["x"], done)
    assert not kernels.check_convolve(case, a, b, out[:-1], data["x"], done)


@pytest.mark.parametrize("ring", ["int", "mod:7"])
def test_invert_check_catches_one_coefficient_mutation(ring):
    from qcong.qseries import QSeries

    _, cases = small_operands()
    case = next(c for c in cases if c["op"] == "invert" and c["ring"] == ring)
    out = QSeries(kernels._ring(ring), 0, case["a"]).invert().coeffs
    assert kernels.check_invert(case, out)
    out[500] = (out[500] + 1) % 7 if ring == "mod:7" else out[500] + 1
    assert not kernels.check_invert(case, out)


def test_evaluate_product_matches_schoolbook():
    a, b, x, n = [3, -1, 4, 1, -5], [9, 2, -6], 123456789, 4
    full = [0] * n
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            if i + j < n:
                full[i + j] += u * v
    to_f = kernels._to_field("int")
    assert kernels.evaluate_product(a, b, n, x, to_f) == kernels.evaluate(full, x, to_f)


def test_call_count_matches_the_generated_cases():
    assert sum(c["reps"] for c in kernels.generate(5)["cases"]) == kernels.call_count()


def test_kernel_stdout_is_deterministic_and_cpu_goes_to_a_file(tmp_path, capsys):
    data, cases = small_operands()
    data["cases"] = cases
    operands, cpu_out = tmp_path / "operands.json", tmp_path / "cpu.json"
    kernels.write_operands(data, operands)
    outputs = []
    for _ in range(2):
        assert kernels.main([str(operands), str(cpu_out)]) == 0
        outputs.append(capsys.readouterr().out)
        assert json.loads(cpu_out.read_text())["qcong_cpu_s"] > 0
    assert outputs[0] == outputs[1]
    results = json.loads(outputs[0])["results"]
    assert all(set(r) == {"case", "n", "calls", "failed"} for r in results)
    assert sum(r["calls"] for r in results) == sum(c["reps"] for c in cases)


def test_generate_is_deterministic_per_seed():
    assert kernels.generate(3) == kernels.generate(3)
    assert kernels.generate(3)["x"] != kernels.generate(4)["x"]


# -- reference gate ---------------------------------------------------------


def child(stdout: bytes, returncode: int = 0) -> run.Child:
    return run.Child(wall_s=1.0, cpu_s=1.0, peak_rss_mb=10.0, returncode=returncode,
                     stdout=stdout, stderr=b"")


def test_reference_match_passes_and_mismatch_raises_fail_frac():
    ref = (BENCH / "reference" / "suite-quick.json").read_bytes()
    n = len(json.loads(ref)["claims"])
    assert run.check_suite_output(child(ref), ref) == (n, 0)

    doc = json.loads(ref)
    doc["claims"][3]["first_failure"] = 17
    mutated = (json.dumps(doc) + "\n").encode()
    assert run.check_suite_output(child(mutated), ref) == (n, 1)

    spaced = ref.replace(b", ", b",  ", 1)  # same claims, other bytes
    assert run.check_suite_output(child(spaced), ref) == (n, 1)
    assert run.check_suite_output(child(ref, returncode=1), ref) == (n, 1)
    assert run.check_suite_output(child(b"Traceback"), ref) == (n, n)


def test_kernel_output_counts_missing_calls_as_failed():
    out = json.dumps({"results": [{"calls": 10, "failed": 1}]}).encode()
    assert run.check_kernel_output(child(out), 12) == (12, 3)
    assert run.check_kernel_output(child(b""), 12) == (12, 12)


# -- set-up time --------------------------------------------------------------


def test_setup_seconds_are_scaled_by_the_slices_around_each():
    nominal = run.ReferenceWork.NOMINAL_S
    setups = [(0.2, nominal), (0.2, 2 * nominal), (0.05, nominal / 2)]
    assert run.setup_seconds(setups) == pytest.approx([0.2, 0.1, 0.1])


# -- the contract file --------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_quick_run_prints_the_contract_line():
    import subprocess

    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "quick-nocache",
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in last["metrics"].values())
