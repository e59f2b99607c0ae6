"""Per-layer metrics computed from the spans of one traced run.

`PER_LAYER` is the metric list in BENCHMARK.json order; `layer_metrics`
turns a span list (see tracer.py) into one value for each.
"""

from __future__ import annotations

from tracer import ATTRS, END, NAME, START, LAYERS, outermost, self_times

RINGS = {"int": "int", "rat": "rat", "mod:7": "mod7", "mod:11": "mod11", "quad": "quad"}
SIZE_BUCKETS = ((1_000, "le1e3"), (10_000, "le1e4"), (100_000, "le1e5"), (None, "gt1e5"))

VERIFY_FNS = (
    "verify_eq_1_2",
    "verify_theorem_1_1",
    "verify_section_2_chain",
    "verify_eq_1_4",
    "verify_theorem_1_2",
    "verify_theorem_3_1",
    "verify_remark",
)


def _spec() -> list[tuple[str, str, str]]:
    out = []
    for ring in RINGS.values():
        for _, size in SIZE_BUCKETS:
            out.append((f"qseries.convolve.{ring}.{size}.self_s", "s", "lower"))
            out.append((f"qseries.convolve.{ring}.{size}.calls", "count", "lower"))
    out += [
        ("qseries.convolve.out_coeffs", "count", "lower"),
        ("qseries.invert.self_s", "s", "lower"),
        ("qseries.invert.total_s", "s", "lower"),
        ("qseries.invert.calls", "count", "lower"),
        ("qseries.pow.calls", "count", "lower"),
        ("eta.eta_quotient_series.total_s", "s", "lower"),
        ("eta.eta_quotient_series.calls", "count", "lower"),
        ("diamond.delta_series.total_s", "s", "lower"),
        ("diamond.delta_series.coeffs_built", "count", "lower"),
        ("diamond.c_series.total_s", "s", "lower"),
        ("diamond.c_series.coeffs_built", "count", "lower"),
    ]
    out += [(f"diamond.{fn}.total_s", "s", "lower") for fn in VERIFY_FNS]
    out += [
        ("forms.form_f1.total_s", "s", "lower"),
        ("forms.form_f2.total_s", "s", "lower"),
        ("sturm.verify_eigenform.self_s", "s", "lower"),
        ("sturm.verify_vanishing.self_s", "s", "lower"),
        ("operators.twist.self_s", "s", "lower"),
        ("operators.u_operator.self_s", "s", "lower"),
        ("store.get.calls", "count", "lower"),
        ("store.get.hits", "count", "higher"),
        ("store.hit_ratio", "ratio", "higher"),
        ("store.get.self_s", "s", "lower"),
        ("store.get.total_s", "s", "lower"),
        ("store.get.bytes_read", "bytes", "lower"),
        ("store.get.meta_scanned", "count", "lower"),
        ("store.put.calls", "count", "lower"),
        ("store.put.self_s", "s", "lower"),
        ("store.put.bytes_written", "bytes", "lower"),
    ]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


PER_LAYER = _spec()


def size_bucket(n: int) -> str:
    return next(name for limit, name in SIZE_BUCKETS if limit is None or n <= limit)


def layer_metrics(spans: list[list], overhead_s: float) -> dict[str, float | int]:
    """Every PER_LAYER value for one traced run."""
    selfs = self_times(spans)
    m: dict[str, float | int] = {
        name: 0.0 if unit in ("s", "ratio") else 0 for name, unit, _ in PER_LAYER
    }

    def total(fn: str) -> float:
        return sum((spans[i][END] - spans[i][START] for i in outermost(spans, fn)), 0.0)

    for span, own in zip(spans, selfs):
        name, attrs = span[NAME], span[ATTRS] or {}
        layer = name.split(".", 1)[0]
        m[f"layer.{layer}.self_s"] += own
        if name == "qseries.convolve":
            ring = RINGS.get(attrs["ring"])
            if ring is not None:
                key = f"qseries.convolve.{ring}.{size_bucket(attrs['n'])}"
                m[key + ".self_s"] += own
                m[key + ".calls"] += 1
            m["qseries.convolve.out_coeffs"] += attrs["n"]
        elif name == "qseries.invert":
            m["qseries.invert.self_s"] += own
            m["qseries.invert.calls"] += 1
        elif name == "qseries.pow":
            m["qseries.pow.calls"] += 1
        elif name == "eta.eta_quotient_series":
            m["eta.eta_quotient_series.calls"] += 1
        elif name in ("diamond.delta_series", "diamond.c_series"):
            m[name + ".coeffs_built"] += attrs["T"]
        elif name in ("sturm.verify_eigenform", "sturm.verify_vanishing",
                      "operators.twist", "operators.u_operator"):
            m[name + ".self_s"] += own
        elif name == "store.get":
            m["store.get.calls"] += 1
            m["store.get.hits"] += int(attrs.get("hit", False))
            m["store.get.self_s"] += own
            m["store.get.bytes_read"] += attrs.get("bytes_read", 0)
            m["store.get.meta_scanned"] += attrs.get("meta_scanned", 0)
        elif name == "store.put":
            m["store.put.calls"] += 1
            m["store.put.self_s"] += own
            m["store.put.bytes_written"] += attrs.get("bytes_written", 0)

    for fn in ("qseries.invert", "eta.eta_quotient_series", "diamond.delta_series",
               "diamond.c_series", "forms.form_f1", "forms.form_f2", "store.get"):
        m[fn + ".total_s"] = total(fn)
    for fn in VERIFY_FNS:
        m[f"diamond.{fn}.total_s"] = total(f"diamond.{fn}")
    calls = m["store.get.calls"]
    m["store.hit_ratio"] = m["store.get.hits"] / calls if calls else 0.0
    m["trace.overhead_s"] = overhead_s
    return m
