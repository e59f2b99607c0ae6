"""In-memory span tracer that wraps qcong's public functions from outside.

`install` wraps every public module-level function and every public method
of every public class defined in the layer modules, then rebinds each
wrapped function in every loaded ``qcong`` module that holds it (``from
.eta import eta_quotient_series`` copies the binding, so patching only the
defining module would miss callers).  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the span that was open when this one started, or -1; ``attrs`` is a dict
of counters or None.  Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pathlib
import sys
import time

LAYERS = ("qseries", "eta", "forms", "operators", "sturm", "diamond", "store", "cli")

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span named `name`.

        `before(args)` runs outside the span and returns state handed to
        `after(args, result, state)`, whose dict is merged into the span's
        attrs.
        """
        clock, spans, stack = self.clock, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                attrs = after(args, result, state)
                if span[ATTRS] is None:
                    span[ATTRS] = attrs
                else:
                    span[ATTRS].update(attrs)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        """Add to a counter on the innermost open span, if any."""
        if not self._stack:
            return
        span = self.spans[self._stack[-1]]
        if span[ATTRS] is None:
            span[ATTRS] = {}
        span[ATTRS][key] = span[ATTRS].get(key, 0) + amount

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append((hi - lo) - covered)
    return out


def outermost(spans: list[list], name: str) -> list[int]:
    """Indices of spans named `name` with no enclosing span of that name."""
    out = []
    for i, span in enumerate(spans):
        if span[NAME] != name:
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def _dir_bytes(root) -> int:
    with os.scandir(root) as it:
        return sum(e.stat().st_size for e in it if e.is_file(follow_symlinks=False))


def _hooks() -> dict:
    """(before, after) attribute collectors for spans the metrics need."""

    def convolve_attrs(args, result, _):
        return {"ring": args[0].tag, "n": args[3]}

    def built_attrs(args, result, _):
        return {"T": result.T}

    def get_attrs(args, result, _):
        return {"hit": result is not None}

    def put_before(args):
        return _dir_bytes(args[0].root)

    def put_attrs(args, result, before):
        return {"bytes_written": _dir_bytes(args[0].root) - before}

    return {
        "qseries.convolve": (None, convolve_attrs),
        "eta.eta_quotient_series": (None, built_attrs),
        "diamond.delta_series": (None, built_attrs),
        "diamond.c_series": (None, built_attrs),
        "store.get": (None, get_attrs),
        "store.put": (put_before, put_attrs),
    }


def _public_callables(layer: str, mod):
    """(short name, long name, owner, attribute, function, decorator)."""
    found = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((name, name, mod, name, obj, None))
        elif inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    fn, deco = member.__func__, type(member)
                elif inspect.isfunction(member):
                    fn, deco = member, None
                else:
                    continue
                found.append((mname, f"{name}.{mname}", obj, mname, fn, deco))
    short = [f[0] for f in found]
    return [
        (f"{layer}.{s if short.count(s) == 1 else long}", owner, attr, fn, deco)
        for s, long, owner, attr, fn, deco in found
    ]


def install(tracer: Tracer, package: str = "qcong") -> list:
    """Wrap the layers' public callables; returns records for `uninstall`."""
    hooks = _hooks()
    records = []
    wrapped = {}
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    for layer, mod in modules.items():
        for name, owner, attr, fn, deco in _public_callables(layer, mod):
            before, after = hooks.get(name, (None, None))
            w = tracer.wrap(name, fn, before, after)
            if deco is None and inspect.ismodule(owner):
                wrapped[id(fn)] = (fn, w)
            else:
                records.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, w if deco is None else deco(w))
    prefix = package + "."
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(prefix)):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                records.append((mod, attr, val))
                setattr(mod, attr, hit[1])

    read_text = pathlib.Path.read_text

    def counting_read_text(path, *args, **kwargs):
        text = read_text(path, *args, **kwargs)
        tracer.count("bytes_read", len(text.encode()))
        if path.suffix == ".meta":
            tracer.count("meta_scanned", 1)
        return text

    records.append((pathlib.Path, "read_text", read_text))
    pathlib.Path.read_text = counting_read_text
    return records


def uninstall(records: list) -> None:
    for owner, attr, original in reversed(records):
        setattr(owner, attr, original)
