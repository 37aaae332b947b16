"""Span tracer for the traced run.

`install` wraps every public function and class of the nine liftlab modules
so that each call records a span (name, start, end, parent span, op id).
liftlab modules import each other's functions by name (`qlift` does
`from .matcore import herm_sqrt`), so every binding of a wrapped function is
replaced, in every module and in the package namespace; otherwise calls
inside the package would go untimed. Classes are patched in place: their
constructor, public methods and properties each get a span.

Spans stay in memory; `summarize` turns them into per-op self times once
the run ends. A span's self time is its duration minus the part of it that
its child spans cover. Every op has a root span opened by the harness; its
self time is the op's wall time outside liftlab.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time

MODULES = ("cli", "jsonio", "matcore", "classical", "clift", "qlift", "circulant", "sampling", "verify")

ROOT = "op"
IMPORT = "cli.import"

# Span groups reported beside the per-module totals.
GROUPS = {
    "matcore.FactoredOperator": lambda n: n == "matcore.FactoredOperator",
    "matcore.eig": lambda n: n in ("matcore.is_psd", "matcore.herm_sqrt", "matcore.check_state"),
    "qlift.chain": lambda n: n in ("qlift.compose_qcp", "qlift.n_compose_qcp", "qlift.n_nonlinear_lift"),
    "jsonio.encode": lambda n: n.startswith("jsonio.") and (n.endswith("_to_json") or n == "jsonio.canonical_dumps"),
    "jsonio.decode": lambda n: n.startswith("jsonio.json_to_") or n == "jsonio.load_argument",
}


def _state_side(x) -> int:
    return len(getattr(x, "matrix", x))


def _parties(a, k):
    return a[2] if len(a) > 2 else k["parties"]


# Size recorders for the kernels whose growth the traced run fits. They
# only index their arguments, so an iterator argument is never consumed.
SIZE_OF = {
    "circulant.build_circulant": lambda a, k: a[0].d,
    "qlift.cp_from_kraus": lambda a, k: len(a[0][0]),
    "qlift.qcp_from_channel": lambda a, k: a[0].d,
    "qlift.n_nonlinear_lift": lambda a, k: (_state_side(a[1]), _parties(a, k)),
    "clift.n_lift": lambda a, k: (len(a[1]), _parties(a, k)),
}


def _size(size_of, args, kwargs):
    try:
        return size_of(args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, op, size];
    `parent` indexes `spans` (-1 for none). Calls made while `op` is None,
    such as the checks between ops, record nothing."""

    def __init__(self, op: int | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = op

    def begin(self, name: str, size=None) -> int:
        if self.op is None:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, size])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        if idx < 0:
            return
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def graft(self, spans: list[list], parent: int):
        """Attach spans recorded by another process (same monotonic clock)
        under `parent`, remapping their parent indices."""
        base, op = len(self.spans), self.spans[parent][4]
        for name, start, end, par, _op, size in spans:
            if isinstance(size, list):
                size = tuple(size)
            self.spans.append([name, start, end, parent if par < 0 else base + par, op, size])


def _wrap(tracer: Tracer, fn, name: str):
    size_of = SIZE_OF.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name, _size(size_of, args, kwargs) if size_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


def _class_patches(tracer: Tracer, cls, name: str):
    for attr, value in list(vars(cls).items()):
        if attr == "__init__":
            yield cls, attr, value, _wrap(tracer, value, name)
        elif attr.startswith("_"):
            continue
        elif isinstance(value, property):
            yield cls, attr, value, property(_wrap(tracer, value.fget, f"{name}.{attr}"))
        elif inspect.isfunction(value):
            yield cls, attr, value, _wrap(tracer, value, f"{name}.{attr}")


def install(tracer: Tracer):
    """Wrap liftlab in place, after `import liftlab`. Returns a function
    that puts every original back."""
    package = importlib.import_module("liftlab")
    modules = {m: importlib.import_module(f"liftlab.{m}") for m in MODULES}
    patches = []
    wrapped = {}
    for short, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(value):
                patches.extend(_class_patches(tracer, value, f"{short}.{attr}"))
            elif inspect.isfunction(value):
                wrapped[id(value)] = (value, _wrap(tracer, value, f"{short}.{attr}"))
    for mod in [package, *modules.values()]:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((mod, attr, value, hit[1]))
    for owner, attr, _orig, new in patches:
        setattr(owner, attr, new)

    def uninstall():
        for owner, attr, orig, _new in patches:
            setattr(owner, attr, orig)

    return uninstall


def _bucket(name: str) -> str:
    if name == ROOT:
        return "process"
    if name == IMPORT:
        return "import"
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of child intervals clipped to the span."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_name, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _slope(points: dict, log_x: bool) -> float | None:
    """Least-squares slope of log(median time) against the size key, or
    against its log."""
    if len(points) < 2:
        return None
    keys = sorted(points)
    xs = [math.log(k) if log_x else k for k in keys]
    ys = [math.log(statistics.median(points[k])) for k in keys]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def summarize(spans: list[list], n_ops: int) -> dict:
    """Per-op layer metrics from the spans of `n_ops` traced ops."""
    selfs = self_times(spans)
    per_op_wall: dict[int, float] = {}
    per_op_sum: dict[int, float] = {}
    self_by: dict[str, float] = {}
    calls: dict[str, int] = {}
    sizes: dict[str, dict] = {name: {} for name in SIZE_OF}
    imports = []
    for (name, start, end, _parent, op, size), own in zip(spans, selfs):
        bucket = _bucket(name)
        self_by[bucket] = self_by.get(bucket, 0.0) + own
        per_op_sum[op] = per_op_sum.get(op, 0.0) + own
        if name == ROOT:
            per_op_wall[op] = end - start
            continue
        if name == IMPORT:
            imports.append(end - start)
            continue
        for key in [bucket, *(g for g, test in GROUPS.items() if test(name))]:
            calls[key] = calls.get(key, 0) + 1
            if key != bucket:
                self_by[key] = self_by.get(key, 0.0) + own
        if size is not None:
            sizes[name].setdefault(size, []).append(end - start)

    n = max(n_ops, 1)
    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_by.get(mod, 0.0) / n
        m[f"{mod}.calls"] = calls.get(mod, 0) / n
    for key in ("matcore.FactoredOperator", "matcore.eig"):
        m[f"{key}.calls"] = calls.get(key, 0) / n
        m[f"{key}.self_s"] = self_by.get(key, 0.0) / n
    m["qlift.chain.self_s"] = self_by.get("qlift.chain", 0.0) / n
    m["jsonio.encode_s"] = self_by.get("jsonio.encode", 0.0) / n
    m["jsonio.decode_s"] = self_by.get("jsonio.decode", 0.0) / n
    m["cli.process_s"] = self_by.get("process", 0.0) / n
    m["cli.import_s"] = statistics.median(imports) if imports else None

    for name in ("circulant.build_circulant", "qlift.cp_from_kraus", "qlift.qcp_from_channel"):
        m[f"{name}.d_exp"] = _slope(sizes[name], log_x=True)
    for name in ("qlift.n_nonlinear_lift", "clift.n_lift"):
        smallest = min((side for side, _ in sizes[name]), default=None)
        by_parties = {parties: ts for (side, parties), ts in sizes[name].items() if side == smallest}
        slope = _slope(by_parties, log_x=False)
        m[f"{name}.N_growth"] = math.exp(slope) if slope is not None else None

    gaps = [abs(per_op_sum[op] - wall) for op, wall in per_op_wall.items()]
    m["trace.sum_gap_s"] = max(gaps, default=0.0)
    m["trace.spans_per_op"] = len(spans) / n
    return m
