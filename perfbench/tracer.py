"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced function or method of ``opuc`` with
a wrapper, wherever a module holds it: the defining module, every module
that imported the name, and the package namespace.  Each wrapped call is
timed; its self time is its duration minus the time of the traced calls
inside it.  Calls of the named functions are also kept as spans
(name, start, end, parent, op) in memory and written out at the end.  The
``ComplexPoly`` methods run far too often for spans; they keep counts and
times only, but still count as children of the span around them.

A traced name that a later refactor removes is reported as absent, with
zero calls, not as an error.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODULES = ("poly", "opuc_core", "schur", "analysis", "cli")

# (module, attribute): layer name.  Functions record spans.
FUNCTIONS = {
    ("schur", "tail_schur"): "schur.tail_schur",
    ("schur", "as_rational_F"): "schur.as_rational_F",
    ("schur", "recover_coefficients"): "schur.recover_coefficients",
    ("poly", "roots"): "poly.roots",
    ("analysis", "circle_quadrature"): "analysis.circle_quadrature",
    ("opuc_core", "szego_polys"): "opuc_core.szego_polys",
    ("opuc_core", "wall_polys"): "opuc_core.wall_polys",
    ("analysis", "pole_set"): "analysis.pole_set",
    ("analysis", "szego_verify"): "analysis.szego_verify",
    ("analysis", "re_F_khrushchev"): "analysis.re_F_khrushchev",
    ("analysis", "moments"): "analysis.moments",
    ("analysis", "zero_count_trace"): "analysis.zero_count_trace",
    ("cli", "main"): "cli.main",
}
# (module, class, method): layer name.  Methods keep counts only, except
# RationalFn's constructor, which is rare enough for spans.
METHODS = {
    ("schur", "RationalFn", "__init__"): ("schur.RationalFn.init", True),
    ("poly", "ComplexPoly", "__init__"): ("poly.ComplexPoly.init", False),
    ("poly", "ComplexPoly", "__call__"): ("poly.ComplexPoly.eval", False),
    ("poly", "ComplexPoly", "__mul__"): ("poly.ComplexPoly.mul", False),
}

# Per-layer metrics: the statistics reported for each layer.  Every value
# is per op of the traced passes.
LAYER_STATS = {
    "schur.tail_schur": ("calls", "self_s"),
    "schur.as_rational_F": ("calls", "self_s"),
    "schur.RationalFn.init": ("calls", "self_s"),
    "poly.roots": ("calls", "s", "degree_sum"),
    "analysis.circle_quadrature": ("calls", "levels", "samples", "integrand_s"),
    "poly.ComplexPoly.eval": ("points", "s"),
    "poly.ComplexPoly.init": ("calls",),
    "poly.ComplexPoly.mul": ("calls", "s"),
    "opuc_core.szego_polys": ("calls", "s"),
    "opuc_core.wall_polys": ("calls", "s"),
    "analysis.pole_set": ("calls", "self_s"),
    "analysis.szego_verify": ("self_s",),
    "analysis.re_F_khrushchev": ("calls", "self_s"),
    "schur.recover_coefficients": ("self_s",),
    "analysis.moments": ("self_s",),
    "analysis.zero_count_trace": ("self_s",),
    "cli.main": ("calls", "self_s"),
    "log": ("records",),
}
UNITS = {"calls": "calls/op", "points": "points/op", "levels": "levels/op",
         "samples": "samples/op", "degree_sum": "degree/op", "records": "records/op"}
# metric name: (layer, statistic, unit)
METRICS = {f"{layer}.{stat}": (layer, stat, UNITS.get(stat, "s/op"))
           for layer, stats in LAYER_STATS.items() for stat in stats}


@dataclass
class Layer:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.log_records = 0
        self._frames: list[list] = []   # [child time, span id] per open call
        self._next_id = 0
        self._op = -1
        self._restore: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool, measure=None):
        layer = self.layers.setdefault(name, Layer())
        frames, spans, clock = self._frames, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if measure is not None:
                args = measure(layer, args)
            parent = frames[-1][1] if frames else None
            sid = parent
            if span:
                self._next_id += 1
                sid = self._next_id
            frame = [0.0, sid]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                d = end - start
                layer.calls += 1
                layer.s += d
                layer.self_s += d - frame[0]
                if frames:
                    frames[-1][0] += d
                if span:
                    spans.append((sid, parent, name, start, end, self._op))
        wrapper.__wrapped__ = fn
        return wrapper

    def _measure_roots(self, layer: Layer, args):
        coeffs = getattr(args[0], "coeffs", ()) if args else ()
        layer.add("degree_sum", max(len(coeffs) - 1, 0))
        return args

    def _measure_eval(self, layer: Layer, args):
        z = args[1]
        layer.add("points", z.size if isinstance(z, np.ndarray) else 1)
        return args

    def _measure_quadrature(self, layer: Layer, args):
        clock = time.perf_counter

        def g(thetas, _g=args[0]):
            start = clock()
            try:
                return _g(thetas)
            finally:
                layer.add("integrand_s", clock() - start)
                layer.add("levels", 1)
                layer.add("samples", np.size(thetas))
        return (g,) + tuple(args[1:])

    def install(self, opuc) -> None:
        import importlib
        modules = {}
        for m in MODULES:
            try:
                modules[m] = importlib.import_module(f"opuc.{m}")
            except ModuleNotFoundError:
                pass
        namespaces = [opuc, *modules.values()]
        measures = {"poly.roots": self._measure_roots,
                    "poly.ComplexPoly.eval": self._measure_eval,
                    "analysis.circle_quadrature": self._measure_quadrature}
        for (mod, attr), name in FUNCTIONS.items():
            fn = getattr(modules.get(mod), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(fn, name, True, measures.get(name))
            for ns in namespaces:   # every binding the callers look up
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._restore.append((ns, key, value))
                        setattr(ns, key, wrapped)
        for (mod, cls_name, meth), (name, span) in METHODS.items():
            cls = getattr(modules.get(mod), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(fn, name, span, measures.get(name))
            for key, value in list(vars(cls).items()):   # aliases such as __rmul__
                if value is fn:
                    self._restore.append((cls, key, value))
                    setattr(cls, key, wrapped)
        factory = logging.getLogRecordFactory()

        def counting_factory(*args, **kwargs):
            record = factory(*args, **kwargs)
            if record.name == "opuc" or record.name.startswith("opuc."):
                self.log_records += 1
            return record
        self._restore.append((None, "log", factory))
        logging.setLogRecordFactory(counting_factory)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if target is None:
                logging.setLogRecordFactory(value)
            else:
                setattr(target, key, value)
        self._restore.clear()

    def op(self, index: int, kind: str, call):
        """Run one op as a root span; every span inside it carries its index."""
        self._op = index
        return self._wrap(call, f"op.{kind}", True)()

    # -- results ---------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        out = {}
        for metric, (layer_name, stat, _unit) in METRICS.items():
            if layer_name == "log":
                value = self.log_records
            else:
                layer = self.layers.get(layer_name, Layer())
                value = getattr(layer, stat) if stat in ("calls", "s", "self_s") \
                    else layer.extra.get(stat, 0)
            out[metric] = value / ops
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")
