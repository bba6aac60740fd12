"""Spans around the public qcusp calls, recorded from outside the library.

Installing a Tracer replaces each traced function or method with a wrapper
that records (name, parent span, start, end) into flat arrays. A function
that other modules import by name is replaced in every qcusp namespace that
holds it, so calls across layers are caught too. Spans stay in memory until
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import qcusp
from oracle import mul_deg
from qcusp import principles

# (module, attribute or Class.method, span name)
TRACED = (
    ("coeff", "CycloCoeff.__mul__", "coeff.mul"),
    ("coeff", "CycloCoeff.__add__", "coeff.add"),
    ("coeff", "CycloCoeff.mul_zeta_power", "coeff.mul_zeta_power"),
    ("coeff", "inv", "coeff.inv"),
    ("coeff", "val_p", "coeff.val_p"),
    ("series", "FracSeries.__mul__", "series.mul"),
    ("series", "FracSeries.__add__", "series.add"),
    ("series", "FracSeries.items", "series.items"),
    ("series", "FracSeries.__init__", "series.init"),
    ("series", "twist", "series.twist"),
    ("series", "compose", "series.compose"),
    ("series", "revert", "series.revert"),
    ("modular", "j_coefficients", "modular.j_coefficients"),
    ("modular", "j_inverse_coefficients", "modular.j_inverse_coefficients"),
    ("modular", "j_series", "modular.j_series"),
    ("modular", "tate_parameter_from_j", "modular.tate_parameter_from_j"),
    ("trace", "tate_trace", "trace.tate_trace"),
    ("trace", "galois_average", "trace.galois_average"),
    ("principles", "extends_to_cusp", "principles.decide"),
    ("principles", "is_integral", "principles.decide"),
    ("principles", "zero_test", "principles.decide"),
    ("principles", "detect_level", "principles.decide"),
    ("action", "act_cusp", "action.act_cusp"),
    ("action", "ht", "action.period"),
    ("tiltperf", "CharPSeries.__mul__", "tiltperf.charp_mul"),
    ("tiltperf", "CharPSeries.__add__", "tiltperf.charp_add"),
    ("tiltperf", "tower_mul", "tiltperf.tower_mul"),
    ("tiltperf", "tower_add", "tiltperf.tower_add"),
    ("tiltperf", "tower_from_charp", "tiltperf.tower_from_charp"),
    ("tiltperf", "TiltTower.__init__", "tiltperf.tower_validate"),
    ("valuation", "v1minus", "valuation.v1minus"),
    ("valuation", "classify_point", "valuation.classify_point"),
    ("fileformat", "parse_series", "fileformat.parse_series"),
    ("fileformat", "emit_series", "fileformat.emit_series"),
    ("cli", "run", "cli.run"),
)

LAYERS = ("coeff", "series", "modular", "trace", "principles", "action", "tiltperf", "valuation", "fileformat", "cli")
PHIS = (1, 8, 42, 54, 100)
BOOKKEEPING = "tracing.bookkeeping"  # the tracer's own counting, kept out of every layer's self time


def _kept_pairs(a: list, b: list, bound) -> int:
    """Pairs (x, y) from two ascending lists with x + y <= bound."""
    kept, j = 0, len(b)
    for x in a:
        while j and x + b[j - 1] > bound:
            j -= 1
        kept += j
    return kept


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    # -- installing wrappers ------------------------------------------------------

    def _wrapper(self, fn, name: str):
        nid = self.name_id(name)
        begin, finish, counts = self.begin, self.finish, self.counts
        before = after = None
        if name == "coeff.mul":
            ids = {phi: self.name_id(f"coeff.mul@phi{phi}") for phi in PHIS}
            other = self.name_id("coeff.mul@other")

            def wrapper(a, b):
                i = begin(ids.get(a.ctx.phi, other))
                try:
                    return fn(a, b)
                finally:
                    finish(i)

            return wrapper
        if name == "series.mul":
            book = self.name_id(BOOKKEEPING)

            def before(args):
                i = begin(book)
                a, b = args
                ea, eb = a.exponents(), b.exponents()
                counts["series.mul.pairs"] += len(ea) * len(eb)
                counts["series.mul.kept"] += _kept_pairs(ea, eb, mul_deg(ea, a.deg_bound, eb, b.deg_bound))
                finish(i)
        elif name in ("fileformat.parse_series", "fileformat.emit_series"):
            def after(args, result):
                counts[name + ".bytes"] += len(args[0] if name.endswith("parse_series") else result)
        elif name == "principles.decide":
            def after(args, result):
                if isinstance(result, principles.PrincipleVerdict):
                    counts["principles.verdicts"] += 1
                    counts["principles.unknown"] += result.verdict is principles.Verdict.UNKNOWN

        def wrapper(*args, **kwargs):
            if before:
                before(args)
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".fail"] += 1
                raise
            finally:
                finish(i)
            if after:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "qcusp" or key.startswith("qcusp.")]
        for modname, attr, name in TRACED:
            owner = getattr(qcusp, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(original, name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Calls and self seconds per span name, and calls per (parent name,
        child name) pair."""
        n = len(self.start)
        child = [0.0] * n
        calls: Counter = Counter()
        own: Counter = Counter()
        nested: Counter = Counter()
        names, parent, start, end = self.names, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                nested[(names[self.name[p]], names[self.name[i]])] += 1
        for i in range(n):
            key = names[self.name[i]]
            calls[key] += 1
            own[key] += end[i] - start[i] - child[i]
        return calls, own, nested

    def write_spans(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> tuple[dict, dict]:
    """The per-layer metrics, and the self time summed per layer."""
    calls, own, nested = tracer.self_times()
    for key in [k for k in calls if k.startswith("coeff.mul@")]:
        calls["coeff.mul"] += calls[key]
        own["coeff.mul"] += own[key]
    ratio = lambda a, b: a / b if b else 0.0
    out: dict[str, float] = {}
    for name in sorted({name for _, _, name in TRACED}):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
    for phi in PHIS:
        key = f"coeff.mul@phi{phi}"
        out[f"coeff.mul.us_per_call.phi{phi}"] = ratio(own[key] * 1e6, calls[key])
    c = tracer.counts
    out["coeff.inv.fail"] = c["coeff.inv.fail"]
    out["modular.tate_parameter_from_j.fail"] = c["modular.tate_parameter_from_j.fail"]
    out["series.mul.pairs"] = c["series.mul.pairs"]
    out["series.mul.kept_ratio"] = ratio(c["series.mul.kept"], c["series.mul.pairs"])
    out["trace.galois_average.twists_per_call"] = ratio(
        nested[("trace.galois_average", "series.twist")], calls["trace.galois_average"])
    out["principles.unknown_ratio"] = ratio(c["principles.unknown"], c["principles.verdicts"])
    for name in ("fileformat.parse_series", "fileformat.emit_series"):
        out[f"{name}.bytes"] = c[f"{name}.bytes"]
    out["tracing.overhead_ratio"] = overhead_ratio
    by_layer = {layer: sum(v for k, v in own.items() if k.split(".")[0] == layer) for layer in LAYERS}
    return out, by_layer
