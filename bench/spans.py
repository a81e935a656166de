"""Spans around patchalg's layer calls, recorded from outside the program.

A ``Tracer`` replaces each layer function or method listed in ``LAYERS`` by
a wrapper that records one span per call: layer, start, end, parent span and
request id.  Spans live in compact arrays and are written out when the run
ends.  ``reduce`` turns them into the per-layer metrics: call counts, self
time (a span's duration minus the part its child spans cover) and the
counts each layer's hook derives from its arguments or result.

Several layer functions are imported by name into other modules (``patching``
holds ``ae_dot``, ``membership`` and ``unit_invert``; ``kummer`` holds
``prime_point_valuation``, ``unit_invert`` and ``prime_valuation`` as
``bivar_prime_valuation``), so a function is replaced in every namespace
that holds it, not only where it is defined.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    name: str  # metric prefix, e.g. "analytic.ae_dot"
    module: str  # defining module
    attr: str  # "func" or "Class.method"
    on: tuple  # workloads whose result this layer should move; its counts are nonzero there
    hook: Optional[Callable] = None  # (counters, args, result) after each call
    fails_on: str = ""  # exception class name counted as "<name>.failed"


def _coeff_mults(c, args, out):
    # schoolbook truncated product: P(P+1)/2 coefficient products per component pair
    a, b = args
    p = min(a.prec, b.prec)
    c["coeff_mults"] += p * (p + 1) // 2 * a.field.dim ** 2


def _term_pairs(c, args, out):
    c["term_pairs"] += sum((1 + len(f.zc)) * (1 + len(g.zc)) for f, g in args[0])


def _rewrite_keys(c, args, out):
    c["keys"].add(args[1:])


def _rebase_moves(c, args, out):
    f, to_chart = args
    if to_chart != f.chart:
        c["moved"] += 1
    c["out_zdeg_max"] = max(c["out_zdeg_max"], out.zdegree())


def _rounds(c, args, out):
    c["rounds"] += out.rounds
    c["rounds_max"] = max(c["rounds_max"], out.rounds)


KQ, CA, RO = "kummer-qi", "cartan", "ring-ops"
LAYERS = (
    Layer("series.mul", "patchalg.series", "TruncSeries.__mul__", (KQ, CA), _coeff_mults),
    Layer("series.prime_valuation", "patchalg.series", "prime_valuation", (KQ,)),
    Layer("analytic.ae_dot", "patchalg.analytic", "ae_dot", (CA, RO, KQ), _term_pairs),
    Layer("analytic.rewrite_ints", "patchalg.analytic", "Configuration.rewrite_ints", (CA,),
          _rewrite_keys),
    Layer("analytic.rebase", "patchalg.analytic", "AnalyticElement.rebase", (RO,), _rebase_moves),
    Layer("analytic.split", "patchalg.analytic", "split", (RO,)),
    Layer("analytic.membership", "patchalg.analytic", "membership", (RO,)),
    Layer("analytic.unit_invert", "patchalg.analytic", "unit_invert", (KQ, CA),
          fails_on="UnitNotRecognized"),
    Layer("analytic.prime_point_valuation", "patchalg.analytic", "prime_point_valuation", (KQ,)),
    Layer("oracle.of_element", "patchalg.oracle", "oracle_of_element", (RO,)),
    Layer("oracle.series_mul", "patchalg.oracle", "OracleSeries.__mul__", (RO,)),
    Layer("patching.matmul", "patchalg.patching", "PatchMatrix.__mul__", (CA,)),
    Layer("patching.cartan_factor", "patchalg.patching", "cartan_factor", (CA,), _rounds),
    Layer("patching.gl_factor", "patchalg.patching", "gl_factor", (CA,),
          fails_on="FactorizationError"),
    Layer("kummer.mul", "patchalg.kummer", "KummerElement.__mul__", (KQ,)),
    Layer("kummer.norm", "patchalg.kummer", "KummerElement.norm", (KQ,)),
    Layer("kummer.valuation", "patchalg.kummer", "KummerElement.valuation", (KQ,)),
    Layer("kummer.hensel_root", "patchalg.kummer", "hensel_root", (KQ,)),
    Layer("kummer.certify", "patchalg.kummer", "certify_division_algebra", (KQ,)),
)

REQUEST = "request"  # span the benchmark opens around each traced request


class Tracer:
    """Installs the layer wrappers on demand and keeps the spans they record."""

    def __init__(self):
        self.names = [REQUEST] + [layer.name for layer in LAYERS]
        self.layer_ids = array("h")
        self.parents = array("l")
        self.requests = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._request = -1
        self.counters = {layer.name: _new_counters() for layer in LAYERS}
        self._patches = []  # (namespace, attribute, original, wrapper)
        for lid, layer in enumerate(LAYERS, start=1):
            self._plan(lid, layer)

    # -- installing ------------------------------------------------------------

    def _plan(self, lid: int, layer: Layer) -> None:
        mod = importlib.import_module(layer.module)
        owner_name, _, meth = layer.attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[meth]
            self._patches.append((owner, meth, original, self._wrap(lid, layer, original)))
            return
        original = getattr(mod, meth)
        wrapper = self._wrap(lid, layer, original)
        spaces = [m for n, m in list(sys.modules.items())
                  if n == "patchalg" or n.startswith("patchalg.")]
        for ns in spaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original, wrapper))

    def namespaces_of(self, layer_name: str) -> list:
        """``module.attr`` names the wrapper of a layer is installed under."""
        lid = self.names.index(layer_name)
        return sorted(f"{getattr(ns, '__name__', ns)}.{attr}"
                      for ns, attr, _o, w in self._patches if w.layer_id == lid)

    def install(self) -> None:
        for ns, attr, _orig, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig, _wrapper in self._patches:
            setattr(ns, attr, orig)

    def _open(self, lid: int) -> int:
        idx = len(self.layer_ids)
        self.layer_ids.append(lid)
        self.parents.append(self._stack[-1])
        self.requests.append(self._request)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, lid: int, layer: Layer, fn: Callable) -> Callable:
        counters = self.counters[layer.name]
        hook, fails_on = layer.hook, layer.fails_on

        def wrapper(*args, **kwargs):
            idx = self._open(lid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == fails_on:
                    counters["failed"] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(counters, args, out)
            return out

        wrapper.layer_id = lid
        wrapper.__wrapped__ = fn
        return wrapper

    # -- requests ----------------------------------------------------------------

    def request(self, rid: int, fn: Callable, *args):
        """Run ``fn(*args)`` as request ``rid`` with the wrappers installed."""
        self._request = rid
        self.install()
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.uninstall()
            self._request = -1

    # -- results -----------------------------------------------------------------

    def reduce(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        n = len(self.layer_ids)
        child = [0] * n
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, lid in enumerate(self.layer_ids):
            calls[lid] += 1
            self_ns[lid] += dur[i] - child[i]
        out = {"request.calls": calls[0], "request.total_s": sum(
            dur[i] for i in range(n) if self.layer_ids[i] == 0) / 1e9,
            "request.self_s": self_ns[0] / 1e9}
        for lid, layer in enumerate(LAYERS, start=1):
            c = self.counters[layer.name]
            out[f"{layer.name}.calls"] = calls[lid]
            out[f"{layer.name}.self_s"] = self_ns[lid] / 1e9
            out.update({k: v for k, (v, _u) in _derived(layer, c, calls[lid]).items()})
        return out

    def write(self, path) -> None:
        """Spans as gzip'd TSV: span, layer, parent, request, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tlayer\tparent\trequest\tstart_ns\tend_ns\n")
            for i in range(len(self.layer_ids)):
                fh.write(f"{i}\t{self.names[self.layer_ids[i]]}\t{self.parents[i]}\t"
                         f"{self.requests[i]}\t{self.starts[i]}\t{self.ends[i]}\n")


def _new_counters() -> dict:
    return {"coeff_mults": 0, "term_pairs": 0, "keys": set(), "moved": 0,
            "out_zdeg_max": 0, "rounds": 0, "rounds_max": 0, "failed": 0}


def _derived(layer: Layer, c: dict, calls: int) -> dict:
    """The counts each layer's row of the metric table asks for: name -> (value, unit)."""
    hook, name = layer.hook, layer.name

    def ratio(x):
        return x / calls if calls else 0.0

    if hook is _coeff_mults:
        return {f"{name}.coeff_mults": (c["coeff_mults"], "count")}
    if hook is _term_pairs:
        return {f"{name}.term_pairs": (c["term_pairs"], "count")}
    if hook is _rewrite_keys:
        return {f"{name}.distinct_ratio": (ratio(len(c["keys"])), "ratio")}
    if hook is _rebase_moves:
        return {f"{name}.moved_ratio": (ratio(c["moved"]), "ratio"),
                f"{name}.out_zdeg_max": (c["out_zdeg_max"], "zdeg")}
    if hook is _rounds:
        return {f"{name}.rounds_mean": (ratio(c["rounds"]), "rounds"),
                f"{name}.rounds_max": (c["rounds_max"], "rounds")}
    if layer.fails_on:
        return {f"{name}.failed": (c["failed"], "count")}
    return {}


def metric_units() -> dict:
    """Unit of every per-layer metric a traced run reports."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        units.update({k: u for k, (_v, u) in _derived(layer, _new_counters(), 0).items()})
    units["trace.overhead_pct"] = "%"
    return units
