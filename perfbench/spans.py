"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions and methods of each frobpow
module so that every call records a span: function, start, end, parent span,
task id, whether it raised, and a few sizes some metrics need.  Modules use
``from .x import y``, so a wrapped function is rebound under every name that
refers to it in every frobpow module (and in any extra module passed in, such
as the workload definitions).  ``uninstall`` puts every original object back.
Spans stay in memory; ``counters`` folds them into additive per-layer totals
that can be summed across passes and processes, and ``layer_metrics`` turns
summed totals into the metrics named in the benchmark manifest.
"""

from __future__ import annotations

import importlib
import sys
import time
from types import FunctionType, ModuleType

LAYERS = ("poly", "groebner", "ideal", "monomial", "frobpower", "thresholds", "generic", "cli")

# Dunder methods that do a layer's work (arithmetic and comparison); other
# dunders and constructors are bookkeeping and stay unwrapped.
_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__eq__", "__hash__"}

_NEWTON = {"newton_tau", "newton_fpt", "newton_jump_candidates"}
_ROOTS = {"monomial.mono_root", "ideal.frob_root"}
_PROBES = {"monomial.mono_frob_power_int", "ideal.frob_power_int"}
_RECONSTRUCT = {"thresholds.crit_reconstruct", "thresholds.lce"}
_REDUCE = {"groebner.normal_form", "groebner.GroebnerBasis.reduces_to_zero"}


def _sizes_product(args, result):
    a, b = args[0], args[1]
    return (len(a.gens) * len(b.gens), len(result.gens))


def _sizes_basis(args, result):
    return (0, len(result.polys))


# functions whose spans also record (in, out) sizes
_SIZES = {
    "monomial.mono_product": _sizes_product,
    "groebner.groebner_basis": _sizes_basis,
}


def _targets(module: ModuleType):
    """(owner, attribute, raw object, function, qualified name) to wrap."""
    layer = module.__name__.rsplit(".", 1)[1]
    source = module.__file__
    out = []
    for name, obj in vars(module).items():
        if isinstance(obj, FunctionType) and obj.__module__ == module.__name__ and not name.startswith("_"):
            out.append((module, name, obj, obj, f"{layer}.{name}"))
        elif isinstance(obj, type) and obj.__module__ == module.__name__ and not name.startswith("_"):
            for attr, raw in vars(obj).items():
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not isinstance(fn, FunctionType) or fn.__code__.co_filename != source:
                    continue
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                out.append((obj, attr, raw, fn, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Records spans while installed.  One tracer per process at a time."""

    def __init__(self):
        self.names: list[str] = []
        # (name id, start, end, parent index, task id, ok, size_in, size_out)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.task = -1
        self._restore: list[tuple] = []

    # -- install / uninstall ------------------------------------------------------

    def install(self, extra_modules: tuple[ModuleType, ...] = ()):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"frobpow.{layer}") for layer in LAYERS]
        holders = [m for n, m in sys.modules.items() if n == "frobpow" or n.startswith("frobpow.")]
        aliases: dict[int, list[tuple[ModuleType, str]]] = {}
        for holder in holders + list(extra_modules):
            for alias, value in vars(holder).items():
                aliases.setdefault(id(value), []).append((holder, alias))
        for module in modules:
            for owner, attr, raw, fn, qualname in _targets(module):
                wrapper = self._wrap(fn, qualname)
                if isinstance(owner, type):
                    new = type(raw)(wrapper) if isinstance(raw, (staticmethod, classmethod)) else wrapper
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                for holder, alias in aliases[id(fn)]:
                    self._restore.append((holder, alias, fn))
                    setattr(holder, alias, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self.stack
        sizes = _SIZES.get(qualname)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok, result, start = False, None, clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                size = sizes(args, result) if ok and sizes else (0, 0)
                spans[index] = (name_id, start, end, parent, self.task, ok, *size)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def clear(self):
        self.spans.clear()
        self.stack.clear()

    # -- aggregation ----------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Additive totals over the spans recorded inside tasks (task id >= 0)."""
        c: dict[str, float] = {}

        def add(key, value):
            c[key] = c.get(key, 0) + value

        spans = self.spans
        names = self.names
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        # nearest rational_power and crit_reconstruct/lce ancestor of each span
        power_anc = [-1] * len(spans)
        recon_anc = [-1] * len(spans)
        for i, (nid, start, end, parent, task, ok, size_in, size_out) in enumerate(spans):
            name = names[nid]
            power_anc[i] = i if name == "frobpower.rational_power" else (power_anc[parent] if parent >= 0 else -1)
            recon_anc[i] = i if name in _RECONSTRUCT else (recon_anc[parent] if parent >= 0 else -1)
            if task < 0:
                continue
            layer = name.split(".", 1)[0]
            short = name.rsplit(".", 1)[1]
            dur = end - start
            self_time = dur - child_time[i]
            group = "monomial.newton" if layer == "monomial" and short in _NEWTON else layer
            add(f"{group}.calls", 1)
            add(f"{group}.self_s", self_time)
            if parent < 0:
                add("trace.attributed_s", dur)
            if group == "monomial.newton" and not ok:
                add("monomial.newton_failed", 1)
            parent_name = names[spans[parent][0]] if parent >= 0 else ""
            if name == "groebner.groebner_basis":
                add("groebner.basis_calls", 1)
                add("groebner.basis_polys", size_out)
                if parent_name == "ideal.Ideal.reduced_basis":
                    add("ideal.basis_misses", 1)
            elif name in _REDUCE:
                add("groebner.reduce_calls", 1)
            elif name == "ideal.Ideal.reduced_basis":
                add("ideal.basis_requests", 1)
            elif name == "monomial.mono_product":
                add("monomial.product_candidates", size_in)
                add("monomial.gens_out", size_out)
            elif name == "frobpower.rational_power":
                add("frobpower.power_calls", 1)
            elif name == "thresholds.mu":
                add("thresholds.mu_calls", 1)
            elif name in _RECONSTRUCT:
                add("thresholds.reconstruct_calls", 1)
            if name in _ROOTS and parent >= 0 and power_anc[parent] >= 0:
                add("frobpower.roots_in_power", 1)
            if name in _PROBES and parent_name == "thresholds.mu":
                add("thresholds.mu_probes", 1)
            if name == "frobpower.rational_power" and parent >= 0 and recon_anc[parent] >= 0:
                add("thresholds.reconstruct_powers", 1)
        return c


def merge(total: dict[str, float], more: dict[str, float]) -> dict[str, float]:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order the benchmark reports them
LAYER_METRICS = {
    "poly.calls": "count",
    "poly.self_s": "s",
    "groebner.basis_calls": "count",
    "groebner.reduce_calls": "count",
    "groebner.self_s": "s",
    "groebner.basis_polys_per_call": "polys/call",
    "ideal.calls": "count",
    "ideal.self_s": "s",
    "ideal.basis_cache_hit_ratio": "ratio",
    "monomial.calls": "count",
    "monomial.self_s": "s",
    "monomial.gens_out": "count",
    "monomial.product_survival": "ratio",
    "monomial.newton_calls": "count",
    "monomial.newton_self_s": "s",
    "monomial.newton_failed": "count",
    "frobpower.power_calls": "count",
    "frobpower.self_s": "s",
    "frobpower.roots_per_power": "roots/call",
    "thresholds.mu_calls": "count",
    "thresholds.probes_per_mu": "probes/call",
    "thresholds.powers_per_reconstruct": "powers/call",
    "thresholds.self_s": "s",
    "generic.calls": "count",
    "generic.self_s": "s",
    "cli.startup_s": "s",
    "cli.parse_s": "s",
    "cli.run_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_frac": "ratio",
}


def layer_metrics(c: dict[str, float], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from summed counters.  ``trace.task_s`` is the summed
    traced task time; CLI children add ``cli.*`` totals and an invocation count."""
    g = c.get
    invocations = g("cli.invocations", 0)
    out = {
        "poly.calls": g("poly.calls", 0),
        "poly.self_s": g("poly.self_s", 0.0),
        "groebner.basis_calls": g("groebner.basis_calls", 0),
        "groebner.reduce_calls": g("groebner.reduce_calls", 0),
        "groebner.self_s": g("groebner.self_s", 0.0),
        "groebner.basis_polys_per_call": _ratio(g("groebner.basis_polys", 0), g("groebner.basis_calls", 0)),
        "ideal.calls": g("ideal.calls", 0),
        "ideal.self_s": g("ideal.self_s", 0.0),
        "ideal.basis_cache_hit_ratio": (
            1 - _ratio(g("ideal.basis_misses", 0), g("ideal.basis_requests", 0))
            if g("ideal.basis_requests", 0) else 0.0
        ),
        "monomial.calls": g("monomial.calls", 0),
        "monomial.self_s": g("monomial.self_s", 0.0),
        "monomial.gens_out": g("monomial.gens_out", 0),
        "monomial.product_survival": _ratio(g("monomial.gens_out", 0), g("monomial.product_candidates", 0)),
        "monomial.newton_calls": g("monomial.newton.calls", 0),
        "monomial.newton_self_s": g("monomial.newton.self_s", 0.0),
        "monomial.newton_failed": g("monomial.newton_failed", 0),
        "frobpower.power_calls": g("frobpower.power_calls", 0),
        "frobpower.self_s": g("frobpower.self_s", 0.0),
        "frobpower.roots_per_power": _ratio(g("frobpower.roots_in_power", 0), g("frobpower.power_calls", 0)),
        "thresholds.mu_calls": g("thresholds.mu_calls", 0),
        "thresholds.probes_per_mu": _ratio(g("thresholds.mu_probes", 0), g("thresholds.mu_calls", 0)),
        "thresholds.powers_per_reconstruct": _ratio(
            g("thresholds.reconstruct_powers", 0), g("thresholds.reconstruct_calls", 0)
        ),
        "thresholds.self_s": g("thresholds.self_s", 0.0),
        "generic.calls": g("generic.calls", 0),
        "generic.self_s": g("generic.self_s", 0.0),
        "cli.startup_s": _ratio(g("cli.startup_total_s", 0.0), invocations),
        "cli.parse_s": _ratio(g("cli.parse_total_s", 0.0), invocations),
        "cli.run_s": _ratio(g("cli.run_total_s", 0.0), invocations),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.unattributed_frac": _ratio(
            g("trace.task_s", 0.0) - g("trace.attributed_s", 0.0), g("trace.task_s", 0.0)
        ),
    }
    assert list(out) == list(LAYER_METRICS)
    return out
