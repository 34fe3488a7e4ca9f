"""Per-layer tracing for the benchmark.

Wrappers are installed from outside the package, around calls into the public
functions of each ``tbgrav`` layer, and removed afterwards.  Every wrapped
name is rebound in every ``tbgrav`` module namespace that holds it, because
``from .spacetime import metric_jet`` style imports keep their own binding.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the wrapped calls it made.  Per label the tracer keeps
(calls, total seconds, self seconds); spans of the coarser layers are also
kept in memory as (id, parent, root, label, start, end) and written out when
the benchmark ends.  The root is the benchmark operation that caused them.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import cached_property

# layers whose calls are too frequent to keep as individual spans
_COUNT_ONLY = ("jets.", "exprlang.", "spacetime.", "dynamics.rhs", "dynamics.sample",
               "dynamics.worldline_rhs", "dynamics.guard", "bundle_geom.BundleGeometry")
_JET_ELEMENTARY = ("sqrt", "exp", "ln", "sin", "cos", "abs", "pow_const", "_reciprocal")
_LAYERS = ("exprlang", "spacetime", "base_geom", "bundle_geom", "tm_metric", "dynamics", "verify", "cli")
# Dormand-Prince stages evaluated per attempted step after the first-same-as-last stage
_DP_STAGES = 6
# spans kept in memory; later ones are only counted
MAX_SPANS = 200_000


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self.stack: list[list] = []  # frames [name, child_s, span_id, root_id]
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.steps = {"attempted": 0, "accepted": 0}
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------------------

    def wrap(self, fn, name, key=None):
        """Span around ``fn``; a direct re-entry under the same name is not a new span."""
        stats, stack, spans, clock = self.stats, self.stack, self.spans, time.perf_counter
        keep = not name.startswith(_COUNT_ONLY)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            label = key(*args, **kwargs) if key else name
            parent = stack[-1] if stack else None
            if keep:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent[2] if parent else None
            root = parent[3] if parent else span_id
            frame = [name, 0.0, span_id, root]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = stats.get(label)
                if entry is None:
                    entry = stats[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent[2] if parent else None, root, label, start, end))
                    else:
                        tracer.dropped_spans += 1

        return traced

    def operation(self, kind: str, call):
        """Root span for one benchmark operation."""
        return self.wrap(call, f"op.{kind}")()

    # -- installation -----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every tbgrav module namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tbgrav" or mod_name.startswith("tbgrav.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def patch_methods(self, cls, attrs, name, key=None):
        """Wrap methods of ``cls`` (and their aliases, such as ``__radd__``) under one name."""
        for attr in attrs:
            original = cls.__dict__.get(attr)
            if original is None:
                continue  # removed by a refactor: the layer metric reads 0
            wrapper = self.wrap(original, name, key)
            for alias, value in list(cls.__dict__.items()):
                if value is original:
                    self._set(cls, alias, wrapper)

    def install(self, tb) -> None:
        """Wrap the layers of the imported ``tbgrav`` package ``tb``; tracing starts off."""
        for layer in _LAYERS:
            mod = importlib.import_module(f"{tb.__name__}.{layer}")
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer == "bundle_geom" and isinstance(vars(tb.bundle_geom.BundleGeometry).get(attr), cached_property):
                    name += "_fn"  # keep the plain name for the cached object of the same name
                key = None
                if name == "spacetime.metric_jet":
                    key = lambda *a, **k: f"spacetime.metric_jet.o{_arg(a, k, 2, 'order')}"
                self.rebind(value, self.wrap(value, name, key))
        self._install_jets(tb.jets.Jet)
        self.patch_methods(tb.spacetime.SpacetimeModel, ["check_chart"], "spacetime.check_chart")
        self._install_bundle(tb.bundle_geom.BundleGeometry)
        self._install_dynamics(tb.dynamics)
        self._install_verify(tb.verify)

    def uninstall(self) -> None:
        self.on = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _install_jets(self, jet) -> None:
        def mul_key(a, b):
            if isinstance(b, jet) and b.space is a.space:
                return f"jets.mul.o{a.order}v{a.nvars}"
            return "jets.mul.mixed"

        def coerce_key(a, b):
            return "jets.coerce_mixed" if isinstance(b, jet) and b.order != a.order else "jets.coerce"

        def truncate_key(a, order):
            return "jets.truncate" if order != a.order else "jets.truncate_noop"

        self.patch_methods(jet, ["__mul__"], "jets.mul", mul_key)
        self.patch_methods(jet, ["_coerce"], "jets.coerce", coerce_key)
        self.patch_methods(jet, ["truncate"], "jets.truncate", truncate_key)
        self.patch_methods(jet, ["__add__", "__sub__", "__rsub__", "__neg__"], "jets.add")
        self.patch_methods(jet, ["__truediv__", "__rtruediv__"], "jets.div")
        self.patch_methods(jet, list(_JET_ELEMENTARY), "jets.elementary")
        self.patch_methods(jet, ["partial"], "jets.partial")

    def _install_bundle(self, geometry_cls) -> None:
        self.patch_methods(geometry_cls, ["__init__"], "bundle_geom.BundleGeometry",
                           lambda *a, **k: f"bundle_geom.geometry.o{_arg(a, k, 3, 'order', 2)}")
        for attr, value in list(vars(geometry_cls).items()):
            if isinstance(value, cached_property):
                traced = cached_property(self.wrap(value.func, f"bundle_geom.{attr}"))
                traced.__set_name__(geometry_cls, attr)
                self._set(geometry_cls, attr, traced)

    def _install_dynamics(self, dyn) -> None:
        tracer = self
        self.patch_methods(dyn.Trajectory, ["sample"], "dynamics.sample")
        if hasattr(dyn, "_connection_and_tidal"):
            original = dyn._connection_and_tidal
            self.rebind(original, self.wrap(original, "dynamics.connection_and_tidal"))
        integrate = getattr(dyn, "_integrate", None)
        if integrate is None:
            return

        def counted_integrate(rhs, *args, guard=None, **kwargs):
            # stage counter: attempts start every _DP_STAGES calls after the first,
            # and end early when a stage raises
            stage = [-1]
            traced_rhs = tracer.wrap(rhs, "dynamics.rhs")

            def counting_rhs(t, state):
                if stage[0] == 0:
                    tracer.steps["attempted"] += 1
                try:
                    out = traced_rhs(t, state)
                except Exception:
                    stage[0] = 0
                    raise
                stage[0] = (stage[0] + 1) % _DP_STAGES
                return out

            def counting_guard(t, state):
                tracer.steps["accepted"] += 1
                if guard is not None:
                    guard(t, state)

            return integrate(counting_rhs, *args, guard=tracer.wrap(counting_guard, "dynamics.guard"), **kwargs)

        self.rebind(integrate, self.wrap(counted_integrate, "dynamics.integrator"))

    def _install_verify(self, verify) -> None:
        registry = [(name, tier, self.wrap(fn, f"verify.{name}")) for name, tier, fn in verify.REGISTRY]
        self._set(verify, "REGISTRY", registry)

    # -- summaries --------------------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return sum(v[0] for k, v in self.stats.items() if k == prefix or k.startswith(prefix + "."))

    def self_s(self, prefix: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k == prefix or k.startswith(prefix + "."))

    def total_s(self, label: str) -> float:
        entry = self.stats.get(label)
        return entry[1] if entry else 0.0

    def s_per_call(self, label: str) -> float:
        entry = self.stats.get(label)
        return entry[1] / entry[0] if entry else 0.0
