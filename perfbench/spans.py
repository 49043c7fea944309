"""Per-layer tracing of qsolv, installed from outside the package.

The layers are the modules under ``src/qsolv``.  ``Tracer.install`` wraps
every public function of those modules at run time, in every namespace that
holds it, so internal calls between modules are seen too.  Spans (name,
start, end, parent, operation) are kept in memory while an operation runs and
are reduced to per-layer metrics after the round.  Two hot methods of the
coefficient layer get counting wrappers only: ``LaurentPoly`` products and
``FracElem`` arithmetic.  Nothing is recorded between operations, so the
benchmark's own checks leave no trace.
"""

from __future__ import annotations

import inspect
import statistics
from collections import defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("params", "intlinalg", "presentation", "normalform", "weights",
          "adjoint", "torus", "strat", "special", "cli")

FRAC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "inverse")

# Self times reported by name; every layer's total self time is reported too.
TIMED = ("normalform.nf_mul", "normalform.q_leibniz_expand",
         "adjoint.ad_minimal_polynomial", "adjoint.ad_eigencomponents",
         "adjoint.replacement_generator", "weights.weight_components",
         "presentation.validate_presentation", "special.specialize_presentation",
         "special.root_of_unity_witness", "special.rational_torsionfree",
         "params.gamma_torsionfree", "strat.stratify_rank2", "strat.rational_roots",
         "strat.stratify_affine", "torus.center_lattice",
         "cli.parse_presentation", "cli.run_command")

# Work counts, each also reported per operation.
COUNTED = ("normalform.nf_mul", "params.laurent_mul", "params.frac_ops",
           "adjoint.ad_apply", "adjoint.ad_minimal_polynomial", "intlinalg.column_hnf")


def _degree_span(poly):
    """Total-degree span of a Laurent polynomial (0 for a monomial)."""
    degrees = [sum(e) for e in poly.terms]
    return max(degrees) - min(degrees) if degrees else 0


class Tracer:
    """Spans and counts of the operations of one round."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []       # (name, start, end, parent index, op index)
        self.stack = []
        self.counts = defaultdict(int)
        self.terms_out = 0
        self.krylov_degree = 0
        self.coef_max = {"terms": 0, "num_degree": 0, "den_degree": 0}

    # -- installation ------------------------------------------------------

    def install(self, pkg):
        """Wrap the public functions of a freshly imported qsolv package."""
        modules = {name: getattr(pkg, name) for name in LAYERS}
        namespaces = [pkg, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._span(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
        laurent = modules["params"].LaurentPoly
        for attr in ("__mul__", "__rmul__"):
            setattr(laurent, attr, self._count("params.laurent_mul", getattr(laurent, attr)))
        frac = modules["params"].FracElem
        for attr in FRAC_OPS:
            setattr(frac, attr, self._count("params.frac_ops", getattr(frac, attr),
                                            self._frac_size))

    def _span(self, name, fn):
        tracer = self
        on_result = {"normalform.nf_mul": self._nf_out,
                     "adjoint.ad_minimal_polynomial": self._krylov}.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, name, fn, on_result=None):
        tracer = self

        @wraps(fn)
        def counted(*args):
            if not tracer.active:
                return fn(*args)
            tracer.counts[name] += 1
            result = fn(*args)
            if on_result is not None and result is not NotImplemented:
                on_result(result)
            return result

        return counted

    def _nf_out(self, result):
        self.terms_out += len(result.terms)

    def _krylov(self, spec):
        self.krylov_degree += spec.degree

    def _frac_size(self, value):
        cm = self.coef_max
        cm["terms"] = max(cm["terms"], len(value.num.terms) + len(value.den.terms))
        cm["num_degree"] = max(cm["num_degree"], _degree_span(value.num))
        cm["den_degree"] = max(cm["den_degree"], _degree_span(value.den))

    # -- recording -----------------------------------------------------------

    def begin(self, op):
        self.op = op
        self.active = True

    def end(self):
        self.active = False
        self.stack.clear()

    # -- reduction -------------------------------------------------------------

    def self_times(self):
        """Self time per span name, and the time each operation spent
        outside any span."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_name = defaultdict(float)
        top_level = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            by_name[name] += (end - start) - child[index]
            if parent is None:
                top_level[op] += end - start
        return by_name, top_level


def round_layer_metrics(tracer, op_times):
    """Per-layer numbers of one traced round."""
    by_name, top_level = tracer.self_times()
    ops = len(op_times)
    out = {"trace.ops": (ops, "count")}
    for name in TIMED:
        out[f"{name}.self_s"] = (by_name.get(name, 0.0), "s")
    for layer in LAYERS:
        total = sum((t for n, t in by_name.items() if n.split(".", 1)[0] == layer), 0.0)
        out[f"{layer}.self_s"] = (total, "s")
    uncovered = sum(t - top_level.get(i, 0.0) for i, t in enumerate(op_times))
    out["trace.op_self_s"] = (uncovered, "s")
    for name in COUNTED:
        calls = tracer.counts.get(name, 0)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.calls_per_op"] = (calls / ops, "count/op")
    calls = tracer.counts.get("normalform.nf_mul", 0)
    out["normalform.nf_mul.terms_out"] = (tracer.terms_out, "count")
    out["normalform.nf_mul.terms_out_per_call"] = (tracer.terms_out / calls if calls else 0.0,
                                                   "count/call")
    out["adjoint.krylov_degree.sum"] = (tracer.krylov_degree, "count")
    for key, value in tracer.coef_max.items():
        out[f"params.coef_size_max.{key}"] = (value, "count")
    return out


def combine_rounds(per_round):
    """Counts come from the first traced round (they repeat exactly for a
    seed); times are medians over the traced rounds."""
    first = per_round[0]
    out = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(r[name][0] for r in per_round)
        out[name] = (value, unit)
    return out
