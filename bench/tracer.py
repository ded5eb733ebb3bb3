"""Spans and counters around the program's layers, from outside the program.

``Tracer.install`` wraps every public function of ``friedrichs.model``,
``quad``, ``spectral``, ``solver``, ``thresholds`` and ``oracle`` plus
``friedrichs.cli.main`` in a span recorder, and the form-factor evaluation
methods in counters.  The package binds callees with ``from .quad import
gram_matrix`` and the like, so each wrapper replaces the function under every
name that refers to it in any ``friedrichs`` module, not only in the module
that defines it.  ``uninstall`` restores the originals.

A span is [name, start, end, parent span, task id, info]; ``info`` keeps one
number from the result where a layer metric needs it (the error estimate of
an integral, the number of eigencurve points, ...).  Spans stay in memory
until the run writes them out.  The layer of a span is its module name.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("model", "quad", "spectral", "solver", "thresholds", "oracle")

# one number kept from a call's result, by span name
_INFO = {
    "quad.integrate_semiinf": lambda r: float(r[1]),
    "spectral.kappa_curve": len,
    "solver.positive_candidate_scan": len,
    "oracle.discretize": lambda r: (r.dimension, r.h.nbytes),
}

# form-factor methods that evaluate v, |v|^2 or a derivative; the scalar
# helpers of the base class (value_scalar and the tabulated mod_sq_scalar)
# delegate to these, so every evaluation is counted once
_FF_METHODS = {
    "_PolynomialFormFactor": ("profile_scalar", "profile_derivative_scalar",
                              "mod_sq_scalar", "value", "mod_sq",
                              "mod_sq_derivative"),
    "TabulatedFormFactor": ("value", "mod_sq", "mod_sq_derivative"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.task = -1
        self.ff_scalar = 0
        self.ff_points = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.task, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if info is not None:
                spans[idx][5] = info(result)
            return result

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, x, *args, **kwargs):
            if type(x) is float or np.ndim(x) == 0:
                tracer.ff_scalar += 1
            else:
                tracer.ff_points += np.size(x)
            return fn(obj, x, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "friedrichs" and not name.startswith("friedrichs."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self):
        from friedrichs import cli, model, oracle

        for layer in LAYERS:
            module = sys.modules[f"friedrichs.{layer}"]
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for n in names:
                fn = getattr(module, n, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._replace_everywhere(fn, self._span(f"{layer}.{n}", fn))
        self._replace_everywhere(cli.main, self._span("cli.main", cli.main))

        for method in ("negative_eigenvalues", "negative_eigensystem"):
            cls = oracle.DiscretizedHamiltonian
            self._patch_attr(cls, method, self._span("oracle.eig", vars(cls)[method]))
        for cls_name, methods in _FF_METHODS.items():
            cls = getattr(model, cls_name)
            for method in methods:
                self._patch_attr(cls, method, self._counter(vars(cls)[method]))

    def _patch_attr(self, owner, attr, wrapper):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "info"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Layer metrics from spans


def _nearest(spans, names):
    """For each span, the index of its nearest ancestor-or-self whose name is
    in names, or -1.  Parents precede children, so one pass suffices."""
    out = []
    for i, s in enumerate(spans):
        if s[0] in names:
            out.append(i)
        else:
            out.append(out[s[3]] if s[3] >= 0 else -1)
    return out


def layer_metrics(tracer, n_tasks, bytes_written, overhead_frac):
    """The per-layer metrics of the traced tasks, per task where a total."""
    spans = tracer.spans
    per = 1.0 / max(n_tasks, 1)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s = defaultdict(float)
    calls = Counter()
    busy = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s[0].split(".")[0]] += dur[i] - child[i]
        calls[s[0]] += 1
        busy[s[0]] += dur[i]

    def under(ancestors, name):
        near = _nearest(spans, ancestors)
        return sum(1 for i, s in enumerate(spans) if s[0] == name and near[i] >= 0)

    def info(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def mean_us(name):
        return busy[name] / calls[name] * 1e6 if calls[name] else 0.0

    roots = calls["solver.bound_state"] + calls["solver.find_root"]
    root_grams = under({"solver.bound_state", "solver.find_root"}, "quad.gram_matrix")
    # D(E) matrices per candidate found; per scan where no scan found one
    candidates = (sum(info("solver.positive_candidate_scan"))
                  or calls["solver.positive_candidate_scan"])
    scan_pv = under({"solver.positive_candidate_scan"}, "quad.pv_matrix")
    oracle_info = info("oracle.discretize")
    return {
        "model.ff_scalar_calls": tracer.ff_scalar * per,
        "model.ff_vector_points": tracer.ff_points * per,
        "quad.gram_calls": calls["quad.gram_matrix"] * per,
        "quad.gram_us": mean_us("quad.gram_matrix"),
        "quad.pv_calls": calls["quad.pv_matrix"] * per,
        "quad.pv_us": mean_us("quad.pv_matrix"),
        "quad.t_calls": calls["quad.t_matrix"] * per,
        "quad.integrate_calls": calls["quad.integrate_semiinf"] * per,
        "quad.err_max": max(info("quad.integrate_semiinf"), default=0.0),
        "quad.self_s": self_s["quad"] * per,
        "spectral.eigh_calls": calls["spectral.eigh"] * per,
        "spectral.kappa_points": sum(info("spectral.kappa_curve")) * per,
        "spectral.self_s": self_s["spectral"] * per,
        "solver.roots": roots * per,
        "solver.gram_per_root": root_grams / roots if roots else 0.0,
        "solver.scan_pv_per_candidate": scan_pv / candidates if candidates else 0.0,
        "solver.self_s": self_s["solver"] * per,
        "thresholds.sup_s": busy["thresholds.sup_d_norm"] * per,
        "thresholds.sup_pv_calls": under({"thresholds.sup_d_norm"}, "quad.pv_matrix") * per,
        "thresholds.rb_s": busy["thresholds.r_b_lambda_b"] * per,
        "thresholds.rb_pv_calls": under({"thresholds.r_b_lambda_b"}, "quad.pv_matrix") * per,
        "thresholds.local_s": busy["thresholds.alpha_beta_gamma"] * per,
        "thresholds.self_s": self_s["thresholds"] * per,
        "oracle.discretize_s": busy["oracle.discretize"] * per,
        "oracle.eig_s": busy["oracle.eig"] * per,
        "oracle.max_dim": max((d for d, _ in oracle_info), default=0),
        "oracle.dense_mb": max((b for _, b in oracle_info), default=0) / 1e6,
        "cli.self_s": self_s["cli"] * per,
        "cli.bytes_written": bytes_written * per,
        "trace.overhead_frac": overhead_frac,
    }


# name -> unit, in report order; BENCHMARK.json lists the same metrics
UNITS = {
    "model.ff_scalar_calls": "count/task",
    "model.ff_vector_points": "count/task",
    "quad.gram_calls": "count/task",
    "quad.gram_us": "us",
    "quad.pv_calls": "count/task",
    "quad.pv_us": "us",
    "quad.t_calls": "count/task",
    "quad.integrate_calls": "count/task",
    "quad.err_max": "abs",
    "quad.self_s": "s/task",
    "spectral.eigh_calls": "count/task",
    "spectral.kappa_points": "count/task",
    "spectral.self_s": "s/task",
    "solver.roots": "count/task",
    "solver.gram_per_root": "ratio",
    "solver.scan_pv_per_candidate": "ratio",
    "solver.self_s": "s/task",
    "thresholds.sup_s": "s/task",
    "thresholds.sup_pv_calls": "count/task",
    "thresholds.rb_s": "s/task",
    "thresholds.rb_pv_calls": "count/task",
    "thresholds.local_s": "s/task",
    "thresholds.self_s": "s/task",
    "oracle.discretize_s": "s/task",
    "oracle.eig_s": "s/task",
    "oracle.max_dim": "count",
    "oracle.dense_mb": "MB_computed",
    "cli.self_s": "s/task",
    "cli.bytes_written": "bytes/task",
    "trace.overhead_frac": "ratio",
}
