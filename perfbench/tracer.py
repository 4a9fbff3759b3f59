"""Spans recorded from outside mbridge by wrapping module-level names.

Each target is a name through which one mbridge module calls another (or
through which the CLI reaches a library function). ``Tracer.install``
replaces the name with a wrapper that records a span (name, start, end,
parent span, operation id, attributes) and restores the original on
``uninstall``. No file of the package changes. A target that no longer
exists is recorded as absent instead of failing the run.

The program is single-threaded and every wrapper returns before its caller
does, so spans nest strictly: the children of a span are disjoint in time
and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _lp_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"n": a["mu"].n, "m": a["nu"].n, "d": a["mu"].dim}


def _ri_attrs(fn, args, kwargs, result):
    return {"m": _bound(fn, args, kwargs)["nu"].n}


def _solve_attrs(fn, args, kwargs, result):
    if result is None:
        return None
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _simulate_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    grid_points = 1001 if a["grid"] is None else len(a["grid"])
    return {"path_steps": int(a["n_paths"]) * (grid_points - 1),
            "kind": a["fiber"].kind}


def _wonham_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"path_steps": int(a["n_paths"]) * int(a["n_steps"])}


# (module, attribute path, span name, attribute recorder)
TARGETS = (
    ("mbridge.cli", "main", "cli.main", None),
    ("mbridge.cli", "load_measure", "measures.load_measure", None),
    ("mbridge.cli", "measure_to_json", "measures.to_json", None),
    ("mbridge.cli", "barycenter_and_moments", "measures.moments", None),
    ("mbridge.cli", "gaussian_reference_identity_check",
     "measures.identity_check", None),
    ("mbridge.cli", "mcov_discrete", "measures.mcov_discrete", None),
    ("mbridge.cli", "sinkhorn_msb", "solver.sinkhorn", _solve_attrs),
    ("mbridge.cli", "extract_base_measure", "solver.extract_base", None),
    ("mbridge.cli", "classical_sinkhorn_sp", "solver.classical_sp", None),
    ("mbridge.cli", "schroedinger_system_residuals",
     "solver.schroedinger_residuals", None),
    ("mbridge.solver", "check_convex_order", "measures.check_convex_order",
     _lp_attrs),
    ("mbridge.solver", "_in_relative_interior", "solver.relative_interior",
     _ri_attrs),
    ("mbridge.solver", "_fiber_newton", "solver.fiber_newton", None),
    ("mbridge.cli", "randomize_over_mu", "dynamics.randomize_over_mu", None),
    ("mbridge.cli", "simulate_follmer_martingale", "dynamics.simulate",
     _simulate_attrs),
    ("mbridge.dynamics", "simulate_follmer_martingale", "dynamics.simulate",
     _simulate_attrs),
    ("mbridge.cli", "phi_bijection_check", "dynamics.bijection_check", None),
    ("mbridge.dynamics", "PathEnsemble.to_csv", "dynamics.to_csv", None),
    ("mbridge.cli", "sigma_invariance_test", "filtering.sigma_invariance",
     None),
    ("mbridge.cli", "wonham_sde_crosscheck", "filtering.wonham",
     _wonham_attrs),
    ("mbridge.filtering", "_posterior_weights", "dynamics.posterior_weights",
     None),
    ("mbridge.filtering", "ks_distance", "stats.ks_distance", None),
    ("mbridge.cli", "entropy_minimize", "threepoint.entropy_minimize", None),
    ("mbridge.cli", "bass_minimize", "threepoint.bass_minimize", None),
    ("mbridge.threepoint", "norm_ppf", "stats.norm", None),
    ("mbridge.threepoint", "norm_pdf", "stats.norm", None),
    ("mbridge.cli", "gaussian_msb_closed_form", "gaussian.closed_form", None),
    ("mbridge.cli", "weighted_energy_quadrature", "gaussian.quadrature", None),
    ("mbridge.cli", "gaussian_energy_closed_form", "gaussian.energy", None),
    ("mbridge.cli", "bass_comparison_gaussian", "gaussian.bass_comparison",
     None),
    ("mbridge.cli", "follmer_volatility_gaussian", "gaussian.volatility",
     None),
)

# span fields, stored as lists for cheap appends
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.op = None
        self._stack = []
        self._patched = []

    def install(self, targets=TARGETS):
        for module_name, path, span_name, attrs in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(fn, span_name, attrs))
            self._patched.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                if attrs is not None:
                    try:
                        rec[ATTRS] = attrs(fn, args, kwargs, result)
                    except (KeyError, AttributeError, TypeError):
                        pass  # a changed signature loses the counts only
        return wrapper


def self_times(spans, lo=0, hi=None):
    """Self time of each span in spans[lo:hi]: duration minus its children."""
    hi = len(spans) if hi is None else hi
    own = [s[END] - s[START] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            own[s[PARENT] - lo] -= s[END] - s[START]
    return own


def by_name(spans, selfs, lo=0):
    """Per span name: total self time, total duration and call count."""
    out = defaultdict(lambda: {"self": 0.0, "dur": 0.0, "calls": 0})
    for k, own in enumerate(selfs):
        s = spans[lo + k]
        entry = out[s[NAME]]
        entry["self"] += own
        entry["dur"] += s[END] - s[START]
        entry["calls"] += 1
    return out


def write_jsonl(path, header, spans, records, origin):
    """Header, then one line per span (times relative to ``origin``), then
    the per-operation and summary records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, s in enumerate(spans):
            fh.write(json.dumps({"kind": "span", "id": k, "name": s[NAME],
                                 "start": s[START] - origin,
                                 "end": s[END] - origin,
                                 "parent": s[PARENT], "op": s[OP],
                                 "attrs": s[ATTRS]}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
