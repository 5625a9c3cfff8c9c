"""Span tracing from outside the package.

A ``Tracer`` replaces public functions of ``toricweights`` with timing
wrappers in every namespace that holds them: the package uses
``from .x import f``, so ``triangulation.feasible_strict`` is a separate
binding from ``lp.feasible_strict`` and both must be rebound.  Each call
records a span ``(name, start, end, parent)`` in memory; ``restore`` puts the
original bindings back.  ``aggregate`` turns spans into per-layer metrics
(calls, inclusive busy seconds, self seconds) plus the work counters that the
wrappers gather.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Optional


def _rows(counters, args, kwargs, result):
    counters["infeasible"] += result is None
    counters["rows"] += len(args[0].constraints)


def _feasible(counters, args, kwargs, result):
    counters["feasible"] += result is not None


def _distinct(counters, args, kwargs, result):
    counters.setdefault("_keys", set()).add(tuple(map(tuple, args[0])))
    counters["distinct"] = len(counters["_keys"])


def _points(counters, args, kwargs, result):
    counters["points"] += len(args[0])


def _results(counters, args, kwargs, result):
    counters["results"] += len(result)


def _regular(counters, args, kwargs, result):
    counters["regular"] += result.regular


def _simplicial(counters, args, kwargs, result):
    counters["simplicial"] += result.is_triangulation


def _build(counters, args, kwargs, result):
    counters["generators"] += len(result.generators)
    counters["vertices"] += len(result.vertices)


def _checks(counters, args, kwargs, result):
    counters["checks"] += result.checks


def _trials(counters, args, kwargs, result):
    counters["attempts"] += result.attempts
    counters["applicable"] += result.applicable


# (span name, defining module, attribute, counter hook).  The span name is
# "<module>.<function>"; the module is the package layer.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("lp.feasible_strict", "lp", "feasible_strict", _rows),
    ("lp.nonnegative_feasible", "lp", "nonnegative_feasible", _feasible),
    ("exact.affine_dependence", "exact", "affine_dependence", _distinct),
    ("exact.affine_combination", "exact", "affine_combination", None),
    ("exact.rank", "exact", "rank", None),
    ("polytope.extreme_point_indices", "polytope", "extreme_point_indices", _points),
    ("polytope.hull_facets", "polytope", "hull_facets", None),
    ("polytope.from_vertices", "polytope", "LatticePolytope.from_vertices", None),
    ("polytope.lattice_points", "polytope", "lattice_points", None),
    ("triangulation.enumerate_regular", "triangulation", "enumerate_regular", None),
    ("triangulation.flips", "triangulation", "flips", _results),
    ("triangulation.is_regular", "triangulation", "is_regular", _regular),
    ("triangulation.cone_system", "triangulation", "cone_system", None),
    ("triangulation.lower_hull_subdivision", "triangulation", "lower_hull_subdivision", _simplicial),
    ("vectors.gkz_vector", "vectors", "gkz_vector", None),
    ("vectors.boundary_vector", "vectors", "boundary_vector", None),
    ("vectors.hurwitz_vector", "vectors", "hurwitz_vector", None),
    ("functionals.pl_from_lifting", "functionals", "pl_from_lifting", None),
    ("functionals.integral_q", "functionals", "integral_q", None),
    ("functionals.integral_boundary", "functionals", "integral_boundary", None),
    ("functionals.donaldson_f", "functionals", "donaldson_f", None),
    ("functionals.char_pairing", "functionals", "char_pairing", None),
    ("weights.build", "weights", "build", _build),
    ("weights.verify_identities", "weights", "verify_identities", _checks),
    ("weights.run_support_trials", "weights", "run_support_trials", _trials),
    ("weights.support_min", "weights", "support_min", None),
    ("pipeline.analyze", "pipeline", "analyze", None),
    ("cli.main", "cli", "main", None),
]

# Work counters reported per span name, gathered by the hooks above.
COUNTERS = {
    "lp.feasible_strict": ("infeasible", "rows"),
    "lp.nonnegative_feasible": ("feasible",),
    "exact.affine_dependence": ("distinct",),
    "polytope.extreme_point_indices": ("points",),
    "triangulation.flips": ("results",),
    "triangulation.is_regular": ("regular",),
    "triangulation.lower_hull_subdivision": ("simplicial",),
    "weights.build": ("generators", "vertices"),
    "weights.verify_identities": ("checks",),
    "weights.run_support_trials": ("attempts", "applicable"),
}


def metric_names() -> list[str]:
    """Every per-layer metric name, in TARGETS order."""
    out = []
    for name, *_ in TARGETS:
        out += [f"{name}.calls", f"{name}.s", f"{name}.self_s"]
        out += [f"{name}.{c}" for c in COUNTERS.get(name, ())]
    return out


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, dict] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        counters = self.counters.setdefault(name, Counter())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded module of the package that
        holds it (by identity), and on the class for class methods."""
        homes = {module: importlib.import_module(f"toricweights.{module}") for _, module, _, _ in TARGETS}
        modules = [m for k, m in list(sys.modules.items()) if k == "toricweights" or k.startswith("toricweights.")]
        for name, module, attr, hook in TARGETS:
            home = homes[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self.wrap(name, original.__func__, hook))
                self._saved.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)


def aggregate(spans, counters=None) -> dict[str, float]:
    """Per-name metrics from one process's spans.

    ``calls`` counts spans.  ``s`` is inclusive busy time: the summed duration
    of spans with no ancestor of the same name, so recursion is not counted
    twice.  ``self_s`` is each span's duration minus the durations of its
    direct children (which, in one thread, are disjoint sub-intervals),
    summed over all spans of the name.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child[i]
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
    for name, counts in (counters or {}).items():
        for key, value in counts.items():
            if not key.startswith("_"):
                out[f"{name}.{key}"] = value
    return out
