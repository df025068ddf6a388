"""Span tracing at vopt's module boundaries, installed from outside.

`Tracer.install()` rebinds each public function named in SPANS, in every
loaded `vopt.*` module that holds a reference to it, to a wrapper that
records one span per call: name, start, end and parent, kept in memory in
flat arrays.  `restore()` puts every original binding back.  vopt's own
code is not changed, so the spans sit exactly where one module calls into
another (or into itself through a public name).

A recursive evaluator's calls to itself are not spans: a self-recursive
function keeps its original binding in its own module, and a call that
reaches a wrapper from inside the same span goes straight through.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# <module>.<function> for every span the benchmark reports, per layer.
SPANS = (
    "cli.main",
    "expr.evaluate",
    "expr.grad",
    "expr.hessian",
    "expr.second_dir_deriv",
    "expr.eval_grid",
    "problem.load_problem",
    "problem.active_set",
    "problem.analyze_direction",
    "problem.sample_critical_directions",
    "ktcheck.first_order_kt",
    "ktcheck.second_order_multipliers",
    "ktcheck.classify_point",
    "linprog.solve_lp",
    "linprog.decide_alternative",
    "linprog.verify_certificate",
    "gridsearch.get_grid",
    "gridsearch.find_kt_points",
    "gridsearch.nnls",  # scipy's, as bound in gridsearch: the per-cell KT score
    "gridsearch.descend",
    "scalarize.check_saddle",
    "scalarize.solve_weighting",
    "scalarize.solve_unconstrained",
    "scalarize.relation_chain",
    "invexity.check_class",
    "invexity.inclusion_audit",
)


class Tracer:
    """Records spans while installed.  One instance per traced pass."""

    def __init__(self, spans=SPANS):
        self.names = tuple(spans)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # ratio counters, observed on return values at the same boundaries
        self.critical_returned = 0
        self.grid_distinct = 0
        self._grids: weakref.WeakSet = weakref.WeakSet()

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        homes = [importlib.import_module(f"vopt.{span.split('.')[0]}") for span in self.names]
        loaded = [m for k, m in sys.modules.items() if k == "vopt" or k.startswith("vopt.")]
        for nid, (span, home) in enumerate(zip(self.names, homes)):
            attr = span.split(".")[1]
            original = getattr(home, attr)
            native = getattr(original, "__module__", "").startswith("vopt")
            wrapper = self._wrap(nid, original)
            # foreign functions (scipy's nnls) only where the span name says
            for mod in loaded if native else [home]:
                if native and mod is home and attr in original.__code__.co_names:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, nid: int, fn):
        stack, name = self._stack, self.name
        start, end, parent = self.start, self.end, self.parent
        span = self.names[nid]
        observe = {
            "problem.sample_critical_directions": self._count_critical,
            "gridsearch.get_grid": self._count_grid,
        }.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return traced

    def _count_critical(self, out) -> None:
        self.critical_returned += len(out)

    def _count_grid(self, out) -> None:
        if out not in self._grids:
            self._grids.add(out)
            self.grid_distinct += 1

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Every recorded span as columns: name id, start, end, parent."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Per span: calls and self time (duration minus direct children's
        durations); plus the two ratios."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(cols["name"], minlength=len(self.names))
        self_s = np.bincount(cols["name"], weights=own, minlength=len(self.names))
        out: dict[str, float] = {}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[nid])
            out[f"{span}.self_s"] = float(self_s[nid])
        out["problem.critical_returned"] = self.critical_returned
        out["gridsearch.get_grid.distinct"] = self.grid_distinct
        return out
