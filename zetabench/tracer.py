"""Span tracer installed from outside the program.

The tracer replaces the module and class attributes that callers actually
look up (``spf.classify_points``, ``sqh.spf_zeta``, ``MultiPoly.substitute_affine``
and so on) with timing wrappers, so the program's source is never edited.
Each call records a span: layer name, start, end, parent span and op id.
Spans are kept in flat arrays in memory and summarized (or written out)
only when the run ends.

A wrapped name that a later version of the program no longer has is skipped
and every metric derived from it is reported as absent.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Sequence

_MISSING = object()

# Layers whose self time and call count are per-layer metrics.
TIMED_LAYERS = (
    "neron.dilate",
    "poly.substitute_affine",
    "neron.classify_points",
    "spf.spf_zeta",
    "analysis.congruence_count",
    "analysis.oracle_counts",
    "spf.series_check",
    "ratfun",
    "sqh.detect_weights",
    "sqh.scale_step",
    "sqh.zeta_on_complement",
    "sqh.zeta_semiquasihomogeneous",
    "region.cell_change_of_variables",
)

RATFUN_METHODS = (
    "__add__", "__sub__", "__neg__", "__eq__", "scale", "geometric_close", "times_factor",
    "divide_numerator_exactly", "series_expand", "pole_real_parts", "evaluate",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counter hooks: (metrics they produce, function(counters, args, kwargs, result)).

def _count_classify(c, args, kwargs, result):
    c["neron.classify_points.points"] += _arg(args, kwargs, 1, "region").card()
    c["neron.classify_points.singular"] += len(result.singular)


def _count_substitute(c, args, kwargs, result):
    c["poly.substitute_affine.terms_out"] += len(result.terms)


def _count_congruence(c, args, kwargs, result):
    f, j = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "j")
    if j > 0:
        c["analysis.congruence_count.points"] += f.ring.p ** (f.n * j)


def _count_cells(c, args, kwargs, result):
    c["region.complement_cells.cells"] += len(result)


def _count_tree(c, args, kwargs, result):
    """Read the engine's own tree_stats from the report (result[1])."""
    stats = result[1].tree_stats
    c["spf.nodes"] += stats["nodes"]
    c["spf.max_depth"] = max(c["spf.max_depth"], stats["max_depth"])


def _count_cache(c, args, kwargs, result):
    c["spf.cache_hits"] += result[1].tree_stats["cache_hits"]


COUNTERS = {
    "classify": (("neron.classify_points.points", "neron.classify_points.singular"), _count_classify),
    "substitute": (("poly.substitute_affine.terms_out",), _count_substitute),
    "congruence": (("analysis.congruence_count.points",), _count_congruence),
    "cells": (("region.complement_cells.cells",), _count_cells),
    "tree": (("spf.nodes", "spf.max_depth"), _count_tree),
    "cache": (("spf.cache_hits",), _count_cache),
}


class Tracer:
    """Wrap layer entry points, record spans, and summarize them per op list pass."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self.counters: Dict[str, int] = defaultdict(int)
        self.absent: set = set()       # metrics whose wrapped name or hook no longer works
        self.missing: List[str] = []   # wrapped names the program no longer has
        self._stack = [-1]
        self._first_span = 0
        self._restore: list = []

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every layer entry point; uninstall() puts the originals back."""
        from igusa_zeta import analysis, cli, poly, ratfun, spf, sqh

        self.missing = []
        self.wrap(cli, "main", "cli.main")
        self.wrap(spf, "classify_points", "neron.classify_points", ("classify",))
        self.wrap(spf, "dilate", "neron.dilate")
        self.wrap(spf, "spf_zeta", "spf.spf_zeta")
        self.wrap(spf, "series_check", "spf.series_check")
        self.wrap(sqh, "spf_zeta", "spf.spf_zeta")
        self.wrap(sqh, "detect_weights", "sqh.detect_weights")
        self.wrap(sqh, "scale_step", "sqh.scale_step")
        self.wrap(sqh, "zeta_on_complement", "sqh.zeta_on_complement")
        self.wrap(sqh, "zeta_semiquasihomogeneous", "sqh.zeta_semiquasihomogeneous",
                  ("tree", "cache"))
        self.wrap(sqh, "complement_cells", None, ("cells",))
        self.wrap(sqh, "cell_change_of_variables", "region.cell_change_of_variables")
        self.wrap(analysis, "congruence_count", "analysis.congruence_count", ("congruence",))
        self.wrap(analysis, "oracle_counts", "analysis.oracle_counts")
        self.wrap(poly.MultiPoly, "substitute_affine", "poly.substitute_affine", ("substitute",))
        for method in RATFUN_METHODS:
            self.wrap(ratfun.RatFun, method, "ratfun")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, span: Optional[str], hooks: Sequence[str] = ()):
        """Replace owner.attr by a wrapper recording a span (None: counters only)."""
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{owner.__name__}.{attr}")
            for hook in hooks:
                self.absent.update(COUNTERS[hook][0])
            return
        name_id = None if span is None else self._name_id(span)
        counters = [COUNTERS[hook] for hook in hooks]
        tracer = self

        def count(args, kwargs, result):
            for produces, fn in counters:
                try:
                    fn(tracer.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.absent.update(produces)  # the program changed shape

        def wrapper(*args, **kwargs):
            if name_id is None:
                result = original(*args, **kwargs)
                count(args, kwargs, result)
                return result
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counters:
                count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    # -- recording -------------------------------------------------------------

    def begin_pass(self):
        self.counters = defaultdict(int)
        self._first_span = len(self.start)

    def end_pass(self) -> Dict[str, float]:
        """Per-layer metrics of the pass that just ended.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run has one thread.
        """
        lo, hi = self._first_span, len(self.start)
        child = defaultdict(float)
        for i in range(lo, hi):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        out: Dict[str, float] = {}
        for layer in TIMED_LAYERS:
            if layer in self._name_ids:
                out[f"{layer}.calls"] = calls[layer]
                out[f"{layer}.self_s"] = self_s[layer]
        if "cli.main" in self._name_ids:
            out["cli.main.self_s"] = self_s["cli.main"]
        for produces, _ in COUNTERS.values():
            for metric in produces:
                if metric not in self.absent:
                    out[metric] = self.counters[metric]
        if "neron.classify_points.points" in out:
            points = out["neron.classify_points.points"]
            out["neron.classify_points.singular_ratio"] = (
                out["neron.classify_points.singular"] / points if points else 0.0)
        if "spf.nodes" in out and "spf.cache_hits" in out:
            total = out["spf.nodes"] + out["spf.cache_hits"]
            out["spf.cache_hit_ratio"] = out["spf.cache_hits"] / total if total else 0.0
        if "analysis.congruence_count.points" in out and "analysis.congruence_count.self_s" in out:
            busy = out["analysis.congruence_count.self_s"]
            out["analysis.congruence_count.points_per_s"] = (
                out["analysis.congruence_count.points"] / busy if busy else 0.0)
        return out

    # -- export ----------------------------------------------------------------

    def write(self, path: str):
        """All spans recorded in this run, as gzipped JSON columns."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "missing": self.missing,
            "absent_metrics": sorted(self.absent),
        }
        with gzip.open(path, "wt") as handle:
            json.dump(doc, handle)
