"""Spans around the calls between rainbowsat's modules, installed from outside.

The package is not edited.  ``install`` replaces each traced function, in
every module namespace where callers look it up at call time, by a wrapper
that records a span: name, parent span, start and end.  Spans are kept in
memory, one array per field, and written as one JSON file when the
repetition ends.  A span's self
time is its duration minus the time its child spans cover; spans nest
strictly because the workloads run on one thread.

Layers and where their callers look them up:

* ``graphs.canonical_form``: imported into ``saturation``, ``constructions``
  and ``verify``; ``graphs`` itself calls it from ``canonical_graph`` and
  ``are_isomorphic``.
* ``saturation.enumerate_levels``: a generator, so every ``next()`` is one
  span; the call that creates it does no work.
* ``saturation.is_rainbow_saturated`` (also bound in ``verify``) and
  ``RainbowSolver._solve`` (a class attribute).
* ``engine.rainbow_free_colorable`` as bound in ``saturation``: one call per
  search the solver could not answer from its cache.
* ``engine._collect_embeddings`` and ``engine._search_component``: module
  globals that ``rainbow_free_colorable`` reads at call time.
* ``engine.exists_embedding``, bound in ``saturation`` and ``verify``.
* the ``constructions`` builders, bound in ``constructions`` and ``verify``.
* ``oracle.naive_rainbow_free_colorable_multi`` as bound in ``verify``.
* each ``verify.CLAIMS`` entry, read by ``run_report`` at call time.
"""
from __future__ import annotations

import json
import time
from array import array
from collections import Counter

CLAIM_NAMES = (
    "c4-degree1", "c4-wheel", "classical-formulas", "ehm", "k4-gap", "ladder",
    "p3-equality", "p4-construction",
)
CONSTRUCTION_BUILDERS = (
    "build_family_ladder", "ehm_graph", "gadget", "ladder_construction",
    "p4_construction", "wheel_construction",
)


# the end-to-end metric each layer metric should move, and on which workload
MOVES = {
    "graphs.canonical_form": "wall_s and peak_rss_mb on satstar-n7; "
                             "no change on certify-families",
    "saturation.enumerate_levels": "wall_s on satstar-n7 and verify-paper",
    "saturation.is_rainbow_saturated": "wall_s on satstar-n7 and certify-families",
    "saturation.nonedges": "wall_s on satstar-n7 and certify-families",
    "saturation.solver": "wall_s on satstar-n7 (hits high) against "
                         "certify-families (hits low)",
    "engine.collect_embeddings": "wall_s on certify-families, then verify-paper",
    "engine.copies_kept": "wall_s on certify-families, then verify-paper",
    "engine.search": "wall_s on certify-families",
    "engine.exists_embedding": "wall_s on verify-paper",
    "constructions": "wall_s on certify-families",
    "oracle.naive": "wall_s on verify-paper (a reference floor, not a target)",
    "verify.claim": "wall_s on verify-paper",
    "trace": "none: the traced run itself, its cost and its completeness",
}


def moves(metric: str) -> str:
    """The prediction for a per-layer metric, by its longest listed prefix."""
    prefixes = [p for p in MOVES if metric.startswith(p)]
    return MOVES[max(prefixes, key=len)] if prefixes else ""


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one column per field, so that recording a span allocates no object
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []     # open spans: [span id, start ns, ns covered by children]
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.calls_under = Counter()   # (parent name, name) -> calls
        self.counts = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> list:
        stack = self._stack
        sid = len(self.name)
        self.parent.append(stack[-1][0] if stack else -1)
        self.name.append(nid)
        self.start.append(0)
        self.end.append(0)
        frame = [sid, 0, 0]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        sid, start, covered = frame
        self.start[sid] = start
        self.end[sid] = end
        nid = self.name[sid]
        duration = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - covered
        if stack:
            stack[-1][2] += duration
            self.calls_under[self.name[stack[-1][0]], nid] += 1

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; ``after(result)`` updates counters from the result."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            frame = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, after=None):
        """Generator function whose every ``next()`` is one span."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = self.open(nid)
                try:
                    item = next(gen, None)
                finally:
                    self.close(frame)
                if item is None:
                    return
                if after is not None:
                    after(item)
                yield item
        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "parent": self.parent.tolist(), "name": self.name.tolist(),
                       "start_ns": self.start.tolist(), "end_ns": self.end.tolist()},
                      fh, separators=(",", ":"))

    def totals(self) -> tuple:
        """Calls, total ns, self ns and calls under each parent, keyed by name."""
        names = self.names
        calls = Counter({names[k]: v for k, v in self.calls.items()})
        total = Counter({names[k]: v for k, v in self.total_ns.items()})
        own = Counter({names[k]: v for k, v in self.self_ns.items()})
        under = Counter({(names[p], names[c]): v for (p, c), v in self.calls_under.items()})
        return calls, total, own, under


def install(tracer: Tracer):
    """Rebind every traced name; returns the untouched ``canonical_form``."""
    from rainbowsat import constructions, engine, graphs, saturation, verify

    counts = tracer.counts
    canonical_form = graphs.canonical_form
    traced = tracer.wrap("graphs.canonical_form", canonical_form)
    for module in (graphs, saturation, constructions, verify):
        module.canonical_form = traced

    def levels(item):
        counts["saturation.enumerate_levels.classes"] += len(item[1])
    saturation.enumerate_levels = tracer.wrap_generator(
        "saturation.enumerate_levels", saturation.enumerate_levels, levels)

    def verdict(v):
        counts["saturation.nonedges_checked"] += v.nonedges_checked
        counts["saturation.nonedges_refuted"] += v.nonedges_refuted
    traced = tracer.wrap("saturation.is_rainbow_saturated",
                         saturation.is_rainbow_saturated, verdict)
    saturation.is_rainbow_saturated = verify.is_rainbow_saturated = traced

    solver = saturation.RainbowSolver
    solver._solve = tracer.wrap("saturation.solver.solve", solver._solve)
    saturation.rainbow_free_colorable = tracer.wrap(
        "engine.rainbow_free_colorable", saturation.rainbow_free_colorable)

    def kept(copies):
        counts["engine.copies_kept"] += len(copies)
    engine._collect_embeddings = tracer.wrap(
        "engine.collect_embeddings", engine._collect_embeddings, kept)

    def searched(result):
        status, _, stats = result
        counts["engine.search.nodes"] += stats.nodes
        counts["engine.search.indeterminate"] += status is engine.Status.INDETERMINATE
    engine._search_component = tracer.wrap(
        "engine.search", engine._search_component, searched)

    traced = tracer.wrap("engine.exists_embedding", engine.exists_embedding)
    saturation.exists_embedding = verify.exists_embedding = traced

    for attr in CONSTRUCTION_BUILDERS:
        traced = tracer.wrap(f"constructions.{attr}", getattr(constructions, attr))
        setattr(constructions, attr, traced)
        if hasattr(verify, attr):
            setattr(verify, attr, traced)

    verify.naive_rainbow_free_colorable_multi = tracer.wrap(
        "oracle.naive", verify.naive_rainbow_free_colorable_multi)
    for name, claim in list(verify.CLAIMS.items()):
        verify.CLAIMS[name] = tracer.wrap(f"verify.claim.{name}", claim)
    return canonical_form


def layer_metrics(tracer: Tracer, canonical_form) -> dict:
    """Per-layer numbers of one traced repetition, named as in BENCHMARK.json."""
    sec = 1e-9
    calls, total_ns, self_ns, under = tracer.totals()
    counts = tracer.counts
    info = canonical_form.cache_info()
    search_s = self_ns["engine.search"] * sec
    solves = calls["saturation.solver.solve"]
    searches = calls["engine.rainbow_free_colorable"]
    out = {
        "graphs.canonical_form.calls": info.hits + info.misses,
        "graphs.canonical_form.misses": info.misses,
        "graphs.canonical_form.self_s": self_ns["graphs.canonical_form"] * sec,
        "saturation.enumerate_levels.self_s": self_ns["saturation.enumerate_levels"] * sec,
        "saturation.enumerate_levels.children":
            under["saturation.enumerate_levels", "graphs.canonical_form"],
        "saturation.enumerate_levels.classes": counts["saturation.enumerate_levels.classes"],
        "saturation.is_rainbow_saturated.calls": calls["saturation.is_rainbow_saturated"],
        "saturation.is_rainbow_saturated.self_s":
            self_ns["saturation.is_rainbow_saturated"] * sec,
        "saturation.nonedges_checked": counts["saturation.nonedges_checked"],
        "saturation.nonedges_refuted": counts["saturation.nonedges_refuted"],
        "saturation.solver.solve_calls": solves,
        "saturation.solver.searches": searches,
        "saturation.solver.hit_ratio": (solves - searches) / solves if solves else 0.0,
        "engine.collect_embeddings.self_s": self_ns["engine.collect_embeddings"] * sec,
        "engine.copies_kept": counts["engine.copies_kept"],
        "engine.search.self_s": search_s,
        "engine.search.nodes": counts["engine.search.nodes"],
        "engine.search.nodes_per_s": counts["engine.search.nodes"] / search_s if search_s else 0.0,
        "engine.search.indeterminate": counts["engine.search.indeterminate"],
        "engine.exists_embedding.calls": calls["engine.exists_embedding"],
        "engine.exists_embedding.self_s": self_ns["engine.exists_embedding"] * sec,
        "constructions.self_s":
            sum(self_ns[f"constructions.{attr}"] for attr in CONSTRUCTION_BUILDERS) * sec,
        "oracle.naive.self_s": self_ns["oracle.naive"] * sec,
    }
    for name in CLAIM_NAMES:
        out[f"verify.claim.{name}.total_s"] = total_ns[f"verify.claim.{name}"] * sec
    # canonical_form calls that bypassed every traced binding: nonzero means
    # a new call site needs rebinding before the layer numbers are complete
    out["trace.untraced_calls"] = info.hits + info.misses - calls["graphs.canonical_form"]
    return out
