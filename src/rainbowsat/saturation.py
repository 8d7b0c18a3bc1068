"""Saturation semantics and exact saturation numbers at desk scale.

A graph is rainbow family-saturated when (a) it admits a proper edge coloring
with no rainbow copy of any family member and (b) adding any non-edge makes
every proper coloring contain one.  The exact numbers minimize edge count
over an ascending, isomorphism-free enumeration of all candidate graphs, so
the first edge level with a saturated graph is the answer.

Two structural facts carry the heavy lifting:

* downward closure: a rainbow-free colorable graph stays colorable after
  deleting edges (restrict the witness), so greedy saturation needs a single
  pass and UNCOLORABLE verdicts propagate to supergraphs on the same
  vertex set;
* for connected patterns a rainbow copy lives inside one component, so
  condition (b) only needs to re-search the component that absorbed the new
  edge.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb

from .engine import (
    ColorabilityResult,
    EdgeColoring,
    SearchStats,
    Status,
    as_pattern,
    exists_embedding,
    first_fit_classes,
    merge_colorings,
    rainbow_free_colorable,
    solve_components,
)
from .graphs import (
    Graph,
    canonical_form,
    empty_graph,
    graph6_encode,
    induced_subgraph,
)


class SearchAborted(RuntimeError):
    """An exact computation hit a search budget; no partial answer is reported."""


class Verdict(Enum):
    SATURATED = "SATURATED"
    NOT_SATURATED = "NOT_SATURATED"
    INDETERMINATE = "INDETERMINATE"


@dataclass
class SaturationVerdict:
    status: Verdict
    witness_coloring: EdgeColoring | None = None
    failing_edge: tuple | None = None
    failing_coloring: EdgeColoring | None = None
    reason: str = ""
    nonedges_checked: int = 0
    nonedges_refuted: int = 0


@dataclass
class SatNumberResult:
    n: int
    family: tuple
    value: int | None
    witnesses: tuple
    graphs_checked: int
    levels_searched: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "family": list(self.family),
            "value": self.value,
            "witnesses": list(self.witnesses),
            "stats": {
                "graphs_checked": self.graphs_checked,
                "levels_searched": self.levels_searched,
            },
        }


# -- cached colorability -----------------------------------------------------


class RainbowSolver:
    """Colorability decisions for one pattern family, memoized across calls.

    Results are cached by canonical form for hosts up to ``canon_limit``
    vertices (so isomorphic hosts share one search) and by labeled adjacency
    above that.  With ``deletion_propagation`` an UNCOLORABLE verdict for any
    single-edge-deleted subgraph settles the host without searching, which
    turns exhaustive audits over all graphs of a given order into a cheap
    frontier computation.
    """

    def __init__(
        self,
        family,
        *,
        node_limit: int | None = None,
        time_limit: float | None = None,
        canon_limit: int = 12,
        deletion_propagation: bool = False,
    ):
        self.patterns = tuple(as_pattern(p) for p in family)
        if not self.patterns:
            raise ValueError("empty pattern family")
        self.connected = all(p.core_connected for p in self.patterns)
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.canon_limit = canon_limit
        self.deletion_propagation = deletion_propagation
        self._cache: dict = {}

    # cache keys: ("c", encoding) for canonical, ("l", n, adj) for labeled
    def _key(self, g: Graph):
        if g.n <= self.canon_limit:
            return ("c", canonical_form(g).encoding)
        return ("l", g.n, g.adj)

    def colorability(self, g: Graph) -> ColorabilityResult:
        """Rainbow-free colorability of g, decomposing into components when sound."""
        active = [p for p in self.patterns if p.order <= g.n]
        return solve_components(g, active, lambda sub: self._solve(sub, host_order=g.n))

    def _solve(self, g: Graph, host_order: int | None = None) -> ColorabilityResult:
        # host_order carries the original order so patterns with isolated
        # vertices see the whole host, not just this component
        if host_order is None:
            host_order = g.n
        active = [p for p in self.patterns if p.order <= host_order]
        if not active:
            # no pattern fits the host, so any proper coloring witnesses
            witness = EdgeColoring(tuple(first_fit_classes(g, {})))
            return ColorabilityResult(Status.COLORABLE, witness, SearchStats(searches=0))

        key = self._key(g) + (host_order if any(p.order > p.core.n for p in active) else 0,)
        hit = self._cache.get(key)
        if hit is not None:
            status, classes = hit
            witness = None
            if classes is not None:
                witness = self._restore_witness(g, classes)
            return ColorabilityResult(status, witness, SearchStats(searches=0))

        if (
            self.deletion_propagation
            and g.n <= self.canon_limit
            and g.edges
        ):
            for u, v in g.edges:
                sub = g.without_edge(u, v)
                subkey = self._key(sub) + (key[-1],)
                prev = self._cache.get(subkey)
                if prev is not None and prev[0] is Status.UNCOLORABLE:
                    self._cache[key] = (Status.UNCOLORABLE, None)
                    return ColorabilityResult(Status.UNCOLORABLE, None, SearchStats(searches=0))

        res = rainbow_free_colorable(
            g,
            active,
            node_limit=self.node_limit,
            time_limit=self.time_limit,
            host_order=host_order,
        )
        if res.status is not Status.INDETERMINATE:
            classes = None
            if res.witness is not None:
                classes = self._store_witness(g, res.witness)
            self._cache[key] = (res.status, classes)
        return res

    def _store_witness(self, g: Graph, witness: EdgeColoring):
        if g.n > self.canon_limit:
            return witness.classes
        relab = canonical_form(g).relabeling
        canon = g.relabel(relab)
        classes = [0] * len(g.edges)
        for (u, v), c in zip(g.edges, witness.classes):
            a, b = relab[u], relab[v]
            classes[canon.edge_index[(a, b) if a < b else (b, a)]] = c
        return tuple(classes)

    def _restore_witness(self, g: Graph, classes) -> EdgeColoring:
        if g.n > self.canon_limit:
            return EdgeColoring(tuple(classes))
        relab = canonical_form(g).relabeling
        canon = g.relabel(relab)
        out = []
        for u, v in g.edges:
            a, b = relab[u], relab[v]
            out.append(classes[canon.edge_index[(a, b) if a < b else (b, a)]])
        return EdgeColoring(tuple(out)).normalized()


# -- saturation checks --------------------------------------------------------


def is_rainbow_saturated(g: Graph, family=None, *, solver: RainbowSolver | None = None,
                         node_limit=None, time_limit=None) -> SaturationVerdict:
    """Check conditions (a) and (b) of rainbow family saturation.

    For connected patterns, (b) re-searches only the component of g+e that
    contains the added edge; the rest of the graph keeps the coloring that
    witnessed (a).
    """
    if solver is None:
        solver = RainbowSolver(family, node_limit=node_limit, time_limit=time_limit)
    base = solver.colorability(g)
    if base.status is Status.INDETERMINATE:
        return SaturationVerdict(Verdict.INDETERMINATE, reason="budget exhausted on host")
    if base.status is Status.UNCOLORABLE:
        return SaturationVerdict(
            Verdict.NOT_SATURATED, reason="no rainbow-free proper coloring"
        )

    checked = refuted = 0
    for u, v in g.non_edges():
        g2 = g.with_edge(u, v)
        checked += 1
        if solver.connected:
            sub, vmap = induced_subgraph(g2, g2.component(u))
            res = solver._solve(sub, host_order=g2.n)
        else:
            sub, vmap = g2, tuple(range(g2.n))
            res = solver.colorability(g2)
        if res.status is Status.INDETERMINATE:
            return SaturationVerdict(
                Verdict.INDETERMINATE,
                failing_edge=(u, v),
                reason="budget exhausted on non-edge check",
                nonedges_checked=checked,
                nonedges_refuted=refuted,
            )
        if res.status is Status.COLORABLE:
            # fresh classes inside the re-searched part, the (a)-witness elsewhere
            coloring = merge_colorings(
                g2, [(sub, vmap, res.witness.classes)], dict(zip(g.edges, base.witness.classes))
            )
            return SaturationVerdict(
                Verdict.NOT_SATURATED,
                witness_coloring=base.witness,
                failing_edge=(u, v),
                failing_coloring=coloring,
                reason="addable edge keeps rainbow-free colorability",
                nonedges_checked=checked,
                nonedges_refuted=refuted,
            )
        refuted += 1
    return SaturationVerdict(
        Verdict.SATURATED,
        witness_coloring=base.witness,
        reason="every non-edge refuted",
        nonedges_checked=checked,
        nonedges_refuted=refuted,
    )


def is_classically_saturated(g: Graph, h) -> bool:
    """Pattern-free, and every non-edge addition creates a copy."""
    pat = as_pattern(h)
    if exists_embedding(g, pat):
        return False
    for u, v in g.non_edges():
        if not exists_embedding(g.with_edge(u, v), pat):
            return False
    return True


# -- isomorphism-free enumeration ----------------------------------------------


ENUMERATION_LIMIT = 10


def enumerate_levels(n: int, max_edges: int | None = None):
    """Yield (edge count, canonical representatives) in ascending edge order.

    Level m+1 is generated from level m by single-edge extension and
    deduplicated by canonical form, so every isomorphism class appears
    exactly once, at its own edge count.
    """
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration supports 0..{ENUMERATION_LIMIT} vertices")
    cap = comb(n, 2) if max_edges is None else min(max_edges, comb(n, 2))
    if cap < 0:
        raise ValueError("negative edge budget")
    level = {canonical_form(empty_graph(n)).encoding: empty_graph(n)}
    yield 0, [empty_graph(n)]
    m = 0
    while m < cap:
        nxt = {}
        for key in sorted(level):
            g = level[key]
            for u, v in g.non_edges():
                h = g.with_edge(u, v)
                cf = canonical_form(h)
                if cf.encoding not in nxt:
                    nxt[cf.encoding] = h.relabel(cf.relabeling)
        if not nxt:
            break
        m += 1
        yield m, [nxt[k] for k in sorted(nxt)]
        level = nxt


def enumerate_nonisomorphic_graphs(n: int, edge_budget: int | None = None):
    """One canonical representative per isomorphism class, ascending edge count."""
    for _, graphs in enumerate_levels(n, edge_budget):
        yield from graphs


# -- exact saturation numbers ---------------------------------------------------


def sat_exact(n: int, h, *, edge_budget=None) -> SatNumberResult:
    """Classical saturation number by ascending exhaustive enumeration."""
    pat = as_pattern(h)
    checked = 0
    levels = 0
    for m, graphs in enumerate_levels(n, edge_budget):
        levels = m
        hits = []
        for g in graphs:
            checked += 1
            if is_classically_saturated(g, pat):
                hits.append(g)
        if hits:
            return SatNumberResult(
                n,
                (graph6_encode(pat.graph),),
                m,
                tuple(graph6_encode(g) for g in hits),
                checked,
                levels,
            )
    return SatNumberResult(n, (graph6_encode(pat.graph),), None, (), checked, levels)


def _exhaustive_solver(family, node_limit, time_limit) -> RainbowSolver:
    return RainbowSolver(
        family, node_limit=node_limit, time_limit=time_limit, deletion_propagation=True
    )


def _saturated_levels(n: int, solver: RainbowSolver, max_edges=None):
    """Yield (edge count, classes on the level, saturated classes) in ascending
    edge order; budget exhaustion on any graph raises SearchAborted."""
    for m, graphs in enumerate_levels(n, max_edges):
        hits = []
        for g in graphs:
            verdict = is_rainbow_saturated(g, solver=solver)
            if verdict.status is Verdict.INDETERMINATE:
                raise SearchAborted(
                    f"budget exhausted at n={n}, level={m}, graph {graph6_encode(g)}"
                )
            if verdict.status is Verdict.SATURATED:
                hits.append(g)
        yield m, len(graphs), hits


def sat_star_exact(
    n: int,
    family,
    *,
    solver: RainbowSolver | None = None,
    node_limit=None,
    time_limit=None,
    edge_budget=None,
) -> SatNumberResult:
    """Rainbow saturation number by ascending exhaustive enumeration.

    A level's graphs are all checked so every minimal witness is collected.
    If no graph of any edge count is saturated the result carries value None:
    nothing guarantees a saturated graph exists for every (n, family).
    Budget exhaustion raises SearchAborted rather than reporting a guess.
    """
    if solver is None:
        solver = _exhaustive_solver(family, node_limit, time_limit)
    famkey = tuple(graph6_encode(p.graph) for p in solver.patterns)
    checked = 0
    levels = 0
    for m, size, hits in _saturated_levels(n, solver, edge_budget):
        levels = m
        checked += size
        if hits:
            return SatNumberResult(
                n, famkey, m, tuple(graph6_encode(g) for g in hits), checked, levels
            )
    return SatNumberResult(n, famkey, None, (), checked, levels)


def all_rainbow_saturated(n: int, family, *, solver: RainbowSolver | None = None,
                          node_limit=None, time_limit=None):
    """Every rainbow family-saturated graph on n vertices, plus the minimum.

    Scans all isomorphism classes (not just the first successful level);
    returns (saturated graphs ascending, SatNumberResult).
    """
    if solver is None:
        solver = _exhaustive_solver(family, node_limit, time_limit)
    famkey = tuple(graph6_encode(p.graph) for p in solver.patterns)
    found = []
    checked = 0
    levels = 0
    for m, size, hits in _saturated_levels(n, solver):
        levels = m
        checked += size
        found.extend(hits)
    value = min((g.edge_count for g in found), default=None)
    witnesses = tuple(
        graph6_encode(g) for g in found if g.edge_count == value
    ) if value is not None else ()
    return found, SatNumberResult(n, famkey, value, witnesses, checked, levels)


# -- greedy saturation ----------------------------------------------------------


def greedy_saturate(g0: Graph, family, *, order: str = "lex", seed=None,
                    solver: RainbowSolver | None = None,
                    node_limit=None, time_limit=None) -> Graph:
    """Grow g0 into a rainbow family-saturated supergraph on the same vertices.

    Scans candidate non-edges once in the given order ("lex" or "random" with
    a seed) and adds each edge whose addition keeps rainbow-free colorability.
    One pass suffices: a rejected edge stays rejected because UNCOLORABLE
    verdicts persist under adding more edges.
    """
    if solver is None:
        solver = RainbowSolver(family, node_limit=node_limit, time_limit=time_limit)
    base = solver.colorability(g0)
    if base.status is Status.INDETERMINATE:
        raise SearchAborted("budget exhausted on the seed graph")
    if base.status is Status.UNCOLORABLE:
        raise ValueError("seed graph has no rainbow-free proper coloring")
    candidates = g0.non_edges()
    if order == "random":
        rng = random.Random(seed)
        rng.shuffle(candidates)
    elif order != "lex":
        raise ValueError(f"unknown edge order policy {order!r}")
    g = g0
    for u, v in candidates:
        g2 = g.with_edge(u, v)
        res = solver.colorability(g2)
        if res.status is Status.INDETERMINATE:
            raise SearchAborted(f"budget exhausted adding edge ({u},{v})")
        if res.status is Status.COLORABLE:
            g = g2
    return g


# -- closed-form oracles ---------------------------------------------------------


def sat_formula_oracle(name: str, n: int, r: int | None = None) -> int:
    """Closed-form saturation values: EHM (needs r), KT_P4, C4.

    The C4 form floor((3n-5)/2) agrees with exhaustive search for n >= 5;
    at n = 4 the true value is 4.
    """
    if name == "EHM":
        if r is None:
            raise ValueError("EHM needs the clique order r")
        if not 2 <= r <= n:
            raise ValueError(f"EHM needs 2 <= r <= n, got r={r}, n={n}")
        return (r - 2) * (n - r + 2) + comb(r - 2, 2)
    if name == "KT_P4":
        if n < 2:
            raise ValueError("KT_P4 needs n >= 2")
        return n // 2 if n % 2 == 0 else (n + 3) // 2
    if name == "C4":
        if n < 4:
            raise ValueError("C4 formula needs n >= 4")
        return (3 * n - 5) // 2
    raise ValueError(f"unknown formula {name!r}")


# -- structural audits ------------------------------------------------------------


def structural_report(g: Graph, clique_order: int | None = None) -> dict:
    """Degree facts used to audit saturated graphs.

    For clique patterns K_r, lists nonadjacent vertex pairs both of degree
    r-2 (none may exist in a rainbow K_r-saturated graph); always reports the
    degree-1 count (a rainbow C4-saturated graph has at most one).
    """
    degs = g.degrees()
    report = {
        "degrees": list(degs),
        "min_degree": min(degs) if degs else 0,
        "degree_one_vertices": [v for v in range(g.n) if degs[v] == 1],
    }
    if clique_order is not None:
        target = clique_order - 2
        report["nonadjacent_low_degree_pairs"] = [
            (u, v)
            for u, v in combinations(range(g.n), 2)
            if degs[u] == target and degs[v] == target and not g.has_edge(u, v)
        ]
    return report
