"""Saturation semantics and exact saturation numbers at desk scale.

A graph is rainbow family-saturated when (a) it admits a proper edge coloring
with no rainbow copy of any family member and (b) adding any non-edge makes
every proper coloring contain one.  The exact numbers minimize edge count
over an ascending, isomorphism-free enumeration of all candidate graphs, so
the first edge level with a saturated graph is the answer; a walk that finds
none reads every level up to the complete graph.

Two structural facts carry the heavy lifting:

* downward closure: a rainbow-free colorable graph stays colorable after
  deleting edges (restrict the witness), so greedy saturation needs a single
  pass, and the exhaustive search settles a class as UNCOLORABLE without a
  search when one of its parents (the class minus an edge) is UNCOLORABLE;
  a colorable class is saturated iff no child (the class plus an edge) is
  colorable, so each class is decided at most once;
* non-edges in one orbit of the automorphism group give isomorphic
  graphs.  The exact search extends each class by the first non-edge of
  each twin orbit (``Graph.orbit_non_edges``), and greedy addition searches
  once per twin orbit of a rejected non-edge, which downward closure keeps
  rejected.  The check of a single graph tries the first non-edge of each
  orbit of the full group: after the first non-edge is refuted, it merges
  the twin orbits under automorphisms that the canonical search meets
  (``graphs.automorphism_generators``), each checked to preserve edges and
  found within the check's ``time_limit``; fewer of them only means more
  searches.

``RainbowSolver`` memoizes its verdicts by labeled host, so a witness
depends on the host alone.  Every unbudgeted UNCOLORABLE search also adds
its refuted prefix (``engine._search_component``) to one store shared by
all solvers, keyed by the pattern cores searched.  A graph that a stored
graph embeds in is UNCOLORABLE, so the saturation check and greedy addition
test each g + e for such an embedding before they search it; a hit counts
as refuted.  The walks add to the store but never read it: a class whose
parents are all free contains no refuted graph.  A solver with a node
budget neither adds to the store nor reads it.

The level table holds the isomorphism classes of each n and their
twin-orbit children, built once per process, one level at a time as
``enumerate_levels`` first yields it; the walks of ``sat_exact``,
``sat_star_exact`` and ``all_rainbow_saturated`` read it through that generator.
Children are told apart by a cheap vertex-invariant key (``_child_keys``)
checked against Pólya's count at every level: the sorted vertex labels
until a level of that n comes up short, each vertex's label with its
neighbors' label sum from that level on.  Each class is represented by the
first child to reach it, in its parent's labeling, so the table computes
no canonical form; only the saturated classes a run reports are put in
canonical form.  The table holds no verdict; each walk keeps its own, with
a witness coloring per free class for ``sat*``, and asks the solver at most
once per isomorphism class: not at all for a child of a free class that one
class more on the parent's witness colors rainbow-free (the witness rule,
``engine.EdgeClasses.extension``).
"""
from __future__ import annotations

import time
from array import array
from bisect import bisect, insort
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb
from typing import NamedTuple

from .engine import (
    ColorabilityResult,
    EdgeColoring,
    Pattern,
    SearchStats,
    EdgeClasses,
    Status,
    as_pattern,
    copy_through,
    exists_embedding,
    first_fit_classes,
    rainbow_free_colorable,
)
from .graphs import (
    Graph,
    _Expired,
    automorphism_generators,
    canonical_form,
    empty_graph,
    graph6_encode,
    induced_subgraph,
    iter_bits,
)
from .oracle import graph_counts


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


# the tuple of pattern cores searched -> the graphs that an unbudgeted search
# for those cores refuted, each its refuted prefix renumbered onto 0..k-1,
# fewest edges first, no two equal.  Every graph that one of them embeds in
# is UNCOLORABLE for the same cores.
_REFUTED: dict = {}


def merge_colorings(g: Graph, parts) -> EdgeColoring:
    """One coloring of g from colorings of the induced subgraphs on its
    components.

    ``parts`` holds (subgraph, vertex map, classes) triples, the first two as
    ``induced_subgraph`` returns them.  Each part gets classes of its own, so
    a copy inside one part keeps its colors and no class is shared across
    parts.
    """
    merged = {}
    offset = 0
    for sub, vmap, classes in parts:
        for (u, v), c in zip(sub.edges, classes):
            merged[vmap[u], vmap[v]] = c + offset
        offset += max(classes, default=-1) + 1
    return EdgeColoring(tuple(merged[e] for e in g.edges)).normalized()


class RainbowSolver:
    """Colorability decisions for one pattern family, memoized across calls.

    Results are cached by the labeled host: a host asked again, in the same
    labeling, gets the first answer back without a search.  So a witness
    depends on the host alone, not on which hosts the solver answered
    before.  Isomorphic hosts in other labelings are searched apart;
    ``_saturated_levels`` asks once per isomorphism class anyway.

    Each UNCOLORABLE search adds its refuted prefix to the store of refuted
    graphs shared by every solver (``_REFUTED``), and ``contains_refuted``
    tests a host for an embedding of one of them.  A solver with a
    ``node_limit`` neither adds to the store nor reads it, so a budgeted
    verdict depends on its inputs alone.
    """

    def __init__(self, family, *, node_limit: int | None = None, time_limit: float | None = None):
        self.patterns = tuple(as_pattern(p) for p in family)
        if not self.patterns:
            raise ValueError("empty pattern family")
        self.node_limit = node_limit
        self.time_limit = time_limit
        # the pattern minus its isolated vertices, which find room anywhere
        # in a host the pattern fits
        self._cores = tuple(Pattern(p.core) for p in self.patterns)
        self._cache: dict = {}

    def fitting_cores(self, n: int) -> list:
        """The cores of the patterns with at most n vertices: a copy of a
        pattern in a host on n vertices is a copy of its core there."""
        return [p.core for p in self.patterns if p.order <= n]

    def colorability(self, g: Graph) -> ColorabilityResult:
        """Rainbow-free colorability of g, one search per component when sound.

        Patterns are gated by g's order once; then only the cores of those
        that fit are searched.  A copy of a connected core lies inside one
        component, so when every such core is connected, g is colorable iff
        every component is, and the component witnesses merge into one for
        g.  Otherwise g is searched whole.
        """
        fit = [(p, core) for p, core in zip(self.patterns, self._cores) if p.order <= g.n]
        cores = [core for _, core in fit]
        # a component's verdict depends on g's order only when a fitting
        # pattern has isolated vertices; the tag keeps such verdicts apart
        tag = g.n if any(p.isolated for p, _ in fit) else 0
        if not all(core.core_connected for core in cores) or g.is_connected():
            return self._solve(g, cores, tag)
        total = SearchStats(searches=0)
        parts = []
        for comp in g.components():
            sub, vmap = induced_subgraph(g, comp)
            res = self._solve(sub, cores, tag)
            total.nodes += res.stats.nodes
            total.searches += res.stats.searches
            if res.status is not Status.COLORABLE:
                return ColorabilityResult(res.status, None, total)
            parts.append((sub, vmap, res.witness.classes))
        return ColorabilityResult(Status.COLORABLE, merge_colorings(g, parts), total)

    def witness(self, g: Graph) -> EdgeColoring | None:
        """The verdict of ``colorability``: its witness for COLORABLE, None
        for UNCOLORABLE.  An exhausted budget raises SearchAborted naming g."""
        res = self.colorability(g)
        if res.status is Status.INDETERMINATE:
            raise SearchAborted(
                f"budget exhausted at n={g.n}, edges={g.edge_count}, graph {graph6_encode(g)}"
            )
        return res.witness

    def contains_refuted(self, g: Graph) -> bool:
        """Whether a graph of the store, refuted for the cores of the
        patterns that fit g, embeds in g, which makes g UNCOLORABLE with no
        search.  The stored graphs are tried fewest edges first, all within
        ``time_limit``; a test that runs out of time finds nothing.  False
        for a solver with a ``node_limit``."""
        if self.node_limit is not None:
            return False
        held = _REFUTED.get(tuple(self.fitting_cores(g.n)), ())
        deadline = None if self.time_limit is None else time.monotonic() + self.time_limit
        try:
            return any(exists_embedding(g, s, deadline) for s in held)
        except _Expired:
            return False

    def _solve(self, g: Graph, cores, tag) -> ColorabilityResult:
        if not cores:
            # no pattern fits the host, so any proper coloring witnesses
            witness = EdgeColoring(tuple(first_fit_classes(g, {})))
            return ColorabilityResult(Status.COLORABLE, witness, SearchStats(searches=0))

        key = (g.adj, tag)
        hit = self._cache.get(key)
        if hit is not None:
            status, witness = hit
            return ColorabilityResult(status, witness, SearchStats(searches=0))

        res = rainbow_free_colorable(
            g, cores, node_limit=self.node_limit, time_limit=self.time_limit
        )
        if res.status is not Status.INDETERMINATE:
            self._cache[key] = (res.status, res.witness)
        if res.status is Status.UNCOLORABLE and self.node_limit is None:
            _add_refuted(tuple(core.graph for core in cores), g, res.stats.refuted)
        return res


def _add_refuted(key: tuple, g: Graph, prefix) -> None:
    """Store the subgraph of g on the edges ``prefix`` (edge indices), on
    the vertices they touch renumbered in ascending order, as refuted for
    the cores ``key``, unless the store holds it already."""
    edges = [g.edges[i] for i in prefix]
    s = induced_subgraph(Graph(g.n, edges), {x for e in edges for x in e})[0]
    held = _REFUTED.setdefault(key, [])
    if s not in held:
        insort(held, s, key=lambda h: h.edge_count)


# -- saturation checks --------------------------------------------------------


def is_rainbow_saturated(g: Graph, family, *, node_limit=None, time_limit=None) -> SaturationVerdict:
    """Check conditions (a) and (b) of rainbow family saturation.

    (b) tries the first non-edge of each automorphism orbit only, in
    lexicographic order: the others give isomorphic graphs, so
    ``failing_edge`` is still the lexicographically first addable non-edge,
    and ``nonedges_checked``/``nonedges_refuted`` count orbit
    representatives.  The first non-edge is tried before any automorphism
    is sought, so a host that fails there pays nothing for them.  Once it is
    refuted, the twin orbits (``Graph.orbit_non_edges``) are merged under
    the generators that the canonical search meets
    (``graphs.automorphism_generators``), each checked to preserve edges;
    that search stops at ``time_limit``, and the generators found by then
    merge fewer orbits, which costs searches, not soundness.
    Each g+e that a graph of the store of refuted graphs embeds in
    (``RainbowSolver.contains_refuted``) is refuted with no search; the
    solver splits any other into components and reads the untouched ones
    back from its cache.  Only a NOT_SATURATED verdict has a
    ``failing_edge``; an INDETERMINATE one names the non-edge whose search
    ran out of budget in its ``reason``.
    """
    solver = RainbowSolver(family, node_limit=node_limit, time_limit=time_limit)
    base = solver.colorability(g)
    if base.status is Status.INDETERMINATE:
        return SaturationVerdict(Verdict.INDETERMINATE, reason="budget exhausted on host")
    if base.status is Status.UNCOLORABLE:
        return SaturationVerdict(
            Verdict.NOT_SATURATED, reason="no rainbow-free proper coloring"
        )

    checked = refuted = 0
    for u, v in _orbit_representatives(g, time_limit):
        h = g.with_edge(u, v)
        checked += 1
        if solver.contains_refuted(h):
            refuted += 1
            continue
        res = solver.colorability(h)
        if res.status is Status.INDETERMINATE:
            return SaturationVerdict(
                Verdict.INDETERMINATE,
                reason=f"budget exhausted on non-edge {(u, v)}",
                nonedges_checked=checked,
                nonedges_refuted=refuted,
            )
        if res.status is Status.COLORABLE:
            return SaturationVerdict(
                Verdict.NOT_SATURATED,
                witness_coloring=base.witness,
                failing_edge=(u, v),
                failing_coloring=res.witness,
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


def _orbit_representatives(g: Graph, time_limit):
    """Yield the first non-edge of each automorphism orbit of g, in
    lexicographic order; the automorphisms are sought only when the second
    one is asked for, within ``time_limit`` seconds."""
    reps = g.orbit_non_edges()
    yield from reps[:1]
    if len(reps) > 1:
        deadline = None if time_limit is None else time.monotonic() + time_limit
        # the first non-edge of all is the first of its orbit
        yield from g.orbit_non_edges(automorphism_generators(g, deadline))[1:]


# -- isomorphism-free enumeration ----------------------------------------------


ENUMERATION_LIMIT = 9


class _Level(NamedTuple):
    """One level of the class DAG: the classes with m edges, and the edges
    up to them from the classes with m - 1.

    Class i of the level below has its children at positions
    ``start[i]:start[i + 1]`` of ``pairs`` (its orbit non-edge uv, stored as
    u * n + v) and ``child`` (the index of g + uv's class in ``reps``).
    Class j is represented by the first child to reach it, g + uv for the
    first parent g and pair uv in that order, in g's labeling.  Reps are
    bare adjacency tuples, so no ``Graph`` built from them, nor anything
    cached on one, outlives its caller.
    """

    reps: list     # adjacency tuples, in order of first reach
    pairs: bytes
    child: array
    start: array


# n -> [class count per edge level by oracle.graph_counts, the levels built
# so far, whether they are keyed by the fine key].  Levels are built on first
# use and only complete ones are kept.
_DAG: dict = {}


def _level(n: int, m: int) -> _Level:
    """Level m of the class DAG on n vertices, growing the memo one complete
    level at a time up to it.  Level C(n, 2) + 1 is empty: the complete
    graph has no children."""
    entry = _DAG.get(n)
    if entry is None:
        bottom = _Level([empty_graph(n).adj], b"", array("I"), array("I", [0]))
        entry = _DAG[n] = [graph_counts(n), [bottom], False]
    levels = entry[1]
    while len(levels) <= m:
        levels.append(_grow(n, entry))
    return levels[m]


# C(c, 2) for a codegree c (at most n - 2), shifted into a label's 4-cycle field
_QUADS = tuple((c * (c - 1) >> 1) << 17 for c in range(ENUMERATION_LIMIT - 1))
# the neighbors of a vertex by its row: the set bit positions of each row
# value, as bytes, which hold the 512 of them in 23 KB
_BITS = tuple(bytes(iter_bits(row)) for row in range(1 << ENUMERATION_LIMIT))


def _child_keys(n: int, rows, pairs, fine: bool) -> list:
    """The class key of rows + uv for each non-edge (u, v) of ``pairs``,
    each from the parent's degrees, codegrees and labels.

    The key is an isomorphism invariant, in one of two rounds of color
    refinement.  Each vertex v gets a label from its degree, the sum of its
    neighbors' degrees, twice its triangle count and its 4-cycle count (the
    sum over w != v of C(codeg(v, w), 2)), packed as degree | neighbors'
    degrees << 4 | twice the triangles << 11 | 4-cycles << 17.  The coarse
    key is the sorted tuple of the labels.  The fine key is the sorted
    tuple of the pairs (label of v, sum of v's neighbors' labels), each
    packed into one int as label << 28 | sum.  The fields fit their bits
    for n <= 9; an overflow could only merge keys.  The coarse key tells
    apart every two classes with equal edge counts on at most 8 vertices,
    and on 9 below 8 edges; the fine key on at most 9 vertices.  ``_grow``
    checks the key it uses at every level it builds.

    Adding uv changes the label fields of few vertices: u and v gain a
    degree, the other's new degree in their neighbors' degrees and twice
    their c = codeg(u, v) new triangles; their neighbors gain 1 in the
    neighbors' degrees, and each common neighbor one triangle.  The only
    codegrees that change are codeg(u, b) for b in N(v) and codeg(v, a) for
    a in N(u), each by one, and C(c + 1, 2) - C(c, 2) = c, so each adds its
    old value to the 4-cycle fields of both ends.  For the fine key, one
    pass over the child's edges then sums the neighbors' labels.
    """
    deg = [row.bit_count() for row in rows]
    codeg = [[(row & other).bit_count() for other in rows] for row in rows]
    nbrs = list(map(_BITS.__getitem__, rows))
    edges = [(a, b) for a in range(n) for b in nbrs[a] if a < b] if fine else ()
    quad = _QUADS.__getitem__
    base = []  # the parent's labels, packed as above
    for a in range(n):
        ca = codeg[a]
        ca[a] = 0  # a vertex is no pair with itself
        label = deg[a] + sum(map(quad, ca))
        for b in nbrs[a]:
            label += (deg[b] << 4) + (ca[b] << 11)
        base.append(label)
    keys = []
    for u, v in pairs:
        label = base[:]
        cu, cv = codeg[u], codeg[v]
        c = cu[v]
        # the 4-cycle gain of u: paths u-a-b-v, as many as that of v
        quads = sum(map(cu.__getitem__, nbrs[v])) << 17
        # a degree, the other end's new degree, 2c triangles << 11 = c << 12
        label[u] += 1 + ((deg[v] + 1) << 4) + (c << 12) + quads
        label[v] += 1 + ((deg[u] + 1) << 4) + (c << 12) + quads
        for b in nbrs[v]:
            label[b] += 16 + (cu[b] << 17)
        for a in nbrs[u]:
            label[a] += 16 + (cv[a] << 17)
        for w in _BITS[rows[u] & rows[v]]:
            label[w] += 2 << 11
        if fine:
            key = [x << 28 for x in label]
            for a, b in edges:
                key[a] += label[b]
                key[b] += label[a]
            key[u] += label[v]
            key[v] += label[u]
            label = key
        label.sort()
        keys.append(tuple(label))
    return keys


def _class_key(adj, fine: bool) -> tuple:
    """The class key of ``_child_keys`` for the graph with adjacency rows
    ``adj``, from scratch, coarse or fine.

    Each pair of vertices adds its share of the label fields to both ends:
    an edge the other end's degree, and its codegree c as triangles and
    C(c, 2) as 4-cycles; a non-edge its 4-cycles alone.
    """
    quads = _QUADS
    n = len(adj)
    label = [row.bit_count() for row in adj]
    shifted = [d << 4 for d in label]
    for v in range(n):
        row = adj[v]
        if not row:
            continue
        mine = 0
        for w in range(v + 1, n):
            c = (row & adj[w]).bit_count()
            if row >> w & 1:
                share = quads[c] + (c << 11)
                mine += share + shifted[w]
                label[w] += share + shifted[v]
            elif c > 1:
                mine += quads[c]
                label[w] += quads[c]
        label[v] += mine
    if fine:
        label = [(x << 28) + sum(map(label.__getitem__, _BITS[row]))
                 for x, row in zip(label, adj)]
    label.sort()
    return tuple(label)


def _grow(n: int, entry: list) -> _Level:
    """The next level of ``entry``, the ``_DAG`` entry of n: the classes
    with m edges, m the number of levels built, from the classes with m - 1
    by single-edge extension.

    Each class is extended by the first non-edge of each twin orbit
    (``Graph.orbit_non_edges``): the other non-edges of an orbit give
    isomorphic children, so every child class is still reached.  Children
    are grouped by a vertex-invariant key, computed from their parent by
    ``_child_keys``, and the first child to reach a key, in its parent's
    labeling, is the class's rep; classes keep that order.  No canonical
    form is computed.  The reps share one int object per row value.

    Both keys are isomorphism invariants, so there are at most as many keys
    as classes reached, and at most as many of those as the Pólya count;
    equal counts mean one class per key.  The levels of n are keyed by the
    coarse key until one has fewer keys than the Pólya count: the entry is
    then marked fine, and that level and every later one at n are keyed by
    the fine key.  Any other key count than the Pólya count, or two reps
    with one class key computed from scratch (``_class_key``) in the round
    that built the level, so isomorphic, raises RuntimeError.
    """
    counts, levels, fine = entry
    m = len(levels)
    count = counts[m] if m < len(counts) else 0
    while True:
        index = {}  # class key -> class index in order of first reach
        reps = []
        shared = {}  # row value -> the one int object the reps hold for it
        pairs = bytearray()
        child = array("I")
        start = array("I", [0])
        for rows in levels[-1].reps:
            orbit = Graph._from_adj(n, rows).orbit_non_edges()
            for (u, v), key in zip(orbit, _child_keys(n, rows, orbit, fine)):
                i = index.get(key)
                if i is None:
                    i = index[key] = len(reps)
                    rep = list(rows)
                    rep[u] |= 1 << v
                    rep[v] |= 1 << u
                    reps.append(tuple([shared.setdefault(r, r) for r in rep]))
                pairs.append(u * n + v)
                child.append(i)
            start.append(len(child))
        if fine or len(reps) >= count:
            break
        # the coarse key merged classes: refine this level and the later ones
        entry[2] = fine = True
    distinct = len({_class_key(rep, fine) for rep in reps})
    if len(reps) != count or distinct != count:
        raise RuntimeError(
            f"enumeration found {distinct} classes under {len(reps)} keys at n={n} "
            f"with {m} edges; Pólya's count is {count}"
        )
    return _Level(reps, bytes(pairs), child, start)


def enumerate_levels(n: int):
    """Yield (edge count, representatives) in ascending edge order, from
    the empty graph to the complete one.

    Level m+1 is generated from level m by single-edge extension, so every
    isomorphism class appears exactly once, at its own edge count.  A class
    is extended only by the first non-edge of each twin orbit
    (``Graph.orbit_non_edges``): the other non-edges of an orbit give
    isomorphic children, so every child class is still reached.  Children
    are told apart by a vertex-invariant key, and each class is represented
    by the first child to reach it, in its parent's labeling; a level lists
    its classes in that order, which is deterministic.  No canonical form
    is computed.  Each finished level's key count is checked against
    ``oracle.graph_counts``, and its reps against each other by a class key
    computed from scratch.  The levels of each n are keyed by the sorted
    vertex labels until one comes up short of that count; it and every
    later level of that n are keyed by the finer key that adds neighbors'
    label sums (``_grow``).

    The levels of each n are built once per process, each in the ``next()``
    that first yields it, and every walk reads them through this generator;
    each level is yielded as a fresh list of fresh graphs.  So
    ``islice(enumerate_levels(n), k + 1)`` builds levels 0 to k and no more.
    """
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration supports 0..{ENUMERATION_LIMIT} vertices")
    for m in range(comb(n, 2) + 1):
        yield m, [Graph._from_adj(n, adj) for adj in _level(n, m).reps]


# -- exact saturation numbers ---------------------------------------------------


def _saturated_levels(n: int, root, rule):
    """Yield (edge count, classes, saturated classes) in ascending edge order,
    from the empty graph to the complete one; classes are the reps of
    ``enumerate_levels`` in its order, as fresh lists of fresh graphs.

    The walk decides a property of graphs on n vertices, "free", that
    survives edge deletion.  It keeps a state for each free class of the
    current and the next level, in the labeling of the class's rep, and
    False for a class that is not free; ``root`` is the state of the empty
    graph.  ``rule(g, state)`` gives the function that decides the children
    of a free class g: called with a non-edge (u, v) of g, it returns the
    state of g + uv in g's labeling, or False.

    The walk reads ``enumerate_levels`` one level ahead, so each level is
    built in that generator, and keeps its states to itself.  A child of a
    class that is not free is not free.  Any other class is decided once, on
    the first child to reach it: all its parents are free, so that child
    comes from the first parent in class order, by the first non-edge of
    each twin orbit, and is the labeled graph that trying every non-edge
    would reach it by and that the level took as the class's rep.  So the
    child's state is the rep's, with no relabeling.  A free class is
    saturated iff none of its children is free.
    """
    levels = enumerate_levels(n)
    _, classes = next(levels)
    states = [root]
    for m in range(comb(n, 2) + 1):
        _, ahead = next(levels, (None, []))
        _, pairs, child, start = _level(n, m + 1)
        above = [None] * len(ahead)  # None until decided
        for i, state in enumerate(states):
            if state is False:
                for k in range(start[i], start[i + 1]):
                    above[child[k]] = False
        hits = []
        for i, state in enumerate(states):
            if state is not False:
                g = classes[i]
                kids = range(start[i], start[i + 1])
                decide = None
                # every child is decided, saturated or not: they are the next level
                for k in kids:
                    j = child[k]
                    if above[j] is None:
                        if decide is None:
                            decide = rule(g, state)
                        above[j] = decide(*divmod(pairs[k], n))
                if all(above[child[k]] is False for k in kids):
                    hits.append(g)
        yield m, classes, hits
        classes, states = ahead, above


def _pattern_free_rule(pat: Pattern, n: int):
    """(root, rule) of ``_saturated_levels`` for freedom from the pattern
    ``pat`` on n vertices, with True as every free class's state: g + uv is
    free iff no copy of the core goes through uv."""
    cores = [pat.core] if pat.order <= n else []

    def rule(g, _):
        return lambda u, v: not copy_through(g.with_edge(u, v), cores, u, v)
    return not exists_embedding(empty_graph(n), pat), rule


def _witness_rule(solver: RainbowSolver, n: int):
    """(root, rule) of ``_saturated_levels`` for rainbow-free colorability
    on n vertices.  A free class's state is a witness coloring, its classes
    as one bytes in the edge order of the class's rep.

    A child g + uv of a free class g takes g's witness with the class that
    ``EdgeClasses.extension`` finds for uv over it inserted at uv's position
    in the child's edge order, with no search; only when there is none does
    the solver decide g + uv, and its witness is the state as it comes.  The
    witnesses stay out of the solver's cache: they depend on which parent
    reached a class first.
    """
    cores = solver.fitting_cores(n)

    def rule(g, witness):
        table = EdgeClasses(g, witness)
        edges = g.edges

        def decide(u, v):
            h = g.with_edge(u, v)
            c = table.extension(h, cores, u, v)
            if c is not None:
                i = bisect(edges, (u, v))
                return witness[:i] + bytes((c,)) + witness[i:]
            found = solver.witness(h)
            return False if found is None else bytes(found.classes)
        return decide

    root = solver.witness(empty_graph(n))
    return (False if root is None else bytes(root.classes)), rule


def _in_canonical_form(graphs) -> list:
    """The canonical graphs of ``graphs``, one per isomorphism class, in
    ascending canonical encoding: one canonical form per graph."""
    forms = {}
    for g in graphs:
        cf = canonical_form(g)
        if cf.encoding not in forms:
            forms[cf.encoding] = g.relabel(cf.relabeling)
    return [forms[k] for k in sorted(forms)]


def _sat_number(n: int, patterns, root, rule, found=None) -> SatNumberResult:
    """The first level of _saturated_levels with a saturated class, for the
    family of ``patterns``.  Given a list ``found``, every level is scanned
    and its saturated classes appended.  Only the saturated classes reported
    are put in canonical form: the witnesses are their graph6, and ``found``
    gets the canonical graphs, each level's in ascending canonical encoding."""
    res = SatNumberResult(n, tuple(graph6_encode(p.graph) for p in patterns), None, (), 0, 0)
    for m, graphs, hits in _saturated_levels(n, root, rule):
        res.graphs_checked += len(graphs)
        res.levels_searched = m
        if hits:
            hits = _in_canonical_form(hits)
            if res.value is None:
                res.value, res.witnesses = m, tuple(graph6_encode(g) for g in hits)
            if found is None:
                break
            found.extend(hits)
    return res


def sat_exact(n: int, h) -> SatNumberResult:
    """Classical saturation number by ascending exhaustive enumeration."""
    pat = as_pattern(h)
    return _sat_number(n, [pat], *_pattern_free_rule(pat, n))


def sat_star_exact(n: int, family, *, node_limit=None, time_limit=None) -> SatNumberResult:
    """Rainbow saturation number by ascending exhaustive enumeration.

    A level's graphs are all checked so every minimal witness is collected.
    If no graph of any edge count is saturated the result carries value None:
    nothing guarantees a saturated graph exists for every (n, family).
    Budget exhaustion raises SearchAborted rather than reporting a guess.
    """
    solver = RainbowSolver(family, node_limit=node_limit, time_limit=time_limit)
    return _sat_number(n, solver.patterns, *_witness_rule(solver, n))


def all_rainbow_saturated(n: int, family, *, node_limit=None):
    """Every rainbow family-saturated graph on n vertices, plus the minimum.

    Scans all isomorphism classes (not just the first successful level);
    returns (saturated graphs ascending, SatNumberResult).
    """
    solver = RainbowSolver(family, node_limit=node_limit)
    found = []
    return found, _sat_number(n, solver.patterns, *_witness_rule(solver, n), found=found)


# -- greedy saturation ----------------------------------------------------------


def _add_greedily(g: Graph, pairs, solver: RainbowSolver, classes=None):
    """Add each of ``pairs``, in order, whose edge keeps g rainbow-free
    colorable; return the grown graph and the added pairs.  g must be
    rainbow-free colorable (``greedy_saturate`` checks its seed, and the
    caller of a ladder re-verifies the graph built), and stays so.

    ``classes`` is a witness of g, in its edge order, when one is known.
    Three kinds of pair are settled unsearched.  A pair uv for which the
    rule of ``_saturated_levels`` (``EdgeClasses.extension``) finds a class
    over the current witness is added, and the witness gains that class on
    uv; until a witness is known, no pair is.  A pair whose g + uv holds a
    graph of the store of refuted graphs (``RainbowSolver.contains_refuted``)
    is rejected.  Any other pair is searched, and if it is added the
    solver's witness of the grown graph becomes the current one.  A rejected
    uv settles every pair from u's and v's twin classes under the current g:
    isomorphic graphs, kept rejected by downward closure."""
    cores = solver.fitting_cores(g.n)
    table = None if classes is None else EdgeClasses(g, classes)
    added, rejected = [], set()
    for u, v in pairs:
        if (u, v) in rejected:
            continue
        g2 = g.with_edge(u, v)
        c = None if table is None else table.extension(g2, cores, u, v)
        if c is not None:
            table.add(u, v, c)
        else:
            found = None if solver.contains_refuted(g2) else solver.witness(g2)
            if found is None:
                twins = g.twin_classes()
                rejected.update((a, b) if a < b else (b, a)
                                for a in iter_bits(twins[u]) for b in iter_bits(twins[v]) if a != b)
                continue
            table = EdgeClasses(g2, found.classes)
        g = g2
        added.append((u, v))
    return g, added


def greedy_saturate(g0: Graph, family, *, node_limit=None, time_limit=None) -> Graph:
    """Grow g0 into a rainbow family-saturated supergraph on the same vertices.

    Scans candidate non-edges once in lexicographic order and adds each edge
    whose addition keeps rainbow-free colorability.  One pass suffices: a
    rejected edge stays rejected because UNCOLORABLE verdicts persist under
    adding more edges, and it settles its twin orbit without a search.  A
    non-edge that one more class on the current witness colors rainbow-free
    is added without a search.  An exhausted budget raises SearchAborted; a
    settled non-edge cannot.
    """
    solver = RainbowSolver(family, node_limit=node_limit, time_limit=time_limit)
    seed = solver.witness(g0)
    if seed is None:
        raise ValueError("seed graph has no rainbow-free proper coloring")
    return _add_greedily(g0, g0.non_edges(), solver, seed.classes)[0]


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
