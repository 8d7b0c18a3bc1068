"""Saturation semantics and exact saturation numbers at desk scale.

A graph is rainbow family-saturated when (a) it admits a proper edge coloring
with no rainbow copy of any family member and (b) adding any non-edge makes
every proper coloring contain one.  The exact numbers minimize edge count
over an ascending, isomorphism-free enumeration of all candidate graphs, so
the first edge level with a saturated graph is the answer.  A walk that
finds none stops at the first level with no free class (rainbow-free
colorable for ``sat*``, free of the pattern for ``sat``), at the latest at
the complete graph: no graph with more edges is free.

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

``RainbowSolver`` memoizes its verdicts by labeled host and the pattern
cores searched, so a witness depends on those alone.  A graph that an
UNCOLORABLE graph embeds in is UNCOLORABLE, so the saturation check and
greedy addition, the only readers, test each g + e for an embedding of a
known UNCOLORABLE graph (``RainbowSolver.contains_refuted``) before they
search it; a hit counts as refuted.  A solver keeps one list of them per
tuple of cores, started by the first such test for those cores from the
committed catalogue (``_OBSTRUCTIONS``): the obstructions of P3, P4, C4,
K3, K4 and K1,3 on at most 7 vertices, that is the deletion-minimal
UNCOLORABLE graphs, the analogue of minimal unsatisfiable cores (Liffiton
and Sakallah, J. Autom. Reasoning 40, 2008).  A graph is UNCOLORABLE iff
it contains an obstruction.  Once a list is started, each unbudgeted
UNCOLORABLE search for its cores adds its refuted prefix
(``engine._search_component``).  No listed graph embeds in the prefix (bar
a test that ran out of time), as the reader tested the host first and the
prefix is a subgraph of it.  A solver with a node budget adds nothing, so a
budgeted verdict depends on its inputs and the catalogue alone.  No solver
reads another's list.  The walks start none: a class whose parents are all
free contains no UNCOLORABLE graph but itself.

The level table holds the isomorphism classes of each n and their
twin-orbit children, built once per process, one level at a time as
``enumerate_levels`` first yields it; the walks of ``sat_exact``,
``sat_star_exact`` and ``all_rainbow_saturated`` read it through that generator.
Children are told apart by a cheap vertex-invariant key (``_child_keys``)
checked against Pólya's count at every level: the sorted vertex labels
until a level of that n comes up short, each vertex's label with its
neighbors' label sum from that level on.  A child's key comes from its
parent's labels, which the check of the parent's level computed from
scratch, so each class's labels are computed once.  Each class is
represented by the first child to reach it, in its parent's labeling, so
the table computes no canonical form; only the saturated classes a run
reports are put in canonical form.  The table holds no verdict; each walk
keeps its own, with a witness coloring per free class for ``sat*`` as its
class table (``engine.class_table``, kept as bytes), and asks the solver at
most once per isomorphism class: not at all for a child of a free class
that one class more on the parent's witness colors rainbow-free (the
witness rule, ``engine.extension``), which copies the parent's table with
that class set at the new edge's two entries and builds no graph.
"""
from __future__ import annotations

import time
from array import array
from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb
from typing import NamedTuple

from .engine import (
    ColorabilityResult,
    Pattern,
    SearchStats,
    Status,
    _maps_through,
    _through_plans,
    as_pattern,
    class_table,
    exists_embedding,
    extension,
    first_fit_classes,
    normalized,
    rainbow_free_colorable,
)
from .graphs import (
    Graph,
    _Expired,
    automorphism_generators,
    canonical_form,
    empty_graph,
    graph6_decode,
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
    witness_coloring: tuple | None = None
    failing_edge: tuple | None = None
    failing_coloring: tuple | None = None
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


# the canonical graph6 of a pattern -> the canonical graph6 of each of its
# obstructions on at most 7 vertices, isolated vertices dropped, fewest
# edges first.  An obstruction is UNCOLORABLE for the pattern, and each of
# its one-edge-deleted subgraphs is COLORABLE.  all_rainbow_saturated(7,
# [pattern]) refutes exactly these classes: a class that the walk hands to
# the solver has only free parents.  Read through
# RainbowSolver.contains_refuted, so nothing is decoded at import.
_OBSTRUCTIONS = {
    "BW": ("BW",),  # P3
    "CL": ("D@s", "DLo", "F@Ue?"),  # P4
    # C4; D]{ is the wheel W4
    "C]": ("D]{", "E?~o", "EBnw", "F?]v_", "F?NNw", "F?N^W", "F@Vfw"),
    "Bw": ("Bw",),  # K3
    "C~": ("F?~~w", "FNz~w"),  # K4; F?~~w is K3 joined to four independent vertices
    "CF": ("CF",),  # K1,3
}


class RainbowSolver:
    """Colorability decisions for one pattern family, memoized across calls.

    Results are cached by what a verdict depends on, the labeled host and
    the cores searched in it: a host asked again, in the same labeling, for
    the same cores, gets the first answer back without a search.  So a
    witness does not depend on which hosts the solver answered before.
    Isomorphic hosts in other labelings are searched apart;
    ``_saturated_levels`` asks once per isomorphism class anyway.

    ``contains_refuted`` tests a host for an embedding of a known
    UNCOLORABLE graph for its cores: an obstruction of the committed
    catalogue (``_OBSTRUCTIONS``) for one of them, or the refuted prefix of
    one of this solver's UNCOLORABLE searches for them since its first
    test for them.  It is the one place a list is started, so a solver
    that is never asked keeps none.  A solver with a ``node_limit`` adds no
    prefix, so a budgeted verdict depends on its inputs and the catalogue
    alone.
    """

    def __init__(self, family, *, node_limit: int | None = None, time_limit: float | None = None):
        self.patterns = tuple(as_pattern(p) for p in family)
        if not self.patterns:
            raise ValueError("empty pattern family")
        self.node_limit = node_limit
        self.time_limit = time_limit
        self._cache: dict = {}
        self._known: dict = {}  # cores -> the known UNCOLORABLE graphs for them

    def fitting_cores(self, n: int) -> tuple:
        """The cores of the patterns with at most n vertices: a copy of a
        pattern in a host on n vertices is a copy of its core there."""
        return tuple(p.core for p in self.patterns if p.order <= n)

    def colorability(self, g: Graph) -> ColorabilityResult:
        """Rainbow-free colorability of g, one search per component when sound.

        Patterns are gated by g's order once; then only the cores of those
        that fit are searched, each search cached under its labeled host and
        those cores.  A copy of a connected core lies inside one component,
        so when every such core is connected, g is colorable iff every
        component is, and the component witnesses, each with classes of its
        own, merge into one for g.  Otherwise g is searched whole.
        """
        cores = self.fitting_cores(g.n)
        if not all(as_pattern(core).core_connected for core in cores) or g.is_connected():
            return self._solve(g, cores)
        total = SearchStats(searches=0)
        merged = {}
        offset = 0
        for comp in g.components():
            sub, vmap = induced_subgraph(g, comp)
            res = self._solve(sub, cores)
            total.nodes += res.stats.nodes
            total.searches += res.stats.searches
            if res.status is not Status.COLORABLE:
                return ColorabilityResult(res.status, None, total)
            for (u, v), c in zip(sub.edges, res.witness):
                merged[vmap[u], vmap[v]] = c + offset
            offset += max(res.witness, default=-1) + 1
        witness = normalized(merged[e] for e in g.edges)
        return ColorabilityResult(Status.COLORABLE, witness, total)

    def witness(self, g: Graph) -> tuple | None:
        """The verdict of ``colorability``: its witness for COLORABLE, None
        for UNCOLORABLE.  An exhausted budget raises SearchAborted naming g."""
        res = self.colorability(g)
        if res.status is Status.INDETERMINATE:
            raise SearchAborted(
                f"budget exhausted at n={g.n}, edges={g.edge_count}, graph {graph6_encode(g)}"
            )
        return res.witness

    def contains_refuted(self, g: Graph) -> bool:
        """Whether a known UNCOLORABLE graph for the cores of the patterns
        that fit g embeds in g, which makes g UNCOLORABLE with no search;
        a test that runs out of ``time_limit`` finds nothing.

        The first test for some cores starts their list from the
        catalogue's obstructions of each core, found by its canonical
        graph6; those of a single core refute any family that holds it.
        Graphs are tried fewest edges first.
        """
        cores = self.fitting_cores(g.n)
        known = self._known.get(cores)
        if known is None:
            entries = []
            for core in cores:
                key = graph6_encode(core.relabel(canonical_form(core).relabeling))
                entries += _OBSTRUCTIONS.get(key, ())
            known = self._known[cores] = sorted(
                map(graph6_decode, dict.fromkeys(entries)), key=lambda s: s.edge_count)
        deadline = None if self.time_limit is None else time.monotonic() + self.time_limit
        try:
            return any(exists_embedding(g, s, deadline) for s in known)
        except _Expired:
            return False

    def _solve(self, g: Graph, cores: tuple) -> ColorabilityResult:
        if not cores:
            # no pattern fits the host, so any proper coloring witnesses
            witness = tuple(first_fit_classes(g, {}))
            return ColorabilityResult(Status.COLORABLE, witness, SearchStats(searches=0))

        key = (g.adj, cores)
        hit = self._cache.get(key)
        if hit is not None:
            status, witness = hit
            return ColorabilityResult(status, witness, SearchStats(searches=0))

        res = rainbow_free_colorable(
            g, cores, node_limit=self.node_limit, time_limit=self.time_limit
        )
        if res.status is not Status.INDETERMINATE:
            self._cache[key] = (res.status, res.witness)
        known = self._known.get(cores)
        if res.status is Status.UNCOLORABLE and self.node_limit is None and known is not None:
            # the refuted prefix, on the vertices it touches in ascending order
            edges = [g.edges[i] for i in res.stats.refuted]
            s = induced_subgraph(Graph(g.n, edges), {x for e in edges for x in e})[0]
            # no listed graph embeds in s: its reader found none in the host
            known.insert(bisect(known, s.edge_count, key=lambda h: h.edge_count), s)
        return res


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
    Each g+e that an obstruction of the catalogue or a prefix that the
    check's own solver refuted embeds in (``RainbowSolver.contains_refuted``)
    is refuted with no search, at any budget; the solver splits any other
    into components and reads the untouched ones back from its cache.  Only
    a NOT_SATURATED verdict has a ``failing_edge``; an INDETERMINATE one
    names the non-edge whose search ran out of budget in its ``reason``.
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
# so far, whether they are keyed by the fine key, the ``_labels`` of the
# newest level's reps, rep after rep, in one array].  Levels are built on
# first use and only complete ones are kept.
_DAG: dict = {}


def _level(n: int, m: int) -> _Level:
    """Level m of the class DAG on n vertices, growing the memo one complete
    level at a time up to it.  Level C(n, 2) + 1 is empty: the complete
    graph has no children."""
    entry = _DAG.get(n)
    if entry is None:
        bottom = _Level([empty_graph(n).adj], b"", array("I"), array("I", [0]))
        entry = _DAG[n] = [graph_counts(n), [bottom], False, array("I", [0] * n)]
    levels = entry[1]
    while len(levels) <= m:
        level, entry[3] = _grow(n, entry)
        levels.append(level)
    return levels[m]


# C(c, 2) for a codegree c (at most n - 2), shifted into a label's 4-cycle field
_QUADS = tuple((c * (c - 1) >> 1) << 17 for c in range(ENUMERATION_LIMIT - 1))
# the neighbors of a vertex by its row: the set bit positions of each row
# value, as bytes, which hold the 512 of them in 23 KB
_BITS = tuple(bytes(iter_bits(row)) for row in range(1 << ENUMERATION_LIMIT))


def _child_keys(rows, base, pairs, fine: bool) -> list:
    """The class key of rows + uv for each non-edge (u, v) of ``pairs``,
    each from the parent's rows and its labels ``base`` (``_labels(rows)``).

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
    n = len(rows)
    deg = [row.bit_count() for row in rows]
    nbrs = list(map(_BITS.__getitem__, rows))
    edges = [(a, b) for a in range(n) for b in nbrs[a] if a < b] if fine else ()
    keys = []
    for u, v in pairs:
        label = base[:]
        ru, rv = rows[u], rows[v]
        # the 4-cycle gain of u: paths u-a-b-v, as many as that of v
        quads = 0
        for b in nbrs[v]:
            x = (ru & rows[b]).bit_count()
            quads += x
            label[b] += 16 + (x << 17)
        for a in nbrs[u]:
            label[a] += 16 + ((rv & rows[a]).bit_count() << 17)
        quads <<= 17
        c = (ru & rv).bit_count()
        # a degree, the other end's new degree, 2c triangles << 11 = c << 12
        label[u] += 1 + ((deg[v] + 1) << 4) + (c << 12) + quads
        label[v] += 1 + ((deg[u] + 1) << 4) + (c << 12) + quads
        for w in _BITS[ru & rv]:
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


def _labels(adj) -> list:
    """The labels of ``_child_keys`` of the vertices of the graph with
    adjacency rows ``adj``, from scratch, in vertex order.

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
    return label


def _class_key(adj, fine: bool, label=None) -> tuple:
    """The class key of ``_child_keys`` for the graph with adjacency rows
    ``adj``, coarse or fine, from its ``label`` (``_labels(adj)`` when not
    given), which it leaves as it is."""
    if label is None:
        label = _labels(adj)
    if fine:
        label = [(x << 28) + sum(map(label.__getitem__, _BITS[row]))
                 for x, row in zip(label, adj)]
    return tuple(sorted(label))


def _grow(n: int, entry: list) -> tuple:
    """The next level of ``entry``, the ``_DAG`` entry of n, and the
    ``_labels`` of its reps: the classes with m edges, m the number of
    levels built, from the classes with m - 1 by single-edge extension.

    Each class is extended by the first non-edge of each twin orbit
    (``Graph.orbit_non_edges``): the other non-edges of an orbit give
    isomorphic children, so every child class is still reached.  Children
    are grouped by a vertex-invariant key, computed by ``_child_keys`` from
    their parent's labels, which the check of the parent's level computed
    from scratch, and the first child to reach a key, in its parent's
    labeling, is the class's rep; classes keep that order.  No canonical
    form is computed.  The reps share one int object per row value.

    Both keys are isomorphism invariants, so there are at most as many keys
    as classes reached, and at most as many of those as the Pólya count;
    equal counts mean one class per key.  The levels of n are keyed by the
    coarse key until one has fewer keys than the Pólya count: the entry is
    then marked fine, and that level and every later one at n are keyed by
    the fine key.  Any other key count than the Pólya count, or two reps
    with one class key computed from scratch (``_class_key``) in the round
    that built the level, so isomorphic, raises RuntimeError; the labels
    of that check are the ones returned.
    """
    counts, levels, fine, below = entry
    m = len(levels)
    count = counts[m] if m < len(counts) else 0
    while True:
        index = {}  # class key -> class index in order of first reach
        reps = []
        shared = {}  # row value -> the one int object the reps hold for it
        pairs = bytearray()
        child = array("I")
        start = array("I", [0])
        for p, rows in enumerate(levels[-1].reps):
            base = below[p * n:(p + 1) * n].tolist()
            orbit = Graph._from_adj(n, rows).orbit_non_edges()
            for (u, v), key in zip(orbit, _child_keys(rows, base, orbit, fine)):
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
    # the labels of each rep, kept as flat ints for the next level's keys
    labels, keys = array("I"), set()
    for rep in reps:
        label = _labels(rep)
        keys.add(_class_key(rep, fine, label))
        labels.extend(label)
    distinct = len(keys)
    if len(reps) != count or distinct != count:
        raise RuntimeError(
            f"enumeration found {distinct} classes under {len(reps)} keys at n={n} "
            f"with {m} edges; Pólya's count is {count}"
        )
    return _Level(reps, bytes(pairs), child, start), labels


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
    from the empty graph up to the first level with no free class, or the
    complete graph; classes are the reps of ``enumerate_levels`` in its
    order, as fresh lists of fresh graphs.

    The walk decides a property of graphs on n vertices, "free", that
    survives edge deletion.  It keeps a state for each free class of the
    current and the next level, in the labeling of the class's rep (for
    ``sat*``, a witness's class table), and False for a class that is not
    free; ``root`` is the state of the empty graph.  ``rule(g, state, u,
    v)``, called with a free class g, its state and a non-edge (u, v) of g
    whose child is still undecided, returns the state of g + uv in g's
    labeling, or False.

    The walk reads ``enumerate_levels`` one level ahead, so each level is
    built in that generator, and keeps its states to itself.  A child of a
    class that is not free is not free.  Any other class is decided once, on
    the first child to reach it: all its parents are free, so that child
    comes from the first parent in class order, by the first non-edge of
    each twin orbit, and is the labeled graph that trying every non-edge
    would reach it by and that the level took as the class's rep.  So the
    child's state is the rep's, with no relabeling.  A free class is
    saturated iff none of its children is free.  A level with no free class
    is yielded with no saturated class, and the walk ends there without
    reading the next level: no class above it is free.
    """
    levels = enumerate_levels(n)
    _, classes = next(levels)
    states = [root]
    for m in range(comb(n, 2) + 1):
        if all(state is False for state in states):
            # no class is free, so no child of one is: no later level holds one
            yield m, classes, []
            return
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
                # every child is decided, saturated or not: they are the next level
                for k in kids:
                    j = child[k]
                    if above[j] is None:
                        above[j] = rule(g, state, *divmod(pairs[k], n))
                if all(above[child[k]] is False for k in kids):
                    hits.append(g)
        yield m, classes, hits
        classes, states = ahead, above


def _pattern_free_rule(pat: Pattern, n: int):
    """(root, rule) of ``_saturated_levels`` for freedom from the pattern
    ``pat`` on n vertices, with True as every free class's state: g + uv is
    free iff no copy of the core goes through uv, that is, iff the maps
    through uv (``engine._maps_through``), planned once per walk, find none
    in g's rows."""
    plans = _through_plans([pat.core] if pat.order <= n else [], n)
    return (not exists_embedding(empty_graph(n), pat),
            lambda g, _, u, v: next(_maps_through(g.adj, plans, u, v), None) is None)


def _witness_rule(solver: RainbowSolver, n: int):
    """(root, rule) of ``_saturated_levels`` for rainbow-free colorability
    on n vertices.  A free class's state is a witness coloring as its class
    table (``engine.class_table``): n * n bytes, the class of edge xy at
    x * n + y and y * n + x, in the labeling of the class's rep.

    A child g + uv of a free class g takes a copy of g's bytes with the
    class that ``engine.extension`` finds for uv over them set at uv's two
    entries, with no search and no graph built: the rule reads g's rows and
    the maps through uv planned once per walk.  Only when there is no such
    class does the solver decide g + uv, and its witness is made a table
    once.  The witnesses stay out of the solver's cache: they depend on
    which parent reached a class first.
    """
    plans = _through_plans(solver.fitting_cores(n), n)

    def state(g, found):
        return False if found is None else bytes(class_table(g, found))

    def rule(g, witness, u, v):
        c = extension(witness, g.adj, plans, u, v)
        if c is None:
            h = g.with_edge(u, v)
            return state(h, solver.witness(h))
        table = bytearray(witness)
        table[u * n + v] = table[v * n + u] = c
        return bytes(table)

    empty = empty_graph(n)
    return state(empty, solver.witness(empty)), rule


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
    family of ``patterns``.  Given a list ``found``, every level the walk
    yields is scanned and its saturated classes appended.  Only the
    saturated classes reported are put in canonical form: the witnesses are
    their graph6, and ``found`` gets the canonical graphs, each level's in
    ascending canonical encoding."""
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

    Scans every level (not just the first successful one) up to the first
    with no rainbow-free colorable class, above which no graph is
    saturated; returns (saturated graphs ascending, SatNumberResult).
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

    ``classes`` is a witness of g, in its edge order, when one is known; it
    is kept as a class table (``engine.class_table``), a list, as a host of
    up to 64 vertices may use more classes than a byte holds.  Three kinds
    of pair are settled unsearched.  A pair uv for which the witness rule of
    the ``sat*`` walk (``engine.extension``) finds a class over the current
    witness is added, and the list gains that class at uv's two entries, in
    place; until a witness is known, no pair is.  A pair whose g + uv holds an
    obstruction of the catalogue or a prefix that ``solver`` refuted
    (``RainbowSolver.contains_refuted``) is rejected.  Any other pair is
    searched, and if it is added the solver's witness of the grown graph
    becomes the current one.  A rejected uv settles every pair from u's and
    v's twin classes under the current g: isomorphic graphs, kept rejected
    by downward closure."""
    n = g.n
    cores = solver.fitting_cores(n)
    plans = None  # planned on the first pair tried over a witness
    table = None if classes is None else class_table(g, classes)
    added, rejected = [], set()
    for u, v in pairs:
        if (u, v) in rejected:
            continue
        g2 = g.with_edge(u, v)
        c = None
        if table is not None:
            if plans is None:
                plans = _through_plans(cores, n)
            c = extension(table, g2.adj, plans, u, v)
        if c is not None:
            table[u * n + v] = table[v * n + u] = c
        else:
            found = None if solver.contains_refuted(g2) else solver.witness(g2)
            if found is None:
                twins = g.twin_classes()
                rejected.update((a, b) if a < b else (b, a)
                                for a in iter_bits(twins[u]) for b in iter_bits(twins[v]) if a != b)
                continue
            table = class_table(g2, found)
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
    return _add_greedily(g0, g0.non_edges(), solver, seed)[0]


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
