"""Proper edge colorings, rainbow copies, and the exact colorability search.

A proper edge coloring is treated as a partition of the edge set into
matchings, enumerated exactly once per color renaming via restricted-growth
assignment.  The central decision procedure answers: does a host graph admit
a proper edge coloring in which no copy of any pattern in a family has all
edge colors pairwise distinct ("rainbow")?

The search assigns classes edge by edge.  Edges that participate in no
pattern copy can never make a copy rainbow, so the backtracking runs over the
copy-covered edges only and every solution extends greedily to the rest.
Edges are colored in a fixed order, so on entering an edge the search knows
every copy that the edge completes.  It computes one mask of the classes the
edge may take: at most one new class, none used at either endpoint, and, for
each completed copy whose other edges already have pairwise distinct
classes, one of those classes.  Only the mask's classes are tried, lowest
first, so the first solution is the one a plain restricted-growth sweep
would meet first.  A search node is one class taken from such a mask: a
proper assignment that makes no copy rainbow.  ``node_limit`` (``--nodes``
on the command line) bounds these nodes in one search.

An UNCOLORABLE search also reports its refuted prefix: the positions up to
one past the last that ever took a class.  The search never entered a
position beyond that one, and each mask it computed depends only on earlier
positions and on the copies that lie wholly among them, so the subgraph on
the prefix's edges was swept exhaustively and is UNCOLORABLE by itself; by
downward closure, so is every graph it embeds in.

Copies are found by one depth-first placement search, ``_place``: from no
vertex to collect every copy (``_matches``), or from the two ends of one
host edge to meet each copy through it (``_maps_through``).

``rainbow_free_colorable`` searches the host whole.  Splitting a host into
components, sound when every pattern core is connected, is the job of
``saturation.RainbowSolver``, which then spends one budget per component.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import groupby

from .graphs import Graph, _Expired, _find, _union, automorphism_generators, induced_subgraph, iter_bits


class Status(Enum):
    COLORABLE = "COLORABLE"
    UNCOLORABLE = "UNCOLORABLE"
    INDETERMINATE = "INDETERMINATE"


# -- colorings ---------------------------------------------------------------


@dataclass(frozen=True)
class EdgeColoring:
    """Class assignment per edge, indexed by the host's lexicographic edge order."""

    classes: tuple

    def normalized(self) -> "EdgeColoring":
        """Relabel classes in first-occurrence order (restricted growth form)."""
        remap = {}
        out = []
        for c in self.classes:
            if c not in remap:
                remap[c] = len(remap)
            out.append(remap[c])
        return EdgeColoring(tuple(out))

    def to_json(self) -> dict:
        return {"classes": list(self.classes)}

    @classmethod
    def from_json(cls, obj) -> "EdgeColoring":
        return cls(tuple(int(c) for c in obj["classes"]))

    def as_lines(self, g: Graph) -> str:
        """One line per edge: 'u v class'."""
        return "\n".join(f"{u} {v} {c}" for (u, v), c in zip(g.edges, self.classes))


def is_proper(g: Graph, coloring: EdgeColoring) -> bool:
    """True iff no two incident edges share a class."""
    if len(coloring.classes) != len(g.edges):
        raise ValueError(
            f"coloring has {len(coloring.classes)} classes for {len(g.edges)} edges"
        )
    seen = [set() for _ in range(g.n)]
    for (u, v), c in zip(g.edges, coloring.classes):
        if c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    return True


# -- patterns and embeddings -------------------------------------------------


class Pattern:
    """A forbidden subgraph with its embedding machinery.

    Isolated vertices contribute nothing to edge sets; they are stripped off
    the core, and a copy of the pattern exists in a host iff the core embeds
    and the host has at least ``order`` vertices overall.
    """

    def __init__(self, graph: Graph, name: str | None = None):
        self.graph = graph
        self.name = name
        self.order = graph.n
        keep = [v for v in range(graph.n) if graph.degree(v) > 0]
        self.core, _ = induced_subgraph(graph, keep)
        self.core_connected = self.core.is_connected()

    def __repr__(self):
        tag = self.name or f"n={self.graph.n},m={self.graph.edge_count}"
        return f"Pattern({tag})"


@lru_cache(maxsize=256)
def as_pattern(obj) -> Pattern:
    """One Pattern per graph, the last 256 kept; a Pattern passes as itself."""
    return obj if isinstance(obj, Pattern) else Pattern(obj)


def _plan(pat: Graph, head=()) -> tuple:
    """(order, anchors): a vertex order that places ``head`` first, then at
    each step the unplaced vertex with the most placed neighbors, then the
    highest degree, then the least label; ``anchors[j]`` lists the earlier
    steps whose vertex is adjacent to order[j].  With no placed neighbor
    left, the order starts the next component at a highest-degree root."""
    order = list(head)
    placed = 0
    for v in head:
        placed |= 1 << v
    rest = [v for v in range(pat.n) if not placed >> v & 1]
    while rest:
        v = max(rest, key=lambda u: ((pat.adj[u] & placed).bit_count(), pat.degree(u), -u))
        order.append(v)
        placed |= 1 << v
        rest.remove(v)
    anchors = tuple(
        tuple(i for i in range(j) if pat.has_edge(order[i], v)) for j, v in enumerate(order)
    )
    return tuple(order), anchors


# the plan of each pattern graph, computed once
_match_order = lru_cache(maxsize=256)(_plan)


def _place(hadj, order, anchors, fits, above, head=(), deadline=None):
    """Injective maps of a pattern into the host with rows ``hadj`` that send
    pattern edges onto host edges, as the host vertex per pattern vertex.

    One depth-first search along a plan of k >= 1 steps: step j places
    order[j] on an unused host vertex of ``fits[j]``, adjacent to the images
    of the steps ``anchors[j]`` and above those of the steps ``above[j]``,
    lowest first.  The first ``len(head)`` steps sit on the host vertices
    ``head``, taken as given, and the search extends that partial map (as
    in VF2: Cordella et al., IEEE TPAMI 26, 2004).  A ``deadline`` is read
    every 4,096 placements; once it has passed, ``_Expired`` is raised.
    """
    k = len(order)
    assigned = [0] * k  # host vertex per pattern vertex
    image = [*head] + [0] * (k - len(head))  # host vertex per step
    used = 0
    for j, hv in enumerate(head):
        assigned[order[j]] = hv
        used |= 1 << hv
    # the search starts at the last head step, whose one candidate is its
    # head vertex, or else at step 0, which has no anchor and no above step
    top = j = len(head) - 1 if head else 0
    cand = [0] * k  # the untried host vertices of each step
    cand[j] = 1 << head[-1] if head else fits[0]
    placed = 0
    while True:
        c = cand[j]
        if not c:
            j -= 1
            if j < top:
                return
            used ^= 1 << image[j]
            continue
        bit = c & -c
        cand[j] = c ^ bit
        image[j] = hv = bit.bit_length() - 1
        assigned[order[j]] = hv
        if deadline is not None:
            placed += 1
            if not placed & 4095 and time.monotonic() > deadline:
                raise _Expired
        if j + 1 == k:
            yield tuple(assigned)
            continue
        used |= bit
        j += 1
        c = fits[j] & ~used
        for i in anchors[j]:
            c &= hadj[image[i]]
        for i in above[j]:
            c &= -(2 << image[i])  # host vertices above image[i]
        cand[j] = c


def _matches(host: Graph, pat: Graph, above=None, deadline=None):
    """Injective maps sending pattern edges onto host edges.

    From a graph onto itself these are its automorphisms: a bijection that
    sends edges into edges sends them onto edges.  These are ``_place``'s
    maps along ``_match_order``, each step kept to the host vertices of at
    least its pattern vertex's degree; ``above[j]`` lists earlier steps whose
    host vertex the one placed at step j must exceed, and ``deadline`` is
    read as ``_place`` reads it.
    """
    if pat.n > host.n:
        return iter(())
    if pat.n == 0:
        return iter([()])
    order, anchors = _match_order(pat)
    hadj = host.adj
    by_degree = {}  # pattern degree -> the host vertices of at least that degree
    fits = []  # per step, the host vertices of a suitable degree
    for v in order:
        want = pat.adj[v].bit_count()
        mask = by_degree.get(want)
        if mask is None:
            mask = 0
            for hv, row in enumerate(hadj):
                if row.bit_count() >= want:
                    mask |= 1 << hv
            by_degree[want] = mask
        fits.append(mask)
    if above is None:
        above = [()] * pat.n
    return _place(hadj, order, anchors, fits, above, deadline=deadline)


@lru_cache(maxsize=256)
def _symmetry(core: Graph) -> tuple:
    """The ``above`` conditions that admit one map per copy.

    One pass over the automorphisms.  Along ``_match_order``, the group
    fixing the first j vertices moves vertex order[j] within an orbit; the
    conditions ask every other vertex of that orbit to land above it.  The
    maps onto one copy's edge set are the automorphism orbit of any one of
    them, and exactly one of those meets every condition (Grochow and
    Kellis, RECOMB 2007), so each copy is found once.
    """
    order, _ = _match_order(core)
    step = {v: j for j, v in enumerate(order)}
    above = [set() for _ in order]
    for aut in _matches(core, core):
        for j, v in enumerate(order):
            if aut[v] != v:
                # aut fixes order[:j], so aut[v] is placed after step j
                above[step[aut[v]]].add(j)
                break
    return tuple(tuple(sorted(a)) for a in above)


@lru_cache(maxsize=256)
def _arc_orbits(core: Graph) -> tuple:
    """One arc (a, b), the least, from each orbit of Aut(core) on the arcs
    of core (the ordered pairs of adjacent vertices), as a plan that places
    the core with a and b first: ``_plan``'s (order, anchors) and the
    core's edges other than ab.

    The orbits are merged in a union-find on the arcs, arc (a, b) at
    a * n + b, under generators of the group, not its every element (5,040
    of them for K7): the automorphisms that the canonical search meets
    (``graphs.automorphism_generators``) and the transpositions of each
    twin class's least vertex with the others, which together generate it.
    Each orbit's root is its least index, so its least arc.
    """
    n = core.n
    gens = automorphism_generators(core)
    for cls in set(core.twin_classes()):
        a = (cls & -cls).bit_length() - 1
        for b in iter_bits(cls & (cls - 1)):
            perm = list(range(n))
            perm[a], perm[b] = b, a
            gens.append(perm)
    arcs = [(a, b) for a in range(n) for b in iter_bits(core.adj[a])]
    orbit = list(range(n * n))
    for perm in gens:
        for a, b in arcs:
            _union(orbit, a * n + b, perm[a] * n + perm[b])
    out = []
    for a, b in arcs:
        if _find(orbit, a * n + b) == a * n + b:
            others = tuple(e for e in core.edges if e != (a, b) and e != (b, a))
            out.append((*_plan(core, (a, b)), others))
    return tuple(out)


def _through_plans(cores, n: int) -> tuple:
    """The plans of ``_maps_through`` for the pattern graphs ``cores`` in
    hosts on n vertices: per core and arc orbit (``_arc_orbits``), the
    ``_place`` plan (order, anchors, fits, above) that lets every host vertex
    take every step under no ``above`` condition, and the core's edges other
    than the arc's.  A caller that meets many edges builds them once."""
    everywhere = (1 << n) - 1
    return tuple((order, anchors, (everywhere,) * len(order), ((),) * len(order), others)
                 for core in cores for order, anchors, others in _arc_orbits(core))


def _maps_through(rows, plans, u: int, v: int):
    """Maps of the pattern graphs planned in ``plans`` (``_through_plans``)
    into g + uv, g the graph with adjacency rows ``rows``, that send an edge
    onto uv, each with the core's other edges: every copy through uv is met
    at least once.  Whether g holds uv already does not matter: the search
    takes the images of the arc's ends as given and never reads that pair.

    Such a copy is a map sending some arc (a, b) of the core onto (u, v).
    Composed with an automorphism of the core it sends every arc of (a, b)'s
    orbit there, so one ``_place`` search per arc orbit, started from a on u
    and b on v, finds it.
    """
    for order, anchors, fits, above, others in plans:
        for f in _place(rows, order, anchors, fits, above, (u, v)):
            yield f, others


def class_table(g: Graph, classes) -> list:
    """The class table of a proper edge coloring of g, given as ``classes``
    in g's edge order: a list holding the class of edge xy at x * n + y and
    at y * n + x, and 0 at the other pairs.  ``extension`` reads any int
    sequence so laid out: the ``sat*`` walk keeps bytes, which hold its
    classes for n <= 9, and greedy addition, on up to 64 vertices, a list."""
    n = g.n
    color = [0] * (n * n)
    for (x, y), c in zip(g.edges, classes):
        color[x * n + y] = color[y * n + x] = c
    return color


def extension(color, rows, plans, u: int, v: int):
    """The least class for the new edge uv of g + uv that keeps g's coloring,
    the class table ``color`` (``class_table``), proper and free of rainbow
    copies of the cores planned in ``plans`` (``_through_plans``), given
    that it is free of them on g; None if no class does.  ``rows`` are the
    adjacency rows of g or of g + uv: the table's entry at uv is not read.

    The class is one used at neither u nor v, and, for each copy through uv
    whose other edges already have pairwise distinct classes, one of those
    classes.  Copies that avoid uv keep their classes from g.  The least
    class used at neither end is at most the fresh one (one more than the
    greatest class of g), since the classes at u and v are all below it, so
    no bound on the classes is needed; and with no copy through uv the rule
    always finds a class.
    """
    n = len(rows)
    used = 0  # the classes at u and v, over g's edges
    for x, y in ((u, v), (v, u)):
        row = rows[x] & ~(1 << y)
        base = x * n
        while row:
            low = row & -row
            used |= 1 << color[base + low.bit_length() - 1]
            row ^= low
    allowed = ~used
    for f, others in _maps_through(rows, plans, u, v):
        seen = 0
        for p, q in others:
            b = 1 << color[f[p] * n + f[q]]
            if seen & b:
                break
            seen |= b
        else:
            allowed &= seen
            if not allowed:
                return None
    return (allowed & -allowed).bit_length() - 1


def _copies(g: Graph, core: Graph, deadline=None) -> list:
    """Edge sets of every copy of a pattern core in g, as sorted edge-index
    tuples.

    The conditions of ``_symmetry`` leave one map per copy, so each edge set
    is listed once, in the order the maps are found.  Raises ``_Expired``
    once ``deadline`` has passed.
    """
    index = g.edge_index
    pedges = core.edges
    found = []
    for assigned in _matches(g, core, above=_symmetry(core), deadline=deadline):
        ids = []
        for pu, pv in pedges:
            hu, hv = assigned[pu], assigned[pv]
            ids.append(index[(hu, hv) if hu < hv else (hv, hu)])
        ids.sort()
        found.append(tuple(ids))
    return found


def enumerate_embeddings(g: Graph, pattern) -> tuple:
    """Every copy of the pattern in g as a sorted edge-index tuple, each edge
    set listed exactly once, in ascending order."""
    pat = as_pattern(pattern)
    if pat.order > g.n:
        return ()
    return tuple(sorted(_copies(g, pat.core)))


def exists_embedding(g: Graph, pattern, deadline=None) -> bool:
    """Whether the pattern has a copy in g; raises ``_Expired`` once
    ``deadline`` has passed."""
    pat = as_pattern(pattern)
    if pat.order > g.n:
        return False
    for _ in _matches(g, pat.core, deadline=deadline):
        return True
    return False


def find_rainbow_embedding(g: Graph, coloring: EdgeColoring, pattern):
    """First copy of the pattern whose edge classes are pairwise distinct.

    Requires a proper coloring; returns the edge-index tuple or None.
    """
    if not is_proper(g, coloring):
        raise ValueError("coloring is not proper")
    for emb in enumerate_embeddings(g, pattern):
        classes = [coloring.classes[i] for i in emb]
        if len(set(classes)) == len(classes):
            return emb
    return None


# -- the exact search --------------------------------------------------------


@dataclass
class SearchStats:
    nodes: int = 0
    searches: int = 1
    # an UNCOLORABLE search's refuted prefix: host edge indices whose
    # subgraph is UNCOLORABLE by itself (see the module docstring)
    refuted: tuple | None = None


@dataclass
class ColorabilityResult:
    status: Status
    witness: EdgeColoring | None
    stats: SearchStats = field(default_factory=SearchStats)


def _collect_embeddings(g: Graph, patterns, deadline=None) -> list:
    """Deduplicated copy edge sets of every pattern core in the host.

    Callers drop the patterns that do not fit the host first (a core may fit
    where its isolated vertices do not).  Drops any copy that contains
    another copy as a subset: if the smaller one is non-rainbow, the larger
    one is too, so only minimal edge sets constrain the search.  Raises
    ``_Expired`` once ``deadline`` has passed.
    """
    sets = set()
    for pat in patterns:
        sets.update(_copies(g, pat.core, deadline))
    by_size = sorted(sets, key=lambda t: (len(t), t))
    if not by_size or len(by_size[0]) == len(by_size[-1]):
        # distinct copies of one size never contain one another
        return by_size
    kept = []
    below = []  # kept copies of the sizes already passed, as sets
    for _, group in groupby(by_size, key=len):
        same = []
        for emb in group:
            s = frozenset(emb)
            if not any(other <= s for other in below):
                kept.append(emb)
                same.append(s)
        below.extend(same)
    return kept


def _search_order(embeddings: list) -> list:
    """Edge order that completes copies early: chain copies by overlap.

    The first copy leads; each next one shares the most edges with those
    placed, ties going to the least edge tuple.  Overlaps only grow, so a
    heap with one entry per overlap change yields every pick.
    """
    containing = {}
    for i, emb in enumerate(embeddings):
        for e in emb:
            containing.setdefault(e, []).append(i)
    overlap = [0] * len(embeddings)  # None once picked
    heap = [(0, emb, i) for i, emb in enumerate(embeddings)]
    heapq.heapify(heap)
    order = []
    placed = set()
    pick = 0 if embeddings else None
    while pick is not None:
        overlap[pick] = None
        for e in sorted(embeddings[pick]):
            if e not in placed:
                placed.add(e)
                order.append(e)
                for j in containing[e]:
                    if overlap[j] is not None:
                        overlap[j] += 1
                        heapq.heappush(heap, (-overlap[j], embeddings[j], j))
        pick = None
        while heap and pick is None:
            neg, _, j = heapq.heappop(heap)
            if overlap[j] == -neg:
                pick = j
    return order


def _search_component(g: Graph, embeddings, node_limit=None, deadline=None):
    """Exhaustive restricted-growth search over the copy-covered edges.

    Entering position t computes its class mask once (see the module
    docstring); backtracking resumes from the untried rest of that mask.
    More than ``node_limit`` nodes, or a clock past ``deadline``, gives
    INDETERMINATE.  Returns (status, per-edge classes or None, stats).  Edge
    classes cover all host edges when a witness is found; an UNCOLORABLE
    result's stats carry its refuted prefix, ``order[:d + 2]`` for d the
    last position whose ``bits`` entry is set (``bits`` is never cleared).
    """
    if any(len(e) == 0 for e in embeddings):
        # an edgeless pattern fits the host: every coloring is "rainbow"
        return Status.UNCOLORABLE, None, SearchStats(refuted=())
    if deadline is not None and time.monotonic() > deadline:
        # collecting the copies may already have used up the time budget
        return Status.INDETERMINATE, None, SearchStats()

    order = _search_order(embeddings)
    T = len(order)
    pos = {e: i for i, e in enumerate(order)}
    by_last = [[] for _ in range(T)]  # per position, the other positions of each copy ending there
    for emb in embeddings:
        pt = sorted(pos[e] for e in emb)
        by_last[pt[-1]].append(pt[:-1])

    edges = g.edges
    endpoints = [edges[e] for e in order]
    used = [0] * g.n
    bits = [0] * T  # the class assigned at each position, as a one-bit mask
    cand = [0] * T  # the allowed classes not yet tried at each position
    kat = [0] * T  # the next new class at each position
    nodes = 0
    t = k = 0
    while True:
        if t == T:
            status = Status.COLORABLE
            break
        u, v = endpoints[t]
        allowed = ((2 << k) - 1) & ~(used[u] | used[v])
        for prefix in by_last[t]:
            if not allowed:
                break
            seen = 0
            for p in prefix:
                b = bits[p]
                if seen & b:
                    break
                seen |= b
            else:
                allowed &= seen
        kat[t] = k
        while not allowed:
            t -= 1
            if t < 0:
                break
            u, v = endpoints[t]
            b = bits[t]
            used[u] ^= b
            used[v] ^= b
            allowed = cand[t]
        if t < 0:
            status = Status.UNCOLORABLE
            break
        bit = allowed & -allowed
        cand[t] = allowed ^ bit
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            status = Status.INDETERMINATE
            break
        # the clock is only read periodically; node budgets are exact
        if deadline is not None and not nodes & 4095 and time.monotonic() > deadline:
            status = Status.INDETERMINATE
            break
        bits[t] = bit
        used[u] |= bit
        used[v] |= bit
        k = kat[t]
        if bit >> k:
            k += 1
        t += 1

    stats = SearchStats(nodes=nodes)
    if status is Status.UNCOLORABLE:
        d = T - 1
        while d >= 0 and not bits[d]:
            d -= 1
        # no position past d + 1 was entered
        stats.refuted = tuple(order[:d + 2])
    if status is not Status.COLORABLE:
        return status, None, stats
    # copy-free edges can never complete a rainbow copy: color them greedily
    solution = {e: b.bit_length() - 1 for e, b in zip(order, bits)}
    return status, first_fit_classes(g, solution), stats


def first_fit_classes(g: Graph, fixed: dict) -> list:
    """Classes for every edge of g, in edge order.

    ``fixed`` maps edge indices to their classes; every other edge takes the
    least class unused at both of its ends, in edge order, so the result is
    proper whenever the fixed part is.
    """
    edges = g.edges
    used = [0] * g.n
    for e, c in fixed.items():
        u, v = edges[e]
        used[u] |= 1 << c
        used[v] |= 1 << c
    out = []
    for e, (u, v) in enumerate(edges):
        c = fixed.get(e)
        if c is None:
            forbidden = used[u] | used[v]
            c = 0
            while (forbidden >> c) & 1:
                c += 1
            used[u] |= 1 << c
            used[v] |= 1 << c
        out.append(c)
    return out


def rainbow_free_colorable(
    g: Graph,
    family,
    *,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> ColorabilityResult:
    """Decide whether g has a proper edge coloring with no rainbow family copy.

    Exhaustive and exact: COLORABLE comes with a witness coloring,
    UNCOLORABLE means every proper coloring was refuted.  Exceeding the node
    or time budget yields INDETERMINATE, never a silent UNCOLORABLE.  The
    host is searched whole; ``RainbowSolver`` splits it into components.
    """
    patterns = [as_pattern(p) for p in family]
    if not patterns:
        raise ValueError("empty pattern family")
    deadline = None if time_limit is None else time.monotonic() + time_limit
    try:
        copies = _collect_embeddings(g, [p for p in patterns if p.order <= g.n], deadline)
    except _Expired:
        return ColorabilityResult(Status.INDETERMINATE, None, SearchStats())
    status, classes, stats = _search_component(g, copies, node_limit, deadline)
    witness = None if classes is None else EdgeColoring(tuple(classes)).normalized()
    return ColorabilityResult(status, witness, stats)
