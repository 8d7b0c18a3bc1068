"""Explicit saturated graphs and colorings.

Each construction returns concrete certificates: a graph, usually with a
proper edge coloring that avoids rainbow copies of the target pattern, whose
saturation is re-verified by the exact engine rather than asserted.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .engine import as_pattern, normalized
from .graphs import (
    Graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    graph6_encode,
    independent_sets_of_size,
    induced_subgraph,
    is_even_cycle_free,
    join,
    star,
    wheel,
)
from .saturation import RainbowSolver, _add_greedily, _in_canonical_form, greedy_saturate


@dataclass(frozen=True)
class ColoredGraph:
    graph: Graph
    coloring: tuple  # one class per edge of graph, in its edge order


def ehm_graph(n: int, r: int) -> Graph:
    """Minimum K_r-saturated graph: K_{r-2} joined with n-r+2 isolated vertices."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    if r == 2:
        return empty_graph(n)
    return join(complete_graph(r - 2), empty_graph(n - r + 2))


def p4_construction(n: int) -> ColoredGraph:
    """Rainbow P4-saturated graph on n >= 16 vertices.

    With a = (-n) mod 5 the graph is a disjoint union of a copies of K4 and
    (n - 4a)/5 copies of K_{1,4}, for (4n + 14a)/5 edges.  Each K4 gets its
    unique proper 3-coloring (the one-factorization), which has no rainbow
    P4; each star trivially has none.
    """
    if n < 16:
        raise ValueError("construction needs n >= 16")
    a = (-n) % 5
    s = (n - 4 * a) // 5
    g = disjoint_union([complete_graph(4)] * a + [star(4)] * s)
    classes = {}
    base = 0
    for i in range(a):
        o = 4 * i
        # one-factorization of K4: three perfect matchings
        classes[(o, o + 1)] = classes[(o + 2, o + 3)] = base
        classes[(o, o + 2)] = classes[(o + 1, o + 3)] = base + 1
        classes[(o, o + 3)] = classes[(o + 1, o + 2)] = base + 2
        base += 3
    for i in range(s):
        o = 4 * a + 5 * i
        for k in range(4):
            classes[(o, o + k + 1)] = base + k
        base += 4
    return ColoredGraph(g, normalized(classes[e] for e in g.edges))


def wheel_construction(n: int) -> ColoredGraph:
    """Rainbow C4-saturated wheel on n >= 6 vertices with its 2(n-1) edges.

    Hub is vertex n-1 over the rim cycle 0..n-2.  Spoke i shares its color
    with the rim edge two steps ahead, so each of the n-1 four-cycles
    (rim, rim, spoke, spoke) repeats a color.
    """
    if n < 6:
        raise ValueError("wheel coloring needs n >= 6")
    g = wheel(n)
    rim = n - 1
    classes = {}
    for i in range(rim):
        classes[(i, rim)] = i
        a, b = (i + 1) % rim, (i + 2) % rim
        classes[(min(a, b), max(a, b))] = i
    return ColoredGraph(g, normalized(classes[e] for e in g.edges))


# -- gadgets -----------------------------------------------------------------


@dataclass(frozen=True)
class Gadget:
    name: str
    graph: Graph
    marked_edge: tuple


# name -> (vertex count, edges); the last edge is the marked one, the added
# edge that defines the gadget
_GADGETS = {
    # adding a chord between two rim vertices of a wheel creates one of these.
    # GA: five consecutive rim vertices 0..4 under hub 5, plus the chord (1,3)
    "GA": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5),
               (1, 3)]),
    # GB: two rim windows 0-1-2 and 3-4-5 under hub 6, chord between the centers
    "GB": (7, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 6), (1, 6), (2, 6), (3, 6), (4, 6),
               (5, 6), (1, 4)]),
    # K_{1,4} plus an edge between two leaves: forces a rainbow P4
    "star_plus_chord": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]),
    # K_{1,4} plus a pendant on a leaf: forces a rainbow P4
    "star_plus_tail": (6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)]),
    # the three acyclic components on 2..3 edges whose closing edge does not
    # force a rainbow P4
    "cherry_closed": (3, [(0, 1), (0, 2), (1, 2)]),
    "claw_closed": (4, [(0, 1), (0, 2), (0, 3), (1, 2)]),
    "path_closed": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}


def gadget(kind: str) -> Gadget:
    """Fixed small graphs, each with the added edge that defines it marked."""
    if kind not in _GADGETS:
        raise ValueError(f"unknown gadget {kind!r}; known: {', '.join(sorted(_GADGETS))}")
    n, edges = _GADGETS[kind]
    return Gadget(kind, Graph(n, edges), edges[-1])


def gadget_names() -> list:
    return sorted(_GADGETS)


# -- family ladder -------------------------------------------------------------


@dataclass(frozen=True)
class FamilyLadder:
    """Pattern families obtained by repeatedly deleting maximum independent sets.

    Level 0 is the original pattern alone; level i+1 collects every graph of
    level i minus an independent set of the level's maximum independence
    number, deduplicated up to isomorphism.  The ladder stops at the first
    level containing a bipartite graph.
    """

    levels: tuple
    alphas: tuple
    orders: tuple

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def guaranteed_sizes(self) -> list:
        """The independent-set size that suffices for the lift into each
        level but the last: h^3 + h, h the order of the level's patterns."""
        return [order**3 + order for order in self.orders[:-1]]


def build_family_ladder(h) -> FamilyLadder:
    """Ladder of pattern families for an even-cycle-free pattern.

    Every level consists of induced subgraphs of the original pattern, so
    even-cycle-freeness is inherited and the terminating bipartite members
    are necessarily forests (asserted).
    """
    pat = as_pattern(h)
    if not is_even_cycle_free(pat.graph):
        raise ValueError("pattern has an induced even cycle")
    levels = [_in_canonical_form([pat.graph])]
    alphas = []
    while not any(f.is_bipartite() for f in levels[-1]):
        current = levels[-1]
        # independent sets shrink to independent sets, so alpha is the
        # largest k at which some member has one
        alpha = max(k for f in current for k in range(f.n + 1)
                    if next(independent_sets_of_size(f, k), None) is not None)
        levels.append(_in_canonical_form(
            induced_subgraph(f, set(range(f.n)).difference(X))[0]
            for f in current for X in independent_sets_of_size(f, alpha)))
        alphas.append(alpha)
    for f in levels[-1]:
        if f.is_bipartite():
            assert f.is_forest(), "bipartite ladder member is not a forest"
    return FamilyLadder(
        tuple(tuple(level) for level in levels),
        tuple(alphas),
        tuple(level[0].n for level in levels),
    )


@dataclass
class LadderResult:
    graph: Graph
    trace: dict


def lift_sizes(ladder: FamilyLadder, n: int) -> list:
    """Independent-set size per lift, largest first by level index.

    The guaranteed-sufficient size for the lift into level i is h_i^3 + h_i
    (``FamilyLadder.guaranteed_sizes``); that counting bound is what makes the
    construction work unconditionally, but it needs far more vertices than
    desk scale allows.  When n is too small the sizes are clamped: the
    largest one above its floor of alpha(level i) is decremented until the
    base level keeps at least one vertex.  The result is always re-verified
    by the engine, so a clamped construction never smuggles in an unchecked
    claim.
    """
    sizes = ladder.guaranteed_sizes
    floors = list(ladder.alphas)
    budget = n - 1
    while sum(sizes) > budget:
        candidates = [i for i in range(len(sizes)) if sizes[i] > floors[i]]
        if not candidates:
            raise ValueError(
                f"n={n} cannot host the construction (needs at least {sum(floors) + 1})"
            )
        idx = max(candidates, key=lambda i: (sizes[i], -i))
        sizes[idx] -= 1
    return sizes


def ladder_construction(h, n: int, *, node_limit=None, time_limit=None) -> LadderResult:
    """Bottom-up rainbow saturated construction for an even-cycle-free pattern.

    The base level greedily saturates an edgeless graph against the forest
    members of the last family.  Each lift joins a fresh independent set to
    the current graph, then patches: any pair inside the new set whose edge
    keeps rainbow-free colorability is added, one search per twin orbit of a
    rejected pair; an exhausted budget raises SearchAborted, a pair settled
    unsearched cannot.  The final graph's saturation is checked by the caller
    through the exact engine, not assumed.
    """
    ladder = build_family_ladder(h)
    k = ladder.depth
    sizes = lift_sizes(ladder, n)
    base_order = n - sum(sizes)
    forests = [f for f in ladder.levels[k] if f.is_forest()]
    g = greedy_saturate(
        empty_graph(base_order), forests, node_limit=node_limit, time_limit=time_limit
    )
    trace = {
        "levels": [[graph6_encode(f) for f in level] for level in ladder.levels],
        "alphas": list(ladder.alphas),
        "orders": list(ladder.orders),
        "guaranteed_sizes": ladder.guaranteed_sizes,
        "lift_sizes": list(sizes),
        "base_order": base_order,
        "base": graph6_encode(g),
        "lifts": [],
    }
    for i in range(k, 0, -1):
        isize = sizes[i - 1]
        g = join(g, empty_graph(isize))
        iverts = range(g.n - isize, g.n)
        solver = RainbowSolver(
            list(ladder.levels[i - 1]), node_limit=node_limit, time_limit=time_limit
        )
        g, patched = _add_greedily(g, combinations(iverts, 2), solver)
        trace["lifts"].append({
            "level": i - 1, "independent_set_size": isize,
            "patched_edges": [list(e) for e in patched],
        })
    return LadderResult(g, trace)
