import random
import time
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsat import (
    Graph,
    Pattern,
    RainbowSolver,
    Status,
    complete_graph,
    cycle,
    disjoint_union,
    empty_graph,
    enumerate_embeddings,
    exists_embedding,
    find_rainbow_embedding,
    is_proper,
    path,
    rainbow_free_colorable,
    star,
    wheel,
)
from rainbowsat.cli import main
from rainbowsat.constructions import wheel_construction
from rainbowsat.engine import (
    _arc_orbits,
    _collect_embeddings,
    _copies,
    _maps_through,
    _match_order,
    _matches,
    _plan,
    _search_component,
    _search_order,
    _through_plans,
    as_pattern,
    class_table,
    extension,
    normalized,
)
from rainbowsat.graphs import complete_bipartite, induced_subgraph, iter_bits
from rainbowsat.oracle import brute_embeddings, naive_rainbow_free_colorable, set_partitions

from .strategies import graphs


def random_graph(rng, n, m=None):
    pairs = list(combinations(range(n), 2))
    m = len(pairs) if m is None else min(m, len(pairs))
    return Graph(n, rng.sample(pairs, rng.randint(0, m)))


# -- properness ---------------------------------------------------------------


def test_wheel_coloring_is_proper():
    cg = wheel_construction(8)
    assert is_proper(cg.graph, cg.coloring)


def test_star_single_class_improper():
    assert not is_proper(star(3), (0, 0, 0))


def test_matching_single_class_proper():
    m = Graph(4, [(0, 1), (2, 3)])
    assert is_proper(m, (0, 0))


def test_is_proper_size_mismatch():
    with pytest.raises(ValueError):
        is_proper(path(3), (0,))


def test_normalized_restricted_growth():
    assert normalized((5, 2, 5, 7)) == (0, 1, 0, 2)


def test_coloring_text_roundtrip(capsys):
    # the witness (0, 1, 0) of P4 prints one 'u v class' line per edge
    assert rainbow_free_colorable(path(4), [path(4)]).witness == (0, 1, 0)
    assert main(["colorable", "P4", "P4"]) == 0
    assert capsys.readouterr().out == "COLORABLE\n0 1 0\n1 2 1\n2 3 0\n"


# -- embeddings ----------------------------------------------------------------


def test_embedding_counts():
    assert len(enumerate_embeddings(complete_graph(4), path(4))) == 12
    assert len(enumerate_embeddings(wheel(8), cycle(4))) == 7
    assert len(enumerate_embeddings(path(4), cycle(4))) == 0


def test_embeddings_match_brute_force():
    rng = random.Random(21)
    pats = [path(3), path(4), cycle(4), complete_graph(3), star(3)]
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7))
        for h in pats:
            fast = set(enumerate_embeddings(g, h))
            assert fast == brute_embeddings(g, h)


def test_automorphism_counts():
    # the maps of a core onto itself are its automorphisms
    for core, order in ((path(4), 2), (complete_graph(4), 24), (cycle(4), 8), (star(3), 6)):
        assert len(list(_matches(core, core))) == order


def test_exists_embedding():
    assert exists_embedding(wheel(8), cycle(4))
    assert not exists_embedding(path(5), cycle(3))


# -- rainbow copies -------------------------------------------------------------


def test_one_factorized_k4_has_no_rainbow_p4():
    g = complete_graph(4)
    res = rainbow_free_colorable(g, [path(4)])
    assert res.status is Status.COLORABLE
    assert find_rainbow_embedding(g, res.witness, path(4)) is None


def test_rainbow_path_found():
    g = path(4)
    emb = find_rainbow_embedding(g, (0, 1, 2), path(4))
    assert emb == (0, 1, 2)


def test_every_proper_p3_is_rainbow():
    g = path(3)
    for c in [(0, 1), (1, 0)]:
        if is_proper(g, c):
            assert find_rainbow_embedding(g, c, path(3)) is not None


def test_find_rainbow_rejects_improper():
    with pytest.raises(ValueError):
        find_rainbow_embedding(star(3), (0, 0, 0), path(3))


# -- colorability ---------------------------------------------------------------


def test_too_few_edges_is_colorable():
    res = rainbow_free_colorable(path(3), [complete_graph(4)])
    assert res.status is Status.COLORABLE


def test_empty_host_colorable():
    res = rainbow_free_colorable(empty_graph(5), [path(3)])
    assert res.status is Status.COLORABLE
    assert res.witness == ()


def test_k2_pattern_degenerate():
    # any edge forms a rainbow copy of K2 under any coloring
    assert rainbow_free_colorable(path(2), [complete_graph(2)]).status is Status.UNCOLORABLE
    assert rainbow_free_colorable(empty_graph(4), [complete_graph(2)]).status is Status.COLORABLE


def test_pattern_with_isolated_vertex_needs_host_room():
    pat = disjoint_union([complete_graph(3), empty_graph(1)])
    # a bare triangle has no room for the isolated vertex of the pattern
    assert rainbow_free_colorable(complete_graph(3), [pat]).status is Status.COLORABLE
    host = disjoint_union([complete_graph(3), empty_graph(1)])
    assert rainbow_free_colorable(host, [pat]).status is Status.UNCOLORABLE
    # the solver splits the host and searches the triangle alone: the pattern
    # fits the whole host, so its core alone must be refused there
    solver = RainbowSolver([pat])
    res = solver.colorability(host)
    assert (res.status, res.stats.searches) == (Status.UNCOLORABLE, 1)
    # K3 + E2 searches the same triangle for the same core: a cache hit
    res = solver.colorability(disjoint_union([complete_graph(3), empty_graph(2)]))
    assert (res.status, res.stats.searches) == (Status.UNCOLORABLE, 0)
    assert solver.colorability(complete_graph(3)).status is Status.COLORABLE


def test_witness_is_valid():
    rng = random.Random(31)
    pats = [path(4), cycle(4), complete_graph(3)]
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 7))
        res = rainbow_free_colorable(g, pats)
        if res.status is Status.COLORABLE:
            assert is_proper(g, res.witness)
            for h in pats:
                assert find_rainbow_embedding(g, res.witness, h) is None


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=6, max_edges=9))
def test_restriction_closure(g):
    # deleting an edge preserves colorability: restrict the witness
    fam = [path(4), cycle(4)]
    res = rainbow_free_colorable(g, fam)
    if res.status is Status.COLORABLE:
        for u, v in list(g.edges)[:3]:
            sub = Graph(g.n, [e for e in g.edges if e != (u, v)])
            assert rainbow_free_colorable(sub, fam).status is Status.COLORABLE


def test_budget_exhaustion_is_indeterminate():
    res = rainbow_free_colorable(complete_graph(6), [cycle(4)], node_limit=3)
    assert res.status is Status.INDETERMINATE
    assert res.witness is None


def test_time_budget_spent_before_the_search_is_indeterminate():
    start = time.monotonic()
    res = rainbow_free_colorable(complete_graph(14), [complete_graph(5)], time_limit=0.5)
    assert res.status is Status.INDETERMINATE
    assert time.monotonic() - start < 2.5
    # a zero budget is a budget, spent before the search starts
    res = rainbow_free_colorable(wheel(12), [cycle(4)], time_limit=0)
    assert (res.status, res.stats.nodes) == (Status.INDETERMINATE, 0)
    # a deadline already passed stops the search before its first node
    g = complete_graph(6)
    status, classes, stats = _search_component(
        g, _collect_embeddings(g, [Pattern(cycle(4))]), deadline=time.monotonic() - 1
    )
    assert (status, classes, stats.nodes) == (Status.INDETERMINATE, None, 0)


def closes_no_rainbow(g, order, copies, blocks):
    """Whether classes ``blocks`` on the first len(blocks) edges of ``order``
    are proper and leave every copy among those edges non-rainbow."""
    at = {e: i for i, e in enumerate(order)}
    ends = [set(g.edges[e]) for e in order[: len(blocks)]]
    for i, j in combinations(range(len(blocks)), 2):
        if blocks[i] == blocks[j] and ends[i] & ends[j]:
            return False
    for emb in copies:
        pts = [at[e] for e in emb]
        if max(pts) < len(blocks) and len({blocks[p] for p in pts}) == len(pts):
            return False
    return True


# patterns with non-rainbow proper colorings (every proper P3, C3 or K1,3 is rainbow)
ORDER_PATTERNS = [path(4), path(5), cycle(4), cycle(5), disjoint_union([path(2), path(2)])]


@settings(max_examples=150, deadline=None)
@given(
    graphs(min_n=3, max_n=6, max_edges=8),
    st.lists(st.sampled_from(ORDER_PATTERNS), min_size=1, max_size=2),
)
def test_witness_is_the_first_rainbow_free_string(g, family):
    # set_partitions lists strings in lexicographic order: a pruning step that
    # skipped a solution or reordered the search would return a later one
    copies = _collect_embeddings(g, [Pattern(h) for h in family if h.n <= g.n])
    order = _search_order(copies)
    status, classes, _ = _search_component(g, copies)
    first = next(
        (b for b in set_partitions(len(order)) if closes_no_rainbow(g, order, copies, b)), None
    )
    if first is None:
        assert status is Status.UNCOLORABLE
    else:
        assert status is Status.COLORABLE
        assert [classes[e] for e in order] == first


def test_a_node_is_a_proper_assignment_closing_no_rainbow_copy():
    host, fam = wheel(5), [cycle(4)]
    full = rainbow_free_colorable(host, fam)
    assert full.status is Status.UNCOLORABLE
    nodes = full.stats.nodes
    # an exhaustive search visits every such prefix of the search order once
    copies = _collect_embeddings(host, [Pattern(cycle(4))])
    order = _search_order(copies)
    assert nodes == sum(
        closes_no_rainbow(host, order, copies, b)
        for length in range(1, len(order) + 1)
        for b in set_partitions(length)
    )
    assert rainbow_free_colorable(host, fam, node_limit=nodes).status is Status.UNCOLORABLE
    assert rainbow_free_colorable(host, fam, node_limit=nodes - 1).status is Status.INDETERMINATE


def test_time_budget_bounds_copy_collection():
    # K36 holds 376,992 copies of K5: collecting them outlasts the budget
    start = time.monotonic()
    res = rainbow_free_colorable(complete_graph(36), [complete_graph(5)], time_limit=0.5)
    assert res.status is Status.INDETERMINATE
    assert time.monotonic() - start < 1.5


# -- copy collection and search order ----------------------------------------------


def reference_matches(host, pat, exact=False, plan=None, head=()):
    """Reference: the recursive matcher, trying candidates in ascending order.

    With a ``plan`` (order, anchors) it follows that plan instead, places its
    first steps on the host vertices ``head`` and filters by no degree."""
    if pat.n > host.n:
        return
    if pat.n == 0:
        yield ()
        return
    order, anchors = _match_order(pat) if plan is None else plan
    nonanchors = [[i for i in range(j) if i not in anchors[j]] for j in range(len(order))]
    full = (1 << host.n) - 1
    hdeg = host.degrees()
    pdeg = pat.degrees()
    assigned = [0] * pat.n

    def place(j, used):
        if j == pat.n:
            yield tuple(assigned)
            return
        v = order[j]
        cand = full & ~used
        if j < len(head):
            cand &= 1 << head[j]
        for i in anchors[j]:
            cand &= host.adj[assigned[order[i]]]
        if exact:
            for i in nonanchors[j]:
                cand &= ~host.adj[assigned[order[i]]]
        for hv in iter_bits(cand):
            if plan is None and (hdeg[hv] != pdeg[v] if exact else hdeg[hv] < pdeg[v]):
                continue
            assigned[v] = hv
            yield from place(j + 1, used | (1 << hv))

    yield from place(0, 0)


def reference_copies(g, core):
    """Reference: every map, so each copy |Aut(core)| times, deduplicated."""
    found = set()
    for assigned in reference_matches(g, core):
        found.add(tuple(sorted(
            g.edge_index[tuple(sorted((assigned[u], assigned[v])))] for u, v in core.edges
        )))
    return found


COPY_PATTERNS = {
    "P3": path(3), "P4": path(4), "C4": cycle(4), "C5": cycle(5),
    "K3": complete_graph(3), "K4": complete_graph(4), "K5": complete_graph(5),
    "K1,3": star(3), "K2,3": complete_bipartite(2, 3),
    "2K2": disjoint_union([complete_graph(2), complete_graph(2)]),
    "K3+K1": disjoint_union([complete_graph(3), empty_graph(1)]),
}


@pytest.mark.parametrize("name", COPY_PATTERNS)
def test_one_map_per_copy_matches_deduplicated_maps(name):
    core = Pattern(COPY_PATTERNS[name]).core
    # the matcher itself yields the reference's maps, in the reference's order
    # and onto the core itself, its automorphisms: the reference's exact maps
    assert list(_matches(core, core)) == list(reference_matches(core, core, exact=True))
    rng = random.Random(79)
    hosts = [complete_graph(7), wheel(8)]
    hosts += [random_graph(rng, rng.randint(3, 9)) for _ in range(40)]
    for g in hosts:
        assert list(_matches(g, core)) == list(reference_matches(g, core))
        copies = _copies(g, core)
        assert len(copies) == len(set(copies))
        assert set(copies) == reference_copies(g, core)


THROUGH_PATTERNS = {
    "P3": path(3), "P4": path(4), "K1,3": star(3), "C4": cycle(4),
    "K3": complete_graph(3), "K4": complete_graph(4),
    "paw": Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "2K2": COPY_PATTERNS["2K2"], "K3+K1": COPY_PATTERNS["K3+K1"],
}


def reference_maps_through(g, cores, u, v):
    """Reference: each arc orbit's plan, placed recursively from a on u and b
    on v, with no degree filter."""
    for core in cores:
        for order, anchors, others in _arc_orbits(core):
            for assigned in reference_matches(g, core, plan=(order, anchors), head=(u, v)):
                yield assigned, others


@pytest.mark.parametrize("name", THROUGH_PATTERNS)
def test_maps_through_are_the_pinned_reference_maps(name):
    # the placement search started from a partial map yields the reference's
    # maps in the reference's order, whichever end of the edge comes first
    core = Pattern(THROUGH_PATTERNS[name]).core
    rng = random.Random(83)
    hosts = [complete_graph(7), wheel(8)]
    hosts += [random_graph(rng, rng.randint(3, 9)) for _ in range(40)]
    for g in hosts:
        plans = _through_plans([core], g.n)
        # cores with one vertex more than the host have no map into it
        bigger = _through_plans([path(g.n + 1), star(g.n)], g.n)
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                want = list(reference_maps_through(g, [core], a, b))
                assert list(_maps_through(g.adj, plans, a, b)) == want, (name, g, a, b)
                assert list(_maps_through(g.adj, bigger, a, b)) == []


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_maps_through_meet_copies_containing_the_edge(g):
    # some map through uv exists iff some copy uses the edge uv
    def through(plans, u, v):
        return next(_maps_through(g.adj, plans, u, v), None) is not None

    pats = [Pattern(p) for p in THROUGH_PATTERNS.values()]
    for e, (u, v) in enumerate(g.edges):
        anywhere = False
        for p in pats:
            plans = _through_plans([p.core] if p.order <= g.n else [], g.n)
            want = any(e in copy for copy in enumerate_embeddings(g, p))
            assert through(plans, u, v) is want, (p, g.adj, u, v)
            assert through(plans, v, u) is want
            anywhere = anywhere or want
        every = _through_plans([p.core for p in pats if p.order <= g.n], g.n)
        assert through(every, u, v) is anywhere


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=6))
def test_extension_is_the_least_class_that_keeps_the_witness(g):
    # the rule's class is the least one, fresh class included, that keeps a
    # witness of g proper and rainbow-free on g + uv, by a check of every copy
    for p in map(Pattern, THROUGH_PATTERNS.values()):
        res = rainbow_free_colorable(g, [p])
        if res.status is not Status.COLORABLE:
            continue
        plans = _through_plans([p.core] if p.order <= g.n else [], g.n)
        for u, v in g.non_edges():
            h = g.with_edge(u, v)
            table = class_table(g, res.witness)

            def extended(c):
                old = dict(zip(g.edges, res.witness))
                return tuple(old.get(e, c) for e in h.edges)

            fresh = max(res.witness, default=-1) + 1
            want = next((c for c in range(fresh + 1) if is_proper(h, extended(c))
                         and find_rainbow_embedding(h, extended(c), p) is None), None)
            # the rule reads the rows of g and of h alike, over a list table
            # and over its bytes
            for color in (table, bytes(table)):
                assert extension(color, h.adj, plans, u, v) == want, (p, g.adj, u, v)
                assert extension(color, g.adj, plans, u, v) == want, (p, g.adj, u, v)
            if want is not None:
                table[u * g.n + v] = table[v * g.n + u] = want
                assert table == class_table(h, extended(want))


def test_arc_orbit_counts():
    counts = {name: len(_arc_orbits(Pattern(THROUGH_PATTERNS[name]).core))
              for name in ("P3", "P4", "K1,3", "C4", "K4")}
    assert counts == {"P3": 2, "P4": 3, "K1,3": 2, "C4": 1, "K4": 1}


def arc_orbits_by_enumeration(core):
    """Reference: the least arc of each orbit, found by mapping each arc
    under every automorphism, as ``_arc_orbits`` plans it."""
    auts = list(_matches(core, core))
    seen = set()
    out = []
    for a in range(core.n):
        for b in iter_bits(core.adj[a]):
            if (a, b) not in seen:
                seen.update((aut[a], aut[b]) for aut in auts)
                others = tuple(e for e in core.edges if e != (a, b) and e != (b, a))
                out.append((*_plan(core, (a, b)), others))
    return tuple(out)


def test_arc_orbits_match_the_enumerated_group():
    # the generators and the twin transpositions merge the arcs into the
    # orbits of the whole group, on every atlas graph with an edge (up to 7
    # vertices) and on K8, whose 40,320 automorphisms the twin
    # transpositions generate
    cores = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()
             if h.number_of_edges()]
    cores.append(complete_graph(8))
    for core in cores:
        assert _arc_orbits(core) == arc_orbits_by_enumeration(core), core


def test_match_order_is_computed_once_per_pattern():
    _match_order.cache_clear()
    order, anchors = _match_order(cycle(5))
    assert isinstance(order, tuple) and isinstance(anchors, tuple)
    assert all(isinstance(a, tuple) for a in anchors)
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 8))
        exists_embedding(g, cycle(5))
        enumerate_embeddings(g, Pattern(cycle(5)))
        rainbow_free_colorable(g, [cycle(5)])
    assert _match_order.cache_info().misses == 1


def test_one_pattern_per_graph():
    # equal graphs built apart share one Pattern; a Pattern passes as itself
    assert as_pattern(cycle(4)) is as_pattern(cycle(4))
    pat = Pattern(cycle(4), "C4")
    assert as_pattern(pat) is pat




def quadratic_search_order(embeddings):
    """Reference: rescan every remaining copy for the largest overlap."""
    remaining = list(embeddings)
    order = []
    placed = set()
    while remaining:
        if not order:
            pick = remaining[0]
        else:
            pick = max(
                remaining, key=lambda emb: (len(placed.intersection(emb)), [-e for e in emb])
            )
        remaining.remove(pick)
        for e in sorted(pick):
            if e not in placed:
                placed.add(e)
                order.append(e)
    return order


def pairwise_minimal_copies(g, patterns):
    """Reference: keep a copy unless a kept copy is a proper subset of it."""
    sets = set()
    for pat in patterns:
        sets |= set(enumerate_embeddings(g, pat))
    kept = []
    for emb in sorted(sets, key=lambda t: (len(t), t)):
        if not any(set(other) < set(emb) for other in kept):
            kept.append(emb)
    return kept


def test_search_order_matches_quadratic_greedy():
    rng = random.Random(71)
    for _ in range(200):
        edges = rng.randint(3, 30)
        size = rng.randint(1, min(edges, 6))
        copies = {tuple(sorted(rng.sample(range(edges), size))) for _ in range(rng.randint(1, 40))}
        copies = list(copies)
        rng.shuffle(copies)
        assert _search_order(copies) == quadratic_search_order(copies)
    # mixed sizes, as the minimality filter leaves them
    for _ in range(100):
        g = random_graph(rng, rng.randint(4, 8))
        copies = _collect_embeddings(g, [Pattern(h) for h in (path(4), cycle(4), complete_graph(3))])
        assert _search_order(copies) == quadratic_search_order(copies)
    copies = _collect_embeddings(complete_graph(9), [Pattern(cycle(4))])
    assert len(copies) == 378
    assert _search_order(copies) == quadratic_search_order(copies)
    assert _search_order([]) == []


def test_minimality_filter_keeps_the_pairwise_result():
    rng = random.Random(73)
    families = [[path(3), cycle(4)], [path(4), cycle(4), complete_graph(3)], [star(3), path(4)]]
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 8))
        for fam in families:
            pats = [Pattern(h) for h in fam]
            assert _collect_embeddings(g, pats) == pairwise_minimal_copies(g, fam)


# -- component decomposition -----------------------------------------------------


def test_component_decomposition_shapes():
    g = disjoint_union([complete_graph(4), complete_graph(4)])
    comps = [induced_subgraph(g, comp) for comp in g.components()]
    assert len(comps) == 2
    assert all(sub.n == 4 and sub.edge_count == 6 for sub, _ in comps)
    assert comps[0][1] == (0, 1, 2, 3) and comps[1][1] == (4, 5, 6, 7)
    assert g.component(5) == (4, 5, 6, 7)
    assert not g.is_connected()
    connected = wheel(6)
    assert connected.components() == [tuple(range(6))]
    assert connected.is_connected()


def test_decomposition_matches_whole_graph_search():
    # the solver's split search and the engine's whole-host search on
    # disjoint unions, both against the naive oracle, which never splits
    g = disjoint_union([complete_graph(4)] * 4)
    res = RainbowSolver([path(4)]).colorability(g)
    assert (res.status, res.stats.searches) == (Status.COLORABLE, 1)  # one search, three hits
    assert find_rainbow_embedding(g, res.witness, path(4)) is None

    rng = random.Random(51)
    for fam in ([path(4)], [disjoint_union([complete_graph(3), empty_graph(1)])]):
        solver = RainbowSolver(fam)
        for _ in range(20):
            g = disjoint_union([random_graph(rng, rng.randint(2, 4), 4) for _ in range(2)])
            naive = naive_rainbow_free_colorable(g, fam)
            assert (solver.colorability(g).status is Status.COLORABLE) == naive
            assert (rainbow_free_colorable(g, fam).status is Status.COLORABLE) == naive


def test_solver_witness_depends_on_the_host_alone():
    # a solver that first answered a relabeled g gives g the witness a fresh
    # solver gives it: no cached witness crosses labelings
    rng = random.Random(89)
    for fam in ([path(4)], [cycle(4)], [complete_graph(3)]):
        for _ in range(300):
            g = random_graph(rng, rng.randint(4, 8))
            perm = rng.sample(range(g.n), g.n)
            warm = RainbowSolver(fam)
            warm.colorability(g.relabel(perm))
            got, want = warm.colorability(g), RainbowSolver(fam).colorability(g)
            assert (got.status, got.witness) == (want.status, want.witness)


def test_engine_matches_naive_oracle_spot():
    rng = random.Random(61)
    fams = [[path(4)], [cycle(4)], [complete_graph(3)], [path(3), cycle(4)]]
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 6), rng.randint(0, 8))
        for fam in fams:
            eng = rainbow_free_colorable(g, fam).status is Status.COLORABLE
            assert eng == naive_rainbow_free_colorable(g, fam)
