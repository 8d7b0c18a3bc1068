import random
import time
from itertools import combinations
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsat import (
    Graph,
    are_isomorphic,
    automorphism_generators,
    canonical_form,
    canonical_graph,
    complete_graph,
    cycle,
    disjoint_union,
    empty_graph,
    graph6_decode,
    graph6_encode,
    graph_from_json,
    graph_to_json,
    is_even_cycle_free,
    join,
    named_graph,
    path,
    star,
    wheel,
)
from rainbowsat import graphs as graphs_module
from rainbowsat.constructions import p4_construction
from rainbowsat.graphs import independent_sets_of_size, induced_subgraph, iter_bits
from rainbowsat.oracle import brute_isomorphic, brute_non_edge_orbits

from .strategies import flower, graphs


def random_graph(rng, n, m=None):
    pairs = list(combinations(range(n), 2))
    if m is None:
        m = rng.randint(0, len(pairs))
    return Graph(n, rng.sample(pairs, m))


# -- generators ---------------------------------------------------------------


def test_complete_graph_edge_counts():
    assert complete_graph(4).edge_count == 6
    assert complete_graph(1).edge_count == 0
    assert complete_graph(5).edge_count == 10


def test_generator_shapes():
    w = wheel(8)
    assert w.n == 8 and w.edge_count == 14
    assert star(4).edge_count == 4 and star(4).n == 5
    assert path(4).edge_count == 3
    assert cycle(5).edge_count == 5
    assert empty_graph(0).n == 0


def test_generator_range_errors():
    with pytest.raises(ValueError):
        complete_graph(0)
    with pytest.raises(ValueError):
        complete_graph(65)
    with pytest.raises(ValueError):
        wheel(3)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


def test_join_examples():
    g = join(complete_graph(2), empty_graph(4))
    assert g.n == 6 and g.edge_count == 9
    assert are_isomorphic(join(empty_graph(1), empty_graph(1)), complete_graph(2))
    assert are_isomorphic(join(empty_graph(1), cycle(7)), wheel(8))


def test_join_overflow():
    with pytest.raises(ValueError):
        join(empty_graph(40), empty_graph(40))


@settings(max_examples=60)
@given(graphs(max_n=5), graphs(max_n=5))
def test_join_edge_count_formula(g, h):
    assert join(g, h).edge_count == g.edge_count + h.edge_count + g.n * h.n


def test_disjoint_union():
    u = disjoint_union([complete_graph(4)] * 4)
    assert u.n == 16 and u.edge_count == 24
    assert disjoint_union([]).n == 0
    two = disjoint_union([complete_graph(2), complete_graph(2)])
    assert two.n == 4 and two.edge_count == 2


def test_edge_order_is_lexicographic():
    g = Graph(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))


def edge_list_relabel(g, perm):
    """Reference: rename the endpoints of every edge and rebuild the graph."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_relabel_matches_edge_list_reference():
    rng = random.Random(5)
    for h in nx.graph_atlas_g():
        perm = list(range(h.number_of_nodes()))
        rng.shuffle(perm)
        g = Graph(h.number_of_nodes(), h.edges())
        got = g.relabel(perm)
        # the rows are mapped directly: the source's edge list is never built
        assert g._edges is None
        assert got == edge_list_relabel(g, perm)
        assert got.edges == edge_list_relabel(g, perm).edges
    for n, perm in ((3, [0, 0, 1]), (3, [0, 1]), (3, [0, 1, 2, 3]), (3, [1, 2, 3]),
                    (2, [-1, 0]), (0, [0])):
        with pytest.raises(ValueError):
            empty_graph(n).relabel(perm)
        if n:
            with pytest.raises(ValueError):
                complete_graph(n).relabel(perm)


def test_structure_predicates_match_networkx():
    # is_bipartite and is_forest decide where a family ladder stops
    rng = random.Random(67)
    for h in nx.graph_atlas_g():
        perm = rng.sample(range(h.number_of_nodes()), h.number_of_nodes())
        h = nx.relabel_nodes(h, dict(enumerate(perm)))
        g = Graph(h.number_of_nodes(), h.edges())
        assert g.is_bipartite() is nx.is_bipartite(h), g
        # networkx refuses the null graph, a forest with no tree
        assert g.is_forest() is (h.number_of_nodes() == 0 or nx.is_forest(h)), g
        want = sorted(tuple(sorted(c)) for c in nx.connected_components(h))
        assert g.components() == want, g


# -- canonical forms ----------------------------------------------------------


def test_canonical_path_reversal():
    p = path(4)
    rev = p.relabel([3, 2, 1, 0])
    assert canonical_form(p).encoding == canonical_form(rev).encoding


def test_canonical_distinguishes_claw_from_cycle():
    assert canonical_form(star(3)).encoding != canonical_form(cycle(4)).encoding


def test_eleven_classes_on_four_vertices():
    # brute-force oracle: pairwise isomorphism over all 2^6 labeled graphs
    pairs = list(combinations(range(4), 2))
    all_graphs = [
        Graph(4, [p for i, p in enumerate(pairs) if bits >> i & 1]) for bits in range(64)
    ]
    reps = []
    for g in all_graphs:
        if not any(brute_isomorphic(g, h) for h in reps):
            reps.append(g)
    assert len(reps) == 11
    assert len({canonical_form(g).encoding for g in all_graphs}) == 11


def test_canonical_form_separates_graph_atlas():
    # the atlas lists each graph on at most 7 vertices once, up to isomorphism
    encodings = {
        canonical_form(Graph(h.number_of_nodes(), h.edges())).encoding
        for h in nx.graph_atlas_g()
    }
    assert len(encodings) == 1253


def reference_refine(adj, cells, dirty=None):
    """Reference: after every split, scan again from the first cell for a
    splitter and from the first cell for a cell it splits."""
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        for s in range(len(cells)):
            smask = 0
            for v in cells[s]:
                smask |= 1 << v
            for d in range(len(cells)):
                cell = cells[d]
                if len(cell) == 1:
                    continue
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    cells[d : d + 1] = [groups[k] for k in sorted(groups)]
                    changed = True
                    break
            if changed:
                break
    return cells


def test_refinement_matches_restarting_reference(monkeypatch):
    # same encoding and same relabeling, so witnesses in graph6 do not move
    rng = random.Random(41)
    hosts = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    hosts += [random_graph(rng, rng.randint(1, 14)) for _ in range(2000)]
    monkeypatch.setattr(graphs_module, "_refine", reference_refine)
    want = [canonical_form.__wrapped__(g) for g in hosts]
    monkeypatch.undo()
    assert [canonical_form.__wrapped__(g) for g in hosts] == want


def brute_first_orbit_non_edges(g):
    """Reference: union-find over the non-edges, joining each non-edge with
    its image under every transposition that is an automorphism."""
    non_edges = g.non_edges()
    parent = {e: e for e in non_edges}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for a, b in combinations(range(g.n), 2):
        perm = list(range(g.n))
        perm[a], perm[b] = b, a
        if g.relabel(perm) != g:
            continue
        for u, v in non_edges:
            x, y = sorted((perm[u], perm[v]))
            parent[find((u, v))] = find((x, y))
    firsts = {}
    for e in non_edges:
        firsts.setdefault(find(e), e)
    return sorted(firsts.values())


def test_orbit_non_edges_match_twin_transpositions():
    rng = random.Random(43)
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        perm = list(range(g.n))
        rng.shuffle(perm)
        for x in (g, g.relabel(perm)):
            assert x.orbit_non_edges() == brute_first_orbit_non_edges(x)


def reference_canonical_search(g):
    """The canonical search before automorphism pruning: every child but
    twins of explored ones, at every node.  It reports no generators."""
    n, adj = g.n, g.adj
    if n <= 1:
        return 0, tuple(range(n)), []
    full = (1 << n) - 1
    if all(a == full ^ (1 << v) for v, a in enumerate(adj)) or not any(adj):
        return graphs_module._leaf_code(adj, range(n)), tuple(range(n)), []

    best_code = None
    best_order = None

    def descend(cells):
        nonlocal best_code, best_order
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            order = [c[0] for c in cells]
            code = graphs_module._leaf_code(adj, order)
            if best_code is None or code < best_code:
                best_code = code
                best_order = tuple(order)
            return
        cell = cells[target]
        seen_open = set()
        seen_closed = set()
        for v in cell:
            open_key = adj[v]
            closed_key = adj[v] | (1 << v)
            if open_key in seen_open or closed_key in seen_closed:
                continue
            seen_open.add(open_key)
            seen_closed.add(closed_key)
            rest = [w for w in cell if w != v]
            dirty = [False] * (len(cells) + 1)
            dirty[target] = dirty[target + 1] = True
            descend(graphs_module._refine(
                adj, cells[:target] + [[v], rest] + cells[target + 1 :], dirty))

    descend(graphs_module._refine(adj, [list(range(n))], [True]))
    return best_code, best_order, []


PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def symmetric_hosts():
    """Graphs with large automorphism groups, where the pruning fires."""
    q4 = Graph(16, [(a, a | 1 << i) for a in range(16) for i in range(4) if not a >> i & 1])
    yield PETERSEN
    yield q4
    yield Graph(12, [(a, 6 + b) for a in range(6) for b in range(6) if a != b])
    yield disjoint_union([cycle(5)] * 3)
    yield wheel(16)
    yield wheel(24)
    yield p4_construction(16).graph
    # components of two kinds, which one refined cell mixes
    yield disjoint_union([cycle(5), cycle(5), cycle(3), cycle(3)])
    yield disjoint_union([cycle(4), cycle(4), cycle(6)])


def test_pruned_search_matches_reference(monkeypatch):
    # same encoding and same relabeling, so the goldens and every witness
    # in graph6 stay as they were
    rng = random.Random(53)
    hosts = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    hosts += [random_graph(rng, rng.randint(1, 14)) for _ in range(2000)]
    for g in symmetric_hosts():
        hosts += [g] + [g.relabel(rng.sample(range(g.n), g.n)) for _ in range(4)]
    monkeypatch.setattr(graphs_module, "_canonical_search", reference_canonical_search)
    want = [canonical_form.__wrapped__(g) for g in hosts]
    monkeypatch.undo()
    assert [canonical_form.__wrapped__(g) for g in hosts] == want
    pruned = 0
    for g in hosts:
        gens = automorphism_generators(g)
        assert all(g.relabel(perm) == g for perm in gens)
        pruned += bool(gens)
    assert pruned > 500


def sibling_loop_canonical_search(g):
    """The pruned canonical search before cells of twins were individualized
    without branching: every cell goes through the sibling loop and
    ``_refine``."""
    n, adj = g.n, g.adj
    if n <= 1:
        return 0, tuple(range(n)), []
    twins = g.twin_classes()
    first = best = None
    leaves = {}
    gens = []
    fixes = []
    path = []

    def descend(cells) -> int:
        nonlocal first, best
        if len(cells) == n:
            order = [c[0] for c in cells]
            code = graphs_module._leaf_code(adj, order)
            if first is None:
                first = best = code
            elif code == first or code == best:
                known, known_path = leaves[code]
                perm = [0] * n
                fix = 0
                for a, b in zip(known, order):
                    perm[a] = b
                    if a == b:
                        fix |= 1 << a
                gens.append(perm)
                fixes.append(fix)
                common = 0
                for a, b in zip(known_path, path):
                    if a != b:
                        break
                    common += 1
                return common
            elif code < best:
                best = code
            else:
                return len(path)
            leaves[code] = order, path[:]
            return len(path)
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                break
        tried = 0
        explored = []
        orbit = None
        used = 0
        for i, v in enumerate(cell):
            if tried >> v & 1:
                continue
            if used < len(gens):
                orbit = graphs_module._join_orbits(orbit, gens[used:], fixes[used:], path)
                used = len(gens)
            if orbit is not None and graphs_module._find(orbit, v) in {
                    graphs_module._find(orbit, u) for u in explored}:
                continue
            tried |= twins[v]
            rest = cell[:i] + cell[i + 1 :]
            dirty = [False] * (len(cells) + 1)
            dirty[target] = dirty[target + 1] = True
            path.append(v)
            back = descend(graphs_module._refine(
                adj, cells[:target] + [[v], rest] + cells[target + 1 :], dirty))
            path.pop()
            if back < len(path):
                return back
            explored.append(v)
        return len(path)

    descend(graphs_module._refine(adj, [list(range(n))], [True]))
    return best, tuple(leaves[best][0]), gens


def test_twin_cells_search_as_the_sibling_loop():
    # same code, ordering and generators, so canonical forms, the level
    # table and the orbits of every check stay as they were
    rng = random.Random(61)
    hosts = []
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        hosts += [g] + [g.relabel(rng.sample(range(g.n), g.n)) for _ in range(2)]
    hosts += [random_graph(rng, rng.randint(1, 14)) for _ in range(300)]
    hosts += [make(n) for n in range(2, 30) for make in (complete_graph, empty_graph)]
    hosts += [wheel(n) for n in range(4, 30)]
    hosts += list(symmetric_hosts())
    for g in hosts:
        assert graphs_module._canonical_search(g) == sibling_loop_canonical_search(g), g


def test_generators_and_twins_give_every_non_edge_orbit():
    rng = random.Random(59)
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        g = g.relabel(rng.sample(range(g.n), g.n))
        assert g.orbit_non_edges(automorphism_generators(g)) == brute_non_edge_orbits(g), g


def test_generator_search_keeps_what_it_found_by_the_deadline(monkeypatch):
    for g in symmetric_hosts():
        assert automorphism_generators(g, time.monotonic() - 1) == []
    g = disjoint_union([cycle(5)] * 3)
    full = automorphism_generators(g)
    # a clock that ticks once per leaf: the deadline passes after k leaves
    found = []
    for k in range(60):
        ticks = iter(range(10**6))
        monkeypatch.setattr(graphs_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        found.append(automorphism_generators(g, k))
    monkeypatch.undo()
    assert found[0] == [] and found[-1] == full and len(full) > 1
    assert all(got == full[: len(got)] for got in found)
    assert sorted(found, key=len) == found


@pytest.mark.parametrize("g", [disjoint_union([cycle(5)] * k) for k in range(4, 9)]
                         + [flower(10, 3)], ids=[f"{k}C5" for k in range(4, 9)] + ["C4-flower"])
def test_isomorphism_of_symmetric_graphs_is_fast(g):
    # without pruning by automorphisms the tree grows with the group: a
    # search that skips only twins needs about 12 s for four disjoint C5s
    # on a 2-core x86 box, and more for each C5 added
    h = g.relabel(random.Random(g.n).sample(range(g.n), g.n))
    start = time.perf_counter()
    assert are_isomorphic(g, h)
    assert time.perf_counter() - start < 1.0


def test_canonical_form_on_refinement_resistant_graphs():
    # equitable partitions of these are trivial, so only the search separates
    petersen = PETERSEN
    cells = [(a, b) for a in range(4) for b in range(4)]
    at = {c: i for i, c in enumerate(cells)}
    # Cayley graph of Z4 x Z4 with generators +-(1,0), +-(0,1), +-(1,1)
    shrikhande = Graph(16, [
        (at[a, b], at[(a + da) % 4, (b + db) % 4])
        for a, b in cells for da, db in ((1, 0), (0, 1), (1, 1))
    ])
    rook = Graph(16, [(at[p], at[q]) for p, q in combinations(cells, 2)
                      if p[0] == q[0] or p[1] == q[1]])
    assert set(shrikhande.degrees()) == set(rook.degrees()) == {6}
    # a neighborhood is a 6-cycle in one and two triangles in the other
    assert induced_subgraph(shrikhande, iter_bits(shrikhande.adj[0]))[0].is_connected()
    assert not induced_subgraph(rook, iter_bits(rook.adj[0]))[0].is_connected()
    assert canonical_form(shrikhande).encoding != canonical_form(rook).encoding
    rng = random.Random(47)
    for g in (petersen, shrikhande, rook):
        encoding = canonical_form(g).encoding
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)).encoding == encoding


def test_isomorphism_agrees_with_brute_force_exhaustive_n4():
    pairs = list(combinations(range(4), 2))
    all_graphs = [
        Graph(4, [p for i, p in enumerate(pairs) if bits >> i & 1]) for bits in range(64)
    ]
    for g in all_graphs[::3]:
        for h in all_graphs[::5]:
            assert are_isomorphic(g, h) == brute_isomorphic(g, h)


def test_isomorphism_agrees_with_brute_force_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        h = random_graph(rng, n)
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)


@settings(max_examples=80)
@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabel(perm)
    assert canonical_form(g).encoding == canonical_form(h).encoding
    assert canonical_graph(g) == canonical_graph(h)


def test_canonical_relabeling_realizes_encoding():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        assert canonical_form(canonical_graph(g)).encoding == canonical_form(g).encoding


# -- independent sets ---------------------------------------------------------


@settings(max_examples=80)
@given(graphs(max_n=9))
def test_independent_sets_of_size_match_bitmask_enumeration(g):
    independent = [mask for mask in range(1 << g.n)
                   if all(not g.adj[v] & mask for v in iter_bits(mask))]
    for k in range(g.n + 1):
        want = sorted(tuple(iter_bits(mask)) for mask in independent if mask.bit_count() == k)
        assert list(independent_sets_of_size(g, k)) == want


# -- graph6 -------------------------------------------------------------------


def test_graph6_reference_values():
    # frozen from the networkx reference implementation
    assert graph6_encode(complete_graph(2)) == "A_"
    assert graph6_encode(empty_graph(5)) == "D??"


def test_graph6_roundtrip_random():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(0, 12)
        g = random_graph(rng, n)
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_roundtrip_large_orders():
    rng = random.Random(4)
    for n in (62, 63, 64):
        g = random_graph(rng, n, 200)
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_matches_networkx():
    rng = random.Random(12)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 20))
        ours = graph6_encode(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert ours == theirs
        back = graph6_decode(theirs)
        assert back == g


def test_graph6_header_tolerated():
    assert graph6_decode(">>graph6<<A_") == complete_graph(2)


def test_graph6_malformed():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("D?")  # truncated body
    with pytest.raises(ValueError):
        graph6_decode("A_X")  # trailing junk
    with pytest.raises(ValueError):
        graph6_decode("~~~~??")  # order beyond 64


@pytest.mark.parametrize(
    "text, message",
    [
        ("~??", "truncated graph6 size field"),
        ("~!!!", "bad graph6 size field"),
        ("!", "bad graph6 size character"),
        ("A!", "bad graph6 character"),
        ("A`", "nonzero padding bits"),
    ],
    ids=["truncated-size", "bad-size-field", "bad-size-character", "bad-character",
         "padding"],
)
def test_graph6_errors_name_the_fault(text, message):
    with pytest.raises(ValueError, match=message):
        graph6_decode(text)


def test_json_roundtrip():
    g = wheel(6)
    assert graph_from_json(graph_to_json(g)) == g


# -- even cycles, names -------------------------------------------------------


def test_even_cycle_free():
    assert not is_even_cycle_free(cycle(4))
    assert is_even_cycle_free(complete_graph(4))
    assert not is_even_cycle_free(cycle(6))
    assert is_even_cycle_free(cycle(5))
    assert is_even_cycle_free(path(5))
    # C5 plus a chord has an induced C4
    assert not is_even_cycle_free(cycle(5).with_edge(0, 2))


def test_named_graph():
    assert named_graph("K4") == complete_graph(4)
    assert named_graph("P3") == path(3)
    assert named_graph("C5") == cycle(5)
    assert named_graph("E7") == empty_graph(7)
    assert named_graph("W8") == wheel(8)
    assert named_graph("K1_4") == star(4)
    assert named_graph("K1_0") == star(0)
    assert named_graph("K1_1") == star(1)
    assert are_isomorphic(named_graph("K2_3"), join(empty_graph(2), empty_graph(3)))
    with pytest.raises(ValueError):
        named_graph("Q3")
    # a digit that int() cannot read is no size
    for name in ("K\u00b2", "K1_\u00b2"):
        with pytest.raises(ValueError, match="unknown graph name"):
            named_graph(name)
