"""Engine verdicts against the naive all-partitions oracle, and the oracle
against the plainer code it replaced."""
import ast
import random
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from rainbowsat import (
    Graph,
    Status,
    Verdict,
    complete_graph,
    cycle,
    disjoint_union,
    empty_graph,
    find_rainbow_embedding,
    is_proper,
    is_rainbow_saturated,
    path,
    rainbow_free_colorable,
    star,
)
from rainbowsat.constructions import gadget, gadget_names
from rainbowsat.oracle import (
    brute_embeddings,
    naive_rainbow_free_colorable,
    naive_rainbow_free_colorable_multi,
    set_partitions,
)
from rainbowsat import oracle
from rainbowsat.saturation import RainbowSolver
from rainbowsat.verify import DEFAULT_SEED, engine_oracle_cases

from .strategies import graphs

PATTERNS = {
    "P3": path(3),
    "P4": path(4),
    "C4": cycle(4),
    "K3": complete_graph(3),
    "K4": complete_graph(4),
}


def test_set_partition_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for m, want in enumerate(bell):
        assert sum(1 for _ in set_partitions(m)) == want


# -- the oracle against its earlier, plainer form -------------------------------
# A recursive partition generator, copies by combinations x permutations and
# Graph.has_edge, and properness by pairwise vertex-set intersection: the
# same sweep the oracle makes, with none of its per-step shortcuts.


def reference_set_partitions(m):
    blocks = [0] * m

    def rec(i, k):
        if i == m:
            yield list(blocks)
            return
        for c in range(k + 1):
            blocks[i] = c
            yield from rec(i + 1, k + 1 if c == k else k)

    if m == 0:
        yield []
        return
    yield from rec(0, 0)


def reference_partition_is_proper(g, blocks):
    edges = g.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if blocks[i] == blocks[j] and set(edges[i]) & set(edges[j]):
                return False
    return True


def reference_brute_embeddings(g, h):
    if h.n > g.n:
        return set()
    found = set()
    for combo in combinations(range(g.n), h.n):
        for perm in permutations(combo):
            ids = []
            ok = True
            for u, v in h.edges:
                a, b = perm[u], perm[v]
                if not g.has_edge(a, b):
                    ok = False
                    break
                ids.append(g.edge_index[(a, b) if a < b else (b, a)])
            if ok:
                found.add(tuple(sorted(ids)))
    return found


def reference_colorable_multi(g, families):
    copy_sets = {
        key: [emb for h in pats for emb in sorted(reference_brute_embeddings(g, h))]
        for key, pats in families.items()
    }
    verdict = {key: False for key in families}
    pending = set(families)
    for blocks in reference_set_partitions(len(g.edges)):
        if not pending:
            break
        if not reference_partition_is_proper(g, blocks):
            continue
        for key in list(pending):
            rainbow = False
            for emb in copy_sets[key]:
                cols = [blocks[i] for i in emb]
                if len(set(cols)) == len(cols):
                    rainbow = True
                    break
            if not rainbow:
                verdict[key] = True
                pending.discard(key)
    return verdict


def test_set_partitions_match_the_recursive_reference():
    for m in range(10):
        assert list(set_partitions(m)) == list(reference_set_partitions(m)), m


def test_set_partitions_yield_fresh_lists():
    want = list(reference_set_partitions(6))
    got = []
    for blocks in set_partitions(6):
        got.append(list(blocks))
        blocks[:] = [9] * len(blocks)
    assert got == want


def test_set_partitions_reject_a_negative_count():
    with pytest.raises(ValueError):
        set_partitions(-1)


EMBEDDING_PATTERNS = [
    path(3),
    path(4),
    cycle(4),
    complete_graph(3),
    complete_graph(4),
    star(3),
    Graph(4, [(0, 1), (2, 3)]),
]


@settings(deadline=None)
@given(graphs(max_n=8))
def test_brute_embeddings_match_the_reference(g):
    for h in EMBEDDING_PATTERNS:
        assert brute_embeddings(g, h) == reference_brute_embeddings(g, h), h


ORACLE_FAMILIES = {k: [v] for k, v in PATTERNS.items()}
SLOW_GADGETS = {"gadget-GA", "gadget-GB"}  # 115,975 and 678,570 partitions


def test_multi_verdicts_match_the_reference_on_engine_oracle_cases():
    cases = [(label, g) for label, g in engine_oracle_cases(DEFAULT_SEED) if label not in SLOW_GADGETS]
    assert len(cases) == 505
    for label, g in cases:
        want = reference_colorable_multi(g, ORACLE_FAMILIES)
        assert naive_rainbow_free_colorable_multi(g, ORACLE_FAMILIES) == want, label


@pytest.mark.extended
def test_multi_verdicts_match_the_reference_on_the_large_gadgets():
    for name in ("GA", "GB"):
        g = gadget(name).graph
        want = reference_colorable_multi(g, ORACLE_FAMILIES)
        assert naive_rainbow_free_colorable_multi(g, ORACLE_FAMILIES) == want, name


def test_oracle_imports_only_graph_from_the_package():
    # a speedup that borrowed the engine's or the saturation layer's pruning
    # would no longer be an independent check of them
    tree = ast.parse(Path(oracle.__file__).read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            package += [a.name for a in node.names if a.name.split(".")[0] == "rainbowsat"]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "rainbowsat"
        ):
            package += [(node.level, node.module, a.name) for a in node.names]
    assert package == [(1, "graphs", "Graph")]


def test_brute_embedding_count():
    assert len(brute_embeddings(complete_graph(4), path(4))) == 12
    assert len(brute_embeddings(complete_graph(5), complete_graph(3))) == comb(5, 3)


def networkx_maps(host, pattern, matches):
    """The pattern-to-host maps that networkx's matcher finds, as tuples of
    images; ``matches`` names the GraphMatcher method."""
    def nx_graph(g):
        x = nx.Graph()
        x.add_nodes_from(range(g.n))
        x.add_edges_from(g.edges)
        return x

    found = getattr(GraphMatcher(nx_graph(host), nx_graph(pattern)), matches)()
    return [tuple(sorted(m, key=m.get)) for m in found]


def test_edge_maps_meet_each_map_once():
    # the one map loop behind brute_embeddings, brute_isomorphic and
    # brute_non_edge_orbits yields each edge-preserving map exactly once:
    # every automorphism of each atlas graph on at most 6 vertices, and
    # every copy map of the report's patterns in seeded hosts
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() <= 6:
            g = Graph(h.number_of_nodes(), h.edges())
            maps = list(oracle._edge_maps(g, g))
            assert len(maps) == len(set(maps)), g
            assert sorted(maps) == sorted(networkx_maps(g, g, "isomorphisms_iter")), g
    rng = random.Random(73)
    for _ in range(6):
        n = rng.randint(5, 7)
        pairs = list(combinations(range(n), 2))
        host = Graph(n, rng.sample(pairs, rng.randint(n, len(pairs))))
        for name, pattern in PATTERNS.items():
            maps = list(oracle._edge_maps(host, pattern))
            assert len(maps) == len(set(maps)), (host, name)
            want = networkx_maps(host, pattern, "subgraph_monomorphisms_iter")
            assert sorted(maps) == sorted(want), (host, name)


def test_engine_agrees_on_random_instances():
    rng = random.Random(20260810)
    solvers = {k: RainbowSolver([v]) for k, v in PATTERNS.items()}
    for _ in range(80):
        n = rng.randint(4, 8)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(0, min(8, len(pairs)))))
        naive = naive_rainbow_free_colorable_multi(g, {k: [v] for k, v in PATTERNS.items()})
        for name in PATTERNS:
            eng = solvers[name].colorability(g).status is Status.COLORABLE
            assert eng == naive[name], name


def test_engine_agrees_on_gadgets():
    solvers = {k: RainbowSolver([v]) for k, v in PATTERNS.items()}
    for name in gadget_names():
        g = gadget(name).graph
        naive = naive_rainbow_free_colorable_multi(g, {k: [v] for k, v in PATTERNS.items()})
        for pname in PATTERNS:
            eng = solvers[pname].colorability(g).status is Status.COLORABLE
            assert eng == naive[pname], (name, pname)


# connected patterns, one whose copies need room for an isolated vertex, a
# family with a disconnected member, which keeps the host whole, and one
# whose fitting cores grow with the host's order: C4 from 4 vertices, K3
# from 5, so a triangle component is searched for other cores in K3 + K1
# than in K3 + E2
MERGE_FAMILIES = {
    "P4": [path(4)],
    "K3": [complete_graph(3)],
    "C4": [cycle(4)],
    "K3+K1": [disjoint_union([complete_graph(3), empty_graph(1)])],
    "P3,2K2": [path(3), Graph(4, [(0, 1), (2, 3)])],
    "C4,K3+2K1": [cycle(4), disjoint_union([complete_graph(3), empty_graph(2)])],
}


@st.composite
def disjoint_unions(draw):
    parts = draw(st.lists(graphs(min_n=1, max_n=4, max_edges=4), min_size=2, max_size=3))
    # at most 8 edges keeps the all-partitions oracle cheap
    assume(sum(part.edge_count for part in parts) <= 8)
    return disjoint_union(parts)


def _rainbow_free(g, coloring, family):
    return is_proper(g, coloring) and all(
        find_rainbow_embedding(g, coloring, h) is None for h in family
    )


@settings(max_examples=100, deadline=None)
@given(disjoint_unions(), st.sampled_from(sorted(MERGE_FAMILIES)))
@example(disjoint_union([complete_graph(3), empty_graph(1)]), "C4,K3+2K1")
def test_merged_witnesses_recheck_on_disjoint_unions(g, name):
    family = MERGE_FAMILIES[name]
    want = naive_rainbow_free_colorable(g, family)
    solver = RainbowSolver(family)
    first = solver.colorability(g)
    cached = solver.colorability(g)
    assert cached.stats.searches == 0
    for res in (rainbow_free_colorable(g, family), first, cached):
        assert (res.status is Status.COLORABLE) == want
        if want:
            assert _rainbow_free(g, res.witness, family)
    # one vertex more may fit more patterns, so the same components are
    # searched for other cores
    wider = disjoint_union([g, empty_graph(1)])
    res = solver.colorability(wider)
    assert (res.status is Status.COLORABLE) == naive_rainbow_free_colorable(wider, family)
    if res.status is Status.COLORABLE:
        assert _rainbow_free(wider, res.witness, family)

    verdict = is_rainbow_saturated(g, family)
    assert verdict.status is not Verdict.INDETERMINATE
    if verdict.status is Verdict.NOT_SATURATED and want:
        g2 = g.with_edge(*verdict.failing_edge)
        assert _rainbow_free(g2, verdict.failing_coloring, family)
