"""Engine verdicts against the naive all-partitions oracle."""
import random
from itertools import combinations
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
)
from rainbowsat.constructions import gadget, gadget_names
from rainbowsat.oracle import (
    brute_embeddings,
    naive_rainbow_free_colorable,
    naive_rainbow_free_colorable_multi,
    set_partitions,
)
from rainbowsat.saturation import RainbowSolver

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


def test_brute_embedding_count():
    assert len(brute_embeddings(complete_graph(4), path(4))) == 12
    assert len(brute_embeddings(complete_graph(5), complete_graph(3))) == comb(5, 3)


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


# connected patterns, one whose copies need room for an isolated vertex, and
# a family with a disconnected member, which keeps the host whole
MERGE_FAMILIES = {
    "P4": [path(4)],
    "K3": [complete_graph(3)],
    "C4": [cycle(4)],
    "K3+K1": [disjoint_union([complete_graph(3), empty_graph(1)])],
    "P3,2K2": [path(3), Graph(4, [(0, 1), (2, 3)])],
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

    verdict = is_rainbow_saturated(g, solver=solver)
    assert verdict.status is not Verdict.INDETERMINATE
    if verdict.status is Verdict.NOT_SATURATED and want:
        g2 = g.with_edge(*verdict.failing_edge)
        assert _rainbow_free(g2, verdict.failing_coloring, family)
