"""Verdicts that must not move when the question is asked differently."""
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsat import (
    Status,
    Verdict,
    complete_graph,
    cycle,
    disjoint_union,
    empty_graph,
    find_rainbow_embedding,
    greedy_saturate,
    is_proper,
    is_rainbow_saturated,
    path,
    star,
)
from rainbowsat.oracle import brute_non_edge_orbits
from rainbowsat.saturation import RainbowSolver

from .strategies import graphs

FAMILIES = (
    [path(4)],
    [cycle(4)],
    [complete_graph(3)],
    [star(3)],
    [path(4), cycle(4)],
    [complete_graph(3), path(4), star(3)],
    [disjoint_union([complete_graph(3), empty_graph(1)])],
    [disjoint_union([path(2), path(2)]), path(3)],
)


def colorability(g, fam):
    """A fresh solver's verdict; a COLORABLE witness is re-checked."""
    res = RainbowSolver(fam).colorability(g)
    if res.status is Status.COLORABLE:
        assert is_proper(g, res.witness)
        assert all(find_rainbow_embedding(g, res.witness, p) is None for p in fam)
    return res.status


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1, max_n=7, max_edges=10), st.sampled_from(FAMILIES), st.data())
def test_colorability_is_invariant(g, fam, data):
    want = colorability(g, fam)
    perm = data.draw(st.permutations(range(g.n)))
    assert colorability(g.relabel(perm), fam) is want
    assert colorability(g, data.draw(st.permutations(fam))) is want
    if all(p.is_connected() for p in fam):
        # a copy of a connected pattern never uses an isolated vertex
        assert colorability(disjoint_union([g, empty_graph(1)]), fam) is want


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=7, max_edges=6), st.sampled_from(FAMILIES[:6]), st.data())
def test_saturation_is_invariant_under_relabeling(g, fam, data):
    hosts = [g]
    if RainbowSolver(fam).colorability(g).status is Status.COLORABLE:
        hosts.append(greedy_saturate(g, fam))
    for host in hosts:
        want = is_rainbow_saturated(host, fam)
        perm = data.draw(st.permutations(range(host.n)))
        got = is_rainbow_saturated(host.relabel(perm), fam)
        assert got.status is want.status
        if want.status is Verdict.SATURATED:
            # every automorphism orbit of non-edges is tried once, in any labeling
            orbits = len(brute_non_edge_orbits(host))
            assert got.nonedges_checked == want.nonedges_checked == orbits
