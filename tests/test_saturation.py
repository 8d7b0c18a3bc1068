import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, islice
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsat import (
    Graph,
    SearchAborted,
    Status,
    Verdict,
    all_rainbow_saturated,
    are_isomorphic,
    complete_graph,
    cycle,
    disjoint_union,
    empty_graph,
    exists_embedding,
    find_rainbow_embedding,
    graph6_decode,
    greedy_saturate,
    is_proper,
    is_rainbow_saturated,
    join,
    path,
    rainbow_free_colorable,
    sat_exact,
    sat_formula_oracle,
    sat_star_exact,
    star,
    structural_report,
    wheel,
)
from rainbowsat.constructions import (
    ehm_graph,
    gadget,
    ladder_construction,
    p4_construction,
    wheel_construction,
)
from rainbowsat.oracle import (
    brute_embeddings,
    brute_isomorphic,
    brute_non_edge_orbits,
    graph_counts,
    naive_rainbow_free_colorable,
)
from rainbowsat import constructions, saturation
from rainbowsat.engine import as_pattern
from rainbowsat.graphs import (
    _Expired,
    _leaf_code,
    canonical_form,
    complete_bipartite,
    graph6_encode,
    induced_subgraph,
)
from rainbowsat.saturation import (
    RainbowSolver,
    _class_key as class_key,
    _orbit_representatives,
    _pattern_free_rule,
    _saturated_levels,
    _witness_rule,
    enumerate_levels,
)

from .strategies import flower, graphs


def graphs_of(n, rows) -> list:
    """The graphs on n vertices with the adjacency tuples ``rows``."""
    return [Graph._from_adj(n, adj) for adj in rows]


def graph_levels(n):
    """``enumerate_levels(n)`` with each level's rows built into graphs."""
    for m, rows in enumerate_levels(n):
        yield m, graphs_of(n, rows)


def naive_is_rainbow_saturated(g, pats):
    """Oracle saturation check built only on the naive partition oracle."""
    if not naive_rainbow_free_colorable(g, pats):
        return False
    return all(
        not naive_rainbow_free_colorable(g.with_edge(u, v), pats) for u, v in g.non_edges()
    )


# -- saturation verdicts --------------------------------------------------------


def test_wheel_is_rainbow_c4_saturated():
    v = is_rainbow_saturated(wheel(8), [cycle(4)])
    assert v.status is Verdict.SATURATED
    assert is_proper(wheel(8), v.witness_coloring)


def test_small_star_not_p4_saturated():
    v = is_rainbow_saturated(star(3), [path(4)])
    assert v.status is Verdict.NOT_SATURATED
    assert v.failing_edge is not None
    g2 = star(3).with_edge(*v.failing_edge)
    assert is_proper(g2, v.failing_coloring)
    assert find_rainbow_embedding(g2, v.failing_coloring, path(4)) is None


def test_four_k4s_are_p4_saturated():
    g = disjoint_union([complete_graph(4)] * 4)
    v = is_rainbow_saturated(g, [path(4)])
    assert v.status is Verdict.SATURATED


def test_edgeless_pair_is_k2_saturated():
    assert is_rainbow_saturated(empty_graph(2), [complete_graph(2)]).status is Verdict.SATURATED
    assert is_rainbow_saturated(path(2), [complete_graph(2)]).status is Verdict.NOT_SATURATED


def test_edgeless_witness_is_the_empty_tuple():
    # an edgeless host's witness has no classes, and is falsy: it must still
    # count as COLORABLE wherever a witness is tested against None
    assert RainbowSolver([cycle(4)]).witness(empty_graph(5)) == ()
    v = is_rainbow_saturated(empty_graph(5), [cycle(4)])
    assert v.status is Verdict.NOT_SATURATED
    assert v.witness_coloring == ()
    assert v.failing_edge == (0, 1) and v.failing_coloring == (0,)
    g = greedy_saturate(empty_graph(6), [cycle(4)])
    assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                       (2, 3), (4, 5))


def test_failing_coloring_merges_across_components():
    g = disjoint_union([complete_graph(4), star(3)])
    v = is_rainbow_saturated(g, [path(4)])
    assert v.status is Verdict.NOT_SATURATED
    g2 = g.with_edge(*v.failing_edge)
    assert is_proper(g2, v.failing_coloring)
    assert find_rainbow_embedding(g2, v.failing_coloring, path(4)) is None


def test_saturated_verdicts_match_naive_oracle():
    # independent re-verification on hosts with few edges
    pats = [path(4)]
    for m, level in islice(graph_levels(5), 6):
        for g in level:
            fast = is_rainbow_saturated(g, pats).status is Verdict.SATURATED
            assert fast == naive_is_rainbow_saturated(g, pats)


def every_non_edge_saturation(g, fam):
    """Reference for condition (b): every non-edge in turn, re-solving only
    the component of g+e that holds the new edge when every pattern is
    connected.  Returns (status, failing edge)."""
    if rainbow_free_colorable(g, fam).status is not Status.COLORABLE:
        return Verdict.NOT_SATURATED, None
    pats = [as_pattern(p) for p in fam]
    # a fitting pattern's isolated vertices find room outside the component
    cores = [p.core for p in pats if p.order <= g.n]
    connected = all(p.core_connected for p in pats)
    for u, v in g.non_edges():
        g2 = g.with_edge(u, v)
        if connected and cores:
            sub, _ = induced_subgraph(g2, g2.component(u))
            res = rainbow_free_colorable(sub, cores)
        else:
            res = rainbow_free_colorable(g2, fam)
        if res.status is Status.COLORABLE:
            return Verdict.NOT_SATURATED, (u, v)
    return Verdict.SATURATED, None


def orbit_rule_hosts():
    yield from ((ladder_construction(complete_graph(3), n).graph, [complete_graph(3)])
                for n in (8, 9, 10, 33))
    yield from ((ladder_construction(complete_graph(4), n).graph, [complete_graph(4)])
                for n in (9, 13, 14))
    yield from ((p4_construction(n).graph, [path(4)]) for n in (16, 17, 18))
    yield from ((wheel_construction(n).graph, [cycle(4)]) for n in range(6, 17))
    parts = [complete_graph(2), complete_graph(3), complete_graph(4), star(2), star(3)]
    for a, b in combinations(parts + [empty_graph(2)], 2):
        for fam in ([path(4)], [cycle(4)], [complete_graph(3)]):
            yield join(a, b), fam
            yield disjoint_union([a, b]), fam
    for fam in ([path(4)], [cycle(4)], [complete_graph(3)]):
        for n in range(7):
            for g in enumerate_nonisomorphic_graphs(n):
                yield g, fam


def verdict_fields(v):
    return v.status, v.failing_edge, v.failing_coloring, v.witness_coloring


def check_orbit_rule(hosts, monkeypatch) -> Counter:
    """One non-edge per automorphism orbit decides condition (b), and the
    first addable non-edge is the first of its orbit; the verdict is the one
    that trying every twin orbit gives, witnesses included.  Returns the
    count of each verdict."""
    seen = Counter()
    for g, fam in hosts:
        got = is_rainbow_saturated(g, fam)
        assert (got.status, got.failing_edge) == every_non_edge_saturation(g, fam), g
        with monkeypatch.context() as patch:
            patch.setattr(saturation, "_orbit_representatives", lambda g, _: g.orbit_non_edges())
            twin = is_rainbow_saturated(g, fam)
        assert verdict_fields(got) == verdict_fields(twin), g
        assert got.nonedges_checked <= twin.nonedges_checked
        if got.status is Verdict.SATURATED and g.n <= 7:
            assert got.nonedges_checked == len(brute_non_edge_orbits(g)), g
        seen[got.status] += 1
        if got.failing_coloring is not None:
            g2 = g.with_edge(*got.failing_edge)
            assert is_proper(g2, got.failing_coloring)
            assert all(find_rainbow_embedding(g2, got.failing_coloring, p) is None for p in fam)
    return seen


def test_orbit_rule_matches_every_non_edge(monkeypatch):
    seen = check_orbit_rule(orbit_rule_hosts(), monkeypatch)
    assert seen[Verdict.SATURATED] > 20 and seen[Verdict.NOT_SATURATED] > 100


@pytest.mark.extended
def test_orbit_rule_matches_every_non_edge_on_large_wheels(monkeypatch):
    # the reference runs, which search every twin orbit, take most of the
    # time on these hosts
    hosts = ((wheel_construction(n).graph, [cycle(4)]) for n in range(17, 25))
    assert check_orbit_rule(hosts, monkeypatch) == {Verdict.SATURATED: 8}


@pytest.mark.parametrize("family, pattern, n, orbits", [
    ("wheel", cycle(4), 16, 6), ("wheel", cycle(4), 24, 10),
    ("ladder", complete_graph(3), 33, 2),
    ("ladder", complete_graph(4), 13, 1), ("ladder", complete_graph(4), 14, 2),
])
def test_certified_hosts_check_one_non_edge_per_orbit(family, pattern, n, orbits):
    # the wheel's group is dihedral on the rim, one orbit per chord length
    if family == "wheel":
        g = wheel_construction(n).graph
    else:
        g = ladder_construction(pattern, n).graph
    got = is_rainbow_saturated(g.relabel(random.Random(n).sample(range(n), n)), [pattern])
    assert got.status is Verdict.SATURATED
    assert got.nonedges_checked == got.nonedges_refuted == orbits


def test_saturation_check_without_generators_tries_every_twin_orbit(monkeypatch):
    # an expired deadline leaves fewer generators: more searches, same verdict
    g = wheel_construction(12).graph
    want = is_rainbow_saturated(g, [cycle(4)])
    monkeypatch.setattr(saturation, "automorphism_generators", lambda g, deadline: [])
    got = is_rainbow_saturated(g, [cycle(4)])
    assert verdict_fields(got) == verdict_fields(want)
    assert got.nonedges_checked == len(g.orbit_non_edges()) == 44 > want.nonedges_checked


def test_saturation_check_seeks_no_automorphisms_before_a_refutation(monkeypatch):
    def refuse(g, deadline):
        raise AssertionError("generators sought")

    monkeypatch.setattr(saturation, "automorphism_generators", refuse)
    # hosts that fail at their first non-edge, and K4 minus an edge, whose
    # one twin orbit holds its one non-edge
    k4_minus_edge = Graph(4, [e for e in combinations(range(4), 2) if e != (0, 1)])
    for g, fam in ((disjoint_union([cycle(5)] * 8), [cycle(4)]),
                   (flower(6, 4), [cycle(4)]),
                   (k4_minus_edge, [complete_graph(4)])):
        assert is_rainbow_saturated(g, fam).nonedges_checked == 1


# -- classical saturation ---------------------------------------------------------


def is_classically_saturated(g, h) -> bool:
    """Reference: pattern-free, and every non-edge addition creates a copy."""
    pat = as_pattern(h)
    if exists_embedding(g, pat):
        return False
    return all(exists_embedding(g.with_edge(u, v), pat) for u, v in g.non_edges())


def test_classical_examples():
    assert is_classically_saturated(join(complete_graph(2), empty_graph(4)), complete_graph(4))
    assert not is_classically_saturated(complete_graph(3), complete_graph(3))
    assert is_classically_saturated(cycle(5), complete_graph(3))


def test_classical_matches_brute_force():
    rng = random.Random(17)
    h = complete_graph(3)
    for _ in range(40):
        n = rng.randint(3, 6)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        free = not brute_embeddings(g, h)
        forced = all(brute_embeddings(g.with_edge(u, v), h) for u, v in g.non_edges())
        assert is_classically_saturated(g, h) == (free and forced)


# -- enumeration -------------------------------------------------------------------


def enumerate_nonisomorphic_graphs(n):
    """One representative per isomorphism class, ascending edge count."""
    for _, graphs in graph_levels(n):
        yield from graphs


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_nonisomorphic_graphs(3)) == 4
    assert sum(1 for _ in enumerate_nonisomorphic_graphs(4)) == 11
    assert sum(1 for _ in enumerate_nonisomorphic_graphs(5)) == 34


def test_enumeration_counts_match_graph_atlas():
    # the atlas lists all 1,253 graphs on at most 7 vertices, one per class
    atlas = Counter((h.number_of_nodes(), h.number_of_edges()) for h in nx.graph_atlas_g())
    assert sum(atlas.values()) == 1253
    for n in range(8):
        levels = {m: len(level) for m, level in enumerate_levels(n)}
        assert levels == {m: k for (order, m), k in atlas.items() if order == n}
        assert levels == dict(enumerate(graph_counts(n)))


def test_level_reps_are_the_atlas_classes():
    # an oracle independent of the table: the canonical graphs of each
    # level's reps are those of the atlas graphs with n vertices and m edges
    atlas = {}
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        atlas.setdefault((g.n, g.edge_count), Counter())[canonical_form(g)] += 1
    for n in range(8):
        for m, level in graph_levels(n):
            assert Counter(map(canonical_form, level)) == atlas[n, m], (n, m)


def test_polya_totals():
    # OEIS A000088, the number of graphs on n unlabeled vertices
    totals = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]
    assert [sum(graph_counts(n)) for n in range(11)] == totals
    for n in range(11):
        counts = graph_counts(n)
        assert len(counts) == comb(n, 2) + 1
        assert counts == counts[::-1]  # complements


@pytest.mark.extended
def test_enumeration_counts_match_polya_at_eight():
    assert [len(level) for _, level in enumerate_levels(8)] == list(graph_counts(8))


def test_level_count_other_than_polya_raises(monkeypatch):
    def off_by_one(n):
        counts = list(graph_counts(n))
        counts[3] += 1
        return tuple(counts)

    monkeypatch.setattr(saturation, "_DAG", {})
    monkeypatch.setattr(saturation, "graph_counts", off_by_one)
    assert [len(level) for _, level in islice(enumerate_levels(5), 3)] == [1, 1, 2]
    with pytest.raises(RuntimeError, match="Pólya"):
        list(enumerate_levels(5))
    # the failed level is not kept: the next run builds it again, and fails again
    assert len(saturation._DAG[5][1]) == 3
    assert_carried_labels_are_fresh(5)
    with pytest.raises(RuntimeError):
        sat_star_exact(5, [path(4)])


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=9), st.data(), st.booleans())
def test_class_key_is_relabel_invariant(g, data, fine):
    perm = data.draw(st.permutations(range(g.n)))
    assert class_key(g.relabel(perm).adj, fine) == class_key(g.adj, fine)


def test_class_key_separates_the_atlas():
    # the atlas lists one graph per class on at most 7 vertices; the coarse
    # key tells them apart, so the fine key, which refines it, does too
    count, keys = Counter(), {}
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        count[g.n, g.edge_count] += 1
        keys.setdefault((g.n, g.edge_count), set()).add(class_key(g.adj, False))
    assert sum(count.values()) == 1253
    assert {nm: len(k) for nm, k in keys.items()} == count


def child_rows(n, rows, u, v):
    return Graph._from_adj(n, rows).with_edge(u, v).adj


def child_keys_by(key):
    """A ``_child_keys`` that applies ``key`` to each child's rows in either
    round."""
    return lambda rows, base, pairs, fine: [key(child_rows(len(rows), rows, u, v))
                                            for u, v in pairs]


def check_child_keys(n):
    """``_child_keys`` against ``class_key`` on every twin-orbit child on n
    vertices, in both rounds; returns the number of children."""
    children = 0
    for m in range(comb(n, 2)):
        for rows in saturation._level(n, m).reps:
            pairs = Graph._from_adj(n, rows).orbit_non_edges()
            for fine in (False, True):
                want = [class_key(child_rows(n, rows, u, v), fine) for u, v in pairs]
                got = saturation._child_keys(rows, saturation._labels(rows), pairs, fine)
                assert got == want, (n, rows, fine)
            children += len(pairs)
    return children


def test_child_keys_match_class_key():
    assert [check_child_keys(n) for n in range(8)] == [0, 0, 1, 3, 16, 92, 726, 7863]


@pytest.mark.extended
def test_child_keys_match_class_key_at_eight():
    assert check_child_keys(8) == 139934


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=9), st.booleans())
def test_child_keys_match_class_key_on_every_non_edge(g, fine):
    pairs = g.non_edges()
    want = [class_key(g.with_edge(u, v).adj, fine) for u, v in pairs]
    assert saturation._child_keys(g.adj, saturation._labels(g.adj), pairs, fine) == want


def assert_carried_labels_are_fresh(n):
    # the _DAG entry keeps the labels of the newest level's reps, as a
    # from-scratch ``_labels`` gives them, in vertex order, rep after rep
    _, levels, _, labels = saturation._DAG[n]
    fresh = [x for rep in levels[-1].reps for x in saturation._labels(rep)]
    assert labels.tolist() == fresh, (n, len(levels))


def test_carried_labels_are_the_newest_levels(monkeypatch):
    monkeypatch.setattr(saturation, "_DAG", {})
    for n in range(8):
        for m in range(comb(n, 2) + 2):
            saturation._level(n, m)
            assert_carried_labels_are_fresh(n)


def test_coarse_key_builds_every_level_through_seven():
    for n in range(8):
        saturation._level(n, comb(n, 2) + 1)
        assert saturation._DAG[n][2] is False, n


@pytest.mark.extended
def test_coarse_key_builds_every_level_at_eight():
    saturation._level(8, comb(8, 2) + 1)
    assert saturation._DAG[8][2] is False


def fine_keyed_reps(n, top):
    """Reference: the reps of levels 0..top on n vertices, with children
    told apart by the fine key at every level."""
    below = (empty_graph(n).adj,)
    yield below
    for _ in range(top):
        index = {}  # fine key -> the first child to reach it
        for rows in below:
            pairs = Graph._from_adj(n, rows).orbit_non_edges()
            keys = saturation._child_keys(rows, saturation._labels(rows), pairs, True)
            for (u, v), key in zip(pairs, keys):
                index.setdefault(key, child_rows(n, rows, u, v))
        below = tuple(index.values())
        yield below


def test_first_short_coarse_level_refines_the_rest(monkeypatch):
    # on 9 vertices the coarse key merges classes first at 8 edges (C5 + P4
    # with P9): that level is built again with the fine key, as is every
    # later one, and the reps are those of a build keyed fine throughout
    assert class_key(path(9).adj, False) == class_key(
        disjoint_union([cycle(5), path(4)]).adj, False)
    monkeypatch.setattr(saturation, "_DAG", {})
    for m in range(10):
        saturation._level(9, m)
        assert saturation._DAG[9][2] is (m >= 8)
        # the labels the next level is keyed from cross the switch unchanged
        assert_carried_labels_are_fresh(9)
    levels = saturation._DAG[9][1]
    assert [level.reps for level in levels] == list(fine_keyed_reps(9, 9))
    assert [len(level.reps) for level in levels] == list(graph_counts(9)[:10])


def test_level_reps_share_one_int_per_row_value():
    shared = {}
    for rows in saturation._level(9, 6).reps:
        assert all(shared.setdefault(row, row) is row for row in rows)
    assert max(shared) > 256  # past CPython's cached small ints


@pytest.mark.parametrize("key, refined", [
    # merges classes in both rounds: the short coarse level is built again
    # with the fine key, which comes up short too
    (lambda adj: tuple(sorted(row.bit_count() for row in adj)), True),
    (lambda adj: adj, False),  # splits classes
], ids=["degree-sequence", "labeled"])
def test_inexact_class_key_raises(key, refined, monkeypatch):
    whole = [level for _, level in enumerate_levels(6)]
    monkeypatch.setattr(saturation, "_DAG", {})
    monkeypatch.setattr(saturation, "_child_keys", child_keys_by(key))
    with pytest.raises(RuntimeError, match="Pólya"):
        list(enumerate_levels(6))
    assert saturation._DAG[6][2] is refined
    # no failed level is left behind: every kept level is whole
    kept = saturation._DAG[6][1]
    assert 0 < len(kept) < len(whole)
    assert [level.reps for level in kept] == whole[:len(kept)]


def test_class_key_splitting_one_class_and_merging_two_raises(monkeypatch):
    # as many keys as classes, but one class under two keys and two classes
    # under one: only the check on class keys computed from scratch catches it
    n, m = 6, 4

    def exact(adj):
        return class_key(adj, False)

    labeled = {}  # key -> the labeled children under it
    for rows in saturation._level(n, m - 1).reps:
        g = Graph._from_adj(n, rows)
        for u, v in g.orbit_non_edges():
            h = g.with_edge(u, v)
            labeled.setdefault(exact(h.adj), set()).add(h.adj)
    split = next(k for k, hs in labeled.items() if len(hs) == 2)
    target, merged = [k for k in labeled if k != split][:2]

    def key(adj):
        k = exact(adj)
        return adj if k == split else target if k == merged else k

    monkeypatch.setattr(saturation, "_DAG", {})
    monkeypatch.setattr(saturation, "_child_keys", child_keys_by(key))
    list(islice(enumerate_levels(n), m))
    with pytest.raises(RuntimeError, match="Pólya"):
        list(islice(enumerate_levels(n), m + 1))
    assert saturation._DAG[n][2] is False  # the level was not short


@pytest.mark.parametrize("walk", [
    lambda: sat_star_exact(6, [cycle(4)]),
    lambda: sat_exact(6, cycle(4)),
    lambda: all_rainbow_saturated(6, [cycle(4)]),
], ids=["sat_star_exact", "sat_exact", "all_rainbow_saturated"])
def test_walks_read_the_table_through_enumerate_levels(walk, monkeypatch):
    # a wrapper of enumerate_levels sees every level a walk judges, and the
    # whole table build, which puts no graph in canonical form: only the
    # reported witnesses are, outside every next()
    levels = saturation.enumerate_levels
    walk_levels = saturation._saturated_levels
    yielded, judged, within, outside = [], [], [], []
    inside = False

    def spy(*args):
        nonlocal inside
        gen = levels(*args)
        while True:
            inside = True
            try:
                item = next(gen, None)
            finally:
                inside = False
            if item is None:
                return
            yielded.append(item[1])
            yield item

    def counted(g):
        (within if inside else outside).append(g)
        return canonical_form(g)

    def judging(*args):
        for item in walk_levels(*args):
            judged.append(item[1])
            yield item

    monkeypatch.setattr(saturation, "_DAG", {})
    monkeypatch.setattr(saturation, "enumerate_levels", spy)
    monkeypatch.setattr(saturation, "canonical_form", counted)
    monkeypatch.setattr(saturation, "_saturated_levels", judging)
    before = canonical_form.cache_info()
    walk()
    after = canonical_form.cache_info()
    assert judged and all(any(c is level for level in yielded) for c in judged)
    assert within == []
    assert outside and after.hits + after.misses == before.hits + before.misses + len(outside)


def test_canonical_sort_keeps_one_graph_per_class():
    # the reported witnesses and the ladder levels go through this sort:
    # relabeled copies collapse to the canonical graph of their class, in
    # ascending graph6, which orders by vertex count and then by the
    # upper-triangle code that the canonical search minimizes, graph6's
    # long header from 63 vertices on included
    def key(g):
        return g.n, _leaf_code(g.adj, range(g.n))

    rng = random.Random(67)
    atlas = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    large = [Graph(n, rng.sample(list(combinations(range(n), 2)), 150))
             for n in (62, 63, 64) for _ in range(2)]
    for _ in range(40):
        picked = rng.sample(atlas, 6) + rng.sample(large, 2)
        copies = [g.relabel(rng.sample(range(g.n), g.n)) for g in picked for _ in range(3)]
        rng.shuffle(copies)
        got = saturation._in_canonical_form(copies)
        assert [key(g) for g in got] == sorted(key(canonical_form(g)) for g in picked)
        assert all(canonical_form(c) in got for c in copies)
    # the atlas is pairwise non-isomorphic, so nothing is dropped
    assert len(saturation._in_canonical_form(atlas)) == len(atlas)


def test_cold_build_computes_no_canonical_form(monkeypatch):
    monkeypatch.setattr(saturation, "_DAG", {})
    before = canonical_form.cache_info()
    list(enumerate_levels(6))
    after = canonical_form.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_level_table_leaves_the_canonical_cache_bounded(monkeypatch):
    # the table puts no child in canonical form, so a cold build of 1,044
    # classes leaves the cache as it found it
    monkeypatch.setattr(saturation, "_DAG", {})
    before = canonical_form.cache_info()
    list(enumerate_levels(7))
    after = canonical_form.cache_info()
    assert after.hits + after.misses == before.hits + before.misses
    assert after.currsize == before.currsize <= 256


def canonical_keyed_levels(n):
    """Reference for the level table: children deduplicated by canonical
    graph, each class represented by the first child to reach it."""
    below = (empty_graph(n).adj,)
    yield below, b"", [], [0]
    while below:
        index = {}  # canonical graph -> (class index in order of first reach, rep)
        pairs, child, start = bytearray(), [], [0]
        for rows in below:
            g = Graph._from_adj(n, rows)
            for u, v in g.orbit_non_edges():
                h = g.with_edge(u, v)
                form = canonical_form(h)
                if form not in index:
                    index[form] = (len(index), h.adj)
                pairs.append(u * n + v)
                child.append(index[form][0])
            start.append(len(child))
        below = tuple(rep for _, rep in index.values())
        yield below, bytes(pairs), child, start


@pytest.mark.extended
def test_level_table_matches_canonical_keyed_build_at_eight():
    # the reference keeps one rep per canonical graph, so equal reps also
    # audit that each level's reps are pairwise non-isomorphic
    reference = list(canonical_keyed_levels(8))
    assert len(reference) == comb(8, 2) + 2
    for m, (reps, pairs, child, start) in enumerate(reference):
        level = saturation._level(8, m)
        assert level.reps == reps, m
        assert level.pairs == pairs, m
        assert list(level.child) == child, m
        assert list(level.start) == start, m


def test_enumeration_is_ascending_and_duplicate_free():
    graphs_seen = list(enumerate_nonisomorphic_graphs(5))
    counts = [g.edge_count for g in graphs_seen]
    assert counts == sorted(counts)
    for i, g in enumerate(graphs_seen):
        for h in graphs_seen[i + 1 :]:
            if g.edge_count == h.edge_count:
                assert not brute_isomorphic(g, h)


def test_enumeration_complete_against_brute_force():
    pairs = list(combinations(range(4), 2))
    reps = []
    for bits in range(64):
        g = Graph(4, [p for i, p in enumerate(pairs) if bits >> i & 1])
        if not any(brute_isomorphic(g, h) for h in reps):
            reps.append(g)
    enumerated = list(enumerate_nonisomorphic_graphs(4))
    assert len(enumerated) == len(reps)
    for g in reps:
        assert any(brute_isomorphic(g, h) for h in enumerated)


def test_enumeration_budget_and_range():
    # the generator builds each level in the next() that yields it, so
    # islice takes the first levels alone
    first = [(m, {g.edge_count for g in level}) for m, level in islice(graph_levels(5), 3)]
    assert first == [(0, {0}), (1, {1}), (2, {2})]
    assert [m for m, _ in enumerate_levels(5)] == list(range(11))
    for n in (-1, 10, 11):
        with pytest.raises(ValueError):
            list(enumerate_nonisomorphic_graphs(n))


# -- exact numbers -------------------------------------------------------------------


def test_sat_exact_examples():
    assert sat_exact(5, complete_graph(3)).value == 4
    assert sat_exact(6, path(4)).value == 3
    assert sat_exact(5, cycle(4)).value == 5


def test_sat_star_p3_matches_classical():
    for n in range(3, 8):
        assert sat_star_exact(n, [path(3)]).value == sat_exact(n, path(3)).value


def test_sat_star_p4_cross_checked():
    res = sat_star_exact(5, [path(4)])
    assert res.value == 4
    pats = [path(4)]
    # every witness is saturated per the naive oracle
    for code in res.witnesses:
        assert naive_is_rainbow_saturated(graph6_decode(code), pats)
    # and no graph with fewer edges is
    for m, level in islice(graph_levels(5), res.value):
        for g in level:
            assert not naive_is_rainbow_saturated(g, pats)


def test_sat_star_no_saturated_graph_outcome():
    # a single-vertex pattern is rainbow under every coloring of every host,
    # so condition (a) never holds and no saturated graph exists
    res = sat_star_exact(3, [complete_graph(1)])
    assert res.value is None
    assert res.witnesses == ()


@pytest.mark.parametrize("walk", [
    lambda: sat_exact(9, complete_graph(1)),
    lambda: sat_star_exact(9, [complete_graph(1)]),
], ids=["sat_exact", "sat_star_exact"])
def test_walk_stops_at_the_first_level_with_no_free_class(walk, monkeypatch):
    # no graph on 9 vertices is free of K1, the empty one included, so the
    # walk judges level 0 and builds no level above it
    monkeypatch.setattr(saturation, "_DAG", {})
    res = walk()
    assert (res.value, res.witnesses, res.levels_searched, res.graphs_checked) == (None, (), 0, 1)
    assert len(saturation._DAG[9][1]) == 1


def test_all_rainbow_saturated_stops_at_the_first_level_with_no_free_class():
    # every graph on 7 vertices with 14 edges or more holds a rainbow C4
    # under every proper coloring, so levels 15 to 21 are not read
    found, res = all_rainbow_saturated(7, [cycle(4)])
    assert (len(found), res.value, res.levels_searched) == (22, 11, 14)
    assert res.graphs_checked == sum(graph_counts(7)[:15])


def test_sat_star_budget_aborts():
    with pytest.raises(SearchAborted):
        sat_star_exact(6, [cycle(4)], node_limit=2)
    with pytest.raises(SearchAborted):
        all_rainbow_saturated(6, [cycle(4)], node_limit=2)


LEVEL_TABLE_FAMILIES = {
    "P3": [path(3)],
    "P4": [path(4)],
    "C4": [cycle(4)],
    "K3": [complete_graph(3)],
    "K4": [complete_graph(4)],
    "K3+K1": [disjoint_union([complete_graph(3), empty_graph(1)])],
    "P4,C4": [path(4), cycle(4)],
}


@pytest.mark.parametrize("name", sorted(LEVEL_TABLE_FAMILIES))
def test_saturated_levels_match_per_graph_filter(name):
    # the parent/child table against a saturation check of every class alone,
    # on every level, yielded or not: a walk stops after the first level
    # with no free class, so the levels it does not yield hold no saturated
    # class either
    def check(walk, saturated):
        yielded = list(walk)
        assert [m for m, _, _ in yielded] == list(range(len(yielded)))
        for m, level in levels.items():
            want = [g for g in graphs_of(n, level) if saturated(g)]
            if m < len(yielded):
                assert yielded[m][1] == level
                assert yielded[m][2] == want, (name, n, m)
            else:
                assert want == [], (name, n, m)

    fam = LEVEL_TABLE_FAMILIES[name]
    table = RainbowSolver(fam)
    for n in range(7):
        levels = dict(enumerate_levels(n))
        check(_saturated_levels(n, *_witness_rule(table, n)),
              lambda g: is_rainbow_saturated(g, fam).status is Verdict.SATURATED)
        if len(fam) == 1:
            pat = as_pattern(fam[0])
            check(_saturated_levels(n, *_pattern_free_rule(pat, n)),
                  lambda g: is_classically_saturated(g, pat))


def reference_levels(n):
    """Reference: enumerate_levels extending each class by every non-edge,
    each class represented by the first child to reach it."""
    level = [empty_graph(n)]
    m = 0
    while level:
        yield m, tuple(g.adj for g in level)
        nxt = {}  # canonical graph -> the first child to reach it
        for g in level:
            for u, v in g.non_edges():
                h = g.with_edge(u, v)
                nxt.setdefault(canonical_form(h), h)
        m += 1
        level = list(nxt.values())


def reference_saturated_levels(n, root, rule):
    """Reference: the level table, trying every non-edge of every class; a
    class is decided by ``rule`` on the first child to reach it.  As the
    walk does, it stops after the first level with no free class."""
    levels = reference_levels(n)
    m, rows = next(levels)
    graphs = graphs_of(n, rows)
    states = [root]
    while True:
        if all(state is False for state in states):
            yield m, rows, []
            return
        children = {}
        for g, state in zip(graphs, states):
            if state is False:
                for u, v in g.non_edges():
                    children[canonical_form(g.with_edge(u, v))] = False
        hits = []
        for g, state in zip(graphs, states):
            if state is not False:
                saturated = True
                for u, v in g.non_edges():
                    form = canonical_form(g.with_edge(u, v))
                    if form not in children:
                        children[form] = rule(g, state, u, v)
                    saturated = saturated and children[form] is False
                if saturated:
                    hits.append(g)
        yield m, rows, hits
        upper = next(levels, None)
        if upper is None:
            return
        m, rows = upper
        graphs = graphs_of(n, rows)
        states = [children[canonical_form(g)] for g in graphs]


def free_calls(levels, monkeypatch):
    """The labeled graphs sat* and all_rainbow_saturated pass to the solver
    at n = 6 for C4, and those they settle from a parent's witness, in
    order, and their results, with ``levels`` as the walk."""
    calls = []
    witness = RainbowSolver.witness
    extension = saturation.extension

    def recording(solver, g):
        calls.append(("free", g.n, g.adj))
        return witness(solver, g)

    def settling(color, rows, plans, u, v):
        c = extension(color, rows, plans, u, v)
        if c is not None:
            h = Graph._from_adj(len(rows), rows).with_edge(u, v)
            calls.append(("settled", h.n, h.adj))
        return c

    with monkeypatch.context() as patch:
        patch.setattr(RainbowSolver, "witness", recording)
        patch.setattr(saturation, "extension", settling)
        patch.setattr(saturation, "_saturated_levels", levels)
        results = (sat_star_exact(6, [cycle(4)]), all_rainbow_saturated(6, [cycle(4)]))
    return calls, results


def test_twin_orbit_children_reach_the_same_graphs(monkeypatch):
    # the first child that reaches a class comes from the first non-edge of
    # its twin orbit, so each class is decided on the same labeled graph,
    # from the same witness
    for n in range(8):
        assert list(enumerate_levels(n)) == list(reference_levels(n))
    want = free_calls(reference_saturated_levels, monkeypatch)
    assert free_calls(_saturated_levels, monkeypatch) == want
    assert len(want[0]) > 100
    assert Counter(kind for kind, _, _ in want[0]) == {"free": 36, "settled": 215}


def test_walk_decides_each_class_on_its_rep():
    # with every class free, the walk decides every class above the empty
    # graph, in the level's order, each on the labeled child that is its rep
    for n in range(8):
        decided = []

        def rule(g, _, u, v):
            decided.append(g.with_edge(u, v).adj)
            return True

        for m, _, _ in _saturated_levels(n, True, rule):
            assert tuple(decided) == saturation._level(n, m + 1).reps, (n, m)
            decided.clear()


class CountingSolver(RainbowSolver):
    searched = 0

    def witness(self, g):
        self.searched += 1
        return super().witness(g)


def settled_children(n, fam) -> list:
    """Each child that the sat* walk on n vertices settles from its parent's
    witness, up to the first level with a saturated class, as the child in
    its parent's labeling, which is its rep's, and the witness it carries,
    read from the child's class table in the child's edge order."""
    solver = CountingSolver(fam)
    root, rule = _witness_rule(solver, n)
    settled = []

    def recording(g, state, u, v):
        before = solver.searched
        out = rule(g, state, u, v)
        if solver.searched == before:
            h = g.with_edge(u, v)
            settled.append((h, [out[x * n + y] for x, y in h.edges]))
        return out

    for _, _, hits in _saturated_levels(n, root, recording):
        if hits:
            break
    return settled


def check_settled_children(n, fam) -> int:
    """Every settled child's witness is proper and rainbow-free, and a fresh
    solver finds the child COLORABLE; returns the number of them."""
    settled = settled_children(n, fam)
    checker = RainbowSolver(fam)
    for h, coloring in settled:
        assert is_proper(h, coloring), graph6_encode(h)
        assert all(find_rainbow_embedding(h, coloring, p) is None for p in fam), graph6_encode(h)
        assert checker.witness(h) is not None, graph6_encode(h)
    return len(settled)


@pytest.mark.parametrize("name", sorted(LEVEL_TABLE_FAMILIES))
def test_witness_rule_settles_colorable_children(name):
    assert sum(check_settled_children(n, LEVEL_TABLE_FAMILIES[name]) for n in range(7)) > 0


@pytest.mark.extended
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("pattern", [cycle(4), complete_graph(4)], ids=["C4", "K4"])
def test_witness_rule_settles_colorable_children_at_seven_and_eight(pattern, n):
    assert check_settled_children(n, [pattern]) > 0


def test_walk_search_work_is_pinned(monkeypatch):
    # which children the witness rule leaves to the solver is fixed: a cold
    # sat*(7, C4) then sat*(7, K4) makes 117 searches, 108 COLORABLE with
    # 2,532 nodes and 9 UNCOLORABLE with 4,213
    searches = []
    search = saturation.rainbow_free_colorable

    def recording(*args, **kwargs):
        res = search(*args, **kwargs)
        searches.append((res.status, res.stats.nodes))
        return res

    monkeypatch.setattr(saturation, "rainbow_free_colorable", recording)
    assert sat_star_exact(7, [cycle(4)]).value == 11
    assert sat_star_exact(7, [complete_graph(4)]).value == 17
    nodes = Counter()
    for status, count in searches:
        nodes[status] += count
    assert Counter(status for status, _ in searches) == {
        Status.COLORABLE: 108, Status.UNCOLORABLE: 9}
    assert nodes == {Status.COLORABLE: 2532, Status.UNCOLORABLE: 4213}


def test_second_run_reuses_the_levels():
    # the levels are not built again: the only canonical forms are the
    # reported witnesses'
    first = sat_exact(7, complete_graph(4))
    before = canonical_form.cache_info()
    second = sat_exact(7, complete_graph(4))
    after = canonical_form.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + len(second.witnesses)
    assert second == first


def test_aborted_run_shares_no_verdicts():
    with pytest.raises(SearchAborted):
        sat_star_exact(7, [complete_graph(4)], node_limit=1)
    res = sat_star_exact(7, [complete_graph(4)])
    assert res.value == 17
    assert sorted(res.witnesses) == ["FFz~w", "FJ^~w", "FJn~w", "FJ~vw", "FLv~w", "Fjm~w"]


def below_nine_edges(g, _, u, v):
    """A rule for walks that only need one: graphs with fewer than 9 edges
    are free."""
    return g.edge_count < 8


def test_yielded_levels_are_read_only():
    # a level is the table's own tuple of adjacency tuples, which no reader
    # can change; a walk's saturated classes are a fresh list
    for _, level in enumerate_levels(6):
        assert all(type(rows) is tuple for rows in level)
        with pytest.raises(AttributeError):
            level.reverse()
    for _, classes, hits in _saturated_levels(6, True, below_nine_edges):
        with pytest.raises(AttributeError):
            classes.clear()
        hits.append(empty_graph(6))
    assert list(enumerate_levels(6)) == list(reference_levels(6))


def test_yielded_graphs_are_fresh():
    # the table keeps adjacency tuples and yields them as they are, and a
    # walk builds a fresh graph for each saturated class it yields, so
    # nothing cached on one outlives its reader
    first, second = list(enumerate_levels(6)), list(enumerate_levels(6))
    assert all(a is b for (_, a), (_, b) in zip(first, second))
    walks = [list(_saturated_levels(6, True, below_nine_edges)) for _ in range(2)]
    assert walks[0] == walks[1]
    assert any(hits for _, _, hits in walks[0])
    for (_, a, x), (_, b, y) in zip(*walks):
        assert a is b
        assert all(g is not h for g, h in zip(x, y))


def test_walk_builds_graphs_only_for_the_rule_and_the_hits(monkeypatch):
    # a class that is not free, or free with every child decided through an
    # earlier parent, is counted from its rows and never built into a graph
    list(enumerate_levels(6))  # the table, built beforehand
    built, ruled = [], set()
    from_adj = Graph._from_adj

    def counting(n, adj):
        built.append(adj)
        return from_adj(n, adj)

    def rule(g, state, u, v):
        ruled.add(g.adj)
        return below_nine_edges(g, state, u, v)

    monkeypatch.setattr(Graph, "_from_adj", staticmethod(counting))
    walk = list(_saturated_levels(6, True, rule))
    hits = {g.adj for _, _, level in walk for g in level}
    assert hits and len(built) == len(set(built))
    assert set(built) == ruled | hits
    assert len(built) < sum(graph_counts(6)[:9])  # the free classes


def test_import_builds_no_levels():
    code = ("from rainbowsat import graphs, saturation; "
            "assert not saturation._DAG; "
            "assert graphs.canonical_form.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_complete_graph_is_judged():
    # the complete graph has no children, so its level is judged with none:
    # K4 fits in no graph on 3 vertices, and only K3 is saturated
    res = sat_star_exact(3, [complete_graph(4)])
    assert (res.value, res.witnesses, res.levels_searched) == (3, ("Bw",), 3)


# -- downward closure and greedy -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(graphs(min_n=2, max_n=6, max_edges=8))
def test_downward_closure(g):
    fam = [complete_graph(3)]
    for u, v in g.non_edges()[:3]:
        if rainbow_free_colorable(g.with_edge(u, v), fam).status is Status.COLORABLE:
            assert rainbow_free_colorable(g, fam).status is Status.COLORABLE


def test_greedy_trace_on_empty_four():
    g = greedy_saturate(empty_graph(4), [complete_graph(3)])
    assert are_isomorphic(g, star(3))
    assert g.edges == ((0, 1), (0, 2), (0, 3))


def test_greedy_fixed_point():
    w = wheel(8)
    assert greedy_saturate(w, [cycle(4)]) == w


def test_greedy_always_saturates():
    fam = [path(4)]
    for n in (4, 5, 6):
        g = greedy_saturate(empty_graph(n), fam)
        assert is_rainbow_saturated(g, fam).status is Verdict.SATURATED
        assert g.edge_count >= sat_star_exact(n, fam).value


@pytest.mark.parametrize("node_limit", [0, 1])
@pytest.mark.usefixtures("no_catalogue")
def test_greedy_budget_abort_names_the_graph(node_limit):
    with pytest.raises(SearchAborted, match=r"^budget exhausted .*graph \S+$"):
        greedy_saturate(empty_graph(5), [path(4)], node_limit=node_limit)


def test_greedy_rejects_uncolorable_seed():
    with pytest.raises(ValueError):
        greedy_saturate(path(3), [path(3)])


def every_pair_greedy(g, pairs, solver, classes=None):
    """Reference greedy loop: one search per candidate pair, no orbit skip."""
    added = []
    for u, v in pairs:
        g2 = g.with_edge(u, v)
        if solver.witness(g2) is not None:
            g = g2
            added.append((u, v))
    return g, added


def with_every_pair_greedy(monkeypatch, build):
    with monkeypatch.context() as patch:
        patch.setattr(saturation, "_add_greedily", every_pair_greedy)
        patch.setattr(constructions, "_add_greedily", every_pair_greedy)
        return build()


@pytest.mark.parametrize("r, n", [(3, n) for n in (*range(8, 15), 31, 32, 33)]
                         + [(4, n) for n in range(9, 15)])
def test_ladder_matches_every_pair_greedy(r, n, monkeypatch):
    want = with_every_pair_greedy(monkeypatch, lambda: ladder_construction(complete_graph(r), n))
    got = ladder_construction(complete_graph(r), n)
    assert got.graph == want.graph
    assert got.trace == want.trace


GREEDY_FAMILIES = {
    "P3": [path(3)], "P4": [path(4)], "C4": [cycle(4)], "K3": [complete_graph(3)],
    "K4": [complete_graph(4)], "P3+2K2": [path(3), disjoint_union([complete_graph(2)] * 2)],
}


@pytest.mark.parametrize("name", sorted(GREEDY_FAMILIES))
def test_greedy_matches_every_pair_greedy(name, monkeypatch):
    fam = GREEDY_FAMILIES[name]
    rng = random.Random(7)
    seeds = [empty_graph(n) for n in range(1, 9)]
    for _ in range(24):
        n = rng.randint(2, 8)
        pairs = list(combinations(range(n), 2))
        seeds.append(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs) // 3))))
    grown = 0
    for g0 in seeds:
        try:
            want = with_every_pair_greedy(monkeypatch, lambda: greedy_saturate(g0, fam))
        except ValueError:
            with pytest.raises(ValueError):
                greedy_saturate(g0, fam)
            continue
        got = greedy_saturate(g0, fam)
        assert got == want, graph6_encode(g0)
        grown += got != g0
    assert grown >= 8


def witness_calls(monkeypatch, build):
    calls = []
    witness = RainbowSolver.witness

    def counting(solver, g):
        calls.append(g)
        return witness(solver, g)

    with monkeypatch.context() as patch:
        patch.setattr(RainbowSolver, "witness", counting)
        build()
    return len(calls)


def test_greedy_adds_an_edge_no_copy_uses_unsearched(monkeypatch):
    # the witness rule finds a class for 21 of the 31 candidates that
    # searching each would try, 12 of them with no C4 copy through uv; of
    # the other 10, 6 are searched and 4 contain an obstruction of the
    # catalogue.  The reference loop's searches refute graphs for its own
    # solver only, so they settle none of these
    def build():
        return greedy_saturate(empty_graph(12), [cycle(4)])

    want = with_every_pair_greedy(monkeypatch, build)
    hits = []
    contains = RainbowSolver.contains_refuted

    def counting(solver, g):
        found = contains(solver, g)
        if found:
            hits.append(g)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(RainbowSolver, "contains_refuted", counting)
        calls = witness_calls(monkeypatch, build)
    assert (calls, len(hits)) == (1 + 6, 4)  # the seed check, then the loop
    assert build() == want


@pytest.mark.parametrize("r, n", [(3, 33), (4, 14)])
def test_ladder_searches_once_per_rejected_twin_orbit(r, n, monkeypatch):
    # each lift joins a set of twins, so one rejected pair settles the set
    assert witness_calls(monkeypatch, lambda: ladder_construction(complete_graph(r), n)) <= 3


# -- each solver's known UNCOLORABLE graphs -----------------------------------------


def recording_solvers(monkeypatch) -> list:
    """Patch ``RainbowSolver._solve`` to note each solver that calls it;
    return the list of those solvers, in order of first call."""
    solvers = []
    solve = RainbowSolver._solve

    def recording(solver, g, cores):
        if not any(s is solver for s in solvers):
            solvers.append(solver)
        return solve(solver, g, cores)

    monkeypatch.setattr(RainbowSolver, "_solve", recording)
    return solvers


def recording_searches(monkeypatch) -> list:
    """Patch the solver's ``rainbow_free_colorable`` to note each host it
    searches; return the list of those hosts."""
    searches = []
    search = saturation.rainbow_free_colorable

    def recording(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(saturation, "rainbow_free_colorable", recording)
    return searches


def learned(solver) -> list:
    """The graphs the solver's own searches added to its lists: each is
    none of the catalogue's entries for its cores."""
    return [(cores, g) for cores, graphs in solver._known.items()
            for g in graphs if g not in catalogued(cores)]


def reader_runs() -> None:
    """Runs whose solvers read their lists, so each unbudgeted UNCOLORABLE
    search adds its refuted prefix: the certify-families checks, and greedy
    saturation from the empty graph, then the check of the graph it built,
    for C5 (n = 10..24), K1,4 and P5 (n = 5..12)."""
    for g, pattern in [(wheel_construction(16).graph, cycle(4))] + [
            (ladder_construction(complete_graph(r), n).graph, complete_graph(r))
            for r, n in ((3, 33), (4, 13), (4, 14))]:
        assert is_rainbow_saturated(g, [pattern]).status is Verdict.SATURATED
    for pattern, sizes in ((cycle(5), range(10, 25)), (star(4), range(5, 13)),
                           (path(5), range(5, 13))):
        for n in sizes:
            g = greedy_saturate(empty_graph(n), [pattern])
            assert is_rainbow_saturated(g, [pattern]).status is Verdict.SATURATED


def test_stored_graphs_are_uncolorable(monkeypatch):
    # the refuted prefixes that the reader runs learn, each checked on its
    # own in the list of the solver that searched, with the catalogue's
    # entries
    solvers = recording_solvers(monkeypatch)
    reader_runs()
    assert sum(len(learned(solver)) for solver in solvers) > 20
    held = set()  # each graph of each list with its cores, checked once below
    for solver in solvers:
        for cores, graphs in solver._known.items():
            assert [g.edge_count for g in graphs] == sorted(g.edge_count for g in graphs)
            assert len(set(graphs)) == len(graphs)
            held.update((cores, g) for g in graphs)
    for cores, g in held:
        assert all(g.degrees())  # renumbered onto the prefix's vertices
        if g.edge_count <= 11:
            assert not naive_rainbow_free_colorable(g, list(cores)), g
        else:
            assert rainbow_free_colorable(g, cores).status is Status.UNCOLORABLE, g


@pytest.mark.usefixtures("no_catalogue")
@pytest.mark.parametrize("host, pattern, untouched", [
    (gadget("GA").graph, cycle(4), []),
    (gadget("GB").graph, cycle(4), []),
    (gadget("star_plus_chord").graph, path(4), []),
    (complete_graph(9), cycle(5), []),  # a search of 1,135 nodes
    # GA with a pendant vertex 2 on vertex 0, which the prefix leaves out
    (Graph(7, gadget("GA").graph.edges + ((0, 6),)).relabel([0, 1, 3, 4, 5, 6, 2]), cycle(4), [2]),
], ids=["GA-C4", "GB-C4", "star_plus_chord-P4", "K9-C5", "GA-pendant-C4"])
def test_stored_graph_is_the_prefix_renumbered(host, pattern, untouched):
    # the graph that the search adds to its solver's list has the prefix's
    # edges and no other vertex; its vertex i is the i-th least host vertex
    # the prefix touches.  The list is started by testing the host, as a
    # reader does.  With no catalogue it starts empty: every host here but
    # K9 contains a catalogue entry, which would refute it with no search
    solver = RainbowSolver([pattern])
    assert not solver.contains_refuted(host)
    res = solver.colorability(host)
    assert res.status is Status.UNCOLORABLE
    [(cores, stored)] = learned(solver)
    assert cores == solver.fitting_cores(host.n)
    prefix = [host.edges[i] for i in res.stats.refuted]
    touched = sorted({v for e in prefix for v in e})
    assert sorted(set(range(host.n)) - set(touched)) == untouched
    assert stored.edge_count == len(prefix) and all(stored.degrees())
    assert stored.n == len(touched)
    assert Graph(host.n, [(touched[u], touched[v]) for u, v in stored.edges]) == Graph(host.n, prefix)


def test_solver_list_holds_one_graph_per_class(monkeypatch):
    # on reader traffic the graphs of each list are pairwise non-isomorphic:
    # a prefix isomorphic to a listed graph would have that graph embed in
    # the host it was learned from, which the reader tested first
    solvers = recording_solvers(monkeypatch)
    reader_runs()
    assert sum(len(learned(solver)) for solver in solvers) > 20
    for solver in solvers:
        for graphs in solver._known.values():
            assert len(graphs) == len({canonical_graph6(g) for g in graphs})


def test_no_graph_listed_before_a_prefix_embeds_in_it(monkeypatch):
    # each prefix is a subgraph of a host that its reader found no listed
    # graph in, so the list needs no embedding test of its own
    inserted = []
    solve = RainbowSolver._solve

    def recording(solver, g, cores):
        before = list(solver._known.get(cores, ()))
        res = solve(solver, g, cores)
        ids = {id(s) for s in before}
        inserted.extend((s, before) for s in solver._known.get(cores, ()) if id(s) not in ids)
        return res

    monkeypatch.setattr(RainbowSolver, "_solve", recording)
    reader_runs()
    assert len(inserted) > 20
    for s, before in inserted:
        assert not any(exists_embedding(s, t) for t in before), graph6_encode(s)


def test_walk_starts_no_solver_list(monkeypatch):
    # only contains_refuted starts a list, and no walk calls it: the walk's
    # UNCOLORABLE searches, of the 7 catalogue entries of C4 relabeled, add
    # nothing, and neither does a solver that only answers colorability
    solvers = recording_solvers(monkeypatch)
    all_rainbow_saturated(7, [cycle(4)])
    [solver] = solvers
    assert solver._known == {}
    solver = RainbowSolver([cycle(4)])
    assert solver.colorability(gadget("GA").graph).status is Status.UNCOLORABLE
    assert solver._known == {}


def test_each_solver_learns_its_own_refuted_graphs(monkeypatch):
    # a solver that refutes K9 for C5 knows it, while a fresh one knows
    # only the catalogue, which has no C5 entries
    k9 = complete_graph(9)
    solver = RainbowSolver([cycle(5)])
    assert not solver.contains_refuted(k9)
    assert solver.colorability(k9).status is Status.UNCOLORABLE
    assert solver.contains_refuted(k9)
    assert not RainbowSolver([cycle(5)]).contains_refuted(k9)
    # within one solver, the prefixes of its searches settle later pairs:
    # greedy addition on 16 vertices searches twice, and 7 times with none
    searches = recording_searches(monkeypatch)
    greedy_saturate(empty_graph(16), [cycle(5)])
    assert len(searches) == 2


def store_hosts():
    yield from ((wheel_construction(n).graph, [cycle(4)]) for n in range(6, 25))
    yield from ((p4_construction(n).graph, [path(4)]) for n in (16, 17, 18))
    yield from ((ladder_construction(complete_graph(3), n).graph, [complete_graph(3)])
                for n in (8, 9, 10, 33))
    yield from ((ladder_construction(complete_graph(4), n).graph, [complete_graph(4)])
                for n in (9, 13, 14))


def store_verdict(v):
    return v.status, v.nonedges_checked, v.nonedges_refuted, v.failing_edge, v.witness_coloring


@pytest.mark.usefixtures("no_catalogue")
def test_warm_store_gives_the_verdicts_of_an_empty_one():
    # one solver per family is warmed on each host and each host less its
    # last edge, which fails at or before that edge, in turn: it checks the
    # host's non-edges as the saturation check does, each settled by the
    # graphs it learned from the hosts before where one embeds.  Each host's
    # status and verdict are those of a fresh solver's check, and a fresh
    # solver refutes each graph that the warm list settled
    hosts = []
    for g, fam in store_hosts():
        hosts += [(g, fam), (Graph(g.n, g.edges[:-1]), fam)]
    warm, settled, verdicts = {}, [], []
    for g, fam in hosts:
        solver = warm.setdefault(graph6_encode(fam[0]), RainbowSolver(fam))
        assert solver.colorability(g).status is RainbowSolver(fam).colorability(g).status
        verdict = Verdict.SATURATED
        for u, v in _orbit_representatives(g, None):
            h = g.with_edge(u, v)
            if solver.contains_refuted(h):
                settled.append((h, fam))
            elif solver.colorability(h).status is Status.COLORABLE:
                verdict = Verdict.NOT_SATURATED
                break
        assert verdict is is_rainbow_saturated(g, fam).status, graph6_encode(g)
        verdicts.append(verdict)
    assert sum(len(learned(solver)) for solver in warm.values()) > 5
    assert len(settled) > 5
    for h, fam in settled:
        assert RainbowSolver(fam).colorability(h).status is Status.UNCOLORABLE
    assert Counter(verdicts) == {Verdict.SATURATED: 29, Verdict.NOT_SATURATED: 29}


def test_expired_embedding_test_finds_nothing_in_the_store(monkeypatch):
    solver = RainbowSolver([cycle(4)])
    g = gadget("GA").graph
    assert solver.colorability(g).status is Status.UNCOLORABLE
    assert solver.contains_refuted(g)

    def expired(*args):
        raise _Expired

    monkeypatch.setattr(saturation, "exists_embedding", expired)
    assert not solver.contains_refuted(g)


@pytest.mark.usefixtures("no_catalogue")
def test_budgeted_check_neither_reads_nor_fills_the_store(monkeypatch):
    # after an unbudgeted check has refuted the 14-vertex K4 ladder's
    # non-edges, a budgeted one with no catalogue still needs a search of
    # 3,741 nodes, past the budget, for the first of them
    g = ladder_construction(complete_graph(4), 14).graph
    assert is_rainbow_saturated(g, [complete_graph(4)]).status is Verdict.SATURATED
    got = is_rainbow_saturated(g, [complete_graph(4)], node_limit=1000)
    assert got.status is Verdict.INDETERMINATE
    assert (got.nonedges_checked, got.nonedges_refuted) == (1, 0)
    # nor does a budgeted search that refutes add to its solver's list,
    # which keeps the catalogue's entries alone
    h = ladder_construction(complete_graph(4), 13).graph
    solvers = recording_solvers(monkeypatch)
    assert is_rainbow_saturated(g, [complete_graph(4)], node_limit=10**6).status \
        is Verdict.SATURATED
    assert is_rainbow_saturated(h, [complete_graph(4)], node_limit=10**6).status \
        is Verdict.SATURATED
    assert len(solvers) == 2
    for solver in solvers:
        assert solver.node_limit == 10**6 and solver._known and not learned(solver)


def test_budgeted_check_reads_the_catalogue_not_the_store(monkeypatch):
    # the first non-edge of the 14-vertex K4 ladder gives a graph that K3
    # joined to four independent vertices (F?~~w) embeds in: the catalogue
    # settles it with no search, within the budget that the search exceeds
    g = ladder_construction(complete_graph(4), 14).graph
    with monkeypatch.context() as patch:
        patch.setattr(saturation, "_OBSTRUCTIONS", {})
        want = is_rainbow_saturated(g, [complete_graph(4)])
    searched = []
    colorability = RainbowSolver.colorability

    def recording(solver, h):
        searched.append(h)
        return colorability(solver, h)

    monkeypatch.setattr(RainbowSolver, "colorability", recording)
    got = is_rainbow_saturated(g, [complete_graph(4)], node_limit=1000)
    assert got.status is want.status is Verdict.SATURATED
    assert store_verdict(got) == store_verdict(want)
    assert g.with_edge(*g.non_edges()[0]) not in searched


# -- the catalogue of obstructions --------------------------------------------------


CATALOGUED = {
    "P3": path(3), "P4": path(4), "C4": cycle(4),
    "K3": complete_graph(3), "K4": complete_graph(4), "K1,3": star(3),
}


def canonical_graph6(g) -> str:
    return graph6_encode(canonical_form(g))


def catalogued(cores) -> list:
    """The catalogue's entries for each of ``cores``, decoded."""
    return [graph6_decode(text) for core in cores
            for text in saturation._OBSTRUCTIONS.get(canonical_graph6(core), ())]


def catalogue_entries(name) -> list:
    return [graph6_decode(text)
            for text in saturation._OBSTRUCTIONS[canonical_graph6(CATALOGUED[name])]]


@pytest.mark.parametrize("name", sorted(CATALOGUED))
def test_walk_on_seven_vertices_refutes_the_catalogue(name, monkeypatch):
    # a class that the walk hands to the solver has only free parents, so if
    # it is UNCOLORABLE it is deletion-minimal and its refuted prefix is all
    # of its edges: the walk's UNCOLORABLE searches are of the obstructions
    # on at most 7 vertices, and of nothing else
    refuted = []
    solve = RainbowSolver._solve

    def recording(solver, g, cores):
        res = solve(solver, g, cores)
        if res.status is Status.UNCOLORABLE:
            assert sorted(res.stats.refuted) == list(range(g.edge_count))
            refuted.append(induced_subgraph(g, {x for e in g.edges for x in e})[0])
        return res

    monkeypatch.setattr(RainbowSolver, "_solve", recording)
    all_rainbow_saturated(7, [CATALOGUED[name]])
    entries = catalogue_entries(name)
    assert sorted(map(canonical_graph6, refuted)) == sorted(map(graph6_encode, entries))
    assert [s.edge_count for s in entries] == sorted(s.edge_count for s in entries)
    assert len(saturation._OBSTRUCTIONS) == len(CATALOGUED)


def check_obstruction(s, pattern, naive: bool) -> None:
    """s is UNCOLORABLE for the pattern, and each one-edge-deleted subgraph
    is COLORABLE with a witness re-checked on its own; by the naive oracle
    too when ``naive``."""
    assert rainbow_free_colorable(s, [pattern]).status is Status.UNCOLORABLE
    if naive:
        assert not naive_rainbow_free_colorable(s, [pattern])
    for e in s.edges:
        sub = Graph(s.n, [f for f in s.edges if f != e])
        res = rainbow_free_colorable(sub, [pattern])
        assert res.status is Status.COLORABLE, (graph6_encode(s), e)
        assert is_proper(sub, res.witness)
        assert find_rainbow_embedding(sub, res.witness, pattern) is None
        if naive:
            assert naive_rainbow_free_colorable(sub, [pattern])


@pytest.mark.parametrize("name", sorted(CATALOGUED))
def test_catalogue_entries_are_obstructions(name):
    # the naive oracle takes the 12 entries with at most 11 edges (about
    # 1.3 s in all); F@Vfw (C4, 12 edges) is checked so under extended, and
    # the K4 entries (15 and 18 edges) are beyond it
    for s in catalogue_entries(name):
        check_obstruction(s, CATALOGUED[name], naive=s.edge_count <= 11)


@pytest.mark.extended
def test_twelve_edge_c4_obstruction_against_the_naive_oracle():
    [s] = [s for s in catalogue_entries("C4") if s.edge_count == 12]
    assert graph6_encode(s) == "F@Vfw"
    check_obstruction(s, cycle(4), naive=True)


@pytest.mark.parametrize("node_limit", [None, 10**6])
def test_catalogue_changes_no_verdict(node_limit, monkeypatch):
    # each host and each host less its last edge, each checked with the
    # catalogue and with it emptied: the same verdicts, the catalogue's with
    # fewer searches
    hosts = []
    for g, fam in store_hosts():
        hosts += [(g, fam), (Graph(g.n, g.edges[:-1]), fam)]
    searches = recording_searches(monkeypatch)
    runs = []
    for table in (saturation._OBSTRUCTIONS, {}):
        monkeypatch.setattr(saturation, "_OBSTRUCTIONS", table)
        before = len(searches)
        verdicts = []
        for g, fam in hosts:
            verdicts.append(store_verdict(is_rainbow_saturated(g, fam, node_limit=node_limit)))
        runs.append((verdicts, len(searches) - before))
    (with_table, searched), (without, searched_without) = runs
    assert with_table == without
    assert searched < searched_without


def test_catalogue_serves_relabeled_patterns_and_mixed_families(monkeypatch):
    # W4 is a C4 obstruction, and K2,4 a triangle-free one: an obstruction
    # for one core refutes every family that holds that core, in any
    # labeling, with no search and at any budget

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(saturation, "rainbow_free_colorable", no_search)
    c4 = Graph(4, [(0, 2), (1, 2), (1, 3), (0, 3)])
    assert c4 != cycle(4) and are_isomorphic(c4, cycle(4))
    mixed = [cycle(4), disjoint_union([complete_graph(3), empty_graph(2)])]
    w4 = Graph(7, wheel(5).edges + ((5, 6),)).relabel([3, 6, 0, 5, 1, 2, 4])
    k24 = Graph(7, complete_bipartite(2, 4).edges + ((2, 6),))
    assert not exists_embedding(k24, complete_graph(3))
    for host in (w4, k24):
        for family in ([c4], mixed):
            for node_limit in (None, 0):
                assert RainbowSolver(family, node_limit=node_limit).contains_refuted(host)
    # a host with no obstruction of the catalogue
    assert not RainbowSolver([c4]).contains_refuted(cycle(7))


# -- formulas and audits ---------------------------------------------------------------


def test_formula_values():
    assert sat_formula_oracle("EHM", 6, 4) == 9
    assert sat_formula_oracle("KT_P4", 7) == 5
    assert sat_formula_oracle("C4", 6) == 6


def test_formula_errors():
    with pytest.raises(ValueError):
        sat_formula_oracle("EHM", 4, 5)
    with pytest.raises(ValueError):
        sat_formula_oracle("EHM", 4)
    with pytest.raises(ValueError):
        sat_formula_oracle("C4", 3)
    with pytest.raises(ValueError):
        sat_formula_oracle("nope", 5)


def test_ehm_uniqueness_small():
    res = sat_exact(6, complete_graph(4))
    assert res.value == sat_formula_oracle("EHM", 6, 4)
    assert len(res.witnesses) == 1
    assert are_isomorphic(graph6_decode(res.witnesses[0]), ehm_graph(6, 4))


def test_structural_report_wheel():
    rep = structural_report(wheel(8), clique_order=4)
    assert rep["min_degree"] == 3
    assert rep["degree_one_vertices"] == []
    assert rep["nonadjacent_low_degree_pairs"] == []


def test_structural_report_lists_low_degree_pairs():
    rep = structural_report(cycle(4), clique_order=4)
    assert rep["nonadjacent_low_degree_pairs"] == [(0, 2), (1, 3)]
