import pytest

from rainbowsat import (
    Graph,
    SearchAborted,
    Status,
    Verdict,
    are_isomorphic,
    complete_graph,
    cycle,
    empty_graph,
    find_rainbow_embedding,
    is_even_cycle_free,
    is_proper,
    is_rainbow_saturated,
    join,
    path,
    rainbow_free_colorable,
    star,
    wheel,
)
from rainbowsat.constructions import (
    build_family_ladder,
    ehm_graph,
    gadget,
    gadget_names,
    ladder_construction,
    lift_sizes,
    p4_construction,
    wheel_construction,
)
from rainbowsat.graphs import canonical_form, graph6_encode
from rainbowsat.saturation import RainbowSolver


# -- join construction -----------------------------------------------------------


def test_ehm_graph_values():
    assert ehm_graph(6, 4).edge_count == 9
    assert are_isomorphic(ehm_graph(5, 3), star(4))
    for r in (3, 4, 5):
        g = ehm_graph(r, r)
        assert g.edge_count == (r - 2) * 2 + (r - 2) * (r - 3) // 2
    with pytest.raises(ValueError):
        ehm_graph(3, 5)
    with pytest.raises(ValueError):
        ehm_graph(4, 1)


# -- disjoint K4/star construction -------------------------------------------------


def test_p4_construction_arithmetic():
    for n, a, edges in [(20, 0, 16), (16, 4, 24), (17, 3, 22)]:
        cg = p4_construction(n)
        assert (-n) % 5 == a
        assert cg.graph.n == n
        assert cg.graph.edge_count == edges == (4 * n + 14 * a) // 5


def test_p4_construction_component_multiset():
    from rainbowsat.graphs import induced_subgraph

    for n in range(16, 41):
        a = (-n) % 5
        cg = p4_construction(n)
        assert cg.graph.edge_count == (4 * n + 14 * a) // 5
        k4s = stars = 0
        for comp in cg.graph.components():
            sub, _ = induced_subgraph(cg.graph, comp)
            if are_isomorphic(sub, complete_graph(4)):
                k4s += 1
            elif are_isomorphic(sub, star(4)):
                stars += 1
            else:
                raise AssertionError(f"unexpected component at n={n}")
        assert k4s == a and stars == (n - 4 * a) // 5


def test_p4_construction_coloring():
    cg = p4_construction(17)
    assert is_proper(cg.graph, cg.coloring)
    assert find_rainbow_embedding(cg.graph, cg.coloring, path(4)) is None


def test_p4_construction_range():
    with pytest.raises(ValueError):
        p4_construction(15)


# -- wheel construction --------------------------------------------------------------


def test_wheel_construction_basics():
    cg = wheel_construction(6)
    assert cg.graph.edge_count == 10
    assert is_proper(cg.graph, cg.coloring)
    with pytest.raises(ValueError):
        wheel_construction(5)


def test_wheel_coloring_pairs_spoke_with_shifted_rim_edge():
    n = 8
    cg = wheel_construction(n)
    rim = n - 1
    idx = cg.graph.edge_index
    for i in range(rim):
        spoke = idx[(i, rim)]
        a, b = (i + 1) % rim, (i + 2) % rim
        rim_edge = idx[(min(a, b), max(a, b))]
        assert cg.coloring.classes[spoke] == cg.coloring.classes[rim_edge]


def test_wheel_coloring_avoids_rainbow_c4():
    for n in (6, 7, 8, 9):
        cg = wheel_construction(n)
        assert find_rainbow_embedding(cg.graph, cg.coloring, cycle(4)) is None


def test_wheel_saturated_small():
    v = is_rainbow_saturated(wheel_construction(8).graph, [cycle(4)])
    assert v.status is Verdict.SATURATED


# -- gadgets ----------------------------------------------------------------------


def test_gadget_structures():
    ga = gadget("GA")
    assert ga.graph.n == 6 and ga.graph.edge_count == 10
    assert ga.graph.has_edge(*ga.marked_edge)
    gb = gadget("GB")
    assert gb.graph.n == 7 and gb.graph.edge_count == 11
    sc = gadget("star_plus_chord")
    assert sc.graph.n == 5 and sc.graph.edge_count == 5
    st_ = gadget("star_plus_tail")
    assert st_.graph.n == 6 and st_.graph.edge_count == 5
    assert are_isomorphic(gadget("cherry_closed").graph, complete_graph(3))
    assert are_isomorphic(gadget("path_closed").graph, cycle(4))
    with pytest.raises(ValueError):
        gadget("bogus")
    assert "GA" in gadget_names()


def test_gadgets_embed_in_augmented_wheels():
    # a short chord yields the six-vertex gadget, a long chord the seven-vertex one
    from rainbowsat.engine import exists_embedding

    w = wheel(10)
    assert exists_embedding(w.with_edge(0, 2), gadget("GA").graph)
    assert exists_embedding(w.with_edge(0, 4), gadget("GB").graph)
    assert not exists_embedding(w, gadget("GA").graph)
    assert not exists_embedding(w, gadget("GB").graph)


# the gadget verdicts the c4-wheel and p4-construction claims expect
GADGET_VERDICTS = {
    "GA": ([cycle(4)], Status.UNCOLORABLE),
    "GB": ([cycle(4)], Status.UNCOLORABLE),
    "star_plus_chord": ([path(4)], Status.UNCOLORABLE),
    "star_plus_tail": ([path(4)], Status.UNCOLORABLE),
    "cherry_closed": ([path(4)], Status.COLORABLE),
    "claw_closed": ([path(4)], Status.COLORABLE),
    "path_closed": ([path(4)], Status.COLORABLE),
}


def test_gadget_colorability_verdicts():
    for name, (family, want) in GADGET_VERDICTS.items():
        assert rainbow_free_colorable(gadget(name).graph, family).status is want


@pytest.mark.parametrize("name", sorted(GADGET_VERDICTS))
def test_solver_colorable_agrees_with_colorability(name):
    family, want = GADGET_VERDICTS[name]
    g = gadget(name).graph
    solver = RainbowSolver(family)
    res = solver.colorability(g)
    assert res.status is want
    assert (solver.witness(g) is not None) is (want is Status.COLORABLE)
    starved = RainbowSolver(family, node_limit=0)
    if not res.stats.searches:
        # no pattern fits the host, so no search runs and no node is spent
        assert (starved.witness(g) is not None) is (want is Status.COLORABLE)
        return
    with pytest.raises(SearchAborted, match=r"^budget exhausted") as err:
        starved.witness(g)
    assert graph6_encode(g) in str(err.value)


# -- family ladder ------------------------------------------------------------------


def test_ladder_for_cliques():
    lad = build_family_ladder(complete_graph(4))
    assert lad.orders == (4, 3, 2)
    assert lad.alphas == (1, 1)
    assert lad.depth == 2
    for i in range(3):
        assert len(lad.levels[i]) == 1
        assert are_isomorphic(lad.levels[i][0], complete_graph(4 - i))
    lad3 = build_family_ladder(complete_graph(3))
    assert lad3.orders == (3, 2) and lad3.alphas == (1,)


def test_ladder_tree_terminates_immediately():
    assert build_family_ladder(path(4)).depth == 0


def test_ladder_bowtie():
    # two triangles sharing vertex 0
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert is_even_cycle_free(bowtie)
    lad = build_family_ladder(bowtie)
    assert lad.orders == (5, 3)
    assert lad.alphas == (2,)
    assert all(are_isomorphic(f, path(3)) for f in lad.levels[1])


def test_ladder_rejects_even_cycles():
    with pytest.raises(ValueError):
        build_family_ladder(cycle(4))
    with pytest.raises(ValueError):
        build_family_ladder(cycle(6))


def test_ladder_levels_share_order_and_stay_even_cycle_free():
    lad = build_family_ladder(complete_graph(4))
    for level in lad.levels:
        orders = {f.n for f in level}
        assert len(orders) == 1
        assert all(is_even_cycle_free(f) for f in level)
    # each deletion step drops exactly the level's independence number
    for i in range(lad.depth):
        assert lad.orders[i + 1] == lad.orders[i] - lad.alphas[i]
    # terminating level contains a forest
    assert any(f.is_forest() for f in lad.levels[-1])


def test_ladder_level_dedup_is_canonical():
    lad = build_family_ladder(complete_graph(4))
    for level in lad.levels:
        encs = [canonical_form(f).encoding for f in level]
        assert len(encs) == len(set(encs))


# -- ladder construction ---------------------------------------------------------------


def test_lift_sizes_clamping():
    lad3 = build_family_ladder(complete_graph(3))
    assert lad3.guaranteed_sizes == [30]
    assert lift_sizes(lad3, 9) == [8]
    assert lift_sizes(lad3, 31) == [30]
    assert lift_sizes(lad3, 40) == [30]
    lad4 = build_family_ladder(complete_graph(4))
    assert lad4.guaranteed_sizes == [68, 30]
    assert lift_sizes(lad4, 100) == [68, 30]
    assert sum(lift_sizes(lad4, 9)) == 8
    # two lifts with floor 1 each need at least three vertices overall
    assert lift_sizes(lad4, 3) == [1, 1]
    with pytest.raises(ValueError):
        lift_sizes(lad4, 2)


def test_ladder_construction_k3_small():
    for n in (4, 9):
        res = ladder_construction(complete_graph(3), n)
        assert res.graph.n == n
        v = is_rainbow_saturated(res.graph, [complete_graph(3)])
        assert v.status is Verdict.SATURATED


def test_ladder_construction_k3_guaranteed_sizes():
    res = ladder_construction(complete_graph(3), 32)
    assert res.trace["lift_sizes"] == [30]
    assert res.trace["guaranteed_sizes"] == [30]
    assert are_isomorphic(res.graph, join(empty_graph(30), empty_graph(2)))
    v = is_rainbow_saturated(res.graph, [complete_graph(3)])
    assert v.status is Verdict.SATURATED


def test_ladder_construction_k4_small():
    res = ladder_construction(complete_graph(4), 9)
    v = is_rainbow_saturated(res.graph, [complete_graph(4)])
    assert v.status is Verdict.SATURATED
    assert res.trace["lifts"]


def test_ladder_construction_linear_growth():
    ratios = []
    for n in range(8, 15):
        res = ladder_construction(complete_graph(3), n)
        assert is_rainbow_saturated(res.graph, [complete_graph(3)]).status is Verdict.SATURATED
        ratios.append(res.graph.edge_count / n)
    assert max(ratios) <= 31


@pytest.mark.parametrize("node_limit", [0, 1])
@pytest.mark.usefixtures("no_catalogue")
def test_ladder_construction_budget_abort(node_limit):
    with pytest.raises(SearchAborted, match=r"^budget exhausted"):
        ladder_construction(complete_graph(3), 9, node_limit=node_limit)


def test_ladder_construction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ladder_construction(cycle(4), 12)
    with pytest.raises(ValueError):
        ladder_construction(complete_graph(4), 2)
