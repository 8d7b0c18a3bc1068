"""Exact rainbow saturation workbench for small edge-colored graphs."""

from .graphs import (
    Graph,
    are_isomorphic,
    automorphism_generators,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle,
    disjoint_union,
    empty_graph,
    graph6_decode,
    graph6_encode,
    graph_to_json,
    is_even_cycle_free,
    join,
    named_graph,
    path,
    star,
    wheel,
)
from .engine import (
    ColorabilityResult,
    Pattern,
    Status,
    enumerate_embeddings,
    exists_embedding,
    find_rainbow_embedding,
    is_proper,
    rainbow_free_colorable,
)
from .saturation import (
    RainbowSolver,
    SatNumberResult,
    SaturationVerdict,
    SearchAborted,
    Verdict,
    all_rainbow_saturated,
    greedy_saturate,
    is_rainbow_saturated,
    sat_exact,
    sat_formula_oracle,
    sat_star_exact,
    structural_report,
)
from .constructions import (
    ColoredGraph,
    FamilyLadder,
    Gadget,
    LadderResult,
    build_family_ladder,
    ehm_graph,
    gadget,
    gadget_names,
    ladder_construction,
    p4_construction,
    wheel_construction,
)

__version__ = "0.1.0"
