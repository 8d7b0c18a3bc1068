"""Hypothesis strategies and graph builders shared across the test suite."""
from itertools import combinations

from hypothesis import strategies as st

from rainbowsat import Graph


@st.composite
def graphs(draw, min_n=1, max_n=7, max_edges=None):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    cap = len(pairs) if max_edges is None else min(max_edges, len(pairs))
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=cap)
        if pairs
        else st.just([])
    )
    return Graph(n, chosen)


def flower(petals, k):
    """A hub, vertex 0, joined to both ends of each of ``petals`` paths on
    k vertices: cycles of length k + 1 through one vertex."""
    edges = []
    for i in range(petals):
        first = 1 + i * k
        edges += [(0, first), (0, first + k - 1)]
        edges += [(first + j, first + j + 1) for j in range(k - 1)]
    return Graph(1 + petals * k, edges)
