"""Brute-force reference implementations.

Everything here is deliberately naive and shares no pruned code paths with
the engine: set partitions are enumerated in full and filtered, and copies,
isomorphisms and automorphisms all come from one raw permutation search
(``_edge_maps``).  These are the oracles the fast implementations are checked
against.  ``graph_counts`` counts isomorphism classes by Pólya's theorem,
without generating a single graph.

Two rules keep this module independent, and a test enforces the first:

* the only name it imports from the package is ``Graph`` from ``.graphs``,
  so nothing here borrows the engine's or the saturation layer's pruning;
* the partition sweep is never pruned: every set partition is generated,
  in lexicographic order, and only then filtered for properness.

Speedups may lower the cost of each step (a flat generator, precomputed
conflicting edge pairs, bitmask edge tests), never the number of steps.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial, gcd

from .graphs import Graph


def set_partitions(m: int):
    """All partitions of {0..m-1} as restricted-growth block-id lists, in
    lexicographic order; each yielded list is a fresh one."""
    if m < 0:
        raise ValueError("negative element count")
    return _restricted_growth(m)


def _restricted_growth(m: int):
    if m <= 1:
        yield [0] * m
        return
    # blocks[i] may range over 0..top[i]: top[0] = 0, else 1 + max(blocks[:i])
    blocks = [0] * m
    top = [0] + [1] * (m - 1)
    last = m - 1
    while True:
        head = blocks[:last]
        for c in range(top[last] + 1):
            yield head + [c]
        i = last - 1
        while i and blocks[i] == top[i]:
            i -= 1
        if i == 0:
            return
        blocks[i] += 1
        nxt = top[i] + 1 if blocks[i] == top[i] else top[i]
        for j in range(i + 1, m):
            blocks[j] = 0
            top[j] = nxt


def _edge_maps(g: Graph, h: Graph):
    """Every injective map of h's vertices into g's that sends each edge of h
    onto an edge of g, as a tuple of images, trying every permutation."""
    adj = g.adj
    hedges = h.edges
    for perm in permutations(range(g.n), h.n):
        for u, v in hedges:
            if not adj[perm[u]] >> perm[v] & 1:
                break
        else:
            yield perm


def brute_embeddings(g: Graph, h: Graph):
    """Edge-index sets of all copies of h in g, by raw permutation search."""
    hedges = h.edges
    index = g.edge_index
    found = set()
    for perm in _edge_maps(g, h):
        ids = []
        for u, v in hedges:
            a, b = perm[u], perm[v]
            ids.append(index[(a, b) if a < b else (b, a)])
        found.add(tuple(sorted(ids)))
    return found


def naive_rainbow_free_colorable(g: Graph, patterns) -> bool:
    """Reference decision: some all-matchings partition leaves no copy rainbow."""
    return naive_rainbow_free_colorable_multi(g, {"_": patterns})["_"]


def naive_rainbow_free_colorable_multi(g: Graph, families: dict) -> dict:
    """Decide several families over one shared partition sweep.

    families maps an arbitrary key to a list of pattern graphs; the result
    maps each key to the colorability verdict.
    """
    copy_sets = {
        key: [emb for h in pats for emb in sorted(brute_embeddings(g, h))]
        for key, pats in families.items()
    }
    edges = g.edges
    # a partition is proper when it splits every pair of edges sharing a vertex
    conflicts = [
        (i, j)
        for i, j in combinations(range(len(edges)), 2)
        if set(edges[i]) & set(edges[j])
    ]
    verdict = {key: False for key in families}
    pending = set(families)
    for blocks in set_partitions(len(edges)):
        if not pending:
            break
        for i, j in conflicts:
            if blocks[i] == blocks[j]:
                break
        else:
            for key in list(pending):
                for emb in copy_sets[key]:
                    if len({blocks[i] for i in emb}) == len(emb):
                        break  # a rainbow copy
                else:
                    verdict[key] = True
                    pending.discard(key)
    return verdict


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return next(_edge_maps(g, h), None) is not None


def brute_non_edge_orbits(g: Graph) -> list:
    """The first non-edge of each orbit of g's automorphism group on its
    non-edges, in lexicographic order, trying every bijection."""
    first = {e: e for e in g.non_edges()}  # non-edge -> least image so far
    for perm in _edge_maps(g, g):
        for u, v in first:
            a, b = perm[u], perm[v]
            first[u, v] = min(first[u, v], (a, b) if a < b else (b, a))
    return sorted(set(first.values()))


def _cycle_types(n: int, largest: int | None = None):
    """Partitions of n as non-increasing part lists: the cycle types of S_n."""
    if n == 0:
        yield []
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - k, k):
            yield [k] + rest


def graph_counts(n: int) -> tuple:
    """The number of graphs on n vertices with m edges, for m = 0..C(n, 2).

    Pólya's theorem (Harary and Palmer, *Graphical Enumeration*, 1973,
    ch. 4): average over S_n the generating function of the edge sets a
    permutation fixes.  A permutation fixes an edge set iff the set is a
    union of the cycles it induces on vertex pairs, so each pair cycle of
    length L contributes a factor 1 + x^L.  A vertex cycle of length a
    induces (a-1)/2 pair cycles of length a when a is odd, and (a-2)/2 of
    length a plus one of length a/2 when a is even; two vertex cycles of
    lengths a and b induce gcd(a, b) pair cycles of length lcm(a, b).
    """
    if n < 0:
        raise ValueError("negative vertex count")
    total = [0] * (comb(n, 2) + 1)
    for parts in _cycle_types(n):
        lengths = []
        for i, a in enumerate(parts):
            lengths += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                lengths.append(a // 2)
            for b in parts[i + 1 :]:
                g = gcd(a, b)
                lengths += [a * b // g] * g
        poly = [1] + [0] * (len(total) - 1)
        for length in lengths:
            for m in range(len(poly) - 1, length - 1, -1):
                poly[m] += poly[m - length]
        # the number of permutations of this cycle type
        weight = factorial(n)
        for a, c in Counter(parts).items():
            weight //= a**c * factorial(c)
        for m, c in enumerate(poly):
            total[m] += weight * c
    return tuple(c // factorial(n) for c in total)
