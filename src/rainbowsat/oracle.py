"""Brute-force reference implementations.

Everything here is deliberately naive and shares no pruned code paths with
the engine: set partitions are enumerated in full and filtered, copies are
found by raw permutation search, and isomorphism is decided by trying every
bijection.  These are the oracles the fast implementations are checked
against.  ``graph_counts`` counts isomorphism classes by Pólya's theorem,
without generating a single graph.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial, gcd

from .graphs import Graph


def set_partitions(m: int):
    """All partitions of {0..m-1} as restricted-growth block-id lists."""
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


def partition_is_proper(g: Graph, blocks) -> bool:
    edges = g.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if blocks[i] == blocks[j] and set(edges[i]) & set(edges[j]):
                return False
    return True


def brute_embeddings(g: Graph, h: Graph):
    """Edge-index sets of all copies of h in g, by raw permutation search."""
    if h.n > g.n:
        return set()
    hedges = h.edges
    found = set()
    for combo in combinations(range(g.n), h.n):
        for perm in permutations(combo):
            ids = []
            ok = True
            for u, v in hedges:
                a, b = perm[u], perm[v]
                if not g.has_edge(a, b):
                    ok = False
                    break
                ids.append(g.edge_index[(a, b) if a < b else (b, a)])
            if ok:
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
    verdict = {key: False for key in families}
    pending = set(families)
    for blocks in set_partitions(len(g.edges)):
        if not pending:
            break
        if not partition_is_proper(g, blocks):
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


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gset = set(g.edges)
    for perm in permutations(range(g.n)):
        ok = True
        for u, v in h.edges:
            a, b = perm[u], perm[v]
            if (a, b) not in gset and (b, a) not in gset:
                ok = False
                break
        if ok:
            return True
    return False


def brute_non_edge_orbits(g: Graph) -> list:
    """The first non-edge of each orbit of g's automorphism group on its
    non-edges, in lexicographic order, trying every bijection."""
    edges = g.edges
    adj = g.adj
    first = {e: e for e in g.non_edges()}  # non-edge -> least image so far
    for perm in permutations(range(g.n)):
        if all(adj[perm[u]] >> perm[v] & 1 for u, v in edges):
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
