"""Bitset-backed simple graphs on at most 64 vertices.

Vertices are labeled 0..n-1 and each vertex stores its neighborhood as one
integer bitmask, so adjacency tests, intersections and degree counts are
single machine-word operations.  The edge list of a graph is always ordered
lexicographically by (min endpoint, max endpoint); every edge index used in
the rest of the package (colorings, embeddings, search traces) refers to
that order.
"""
from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from math import comb

MAX_VERTICES = 64


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable undirected simple graph.

    Construct with a vertex count and an iterable of (u, v) pairs.  Loops and
    out-of-range endpoints are rejected; duplicate pairs collapse.
    """

    __slots__ = ("n", "adj", "_edges", "_edge_index")

    def __init__(self, n: int, edges=()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._edges = None
        self._edge_index = None

    # -- basic accessors -------------------------------------------------

    @property
    def edges(self) -> tuple:
        """Edge list in lexicographic (u, v) order with u < v."""
        if self._edges is None:
            out = []
            for u in range(self.n):
                mask = self.adj[u] >> (u + 1)
                v = u + 1
                while mask:
                    if mask & 1:
                        out.append((u, v))
                    mask >>= 1
                    v += 1
            self._edges = tuple(out)
        return self._edges

    @property
    def edge_index(self) -> dict:
        """Map (u, v) with u < v to its position in ``edges``."""
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edges)}
        return self._edge_index

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple:
        return tuple(a.bit_count() for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def non_edges(self) -> list:
        """Unordered pairs of distinct nonadjacent vertices, lexicographic."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not (self.adj[u] >> v) & 1
        ]

    def twin_classes(self) -> tuple:
        """The twin class of each vertex as a bitmask, indexed by vertex:
        twins have equal open (nonadjacent twins) or closed (adjacent twins)
        neighborhoods, and no vertex has twins of both kinds."""
        least = {}  # open neighborhood, or ~closed one, -> least vertex having it
        owner = []
        masks = [0] * self.n
        for v, row in enumerate(self.adj):
            u = least.setdefault(row, least.setdefault(~(row | (1 << v)), v))
            owner.append(u)
            masks[u] |= 1 << v
        return tuple([masks[u] for u in owner])

    def orbit_non_edges(self, gens=()) -> list:
        """The lexicographically first non-edge of each orbit under the twin
        group, or under the group that it and the automorphisms ``gens``
        (tuples sending v to perm[v]) generate, in lexicographic order.

        Twins have equal neighborhoods apart from each other, so swapping two
        twins is an automorphism; twin classes are cliques or independent
        sets, and a vertex outside a class sees all of it or none of it.  So
        the first non-edges are the joins of nonadjacent class minima plus
        the two least vertices of each independent class of two or more.

        An automorphism maps twin classes onto twin classes, so it maps twin
        orbits onto twin orbits; joining each first non-edge's twin orbit
        with its images' under ``gens`` gives the larger group's orbits.
        """
        adj = self.adj
        classes = self.twin_classes()
        rest = 0  # the class minima
        for cls in classes:
            rest |= cls & -cls
        out = []
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            others = classes[u] ^ bit
            # the class's next vertex, which u sees iff the class is a clique
            mates = (rest | (others & -others)) & ~adj[u]
            while mates:
                bit = mates & -mates
                mates ^= bit
                out.append((u, bit.bit_length() - 1))
        if not gens or len(out) < 2:
            return out

        def first(a, b):
            """The first non-edge of the twin orbit of the non-edge ab."""
            ca, cb = classes[a], classes[b]
            if ca == cb:  # an independent class: its two least vertices
                low = ca & -ca
                ca ^= low
                cb = ca & -ca
            else:
                low = ca & -ca
                cb &= -cb
                if cb < low:
                    low, cb = cb, low
            return low.bit_length() - 1, cb.bit_length() - 1

        root = {e: e for e in out}  # union-find, each root its class's least
        for perm in gens:
            for u, v in out:
                _union(root, (u, v), first(perm[u], perm[v]))
        return [e for e in out if root[e] == e]

    # -- derived graphs --------------------------------------------------

    @staticmethod
    def _from_adj(n: int, adj: list) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = n
        g.adj = tuple(adj)
        g._edges = None
        g._edge_index = None
        return g

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad edge ({u},{v})")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._from_adj(self.n, adj)

    def relabel(self, perm) -> "Graph":
        """Return the graph with vertex v renamed to perm[v].

        Maps adjacency rows directly, so the edge list of ``self`` is never
        built; ``perm`` must be a permutation of ``range(n)``.
        """
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabeling {perm!r} is not a permutation of 0..{self.n - 1}")
        adj = [0] * self.n
        for v, row in enumerate(self.adj):
            mask = 0
            while row:
                low = row & -row
                mask |= 1 << perm[low.bit_length() - 1]
                row ^= low
            adj[perm[v]] = mask
        return Graph._from_adj(self.n, adj)

    # -- structure -------------------------------------------------------

    def component(self, v: int) -> tuple:
        """The connected component of v as a sorted vertex tuple."""
        comp = frontier = 1 << v
        while frontier:
            nxt = 0
            for w in iter_bits(frontier):
                nxt |= self.adj[w]
            frontier = nxt & ~comp
            comp |= nxt
        return tuple(iter_bits(comp))

    def components(self) -> list:
        """Connected components as sorted vertex tuples, ordered by minimum."""
        out = []
        seen = set()
        for v in range(self.n):
            if v not in seen:
                out.append(self.component(v))
                seen.update(out[-1])
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component(0)) == self.n

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for w in iter_bits(self.adj[v]):
                    if color[w] < 0:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return False
        return True

    def is_forest(self) -> bool:
        return self.edge_count == self.n - len(self.components())

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def induced_subgraph(g: Graph, vertices) -> tuple:
    """Induced subgraph on ``vertices`` plus the back-map to original labels.

    Returns (subgraph, vmap) where subgraph vertex i corresponds to original
    vertex vmap[i]; vmap is sorted ascending.
    """
    vmap = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(vmap)}
    edges = [
        (pos[u], pos[v]) for u, v in combinations(vmap, 2) if g.has_edge(u, v)
    ]
    return Graph(len(vmap), edges), vmap


# -- standard generators ---------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(r: int) -> Graph:
    if not 1 <= r <= MAX_VERTICES:
        raise ValueError(f"complete graph order {r} outside 1..{MAX_VERTICES}")
    return Graph(r, combinations(range(r), 2))


def path(k: int) -> Graph:
    if k < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    if leaves < 0:
        raise ValueError("negative leaf count")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel(n: int) -> Graph:
    """Wheel on n vertices: hub n-1 joined to the cycle 0..n-2."""
    if n < 4:
        raise ValueError("wheel needs at least four vertices")
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(n, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return join(empty_graph(a), empty_graph(b))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint copies of g and h plus all edges in between.

    Vertices of g keep their labels; vertices of h are shifted by g.n.
    """
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join would have {n} > {MAX_VERTICES} vertices")
    edges = list(g.edges)
    edges += [(u + g.n, v + g.n) for u, v in h.edges]
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return Graph(n, edges)


def disjoint_union(gs) -> Graph:
    gs = list(gs)
    n = sum(g.n for g in gs)
    if n > MAX_VERTICES:
        raise ValueError(f"union would have {n} > {MAX_VERTICES} vertices")
    edges = []
    offset = 0
    for g in gs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph(n, edges)


# -- canonical forms and isomorphism ----------------------------------------


def _refine(adj, cells, dirty):
    """Equitable refinement of an ordered partition.

    The list ``cells`` is refined in place and returned; a split replaces a
    cell by new lists, so the cell lists themselves are never changed.  A
    cell splits by its vertices' neighbor counts into a splitter cell, the
    parts ordered by count ascending and each keeping the cell's vertex
    order.  The splitter is always the first cell that can still split
    something, and it splits the first cell it can; the rule depends only on
    counts and cell order, so it commutes with vertex relabeling.

    ``dirty[i]`` is false only for a cell known to split no cell.  That stays
    true until the cell itself splits, because a part of a cell with equal
    counts into a splitter has equal counts too, so only the parts of a split
    cell become splitters again.  ``dirty`` is updated along with ``cells``.
    The result, cell order and vertex order within cells included, is the
    partition that repeating the first possible split until none is left
    gives; it returns as soon as the partition is equitable or discrete.
    """
    n = len(adj)
    k = len(cells)
    s = 0
    while s < k < n:
        if not dirty[s]:
            s += 1
            continue
        scell = cells[s]
        single = len(scell) == 1
        if single:
            row = adj[scell[0]]
        else:
            smask = 0
            for w in scell:
                smask |= 1 << w
        d = 0
        while d < k:
            cell = cells[d]
            if len(cell) == 1:
                d += 1
                continue
            if single:
                inside = [v for v in cell if (row >> v) & 1]
                if not inside or len(inside) == len(cell):
                    d += 1
                    continue
                parts = [[v for v in cell if not (row >> v) & 1], inside]
            else:
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    d += 1
                    continue
                parts = [groups[c] for c in sorted(groups)]
            cells[d : d + 1] = parts
            dirty[d : d + 1] = [True] * len(parts)
            k += len(parts) - 1
            if d <= s:
                break  # the first new part is now the first possible splitter
            d += len(parts)  # s cannot split the parts it just made
        else:
            dirty[s] = False
            s += 1
            continue
        s = d
    return cells


def _leaf_code(adj, order):
    code = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            code = (code << 1) | ((row >> order[i]) & 1)
    return code


class _Expired(Exception):
    """A search's deadline, a ``time.monotonic`` value, has passed."""


def _canonical_search(g: Graph, deadline=None):
    """The first ordering that reaches the minimum adjacency code over all
    refinement-compatible orderings, and generators of automorphisms met on
    the way, each a list sending v to perm[v].

    The tree individualizes one vertex of the first non-singleton cell per
    level and refines.  A later leaf with the code of the first leaf, or of
    the best one so far, gives the map from that leaf's ordering onto its
    own; equal codes mean it keeps the adjacency of every pair of vertices,
    so it is an automorphism.  It fixes the vertices that the two leaves'
    paths individualized in common, so it maps the subtree at their common
    node onto itself, and the new leaf's subtree one level below onto the
    other leaf's, explored before.
    The search prunes only subtrees that are automorphic images of subtrees
    explored before them, and so have the same leaf codes: it leaves the
    new leaf's subtree at once, back to the common node, and each node
    skips a child in the orbit of an explored child under the generators
    found so far that fix the node's individualized vertices, or a twin of
    an explored child, which a transposition swaps.  So neither the minimum
    nor the first ordering reaching it changes (McKay and Piperno,
    *Practical graph isomorphism, II*, 2014).  A cell of twins has one child
    only, and refinement leaves the rest of it a cell of twins, so such a
    cell is individualized in order, one level per vertex, with no
    refinement.

    The generators and the twin transpositions together generate the
    automorphism group: at each node on the first path, every child in the
    first child's orbit is either explored, and gives an automorphism
    mapping the first child's subtree onto its own, or skipped as an image
    of an explored one.  Past ``deadline`` (a ``time.monotonic`` value) the
    search stops and returns None and the generators found so far.
    """
    n, adj = g.n, g.adj
    if n <= 1:
        return tuple(range(n)), []
    # twins (equal open or closed neighborhoods) are swapped by a
    # transposition automorphism, so one child per twin class suffices
    twins = g.twin_classes()

    first = best = None  # the code of the first leaf, and of the best one
    leaves = {}  # code -> (ordering, individualized vertices) of those two
    gens = []
    fixes = []  # the vertices each generator fixes, as a bitmask
    path = []  # the vertices individualized above the current node

    def descend(cells) -> int:
        """Search below the node ``cells``, whose individualized vertices
        are ``path``; return the depth at which the search resumes, less
        than the node's depth to leave it."""
        nonlocal first, best
        if len(cells) == n:  # discrete: a leaf
            if deadline is not None and time.monotonic() > deadline:
                raise _Expired
            order = [c[0] for c in cells]
            code = _leaf_code(adj, order)
            if first is None:
                first = best = code
            elif code == first or code == best:
                # equal codes: the map between the orderings keeps every
                # pair's adjacency, so it is an automorphism
                known, known_path = leaves[code]
                perm = [0] * n
                fix = 0
                for a, b in zip(known, order):
                    perm[a] = b
                    if a == b:
                        fix |= 1 << a
                gens.append(perm)
                fixes.append(fix)
                # back to the node where the two paths part
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
        mask = 0
        for v in cell:
            mask |= 1 << v
        if not mask & ~twins[cell[0]]:
            # a cell of twins (see the docstring); the levels it takes
            # return at most this node's depth, as the sibling loop does
            depth = len(path)
            path.extend(cell[:-1])
            back = descend(cells[:target] + [[v] for v in cell] + cells[target + 1 :])
            del path[depth:]
            return min(back, depth)
        tried = 0  # the twin classes of the children explored
        explored = []
        orbit = None  # union-find over the vertices under the generators fixing ``path``
        used = 0  # the generators looked at
        for i, v in enumerate(cell):
            if tried >> v & 1:
                continue
            if used < len(gens):
                orbit = _join_orbits(orbit, gens[used:], fixes[used:], path)
                used = len(gens)
            if orbit is not None and _find(orbit, v) in {_find(orbit, u) for u in explored}:
                continue
            tried |= twins[v]
            rest = cell[:i] + cell[i + 1 :]
            # the partition was equitable, so only the two new cells can split
            dirty = [False] * (len(cells) + 1)
            dirty[target] = dirty[target + 1] = True
            path.append(v)
            back = descend(_refine(adj, cells[:target] + [[v], rest] + cells[target + 1 :], dirty))
            path.pop()
            if back < len(path):
                return back
            explored.append(v)
        return len(path)

    try:
        descend(_refine(adj, [list(range(n))], [True]))
    except _Expired:
        return None, gens
    return tuple(leaves[best][0]), gens


def _find(orbit, v):
    """The root of v in the union-find ``orbit``, a list or a dict sending
    each element to its parent, halving the path."""
    while orbit[v] != v:
        orbit[v] = v = orbit[orbit[v]]
    return v


def _union(orbit, a, b) -> None:
    """Join the classes of a and b in the union-find ``orbit``: the lesser
    of their two roots becomes the root of both."""
    a, b = _find(orbit, a), _find(orbit, b)
    if a != b:
        orbit[max(a, b)] = min(a, b)


def _join_orbits(orbit, gens, fixes, path):
    """Join, in the union-find list ``orbit`` (None for the identity), each
    vertex with its images under those of ``gens`` that fix every vertex of
    ``path``, by the bitmasks ``fixes`` of their fixed points; return the
    list, or None while it is the identity."""
    fixed = 0
    for v in path:
        fixed |= 1 << v
    for perm, fix in zip(gens, fixes):
        if fixed & ~fix:
            continue
        if orbit is None:
            orbit = list(range(len(perm)))
        for a, b in enumerate(perm):
            _union(orbit, a, b)
    return orbit


# the hits come from re-asking about the same few graphs, which 256
# entries hold
@lru_cache(maxsize=256)
def canonical_form(g: Graph) -> Graph:
    """The canonical graph of g's isomorphism class: g with each vertex
    renamed to its position in the ordering of least adjacency code that
    ``_canonical_search`` finds, so two graphs are isomorphic iff their
    canonical graphs are equal."""
    order, _ = _canonical_search(g)
    return g.relabel(sorted(range(g.n), key=order.__getitem__))


def automorphism_generators(g: Graph, deadline=None) -> list:
    """Automorphisms of g, each a tuple sending v to perm[v], that generate
    its automorphism group together with the twin transpositions.

    They are the ones the canonical search meets (``_canonical_search``),
    each checked once more here to map every edge onto an edge.  Past
    ``deadline`` (a ``time.monotonic`` value) the search stops and the ones
    found by then are returned: fewer, but each still an automorphism."""
    return [tuple(perm) for perm in _canonical_search(g, deadline)[1] if g.relabel(perm) == g]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# -- independent sets --------------------------------------------------------


def independent_sets_of_size(g: Graph, k: int):
    """All independent vertex sets of exactly size k (small graphs only)."""
    for combo in combinations(range(g.n), k):
        mask = 0
        ok = True
        for v in combo:
            if g.adj[v] & mask:
                ok = False
                break
            mask |= 1 << v
        if ok:
            yield combo


# -- induced even cycles -----------------------------------------------------


def is_even_cycle_free(g: Graph) -> bool:
    """True iff g has no induced cycle of even length.

    Exhaustive check over vertex subsets; intended for pattern-sized graphs.
    """
    for size in range(4, g.n + 1, 2):
        for combo in combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, combo)
            if sub.edge_count == size and all(d == 2 for d in sub.degrees()):
                if sub.is_connected():
                    return False
    return True


# -- graph6 I/O and JSON output ------------------------------------------

_G6_HEADER = ">>graph6<<"


def graph6_encode(g: Graph) -> str:
    """Standard graph6 encoding (ASCII), supporting n up to 64: the upper
    triangle column by column, the canonical code's bit order
    (``_leaf_code``), padded to whole characters of six bits."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    nbits = comb(n, 2)
    size = (nbits + 5) // 6
    code = _leaf_code(g.adj, range(n)) << (6 * size - nbits)
    return head + "".join(chr(63 + (code >> 6 * k & 63)) for k in reversed(range(size)))


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :].strip()
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError("truncated graph6 size field")
        vals = [ord(c) - 63 for c in s[1:4]]
        if any(not 0 <= x <= 63 for x in vals):
            raise ValueError("bad graph6 size field")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise ValueError(f"bad graph6 size character {s[0]!r}")
        body = s[1:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 order {n} exceeds supported maximum {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} characters, expected {need}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ValueError(f"bad graph6 character {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 string")
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph(n, edges)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


# -- names -------------------------------------------------------------------


# the generator behind each name letter: K4 is complete_graph(4), and so on
NAMES = {"K": complete_graph, "P": path, "C": cycle, "E": empty_graph, "W": wheel}


def named_graph(name: str) -> Graph:
    """Resolve K#, P#, C#, E#, W# and K#_# names to generator output."""
    kind, num = name[:1], name[1:]
    a, _, b = num.partition("_")
    if kind == "K" and a.isdecimal() and b.isdecimal():
        return complete_bipartite(int(a), int(b))
    if kind in NAMES and num.isdecimal():
        return NAMES[kind](int(num))
    raise ValueError(f"unknown graph name {name!r}")
