"""Immutable simple-graph core on bitmask adjacency rows.

A graph is a vertex count ``n`` plus one Python-int adjacency row per
vertex; bit ``u`` of ``adj[v]`` says ``u`` and ``v`` are adjacent.  Vertex
sets are plain int bitmasks throughout the package.  All constructors
return new values; nothing mutates a built Graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

# Hard ceiling on vertex count; everything here is meant for desk-scale
# exhaustive work, not bulk graph processing.
MAX_VERTICES = 128

# Largest order for which full labeled enumeration is allowed (2^21 graphs).
MAX_ENUMERATION_ORDER = 7


def iter_bits(mask: int) -> list[int]:
    """The set bit positions of ``mask`` as an ascending list, walked from
    the top: each step reads the top bit off ``bit_length`` and clears it,
    which shortens the int, where clearing the lowest bit would copy the
    whole int at each step.  A sparse lane set of the harness costs a step
    per lane: 3-5 us for 5 lanes among 32,768 (best of 7, timeit, 2-core
    host)."""
    found = []
    while mask:
        top = mask.bit_length() - 1
        found.append(top)
        mask ^= 1 << top
    found.reverse()
    return found


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with exactly the given vertex positions set."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in column order: (0,1), (0,2), (1,2), (0,3), ...

    This is the bit order shared by the edge-mask enumeration and the
    graph6 codec, so an enumeration index doubles as a codec bit index.
    """
    return [(i, j) for j in range(n) for i in range(j)]


def without_bit(t: int, m: int) -> int:
    """The int whose bit i is set for each i < 2^m without bit t, t < m:
    runs of 2^t ones, one in each period of 2^(t + 1), built by doubling.
    Shifted left by 2^t it holds the i with bit t instead."""
    pattern, width = (1 << (1 << t)) - 1, 2 << t
    while width < 1 << m:
        pattern |= pattern << width
        width <<= 1
    return pattern


@lru_cache(maxsize=8)
def transpose_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """The delta swaps that transpose a w x w bit matrix, w a power of
    two, held in a w * w-bit int with row r in bits r * w .. r * w + w - 1
    (Warren, Hacker's Delight, 7-3): (shift, mask of the bits that trade
    places with the bits shift above them), one per s = 1, 2, .. w / 2.
    Swap s trades the entry (r, c) with (r + s, c - s) wherever bit s is
    clear in r and set in c, which moves the bit s(w - 1) places.  The
    swaps act on different bits of the row and column indices, so they
    commute and may run in any order."""
    m = w.bit_length() - 1
    swaps = []
    for t in range(m):
        s = 1 << t
        rows = sum(1 << r * w for r in range(w) if not r & s)
        swaps.append((s * (w - 1), (without_bit(t, m) << s) * rows))
    return tuple(swaps)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with frozen bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            for u in iter_bits(higher):
                yield (v, u)

    def edge_mask(self) -> int:
        """Edge set as a bitmask in ``triangle_pairs`` column order: column
        j, the pairs (0, j) .. (j - 1, j), is the j bits from j(j - 1)/2,
        the bits of ``adj[j]`` below j."""
        out = 0
        for j, row in enumerate(self.adj):
            out |= (row & ((1 << j) - 1)) << j * (j - 1) // 2
        return out


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds internal limit {MAX_VERTICES}")


def with_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 0..n-1 from an edge list.

    Duplicate edges collapse silently; loops and out-of-range endpoints
    are rejected.
    """
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


@lru_cache(maxsize=MAX_VERTICES + 1)
def _decode_plan(n: int):
    """For from_edge_mask at order n: the field width w, the least power
    of two >= max(8, n); each column j >= 1 as (its first bit j(j - 1)/2
    in the mask, its j-bit mask, its field's first bit j * w); and the
    swaps of a w x w transpose."""
    w = max(8, 1 << (n - 1).bit_length())
    columns = tuple((j * (j - 1) // 2, (1 << j) - 1, j * w) for j in range(1, n))
    return w, columns, transpose_swaps(w)


def from_edge_mask(n: int, mask: int) -> Graph:
    """Build a graph from an edge bitmask in ``triangle_pairs`` order by
    one bit-matrix transpose: column j, the j bits from j(j - 1)/2, is
    the row of vertex j below j, and goes into field j of a w * w-bit
    int, a w x w bit matrix with a row per field (_decode_plan).  Its
    transpose (transpose_swaps) holds each row above the diagonal, so the
    OR of the two holds the whole rows, which are then read off field by
    field, at w = 8 as the bytes of the int.

    The order is checked as ``with_edges`` checks it, and a mask with a
    bit at or above n(n - 1)/2, a pair that n vertices do not have, or a
    negative one, raises ValueError."""
    _check_order(n)
    pairs = n * (n - 1) // 2
    if mask >> pairs:
        raise ValueError(f"edge mask has a bit at or above bit {pairs}, the pairs of {n} vertices")
    w, columns, swaps = _decode_plan(n)
    lower = 0
    for start, low, at in columns:
        lower |= (mask >> start & low) << at
    upper = lower
    for shift, swap in swaps:
        t = ((upper >> shift) ^ upper) & swap
        upper ^= t ^ (t << shift)
    rows = lower | upper
    if w == 8:
        return Graph(n, tuple(rows.to_bytes(8, "little")[:n]))
    field = (1 << w) - 1
    return Graph(n, tuple([rows >> v * w & field for v in range(n)]))


# ---------------------------------------------------------------------------
# named families


def complete_graph(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def edgeless_graph(n: int) -> Graph:
    _check_order(n)
    return Graph(n, (0,) * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return with_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    _check_order(n)
    return with_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return join(edgeless_graph(a), edgeless_graph(b))


def star_graph(leaves: int) -> Graph:
    """Hub vertex 0 joined to ``leaves`` degree-one vertices."""
    return complete_bipartite(1, leaves)


def petersen_graph() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return with_edges(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# combinators


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    _check_order(g.n + h.n)
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge between the two parts."""
    n = g.n + h.n
    _check_order(n)
    h_mask = ((1 << h.n) - 1) << g.n
    g_mask = (1 << g.n) - 1
    rows = [row | h_mask for row in g.adj]
    rows += [(row << g.n) | g_mask for row in h.adj]
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# predicates and small measures


def _check_vertex_set(g: Graph, vertices: int) -> None:
    """ValueError for a vertex set that is negative or has a bit at or
    above g.n, a vertex that g does not have."""
    if vertices >> g.n:
        raise ValueError(f"vertex set {vertices:#x} is not a set of the {g.n} vertices")


def is_clique(g: Graph, vertices: int) -> bool:
    """True when every two vertices of the set are adjacent."""
    _check_vertex_set(g, vertices)
    for v in iter_bits(vertices):
        rest = vertices & ~((1 << (v + 1)) - 1)
        if rest & ~g.adj[v]:
            return False
    return True


def is_independent_set(g: Graph, vertices: int) -> bool:
    """True when no two vertices of the set are adjacent."""
    _check_vertex_set(g, vertices)
    for v in iter_bits(vertices):
        if g.adj[v] & vertices:
            return False
    return True


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(row.bit_count() for row in g.adj)


def is_connected(g: Graph, vertices: int | None = None) -> bool:
    """True when the vertex set (all of g by default) induces a connected
    subgraph: a search inside it from its lowest vertex reaches all of
    it.  The empty set counts as connected."""
    vs = g.vertex_mask if vertices is None else vertices
    _check_vertex_set(g, vs)
    seen = frontier = vs & -vs
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & vs & ~seen
        seen |= frontier
    return seen == vs


def enumerate_labeled(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    if n < 0 or n > MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"labeled enumeration supported only for 0 <= n <= {MAX_ENUMERATION_ORDER}"
        )
    for mask in range(1 << (n * (n - 1) // 2)):
        yield from_edge_mask(n, mask)
