"""Oriented cycles, exact cycle solvers, and longer-cycle extension rules.

The extension rules each try one specific rewiring of a cycle through a
fan of disjoint paths from an off-cycle hub that, when its enabling
chord exists, yields a strictly longer cycle.  extend_offcycle takes the
cycle and the fan; the chord and rotation rules take the one
SegmentDecomposition that the proof trace builds, which carries the
cycle, the hub and the fan paths with the segments between the
attachments.  Every candidate is validated against the host graph before
being returned, so the rules are safe on arbitrary inputs: a returned
cycle is always real and always longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from hamcert.graphs import Graph, is_connected, iter_bits, mask_of, without_bit
from hamcert.invariants import PathSystem

# Exact longest-cycle search is refused above this order; the state space
# doubles per vertex and answers stop being desk-scale.
MAX_LONGEST_CYCLE_ORDER = 16

# Hamiltonian search reads the path table up to this order; beyond it
# backtracking takes over.  At n = 24 the fill holds 23 bit slices and 23
# lack masks of 2^23 bits each (46 MiB), adds about 60 MB of peak RSS and
# takes 0.41-0.50 s (2-core x86 host).
MAX_HAMILTONIAN_DP_ORDER = 24


@dataclass(frozen=True)
class Cycle:
    """Oriented cycle: a sequence of at least 3 distinct vertices with
    wraparound; adjacency against a host graph is checked by
    is_valid_cycle, not here."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle repeats a vertex")

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    @property
    def vertex_set(self) -> int:
        return mask_of(self.vertices)

    def position(self, v: int) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not on the cycle") from None

    def successor(self, v: int) -> int:
        return self.vertices[(self.position(v) + 1) % len(self.vertices)]

    def predecessor(self, v: int) -> int:
        return self.vertices[(self.position(v) - 1) % len(self.vertices)]

    def arc(self, x: int, y: int, *, backward: bool = False) -> tuple[int, ...]:
        """Consecutive vertices from x to y inclusive; x == y gives (x,).

        The backward arc from x to y equals the reversed forward arc
        from y to x.
        """
        i, j = self.position(x), self.position(y)
        m = len(self.vertices)
        step = -1 if backward else 1
        out = [x]
        while i != j:
            i = (i + step) % m
            out.append(self.vertices[i])
        return tuple(out)

    def reversed_(self) -> "Cycle":
        """Opposite orientation, same starting vertex."""
        v = self.vertices
        return Cycle((v[0],) + tuple(reversed(v[1:])))

    def rotated(self, start: int) -> "Cycle":
        i = self.position(start)
        return Cycle(self.vertices[i:] + self.vertices[:i])


def is_valid_cycle(g: Graph, vertices) -> bool:
    seq = tuple(vertices.vertices) if isinstance(vertices, Cycle) else tuple(vertices)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    if any(not (0 <= v < g.n) for v in seq):
        return False
    return all(g.has_edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))


def canonical_cycle(vertices) -> Cycle:
    """Normal form under rotation and reflection: start at the minimum
    vertex, then the lexicographically smaller direction."""
    seq = tuple(vertices.vertices) if isinstance(vertices, Cycle) else tuple(vertices)
    i = seq.index(min(seq))
    fwd = seq[i:] + seq[:i]
    bwd = (fwd[0],) + tuple(reversed(fwd[1:]))
    return Cycle(min(fwd, bwd))


# ---------------------------------------------------------------------------
# Hamiltonian cycle


def _path_ends(g: Graph, s: int) -> list[int]:
    """The path table from s, bit-sliced: bit r of ends[b] is set when
    vertex s + 1 + b ends a path from s that spans exactly
    (1 << s) | (r << (s + 1)), for the m = n - s - 1 vertices above s.

    This is the Bellman / Held-Karp subset DP; both exact cycle solvers
    read their answers from it.  A vertex's slice takes its neighbours'
    slices from the rows that lack its bit to the rows that have it, a
    shift by 1 << b under the mask lacks[b].  The updates run in place,
    and repeat until none of them changes anything; each adds only true
    endpoints, and that fixpoint is the table.  A vertex is read again
    only once one of its neighbours has grown.
    """
    m = g.n - s - 1
    adj = [row >> (s + 1) for row in g.adj]
    nbrs = [[c for c in range(m) if adj[s + 1 + b] >> c & 1] for b in range(m)]
    ends = [(adj[s] >> b & 1) << (1 << b) for b in range(m)]  # the paths s, s + 1 + b
    lacks = [without_bit(b, m) for b in range(m)]
    # a vertex is stale when a neighbour has grown since it last read them
    stale = [bool(cs) for cs in nbrs]
    while any(stale):
        for b, cs in enumerate(nbrs):
            if not stale[b]:
                continue
            stale[b] = False
            new = 0
            for c in cs:
                new |= ends[c]
            new = ends[b] | (new & lacks[b]) << (1 << b)
            if new != ends[b]:
                ends[b] = new
                for c in cs:
                    stale[c] = True
    return ends


def _hamiltonian_backtrack(g: Graph):
    """Fallback for large orders: DFS with degree and reachability pruning.

    A Hamiltonian cycle needs every degree >= 2 and no cut vertex, that
    is g - v connected for every v.  A path from 0 to cur extends only
    while the unvisited vertices, cur and 0 induce a connected graph.
    """
    n = g.n
    if any(row.bit_count() < 2 for row in g.adj):
        return None
    full = g.vertex_mask
    if not all(is_connected(g, full ^ 1 << v) for v in range(n)):
        return None
    path = [0]
    visited = 1

    def extend(cur: int) -> bool:
        nonlocal visited
        if visited == full:
            return bool(g.adj[cur] & 1)
        if not is_connected(g, full & ~visited | 1 << cur | 1):
            return False
        for v in iter_bits(g.adj[cur] & ~visited):
            # unvisited vertices must keep 2 usable ends
            visited |= 1 << v
            ok = True
            for w in iter_bits(full & ~visited):
                room = (g.adj[w] & ~visited).bit_count() + (1 if g.has_edge(w, v) else 0) + (1 if g.has_edge(w, 0) else 0)
                if room < 2:
                    ok = False
                    break
            if ok:
                path.append(v)
                if extend(v):
                    return True
                path.pop()
            visited &= ~(1 << v)
        return False

    if extend(0):
        return path
    return None


def find_hamiltonian_cycle(g: Graph):
    """A Hamiltonian cycle in canonical form, or None; the absence answer
    is exact (exhaustive subset DP, not a timeout)."""
    if g.n < 3:
        raise ValueError("Hamiltonian cycles need at least 3 vertices")
    if any(row == 0 for row in g.adj):
        return None
    if g.n > MAX_HAMILTONIAN_DP_ORDER:
        seq = _hamiltonian_backtrack(g)
        return None if seq is None else canonical_cycle(_checked(g, seq, g.n))
    seq = _least_cycle(g, 0, _path_ends(g, 0), [(1 << (g.n - 1)) - 1], g.n)
    if len(seq) == 1:  # no neighbour of 0 ends a spanning path
        return None
    return Cycle(tuple(_checked(g, seq, g.n)))


def _least_cycle(g: Graph, s: int, ends, frames, length: int) -> list[int]:
    """The lexicographically least cycle from s on one of the kept vertex
    sets F, given as rows frames of the path table ends from s, where no
    cycle of g with lowest vertex s has more than length vertices: from
    s, step to the least neighbour v that some F can still complete, i.e.
    v ends a path from s spanning what F has left.  The walk so far plus
    that path is a cycle on the walk's vertices and F's, which cannot have
    more than length, so every hit is a real completion and the walk never
    backtracks.  It stops short only where no F is completed at all, at
    once; the caller checks the length."""
    path, used = [s], 0
    while len(path) < length:
        # the rows the kept sets have left, as offsets from the lowest, so
        # that a slice is cut to the rows from there on before the AND: the
        # Hamiltonian walk's one row lies near the top, and an AND of whole
        # slices made that walk 2x slower at n = 20 and 4x at n = 22
        rows = [f & ~used for f in frames]
        low = min(rows)
        left = 0
        for r in rows:
            left |= 1 << (r - low)
        b = next((b for b in iter_bits(g.adj[path[-1]] >> (s + 1)) if ends[b] >> low & left), None)
        if b is None:
            break
        path.append(s + 1 + b)
        used |= 1 << b
    return path


def _checked(g: Graph, seq, length: int):
    """seq itself, once it is a valid cycle of g with length vertices.

    A solver's output is checked here rather than by assert, so the
    check also runs under python -O.
    """
    if len(seq) != length or not is_valid_cycle(g, seq):
        raise RuntimeError(f"solver returned {list(seq)}, not a {length}-cycle of the graph")
    return seq


# ---------------------------------------------------------------------------
# longest cycle


def longest_cycle(g: Graph) -> Cycle:
    """The lexicographically least maximum-length cycle (after rotation
    and reflection normalization).  Exact; refuses orders above
    MAX_LONGEST_CYCLE_ORDER and raises on acyclic graphs.
    """
    n = g.n
    if n > MAX_LONGEST_CYCLE_ORDER:
        raise ValueError(
            f"exact longest-cycle search is limited to {MAX_LONGEST_CYCLE_ORDER} vertices"
        )
    # layers[c] has bit r set for the rows r < 2^(n - 1) of c bits, built
    # by doubling the row count
    layers = [1]
    for j in range(n - 1):
        layers = [a | b << (1 << j) for a, b in zip(layers + [0], [0] + layers)]
    # for each start s, the largest vertex sets with lowest vertex s that
    # close into a cycle, as rows r of the path table from s; only a
    # strictly larger size moves the lead to a later start, and no start
    # s can beat best once n - s <= best
    best, lead = 2, None
    for s in range(n - 2):
        if n - s <= best:
            break
        ends = _path_ends(g, s)
        closing = 0
        for b in iter_bits(g.adj[s] >> (s + 1)):
            closing |= ends[b]
        for size in range(n - s - 1, best - 1, -1):
            if rows := closing & layers[size]:
                best, lead = size + 1, (s, ends, rows)
                break
    if lead is None:
        raise ValueError("graph has no cycle")

    # the least start s holds the lexicographically least cycle, and no
    # cycle beats best
    s, ends, rows = lead
    path = _least_cycle(g, s, ends, iter_bits(rows), best)
    return Cycle(tuple(_checked(g, path, best)))


# ---------------------------------------------------------------------------
# fans on cycles: successor sets and segment decomposition


def successors_set(c: Cycle, fan: PathSystem) -> int:
    """The hub together with every attachment's cycle successor, as a
    vertex bitmask."""
    out = 1 << fan.hub
    for u in fan.attachments:
        out |= 1 << c.successor(u)
    return out


@dataclass(frozen=True)
class SegmentDecomposition:
    """A cycle cut along the k attachments of a fan from the hub, the one
    object the case analysis of the proof works on.

    paths[i-1] is the fan path from the hub to attachments[i-1], and
    successors[i-1] that attachment's cycle successor.  segments[i-1] is
    the arc from the double successor of attachment i to attachment i+1
    inclusive (indices 1-based with wraparound), so the segments cover
    the cycle minus the attachment successors.  big_segment_indices
    holds the 1-based indices of segments with at least 2 vertices; its
    size drives the case analysis.
    """

    cycle: Cycle
    hub: int
    paths: tuple[tuple[int, ...], ...]
    attachments: tuple[int, ...]
    successors: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]
    big_segment_indices: frozenset[int]


def segments(c: Cycle, fan: PathSystem, k: int) -> SegmentDecomposition:
    """Decompose the cycle along the first k fan attachments."""
    if k < 2:
        raise ValueError("segment decomposition needs k >= 2")
    if k > len(fan.attachments):
        raise ValueError(f"fan has only {len(fan.attachments)} attachments")
    att = fan.attachments[:k]
    if att[0] != min(att):
        raise ValueError("attachments not in cycle order")
    base = c.position(att[0])
    m = len(c)
    keys = [(c.position(u) - base) % m for u in att]
    if keys != sorted(keys) or len(set(keys)) != k:
        raise ValueError("attachments not in cycle order")
    succ = tuple(c.successor(u) for u in att)
    for i in range(k):
        if succ[i] == att[(i + 1) % k]:
            raise ValueError(
                "attachments adjacent on the cycle leave no room for a segment"
            )
    segs = []
    for i in range(k):
        start = c.successor(succ[i])
        segs.append(c.arc(start, att[(i + 1) % k]))
    big = frozenset(i + 1 for i in range(k) if len(segs[i]) >= 2)
    return SegmentDecomposition(c, fan.hub, fan.paths[:k], att, succ, tuple(segs), big)


def long_segment_first(d: SegmentDecomposition) -> SegmentDecomposition:
    """d renumbered so that its one long segment is segment 1: attachment
    1 is then the long segment's opening attachment, u_1, and segment 1
    runs y_1 .. y_r and then attachment 2.  The view of a view is equal
    to it.  Raises unless exactly one segment is long."""
    big = sorted(d.big_segment_indices)
    if len(big) != 1:
        raise ValueError(f"exactly one long segment required, found {len(big)}")
    rot = big[0] - 1
    paths, att, succ, segs = (
        t[rot:] + t[:rot] for t in (d.paths, d.attachments, d.successors, d.segments)
    )
    return SegmentDecomposition(d.cycle, d.hub, paths, att, succ, segs, frozenset({1}))


# ---------------------------------------------------------------------------
# extension rules
#
# Each rule returns a strictly longer valid cycle or None.  Candidates
# are checked against the host graph; no candidate is trusted by
# construction.


def _interior(path: tuple[int, ...]) -> list[int]:
    return list(path[1:-1])


def _accept(g: Graph, c: Cycle, candidate: list[int]):
    if len(candidate) > len(c) and is_valid_cycle(g, candidate):
        return Cycle(tuple(candidate))
    return None


def extend_offcycle(g: Graph, c: Cycle, fan: PathSystem, z: int):
    """Absorb an off-cycle neighbor z of the hub.

    If z reaches an attachment u_j, the cycle is rewired as
    hub, z, the arc from u_j around to a neighboring attachment, then
    back along that attachment's fan path.  Both arc directions are
    tried for every attachment of z.
    """
    if z in c:
        raise ValueError(f"vertex {z} lies on the cycle")
    if z == fan.hub:
        raise ValueError("z must differ from the hub")
    if not g.has_edge(fan.hub, z):
        return None
    k = len(fan.attachments)
    for j in range(k):
        u_j = fan.attachments[j]
        if not g.has_edge(z, u_j):
            continue
        for backward, other in ((False, (j - 1) % k), (True, (j + 1) % k)):
            u_other = fan.attachments[other]
            if u_other == u_j:
                continue
            arc = c.arc(u_j, u_other, backward=backward)
            candidate = (
                [fan.hub, z]
                + list(arc)
                + list(reversed(_interior(fan.paths[other])))
            )
            found = _accept(g, c, candidate)
            if found is not None:
                return found
    return None


def extend_predecessor_chord(g: Graph, d: SegmentDecomposition):
    """Use a chord between the interior predecessors of two attachment
    terminals (both segments must have length >= 2).

    The rewired cycle enters along one fan path, runs forward to the
    first predecessor's far side, crosses the chord, runs backward to
    the other entry attachment, and exits along its fan path, gaining
    the hub.
    """
    c = d.cycle
    k = len(d.attachments)
    big = sorted(d.big_segment_indices)
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            i, j = big[a] % k, big[b] % k  # terminals of the 1-based segments
            term_i, term_j = d.attachments[i], d.attachments[j]
            p_i = c.predecessor(term_i)
            p_j = c.predecessor(term_j)
            if not g.has_edge(p_i, p_j):
                continue
            candidate = (
                [d.hub]
                + _interior(d.paths[i])
                + list(c.arc(term_i, p_j))
                + list(c.arc(p_i, term_j, backward=True))
                + list(reversed(_interior(d.paths[j])))
            )
            found = _accept(g, c, candidate)
            if found is not None:
                return found
    return None


def extend_case1_rotation(g: Graph, d: SegmentDecomposition, y_index: int):
    """Rewirings available when exactly one segment is long.

    On d's long_segment_first view, with the long segment written
    y_1 .. y_r followed by its terminal attachment, and y_0 standing for
    the first attachment's successor, position j = y_index needs the
    edge from y_j back to that successor; then either (a) a hub edge to
    y_{j-1} or (b) an edge from another attachment's successor to
    y_{j-1} yields a longer cycle.  Raises unless exactly one segment is
    long and 1 <= y_index <= r.
    """
    v = long_segment_first(d)
    c = v.cycle
    ys = v.segments[0][:-1]
    r = len(ys)
    if not (1 <= y_index <= r):
        raise ValueError(f"y index must be in 1..{r}, got {y_index}")
    u1, u1_succ = v.attachments[0], v.successors[0]
    y_j = ys[y_index - 1]
    y_prev = ys[y_index - 2] if y_index >= 2 else u1_succ
    if not g.has_edge(u1_succ, y_j):
        return None
    home = list(reversed(_interior(v.paths[0])))
    # (a) hub drops onto y_{j-1}, sweeps back to the first successor,
    # jumps to y_j, and takes the long way home through path 1
    if g.has_edge(v.hub, y_prev):
        candidate = (
            [v.hub]
            + list(c.arc(y_prev, u1_succ, backward=True))
            + list(c.arc(y_j, u1))
            + home
        )
        found = _accept(g, c, candidate)
        if found is not None:
            return found
    # (b) enter along path l, run back to y_j, jump to the first
    # successor, forward to y_{j-1}, jump to successor l, close via path 1
    for u_l, u_l_succ, path in zip(v.attachments[1:], v.successors[1:], v.paths[1:]):
        if not g.has_edge(u_l_succ, y_prev):
            continue
        candidate = (
            [v.hub]
            + _interior(path)
            + list(c.arc(u_l, y_j, backward=True))
            + list(c.arc(u1_succ, y_prev))
            + list(c.arc(u_l_succ, u1))
            + home
        )
        found = _accept(g, c, candidate)
        if found is not None:
            return found
    return None
