"""Exact invariant solvers: coloring, cliques, connectivity, Menger fans.

Everything returns witnesses and everything is exact; there are no
heuristic answers here, only heuristic bounds that get verified.  The
connectivity and fan code shares one unit-capacity augmenting-path engine
over a vertex-split digraph.

The fan builder accepts any cycle-like object exposing a ``vertices``
tuple; it does not import the cycle type to keep the module graph
acyclic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from hamcert.graphs import Graph, complement, is_connected, iter_bits, mask_of


# ---------------------------------------------------------------------------
# colorings


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring: assignment[v] is a 0-based color index."""

    assignment: tuple[int, ...]
    colors_used: int


def is_proper_coloring(g: Graph, assignment: tuple[int, ...]) -> bool:
    if len(assignment) != g.n:
        return False
    for v in range(g.n):
        for u in iter_bits(g.adj[v] >> (v + 1) << (v + 1)):
            if assignment[v] == assignment[u]:
                return False
    return True


def _coloring_from(assignment: list[int]) -> Coloring:
    used = len(set(assignment)) if assignment else 0
    return Coloring(tuple(assignment), used)


def greedy_coloring(g: Graph) -> Coloring:
    """DSATUR greedy: color the most saturated vertex first, ties by degree
    then index, with its lowest free color.  Upper bound only; exactness
    comes from is_k_colorable, whose search this is with a color for every
    vertex: a color is always free, so it never backtracks."""
    return is_k_colorable(g, g.n)


def is_k_colorable(g: Graph, t: int):
    """Exact t-colorability by backtracking, or None.

    Symmetry breaking: a vertex may open color c only when colors
    0..c-1 are already in use.  Vertices are taken in a DSATUR-style
    dynamic order.
    """
    if t < 0:
        raise ValueError("color budget must be non-negative")
    n = g.n
    if n == 0:
        return Coloring((), 0)
    if t == 0:
        return None
    assignment = [-1] * n
    neighbor_colors = [0] * n

    def place(remaining: int, opened: int) -> bool:
        if remaining == 0:
            return True
        # most saturated uncolored vertex, ties by degree then lowest index
        pick = -1
        pick_key = None
        for v in range(n):
            if assignment[v] >= 0:
                continue
            key = (neighbor_colors[v].bit_count(), g.adj[v].bit_count(), -v)
            if pick_key is None or key > pick_key:
                pick, pick_key = v, key
        limit = min(t, opened + 1)
        forbidden = neighbor_colors[pick]
        for c in range(limit):
            if forbidden >> c & 1:
                continue
            assignment[pick] = c
            touched = []
            for u in iter_bits(g.adj[pick]):
                if not (neighbor_colors[u] >> c & 1):
                    neighbor_colors[u] |= 1 << c
                    touched.append(u)
            if place(remaining - 1, max(opened, c + 1)):
                return True
            assignment[pick] = -1
            for u in touched:
                neighbor_colors[u] &= ~(1 << c)
        return False

    if place(n, 0):
        return _coloring_from(assignment)
    return None


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chi with a witness using exactly chi colors.

    Clique number seeds the lower bound, DSATUR the upper; exact
    t-colorability checks walk down from the greedy bound.
    """
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph is undefined")
    lower = max_clique(g).bit_count()
    witness = greedy_coloring(g)
    upper = witness.colors_used
    t = upper - 1
    while t >= lower:
        attempt = is_k_colorable(g, t)
        if attempt is None:
            break
        witness = attempt
        upper = attempt.colors_used
        t = upper - 1
    return upper, witness


# ---------------------------------------------------------------------------
# cliques and independent sets


def max_clique(g: Graph) -> int:
    """A maximum clique as a vertex bitmask.

    Branch and bound in the Tomita style: candidates are greedily
    colored and visited in reverse color order, pruning when the color
    bound cannot beat the incumbent.  Deterministic: vertices enter
    color classes in ascending index order.
    """
    if g.n == 0:
        raise ValueError("clique number of the empty graph is undefined")
    adj = g.adj
    best_mask = 0
    best_size = 0

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        nonlocal best_mask, best_size
        if not p_mask:
            if r_size > best_size:
                best_mask, best_size = r_mask, r_size
            return
        classes: list[int] = []
        for v in iter_bits(p_mask):
            for ci, cmask in enumerate(classes):
                if not (adj[v] & cmask):
                    classes[ci] |= 1 << v
                    break
            else:
                classes.append(1 << v)
        # class-sorted order makes the bounds non-decreasing, which the
        # reverse-iteration prune below relies on
        order = [
            (v, ci + 1) for ci, cmask in enumerate(classes) for v in iter_bits(cmask)
        ]
        live = p_mask
        for v, bound in reversed(order):
            if r_size + bound <= best_size:
                return
            expand(r_mask | 1 << v, r_size + 1, live & adj[v])
            live &= ~(1 << v)

    expand(0, 0, g.vertex_mask)
    return best_mask


def independence_number(g: Graph) -> tuple[int, int]:
    """alpha(g) with a witness set, computed as a maximum clique of the
    complement."""
    witness = max_clique(complement(g))
    return witness.bit_count(), witness


def nordhaus_gaddum(g: Graph) -> tuple[int, int, int]:
    """(chi(g), chi of the complement, slack to n+1).  Slack is never
    negative."""
    if g.n == 0:
        raise ValueError("undefined for the empty graph")
    chi, _ = chromatic_number(g)
    chi_c, _ = chromatic_number(complement(g))
    return chi, chi_c, g.n + 1 - chi - chi_c


# ---------------------------------------------------------------------------
# unit-capacity flow engine on the vertex-split digraph
#
# Node 2v is "into v", node 2v+1 is "out of v"; a transit arc 2v -> 2v+1
# carries the one unit a vertex may relay.  Residual state is one bitmask
# of outgoing arcs per node.  Augmenting paths come from a FIFO BFS that
# scans successors in ascending node order, so every run is deterministic.


def _augment(residual: list[int], source: int, sink: int) -> bool:
    parent = [-1] * len(residual)
    parent[source] = source
    seen = 1 << source
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        fresh = residual[u] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            v = low.bit_length() - 1
            parent[v] = u
            if v == sink:
                while v != source:
                    u = parent[v]
                    residual[u] &= ~(1 << v)
                    residual[v] |= 1 << u
                    v = u
                return True
            queue.append(v)
    return False


def _split_arcs(g: Graph) -> list[int]:
    """Residual arcs of the split graph before any flow: every transit arc
    and every edge in both directions."""
    residual = [0] * (2 * g.n)
    for v in range(g.n):
        residual[2 * v] = 1 << (2 * v + 1)
    for u, v in g.edges():
        residual[2 * u + 1] |= 1 << (2 * v)
        residual[2 * v + 1] |= 1 << (2 * u)
    return residual


def _local_connectivity(arcs: list[int], s: int, t: int, cap: int) -> int:
    """Number of internally disjoint s-t paths, counted only up to cap,
    in the split graph with the given arcs."""
    residual = list(arcs)
    flow = 0
    while flow < cap and _augment(residual, 2 * s + 1, 2 * t):
        flow += 1
    return flow


def vertex_connectivity(g: Graph, *, stop_below: int | None = None) -> int:
    """Exact kappa via max-flow over a dominating family of vertex pairs.

    Pairs: a fixed minimum-degree vertex against each of its
    non-neighbors, plus every non-adjacent pair of its neighbors.  The
    running minimum starts at that vertex's degree.

    stop_below is an early-abort threshold: once the running minimum is
    known to be below it the current value is returned immediately.  The
    result is exact whenever it is >= stop_below (and always exact when
    stop_below is None); a returned value below the threshold proves
    only that kappa is below it.
    """
    n = g.n
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if n == 1:
        return 0
    full = g.vertex_mask
    if all(row == full ^ (1 << v) for v, row in enumerate(g.adj)):
        return n - 1
    if not is_connected(g):
        return 0
    v0 = min(range(n), key=lambda v: (g.adj[v].bit_count(), v))
    best = g.adj[v0].bit_count()
    pairs: list[tuple[int, int]] = []
    for u in iter_bits(full & ~g.adj[v0] & ~(1 << v0)):
        pairs.append((v0, u))
    neighbors = iter_bits(g.adj[v0])
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1:]:
            if not g.has_edge(a, b):
                pairs.append((a, b))
    arcs = _split_arcs(g)
    for s, t in pairs:
        if stop_below is not None and best < stop_below:
            return best
        if best == 0:
            return 0
        best = min(best, _local_connectivity(arcs, s, t, cap=best))
    return best


# ---------------------------------------------------------------------------
# Menger fans


@dataclass(frozen=True)
class PathSystem:
    """Fan of internally disjoint paths from a hub to cycle attachments.

    paths[i] runs from the hub to attachments[i]; attachment order
    follows the reference cycle's orientation starting from the
    lowest-index attachment.
    """

    hub: int
    paths: tuple[tuple[int, ...], ...]
    attachments: tuple[int, ...]

    def __post_init__(self):
        if len(self.paths) != len(self.attachments):
            raise ValueError("one attachment per path required")
        for path, att in zip(self.paths, self.attachments):
            if len(path) < 2:
                raise ValueError("fan path needs at least hub and attachment")
            if path[0] != self.hub or path[-1] != att:
                raise ValueError("fan path must run hub -> attachment")


def validate_path_system(g: Graph, c, fan: PathSystem) -> list[str]:
    """All fan invariant violations against a host graph and cycle;
    empty list means the fan is sound."""
    problems: list[str] = []
    cyc = tuple(c.vertices)
    on_cycle = mask_of(cyc)
    if (1 << fan.hub) & on_cycle:
        problems.append("hub lies on the cycle")
    seen_interior: dict[int, int] = {}
    for i, path in enumerate(fan.paths):
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                problems.append(f"path {i} uses missing edge {a}-{b}")
        if len(set(path)) != len(path):
            problems.append(f"path {i} repeats a vertex")
        for v in path[1:-1]:
            if (1 << v) & on_cycle:
                problems.append(f"path {i} crosses the cycle at {v}")
            if v in seen_interior and seen_interior[v] != i:
                problems.append(f"paths share interior vertex {v}")
            seen_interior[v] = i
        if not ((1 << path[-1]) & on_cycle):
            problems.append(f"attachment {path[-1]} is off the cycle")
    if len(set(fan.attachments)) != len(fan.attachments):
        problems.append("attachments repeat")
    if fan.attachments and not problems:
        pos = {v: i for i, v in enumerate(cyc)}
        lowest = min(fan.attachments)
        base = pos[lowest]
        keys = [(pos[a] - base) % len(cyc) for a in fan.attachments]
        if keys != sorted(keys) or fan.attachments[0] != lowest:
            problems.append("attachments not in cycle order from the lowest")
    return problems


def menger_fan(g: Graph, x0: int, c, k: int) -> PathSystem:
    """Maximal fan of internally disjoint paths from x0 to the cycle.

    Paths avoid the cycle except at their distinct attachments.  Raises
    when x0 sits on the cycle or when fewer than k paths exist (which
    signals the k-connectivity precondition was violated).  Built by
    augmenting paths in the split graph (_split_arcs) toward a virtual
    sink behind the cycle vertices: a cycle vertex's in-node points at the
    sink instead of its transit arc, so flow terminates at first touch,
    and x0 has no transit arc.
    """
    if k < 2:
        raise ValueError("fan parameter k must be at least 2")
    if not (0 <= x0 < g.n):
        raise ValueError(f"hub {x0} out of range")
    cyc = tuple(c.vertices)
    on_cycle = mask_of(cyc)
    if (1 << x0) & on_cycle:
        raise ValueError(f"hub {x0} lies on the cycle")
    sink = 2 * g.n
    residual = _split_arcs(g) + [0]
    for v in iter_bits(on_cycle & g.vertex_mask):
        residual[2 * v] = 1 << sink
    residual[2 * x0] = 0
    initial = list(residual)
    source = 2 * x0 + 1
    flow = 0
    while _augment(residual, source, sink):
        flow += 1
    if flow < k:
        raise ValueError(
            f"only {flow} disjoint paths from {x0} to the cycle; need {k} "
            "(connectivity precondition violated)"
        )

    def used(a: int) -> int:
        return initial[a] & ~residual[a]

    paths = []
    for w2 in iter_bits(used(source)):
        w = w2 // 2
        path = [x0, w]
        while not ((1 << path[-1]) & on_cycle):
            step = used(2 * path[-1] + 1)
            nxt = (step & -step).bit_length() - 1
            path.append(nxt // 2)
        paths.append(tuple(path))
    pos = {v: i for i, v in enumerate(cyc)}
    lowest = min(p[-1] for p in paths)
    base = pos[lowest]
    paths.sort(key=lambda p: (pos[p[-1]] - base) % len(cyc))
    return PathSystem(x0, tuple(paths), tuple(p[-1] for p in paths))
