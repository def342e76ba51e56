"""Independent brute-force oracles used only by the test suite.

Everything here is written for obviousness, not speed, and deliberately
shares no algorithmic ideas with the package under test: colorings are
found by plain backtracking over vertices in label order, first-fit
bounds by their definition, cliques and independent sets by full subset
sweeps, connectivity by deleting every candidate cut set (also in lanes,
oracle_kappa_lanes), cycles by permutation search, lane sets by slicing
one string of every mask.  Keep it that way.  The one exception is
oracle_path_ends, the reference for the bit-sliced path table: the same
subset DP, filled one row at a time.  oracle_certify is the certifier's
former full path, built from the package's own exact solvers, the
reference for its shape-first path, and oracle_extremal_problems the
partition check invariant by invariant, the reference for its rows-first
acceptance.
The oracle_mask_* functions take a whole population at once, as a uint32
numpy array of edge masks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from hamcert import theorem
from hamcert.cycles import find_hamiltonian_cycle
from hamcert.graph6 import to_graph6
from hamcert.graphs import Graph, triangle_pairs


def oracle_is_colorable(g: Graph, t: int) -> bool:
    """Can g be properly colored with at most t colors?  Plain backtracking."""
    if t < 0:
        raise ValueError("color count must be non-negative")
    colors = [-1] * g.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(t):
            ok = True
            for u in range(v):
                if g.adj[v] >> u & 1 and colors[u] == c:
                    ok = False
                    break
            if ok:
                colors[v] = c
                if place(v + 1):
                    return True
                colors[v] = -1
        return False

    return place(0)


def oracle_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    t = 1
    while not oracle_is_colorable(g, t):
        t += 1
    return t


def oracle_first_fit_coloring(g: Graph) -> list[int]:
    """The color of each vertex under first-fit greedy coloring in vertex
    order: each vertex takes the least color no earlier neighbour holds."""
    colors: list[int] = []
    for v in range(g.n):
        held = {c for u, c in enumerate(colors) if g.adj[v] >> u & 1}
        colors.append(min(c for c in range(g.n + 1) if c not in held))
    return colors


def oracle_first_fit_colors(g: Graph) -> int:
    """Colors used by first-fit greedy coloring in vertex order."""
    return len(set(oracle_first_fit_coloring(g)))


def oracle_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for subset in combinations(range(g.n), size):
            if all(g.adj[a] >> b & 1 for a, b in combinations(subset, 2)):
                best = size
                break
        if best == size:
            break
    return best


def oracle_independence_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for subset in combinations(range(g.n), size):
            if all(not (g.adj[a] >> b & 1) for a, b in combinations(subset, 2)):
                best = size
                break
        if best == size:
            break
    return best


def oracle_mask_rows(masks, n):
    """Adjacency rows of the order-n graphs with the given edge masks, one
    uint8 array per vertex: bit v of rows[u] is the bit of the pair (u, v)
    in the order of triangle_pairs."""
    rows = [np.zeros(masks.shape, np.uint8) for _ in range(n)]
    for t, (u, v) in enumerate(triangle_pairs(n)):
        bit = ((masks >> np.uint32(t)) & np.uint32(1)).astype(np.uint8)
        rows[u] |= bit << np.uint8(v)
        rows[v] |= bit << np.uint8(u)
    return rows


def oracle_edge_lanes(n, masks):
    """The reference lane adjacency of the order-n graphs with the given
    edge masks, a list of ints: bit i of adj[u][v] is the pair (u, v) of
    masks[i], and the diagonal is 0.  One binary string of every mask,
    last mask first, whose every p-th character from p - 1 - t on is the
    lane set of pair t, read most significant lane first; no mask gives
    no lane."""
    p = n * (n - 1) // 2
    text = "".join([format(mask, f"0{p}b") for mask in reversed(masks)])
    adj = [[0] * n for _ in range(n)]
    for t, (u, v) in enumerate(triangle_pairs(n)):
        adj[u][v] = adj[v][u] = int("0" + text[p - 1 - t::p], 2)
    return adj


def oracle_mask_clique_alpha(masks, n):
    """Clique and independence numbers of the order-n graphs, n >= 1, with
    the given edge masks, by a sweep of every vertex subset in ascending
    size: the last size at which a subset has all its pairs, or none."""
    omega = np.ones(masks.shape, np.uint8)
    alpha = np.ones(masks.shape, np.uint8)
    pairs = triangle_pairs(n)
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            em = np.uint32(sum(1 << t for t, (a, b) in enumerate(pairs) if a in subset and b in subset))
            inside = masks & em
            omega[inside == em] = size
            alpha[inside == 0] = size
    return omega, alpha


def _connected_after_removal(g: Graph, removed: frozenset[int]) -> bool:
    left = [v for v in range(g.n) if v not in removed]
    if not left:
        return True
    seen = {left[0]}
    stack = [left[0]]
    while stack:
        v = stack.pop()
        for u in left:
            if u not in seen and g.adj[v] >> u & 1:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(left)


def oracle_vertex_connectivity(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects g; n-1 for complete graphs."""
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if all(row == g.vertex_mask ^ (1 << v) for v, row in enumerate(g.adj)):
        return g.n - 1
    if not _connected_after_removal(g, frozenset()):
        return 0
    for size in range(1, g.n - 1):
        for cut in combinations(range(g.n), size):
            if not _connected_after_removal(g, frozenset(cut)):
                return size
    return g.n - 1


def oracle_kappa_lanes(adj, n, k_cap, every):
    """The reference connectivity lane kernel: at_least[k], k = 0 ..
    min(k_cap, n - 1), the lanes of every with min(kappa, k_cap) >= k.
    For every vertex set S of each size c below the cap, reach[u] gathers
    the lanes in which u is reachable in G - S from the lowest vertex
    outside S, re-reading a vertex only once it has grown, until nothing
    grows; a lane with a vertex outside S unreached is separated by S."""
    at_least = [every]
    for c in range(min(k_cap, n - 1)):
        separated = 0
        for cut in combinations(range(n), c):
            live = [v for v in range(n) if v not in cut]
            reach = [0] * n
            reach[live[0]] = every
            grown = [False] * n
            grown[live[0]] = True
            while any(grown):
                for v in live:
                    if not grown[v]:
                        continue
                    grown[v] = False
                    at_v, row = reach[v], adj[v]
                    for u in live:
                        at_u = reach[u]
                        if u == v or at_u == every:
                            continue
                        more = at_u | (at_v & row[u])
                        if more != at_u:
                            reach[u] = more
                            grown[u] = True
            for u in live:
                separated |= every ^ reach[u]
        at_least.append(at_least[-1] & (every ^ separated))
    return at_least


def oracle_hamiltonian_cycle(g: Graph) -> tuple[int, ...] | None:
    """First Hamiltonian cycle in permutation order starting at vertex 0."""
    if g.n < 3:
        return None
    path = [0]
    used = [False] * g.n
    used[0] = True

    def extend() -> tuple[int, ...] | None:
        if len(path) == g.n:
            if g.adj[path[-1]] >> 0 & 1:
                return tuple(path)
            return None
        for v in range(1, g.n):
            if not used[v] and g.adj[path[-1]] >> v & 1:
                used[v] = True
                path.append(v)
                found = extend()
                if found is not None:
                    return found
                path.pop()
                used[v] = False
        return None

    return extend()


def oracle_path_ends(g: Graph, s: int) -> list[int]:
    """The path table from s, row by row: entry r is the vertex mask of the
    ends of the paths from s that span exactly (1 << s) | (r << (s + 1))."""
    adj = g.adj[s + 1:]  # adj[b] is the row of the vertex of bit b
    table = [0] * (1 << len(adj))
    table[0] = 1 << s
    for r in range(1, len(table)):
        acc = 0
        rest = r
        while rest:
            vb = rest & -rest
            rest ^= vb
            if table[r ^ vb] & adj[vb.bit_length() - 1]:
                acc |= vb
        table[r] = acc << (s + 1)
    return table


def oracle_longest_cycle_length(g: Graph) -> int:
    """Length of a longest cycle, 0 if acyclic.  DFS over simple paths."""
    best = 0
    for start in range(g.n):
        path = [start]
        on_path = {start}

        def walk() -> None:
            nonlocal best
            last = path[-1]
            for v in range(start + 1, g.n):
                if v in on_path or not (g.adj[last] >> v & 1):
                    continue
                path.append(v)
                on_path.add(v)
                if len(path) >= 3 and g.adj[v] >> start & 1:
                    best = max(best, len(path))
                walk()
                path.pop()
                on_path.remove(v)

        walk()
    return best


def oracle_certify(g: Graph, k: int) -> theorem.Certificate:
    """certify on its full path: the hypothesis on the exact solvers, then
    a Hamiltonian cycle, then extremal recognition under any k, then a
    counterexample record."""
    rep = theorem._require_hypothesis(g, k)
    cycle = find_hamiltonian_cycle(g) if g.n >= 3 else None
    if cycle is not None:
        return theorem.Certificate(kind="hamiltonian", cycle=cycle)
    found = theorem.recognize_extremal(g)
    if found is not None:
        return theorem.Certificate(kind="extremal", k=found[0], partition=found[1])
    return theorem.Certificate(
        kind="counterexample",
        k=k,
        report=(
            f"graph {to_graph6(g)} with n={g.n} k={k} kappa={rep.kappa} "
            f"chi={rep.chi} is neither Hamiltonian nor extremal"
        ),
    )


def oracle_extremal_problems(g: Graph, k: int, part: theorem.ExtremalPartition) -> list[str]:
    """Every problem of a claimed extremal partition, in the order and the
    words of theorem.validate_extremal_partition, each invariant checked
    on its own vertex by vertex or pair by pair."""
    n = g.n
    a, b, c = part.a, part.b, part.c_part
    members = [[v for v in range(n) if part_mask >> v & 1] for part_mask in (a, b, c)]
    problems = []
    if len(members[0]) != k:
        problems.append(f"join part has {len(members[0])} vertices, expected {k}")
    if len(members[1]) != k:
        problems.append(f"independent part has {len(members[1])} vertices, expected {k}")
    if len(members[2]) != n - 2 * k:
        problems.append("clique part has the wrong size")
    if n - 2 * k < 1:
        problems.append("order below 2k+1")
    owners = [sum(v in group for group in members) for v in range(n)]
    if owners != [1] * n or (a | b | c) >> n:
        problems.append("classes do not partition the vertex set")
        return problems
    for v in members[0]:
        if any(not g.has_edge(v, u) for u in range(n) if u != v):
            problems.append(f"join vertex {v} is not universal")
    if any(g.has_edge(u, v) for u, v in combinations(members[1], 2)):
        problems.append("independent part has an internal edge")
    for v in members[1]:
        if [u for u in range(n) if g.has_edge(v, u)] != members[0]:
            problems.append(f"vertex {v} has neighbors outside the join part")
    if any(not g.has_edge(u, v) for u, v in combinations(members[2], 2)):
        problems.append("clique part is not complete")
    for v in members[2]:
        others = [u for u in sorted(members[0] + members[2]) if u != v]
        if [u for u in range(n) if g.has_edge(v, u)] != others:
            problems.append(f"clique vertex {v} has neighbors outside clique+join")
    return problems
