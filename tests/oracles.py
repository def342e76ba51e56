"""Independent brute-force oracles used only by the test suite.

Everything here is written for obviousness, not speed, and deliberately
shares no algorithmic ideas with the package under test: colorings are
found by plain backtracking over vertices in label order, first-fit
bounds by their definition, cliques and independent sets by full subset
sweeps, connectivity by deleting every candidate cut set (also in lanes,
oracle_kappa_lanes), cycles by permutation search, lane sets by slicing
one string of every mask.  Keep it that way.  The exceptions are
oracle_path_ends, the reference for the bit-sliced path table: the same
subset DP, filled one row at a time; oracle_chromatic_table and
oracle_kappa_table, the references for the sweep's tables: the same
formulas, each table entry computed in full on every vertex set, the
subset-OR by its definition (oracle_subset_or) and the cover levels
written out plainly; and oracle_hamiltonian_table, the sweep's
Hamiltonicity table from a path fill from each start in lanes, each
spanning path's ends ORed into every set that holds them.
oracle_certify is the certifier's former full path, built from the
package's own exact solvers, the reference for its shape-first path, and
oracle_extremal_problems the partition check invariant by invariant, the
reference for its rows-first acceptance, and oracle_recognize_extremal
the extremal recognizer as it was before its one pass over the rows,
its partition checked by oracle_extremal_problems.
oracle_extend_predecessor_chord and oracle_extend_case1_rotation are the
extension rules as they were when each built its own segment
decomposition from (c, fan), the references for the rules that read the
proof trace's decomposition.  oracle_from_edge_mask is the edge-mask
decode as it was before the bit-matrix transpose, a column and then an
edge at a time, the reference for the transpose.
The oracle_mask_* functions take a whole population at once, as a uint32
numpy array of edge masks.
"""

from __future__ import annotations

import functools
from itertools import combinations
from operator import or_

import numpy as np

from hamcert import theorem
from hamcert.cycles import Cycle, _accept, _interior, find_hamiltonian_cycle, segments
from hamcert.graph6 import to_graph6
from hamcert.graphs import Graph, triangle_pairs
from hamcert.invariants import PathSystem


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


def oracle_from_edge_mask(n: int, mask: int) -> Graph:
    """The graph of an edge mask in triangle_pairs order, a column at a
    time: column j, the j bits from j(j - 1)/2, is the row of vertex j
    below j, and each of its bits i puts j into row i."""
    rows = [0] * n
    for j in range(1, n):
        column = mask >> (j * (j - 1) // 2) & ((1 << j) - 1)
        rows[j] = column
        bit = 1 << j
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= bit
            column ^= low
    return Graph(n, tuple(rows))


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


def oracle_subset_or(table):
    """A new list whose entry Y is the OR of table[X] over every X inside
    Y, by its definition."""
    return [
        functools.reduce(or_, (table[x] for x in range(y + 1) if x & y == x))
        for y in range(len(table))
    ]


def oracle_chromatic_table(adj, m, every):
    """The reference chi table of the sweep: at_least[Y][s], s = 0 ..
    m + 1, the lanes of every in which P + v, v adjacent to the vertex
    set Y of the order-m graph P, has chi >= s.  P + v is c-colorable
    where some independent I outside Y leaves V - I covered by c - 1
    independent sets: E_c[V - Y], E_c the subset-OR of indep[I] &
    cover_{c-1}[V - I] over every I, cover_t[X] the OR over the I inside
    X holding X's lowest vertex of indep[I] & cover_{t-1}[X - I], and
    cover_0 the empty set alone; every level and every entry is computed."""
    full = (1 << m) - 1
    indep = []
    for x in range(full + 1):
        lanes = every
        for u, v in combinations([u for u in range(m) if x >> u & 1], 2):
            lanes &= every ^ adj[u][v]
        indep.append(lanes)
    cover = [every] + [0] * full
    at_least = [[every, every] for _ in range(full + 1)]
    for _ in range(m):
        colorable = oracle_subset_or([indep[i] & cover[full ^ i] for i in range(full + 1)])
        for y, row in enumerate(at_least):
            row.append(every ^ colorable[full ^ y])
        level = [every] + [0] * full
        for x in range(1, full + 1):
            low = x & -x
            for i in range(full + 1):
                if i & x == i and i & low:
                    level[x] |= indep[i] & cover[x ^ i]
        cover = level
    return at_least


def oracle_kappa_table(adj, m, ks, every):
    """The reference kappa table of the sweep: at_least[Y][k], k in ks,
    the lanes of every in which P + v, v adjacent to the vertex set Y of
    the order-m graph P, has kappa >= k, 0 where k > |Y|.  From the
    outside neighbours of every nonempty K, counted in full: P has no
    separator of at most k - 2 vertices where every K has at least
    min(k - 1, m - |K|), and v is cut off from a K outside Y where K has
    at most k - 1, the subset-OR of those lanes read at V - Y."""
    full = (1 << m) - 1
    joined = dict.fromkeys(ks, every)
    cut_off = {k: [0] * (full + 1) for k in ks}
    for members in range(1, full + 1):
        count = [every] + [0] * m  # count[d]: at least d outside neighbours
        for u in range(m):
            if not members >> u & 1:
                lanes = 0
                for w in range(m):
                    if members >> w & 1:
                        lanes |= adj[u][w]
                for d in range(m, 0, -1):
                    count[d] |= count[d - 1] & lanes
        for k in ks:
            joined[k] &= count[min(k - 1, m - members.bit_count())]
            cut_off[k][members] = every ^ count[k]
    cut_off = {k: oracle_subset_or(table) for k, table in cut_off.items()}
    return [
        {k: joined[k] & (every ^ cut_off[k][full ^ y]) if k <= y.bit_count() else 0 for k in ks}
        for y in range(full + 1)
    ]


def oracle_hamiltonian_table(adj, m, every):
    """The reference Hamiltonicity table of the sweep: ham[Y], the lanes
    of every in which P + v, v adjacent to the vertex set Y of the
    order-m graph P, m >= 2, is Hamiltonian, that is in which P has a
    Hamiltonian path with both ends in Y.  reach[(S, v)] is the lanes in
    which some path from a spans exactly S and ends at v, filled for each
    start a over the sets S that hold a in ascending order; the spanning
    paths from a to each b > a are ORed into every Y holding a and b."""
    full = (1 << m) - 1
    ham = [0] * (full + 1)
    for a in range(m):
        reach = {(1 << a, a): every}
        for s in range(full + 1):
            if not s >> a & 1:
                continue
            for v in range(m):
                if v == a or not s >> v & 1:
                    continue
                lanes = 0
                for u in range(m):
                    lanes |= reach.get((s ^ 1 << v, u), 0) & adj[u][v]
                reach[(s, v)] = lanes
        for b in range(a + 1, m):
            for y in range(full + 1):
                if y >> a & 1 and y >> b & 1:
                    ham[y] |= reach[(full, b)]
    return ham


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


def oracle_recognize_extremal(g: Graph):
    """(k, partition) when g is exactly the exceptional shape, else None:
    recognize_extremal as it was before it read each row once, a pass for
    the join part and one for the independent part, with the partition
    held to oracle_extremal_problems.

    Recognition is by rows, not isomorphism search: the join part A is
    precisely the universal vertices, each row with its own bit being V,
    the independent part the vertices whose row is A, the clique part the
    rest.  At n = 2k+1 the one clique vertex has the row A too, and any
    split of the other vertices into k + 1 works; the highest is taken as
    the one-vertex clique part for determinism."""
    n = g.n
    if n < 5:
        return None
    full = g.vertex_mask
    a = 0
    bit = 1
    for row in g.adj:
        if row | bit == full:
            a |= bit
        bit <<= 1
    k = a.bit_count()
    if k < 2 or n < 2 * k + 1:
        return None
    rest = full ^ a
    if n == 2 * k + 1:
        top = 1 << (rest.bit_length() - 1)
        part = theorem.ExtremalPartition(a, rest ^ top, top)
    else:
        b = 0
        for v, row in enumerate(g.adj):
            if row == a:
                b |= 1 << v
        part = theorem.ExtremalPartition(a, b, rest ^ b)
    if oracle_extremal_problems(g, k, part):
        return None
    return k, part


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


def oracle_extend_predecessor_chord(g: Graph, c: Cycle, fan: PathSystem):
    """Use a chord between the interior predecessors of two attachment
    terminals (both segments must have length >= 2).

    The rewired cycle enters along one fan path, runs forward to the
    first predecessor's far side, crosses the chord, runs backward to
    the other entry attachment, and exits along its fan path, gaining
    the hub.
    """
    k = len(fan.attachments)
    try:
        decomp = segments(c, fan, k)
    except ValueError:
        return None
    big = sorted(decomp.big_segment_indices)
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            i, j = big[a], big[b]  # 1-based segment indices
            term_i = fan.attachments[i % k]
            term_j = fan.attachments[j % k]
            p_i = c.predecessor(term_i)
            p_j = c.predecessor(term_j)
            if not g.has_edge(p_i, p_j):
                continue
            candidate = (
                [fan.hub]
                + _interior(fan.paths[i % k])
                + list(c.arc(term_i, p_j))
                + list(c.arc(p_i, term_j, backward=True))
                + list(reversed(_interior(fan.paths[j % k])))
            )
            found = _accept(g, c, candidate)
            if found is not None:
                return found
    return None


def oracle_extend_case1_rotation(g: Graph, c: Cycle, fan: PathSystem, y_index: int):
    """Rewirings available when exactly one segment is long.

    With the long segment written y_1 .. y_r followed by its terminal
    attachment, and y_0 standing for the first attachment's successor,
    position j = y_index needs the edge from y_j back to that successor;
    then either (a) a hub edge to y_{j-1} or (b) an edge from another
    attachment's successor to y_{j-1} yields a longer cycle.  Raises
    unless exactly one segment is long and 1 <= y_index <= r.
    """
    k = len(fan.attachments)
    decomp = segments(c, fan, k)
    big = sorted(decomp.big_segment_indices)
    if len(big) != 1:
        raise ValueError(f"exactly one long segment required, found {len(big)}")
    rot = big[0] - 1
    att = fan.attachments[rot:] + fan.attachments[:rot]
    paths = fan.paths[rot:] + fan.paths[:rot]
    seg = decomp.segments[rot]
    ys = seg[:-1]
    r = len(ys)
    if not (1 <= y_index <= r):
        raise ValueError(f"y index must be in 1..{r}, got {y_index}")
    u1 = att[0]
    u1_succ = c.successor(u1)
    y_j = ys[y_index - 1]
    y_prev = ys[y_index - 2] if y_index >= 2 else u1_succ
    hub = fan.hub
    if g.has_edge(u1_succ, y_j):
        # (a) hub drops onto y_{j-1}, sweeps back to the first successor,
        # jumps to y_j, and takes the long way home through path 1
        if g.has_edge(hub, y_prev):
            candidate = (
                [hub]
                + list(c.arc(y_prev, u1_succ, backward=True))
                + list(c.arc(y_j, u1))
                + list(reversed(_interior(paths[0])))
            )
            found = _accept(g, c, candidate)
            if found is not None:
                return found
        # (b) enter along path l, run back to y_j, jump to the first
        # successor, forward to y_{j-1}, jump to successor l, close via path 1
        for l in range(2, k + 1):
            u_l = att[l - 1]
            u_l_succ = c.successor(u_l)
            if not g.has_edge(u_l_succ, y_prev):
                continue
            candidate = (
                [hub]
                + _interior(paths[l - 1])
                + list(c.arc(u_l, y_j, backward=True))
                + list(c.arc(u1_succ, y_prev))
                + list(c.arc(u_l_succ, u1))
                + list(reversed(_interior(paths[0])))
            )
            found = _accept(g, c, candidate)
            if found is not None:
                return found
    return None
