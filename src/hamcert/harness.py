"""Population-scale verification over all labeled graphs of an order.

Both sources run one cheap-first stage order, each stage only on the
graphs that the cheaper ones before it leave open:

1. first-fit greedy bounds, in vertex order, on the graph and its
   complement; the exact Nordhaus-Gaddum pair only where they leave the
   coloring inequality chi + chi_c <= n + 1 open;
2. the candidate rule (_may_hit) on minimum degree and the graph's
   first-fit bound;
3. exact chi of the candidates, then exact connectivity and Hamiltonicity
   and the certify replay of every non-Hamiltonian hypothesis hit.

A replayed hit of the extremal shape is certified by its partition,
validated against the graph, and the lemma that the partition fixes
kappa = k and chi = n - k and rules out a Hamiltonian cycle; any other
replayed hit goes through the exact solvers again (theorem.certify).

Both sources run every stage in the same lane kernels: a batch of graphs
is a set of lanes, one bit per graph in a Python int, so that each int
operation steps the whole batch.  Stages 1 and 2 run on every graph of a
batch (_cheap_stages for a stream block, _parent_kernels and
_neighbourhood_stages for the internal sweep: one first-fit step per
vertex, _first_fit_step and for the sweep's last vertex _fit_last_vertex,
the degree counters and then _bound_stages),
stage 3 on its candidates (_exact_stages: _chromatic_lanes,
_kappa_lanes, _hamiltonian_lanes, _tally).  Minimum degree and
connectivity share one saturating bit-sliced counter (_count_lanes): of
a vertex's neighbours for the degree, and of the outside neighbours of
each vertex set K of at most (n - 1) / 2 vertices for kappa >= k at
each k >= 2, since a minimum separator is the neighbourhood of the
smallest component it leaves, and a disconnected graph has a K with at
most one outside neighbour.  A hit the Hamiltonicity kernel accepts is
counted without a witness cycle; the tests hold the kernels to the
single-graph solvers, whose cycles are checked, and to first-fit, degree
and cut-set references, and the certifier settles every other hit.

The internal source enumerates every labeled graph on n <= 7 vertices by
edge bitmask.  The low P = (n - 1)(n - 2) / 2 bits of a mask are its
parent, the graph on vertices 0 .. n - 2, and the top n - 1 bits the
neighbourhood nb of vertex n - 1, so mask nb << P | p is parent p plus
one vertex.  The cheap kernels run once a sweep on the 2^P parent lanes
(_parent_kernels: first fit on the parents and their complements, with
each color class's members, and the degree counter of each parent row),
whose lane set of pair t is bit t of the lane index, a periodic pattern
built by doubling (_range_lanes, from graphs.without_bit).  Then each
nb, in ascending order, takes one more first-fit step, for vertex n - 1
on its constant row, and one more count per edge (u, n - 1); the
coloring inequality test and the candidate rule run on the stepped lane
sets, lane p of nb standing for mask nb << P | p
(_neighbourhood_stages).  At n = 7 that is
64 neighbourhoods of 2^15 lanes, a 4 KiB int each, where the whole
population is 2^21 lanes.  The candidates of a shard are gathered in
mask order and enter the exact stages once, together.  Numpy stays for
two steps: gathering the candidates' masks (_candidate_masks) and
building their lanes (_packed_edge_lanes), about 2 ms for the 225,800
candidates at n = 7 against 174 ms for the pure-Python reference
builder of the tests (2-core host).

The streamed source works a block of lines at a time and needs no numpy,
whose import alone costs a stream process about 12 MB resident.  A block
has one form from the read to the replay: rows of w + 1 bytes, each
line's w graph6 bytes and a newline, as a text stream holds them.  A
text stream is read a chunk of text at a time, completed to its line
end (_text_chunks).  A chunk whose every line is w bytes and a newline,
a grid, is checked and decoded from its own bytes (_grid_block), with no
str made per line; any other chunk, split on newlines alone, and any
iterable of lines take the line path (_line_block): strip each line,
cut a leading header off it and check the lines as one grid.  A few
whole-block checks (graph6.valid_block) validate a block; one that fails
them is decoded line by line, so that each bad line is reported with its
line number, and its valid lines become rows of the same form.  Lanes
come straight from the block's bytes (graph6.pair_lanes): payload column
j of every line is one strided slice and one int, byte i for line i,
whose 8-byte words an 8 x 8 bit transpose turns into bytes of six lane
sets, the sweep's transpose (_packed_edge_lanes) on Python ints.  The
candidates stay rows, cut whole from their block, settled a block at a
time in line order, and a Graph is built only for a certify replay.
The exact kernels' tables and vertex-set enumeration double with each
order, so above _LANE_KERNEL_MAX_ORDER the single-graph coloring,
connectivity and Hamiltonian-cycle solvers fill the same lane sets for
the tally.

Work may be split into shards by edge-mask range; partial reports merge
associatively, so totals are identical for every shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from hamcert.graph6 import (
    GRAPH6_HEADER,
    MAX_GRAPH6_ORDER,
    TRANSPOSE_SWAPS,
    Graph6Error,
    decode_graph6,
    graph6_width,
    pair_lanes,
    to_graph6,
    valid_block,
)
from hamcert.graphs import MAX_ENUMERATION_ORDER, from_edge_mask, triangle_pairs, without_bit
from hamcert.invariants import chromatic_number, nordhaus_gaddum, vertex_connectivity
from hamcert.cycles import find_hamiltonian_cycle
from hamcert.theorem import certify


@dataclass
class VerificationReport:
    """Additive tallies of one verification run (or one shard of it)."""

    total_graphs: int = 0
    hypothesis_hits: dict[int, int] = field(default_factory=dict)
    hamiltonian: int = 0
    extremal: int = 0
    counterexamples: list[tuple[str, int]] = field(default_factory=list)
    lemma1_violations: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        hits = dict(self.hypothesis_hits)
        for k, v in other.hypothesis_hits.items():
            hits[k] = hits.get(k, 0) + v
        return VerificationReport(
            total_graphs=self.total_graphs + other.total_graphs,
            hypothesis_hits=hits,
            hamiltonian=self.hamiltonian + other.hamiltonian,
            extremal=self.extremal + other.extremal,
            counterexamples=self.counterexamples + other.counterexamples,
            lemma1_violations=self.lemma1_violations + other.lemma1_violations,
            errors=self.errors + other.errors,
        )

    @property
    def hits_total(self) -> int:
        return sum(self.hypothesis_hits.values())

    def consistent(self) -> bool:
        return self.hamiltonian + self.extremal + len(self.counterexamples) == self.hits_total

    def summary(self) -> str:
        hits = " ".join(f"k={k}:{v}" for k, v in sorted(self.hypothesis_hits.items()))
        lines = [
            f"graphs {self.total_graphs}",
            f"hypothesis hits {self.hits_total} ({hits or 'none'})",
            f"hamiltonian {self.hamiltonian}",
            f"extremal {self.extremal}",
            f"counterexamples {len(self.counterexamples)}",
            f"lemma1 violations {self.lemma1_violations}",
        ]
        if self.errors:
            lines.append(f"input errors {len(self.errors)}")
            for line_no, message in self.errors[:20]:
                lines.append(f"  line {line_no}: {message}")
        for g6, k in self.counterexamples[:20]:
            lines.append(f"  COUNTEREXAMPLE {g6} k={k}")
        return "\n".join(lines)


def _clamped_k_range(n: int, k_min: int, k_max: int) -> range:
    lo = max(2, k_min)
    hi = min(k_max, n - 1)
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# internal vectorized engine


def _parent_kernels(n, ks):
    """The cheap kernels of the internal sweep's order-(n - 1) parents, run
    once a sweep on their 2^P lanes, P = (n - 1)(n - 2) / 2, lane p being
    edge mask p on vertices 0 .. n - 2: (fit, fit_c, counts), with fit
    and fit_c the (classes, more) of _first_fit_lanes on the parents
    and their complements, and counts the _count_lanes of each parent row
    up to ks[-1]."""
    every = (1 << (1 << ((n - 1) * (n - 2) // 2))) - 1
    adj = _range_lanes(n - 1)
    fit = _first_fit_lanes(adj, every)
    fit_c = _first_fit_lanes(_complement_lanes(adj, every), every)
    counts = [_count_lanes(row, ks[-1], every) for row in adj] if ks else []
    return fit, fit_c, counts


def _neighbourhood_stages(report, n, ks, parents, lo, hi):
    """Stages 1 and 2 on the order-n masks lo .. hi - 1, one neighbourhood
    nb of vertex n - 1 at a time, ascending: mask nb << P | p is parent p
    of _parent_kernels with the edges (u, n - 1) of the u in nb, and lane
    p of nb's lane sets stands for it.  The lanes of nb are every parent
    lane, cut to lo .. hi - 1 at the two end runs.  Returns the candidate
    lane set of each nb from lo >> P on."""
    fit, fit_c, counts = parents
    p_bits = (n - 1) * (n - 2) // 2
    found = []
    for nb in range(lo >> p_bits, ((hi - 1) >> p_bits) + 1):
        base = nb << p_bits
        start, stop = max(lo - base, 0), min(hi - base, 1 << p_bits)
        every = ((1 << stop) - 1) ^ ((1 << start) - 1)
        more = _fit_last_vertex(fit, nb, every)
        more_c = _fit_last_vertex(fit_c, nb ^ ((1 << (n - 1)) - 1), every)
        degree = _degree_last_vertex(counts, ks[-1], nb, every) if ks else []
        found.append(_bound_stages(
            report, n, ks, more, more_c, degree, lambda i: from_edge_mask(n, base | i),
        ))
    return found


def _fit_last_vertex(fit, nb, every):
    """more of first fit on the order-n graphs of the lanes of every, from
    the (classes, more) of their parents: one first-fit step of vertex
    n - 1, which is adjacent to the u in nb in every lane.  Its row is
    constant, so color c is taken in the lanes of c's members u in nb,
    and the parents' classes are read, not stepped."""
    classes, more = fit
    more = [x & every for x in more] + [0]
    blocked = every
    for c, members in enumerate(classes):
        taken = 0
        for u, at_u in members:
            if nb >> u & 1:
                taken |= at_u
        more[c] |= blocked ^ (blocked & taken)
        blocked &= taken
        if not blocked:
            break
    else:
        more[len(classes)] = blocked
    return more


def _degree_last_vertex(counts, cap, nb, every):
    """_degree_lanes of the order-n graphs of the lanes of every, from the
    counters of their parents' rows: vertex n - 1 has degree |nb|, and
    its edge to a u in nb is one more count of u in every lane, which
    moves u's count[d - 1] up to count[d]."""
    at_least = [every if d <= nb.bit_count() else 0 for d in range(cap + 1)]
    for u, count in enumerate(counts):
        up = nb >> u & 1
        for d in range(up, cap + 1):
            at_least[d] &= count[d - up]
    return at_least


def _candidate_masks(np, found, lo, p_bits):
    """The masks of the candidate lanes of each neighbourhood from
    lo >> p_bits on, ascending, as a uint32 array: one unpack of their
    lane sets, whose rows of 2^p_bits lanes follow each other as the masks
    do.  Seen as bool, np.flatnonzero reads the rows in a quarter of the
    time np.nonzero takes on the uint8 (0.5 against 2.0 ms for 2^19
    lanes)."""
    width = 1 << p_bits
    data = np.frombuffer(b"".join(x.to_bytes((width + 7) // 8, "little") for x in found), np.uint8)
    rows = np.unpackbits(data.reshape(len(found), -1), axis=1, count=width, bitorder="little")
    return (np.flatnonzero(rows.view(bool)) + (lo >> p_bits << p_bits)).astype(np.uint32)


def _packed_edge_lanes(np, masks, n):
    """The lane adjacency of the graphs given by a uint32 array of edge
    masks.  Byte b of eight masks fills a little-endian uint64 word, an
    8 x 8 bit matrix with a row per mask, and three swaps of its
    off-diagonal blocks transpose it (Warren, Hacker's Delight, 7-3): byte
    q of word j then holds bit q of masks 8j .. 8j + 7, which is byte j of
    the lane set of pair 8b + q: graph6.pair_lanes' transpose, in numpy.
    The 225,800 candidates of n = 7 take 1.6 ms, against 5.1 ms for the
    same swaps on one Python int per byte column of the masks (2-core
    host)."""
    nbytes = (n * (n - 1) // 2 + 7) // 8
    words = -(-masks.size // 8)
    data = np.zeros((nbytes, words * 8), np.uint8)
    mask_bytes = np.ascontiguousarray(masks, "<u4").view(np.uint8).reshape(-1, 4)
    data[:, :masks.size] = mask_bytes[:, :nbytes].T
    x = data.view("<u8")
    for shift, swap in TRANSPOSE_SWAPS:
        shift = np.uint64(shift)
        t = ((x >> shift) ^ x) & np.uint64(swap)
        x ^= t ^ (t << shift)
    lanes = np.ascontiguousarray(data.reshape(nbytes, words, 8).transpose(0, 2, 1))
    return _lane_adjacency(
        n, [int.from_bytes(row.tobytes(), "little") for row in lanes.reshape(8 * nbytes, words)]
    )


def _range_lanes(n):
    """The lane adjacency of every order-n graph, lane i being edge mask i:
    pair t's lane set is the masks with bit t, graphs.without_bit(t, m)
    shifted by 2^t, m = n(n - 1) / 2."""
    m = n * (n - 1) // 2
    return _lane_adjacency(n, [without_bit(t, m) << (1 << t) for t in range(m)])


# ---------------------------------------------------------------------------
# stages of both sources: lane kernels, one bit per graph
#
# A batch of graphs is a set of lanes, and a lane set is a Python int whose
# bit i stands for graph i: bit-slicing (Biham, "A fast new DES
# implementation in software", FSE 1997) with words as wide as the batch.
# adj[u][v] is the lane set of the graphs with the edge uv, so one int
# operation steps every graph of the batch at once.  The kernels need no
# numpy and serve both sources.  A complement is taken as every ^ x, and
# y minus x as y ^ (y & x): ~x builds a negative int, and on lane sets of
# 2^21 bits ~x takes 50-70 us against 12 us for every ^ x, and y & ~x
# 290 us against 135 us.


def _lanes(bits) -> int:
    """The lane set whose bit i is the truth of the i-th item."""
    return int("0" + "".join(["1" if b else "0" for b in bits])[::-1], 2)


def _lane_adjacency(n, pair_lanes):
    """adj[u][v] = adj[v][u] = the lane set of the t-th pair (u, v) of
    triangle_pairs(n); 0 on the diagonal."""
    adj = [[0] * n for _ in range(n)]
    for (u, v), lanes in zip(triangle_pairs(n), pair_lanes):
        adj[u][v] = adj[v][u] = lanes
    return adj


def _complement_lanes(adj, every):
    """The lane adjacency of the complements."""
    return [[0 if u == v else every ^ x for v, x in enumerate(row)] for u, row in enumerate(adj)]


def _first_fit_lanes(adj, every):
    """(classes, more) of first-fit greedy coloring in vertex order on the
    lanes of every, one _first_fit_step per vertex.  more[c], c = 0 .. n,
    is the lanes in which first fit uses more than c colors.  First fit
    uses colors 0, 1, ... without gaps, so the bound ub >= t is more[t - 1]
    and ub == a is more[a - 1] ^ more[a]; more[n] is empty.  classes[c]
    holds (u, lanes) for the lanes in which u took color c."""
    classes: list[list[tuple[int, int]]] = []
    more = [0] * (len(adj) + 1)
    for v, row in enumerate(adj):
        _first_fit_step(classes, more, v, row, every)
    return classes, more


def _first_fit_step(classes, more, v, row, every):
    """Color vertex v by first fit after the vertices of classes, in place:
    row[u] is the lanes with the edge uv.  v takes color c in the lanes
    where every color below c is taken by an earlier neighbour and c is
    not."""
    blocked = every
    for c, members in enumerate(classes):
        taken = 0
        for u, at_u in members:
            taken |= at_u & row[u]
        free = blocked ^ (blocked & taken)
        if free:
            members.append((v, free))
            more[c] |= free
        blocked &= taken
        if not blocked:
            return
    if blocked:
        more[len(classes)] = blocked
        classes.append([(v, blocked)])


def _count_lanes(sets, cap, every):
    """count[d], d = 0 .. cap: the lanes of every in which at least d of
    the given lane sets hold, by a bit-sliced counter that saturates at
    cap.  An empty set cannot raise a count and is skipped."""
    count = [every] + [0] * cap
    high = 0  # the highest count reached so far
    for lanes in sets:
        if lanes:
            if high < cap:
                high += 1
            for d in range(high, 0, -1):
                count[d] |= count[d - 1] & lanes
    return count


def _degree_lanes(adj, cap, every):
    """at_least[d], d = 0 .. cap: the lanes of every whose minimum degree is
    at least d, from the counter of each vertex's row."""
    at_least = [every] * (cap + 1)
    for row in adj:
        for d, lanes in enumerate(_count_lanes(row, cap, every)):
            at_least[d] &= lanes
    return at_least


def _coloring_open(n, more, more_c):
    """The lanes whose first-fit bounds on the graph and its complement
    leave chi + chi_c <= n + 1 open: ub + ub_c >= n + 2, which is ub >= a
    and ub_c >= n + 2 - a for a = ub."""
    suspects = 0
    for a in range(2, n + 1):
        suspects |= more[a - 1] & more_c[n + 1 - a]
    return suspects


def _may_hit(n, k_max, degree, more):
    """The candidate rule: a hit for some k <= k_max needs kappa >= k >= 2
    and chi >= n - k, and kappa <= delta and chi <= ub, so it needs delta
    >= d and ub >= n - d for some d in 2 .. k_max (take d = min(delta,
    k_max)).  degree is _degree_lanes up to k_max, more the graph's
    first-fit bound from _first_fit_lanes.

    A first-fit bound also rejects every disconnected graph: each
    component has at least delta + 1 vertices and first fit colors it
    apart from the others, with at most its own size in colors, so
    ub <= n - delta - 1."""
    hit = 0
    for d in range(2, k_max + 1):
        hit |= degree[d] & more[n - d - 1]
    return hit


def _cheap_stages(report, n, ks, adj, every, graph):
    """Stages 1 and 2 on a batch of lanes given by their adjacency, as the
    stream runs them: first fit on the graph and its complement, the
    degree counters and then _bound_stages.  Returns the candidate
    lanes."""
    _, more = _first_fit_lanes(adj, every)
    _, more_c = _first_fit_lanes(_complement_lanes(adj, every), every)
    degree = _degree_lanes(adj, ks[-1], every) if ks else []
    return _bound_stages(report, n, ks, more, more_c, degree, graph)


def _bound_stages(report, n, ks, more, more_c, degree, graph):
    """Stages 1 and 2 from the first-fit bounds more and more_c of the
    graph and its complement and the degree lanes, for both sources: the
    exact Nordhaus-Gaddum pair of graph(i) for each lane i the bounds
    leave open, in lane order, whose lemma 1 violations go to report; the
    candidate rule on the graph's bound.  Returns the candidate lanes."""
    for i in _lane_indices(_coloring_open(n, more, more_c)):
        if nordhaus_gaddum(graph(i))[2] < 0:
            report.lemma1_violations += 1
    return _may_hit(n, ks[-1], degree, more) if ks else 0


def _chromatic_lanes(adj, n, s_max, every):
    """at_least[s], s = 0 .. s_max <= n: the lanes of every with chi >= s,
    n >= 1.

    Lawler's cover recursion (Lawler, "A note on the complexity of the
    chromatic number problem", IPL 5(3), 1976) in lanes.  indep[S] is the
    lanes in which the vertex set S is independent: with a and b the two
    lowest vertices of S, those in which S - a and S - b are and ab is no
    edge.  cover[X] at level t is the lanes in which t independent sets
    cover X: level 1 is indep, and level t is the OR, over the sets I
    inside X that hold X's lowest vertex, of indep[I] & cover[X - I] a
    level below, where the empty set is covered at every level.  chi >= s
    in the lanes where level s - 1 does not cover V.

    Only the I with indep[I] != 0 are enumerated, each with the supersets
    X = I | Y for every Y above I's lowest vertex and outside I.  V reads
    the level below only on sets without vertex 0, and so do those sets,
    so a level is kept for them alone and V is computed apart; the last
    level needs V alone."""
    full = (1 << n) - 1
    apart = _complement_lanes(adj, every)
    indep = [every] * (full + 1)
    for x in range(3, full + 1):
        low = x & -x
        rest = x ^ low
        if rest:
            b = rest & -rest
            indep[x] = indep[rest] & indep[x ^ b] & apart[low.bit_length() - 1][b.bit_length() - 1]
    with_0, without_0 = [], []
    for i in range(1, full + 1):
        if not indep[i]:
            continue
        if i & 1:
            with_0.append((i, indep[i]))
        else:
            # the vertices above i's lowest one and outside i
            without_0.append((i, indep[i], full ^ (i | ((i & -i) - 1))))
    at_least = [every, every, every ^ indep[full]]
    cover = indep
    for t in range(2, s_max):
        covered = 0
        for i, at_i in with_0:
            covered |= at_i & cover[full ^ i]
        at_least.append(every ^ covered)
        if t == s_max - 1:
            break
        level = [every] + [0] * full
        for i, at_i, free in without_0:
            y = free
            while True:
                level[i | y] |= at_i & cover[y]
                if not y:
                    break
                y = (y - 1) & free
        cover = level
    return at_least[:s_max + 1]


def _kappa_lanes(adj, n, k_cap, every):
    """{k: lanes} for k = 2 .. min(k_cap, n - 1): the lanes of every with
    min(kappa, k_cap) >= k, which is no vertex set of size below k
    separating the graph.

    A graph has a separator of fewer than k >= 2 vertices exactly when
    some vertex set K of s <= (n - 1) / 2 vertices has at most min(k - 1,
    n - 2s) outside neighbours.  One way, for a connected graph, K is the
    smallest component that such a separator S leaves: its neighbours lie
    in S, and s <= (n - |S|) / 2 with |S| >= 1.  For a disconnected one,
    with C its smallest component, K = C has no outside neighbour when
    |C| <= (n - 1) / 2, and K = C minus one vertex has at most one, below
    min(k, 3), when |C| = n / 2.  The other way, N(K) leaves the n - s -
    |N(K)| >= s vertices outside K and N(K) apart from K.  So level k
    keeps the lanes in which every such K has at least min(k, n - 2s + 1)
    outside neighbours, counted by _count_lanes over the u outside K from
    rows[u], the lanes in which u has a neighbour in K (_neighbour_rows)."""
    top_k = min(k_cap, n - 1)
    at_least = {k: every for k in range(2, top_k + 1)}
    if not at_least:
        return at_least
    # capped[t] gathers the counts that saturate at t, which decide every
    # level from t on
    capped = [every] * (top_k + 1)
    for members, rows in _neighbour_rows(adj, (n - 1) // 2):
        top = min(top_k, n + 1 - 2 * members.bit_count())
        count = _count_lanes(
            [x for u, x in enumerate(rows) if not members >> u & 1], top, every
        )
        for k in range(2, top):
            at_least[k] &= count[k]
        capped[top] &= count[top]
    held = every
    for k in at_least:
        held &= capped[k]
        at_least[k] &= held
    return at_least


def _neighbour_rows(adj, size, low=0, members=0, rows=None):
    """Every vertex set K of 1 .. size vertices that extends members by
    vertices from low on, in ascending order, as (K, rows): rows[u] is
    the lanes in which u has a neighbour in K, the OR of K's rows, grown
    one vertex at a time."""
    for w in range(low, len(adj)):
        grown = adj[w] if rows is None else [a | b for a, b in zip(rows, adj[w])]
        yield members | 1 << w, grown
        if size > 1:
            yield from _neighbour_rows(adj, size - 1, w + 1, members | 1 << w, grown)


def _hamiltonian_lanes(adj, n, lanes):
    """The Hamiltonian graphs among the given lanes, n >= 3: the subset DP
    of cycles._path_ends from vertex 0, filled a row at a time with one
    lane set per (row, end).  Row r maps each end v to the lanes in which
    some path from 0 spans exactly 1 | (r << 1) and ends at v; a cycle
    closes a spanning path."""
    table = [{0: lanes}]
    for r in range(1, 1 << (n - 1)):
        ends = {}
        rest = r
        while rest:
            vb = rest & -rest
            rest ^= vb
            v = vb.bit_length()  # bit b of r is vertex b + 1
            at_v = 0
            for u, at_u in table[r ^ vb].items():
                at_v |= at_u & adj[u][v]
            if at_v:
                ends[v] = at_v
        table.append(ends)
    closed = 0
    for v, at_v in table[-1].items():
        closed |= at_v & adj[v][0]
    return closed


def _lane_indices(lanes):
    """The lanes of a lane set, ascending, in one pass over its binary
    digits from the end; graphs.iter_bits costs a pass per lane, 3.8
    against 0.3 ms for 245 lanes among 225,800 (the n = 7 replays)."""
    bits = format(lanes, "b")
    top = len(bits) - 1
    i = bits.rfind("1")
    while i >= 0:
        yield top - i
        i = bits.rfind("1", 0, i)


# The largest order whose stream candidates the lane kernels settle; above
# it the single-graph solvers fill the lanes.  A block costs the kernels a
# fixed 2^(n-1) path-table rows, 2^n chi-table entries and about 2^(n-1)
# vertex sets K for kappa, and the solvers a fixed time per candidate.
# `python3 scripts/kernel_timings.py` times each kernel against its solver
# on the candidates of seeded G(n, 0.8) streams, k window (2, n - 1); in
# ms on a 2-core x86 host, kernel / solver, for a block of 4,096
# candidates and, the three kernels together, for one:
#
#    n   block: chi     kappa         Hamiltonicity   one candidate
#    8       0.6 / 169    0.7 / 305     0.5 / 199      0.70 / 0.15
#   10       9.3 / 352    3.6 / 596     2.6 / 396       4.0 / 0.35
#   12        56 / 398     20 / 1,405    16 / 500        24 / 0.59
#   13       179 / 457     52 / 1,466    36 / 846        57 / 0.67
#
# The kernels win from about 5 candidates at n = 8 and 45 at n = 12, and
# lose at most their fixed cost on a short block.  The path table doubles
# with the order: a full block adds 5 MB peak at n = 12, 13 MB at 13 and
# 31 MB at 14; the chi tables peak at 2.7 MB at n = 12 and 5.3 MB at 13.
_LANE_KERNEL_MAX_ORDER = 12


def _exact_stages(report, n, ks, adj, every, graph) -> None:
    """Stage 3 on a batch of candidate lanes, for both sources: exact chi,
    kappa and Hamiltonicity, then the tally.  adj is the lane adjacency of
    the batch and graph(i) builds the graph of lane i.  The kernels'
    tables and vertex sets double with each order, so above
    _LANE_KERNEL_MAX_ORDER the single-graph solvers fill the same lane
    sets."""
    if n <= _LANE_KERNEL_MAX_ORDER:
        chi_at_least = _chromatic_lanes(adj, n, n - ks[0], every)
        kappa_at_least = _kappa_lanes(adj, n, ks[-1], every)

        def hamiltonian(lanes):
            return _hamiltonian_lanes(adj, n, lanes)

    else:
        graphs = [graph(i) for i in range(every.bit_length())]
        chi = [chromatic_number(g)[0] for g in graphs]
        chi_at_least = {n - k: _lanes(x >= n - k for x in chi) for k in ks}
        # no k below max(k_min, n - chi) can be hit, and none at all where
        # chi < n - k_max, so kappa is exact only from there on, which is
        # all the tally reads
        kappa = [
            vertex_connectivity(g, stop_below=max(ks[0], n - x)) if x >= n - ks[-1] else 0
            for g, x in zip(graphs, chi)
        ]
        kappa_at_least = {k: _lanes(x >= k for x in kappa) for k in ks}

        def hamiltonian(lanes):
            return _lanes(
                lanes >> i & 1 and find_hamiltonian_cycle(g) is not None
                for i, g in enumerate(graphs)
            )

        graph = graphs.__getitem__
    _tally(report, n, ks, kappa_at_least, chi_at_least, hamiltonian, graph)


def _tally(report, n, ks, kappa_at_least, chi_at_least, hamiltonian, graph):
    """Count and settle the hypothesis hits of a batch of lanes, for both
    sources.  kappa_at_least[k] and chi_at_least[n - k] are lane sets, the
    hits for k are the lanes in both; hamiltonian(lanes) returns the
    Hamiltonian lanes among the given ones, and graph(i) builds the graph
    of lane i for the certify replay of each non-Hamiltonian hit, in lane
    order."""
    hits = {k: kappa_at_least[k] & chi_at_least[n - k] for k in ks}
    every_hit = 0
    for k, lanes in hits.items():
        report.hypothesis_hits[k] += lanes.bit_count()
        every_hit |= lanes
    if not every_hit:
        return
    ham = hamiltonian(every_hit)
    for lanes in hits.values():
        report.hamiltonian += (lanes & ham).bit_count()
    # rare path: replay the non-Hamiltonian hits through the certifier
    missed = {k: set(_lane_indices(lanes ^ (lanes & ham))) for k, lanes in hits.items()}
    for i in _lane_indices(every_hit ^ (every_hit & ham)):
        _replay(report, graph(i), [k for k in ks if i in missed[k]])


def _replay(report, g, graph_hits) -> None:
    """Tally the certificate of g for every k it hits, independent of any
    lane kernel: a graph of the extremal shape for k by its validated
    partition, any other by the exact kappa, chi and Hamiltonian-cycle
    solvers."""
    for k in graph_hits:
        cert = certify(g, k)
        if cert.kind == "hamiltonian":
            report.hamiltonian += 1
        elif cert.kind == "extremal":
            report.extremal += 1
        else:
            report.counterexamples.append((to_graph6(g), k))


# ---------------------------------------------------------------------------
# streamed source


# Lines per block of the streamed source and candidates per block of its
# exact stages: the cheap lane kernels run on the valid lines of a block
# and the candidates they leave are settled once a block of them has
# gathered, which bounds the memory of a long stream.  A text stream is
# read _STREAM_BLOCK * (w + 1) characters at a time, a block of w-wide
# lines and their newlines, and an iterable of lines _STREAM_BLOCK lines
# at a time, blank ones included.  Measured on a 2-core Xeon, blocks of
# 512, 1,024, 4,096 and 16,384: a seeded G(12, 0.8) stream of 12,000 lines
# took 1.51, 1.27, 1.13 and 1.12 s with a traced heap peak of 2.8, 4.8,
# 16.8 and 24.5 MB; graph8.g6 took 0.051-0.055 s and peaked at 0.2-1.8 MB
# at every size.
_STREAM_BLOCK = 4096


def _decoded_lines(report, n, numbered):
    """The valid order-n lines among (line number, line) pairs, decoded one
    at a time, as rows for pair_lanes: each line stripped and without
    header, and a newline.  Blank lines are skipped, and every other line
    goes to report's errors."""
    w = graph6_width(n)
    rows = []
    for line_no, raw in numbered:
        text = raw.strip()
        if not text:
            continue
        try:
            order, _ = decode_graph6(text)
        except Graph6Error as err:
            report.errors.append((line_no, str(err)))
            continue
        if order != n:
            report.errors.append((line_no, f"expected order {n}, got {order}"))
            continue
        rows.append(text[-w:] + "\n")  # a valid line ends in its w bytes, after any header
    return rows


def _text_chunks(stream, size):
    """The text of a stream in chunks of whole lines: each read of size
    characters, completed to its line end; only the last chunk may lack a
    final newline."""
    while text := stream.read(size):
        yield text if text.endswith("\n") else text + stream.readline()


def _grid_block(n, text):
    """The bytes of a chunk of text if it is a grid, every line a valid
    order-n graph6 line of w bytes and a newline, else None."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    return data if valid_block(n, data) else None


def _line_block(report, n, line_no, chunk):
    """The valid lines of a chunk of lines numbered from line_no + 1, as
    rows for pair_lanes: the lines are stripped, a leading header is cut
    off each, as decode_graph6 drops it, and the non-blank ones are
    checked as one grid.  A block that fails, or whose lines held a
    newline, is decoded line by line, for its errors and their line
    numbers."""
    texts = [text.removeprefix(GRAPH6_HEADER) for raw in chunk if (text := raw.strip())]
    data = _grid_block(n, "\n".join(texts) + "\n") if texts else b""
    if data is None or len(data) != len(texts) * (graph6_width(n) + 1):
        data = "".join(_decoded_lines(report, n, enumerate(chunk, line_no + 1))).encode("ascii")
    return data


def _stream_blocks(report, n, lines):
    """The valid lines of a stream a block at a time, as rows for
    pair_lanes; the errors of the other lines go to report with their
    line numbers.  A text stream is read in chunks: a grid chunk is its
    own rows, and any other, split on newlines alone as iterating the
    stream splits it, takes the path of an iterable of lines,
    _line_block."""
    line_no = 0
    if hasattr(lines, "read"):
        w = graph6_width(n)
        for text in _text_chunks(lines, _STREAM_BLOCK * (w + 1)):
            data = _grid_block(n, text)
            if data is not None:
                line_no += len(data) // (w + 1)
                yield data
                continue
            chunk = text.removesuffix("\n").split("\n")
            yield _line_block(report, n, line_no, chunk)
            line_no += len(chunk)
        return
    lines = iter(lines)
    while chunk := list(islice(lines, _STREAM_BLOCK)):
        yield _line_block(report, n, line_no, chunk)
        line_no += len(chunk)


def _verify_stream(n, ks, lines) -> VerificationReport:
    """A block of lines at a time (_stream_blocks): the cheap stages run
    in the lane kernels on the valid lines of a block, built from their
    bytes, and the candidate rows they leave are settled a block at a
    time in line order."""
    report = VerificationReport(hypothesis_hits={k: 0 for k in ks})
    size = graph6_width(n) + 1
    block = bytearray()
    for data in _stream_blocks(report, n, lines):
        if data:
            block += _stream_candidates(report, n, ks, data)
        if len(block) >= _STREAM_BLOCK * size:
            _settle_block(report, n, ks, block)
            block = bytearray()
    if block:
        _settle_block(report, n, ks, block)
    return report


def _line_graph(n, data, i):
    """The graph of row i of a block of order-n rows."""
    size = graph6_width(n) + 1
    return from_edge_mask(*decode_graph6(data[i * size:(i + 1) * size].decode("ascii")))


def _stream_candidates(report, n, ks, data):
    """The cheap stages on a block of rows of valid lines, whose graphs
    and lemma 1 violations go to report: the candidate rows in line
    order."""
    size = graph6_width(n) + 1
    rows = len(data) // size
    report.total_graphs += rows
    cand = _cheap_stages(
        report, n, ks, _lane_adjacency(n, pair_lanes(n, data)), (1 << rows) - 1,
        lambda i: _line_graph(n, data, i),
    )
    return b"".join([data[i * size:(i + 1) * size] for i in _lane_indices(cand)])


def _settle_block(report, n, ks, block) -> None:
    """The exact stages on a block of stream candidate rows, in line
    order, one lane each."""
    _exact_stages(
        report, n, ks, _lane_adjacency(n, pair_lanes(n, block)),
        (1 << len(block) // (graph6_width(n) + 1)) - 1,
        lambda i: _line_graph(n, block, i),
    )


# ---------------------------------------------------------------------------
# entry points


def verify_order(
    n: int,
    k_range: tuple[int, int] | None = None,
    stream=None,
    shards: int = 1,
) -> VerificationReport:
    """Check the theorem and the coloring inequality over a population.

    Without a stream: every labeled graph of order n (n <= 7 enforced),
    optionally sharded by edge-mask range.  With a stream: its graph6
    lines; malformed lines are recorded with their line numbers and
    processing continues.
    """
    if k_range is None:
        k_range = (2, n - 1)
    ks = _clamped_k_range(n, *k_range)
    if shards < 1:
        raise ValueError("shards must be positive")
    if stream is not None:
        if not (1 <= n <= MAX_GRAPH6_ORDER):
            raise ValueError(f"stream verification is limited to orders 1..{MAX_GRAPH6_ORDER}")
        return _verify_stream(n, ks, stream)
    if not (1 <= n <= MAX_ENUMERATION_ORDER):
        raise ValueError(f"internal enumeration is limited to orders 1..{MAX_ENUMERATION_ORDER}")
    import numpy as np

    total = 1 << (n * (n - 1) // 2)
    bounds = [total * i // shards for i in range(shards + 1)]
    report = VerificationReport(hypothesis_hits={k: 0 for k in ks})
    parents = _parent_kernels(n, ks)
    p_bits = (n - 1) * (n - 2) // 2
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        shard = VerificationReport(total_graphs=hi - lo, hypothesis_hits={k: 0 for k in ks})
        found = _neighbourhood_stages(shard, n, ks, parents, lo, hi)
        cmasks = _candidate_masks(np, found, lo, p_bits)
        if cmasks.size:
            _exact_stages(
                shard, n, ks, _packed_edge_lanes(np, cmasks, n), (1 << cmasks.size) - 1,
                lambda i: from_edge_mask(n, int(cmasks[i])),
            )
        report = report.merge(shard)
    return report
