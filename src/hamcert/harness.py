"""Population-scale verification over all labeled graphs of an order.

Both sources check every graph against the coloring inequality
chi + chi_c <= n + 1 (lemma 1) and the theorem's hypothesis, kappa >= k
and chi >= n - k, count the Hamiltonian hits and replay every
non-Hamiltonian hit through the certifier.  A replayed hit of the
extremal shape is certified by its partition, validated against the
graph, and the lemma that the partition fixes kappa = k and chi = n - k
and rules out a Hamiltonian cycle; any other replayed hit goes through
the exact solvers again (theorem.certify).

Both sources run in lane kernels: a batch of graphs is a set of lanes,
one bit per graph in a Python int, so that each int operation steps the
whole batch.  They share first fit on the complements, lemma 1's bound
on chi_c, and the exact kernels' parts: the independent-set table and
Lawler's cover levels for chi, the K-set counter for kappa, the
Held-Karp path fill for Hamiltonicity, the tally and its replays.
A hit the Hamiltonicity kernel accepts is counted without a witness
cycle; the tests hold the kernels to the single-graph solvers, whose
cycles are checked, and to first-fit, degree and cut-set references,
and the certifier settles every other hit.

The streamed source runs a cheap-first stage order on each block of
graphs, each stage only on the graphs that the cheaper ones before it
leave open (_cheap_stages, then _exact_stages):

1. first-fit greedy bounds, in vertex order, on the graph and its
   complement (_first_fit_lanes); the exact Nordhaus-Gaddum pair only
   where they leave lemma 1 open;
2. the candidate rule (_may_hit) on minimum degree and the graph's
   first-fit bound;
3. exact chi of the candidates, then exact connectivity and Hamiltonicity
   (_chromatic_lanes, _kappa_lanes, _hamiltonian_lanes) and _tally.

Minimum degree and connectivity share one saturating bit-sliced counter
(_count_lanes): of a vertex's neighbours for the degree, and of the
outside neighbours of each vertex set K of at most (n - 1) / 2 vertices
for kappa >= k at each k >= 2, since a minimum separator is the
neighbourhood of the smallest component it leaves, and a disconnected
graph has a K with at most one outside neighbour.

The internal source enumerates every labeled graph on n <= 7 vertices by
edge bitmask.  The low Q = (n - 1)(n - 2) / 2 bits of a mask are its
parent P, the graph on vertices 0 .. n - 2, and the top n - 1 bits the
neighbourhood nb of vertex v = n - 1, so mask nb << Q | p is parent p
plus v.  Every exact invariant that the sweep reads of G = P + v comes
from tables built once a sweep on the 2^Q parent lanes (_sweep_tables),
whose lane set of pair t is bit t of the lane index, a periodic pattern
built by doubling (_range_lanes, from graphs.without_bit).  Each table
is indexed by a vertex set Y of P and filled by one subset-OR transform
over its 2^(n - 1) entries (_subset_or):

- chi: G is c-colorable exactly when some c-coloring of P has a class
  that misses nb (_chromatic_table, on Lawler's cover levels of every
  vertex set of P).  Chi of G's complement is bounded as the stream
  bounds it, by first fit on the complements (_first_fit_lanes), here of
  the parents: G's complement is P's complement plus v adjacent to the
  vertices outside nb, so v adds a color only when they are at least
  first fit's colors, and lemma 1 is left open on no lane;
- kappa >= k: exactly when no set of at most k - 2 vertices separates P
  and no nonempty K outside nb has at most k - 1 outside neighbours in
  P (_kappa_table, on the K-set counter of every K);
- Hamiltonicity: exactly when P has a Hamiltonian path with both ends in
  nb (_hamiltonian_table, on the path fill from each start).

Then each nb, in ascending order, costs a lookup per lane set, read
whole (_settle_neighbourhood): the exact Nordhaus-Gaddum pair of each
lane that exact chi and the bound on chi of the complement leave open,
which only a faulty table leaves, in lane order, and _tally, so the
replays run in mask order.  At n = 7 that is 64 neighbourhoods of 2^15
lanes, a 4 KiB int each, where the whole population is 2^21 lanes, and
the tables take 4-6 ms of an 11-14 ms call (2-core host,
scripts/kernel_timings.py --sweep).  No candidate is gathered and no
lane set is built per candidate, so the sweep needs no numpy.

The streamed source reads a text stream, a block of lines at a time.  A
block has one form from the read to the replay: rows of w + 1 bytes,
each line's w graph6 bytes and a newline, as the stream holds them.
The stream is read a chunk of text at a time, completed to its line end
(_text_chunks).  A chunk whose every line is w bytes and a newline, a
grid, is checked and decoded from its own bytes (_grid_block), with no
str made per line, and so is the first chunk once a header on line 1 is
cut off; any other chunk, split on newlines alone, takes the line path
(_line_block): strip each line, cut a leading header off it and check
the lines as one grid.  A few whole-block checks (graph6.valid_block)
validate a block; one that fails them is decoded line by line, so that
each bad line is reported with its line number, and its valid lines
become rows of the same form.  Lanes come straight from the block's
bytes (graph6.pair_lanes): payload column j of every line is one
strided slice and one int, byte i for line i, whose 8-byte words an
8 x 8 bit transpose turns into bytes of six lane sets.  The candidates
stay rows, cut whole from their block, settled a block at a time in
line order, and a Graph is built only for a certify replay.
The exact kernels' tables and vertex-set enumeration double with each
order, so above _LANE_KERNEL_MAX_ORDER the single-graph coloring,
connectivity and Hamiltonian-cycle solvers fill the same lane sets for
the tally.

The sweep may be split into shards, each a range of neighbourhoods nb
and so of whole runs of masks; partial reports merge associatively and
the shards run in order, so totals and replays are identical for every
shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hamcert.graph6 import (
    GRAPH6_HEADER,
    MAX_GRAPH6_ORDER,
    Graph6Error,
    decode_graph6,
    graph6_width,
    pair_lanes,
    to_graph6,
    valid_block,
)
from hamcert.graphs import (
    MAX_ENUMERATION_ORDER,
    from_edge_mask,
    iter_bits,
    triangle_pairs,
    without_bit,
)
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
# internal source: exact tables on the order-(n - 1) parents


def _sweep_tables(n, ks):
    """The exact invariants of every order-n graph G = P + v of the
    internal sweep, read from tables built once on the 2^Q parent lanes of
    the order-m parents P, m = n - 1, Q = m(m - 1) / 2: lane p is edge
    mask p on vertices 0 .. m - 1, and v = m is adjacent to the set nb.
    Returns (chi, chi_c, kappa, ham): chi[nb][s], s = 0 .. n, the lanes
    with chi(G) >= s; chi_c[s], s = 0 .. n, the lanes with ff(P^c) >= s,
    ff(P^c) the colors of first fit in vertex order on P's complement
    (_first_fit_lanes), as the stream bounds chi of the complement;
    kappa[nb][k], k in ks, the lanes with kappa(G) >= k; ham[nb] the
    Hamiltonian G.  Lemma 1 and the tally read them with one lookup per
    lane set (_settle_neighbourhood)."""
    m = n - 1
    adj = _range_lanes(m)
    every = (1 << (1 << (m * (m - 1) // 2))) - 1
    chi = _chromatic_table(adj, m, every)
    chi_c = [every] + _first_fit_lanes(_complement_lanes(adj, every), every)[1]
    kappa = _kappa_table(adj, m, ks, every) if ks else []
    ham = _hamiltonian_table(adj, m, every) if ks else []
    return chi, chi_c, kappa, ham


def _chromatic_table(adj, m, every):
    """at_least[Y][s], s = 0 .. m + 1: the lanes in which P + v, v
    adjacent to the vertex set Y of P, has chi >= s, for the order-m
    graphs P of the lanes of every.

    P + v is c-colorable exactly when some c-coloring of P has a class I
    that misses Y: v joins I, and conversely v's class less v is such an
    I.  That is: I is an independent set outside Y, and c - 1 independent
    sets cover V - I.  So the c-colorable lanes of Y are E_c[V - Y], E_c
    the subset-OR transform (_subset_or) of indep[I] & cover_{c-1}[V - I]
    over the 2^m sets I.  cover_t is level t of Lawler's cover recursion
    (_cover_levels) over every vertex set of P, cover_0 the empty set
    alone; chi >= s is the complement of E_{s-1}."""
    full = (1 << m) - 1
    indep = _independent_lanes(adj, every)
    levels = _cover_levels(indep, [(i, x) for i, x in enumerate(indep) if i and x], every)
    at_least = [[every, every] for _ in range(full + 1)]
    cover = [every] + [0] * full
    for c in range(1, m + 1):
        colorable = _subset_or([indep[i] & cover[full ^ i] for i in range(full + 1)])
        for y, row in enumerate(at_least):
            row.append(every ^ colorable[full ^ y])
        if c < m:
            cover = next(levels)
    return at_least


def _kappa_table(adj, m, ks, every):
    """at_least[Y][k], k in ks: the lanes in which P + v, v adjacent to
    the vertex set Y of P, has kappa >= k, for the order-m graphs P of the
    lanes of every, m + 1 > k >= 2.  kappa(P + v) <= deg v = |Y|, so the
    entries with k > |Y| are 0 and are not computed.

    A set T of at most k - 1 vertices separates P + v exactly when
    (a) v is in T and T - v, at most k - 2 vertices, separates P; or
    (b) v is not in T, so some component K of P + v - T misses v, and
    then K is a nonempty set of P outside Y whose outside neighbours
    N(K) lie in T.  Conversely such a K with |N(K)| <= k - 1 is cut off
    from v by N(K).  A set S separates P exactly when S holds N(K) for a
    nonempty K with K | N(K) != V: a component of P - S is such a K, and
    N(K) separates K from the rest.  So (a) fails in the lanes where some
    K has fewer than min(k - 1, m - |K|) outside neighbours, one lane set
    per k, and (b) in B_k[V - Y], B_k the subset-OR transform of the
    lanes where K has at most k - 1.  Both read the K-set counter
    (_k_set_counts) of every nonempty K."""
    full = (1 << m) - 1
    joined = dict.fromkeys(ks, every)
    cut_off = {k: [0] * (full + 1) for k in ks}
    for members, count in _k_set_counts(adj, m, lambda size: ks[-1], every):
        size = members.bit_count()
        for k in ks:
            joined[k] &= count[min(k - 1, m - size)]
            cut_off[k][members] = every ^ count[k]
    for k in ks:
        _subset_or(cut_off[k])
    return [
        {k: joined[k] ^ (joined[k] & cut_off[k][full ^ y]) if k <= y.bit_count() else 0 for k in ks}
        for y in range(full + 1)
    ]


def _hamiltonian_table(adj, m, every):
    """ham[Y]: the lanes in which P + v, v adjacent to the vertex set Y of
    P, is Hamiltonian, for the order-m graphs P of the lanes of every,
    m >= 2.  A Hamiltonian cycle of P + v is v between the two ends of a
    Hamiltonian path of P, both in Y, and every such path closes to one.
    So ham is the subset-OR transform of the lanes with a Hamiltonian path
    from a to b, at {a, b}: the full row of the path fill (_path_ends)
    from each start a, read at its ends b > a."""
    ham = [0] * (1 << m)
    for a in range(m - 1):
        for b, lanes in _path_ends(adj, a, every).items():
            if b > a:
                ham[1 << a | 1 << b] = lanes
    return _subset_or(ham)


def _subset_or(table):
    """table[Y] becomes the OR of table[X] over every X inside Y, in
    place, one pass per vertex (Yates' zeta transform); returns table."""
    bit = 1
    while bit < len(table):
        for y in range(len(table)):
            if y & bit:
                table[y] |= table[y ^ bit]
        bit <<= 1
    return table


def _settle_neighbourhood(report, n, ks, tables, nb):
    """Lemma 1 and the tally of the order-n masks nb << Q | p, Q = (n - 1)
    (n - 2) / 2, from the _sweep_tables: the whole run of nb's 2^Q lanes p,
    its lane sets read as they are.

    Lemma 1 reads the exact chi(G) against a bound on chi of G's
    complement, ub_c = ff(P^c) + [m - |nb| >= ff(P^c)], m = n - 1: G's
    complement is P^c plus v adjacent to the m - |nb| vertices outside nb,
    and v takes a color of P^c's first-fit coloring free of them when they
    are fewer than ff(P^c).  So ub_c >= t is chi_c[t - 1] where m - |nb|
    >= t - 1, else chi_c[t].  No lane is left open (_coloring_open):
    likewise chi(G) <= chi(P) + [|nb| >= chi(P)], and chi(P) <= ff(P),
    while ff(P) + ff(P^c) <= m + 1 by the greedy proof in _coloring_open,
    so chi(G) + ub_c >= n + 2 needs both indicators, |nb| >= chi(P) and
    m - |nb| >= ff(P^c); then chi(P) + ff(P^c) <= m and the sum is at most
    n + 1.  Only a faulty table sends a lane to the exact Nordhaus-Gaddum
    pair, in lane order.  Then _tally, whose replays run in lane order
    too, so a sweep of the neighbourhoods in ascending order settles its
    masks in mask order."""
    chi, chi_c, kappa, ham = tables
    base = nb << ((n - 1) * (n - 2) // 2)
    outside = n - 1 - nb.bit_count()
    bound_c = [chi_c[t - (t <= outside + 1)] for t in range(1, n + 1)]

    def graph(i):
        return from_edge_mask(n, base | i)

    _lemma1_replays(report, _coloring_open(n, chi[nb][1:], bound_c), graph)
    if ks:
        _tally(report, n, ks, kappa[nb], chi[nb], lambda lanes: lanes & ham[nb], graph)


def _range_lanes(n):
    """The lane adjacency of every order-n graph, lane i being edge mask i:
    pair t's lane set is the masks with bit t, graphs.without_bit(t, m)
    shifted by 2^t, m = n(n - 1) / 2."""
    m = n * (n - 1) // 2
    return _lane_adjacency(n, [without_bit(t, m) << (1 << t) for t in range(m)])


# ---------------------------------------------------------------------------
# lane kernels, one bit per graph: the streamed source's stages and the
# parts that the sweep's tables share with them
#
# A batch of graphs is a set of lanes, and a lane set is a Python int whose
# bit i stands for graph i: bit-slicing (Biham, "A fast new DES
# implementation in software", FSE 1997) with words as wide as the batch.
# adj[u][v] is the lane set of the graphs with the edge uv, so one int
# operation steps every graph of the batch at once.  A complement is taken as every ^ x, and
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
    lanes of every.  more[c], c = 0 .. n, is the lanes in which first fit
    uses more than c colors.  First fit uses colors 0, 1, ... without
    gaps, so the bound ub >= t is more[t - 1] and ub == a is
    more[a - 1] ^ more[a]; more[n] is empty.  classes[c] holds (u, lanes)
    for the lanes in which u took color c: v takes color c in the lanes
    where every color below c is taken by an earlier neighbour and c is
    not, adj[v][u] being the lanes with the edge uv."""
    classes: list[list[tuple[int, int]]] = []
    more = [0] * (len(adj) + 1)
    for v, row in enumerate(adj):
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
                break
        if blocked:
            more[len(classes)] = blocked
            classes.append([(v, blocked)])
    return classes, more


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
    """The lanes whose bounds ub and ub_c on chi and chi_c leave
    chi + chi_c <= n + 1 open, more[c] and more_c[c] the lanes in which
    each bound exceeds c.  ub_c comes from first fit on the complement in
    both sources: of the graph in the stream, and of its parent, plus a
    color for v where needed, in the sweep (_settle_neighbourhood); ub is
    first fit's in the stream and the exact chi in the sweep.  That is
    ub + ub_c >= n + 2, which is ub >= a and ub_c >= n + 2 - a for
    a = ub.

    First fit in one vertex order on G and its complement never leaves
    a lane open, by the greedy proof of the Nordhaus-Gaddum bound.  Let
    first fit use a and b colors on the first i vertices.  The next
    vertex raises a + b by at most 1 unless it opens a new color on both
    sides; then it has an earlier neighbour in each of the a classes in
    G and each of the b in the complement, so a + b <= i and the sum
    becomes at most i + 2.  From 1 + 1 on one vertex, ub + ub_c <= n + 1."""
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
    exact Nordhaus-Gaddum pair of graph(i) for each lane i their bounds
    leave open (_lemma1_replays), and the candidate rule on the degree
    lanes and the graph's bound.  Returns the candidate lanes.  First
    fit leaves no graph open (_coloring_open), so only a faulty first-fit
    kernel sends a lane to the exact pair here."""
    _, more = _first_fit_lanes(adj, every)
    _, more_c = _first_fit_lanes(_complement_lanes(adj, every), every)
    _lemma1_replays(report, _coloring_open(n, more, more_c), graph)
    return _may_hit(n, ks[-1], _degree_lanes(adj, ks[-1], every), more) if ks else 0


def _lemma1_replays(report, lanes, graph):
    """The exact Nordhaus-Gaddum pair of graph(i) for each of the given
    lanes, in lane order, whose lemma 1 violations go to report."""
    for i in iter_bits(lanes):
        if nordhaus_gaddum(graph(i))[2] < 0:
            report.lemma1_violations += 1


def _chromatic_lanes(adj, n, s_max, every):
    """at_least[s], s = 0 .. s_max <= n: the lanes of every with chi >= s,
    n >= 1.

    Lawler's cover recursion (Lawler, "A note on the complexity of the
    chromatic number problem", IPL 5(3), 1976) in lanes, on the
    independent-set table (_independent_lanes): chi >= s in the lanes
    where s - 1 independent sets do not cover V.  V is covered at level t
    by an independent I holding vertex 0 and a cover of V - I a level
    below, which has no vertex 0, and so do the sets that cover reads, so
    the levels are kept for sets without vertex 0 alone (_cover_levels)
    and V is computed apart; the last level needs V alone."""
    full = (1 << n) - 1
    indep = _independent_lanes(adj, every)
    with_0, without_0 = [], []
    for i in range(1, full + 1):
        if not indep[i]:
            continue
        if i & 1:
            with_0.append((i, indep[i]))
        else:
            without_0.append((i, indep[i]))
    at_least = [every, every, every ^ indep[full]]
    levels = _cover_levels(indep, without_0, every)
    for _ in range(2, s_max):
        cover = next(levels)
        covered = 0
        for i, at_i in with_0:
            covered |= at_i & cover[full ^ i]
        at_least.append(every ^ covered)
    return at_least[:s_max + 1]


def _independent_lanes(adj, every):
    """indep[S] for every vertex set S: the lanes of every in which S is
    independent.  With a and b the two lowest vertices of S, those in
    which S - a and S - b are and ab is no edge."""
    full = (1 << len(adj)) - 1
    apart = _complement_lanes(adj, every)
    indep = [every] * (full + 1)
    for x in range(3, full + 1):
        low = x & -x
        rest = x ^ low
        if rest:
            b = rest & -rest
            indep[x] = indep[rest] & indep[x ^ b] & apart[low.bit_length() - 1][b.bit_length() - 1]
    return indep


def _cover_levels(indep, sets, every):
    """The levels t = 1, 2, ... of Lawler's cover recursion, each a table
    whose entry X is the lanes in which t independent sets cover X: level
    1 is indep, and level t the OR, over the independent I inside X that
    hold X's lowest vertex, of indep[I] & cover[X - I] a level below, the
    empty set covered at every level.  sets lists (I, indep[I]) for the I
    whose supersets X = I | Y are kept, Y inside free, the vertices above
    I's lowest one and outside I; a level is computed when it is asked
    for."""
    full = len(indep) - 1
    sets = [(i, at_i, full ^ (i | ((i & -i) - 1))) for i, at_i in sets]
    cover = indep
    while True:
        yield cover
        level = [every] + [0] * full
        for i, at_i, free in sets:
            y = free
            while True:
                level[i | y] |= at_i & cover[y]
                if not y:
                    break
                y = (y - 1) & free
        cover = level


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
    outside neighbours (_k_set_counts)."""
    top_k = min(k_cap, n - 1)
    at_least = {k: every for k in range(2, top_k + 1)}
    if not at_least:
        return at_least
    # capped[t] gathers the counts that saturate at t, which decide every
    # level from t on
    capped = [every] * (top_k + 1)
    for _, count in _k_set_counts(adj, (n - 1) // 2, lambda s: min(top_k, n + 1 - 2 * s), every):
        top = len(count) - 1
        for k in range(2, top):
            at_least[k] &= count[k]
        capped[top] &= count[top]
    held = every
    for k in at_least:
        held &= capped[k]
        at_least[k] &= held
    return at_least


def _k_set_counts(adj, size, cap, every):
    """(K, count) for every vertex set K of 1 .. size vertices, in the
    order of _neighbour_rows: count[d] the lanes of every in which at
    least d vertices outside K have a neighbour in K, by _count_lanes
    over the u outside K from rows[u], saturating at cap(|K|)."""
    for members, rows in _neighbour_rows(adj, size):
        outside = [x for u, x in enumerate(rows) if not members >> u & 1]
        yield members, _count_lanes(outside, cap(members.bit_count()), every)


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


def _hamiltonian_lanes(adj, lanes):
    """The Hamiltonian graphs among the given lanes, n >= 3: a cycle
    closes a spanning path from vertex 0 (_path_ends) at one of 0's
    neighbours."""
    closed = 0
    for v, at_v in _path_ends(adj, 0, lanes).items():
        closed |= at_v & adj[v][0]
    return closed


def _path_ends(adj, start, lanes):
    """{v: the lanes in which some path from start spans every vertex and
    ends at v}, among the given lanes: the subset DP of cycles._path_ends,
    filled a row at a time with one lane set per (row, end).  Row r maps
    each end v to the lanes in which some path from start spans exactly
    start and the vertices of r, bit b of r standing for the b-th vertex
    other than start."""
    others = [v for v in range(len(adj)) if v != start]
    table = [{start: lanes}]
    for r in range(1, 1 << len(others)):
        ends = {}
        rest = r
        while rest:
            vb = rest & -rest
            rest ^= vb
            v = others[vb.bit_length() - 1]
            row = adj[v]
            at_v = 0
            for u, at_u in table[r ^ vb].items():
                at_v |= at_u & row[u]
            if at_v:
                ends[v] = at_v
        table.append(ends)
    return table[-1]


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
    """Stage 3 of the streamed source on a batch of candidate lanes: exact
    chi, kappa and Hamiltonicity, then the tally.  adj is the lane
    adjacency of the batch and graph(i) builds the graph of lane i.  The kernels'
    tables and vertex sets double with each order, so above
    _LANE_KERNEL_MAX_ORDER the single-graph solvers fill the same lane
    sets."""
    if n <= _LANE_KERNEL_MAX_ORDER:
        chi_at_least = _chromatic_lanes(adj, n, n - ks[0], every)
        kappa_at_least = _kappa_lanes(adj, n, ks[-1], every)

        def hamiltonian(lanes):
            return _hamiltonian_lanes(adj, lanes)

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
    of lane i for the certify replay of each non-Hamiltonian hit.  The
    replays are gathered per k, a walk of k's hits among the
    non-Hamiltonian lanes (iter_bits) adding k to each lane's ks, and
    then run in lane order, each lane with its ks in ks order, so no lane
    set is read per replay.  The Hamiltonian (lane, k) hits are all hits
    less the replayed ones."""
    hits = {k: kappa_at_least[k] & chi_at_least[n - k] for k in ks}
    every_hit = 0
    hamiltonian_hits = 0
    for k, lanes in hits.items():
        count = lanes.bit_count()
        report.hypothesis_hits[k] += count
        hamiltonian_hits += count
        every_hit |= lanes
    if not every_hit:
        return
    missed = every_hit ^ (every_hit & hamiltonian(every_hit))
    # rare path: replay the non-Hamiltonian hits through the certifier
    replays = {}
    for k, lanes in hits.items():
        for i in iter_bits(lanes & missed):
            replays.setdefault(i, []).append(k)
            hamiltonian_hits -= 1
    for i in sorted(replays):
        _replay(report, graph(i), replays[i])
    report.hamiltonian += hamiltonian_hits


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
# gathered, which bounds the memory of a long stream.  The text stream is
# read _STREAM_BLOCK * (w + 1) characters at a time, a block of w-wide
# lines and their newlines.  Measured on a 2-core Xeon, blocks of
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
    checked as one grid.  A block that fails is decoded line by line, for
    its errors and their line numbers."""
    texts = [text.removeprefix(GRAPH6_HEADER) for raw in chunk if (text := raw.strip())]
    data = _grid_block(n, "\n".join(texts) + "\n") if texts else b""
    if data is None:
        data = "".join(_decoded_lines(report, n, enumerate(chunk, line_no + 1))).encode("ascii")
    return data


def _stream_blocks(report, n, stream):
    """The valid lines of a text stream a block at a time, as rows for
    pair_lanes; the errors of the other lines go to report with their
    line numbers.  The stream is read in chunks (_text_chunks): a grid
    chunk is its own rows, and any other, split on newlines as iterating
    the stream splits it, takes the line path, _line_block.  A header on
    line 1 is cut off the first chunk before its grid check, as
    _line_block would cut it off the line."""
    w = graph6_width(n)
    line_no = 0
    for text in _text_chunks(stream, _STREAM_BLOCK * (w + 1)):
        header = not line_no and text.startswith(GRAPH6_HEADER)
        data = _grid_block(n, text[len(GRAPH6_HEADER):] if header else text)
        if data is not None:
            line_no += len(data) // (w + 1)
            yield data
            continue
        chunk = text.removesuffix("\n").split("\n")
        yield _line_block(report, n, line_no, chunk)
        line_no += len(chunk)


def _verify_stream(n, ks, stream) -> VerificationReport:
    """A block of lines at a time (_stream_blocks): the cheap stages run
    in the lane kernels on the valid lines of a block, built from their
    bytes, and the candidate rows they leave are settled a block at a
    time in line order."""
    report = VerificationReport(hypothesis_hits={k: 0 for k in ks})
    size = graph6_width(n) + 1
    block = bytearray()
    for data in _stream_blocks(report, n, stream):
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
    return b"".join([data[i * size:(i + 1) * size] for i in iter_bits(cand)])


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
    optionally sharded by ranges of the 2^(n - 1) neighbourhoods of
    vertex n - 1, each the whole run of its masks.  With a stream: the
    graph6 lines of a text stream, read a chunk at a time; malformed
    lines are recorded with their line numbers and processing continues.
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
    neighbourhoods = 1 << (n - 1)
    bounds = [neighbourhoods * i // shards for i in range(shards + 1)]
    report = VerificationReport(hypothesis_hits={k: 0 for k in ks})
    tables = _sweep_tables(n, ks)
    p_bits = (n - 1) * (n - 2) // 2
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        shard = VerificationReport(
            total_graphs=(hi - lo) << p_bits, hypothesis_hits={k: 0 for k in ks},
        )
        for nb in range(lo, hi):
            _settle_neighbourhood(shard, n, ks, tables, nb)
        report = report.merge(shard)
    return report
