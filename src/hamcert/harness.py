"""Population-scale verification over all labeled graphs of an order.

Both sources run one cheap-first stage order, each stage only on the
graphs that the cheaper ones before it leave open:

1. first-fit greedy bounds on the graph and its complement; the reverse
   vertex order and then the exact Nordhaus-Gaddum pair only where they
   leave the coloring inequality chi + chi_c <= n + 1 open;
2. the candidate rule (_may_hit) on minimum degree and the forward bound,
   then on the reverse-order bound;
3. exact chi of the candidates, then exact connectivity and Hamiltonicity
   and the certify replay of every non-Hamiltonian hypothesis hit.

Both sources settle stage 3 in the same two lane kernels and one tally
(_kappa_lanes, _hamiltonian_lanes, _tally): a batch of candidates is a
set of lanes, one bit per graph in a Python int, so that each int
operation steps the whole batch.  A hit the Hamiltonicity kernel accepts
is counted without a witness cycle; the tests hold both kernels to the
single-graph solvers, whose cycles are checked, and the exact certifier
settles every other hit.

The internal source enumerates every labeled graph on n <= 7 vertices by
edge bitmask and runs the stages up to exact chi as whole-population
numpy passes.  The exact clique and independence numbers of its
candidates tighten the bound, and exact chi comes from a batched
inclusion-exclusion count where the clique number misses it.  Its
candidates enter the lane kernels in mask order.

The streamed source takes one graph at a time and needs no numpy, whose
import alone costs a stream process about 12 MB resident.  It takes
exact chi from the single-graph solver and applies the candidate rule to
it once more; the candidates left are settled a block at a time, in line
order.  The kernels' path table and cut enumeration double with each
order, so above _LANE_KERNEL_MAX_ORDER the single-graph connectivity and
Hamiltonian-cycle solvers fill the same lane sets for the tally.

Work may be split into shards by edge-mask range; partial reports merge
associatively, so totals are identical for every shard count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from hamcert.graph6 import MAX_GRAPH6_ORDER, Graph6Error, parse_graph6, to_graph6
from hamcert.graphs import (
    MAX_ENUMERATION_ORDER,
    from_edge_mask,
    min_degree,
    triangle_pairs,
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
    elapsed: float = 0.0
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
            elapsed=self.elapsed + other.elapsed,
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
            f"elapsed {self.elapsed:.2f}s",
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


def _subset_edge_masks(n: int):
    """For every vertex subset: the edge mask of all pairs inside it."""
    idx = {pair: i for i, pair in enumerate(triangle_pairs(n))}
    out = []
    for s in range(1 << n):
        verts = [v for v in range(n) if s >> v & 1]
        em = 0
        for a, b in combinations(verts, 2):
            em |= 1 << idx[(a, b)]
        out.append(em)
    return out


def _np():
    import numpy

    return numpy


def _build_rows(np, masks, n):
    # in the column order of triangle_pairs, the pairs (i, j), i < j, are
    # the j bits from j(j-1)/2 on: they give row j below bit j in one cut,
    # and the bits above it of rows i < j
    rows = [
        ((masks >> np.uint32(j * (j - 1) // 2)) & np.uint32((1 << j) - 1)).astype(np.uint8)
        for j in range(n)
    ]
    for j in range(n):
        for i in range(j):
            rows[i] |= ((rows[j] >> np.uint8(i)) & np.uint8(1)) << np.uint8(j)
    return rows


def _greedy_bound(np, rows, order):
    """Colors used by first-fit greedy coloring in the given vertex order,
    for every graph: _first_fit_colors in whole-array passes.

    uint8 is exact up to MAX_MASK_ORDER = 8: a vertex sees at most n - 1
    colored neighbours, so forb < 2^(n-1) and forb + 1 <= 128."""
    color = [None] * len(rows)
    ncol = np.zeros(rows[0].shape, np.uint8)
    for pos, v in enumerate(order):
        forb = np.zeros(rows[0].shape, np.uint8)
        for u in order[:pos]:
            forb |= ((rows[v] >> np.uint8(u)) & np.uint8(1)) << color[u]
        # the lowest color not forbidden
        c = np.bitwise_count((~forb & (forb + np.uint8(1))) - np.uint8(1))
        color[v] = c
        ncol = np.maximum(ncol, c + np.uint8(1))
    return ncol


def _complement_rows(np, rows, n):
    full = (1 << n) - 1
    return [(~rows[v]) & np.uint8(full ^ (1 << v)) for v in range(n)]


def _may_hit(n, k_max, delta, ub):
    """The candidate rule, on Python ints for one graph or on numpy arrays
    for many: a hit for some k <= k_max needs kappa >= k >= 2 and
    chi >= n - k, and kappa <= delta and chi <= ub, so it needs
    delta >= 2 and ub >= n - min(delta, k_max).  delta <= n - 1, so
    n - delta cannot wrap in uint8.

    A first-fit bound also rejects every disconnected graph: each
    component has at least delta + 1 vertices and first fit colors it
    apart from the others, with at most its own size in colors, so
    ub <= n - delta - 1."""
    return (delta >= 2) & (ub >= n - delta) & (ub >= n - k_max)


def _clique_alpha(np, masks, n):
    """Exact clique and independence numbers for every mask.

    Every subset of a clique is a clique, so omega is 1 plus the number
    of sizes >= 2 at which some vertex subset is a clique; alpha counts
    the sizes with an independent set the same way."""
    omega = np.ones(masks.shape, np.uint8)
    alpha = np.ones(masks.shape, np.uint8)
    ems = _subset_edge_masks(n)
    for size in range(2, n + 1):
        clique = np.zeros(masks.shape, bool)
        indep = np.zeros(masks.shape, bool)
        for s in range(1 << n):
            if s.bit_count() != size:
                continue
            em = np.uint32(ems[s])
            inside = masks & em
            clique |= inside == em
            indep |= inside == np.uint32(0)
        omega += clique
        alpha += indep
    return omega, alpha


# The largest order the mask pipeline holds: adjacency rows in uint8,
# edge masks in uint32, exact chromatic numbers in uint64.
MAX_MASK_ORDER = 8

# Graphs per block of the batched exact chromatic number: at n = 8 its
# two (2^n, block) uint64 tables take 8 MB each.
_CHI_BLOCK = 4096


def _chromatic_numbers(np, rows, n, omega, ub):
    """Exact chromatic numbers of a batch of graphs, given as adjacency
    rows, whose chi is known to lie in [omega, ub].

    Inclusion-exclusion (Bjorklund, Husfeldt and Koivisto, "Set
    partitioning via inclusion-exclusion", SIAM J. Comput. 39(2), 2009):
    with i(X) the number of independent sets inside X, the empty set
    included, a graph is t-colorable iff the sum S over all vertex
    subsets X of (-1)^(n-|X|) i(X)^t is positive.  i(X) = i(X - v) + i(X - N[v])
    with v the lowest vertex of X, one row gather per subset for a whole
    block of graphs.  chi is the least t below ub that passes, or ub when
    none does; no t below omega can pass, so t starts at the least omega
    of the block.

    The sum runs in wrapping uint64 arithmetic, which is exact up to
    MAX_MASK_ORDER = 8: S counts the ordered t-tuples of independent sets
    whose union is V, so 0 <= S <= i(V)^t <= (2^n)^(n-1) <= 2^56 < 2^64
    (t <= ub - 1 <= n - 1), and S mod 2^64 is S itself; S != 0 is the
    test.  Larger orders are refused.
    """
    if n > MAX_MASK_ORDER:
        raise ValueError(f"batched chromatic number is exact only up to order {MAX_MASK_ORDER}")
    size = 1 << n
    full = size - 1
    # -1 wraps to 2^64 - 1, which is -1 modulo 2^64
    sign = np.array([(-1) ** (n - x.bit_count()) for x in range(size)], np.int64).astype(np.uint64)
    chi = ub.astype(np.uint8)
    for start in range(0, chi.size, _CHI_BLOCK):
        block = slice(start, start + _CHI_BLOCK)
        cols = np.arange(chi[block].size)
        # per graph: the vertices outside the closed neighbourhood N[v]
        outside = [
            ((~rows[v][block]) & np.uint8(full ^ (1 << v))).astype(np.intp)
            for v in range(n)
        ]
        count = np.empty((size, cols.size), np.uint64)
        count[0] = 1
        for x in range(1, size):
            v = (x & -x).bit_length() - 1
            count[x] = count[x ^ (1 << v)] + count[outside[v] & x, cols]
        lo, hi = int(omega[block].min()), int(ub[block].max())
        power = count**lo
        for t in range(lo, hi):
            if t > lo:
                power *= count
            settled = (sign @ power != 0) & (t < chi[block])
            chi[block][settled] = t
    return chi


def _verify_masks(n, ks, masks, on_extremal) -> VerificationReport:
    """Tally the labeled graphs of order n <= MAX_MASK_ORDER given by a
    uint32 array of their edge masks, in whole-array passes.  The stages
    run in _verify_stream's order, each only on the graphs that the
    cheaper ones before it leave open."""
    np = _np()
    report = VerificationReport(total_graphs=masks.size, hypothesis_hits={k: 0 for k in ks})
    forward, backward = range(n), range(n - 1, -1, -1)
    rows = _build_rows(np, masks, n)
    ub = _greedy_bound(np, rows, forward)

    # first-fit bounds witness chi + chi_c <= n+1 for almost every graph;
    # then a second order, then the exact pair
    ub_c = _greedy_bound(np, _complement_rows(np, rows, n), forward)
    open_idx = np.nonzero(ub + ub_c > n + 1)[0]
    if open_idx.size:
        orows = [r[open_idx] for r in rows]
        ocrows = _complement_rows(np, orows, n)
        ub_o = np.minimum(ub[open_idx], _greedy_bound(np, orows, backward))
        ub_c = np.minimum(ub_c[open_idx], _greedy_bound(np, ocrows, backward))
        for i in open_idx[ub_o + ub_c > n + 1].tolist():
            if nordhaus_gaddum(from_edge_mask(n, int(masks[i])))[2] < 0:
                report.lemma1_violations += 1

    if not ks:
        return report
    k_cap = ks[-1]

    # the candidate rule on the forward bound, then on the backward bound
    # of the graphs left
    mindeg = np.bitwise_count(rows[0])
    for r in rows[1:]:
        np.minimum(mindeg, np.bitwise_count(r), out=mindeg)
    cand_idx = np.nonzero(_may_hit(n, k_cap, mindeg, ub))[0]
    rows = [r[cand_idx] for r in rows]
    ub = np.minimum(ub[cand_idx], _greedy_bound(np, rows, backward))
    keep = _may_hit(n, k_cap, mindeg[cand_idx], ub)
    cand_idx, ub = cand_idx[keep], ub[keep]
    if cand_idx.size == 0:
        return report
    rows = [r[keep] for r in rows]
    cmasks = masks[cand_idx]

    # exact clique and independence numbers of the candidates: n + 1 -
    # alpha bounds chi from above, and chi is free where omega meets the
    # bound, batched inclusion-exclusion otherwise
    omega, alpha = _clique_alpha(np, cmasks, n)
    chi = np.minimum(ub, n + 1 - alpha)
    unsettled = np.nonzero(omega != chi)[0]
    chi[unsettled] = _chromatic_numbers(
        np, [r[unsettled] for r in rows], n, omega[unsettled], chi[unsettled]
    )

    # exact kappa and Hamiltonicity in the lane kernels, one lane per
    # candidate in mask order
    adj = _packed_adjacency(np, rows, n)
    _tally(
        report, n, ks,
        _kappa_lanes(adj, n, k_cap, (1 << cand_idx.size) - 1),
        {n - k: _packed_lanes(np, chi >= n - k) for k in ks},
        lambda lanes: _hamiltonian_lanes(adj, n, lanes),
        lambda i: from_edge_mask(n, int(cmasks[i])),
        on_extremal,
    )
    return report


def _packed_lanes(np, bits) -> int:
    """The lane set of a bool or 0/1 array: bit i from element i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _packed_adjacency(np, rows, n):
    """The lane adjacency of the graphs given by uint8 adjacency rows."""
    return _lane_adjacency(
        n, lambda u, v: _packed_lanes(np, (rows[u] >> np.uint8(v)) & np.uint8(1))
    )


# ---------------------------------------------------------------------------
# exact stages of both sources: lane kernels, one bit per graph
#
# A batch of graphs is a set of lanes, and a lane set is a Python int whose
# bit i stands for graph i: bit-slicing (Biham, "A fast new DES
# implementation in software", FSE 1997) with words as wide as the batch.
# adj[u][v] is the lane set of the graphs with the edge uv, so one int
# operation steps every graph of the batch at once.  The kernels need no
# numpy and serve both sources.


def _lanes(bits) -> int:
    """The lane set whose bit i is the truth of the i-th item."""
    return int("0" + "".join(["1" if b else "0" for b in bits])[::-1], 2)


def _kappa_lanes(adj, n, k_cap, every):
    """at_least[k], for k = 0 .. min(k_cap, n - 1): the lanes of every with
    min(kappa, k_cap) >= k, which is no vertex set of size below k
    separating the graph.

    For each cut size c and each c-set S, reach[u] gathers the lanes in
    which u is reachable in G - S from the lowest vertex outside S:
    reach[u] |= reach[v] & adj[v][u], in place, with a vertex read again
    only once it has grown, until a sweep changes nothing.  A lane with
    some vertex outside S unreached is separated by S.  The empty cut
    makes this exact on disconnected graphs too."""
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
        at_least.append(at_least[-1] & ~separated)
    return at_least


def _hamiltonian_lanes(adj, n, lanes):
    """The Hamiltonian graphs among the given lanes, n >= 3: the path table
    of cycles._path_ends from vertex 0, one lane set per (row, end).  Row r
    maps each end v to the lanes in which some path from 0 spans exactly
    1 | (r << 1) and ends at v; a cycle closes a spanning path."""
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
    """The lanes of a lane set, ascending, in one pass over its bits;
    graphs.iter_bits costs a pass per lane, 3.3 against 0.4 ms for 245
    lanes among 191,595 (the n = 7 replays)."""
    bits = format(lanes, "b")[::-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _lane_adjacency(n, pair_lanes):
    """adj[u][v] = adj[v][u] = pair_lanes(u, v) for u < v; 0 on the diagonal."""
    adj = [[0] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        adj[u][v] = adj[v][u] = pair_lanes(u, v)
    return adj


def _graph_adjacency(n, graphs):
    """The lane adjacency of a list of order-n graphs."""
    return _lane_adjacency(n, lambda u, v: _lanes(g.adj[u] >> v & 1 for g in graphs))


def _tally(report, n, ks, kappa_at_least, chi_at_least, hamiltonian, graph, on_extremal):
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
    # rare path: replay the non-Hamiltonian hits through the exact certifier
    missed = {k: set(_lane_indices(lanes & ~ham)) for k, lanes in hits.items()}
    for i in _lane_indices(every_hit & ~ham):
        _replay(report, graph(i), [k for k in ks if i in missed[k]], on_extremal)


def _replay(report, g, graph_hits, on_extremal) -> None:
    """Tally the exact certificate of g for every k it hits; the exact
    certifier recomputes kappa and chi independently of any vector pass."""
    for k in graph_hits:
        cert = certify(g, k)
        if cert.kind == "hamiltonian":
            report.hamiltonian += 1
        elif cert.kind == "extremal":
            report.extremal += 1
            if on_extremal is not None:
                on_extremal(to_graph6(g), k)
        else:
            report.counterexamples.append((to_graph6(g), k))


# ---------------------------------------------------------------------------
# streamed source


def _first_fit_colors(rows, order) -> int:
    """Colors used by first-fit greedy coloring in the given vertex order:
    the bound _greedy_bound computes, for one graph."""
    classes: list[int] = []
    for v in order:
        row = rows[v]
        for i, cls in enumerate(classes):
            if not row & cls:
                classes[i] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


# The largest order whose stream candidates the lane kernels settle; above
# it the single-graph solvers fill the lanes.  A block costs the kernels a
# fixed 2^(n-1) path-table rows and about 2^n cuts, and the solvers a
# fixed time per candidate.  Measured on the candidates of seeded
# G(n, 0.8) streams, k window (2, n - 1), 2-core Xeon, kernels against
# solvers: 4,096 candidates 18 vs 811 ms at n = 8, 51 vs 3,099 ms at
# n = 10, 162 vs 5,428 ms at n = 12, 350 vs 7,625 ms at n = 13; one
# candidate 1.2 vs 0.3 ms at n = 8 and 40 vs 2 ms at n = 12.  The kernels
# win from about 8 candidates at n = 8 and 50 at n = 12, and lose at most
# their fixed cost on a short block.  Their table doubles with the order:
# a full block adds 5 MB peak at n = 12, 13 MB at 13 and 31 MB at 14.
_LANE_KERNEL_MAX_ORDER = 12

# Candidates per block of the streamed source: the lane kernels settle a
# block at a time, which bounds the memory of a long stream.  On a seeded
# G(12, 0.8) stream with 9,094 candidates (2-core Xeon), blocks of 512,
# 4,096 and all of them took 3.6, 2.6 and 2.4 s and added 2.7, 8.7 and
# 19 MB peak; at n = 8 (5,328 candidates) every size added about 1 MB.
_STREAM_BLOCK = 4096


def _verify_stream(n, ks, lines, on_extremal) -> VerificationReport:
    """One graph at a time, cheap checks first: first-fit bounds settle the
    coloring inequality and the chromatic condition for almost every
    graph, and exact chi is computed only for the graphs that still need
    it.  The candidates left, with their chi, are settled a block at a
    time in line order."""
    report = VerificationReport(hypothesis_hits={k: 0 for k in ks})
    full = (1 << n) - 1
    forward, backward = range(n), range(n - 1, -1, -1)
    block = []
    for line_no, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
        except Graph6Error as err:
            report.errors.append((line_no, str(err)))
            continue
        if g.n != n:
            report.errors.append((line_no, f"expected order {n}, got {g.n}"))
            continue
        report.total_graphs += 1
        rows = g.adj
        crows = [full ^ (1 << v) ^ row for v, row in enumerate(rows)]
        ub = _first_fit_colors(rows, forward)
        ub_c = _first_fit_colors(crows, forward)
        # as in the mask pipeline, greedy bounds witness chi + chi_c <= n+1
        # for almost every graph; then a second order, then the exact pair
        chi = None
        if ub + ub_c > n + 1:
            ub = min(ub, _first_fit_colors(rows, backward))
            ub_c = min(ub_c, _first_fit_colors(crows, backward))
            if ub + ub_c > n + 1:
                chi, _, slack = nordhaus_gaddum(g)
                if slack < 0:
                    report.lemma1_violations += 1
        if not ks:
            continue
        # the candidate rule on the bound of either order, then on chi
        delta = min_degree(g)
        if not (
            _may_hit(n, ks[-1], delta, ub)
            and _may_hit(n, ks[-1], delta, _first_fit_colors(rows, backward))
        ):
            continue
        if chi is None:
            chi = chromatic_number(g)[0]
        if not _may_hit(n, ks[-1], delta, chi):
            continue
        block.append((g, chi))
        if len(block) == _STREAM_BLOCK:
            _settle_block(report, n, ks, block, on_extremal)
            block = []
    if block:
        _settle_block(report, n, ks, block, on_extremal)
    return report


def _settle_block(report, n, ks, block, on_extremal) -> None:
    """Exact kappa and Hamiltonicity of a block of stream candidates,
    (graph, chi) pairs in line order, one lane each, into the tally."""
    chi_at_least = {n - k: _lanes(chi >= n - k for _, chi in block) for k in ks}
    if n <= _LANE_KERNEL_MAX_ORDER:
        adj = _graph_adjacency(n, [g for g, _ in block])
        kappa_at_least = _kappa_lanes(adj, n, ks[-1], (1 << len(block)) - 1)

        def hamiltonian(lanes):
            return _hamiltonian_lanes(adj, n, lanes)

    else:
        # the kernels' table and cuts double with each order, so the
        # single-graph solvers fill the same lane sets; no k below
        # max(k_min, n - chi) can be hit, so kappa is exact only from
        # there on, which is all the tally reads
        kappa = [vertex_connectivity(g, stop_below=max(ks[0], n - chi)) for g, chi in block]
        kappa_at_least = [_lanes(x >= k for x in kappa) for k in range(ks[-1] + 1)]

        def hamiltonian(lanes):
            return _lanes(
                lanes >> i & 1 and find_hamiltonian_cycle(g) is not None
                for i, (g, _) in enumerate(block)
            )

    _tally(
        report, n, ks, kappa_at_least, chi_at_least, hamiltonian,
        lambda i: block[i][0], on_extremal,
    )


# ---------------------------------------------------------------------------
# entry points


def verify_order(
    n: int,
    k_range: tuple[int, int] | None = None,
    source: str = "internal",
    stream=None,
    shards: int = 1,
    on_extremal=None,
) -> VerificationReport:
    """Check the theorem and the coloring inequality over a population.

    source "internal": every labeled graph of order n (n <= 7 enforced),
    vectorized, optionally sharded by edge-mask range.  source "graph6":
    iterate the given lines; malformed lines are recorded with their
    line numbers and processing continues.  on_extremal, when given, is
    called with (graph6, k) for every extremal certificate issued.
    """
    if k_range is None:
        k_range = (2, n - 1)
    k_min, k_max = k_range
    started = time.monotonic()
    if source == "internal":
        if not (1 <= n <= MAX_ENUMERATION_ORDER):
            raise ValueError(
                f"internal enumeration is limited to orders 1..{MAX_ENUMERATION_ORDER}"
            )
        if shards < 1:
            raise ValueError("shards must be positive")
        ks = _clamped_k_range(n, k_min, k_max)
        total = 1 << (n * (n - 1) // 2)
        bounds = [total * i // shards for i in range(shards + 1)]
        report = VerificationReport(hypothesis_hits={k: 0 for k in ks})
        np = _np()
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                continue
            masks = np.arange(lo, hi, dtype=np.uint32)
            report = report.merge(_verify_masks(n, ks, masks, on_extremal))
        report.elapsed = time.monotonic() - started
        return report
    if source == "graph6":
        if not (1 <= n <= MAX_GRAPH6_ORDER):
            raise ValueError(f"stream verification is limited to orders 1..{MAX_GRAPH6_ORDER}")
        if stream is None:
            raise ValueError("graph6 source needs a stream of lines")
        report = _verify_stream(n, _clamped_k_range(n, k_min, k_max), stream, on_extremal)
        report.elapsed = time.monotonic() - started
        return report
    raise ValueError(f"unknown source {source!r}")
