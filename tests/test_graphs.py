"""Core graph type, families, and combinators."""

import random

import pytest
from hypothesis import given, strategies as st

from hamcert.graphs import (
    MAX_VERTICES,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    enumerate_labeled,
    from_edge_mask,
    is_clique,
    is_connected,
    is_independent_set,
    join,
    mask_of,
    min_degree,
    path_graph,
    petersen_graph,
    star_graph,
    transpose_swaps,
    triangle_pairs,
    with_edges,
    without_bit,
)
from tests.conftest import graphs_st, random_graph
from tests.oracles import oracle_from_edge_mask


def test_with_edges_basic():
    g = with_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_with_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        with_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        with_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        with_edges(MAX_VERTICES + 1, [])


def test_duplicate_edges_collapse():
    g = with_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_triangle_pair_order():
    assert triangle_pairs(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_without_bit_is_the_indices_that_lack_the_bit():
    # the index pattern of the sweep's lanes and the path table's rows
    for m in range(1, 11):
        for t in range(m):
            assert without_bit(t, m) == sum(1 << i for i in range(1 << m) if not i >> t & 1)


def test_edge_mask_round_trip():
    g = with_edges(4, [(0, 1), (1, 2), (0, 3)])
    assert from_edge_mask(4, g.edge_mask()) == g
    # mask bit order: (0,1) is bit 0, (1,2) is bit 2, (0,3) is bit 3
    assert g.edge_mask() == 0b01101
    # the transpose decode against the graph of the mask's set
    # bits, on the empty and full masks and seeded ones at several
    # densities, up to the vertex limit
    rng = random.Random(128)
    for n in [*range(25), 62, MAX_VERTICES]:
        pairs = triangle_pairs(n)
        top = (1 << len(pairs)) - 1
        masks = [0, top, rng.getrandbits(len(pairs))]
        masks += [top & rng.getrandbits(len(pairs)) & rng.getrandbits(len(pairs)) for _ in range(3)]
        masks += [top ^ (top & rng.getrandbits(len(pairs)) & rng.getrandbits(len(pairs)))]
        for mask in masks:
            edges = [pair for t, pair in enumerate(pairs) if mask >> t & 1]
            g = from_edge_mask(n, mask)
            assert g == with_edges(n, edges), (n, mask)
            assert g.edge_mask() == mask


def test_edge_mask_decode_matches_the_per_edge_oracle():
    # the transpose decode against the former per-edge decode: every mask
    # of order <= 5, and seeded masks at n = 0..24 and about each
    # boundary of the field width w, the least power of two >= max(8, n)
    for n in range(6):
        for mask in range(1 << n * (n - 1) // 2):
            assert from_edge_mask(n, mask) == oracle_from_edge_mask(n, mask), (n, mask)
    rng = random.Random(33)
    for n in [*range(25), 31, 32, 33, 63, 64, 65, 127, 128]:
        pairs = n * (n - 1) // 2
        top = (1 << pairs) - 1
        for mask in [0, top, *(rng.getrandbits(pairs) for _ in range(6))]:
            assert from_edge_mask(n, mask) == oracle_from_edge_mask(n, mask), (n, mask)


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128])
def test_transpose_swaps_transpose_a_bit_matrix(w):
    # row r of the matrix in bits r * w .. r * w + w - 1: after the swaps,
    # in any order, bit (r, c) holds what bit (c, r) held
    rng = random.Random(w)
    swaps = transpose_swaps(w)
    assert len(swaps) == w.bit_length() - 1
    x = rng.getrandbits(w * w)
    for order in (swaps, swaps[::-1]):
        y = x
        for shift, swap in order:
            t = ((y >> shift) ^ y) & swap
            y ^= t ^ (t << shift)
        assert all(y >> (r * w + c) & 1 == x >> (c * w + r) & 1 for r in range(w) for c in range(w))


@pytest.mark.parametrize(
    ("n", "mask"),
    [(-1, 0), (MAX_VERTICES + 1, 0), (200, 0), (3, 1 << 10), (3, 1 << 3), (0, 1), (1, 1), (4, -1)],
    ids=["negative order", "one above the limit", "far above the limit", "stray high bit",
         "first bit beyond the pairs", "a bit at order 0", "a bit at order 1", "negative mask"],
)
def test_edge_mask_rejects_what_with_edges_rejects(n, mask):
    # an order that with_edges refuses, or a bit at or above n(n - 1)/2,
    # which names no pair of n vertices; the highest pair itself is fine
    with pytest.raises(ValueError):
        from_edge_mask(n, mask)
    if 0 <= n <= MAX_VERTICES:
        top = 1 << (n * (n - 1) // 2)
        assert from_edge_mask(n, top - 1) == complete_graph(n)
    else:
        with pytest.raises(ValueError):
            with_edges(n, [])


def test_edge_mask_matches_one_test_per_pair():
    # the mask built a column of adj[j] at a time against the definition,
    # one bit per pair in triangle_pairs order, on every labeled graph of
    # order <= 6 and on seeded G(n, 0.5) up to the graph6 limit
    rng = random.Random(62)
    graphs = [g for n in range(7) for g in enumerate_labeled(n)]
    graphs += [random_graph(n, 0.5, rng) for n in (16, 30, 62) for _ in range(20)]
    for g in graphs:
        pairs = enumerate(triangle_pairs(g.n))
        assert g.edge_mask() == sum(1 << t for t, (i, j) in pairs if g.has_edge(i, j))


def test_complete_graph():
    k5 = complete_graph(5)
    assert k5.edge_count() == 10
    assert min_degree(k5) == 4
    assert is_clique(k5, k5.vertex_mask)


def test_edgeless_graph():
    e4 = edgeless_graph(4)
    assert e4.edge_count() == 0
    assert is_independent_set(e4, e4.vertex_mask)


def test_cycle_graph():
    c5 = cycle_graph(5)
    assert c5.edge_count() == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_path_graph():
    p4 = path_graph(4)
    assert p4.edge_count() == 3
    assert p4.degree(0) == 1 and p4.degree(1) == 2


def test_complement_of_cycle5_is_cycle():
    # C5 is self-complementary as an isomorphism class: the complement is
    # again 2-regular and connected, hence a 5-cycle.
    h = complement(cycle_graph(5))
    assert h.edge_count() == 5
    assert all(h.degree(v) == 2 for v in range(5))
    assert is_connected(h)


def test_is_connected_on_vertex_sets():
    # every vertex set of every labeled graph of order <= 5, the empty set
    # included, against the whole-graph search on its induced subgraph
    def induced(g, s):
        keep = [v for v in range(g.n) if s >> v & 1]
        return with_edges(len(keep), [
            (i, j) for j, w in enumerate(keep) for i, u in enumerate(keep[:j]) if g.has_edge(u, w)
        ])

    for n in range(6):
        for g in enumerate_labeled(n):
            for s in range(1 << n):
                assert is_connected(g, s) == is_connected(induced(g, s)), (g.adj, s)


@pytest.mark.parametrize("predicate", [is_clique, is_independent_set, is_connected])
@pytest.mark.parametrize(
    "vertices", [-1, -(1 << 5), 1 << 5, 0b11111 | 1 << 40],
    ids=["minus one", "negative high bits", "the bit at n", "a far bit"],
)
def test_vertex_set_predicates_reject_vertices_the_graph_lacks(predicate, vertices):
    # a negative set, or one with a bit at or above n, names a vertex that
    # g does not have: each predicate raises ValueError, where the clique
    # and independence tests never returned on a negative set (the bit
    # walk of a negative int never ends) and a high bit indexed past adj
    g = path_graph(5)
    with pytest.raises(ValueError):
        predicate(g, vertices)
    assert predicate(g, 0) and predicate(g, 1 << 4)


def test_join_counts():
    g = join(complete_graph(2), edgeless_graph(3))
    assert g.n == 5
    assert g.edge_count() == 7
    # part sizes: 1 inside K2, 0 inside the independent side, 6 across
    assert is_independent_set(g, mask_of([2, 3, 4]))
    assert all(g.has_edge(a, b) for a in (0, 1) for b in (2, 3, 4))


def test_complete_bipartite_and_star():
    g = complete_bipartite(2, 3)
    assert g.edge_count() == 6
    s = star_graph(4)
    assert s.n == 5 and s.edge_count() == 4
    assert s.degree(0) == 4


def test_disjoint_union():
    g = disjoint_union(complete_graph(3), path_graph(2))
    assert g.n == 5
    assert g.edge_count() == 4
    assert not g.has_edge(2, 3)
    assert g.has_edge(3, 4)


def test_petersen_shape():
    p = petersen_graph()
    assert p.n == 10
    assert p.edge_count() == 15
    assert all(p.degree(v) == 3 for v in range(10))
    assert is_connected(p)


def test_min_degree_errors_on_empty():
    with pytest.raises(ValueError):
        min_degree(edgeless_graph(0))


def test_enumerate_labeled_counts():
    assert sum(1 for _ in enumerate_labeled(0)) == 1
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(4)) == 64
    with pytest.raises(ValueError):
        next(enumerate_labeled(8))


def test_enumerate_labeled_order_matches_edge_mask():
    for mask, g in enumerate(enumerate_labeled(3)):
        assert g.edge_mask() == mask


@given(graphs_st(max_n=7))
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs_st(max_n=7))
def test_complement_edge_counts(g):
    total = g.n * (g.n - 1) // 2
    assert g.edge_count() + complement(g).edge_count() == total


@given(graphs_st(max_n=6), graphs_st(max_n=6))
def test_join_edge_count_formula(g, h):
    j = join(g, h)
    assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


@given(graphs_st(max_n=7))
def test_adjacency_symmetric_and_loopless(g):
    for v in range(g.n):
        assert not (g.adj[v] >> v & 1)
        for u in range(g.n):
            assert (g.adj[v] >> u & 1) == (g.adj[u] >> v & 1)
