"""Cycle type, exact cycle solvers, and extension rule tests.

The extension-rule witnesses are small graphs built edge by edge so the
expected longer cycle can be read off by hand; the frozen outputs were
double-checked against a brute-force validity pass.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    enumerate_labeled,
    is_independent_set,
    mask_of,
    path_graph,
    petersen_graph,
    with_edges,
)
from hamcert.graph6 import parse_graph6
from hamcert.invariants import PathSystem, menger_fan
from hamcert import cycles
from hamcert.cycles import (
    Cycle,
    canonical_cycle,
    extend_case1_rotation,
    extend_offcycle,
    extend_predecessor_chord,
    find_hamiltonian_cycle,
    is_valid_cycle,
    long_segment_first,
    longest_cycle,
    segments,
    successors_set,
)
from hamcert.theorem import build_extremal
from tests.conftest import build_sharpness, graphs_st, random_graph, relabeled
from tests.oracles import (
    oracle_component_sizes,
    oracle_extend_case1_rotation,
    oracle_extend_predecessor_chord,
    oracle_hamiltonian_cycle,
    oracle_longest_cycle_length,
    oracle_path_ends,
)


# ---------------------------------------------------------------------------
# navigation


def test_cycle_navigation_frozen():
    c = Cycle((0, 1, 2, 3))
    assert c.successor(3) == 0
    assert c.predecessor(3) == 2
    assert c.predecessor(0) == 3
    assert c.arc(1, 3) == (1, 2, 3)
    assert c.arc(3, 1, backward=True) == tuple(reversed(c.arc(1, 3)))
    assert c.arc(2, 2) == (2,)
    assert len(c) == 4 and 2 in c and 9 not in c


def test_cycle_navigation_scrambled_labels():
    c = Cycle((0, 2, 4, 1, 3))
    assert c.successor(4) == 1
    assert c.predecessor(0) == 3
    assert c.arc(2, 1) == (2, 4, 1)
    assert c.rotated(4).vertices == (4, 1, 3, 0, 2)
    assert c.reversed_().vertices == (0, 3, 1, 4, 2)


def test_cycle_rejects_bad_input():
    with pytest.raises(ValueError):
        Cycle((0, 1))
    with pytest.raises(ValueError):
        Cycle((0, 1, 2, 1))
    with pytest.raises(ValueError):
        Cycle((0, 1, 2)).position(7)


@given(st.permutations(list(range(6))), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_backward_arc_is_reversed_forward(perm, i, j):
    c = Cycle(tuple(perm))
    x, y = perm[i], perm[j]
    assert c.arc(y, x, backward=True) == tuple(reversed(c.arc(x, y)))


def test_canonical_cycle_frozen():
    assert canonical_cycle((2, 4, 1, 3, 0)).vertices == (0, 2, 4, 1, 3)
    assert canonical_cycle((1, 0, 2)).vertices == (0, 1, 2)
    # reflection: of (0,3,1,2) and (0,2,1,3) the lex-smaller wins
    assert canonical_cycle((3, 1, 2, 0)).vertices == (0, 2, 1, 3)


@given(st.permutations(list(range(5))), st.integers(0, 4), st.booleans())
@settings(max_examples=80, deadline=None)
def test_canonical_cycle_invariant_under_symmetry(perm, rot, flip):
    c = Cycle(tuple(perm))
    moved = c.rotated(perm[rot])
    if flip:
        moved = moved.reversed_()
    assert canonical_cycle(moved).vertices == canonical_cycle(c).vertices


def test_is_valid_cycle():
    g = cycle_graph(5)
    assert is_valid_cycle(g, (0, 1, 2, 3, 4))
    assert is_valid_cycle(g, Cycle((0, 4, 3, 2, 1)))
    assert not is_valid_cycle(g, (0, 1, 2))  # 2-0 chord absent
    assert not is_valid_cycle(g, (0, 1))
    assert not is_valid_cycle(g, (0, 1, 2, 3, 7))


# ---------------------------------------------------------------------------
# Hamiltonian cycles


def test_hamiltonian_small_orders_rejected():
    with pytest.raises(ValueError):
        find_hamiltonian_cycle(complete_graph(2))


def test_hamiltonian_matches_oracle_exhaustive():
    for n in range(3, 7):
        for g in enumerate_labeled(n):
            got = find_hamiltonian_cycle(g)
            want = oracle_hamiltonian_cycle(g)
            assert (got is None) == (want is None)
            if got is not None:
                assert is_valid_cycle(g, got)
                assert len(got) == n
                assert canonical_cycle(got).vertices == got.vertices


def test_hamiltonian_matches_oracle_random_n7():
    rng = random.Random(77)
    for p in (0.3, 0.5, 0.7):
        for _ in range(25):
            g = random_graph(7, p, rng)
            got = find_hamiltonian_cycle(g)
            want = oracle_hamiltonian_cycle(g)
            assert (got is None) == (want is None)
            if got is not None:
                assert is_valid_cycle(g, got)


def test_hamiltonian_vector_tier():
    # path tables of 2^13 and 2^15 rows, with and without a cycle
    assert find_hamiltonian_cycle(cycle_graph(14)).vertices == tuple(range(14))
    assert find_hamiltonian_cycle(complete_bipartite(7, 9)) is None
    halves = disjoint_union(complete_graph(7), complete_graph(7))
    bridged = with_edges(14, list(halves.edges()) + [(0, 7)])
    assert find_hamiltonian_cycle(bridged) is None


def test_hamiltonian_backtracking_tier():
    assert find_hamiltonian_cycle(cycle_graph(25)).vertices == tuple(range(25))
    got = find_hamiltonian_cycle(complete_graph(30))
    assert got is not None and len(got) == 30
    glued = disjoint_union(complete_graph(13), complete_graph(13))
    cut = with_edges(26, list(glued.edges()) + [(0, v) for v in range(13, 26)])
    assert find_hamiltonian_cycle(cut) is None  # vertex 0 is a cut vertex


def test_backtracker_agrees_with_the_path_table():
    # the backtracker above n = 24 against the path table on every labeled
    # graph of order 3..6 and every class of graph8.g6: both None, or the
    # backtracker's path is a Hamiltonian cycle
    graph8 = Path(__file__).parent / "data" / "graph8.g6"
    small = (g for n in range(3, 7) for g in enumerate_labeled(n))
    classes = map(parse_graph6, graph8.read_text(encoding="ascii").split())
    for g in (*small, *classes):
        seq = cycles._hamiltonian_backtrack(g)
        if find_hamiltonian_cycle(g) is None:
            assert seq is None, g.adj
        else:
            assert seq is not None and len(seq) == g.n and is_valid_cycle(g, seq), g.adj


def _table_finds_cycle(g):
    """Whether the path table from 0 closes a Hamiltonian cycle, read as
    find_hamiltonian_cycle reads it, without the certificate."""
    seq = cycles._least_cycle(g, 0, cycles._path_ends(g, 0), [(1 << (g.n - 1)) - 1], g.n)
    return len(seq) == g.n


def test_scattering_certificate_agrees_with_component_search():
    # every labeled graph of order 3..6 and every class of graph8.g6: the
    # certificate fires exactly when the lone components of G - S, S the
    # neighbourhood of the first vertex of least degree, plus one for any
    # larger component, outnumber S, counted by a plain search; whenever
    # it fires G - S has more than |S| components, and the path table
    # finds no Hamiltonian cycle
    graph8 = Path(__file__).parent / "data" / "graph8.g6"
    small = (g for n in range(3, 7) for g in enumerate_labeled(n))
    classes = map(parse_graph6, graph8.read_text(encoding="ascii").split())
    fired = 0
    for g in (*small, *classes):
        v = min(range(g.n), key=g.degree)
        s = frozenset(u for u in range(g.n) if g.has_edge(v, u))
        sizes = oracle_component_sizes(g, s)
        settles = sizes.count(1) + (max(sizes) > 1) > len(s)
        assert cycles._scattered(g) == settles, g.adj
        if settles:
            assert len(sizes) > len(s) and not _table_finds_cycle(g), g.adj
            fired += 1
    # 22,584 of the 23,557 non-Hamiltonian labeled graphs of order 3..6,
    # and 5,468 of the 6,150 non-Hamiltonian classes of order 8
    assert fired == 22584 + 5468


def test_scattering_certificate_keeps_the_four_cycle():
    # C4 less the two neighbours of 0 is two lone vertices, no more
    # components than neighbours, and no vertex left over
    assert not cycles._scattered(cycle_graph(4))
    assert find_hamiltonian_cycle(cycle_graph(4)).vertices == (0, 1, 2, 3)


def test_scattering_certificate_settles_the_extremal_and_sharpness_families(monkeypatch):
    # build_extremal(k, n), k = 2..7, n <= 20, whose join part leaves k + 1
    # components, and the sharpness family, k = 2..5, n = 2k+2..16, whose
    # join part leaves k + 2, each canonical and relabeled:
    # find_hamiltonian_cycle answers None before it fills a path table
    def no_fill(g, s):
        raise AssertionError("the path table was filled")

    monkeypatch.setattr(cycles, "_path_ends", no_fill)
    rng = random.Random(35)
    cells = [(build_extremal, k, n) for k in range(2, 8) for n in range(2 * k + 1, 21)]
    cells += [(build_sharpness, k, n) for k in range(2, 6) for n in range(2 * k + 2, 17)]
    assert len(cells) == 66 + 32
    for build, k, n in cells:
        g = build(k, n)
        for h in (g, relabeled(g, rng)):
            assert cycles._scattered(h), (build.__name__, k, n)
            assert find_hamiltonian_cycle(h) is None, (build.__name__, k, n)


def test_petersen_not_hamiltonian():
    assert find_hamiltonian_cycle(petersen_graph()) is None


def _oracle_slices(g, s):
    """The row-by-row reference table from s, bit-sliced whole: bit r of
    slices[b] is bit s + 1 + b of row r."""
    table = oracle_path_ends(g, s)
    return [
        int("".join("1" if row >> (s + 1 + b) & 1 else "0" for row in reversed(table)), 2)
        for b in range(g.n - s - 1)
    ]


def _assert_fill_matches_oracle(g, s, slices=None):
    """The blocks of the path table from s, held to the reference slices
    (_oracle_slices(g, s) unless given) cut at the width
    cycles._PATH_BLOCK, bit r of blocks[t][b] to bit t << w | r of
    slices[b]: as many blocks of as many slices, each bit the same, and
    no bit past a block's rows."""
    slices = _oracle_slices(g, s) if slices is None else slices
    w = min(len(slices), cycles._PATH_BLOCK)
    cut = (1 << (1 << w)) - 1
    want = [[slice_ >> (t << w) & cut for slice_ in slices] for t in range(1 << (len(slices) - w))]
    ends = cycles._path_ends(g, s)
    assert ends == want, (g.adj, s, cycles._PATH_BLOCK)
    return ends


def test_path_table_fills_agree():
    # differential: the bit-sliced fill gives the row-by-row table, bit for
    # bit, at every start; from 0 at n = 18 the table is two blocks
    rng = random.Random(13)
    graphs = [random_graph(n, p, rng) for n in range(3, 17) for p in (0.25, 0.45, 0.7)]
    graphs.append(with_edges(12, [(u, v) for u, v in complete_graph(12).edges() if 5 not in (u, v)]))
    for g in graphs:
        for s in range(g.n):
            _assert_fill_matches_oracle(g, s)
    for n in (17, 18):
        _assert_fill_matches_oracle(random_graph(n, 0.3, rng), 0)


@pytest.mark.parametrize("n", [11, 14, 17])
def test_bit_fill_reaches_descending_paths(n):
    # the only Hamiltonian path from 0 runs 0, n-1, n-2, ..., 1: each
    # ascending round of updates extends it by one vertex, so the fill
    # must keep going until a round adds nothing
    path = with_edges(n, [(0, n - 1)] + [(v, v - 1) for v in range(n - 1, 1, -1)])
    ends = _assert_fill_matches_oracle(path, 0)
    full = (1 << min(n - 1, cycles._PATH_BLOCK)) - 1  # the last row of the last block
    assert [slice_ >> full & 1 for slice_ in ends[-1]] == [1] + [0] * (n - 2)
    assert find_hamiltonian_cycle(path) is None
    closed = with_edges(n, list(path.edges()) + [(0, 1)])
    _assert_fill_matches_oracle(closed, 0)
    assert find_hamiltonian_cycle(closed).vertices == tuple(range(n))


def test_bit_fill_start_without_neighbour():
    # a start with no neighbour above it: no path leaves it, so every
    # slice is empty
    isolated = disjoint_union(edgeless_graph(1), complete_graph(11))
    assert _assert_fill_matches_oracle(isolated, 0) == [[0] * 11]
    pendant = with_edges(13, [(0, 1)] + [(u, v) for u, v in complete_graph(13).edges() if u > 1])
    assert _assert_fill_matches_oracle(pendant, 1) == [[0] * 11]


def _graph8_classes():
    graph8 = Path(__file__).parent / "data" / "graph8.g6"
    return list(map(parse_graph6, graph8.read_text(encoding="ascii").split()))


def test_path_table_blocks_at_narrow_widths(monkeypatch):
    # blocks of 2, 4 and 8 rows, so that high vertices read finished
    # blocks from order 3 on: every labeled graph of order 1..5 at every
    # start, and every class of graph8.g6 from vertex 0
    cases = [(g, s) for n in range(1, 6) for g in enumerate_labeled(n) for s in range(n)]
    cases += [(g, 0) for g in _graph8_classes()]
    for g, s in cases:
        slices = _oracle_slices(g, s)
        for width in (1, 2, 3):
            monkeypatch.setattr(cycles, "_PATH_BLOCK", width)
            _assert_fill_matches_oracle(g, s, slices)


def test_narrow_blocks_give_the_same_cycles(monkeypatch):
    # the walk reads the full row from the last of 32 blocks of 4 rows as
    # it does from one block of 128: the same cycle, or None, on every
    # class of graph8.g6
    classes = _graph8_classes()
    wide = [find_hamiltonian_cycle(g) for g in classes]
    monkeypatch.setattr(cycles, "_PATH_BLOCK", 2)
    assert [find_hamiltonian_cycle(g) for g in classes] == wide
    assert sum(c is not None for c in wide) == len(classes) - 6150


def test_path_table_blocks_at_the_real_width():
    # from 0 at n = 18 and 19 the table is 2 and 4 blocks of 2^16 rows
    assert cycles._PATH_BLOCK == 16
    rng = random.Random(1819)
    for n in (18, 18, 19, 19):
        ends = _assert_fill_matches_oracle(random_graph(n, 0.3, rng), 0)
        assert len(ends) == 1 << (n - 17)


def test_longest_cycle_refuses_a_table_of_blocks(monkeypatch):
    # longest_cycle reads one block per start; a table of more blocks
    # raises rather than answer from the first block alone
    monkeypatch.setattr(cycles, "_PATH_BLOCK", 2)
    with pytest.raises(RuntimeError, match="blocks, not one"):
        longest_cycle(complete_graph(5))
    assert longest_cycle(complete_graph(3)).vertices == (0, 1, 2)


def _cycle_text(c):
    return None if c is None else ",".join(map(str, c.vertices))


# frozen before the two fills shared one table: (n, p) -> cycle
HAMILTONIAN_GOLDEN = [
    (14, 0.25, "0,1,7,5,2,9,8,13,3,12,6,4,10,11"),
    (14, 0.4, "0,2,1,3,12,10,5,4,8,6,11,13,9,7"),
    (15, 0.25, None),
    (15, 0.4, "0,2,9,4,5,1,3,8,13,11,6,7,12,10,14"),
    (16, 0.25, None),
    (16, 0.4, "0,5,1,3,2,6,4,9,7,11,12,13,15,8,14,10"),
    (17, 0.25, "0,1,2,5,7,4,10,13,14,6,16,9,15,11,12,3,8"),
    (17, 0.4, "0,1,4,3,2,6,11,9,14,13,16,15,10,12,8,5,7"),
    (18, 0.25, None),
    (18, 0.4, "0,4,1,2,6,3,7,8,5,16,10,12,17,14,15,9,11,13"),
    (19, 0.25, "0,1,3,6,2,4,5,11,14,18,15,8,7,12,10,9,16,17,13"),
    (19, 0.4, "0,2,1,6,4,7,3,9,5,12,8,16,13,17,11,15,18,14,10"),
    (20, 0.25, None),
    (20, 0.4, "0,2,4,3,9,5,1,6,7,10,8,11,12,13,14,16,15,18,17,19"),
]


# frozen at the layered numpy fill, above the orders the bench reaches:
# a G(n, 0.2) with a planted Hamiltonian cycle, a relabeled
# build_extremal(3, n), and at the order cap a G(24, 0.35) whose 13
# vertices of an independent set no 24-cycle can hold
HAMILTONIAN_GOLDEN_LARGE = [
    (21, "planted", "0,1,3,4,5,2,6,12,7,8,14,19,9,15,13,16,11,17,18,10,20"),
    (21, "extremal", None),
    (22, "planted", "0,5,1,2,7,3,4,14,9,6,10,19,15,16,18,20,17,21,13,8,12,11"),
    (22, "extremal", None),
    (24, "independent 13", None),
]


def _planted(n, p, rng):
    order = list(range(n))
    rng.shuffle(order)
    g = random_graph(n, p, rng)
    return with_edges(n, list(g.edges()) + [(order[i - 1], order[i]) for i in range(n)])


def _independent_13(n, rng):
    loose = set(rng.sample(range(n), 13))
    g = random_graph(n, 0.35, rng)
    return with_edges(n, [(u, v) for u, v in g.edges() if not (u in loose and v in loose)])


def test_hamiltonian_golden_outputs():
    rng = random.Random(14)
    for n, p, want in HAMILTONIAN_GOLDEN:
        assert _cycle_text(find_hamiltonian_cycle(random_graph(n, p, rng))) == want, (n, p)
    assert cycles.MAX_HAMILTONIAN_DP_ORDER == 24
    rng = random.Random(21)
    for n, kind, want in HAMILTONIAN_GOLDEN_LARGE:
        if kind == "planted":
            g = _planted(n, 0.2, rng)
        elif kind == "extremal":
            g = relabeled(build_extremal(3, n), rng)
        else:
            g = _independent_13(n, rng)
        assert _cycle_text(find_hamiltonian_cycle(g)) == want, (n, kind)


def _spanning_rows_only(g, s):
    """A wrong path table from s, one block whose only paths span every
    vertex: a walk back from the full row runs into a dead end."""
    m = g.n - 1 - s
    return [[1 << (1 << m) - 1] * m]


@pytest.mark.parametrize(
    "tier, n, wrong",
    [
        ("_path_ends", 5, _spanning_rows_only),
        ("_path_ends", 14, _spanning_rows_only),
        ("_hamiltonian_backtrack", 25, lambda g: [0, 2, 1] + list(range(3, g.n))),
    ],
    ids=["_path_ends-5", "_path_ends-14", "_hamiltonian_backtrack-25"],
)
def test_hamiltonian_output_checked_without_assert(monkeypatch, tier, n, wrong):
    # a tier that returns a non-cycle is caught by an explicit check,
    # which python -O does not strip
    monkeypatch.setattr(cycles, tier, wrong)
    with pytest.raises(RuntimeError, match="not a"):
        find_hamiltonian_cycle(cycle_graph(n))


def test_solver_output_checked_under_python_O():
    script = """
from hamcert import cycles
from hamcert.graphs import cycle_graph
assert not __debug__
cycles._path_ends = lambda g, s: [[1 << (1 << (g.n - 1 - s)) - 1] * (g.n - 1 - s)]
for solver in (cycles.find_hamiltonian_cycle, cycles.longest_cycle):
    try:
        solver(cycle_graph(14))
    except RuntimeError as err:
        print(err)
    else:
        raise SystemExit(f"{solver.__name__} returned unchecked output")
"""
    src = os.path.dirname(os.path.dirname(cycles.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("not a") == 2


# ---------------------------------------------------------------------------
# longest cycles


def test_longest_cycle_matches_oracle_exhaustive():
    for n in range(3, 7):
        for g in enumerate_labeled(n):
            want = oracle_longest_cycle_length(g)
            if want == 0:
                with pytest.raises(ValueError):
                    longest_cycle(g)
                continue
            got = longest_cycle(g)
            assert len(got) == want
            assert is_valid_cycle(g, got)
            assert canonical_cycle(got).vertices == got.vertices


def _lex_least_maximum_cycle(g, target):
    """Brute force: enumerate every cycle of length target and take the
    least canonical form."""
    best = None
    verts = list(range(g.n))

    def walk(path, used):
        nonlocal best
        if len(path) == target:
            if g.has_edge(path[-1], path[0]):
                cand = canonical_cycle(tuple(path)).vertices
                if best is None or cand < best:
                    best = cand
            return
        for v in verts:
            if v > path[0] and not (used >> v & 1) and g.has_edge(path[-1], v):
                walk(path + [v], used | 1 << v)

    for s in verts:
        walk([s], 1 << s)
    return best


def test_longest_cycle_is_lex_least_among_maximum():
    # independent exhaustive check on random graphs and on the extremal
    # layouts, canonical and relabeled, whose many maximum cycles tie
    rng = random.Random(5)
    graphs = [random_graph(6, 0.5, rng) for _ in range(40)]
    graphs += [random_graph(7, p, rng) for p in (0.3, 0.5, 0.7) for _ in range(10)]
    for k in range(2, 5):
        for n in range(2 * k + 1, 10):
            g = build_extremal(k, n)
            graphs += [g, relabeled(g, rng), relabeled(g, rng)]
    checked = 0
    for g in graphs:
        if oracle_longest_cycle_length(g) == 0:
            continue
        got = longest_cycle(g)
        assert got.vertices == _lex_least_maximum_cycle(g, len(got))
        checked += 1
    assert checked > 80


def test_longest_cycle_refuses_acyclic_and_large():
    for g in [path_graph(5), edgeless_graph(4), edgeless_graph(1), edgeless_graph(0)]:
        with pytest.raises(ValueError, match="no cycle"):
            longest_cycle(g)
    with pytest.raises(ValueError, match="limited"):
        longest_cycle(cycle_graph(17))


# frozen before longest_cycle read the numpy fill and stopped early:
# seeded G(n, p), then build_extremal(k, n) canonical and relabeled
LONGEST_GOLDEN_RANDOM = [
    (14, 0.2, "0,2,3,13,12,11,8,10,1,9"),
    (14, 0.35, "0,1,3,5,8,11,2,9,13,10,4,6,12,7"),
    (15, 0.2, "4,6,13,11"),
    (15, 0.35, "0,4,2,14,5,12,1,10,9,11,7,8"),
    (16, 0.2, "0,2,5,7,11,8,1,14,12,15,4,9,10,13"),
    (16, 0.35, "0,4,2,3,1,12,5,6,9,7,13,8,11,14,15,10"),
]
LONGEST_GOLDEN_EXTREMAL = [
    (2, 14, "0,2,1,4,5,6,7,8,9,10,11,12,13", "0,1,5,2,3,4,7,8,9,10,11,12,13"),
    (2, 15, "0,2,1,4,5,6,7,8,9,10,11,12,13,14", "0,1,2,3,12,7,4,5,6,8,9,10,11,13"),
    (2, 16, "0,2,1,4,5,6,7,8,9,10,11,12,13,14,15", "0,1,2,3,4,7,8,9,5,10,11,12,13,14,15"),
    (3, 14, "0,3,1,4,2,6,7,8,9,10,11,12,13", "0,2,3,6,7,8,9,10,12,1,5,4,11"),
    (3, 15, "0,3,1,4,2,6,7,8,9,10,11,12,13,14", "0,5,1,2,4,6,7,8,9,10,12,11,3,14"),
    (3, 16, "0,3,1,4,2,6,7,8,9,10,11,12,13,14,15", "0,1,2,3,4,5,6,9,10,11,14,15,7,8,13"),
    (4, 14, "0,4,1,5,2,6,3,8,9,10,11,12,13", "0,1,6,2,9,5,10,12,3,4,7,8,11"),
    (4, 15, "0,4,1,5,2,6,3,8,9,10,11,12,13,14", "0,2,3,5,1,6,4,9,8,14,7,11,12,13"),
    (4, 16, "0,4,1,5,2,6,3,8,9,10,11,12,13,14,15", "0,2,1,4,7,8,10,11,3,5,6,9,12,13,14"),
    (5, 14, "0,5,1,6,2,7,3,8,4,10,11,12,13", "0,2,3,6,12,1,4,5,8,7,10,9,11"),
    (5, 15, "0,5,1,6,2,7,3,8,4,10,11,12,13,14", "0,1,2,3,5,4,7,8,12,9,14,6,11,13"),
    (5, 16, "0,5,1,6,2,7,3,8,4,10,11,12,13,14,15", "0,2,1,4,3,6,5,8,11,13,14,15,9,7,10"),
]


def test_longest_cycle_golden_outputs():
    rng = random.Random(15)
    for n, p, want in LONGEST_GOLDEN_RANDOM:
        assert _cycle_text(longest_cycle(random_graph(n, p, rng))) == want, (n, p)
    for k, n, canonical, moved in LONGEST_GOLDEN_EXTREMAL:
        g = build_extremal(k, n)
        assert _cycle_text(longest_cycle(g)) == canonical, (k, n)
        assert _cycle_text(longest_cycle(relabeled(g, rng))) == moved, (k, n)


def test_longest_cycle_is_the_hamiltonian_cycle_when_there_is_one():
    # trace_proof reads Hamiltonicity and its witness from longest_cycle
    # alone: on a Hamiltonian graph both solvers return the
    # lexicographically least Hamiltonian cycle from 0
    graph8 = Path(__file__).parent / "data" / "graph8.g6"
    graphs = [parse_graph6(t) for t in graph8.read_text(encoding="ascii").split()]
    rng = random.Random(16)
    graphs += [
        random_graph(n, p, rng) for n in range(3, 17) for p in (0.3, 0.5, 0.7) for _ in range(8)
    ]
    checked = 0
    for g in graphs:
        ham = find_hamiltonian_cycle(g)
        if ham is not None:
            assert longest_cycle(g).vertices == ham.vertices, g.adj
            checked += 1
    assert checked > 5000


def test_longest_cycle_frozen_values():
    assert len(longest_cycle(petersen_graph())) == 9
    ex25 = with_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert longest_cycle(ex25).vertices == (0, 2, 1, 3)
    ex26 = with_edges(
        6, [(0, 1), (4, 5)] + [(a, v) for a in (0, 1) for v in (2, 3, 4, 5)]
    )
    assert len(longest_cycle(ex26)) == 5


# ---------------------------------------------------------------------------
# successor sets and segments


def test_successors_set_frozen():
    c = Cycle((0, 1, 2, 3, 4, 5))
    fan = PathSystem(6, ((6, 0), (6, 2), (6, 4)), (0, 2, 4))
    assert successors_set(c, fan) == mask_of((6, 1, 3, 5))


def test_successors_set_size_property():
    c = Cycle((0, 2, 4, 1, 3))
    fan = PathSystem(5, ((5, 2), (5, 1)), (2, 1))
    s = successors_set(c, fan)
    assert s.bit_count() == len(fan.attachments) + 1


def test_successors_set_off_cycle_attachment_raises():
    c = Cycle((0, 1, 2))
    fan = PathSystem(5, ((5, 0), (5, 4)), (0, 4))
    with pytest.raises(ValueError):
        successors_set(c, fan)


def test_successors_set_independent_on_nonhamiltonian_witness():
    ex25 = with_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    c = longest_cycle(ex25)
    fan = menger_fan(ex25, 4, c, 2)
    assert is_independent_set(ex25, successors_set(c, fan))


def test_segments_frozen_example():
    c = Cycle((0, 1, 2, 3, 4, 5))
    fan = PathSystem(6, ((6, 0), (6, 3)), (0, 3))
    d = segments(c, fan, 2)
    assert d.attachments == (0, 3)
    assert d.successors == (1, 4)
    assert d.segments == ((2, 3), (5, 0))
    assert d.big_segment_indices == frozenset({1, 2})
    assert sum(len(s) for s in d.segments) == len(c) - 2


def test_segments_case0_shape():
    c = Cycle((0, 1, 2, 3))
    fan = PathSystem(4, ((4, 0), (4, 2)), (0, 2))
    d = segments(c, fan, 2)
    assert d.segments == ((2,), (0,))
    assert d.big_segment_indices == frozenset()


def test_segments_errors():
    c = Cycle((0, 1, 2, 3, 4, 5))
    out_of_order = PathSystem(6, ((6, 3), (6, 0)), (3, 0))
    with pytest.raises(ValueError, match="order"):
        segments(c, out_of_order, 2)
    adjacent = PathSystem(6, ((6, 0), (6, 1)), (0, 1))
    with pytest.raises(ValueError):
        segments(c, adjacent, 2)
    fan = PathSystem(6, ((6, 0), (6, 3)), (0, 3))
    with pytest.raises(ValueError):
        segments(c, fan, 3)
    with pytest.raises(ValueError):
        segments(c, fan, 1)


def test_segments_carry_the_cycle_hub_and_paths():
    c = Cycle((0, 1, 2, 3, 4, 5))
    fan = PathSystem(7, ((7, 6, 0), (7, 3), (7, 5)), (0, 3, 5))
    d = segments(c, fan, 2)
    assert (d.cycle, d.hub, d.paths) == (c, 7, ((7, 6, 0), (7, 3)))


def test_long_segment_first_numbers_the_long_segment_first():
    # segment 2 of three is long: attachments, successors, paths and
    # segments all turn by one, and the view is its own view
    c = Cycle(tuple(range(8)))
    fan = PathSystem(8, ((8, 0), (8, 2), (8, 6)), (0, 2, 6))
    d = segments(c, fan, 3)
    assert d.segments == ((2,), (4, 5, 6), (0,)) and d.big_segment_indices == frozenset({2})
    view = long_segment_first(d)
    assert view.attachments == (2, 6, 0) and view.successors == (3, 7, 1)
    assert view.paths == ((8, 2), (8, 6), (8, 0))
    assert view.segments == ((4, 5, 6), (0,), (2,)) and view.big_segment_indices == frozenset({1})
    assert (view.cycle, view.hub) == (c, 8)
    assert long_segment_first(view) == view
    case0 = segments(Cycle((0, 1, 2, 3)), PathSystem(4, ((4, 0), (4, 2)), (0, 2)), 2)
    with pytest.raises(ValueError, match="one long segment"):
        long_segment_first(case0)


@given(graphs_st(5, 7))
@settings(max_examples=100, deadline=None)
def test_segment_sizes_partition_cycle(g):
    try:
        c = longest_cycle(g)
    except ValueError:
        return
    off = [v for v in range(g.n) if v not in c]
    if not off:
        return
    try:
        fan = menger_fan(g, off[0], c, 2)
    except ValueError:
        return
    k = len(fan.attachments)
    try:
        d = segments(c, fan, k)
    except ValueError:
        return
    assert sum(len(s) for s in d.segments) == len(c) - k


# ---------------------------------------------------------------------------
# extension rules


def _offcycle_witness():
    g = with_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2), (5, 6), (6, 2)],
    )
    return g, Cycle((0, 1, 2, 3, 4)), PathSystem(5, ((5, 0), (5, 2)), (0, 2))


def test_extend_offcycle_witness():
    g, c, fan = _offcycle_witness()
    out = extend_offcycle(g, c, fan, 6)
    assert out.vertices == (5, 6, 2, 3, 4, 0)
    assert is_valid_cycle(g, out)
    assert len(out) == len(c) + 1


def test_extend_offcycle_absent_without_hub_edge():
    g, c, fan = _offcycle_witness()
    # z = 6 loses its hub edge: rule cannot start
    stripped = with_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2), (6, 2)]
    )
    assert extend_offcycle(stripped, c, fan, 6) is None


def test_extend_offcycle_raises_on_cycle_vertex():
    g, c, fan = _offcycle_witness()
    with pytest.raises(ValueError):
        extend_offcycle(g, c, fan, 3)
    with pytest.raises(ValueError):
        extend_offcycle(g, c, fan, 5)


def _chord_witness():
    g = with_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (7, 0), (7, 3), (2, 6)],
    )
    return g, Cycle((0, 1, 2, 3, 4, 5, 6)), PathSystem(7, ((7, 0), (7, 3)), (0, 3))


def _decomposed(c, fan):
    """The decomposition along every attachment of fan, as the proof trace
    builds it."""
    return segments(c, fan, len(fan.attachments))


def test_extend_predecessor_chord_witness():
    g, c, fan = _chord_witness()
    out = extend_predecessor_chord(g, _decomposed(c, fan))
    assert out.vertices == (7, 3, 4, 5, 6, 2, 1, 0)
    assert is_valid_cycle(g, out)
    assert len(out) == 8


def test_extend_predecessor_chord_absent_without_chord():
    g = with_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (7, 0), (7, 3)]
    )
    c = Cycle((0, 1, 2, 3, 4, 5, 6))
    fan = PathSystem(7, ((7, 0), (7, 3)), (0, 3))
    assert extend_predecessor_chord(g, _decomposed(c, fan)) is None


def test_extend_predecessor_chord_absent_on_case0_shape():
    ex25 = with_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    c = longest_cycle(ex25)
    fan = menger_fan(ex25, 4, c, 2)
    assert extend_predecessor_chord(ex25, _decomposed(c, fan)) is None


def _rotation_base():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 0), (6, 4)]
    return edges, Cycle((0, 1, 2, 3, 4, 5)), PathSystem(6, ((6, 0), (6, 4)), (0, 4))


def test_extend_case1_rotation_hub_variant():
    edges, c, fan = _rotation_base()
    g = with_edges(7, edges + [(1, 3), (6, 2)])
    out = extend_case1_rotation(g, _decomposed(c, fan), 2)
    assert out.vertices == (6, 2, 1, 3, 4, 5, 0)
    assert is_valid_cycle(g, out) and len(out) == 7


def test_extend_case1_rotation_far_attachment_variant():
    edges, c, fan = _rotation_base()
    g = with_edges(7, edges + [(1, 3), (2, 5)])
    out = extend_case1_rotation(g, _decomposed(c, fan), 2)
    assert out.vertices == (6, 4, 3, 1, 2, 5, 0)
    assert is_valid_cycle(g, out) and len(out) == 7


def test_extend_case1_rotation_absent_without_edges():
    edges, c, fan = _rotation_base()
    g = with_edges(7, edges)
    assert extend_case1_rotation(g, _decomposed(c, fan), 1) is None
    assert extend_case1_rotation(g, _decomposed(c, fan), 2) is None


def test_extend_case1_rotation_rejects_bad_shape():
    edges, c, fan = _rotation_base()
    g = with_edges(7, edges + [(1, 3), (6, 2)])
    with pytest.raises(ValueError, match="y index"):
        extend_case1_rotation(g, _decomposed(c, fan), 3)
    chord_g, chord_c, chord_fan = _chord_witness()
    with pytest.raises(ValueError, match="one long segment"):
        extend_case1_rotation(chord_g, _decomposed(chord_c, chord_fan), 1)


@given(graphs_st(5, 8), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_extension_rules_never_return_invalid(g, rng):
    """Whatever the input, a non-absent rule output is valid and longer,
    and the rules that read the decomposition return what they returned
    when each built its own from (c, fan)."""
    if g.n > 7:
        return
    try:
        c = longest_cycle(g)
    except ValueError:
        return
    off = [v for v in range(g.n) if v not in c]
    if not off:
        return
    hub = rng.choice(off)
    try:
        fan = menger_fan(g, hub, c, 2)
    except ValueError:
        return
    others = [v for v in off if v != hub]
    if others:
        z = rng.choice(others)
        out = extend_offcycle(g, c, fan, z)
        if out is not None:
            assert is_valid_cycle(g, out) and len(out) > len(c)
    try:
        d = _decomposed(c, fan)
    except ValueError:
        assert oracle_extend_predecessor_chord(g, c, fan) is None
        return
    out = extend_predecessor_chord(g, d)
    assert out == oracle_extend_predecessor_chord(g, c, fan)
    if out is not None:
        assert is_valid_cycle(g, out) and len(out) > len(c)
    if len(d.big_segment_indices) == 1:
        big = next(iter(d.big_segment_indices))
        r = len(d.segments[big - 1]) - 1
        for y_index in range(1, r + 1):
            out = extend_case1_rotation(g, d, y_index)
            assert out == oracle_extend_case1_rotation(g, c, fan, y_index)
            if out is not None:
                assert is_valid_cycle(g, out) and len(out) > len(c)
