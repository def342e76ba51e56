"""Verification harness: population tallies, sharding, streamed input."""

import hashlib
import io
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import graph6, harness, theorem
from hamcert.graph6 import Graph6Error, decode_graph6, parse_graph6, to_graph6
from hamcert.graphs import (
    complete_graph,
    complement,
    cycle_graph,
    disjoint_union,
    enumerate_labeled,
    from_edge_mask,
    is_connected,
    iter_bits,
    min_degree,
    path_graph,
    star_graph,
    with_edges,
)
from hamcert.harness import VerificationReport, verify_order
from hamcert.invariants import (
    chromatic_number,
    independence_number,
    max_clique,
    vertex_connectivity,
)
from hamcert.cycles import find_hamiltonian_cycle
from hamcert.theorem import build_extremal, certify

from tests.conftest import (
    byte_edits_st, count_calls, edited, extremal_certificates, random_graph, relabeled, text_stream,
)
from tests.oracles import (
    oracle_chromatic,
    oracle_edge_lanes,
    oracle_first_fit_coloring,
    oracle_first_fit_colors,
    oracle_hamiltonian_cycle,
    oracle_kappa_lanes,
    oracle_mask_clique_alpha,
    oracle_vertex_connectivity,
)


GRAPH8 = Path(__file__).parent / "data" / "graph8.g6"


def graph8_lines():
    return GRAPH8.read_text(encoding="ascii").split()


def report_fingerprint(rep):
    return (
        rep.total_graphs,
        rep.hypothesis_hits,
        rep.hamiltonian,
        rep.extremal,
        rep.counterexamples,
        rep.lemma1_violations,
    )


class TestInternalSweep:
    def test_order_three_frozen(self):
        rep = verify_order(3, (2, 2))
        assert rep.total_graphs == 8
        assert rep.hypothesis_hits == {2: 1}  # the triangle
        assert rep.hamiltonian == 1
        assert rep.extremal == 0
        assert rep.counterexamples == []
        assert rep.lemma1_violations == 0
        assert rep.consistent()

    def test_order_four_frozen(self):
        rep = verify_order(4)
        assert rep.total_graphs == 64
        assert rep.hypothesis_hits == {2: 10, 3: 1}
        assert rep.hamiltonian == 11
        assert rep.extremal == 0
        assert rep.consistent()

    def test_order_five_frozen(self):
        rep = verify_order(5)
        assert rep.total_graphs == 1024
        assert rep.hypothesis_hits == {2: 228, 3: 26, 4: 1}
        assert rep.hamiltonian == 245
        assert rep.extremal == 10
        assert rep.counterexamples == []
        assert rep.lemma1_violations == 0
        assert rep.consistent()

    def test_order_six_frozen(self):
        rep = verify_order(6)
        assert rep.total_graphs == 32768
        assert rep.hypothesis_hits == {2: 3168, 3: 1758, 4: 76, 5: 1}
        assert rep.hamiltonian == 4913
        assert rep.extremal == 90
        assert rep.counterexamples == []
        assert rep.lemma1_violations == 0
        assert rep.consistent()

    def test_order_four_against_oracles(self):
        # independent recount of every tally the sweep produces
        hits = {2: 0, 3: 0}
        ham = 0
        for em in range(64):
            g = from_edge_mask(4, em)
            chi = oracle_chromatic(g)
            kappa = oracle_vertex_connectivity(g)
            graph_hits = [k for k in hits if kappa >= k and chi >= 4 - k]
            for k in graph_hits:
                hits[k] += 1
            if graph_hits and oracle_hamiltonian_cycle(g) is not None:
                ham += len(graph_hits)
        rep = verify_order(4)
        assert rep.hypothesis_hits == hits
        assert rep.hamiltonian == ham

    def test_trivial_orders(self):
        for n in (1, 2):
            rep = verify_order(n)
            assert rep.total_graphs == 1 << (n * (n - 1) // 2)
            assert rep.hypothesis_hits == {}
            assert rep.consistent()

    def test_k_range_clamped(self):
        rep = verify_order(5, (0, 99))
        assert sorted(rep.hypothesis_hits) == [2, 3, 4]
        narrow = verify_order(5, (4, 4))
        assert narrow.hypothesis_hits == {4: 1}

    def test_rejects_large_internal_order(self):
        with pytest.raises(ValueError, match="1..7"):
            verify_order(8)

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError, match="shards"):
            verify_order(4, shards=0)
        with pytest.raises(ValueError, match="shards"):
            verify_order(4, stream=text_stream([]), shards=0)


class TestSharding:
    def test_totals_independent_of_shard_count(self):
        # a shard is a range of the 2^(n - 1) neighbourhoods; 64 shards at
        # n = 7 hold one each, and 97 leave some empty
        for n, counts in ((5, (2, 3, 5, 11)), (6, (2, 3, 5, 11)), (7, (64, 97))):
            base = report_fingerprint(verify_order(n))
            for shards in counts:
                assert report_fingerprint(verify_order(n, shards=shards)) == base

    def test_merge_is_associative(self):
        a = VerificationReport(
            total_graphs=3, hypothesis_hits={2: 1}, hamiltonian=1,
            counterexamples=[("Dhc", 2)],
        )
        b = VerificationReport(
            total_graphs=4, hypothesis_hits={2: 2, 3: 1}, extremal=1,
            lemma1_violations=1, errors=[(9, "bad")],
        )
        c = VerificationReport(total_graphs=1, hypothesis_hits={3: 4}, hamiltonian=2)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert report_fingerprint(left) == report_fingerprint(right)
        assert left.errors == right.errors
        assert left.hypothesis_hits == {2: 3, 3: 5}

    def test_merge_keeps_identity(self):
        rep = verify_order(4)
        merged = VerificationReport(hypothesis_hits={2: 0, 3: 0}).merge(rep)
        assert report_fingerprint(merged) == report_fingerprint(rep)


class TestSweepBlocks:
    """The internal sweep reads every order-n graph, parent P plus vertex
    n - 1 adjacent to nb, from tables built once on the order-(n - 1)
    parents, and settles the masks of each nb, a whole run of 2^Q masks,
    in mask order.  A shard is a range of neighbourhoods, so neither the
    runs nor the shards change anything, and the tables hold to the
    stream's lane kernels and to the single-graph solvers."""

    @staticmethod
    def sweep(n, shards):
        with extremal_certificates() as calls:
            rep = verify_order(n, shards=shards)
        return rep, calls

    @pytest.mark.parametrize("shards", [1, 3, 5, 7, "nb", 97])
    @pytest.mark.parametrize("n", [5, 6])
    def test_blocks_match_the_default(self, monkeypatch, n, shards):
        # one shard against the mask pipeline, which runs _cheap_stages on
        # the lanes of every mask at once, and more shards against one:
        # each shard a range of whole neighbourhoods, "nb" one per shard,
        # and 97 shards more than the 2^(n - 1) neighbourhoods, so some
        # are empty; every nb is settled once, in ascending order, and
        # split_certify makes the replay order show in the counterexamples
        split_certify(monkeypatch)
        if shards == "nb":
            shards = 1 << (n - 1)
        whole, whole_calls = self.sweep(n, 1)
        if shards == 1:
            with extremal_certificates() as calls:
                rep = mask_pipeline(n, (2, n - 1), [to_graph6(g) for g in enumerate_labeled(n)])
        else:
            settle = harness._settle_neighbourhood
            settled = []

            def listed(report, n, ks, tables, nb):
                settled.append(nb)
                return settle(report, n, ks, tables, nb)

            monkeypatch.setattr(harness, "_settle_neighbourhood", listed)
            rep, calls = self.sweep(n, shards)
            assert settled == list(range(1 << (n - 1)))
        assert report_fingerprint(rep) == report_fingerprint(whole)
        assert calls == whole_calls
        assert whole.extremal > 0 and whole.counterexamples

    @staticmethod
    def complement_bound(g):
        # the sweep's bound on chi of g's complement, from g's parent P on
        # vertices 0 .. m - 1: ff(P^c) + [m - deg(m) >= ff(P^c)], ff the
        # colors of first fit in vertex order
        m = g.n - 1
        parent = from_edge_mask(m, g.edge_mask() & ((1 << (m * (m - 1) // 2)) - 1))
        x = oracle_first_fit_colors(complement(parent))
        return x + (m - g.degree(m) >= x)

    @staticmethod
    def coloring_bounds(monkeypatch, n):
        # the (more, more_c) that the sweep hands _coloring_open for each
        # nb, in ascending order, one shard, with what it returns
        exact_open = harness._coloring_open
        seen = []

        def recorded(n, more, more_c):
            seen.append((more, more_c, exact_open(n, more, more_c)))
            return seen[-1][2]

        monkeypatch.setattr(harness, "_coloring_open", recorded)
        verify_order(n)
        assert len(seen) == 1 << (n - 1)
        return seen

    @pytest.mark.parametrize("n", range(1, 8))
    def test_neighbourhood_tables_match_the_lane_kernels(self, n):
        # the tables of every nb against the stream's kernels on the lanes
        # of _range_lanes(n) that nb's masks hold, lane p for mask
        # nb << Q | p: chi at every s, kappa at every k and Hamiltonicity
        chi, _, kappa, ham = harness._sweep_tables(n, range(2, n))
        width = 1 << ((n - 1) * (n - 2) // 2)
        every = (1 << width) - 1
        whole = harness._range_lanes(n)
        for nb in range(1 << (n - 1)):
            adj = [[x >> (nb * width) & every for x in row] for row in whole]
            assert chi[nb] == harness._chromatic_lanes(adj, n, n, every), nb
            if n >= 3:
                assert kappa[nb] == harness._kappa_lanes(adj, n, n - 1, every), nb
                assert ham[nb] == harness._hamiltonian_lanes(adj, every), nb

    @pytest.mark.parametrize("m", range(1, 7))
    def test_parent_complement_lanes_bound_chi_of_the_complements(self, m):
        # chi_c is first fit on the complements of the parents' lanes, and
        # at each s it holds the lanes with chi >= s of the chromatic
        # kernel on them, first fit never using fewer colors than chi; m =
        # 1, 2 give the widths 1 and 2
        _, chi_c, _, _ = harness._sweep_tables(m + 1, range(2, m + 1))
        every = (1 << (1 << (m * (m - 1) // 2))) - 1
        complements = harness._complement_lanes(harness._range_lanes(m), every)
        assert chi_c == [every] + harness._first_fit_lanes(complements, every)[1]
        assert len(chi_c) == m + 2 and chi_c[-1] == 0
        chi = harness._chromatic_lanes(complements, m, m, every)
        assert all(x & lanes == x for x, lanes in zip(chi, chi_c))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complement_bound_covers_chi_of_the_complement(self, monkeypatch, n):
        # every labeled graph of the order, lane p of its nb: the bound's
        # lane sets give ub_c of its scalar definition, at least chi of
        # the complement, and the lane sets of chi its exact chi
        seen = self.coloring_bounds(monkeypatch, n)
        q = (n - 1) * (n - 2) // 2
        for g in enumerate_labeled(n):
            nb, p = g.edge_mask() >> q, g.edge_mask() & ((1 << q) - 1)
            more, more_c, _ = seen[nb]
            ub_c = sum(lanes >> p & 1 for lanes in more_c)
            assert ub_c == self.complement_bound(g) >= chromatic_number(complement(g))[0]
            assert sum(lanes >> p & 1 for lanes in more) == chromatic_number(g)[0]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complement_bound_leaves_lemma1_open_on_no_lane(self, monkeypatch, n):
        # exact chi and ub_c never sum above n + 1, and some lane reaches it
        seen = self.coloring_bounds(monkeypatch, n)
        assert all(not suspects for _, _, suspects in seen)
        assert any(
            more[a - 1] & more_c[n - a] for more, more_c, _ in seen for a in range(1, n + 1)
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_neighbourhood_tables_match_the_solvers(self, n):
        # every labeled graph of the order, mask nb << Q | p, read at lane
        # p of nb's entries, against chromatic_number, vertex_connectivity
        # and find_hamiltonian_cycle
        chi, _, kappa, ham = harness._sweep_tables(n, range(2, n))
        q = (n - 1) * (n - 2) // 2
        for g in enumerate_labeled(n):
            nb, p = g.edge_mask() >> q, g.edge_mask() & ((1 << q) - 1)
            x = chromatic_number(g)[0]
            assert [lanes >> p & 1 for lanes in chi[nb]] == [x >= s for s in range(n + 1)]
            if n >= 3:
                x = vertex_connectivity(g)
                assert {k: lanes >> p & 1 for k, lanes in kappa[nb].items()} == {
                    k: x >= k for k in range(2, n)
                }
                assert ham[nb] >> p & 1 == (find_hamiltonian_cycle(g) is not None)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lemma1_lanes_replay_in_mask_order(self, monkeypatch, n):
        # the exact chi and the bound ub_c leave lemma 1 open on no lane,
        # so the open set is widened to the lanes with chi and ub_c >= 2,
        # less those with both >= 3, to make the exact pair run: on just
        # those masks, in mask order, in one shard and in three, with its
        # flags counted
        exact_open = harness._coloring_open

        def wide_open(n, more, more_c):
            # more[c] is the lanes with chi > c, c = 0 .. n - 1
            if n < 3:
                return exact_open(n, more, more_c)
            return exact_open(n, more, more_c) | (more[1] & more_c[1] ^ more[2] & more_c[2])

        pairs = []

        def pair(g):
            pairs.append(g.edge_mask())
            return 0, 0, -1 if g.edge_count() % 3 == 0 else 0

        monkeypatch.setattr(harness, "_coloring_open", wide_open)
        monkeypatch.setattr(harness, "nordhaus_gaddum", pair)
        expected = [
            g.edge_mask() for g in enumerate_labeled(n)
            if min(chromatic_number(g)[0], self.complement_bound(g)) == 2
        ]
        assert bool(expected) == (n >= 3)
        for shards in (1, 3):
            pairs.clear()
            rep = verify_order(n, shards=shards)
            assert pairs == expected
            assert rep.lemma1_violations == sum(mask.bit_count() % 3 == 0 for mask in expected)

    @staticmethod
    def sweep_replays(monkeypatch, n):
        """(graph6, ks) of each certify replay of verify_order(n), in the
        order the sweep runs them."""
        replays = []
        replay = harness._replay

        def recorded(report, g, ks):
            replays.append((to_graph6(g), list(ks)))
            replay(report, g, ks)

        monkeypatch.setattr(harness, "_replay", recorded)
        verify_order(n)
        return replays

    def test_order_seven_replays_in_mask_order(self, monkeypatch):
        # the 245 replays, each mask once with its ks ascending, pinned by
        # the digest of the list as "graph6 k,k,...\n" lines
        replays = self.sweep_replays(monkeypatch, 7)
        assert len(replays) == 245
        masks = [decode_graph6(g6)[1] for g6, _ in replays]
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert all(ks == sorted(set(ks)) and ks for _, ks in replays)
        text = "".join(f"{g6} {','.join(map(str, ks))}\n" for g6, ks in replays)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "9d46a7ecf4bfa8e6e179f9d46f6c9acf58e6565a25c7a10892fc3b020bc09c66"
        )

    def test_order_five_replays_match_the_solvers(self, monkeypatch):
        # every labeled graph in mask order, judged by the single-graph
        # solvers: each non-Hamiltonian graph with the ks it hits
        n = 5
        expected = []
        for mask in range(1 << n * (n - 1) // 2):
            g = from_edge_mask(n, mask)
            kappa, chi = vertex_connectivity(g), chromatic_number(g)[0]
            ks = [k for k in range(2, n) if kappa >= k and chi >= n - k]
            if ks and find_hamiltonian_cycle(g) is None:
                expected.append((to_graph6(g), ks))
        assert len(expected) == 10
        assert self.sweep_replays(monkeypatch, n) == expected

    def test_order_seven_builds_its_tables_once(self, monkeypatch):
        # one build of the tables, on lane sets no wider than the 2^15
        # parent lanes, first fit once on the parents' complements, then
        # one settle of each of the 64 neighbourhoods; none of the
        # stream's per-candidate stages runs, and no exact Nordhaus-Gaddum
        # pair
        widths = {"_count_lanes": [], "_subset_or": [], "_path_ends": []}

        def widest(args):
            # the ints among the arguments and in their lists
            ints = [a for a in args if isinstance(a, int)]
            return max(ints + [x for a in args if isinstance(a, list) for x in a if isinstance(x, int)])

        for name, seen in widths.items():
            exact = getattr(harness, name)

            def measured(*args, _exact=exact, _seen=seen):
                _seen.append(widest(args).bit_length())
                return _exact(*args)

            monkeypatch.setattr(harness, name, measured)
        calls = count_calls(monkeypatch, harness, [
            "_sweep_tables", "_chromatic_table", "_first_fit_lanes", "_settle_neighbourhood",
            "_cheap_stages", "_exact_stages", "_chromatic_lanes", "_kappa_lanes",
            "_hamiltonian_lanes", "nordhaus_gaddum",
        ])
        rep = verify_order(7)
        assert rep.hypothesis_hits == {2: 26804, 3: 153801, 4: 14956, 5: 232, 6: 1}
        assert calls == {
            "_sweep_tables": 1, "_chromatic_table": 1, "_first_fit_lanes": 1,
            "_settle_neighbourhood": 64, "_cheap_stages": 0, "_exact_stages": 0, "_chromatic_lanes": 0, "_kappa_lanes": 0,
            "_hamiltonian_lanes": 0, "nordhaus_gaddum": 0,
        }
        # one counter per nonempty parent vertex set; the chi table at
        # c = 1 .. 6, the kappa tables at k = 2 .. 6 and the path pairs,
        # each transformed once; a fill from each start but the last
        assert {name: len(seen) for name, seen in widths.items()} == {
            "_count_lanes": 63, "_subset_or": 6 + 5 + 1, "_path_ends": 5,
        }
        assert max(max(seen) for seen in widths.values()) == 1 << 15


class TestStreamedSource:
    @staticmethod
    def assert_stream_matches_internal(n):
        lines = [to_graph6(g) for g in enumerate_labeled(n)]
        streamed = verify_order(n, stream=text_stream(lines))
        internal = verify_order(n)
        assert streamed.total_graphs == internal.total_graphs
        assert streamed.hypothesis_hits == internal.hypothesis_hits
        assert streamed.hamiltonian == internal.hamiltonian
        assert streamed.extremal == internal.extremal
        assert streamed.lemma1_violations == internal.lemma1_violations
        assert streamed.counterexamples == internal.counterexamples

    def test_exact_stages_see_only_what_the_cheap_ones_leave(self, monkeypatch):
        # first-fit bounds settle the coloring inequality for every graph
        # of a stream of all 32,768 labeled graphs at n = 6; exact chi runs
        # on the 5,498 candidates
        sizes = {
            "_chromatic_lanes": lambda adj, n, s_max, every: every.bit_count(),
            "nordhaus_gaddum": lambda g: 1,
        }
        seen = dict.fromkeys(sizes, 0)
        for name, size in sizes.items():
            exact = getattr(harness, name)

            def counted(*args, _exact=exact, _name=name, _size=size):
                seen[_name] += _size(*args)
                return _exact(*args)

            monkeypatch.setattr(harness, name, counted)
        rep = verify_order(6, stream=text_stream([to_graph6(g) for g in enumerate_labeled(6)]))
        assert rep.hypothesis_hits == {2: 3168, 3: 1758, 4: 76, 5: 1}
        assert seen == {"_chromatic_lanes": 5498, "nordhaus_gaddum": 0}

    def test_stream_matches_internal_on_order_five(self):
        self.assert_stream_matches_internal(5)

    def test_stream_matches_internal_on_order_six(self):
        self.assert_stream_matches_internal(6)

    def test_malformed_lines_reported_and_skipped(self):
        lines = ["Dhc", "", "not graph6 \x01", "Dhc", "C~", "Dhc"]
        rep = verify_order(5, stream=text_stream(lines))
        assert rep.total_graphs == 3
        assert [line_no for line_no, _ in rep.errors] == [3, 5]
        assert "order" in rep.errors[1][1]

    def test_blank_lines_are_not_errors(self):
        rep = verify_order(5, stream=text_stream(["", "   ", "\n"]))
        assert rep.total_graphs == 0
        assert rep.errors == []

    def test_stream_counts_extremal(self):
        g6 = to_graph6(build_extremal(2, 5))
        rep = verify_order(5, stream=text_stream([g6]))
        assert rep.hypothesis_hits == {2: 1, 3: 0, 4: 0}
        assert rep.extremal == 1
        assert rep.hamiltonian == 0

    def test_order_nine_stream(self):
        lines = [to_graph6(build_extremal(2, 9)), to_graph6(complete_graph(9)), "Dhc"]
        rep = verify_order(9, (2, 2), stream=text_stream(lines))
        assert rep.total_graphs == 2
        assert rep.hypothesis_hits == {2: 2}
        assert (rep.hamiltonian, rep.extremal) == (1, 1)
        assert [line_no for line_no, _ in rep.errors] == [3]

    def test_order_eight_calls_exact_solvers_only_where_needed(self, monkeypatch):
        # cheap first: the lane kernels settle the coloring inequality for
        # every class on edge masks, and the 1,043 that pass the candidate
        # rule on their bounds get exact chi, kappa and Hamiltonicity in
        # the lane kernels too.  A graph is built only for the two certify
        # replays, whose single-graph solvers run through theorem; no line
        # is parsed to a graph, and the harness no longer imports
        # parse_graph6, so its count is taken on the name the harness would
        # bind
        calls = {
            "nordhaus_gaddum": 0,
            "chromatic_number": 0,
            "vertex_connectivity": 0,
            "find_hamiltonian_cycle": 0,
            "from_edge_mask": 0,
            "parse_graph6": 0,
        }
        for name in calls:
            exact = getattr(harness, name, None) or getattr(graph6, name)

            def counted(*args, _exact=exact, _name=name, **kwargs):
                calls[_name] += 1
                return _exact(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted, raising=False)
        rep = verify_order(8, (2, 7), stream=text_stream(graph8_lines()))
        assert rep.hits_total == 843
        assert calls == {
            "nordhaus_gaddum": 0,
            "chromatic_number": 0,
            "vertex_connectivity": 0,
            "find_hamiltonian_cycle": 0,
            "from_edge_mask": 2,
            "parse_graph6": 0,
        }


@pytest.mark.parametrize("population, replays", [
    (lambda: verify_order(6), 90),
    (lambda: verify_order(8, (2, 7), stream=text_stream(graph8_lines())), 2),
], ids=["order-6", "graph8"])
def test_certify_replays_call_no_exponential_solver(monkeypatch, population, replays):
    # every non-Hamiltonian hit of these populations is extremal for its
    # k, so each certify replay is settled by recognition alone
    calls = count_calls(monkeypatch, theorem, [
        "chromatic_number", "vertex_connectivity", "find_hamiltonian_cycle", "recognize_extremal",
    ])
    rep = population()
    assert rep.extremal == replays and not rep.counterexamples
    assert calls == {"chromatic_number": 0, "vertex_connectivity": 0,
                     "find_hamiltonian_cycle": 0, "recognize_extremal": replays}


def mask_pipeline(n, k_range, lines, cuts=()):
    """The order-n lines of a stream as edge masks in one block, or in a
    block from each cut (an index into the valid masks) to the next: the
    cheap stages on each block's lanes, and the
    exact stages once, on the candidates of every block in block order,
    each on lanes from the reference builder."""
    masks = []
    for text in lines:
        try:
            order, mask = decode_graph6(text)
        except Graph6Error:
            continue
        if order == n:
            masks.append(mask)
    ks = harness._clamped_k_range(n, *k_range)
    report = VerificationReport(hypothesis_hits={k: 0 for k in ks})
    found = []
    for part in np.split(np.array(masks, np.uint32), cuts):
        report.total_graphs += part.size
        cand = harness._cheap_stages(
            report, n, ks, oracle_edge_lanes(n, part.tolist()), (1 << part.size) - 1,
            lambda i: from_edge_mask(n, int(part[i])),
        )
        found += [int(part[i]) for i in iter_bits(cand)]
    if found:
        harness._exact_stages(
            report, n, ks, oracle_edge_lanes(n, found), (1 << len(found)) - 1,
            lambda i: from_edge_mask(n, found[i]),
        )
    return report


def run_both_paths(n, k_range, lines, cuts=()):
    """The lines as a text stream, and the mask pipeline on the same
    graphs, each with its extremal certificates."""
    with extremal_certificates() as streamed_calls:
        streamed = verify_order(n, k_range, stream=text_stream(lines))
    with extremal_certificates() as vector_calls:
        vector = mask_pipeline(n, k_range, lines, cuts)
    return streamed, vector, (streamed_calls, vector_calls)


def split_certify(monkeypatch):
    """Report the extremal certificates of graphs with vertices 0 and 1
    adjacent as counterexamples, so that both tallies and their order
    are tested."""
    exact = harness.certify

    def certify(g, k):
        cert = exact(g, k)
        if cert.kind == "extremal" and g.has_edge(0, 1):
            return SimpleNamespace(kind="counterexample")
        return cert

    monkeypatch.setattr(harness, "certify", certify)


class TestStreamAgainstMaskPipeline:
    """The stream against the internal sweep's mask pipeline on the same
    graphs, field by field.  Both run the same lane kernels and exact
    stages, so this holds to each other what differs: the stream's graph6
    lane builder and the reference builder, and the blocks of the stream,
    against one block; the kernels are held
    to the single-graph solvers and oracles in TestBatchedKernels and
    TestLaneKernels."""

    @pytest.mark.parametrize("n, k_range", [(5, (2, 4)), (5, (3, 3)), (5, (4, 2)), (6, (2, 5))])
    def test_all_labeled_graphs(self, monkeypatch, n, k_range):
        split_certify(monkeypatch)
        lines = [to_graph6(g) for g in enumerate_labeled(n)]
        streamed, vector, calls = run_both_paths(n, k_range, lines)
        assert report_fingerprint(streamed) == report_fingerprint(vector)
        assert calls[0] == calls[1]
        if n == 6:
            assert streamed.extremal > 0 and streamed.counterexamples

    def test_relabeled_order_eight_with_bad_lines(self, monkeypatch):
        split_certify(monkeypatch)
        rng = random.Random(5)
        lines = [to_graph6(relabeled(parse_graph6(t), rng)) for t in graph8_lines()]
        rng.shuffle(lines)
        lines[0] = ">>graph6<<" + lines[0]
        bad = ["not graph6 \x01", "C~", "G?", "Dhc", "G" + "~" * 6]
        for text in (bad + ["", "   ", "\n"]) * 4:
            lines.insert(rng.randrange(len(lines) + 1), text)
        # the lines that the text stream of them holds: "\n" is two
        lines = "\n".join(lines).split("\n")
        streamed, vector, calls = run_both_paths(8, (2, 7), lines)
        assert report_fingerprint(streamed) == report_fingerprint(vector)
        assert calls[0] == calls[1]
        assert streamed.total_graphs == 12346
        assert streamed.extremal + len(streamed.counterexamples) == 2
        assert [line_no for line_no, _ in streamed.errors] == [
            i + 1 for i, text in enumerate(lines) if text in bad
        ]

    @pytest.mark.parametrize("source", ["6", "graph8"])
    def test_mask_pipeline_in_uneven_blocks(self, monkeypatch, source):
        # the internal sweep gathers the candidates of its blocks in mask
        # order for one pass of the exact stages; three uneven blocks
        # must give the stream's tallies, replays and replay order
        split_certify(monkeypatch)
        if source == "6":
            lines = [to_graph6(g) for g in enumerate_labeled(6)]
        else:
            rng = random.Random(9)
            lines = [to_graph6(relabeled(parse_graph6(t), rng)) for t in graph8_lines()]
            rng.shuffle(lines)
        n = 6 if source == "6" else 8
        cuts = (7, 2 * len(lines) // 3)
        streamed, vector, calls = run_both_paths(n, (2, n - 1), lines, cuts)
        assert report_fingerprint(streamed) == report_fingerprint(vector)
        assert calls[0] == calls[1]
        assert streamed.extremal + len(streamed.counterexamples) == (90 if n == 6 else 2)

    def test_loose_bounds_send_every_graph_to_the_exact_pair(self, monkeypatch):
        # with a first fit that gives each vertex a color of its own,
        # every bound is n, so every graph is a Nordhaus-Gaddum suspect and
        # needs its exact pair; a stand-in exact pair flags some graphs,
        # which both paths must count.  In one block of masks and in blocks
        # of 7, lane i of each block must stand for that block's i-th graph
        # in the mask pipeline
        exact = harness.nordhaus_gaddum
        pairs = []

        def flagged(g):
            pairs.append(g)
            chi, chi_c, slack = exact(g)
            return chi, chi_c, -1 if g.edge_count() % 5 == 0 else slack

        def loose(adj, every):
            n = len(adj)
            return [[(v, every)] for v in range(n)], [every] * n + [0]

        monkeypatch.setattr(harness, "_first_fit_lanes", loose)
        monkeypatch.setattr(harness, "nordhaus_gaddum", flagged)
        order_5 = [to_graph6(g) for g in enumerate_labeled(5)]
        for block in (None, 7):
            for n, lines in ((5, order_5), (8, graph8_lines()[::12])):
                pairs.clear()
                cuts = range(block, len(lines), block) if block else ()
                streamed, vector, _ = run_both_paths(n, (2, n - 1), lines, cuts)
                assert report_fingerprint(streamed) == report_fingerprint(vector)
                assert [to_graph6(g) for g in pairs] == lines * 2
                assert streamed.lemma1_violations > 0


def seeded_masks(n, count, seed=7):
    bits = n * (n - 1) // 2
    return np.random.default_rng(seed).integers(0, 1 << bits, size=count, dtype=np.uint32)


def assert_chromatic_lanes(n, masks, s_maxes, adj=None):
    """_chromatic_lanes on the order-n graphs with the given edge masks,
    one lane each, against chromatic_number at every s of each s_max;
    returns the lane sets of the largest s_max."""
    chi = [chromatic_number(from_edge_mask(n, int(m)))[0] for m in masks]
    if adj is None:
        adj = oracle_edge_lanes(n, [int(m) for m in masks])
    for s_max in s_maxes:
        at_least = harness._chromatic_lanes(adj, n, s_max, (1 << len(masks)) - 1)
        assert len(at_least) == s_max + 1
        for s, lanes in enumerate(at_least):
            assert lane_list(lanes, len(masks)) == [x >= s for x in chi], (s_max, s)
    return at_least


class TestBatchedKernels:
    """The lane kernels of both sources' exact chi and cheap stages
    against the single-graph solvers and references.  The chi kernel is
    run at every s_max its callers pass, n - k_min, and from 0 to n, so a
    k window such as (3, 4) has s_max < n."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_chromatic_numbers_on_every_unsettled_graph(self, n):
        # every labeled graph, where the kernel has no bound to start from
        masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
        assert_chromatic_lanes(n, masks, range(n + 1), oracle_edge_lanes(n, masks.tolist()))

    def test_chromatic_numbers_on_seeded_order_seven(self):
        # any batch width: blocks of 300, with a partial last block, give
        # the lanes of the whole batch
        masks = seeded_masks(7, 22_000)
        whole = assert_chromatic_lanes(7, masks, (4, 5, 7), oracle_edge_lanes(7, masks.tolist()))
        parts = [0] * 8
        for start in range(0, masks.size, 300):
            block = masks[start:start + 300]
            at_least = harness._chromatic_lanes(oracle_edge_lanes(7, block.tolist()), 7, 7, (1 << block.size) - 1)
            parts = [p | lanes << start for p, lanes in zip(parts, at_least)]
        assert parts == whole

    def test_chromatic_numbers_with_trivial_bounds(self):
        # every s from 0 to n, at every s_max, on every labeled graph of
        # orders 1 to 4
        for n in range(1, 5):
            masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
            assert_chromatic_lanes(n, masks, range(n + 1))

    @pytest.mark.parametrize("complement", [False, True], ids=["graphs", "complements"])
    def test_chromatic_numbers_on_order_eight(self, complement):
        # every graph8.g6 class, or its complement, in both lane builders
        masks = self.graph8_masks(complement)
        whole = assert_chromatic_lanes(8, masks, (5, 6, 8), oracle_edge_lanes(8, masks.tolist()))
        assert whole == assert_chromatic_lanes(8, masks, (8,))

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_chromatic_numbers_exact_above_order_eight(self, n):
        # seeded dense G(n, p) up to _LANE_KERNEL_MAX_ORDER, in a block of
        # 1,024 and, for every 16th graph, in a block of its own
        rng = random.Random(n)
        masks = [random_graph(n, rng.uniform(0.6, 0.95), rng).edge_mask() for _ in range(1024)]
        whole = assert_chromatic_lanes(n, masks, (n - 3, n - 2, n))
        for i in range(0, len(masks), 16):
            alone = harness._chromatic_lanes(oracle_edge_lanes(n, [masks[i]]), n, n, 1)
            assert alone == [lanes >> i & 1 for lanes in whole]
        assert harness._LANE_KERNEL_MAX_ORDER == 12

    @staticmethod
    def graph8_masks(complement):
        masks = np.array([decode_graph6(t)[1] for t in graph8_lines()], np.uint32)
        return masks ^ np.uint32((1 << 28) - 1) if complement else masks

    @staticmethod
    def labeled_or_graph8(source):
        """Every labeled graph of order source, or the graph8.g6 classes."""
        if source.startswith("graph8"):
            return 8, TestBatchedKernels.graph8_masks(source.endswith("complements"))
        n = int(source)
        return n, np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)

    @pytest.mark.parametrize("source", ["1", "2", "3", "4", "5", "graph8", "graph8-complements"])
    def test_greedy_bound_matches_first_fit(self, source):
        # the lane first-fit kernel against the per-graph reference: ub >=
        # t is more[t - 1] and ub == a is more[a - 1] ^ more[a], and the
        # members of class c are the lanes in which each vertex took c, as
        # each first-fit step reads them; the complements
        # of the graph8.g6 classes hold K8, which needs all eight colors
        n, masks = self.labeled_or_graph8(source)
        adj = oracle_edge_lanes(n, masks.tolist())
        graphs = [from_edge_mask(n, int(m)) for m in masks]
        every = (1 << masks.size) - 1
        classes, more = harness._first_fit_lanes(adj, every)
        ub = [oracle_first_fit_colors(g) for g in graphs]
        assert len(more) == n + 1 and more[0] == every and more[n] == 0
        for a in range(1, n + 1):
            assert lane_list(more[a - 1], masks.size) == [x >= a for x in ub]
            assert lane_list(more[a - 1] ^ more[a], masks.size) == [x == a for x in ub]
        coloring = [oracle_first_fit_coloring(g) for g in graphs]
        assert len(classes) == max(ub)
        for c, members in enumerate(classes):
            assert [u for u, _ in members] == sorted({u for u, _ in members})
            took = dict(members)
            for u in range(n):
                assert lane_list(took.get(u, 0), masks.size) == [col[u] == c for col in coloring]
        if source == "graph8-complements":
            assert n in ub

    @pytest.mark.parametrize("source", ["6", "graph8"])
    def test_candidate_rule_rejects_disconnected_graphs(self, source):
        # so neither source needs a connectivity stage of its own; the
        # lanes from the reference and the stream's builder
        n, masks = self.labeled_or_graph8(source)
        graphs = [from_edge_mask(n, int(m)) for m in masks]
        split = [i for i, g in enumerate(graphs) if not is_connected(g) and min_degree(g) >= 2]
        assert split
        every = (1 << masks.size) - 1
        for adj in (oracle_edge_lanes(n, masks.tolist()), graph6_lanes(graphs)):
            degree = harness._degree_lanes(adj, n - 1, every)
            hit = harness._may_hit(n, n - 1, degree, harness._first_fit_lanes(adj, every)[1])
            assert not any(hit >> i & 1 for i in split)

    @pytest.mark.parametrize("source", ["3", "4", "5", "graph8", "graph8-complements"])
    def test_hamiltonian_matches_solver(self, source):
        # the lane kernel alone decides Hamiltonicity of the hits of both
        # sources, so it is held to the checked solver on every input
        n, masks = self.labeled_or_graph8(source)
        adj = oracle_edge_lanes(n, masks.tolist())
        ham = harness._hamiltonian_lanes(adj, (1 << masks.size) - 1)
        expected = [find_hamiltonian_cycle(from_edge_mask(n, int(m))) is not None for m in masks]
        assert lane_list(ham, masks.size) == expected
        # only the given lanes are decided
        some = int("10" * masks.size, 2) & ((1 << masks.size) - 1)
        assert harness._hamiltonian_lanes(adj, some) == ham & some

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
    def test_clique_alpha_matches_solvers(self, n):
        # the population sweep that acceptance criterion 5 takes alpha from
        if n == 7:
            masks = seeded_masks(7, 3000)
        else:
            masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
        omega, alpha = oracle_mask_clique_alpha(masks, n)
        graphs = [from_edge_mask(n, int(m)) for m in masks]
        assert omega.tolist() == [max_clique(g).bit_count() for g in graphs]
        assert alpha.tolist() == [independence_number(g)[0] for g in graphs]


def assert_kappa_lanes(n, adj, kappa):
    """_kappa_lanes on the lane adjacency of graphs of the given
    connectivities, one lane each, at every cap from 0 to n, against
    oracle_kappa_lanes and the connectivities at the levels k >= 2 it
    returns; the kernel clamps the cap at n - 1."""
    every = (1 << len(kappa)) - 1
    for cap in range(n + 1):
        at_least = harness._kappa_lanes(adj, n, cap, every)
        assert at_least == oracle_levels(adj, n, cap, every), cap
        assert list(at_least) == list(range(2, min(cap, n - 1) + 1))
        for k, lanes in at_least.items():
            assert lane_list(lanes, len(kappa)) == [min(x, cap) >= k for x in kappa], (cap, k)


def oracle_levels(adj, n, cap, every):
    """The levels k >= 2 of oracle_kappa_lanes, as _kappa_lanes returns
    them."""
    return {k: lanes for k, lanes in enumerate(oracle_kappa_lanes(adj, n, cap, every)) if k >= 2}


def lane_list(lanes, count):
    """The truth of each of the first count lanes of a lane set."""
    return [bit == "1" for bit in format(lanes, f"0{count}b")[::-1]][:count]


class TestLaneKernels:
    """The lane kernels that both sources share, one bit per graph, against
    the single-graph solvers."""

    @pytest.mark.parametrize("source", ["3", "4", "5", "graph8", "graph8-complements"])
    def test_kappa_matches_solver_at_every_cap(self, source):
        n, masks = TestBatchedKernels.labeled_or_graph8(source)
        kappa = [vertex_connectivity(from_edge_mask(n, int(m))) for m in masks]
        # disconnected, cut-vertex and complete graphs among the inputs
        assert {0, 1, n - 1} <= set(kappa)
        assert_kappa_lanes(n, oracle_edge_lanes(n, masks.tolist()), kappa)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kappa_matches_cut_set_oracle_on_every_labeled_graph(self, n):
        # all 2^21 labeled graphs at n = 7, in the sweep's own lanes
        every = (1 << (1 << (n * (n - 1) // 2))) - 1
        adj = harness._range_lanes(n)
        for cap in range(n + 1):
            at_least = harness._kappa_lanes(adj, n, cap, every)
            assert at_least == oracle_levels(adj, n, cap, every), cap

    @pytest.mark.parametrize("n", range(1, 8))
    def test_first_fit_leaves_lemma1_open_on_no_graph(self, n):
        # first fit in one vertex order on G and its complement uses at
        # most n + 1 colors in all, so no labeled graph is left to the exact
        # Nordhaus-Gaddum pair, while some graph reaches n + 1
        every = (1 << (1 << (n * (n - 1) // 2))) - 1
        adj = harness._range_lanes(n)
        _, more = harness._first_fit_lanes(adj, every)
        _, more_c = harness._first_fit_lanes(harness._complement_lanes(adj, every), every)
        assert harness._coloring_open(n, more, more_c) == 0
        assert any(more[a - 1] & more_c[n - a] for a in range(1, n + 1))

    @pytest.mark.parametrize("n", [6, 8, 9, 10, 11, 12])
    def test_kappa_on_separator_shapes_and_seeded_blocks(self, n):
        # two components of n // 2 and n - n // 2 vertices, at even n the
        # one shape whose components are too large for a set K of at most
        # (n - 1) / 2 vertices, so that K is a component less one vertex,
        # with that vertex its one outside neighbour; K_1 + K_{n-1}, a
        # path, a star and K_n, each also relabeled; and a seeded G(n, p)
        # block, sparse to dense
        shapes = [
            disjoint_union(complete_graph(n // 2), complete_graph(n - n // 2)),
            disjoint_union(complete_graph(1), complete_graph(n - 1)),
            path_graph(n),
            star_graph(n - 1),
            complete_graph(n),
        ]
        rng = random.Random(n)
        graphs = shapes + [relabeled(g, rng) for g in shapes]
        graphs += [
            random_graph(n, p, rng) for p in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95) for _ in range(20)
        ]
        kappa = [vertex_connectivity(g) for g in graphs]
        assert kappa[:5] == [0, 0, 1, 1, n - 1]
        assert_kappa_lanes(n, oracle_edge_lanes(n, [g.edge_mask() for g in graphs]), kappa)

    @pytest.mark.parametrize("n", [5, 8])
    def test_kappa_sweeps_reach_descending_paths(self, n):
        # the path 0, n-1, ..., 1, and a fan of 0 over the path 1, n-1,
        # ..., 2, which leaves that path in G - 0: graphs whose separators
        # are not in vertex order, at kappa 1 and 2
        path = [0] + list(range(n - 1, 0, -1))
        down = with_edges(n, list(zip(path, path[1:])))
        fan = with_edges(n, [(0, v) for v in path[1:]] + list(zip([1] + path[1:-1], path[1:-1])))
        graphs = [down, fan, relabeled(fan, random.Random(n)), complete_graph(n)]
        assert [vertex_connectivity(g) for g in graphs] == [1, 2, 2, n - 1]
        adj = oracle_edge_lanes(n, [g.edge_mask() for g in graphs])
        for cap in range(2, n):
            at_least = harness._kappa_lanes(adj, n, cap, 0b1111)
            assert {k: lane_list(lanes, 4) for k, lanes in at_least.items()} == {
                k: [min(vertex_connectivity(g), cap) >= k for g in graphs]
                for k in range(2, cap + 1)
            }

    def test_both_sources_build_the_same_lanes(self):
        # the reference builder, the graph6 builder of the stream and, on
        # every labeled graph of an order, the index patterns of the sweep
        # against the edges of each graph; graph8.g6 has 12,346 classes,
        # not a whole number of 8-byte words of lanes, and orders 1 and 2
        # have no pair or one
        for source in ("1", "2", "3", "5", "graph8"):
            n, masks = TestBatchedKernels.labeled_or_graph8(source)
            graphs = [from_edge_mask(n, int(m)) for m in masks]
            adj = oracle_edge_lanes(n, masks.tolist())
            assert adj == graph6_lanes(graphs)
            if source != "graph8":
                assert adj == harness._range_lanes(n)
            assert len(adj) == n and all(len(row) == n for row in adj)
            for u in range(n):
                for v in range(n):
                    assert lane_list(adj[u][v], masks.size) == [g.has_edge(u, v) for g in graphs]
            assert oracle_edge_lanes(n, masks[-1:].tolist()) == graph6_lanes(graphs[-1:])
        assert harness._lanes([]) == 0
        assert harness._lanes([True, False, True, False]) == 0b101

    @pytest.mark.parametrize("source", ["1", "2", "3", "4", "5", "graph8", "graph8-complements"])
    def test_degree_and_open_coloring_lanes_match_scalars(self, source):
        # min degree >= d at every cap, and the lanes whose first-fit bounds
        # on G and its complement leave chi + chi_c <= n + 1 open, against
        # min_degree and first-fit counts of each graph
        n, masks = TestBatchedKernels.labeled_or_graph8(source)
        graphs = [from_edge_mask(n, int(m)) for m in masks]
        every = (1 << masks.size) - 1
        adj = oracle_edge_lanes(n, masks.tolist())
        comp = harness._complement_lanes(adj, every)
        assert comp == oracle_edge_lanes(n, (masks ^ np.uint32((1 << (n * (n - 1) // 2)) - 1)).tolist())
        delta = [min_degree(g) for g in graphs]
        for cap in range(n):
            at_least = harness._degree_lanes(adj, cap, every)
            assert len(at_least) == cap + 1
            for d, lanes in enumerate(at_least):
                assert lane_list(lanes, masks.size) == [x >= d for x in delta], (cap, d)
        ub = [oracle_first_fit_colors(g) for g in graphs]
        ub_c = [oracle_first_fit_colors(complement(g)) for g in graphs]
        suspects = harness._coloring_open(
            n, harness._first_fit_lanes(adj, every)[1], harness._first_fit_lanes(comp, every)[1],
        )
        assert lane_list(suspects, masks.size) == [a + b > n + 1 for a, b in zip(ub, ub_c)]
        # first fit leaves the inequality open on none of these graphs, so
        # the rule is also run on every pair of bounds, one lane each
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
        more, more_c = ([harness._lanes(p[side] > c for p in pairs) for c in range(n + 1)]
                        for side in (0, 1))
        assert lane_list(harness._coloring_open(n, more, more_c), len(pairs)) == [
            a + b > n + 1 for a, b in pairs
        ]

    def test_tally_replays_each_lane_with_every_k_it_hits(self, monkeypatch):
        # no graph of the populations hits two k without a Hamiltonian
        # cycle, so five lanes stand in: lanes 0 and 1 are Hamiltonian,
        # and lanes 2, 3 and 4 replay, in lane order, with the k they hit
        replays = []
        monkeypatch.setattr(harness, "_replay", lambda report, g, ks: replays.append((g, ks)))
        report = VerificationReport(hypothesis_hits={2: 0, 3: 0, 4: 0})
        kappa = {2: 0b11111, 3: 0b10110, 4: 0b00100}
        chi = {5: 0b01111, 4: 0b11110, 3: 0b10101}
        harness._tally(report, 7, [2, 3, 4], kappa, chi, lambda lanes: lanes & 0b00011, int)
        assert replays == [(2, [2, 3, 4]), (3, [2]), (4, [3])]
        assert report.hypothesis_hits == {2: 4, 3: 3, 4: 1}
        assert report.hamiltonian == 3

    def test_lane_indices(self):
        # graphs.iter_bits is the one set-bit walk, over lane sets as wide
        # as 225,800 lanes
        assert iter_bits(0) == []
        assert iter_bits(1) == [0]
        assert iter_bits(0b1011001) == [0, 3, 4, 6]
        assert iter_bits(1 << 5000 | 2) == [1, 5000]
        assert iter_bits(1 << 225_799) == [225_799]
        dense = harness._lanes(i % 7 != 3 for i in range(225_800))
        assert iter_bits(dense) == [i for i in range(225_800) if i % 7 != 3]

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 4096, 32_768, 1 << 16])
    def test_lane_indices_match_iter_bits(self, width):
        # seeded lane sets of each width: empty, bit 0, the top bit, about
        # five lanes, about half and full, against a test of each bit
        rng = random.Random(width)
        top = 1 << width - 1
        cases = [
            0, 1, top,
            sum(1 << i for i in rng.sample(range(width), min(5, width))),
            rng.getrandbits(width) | top,
            (1 << width) - 1,
        ]
        for lanes in cases:
            assert iter_bits(lanes) == [i for i in range(width) if lanes >> i & 1]


def graph6_lanes(graphs):
    """The lanes of graphs of one order, built from their graph6 lines as
    the stream builds them: each line and a newline, as a text stream's
    grid chunk holds them."""
    n = graphs[0].n
    data = "".join(to_graph6(g) + "\n" for g in graphs).encode("ascii")
    assert graph6.valid_block(n, data)
    return harness._lane_adjacency(n, graph6.pair_lanes(n, data))


class TestLaneBuilders:
    """The lane builders of both sources against references: the stream's
    graph6 builder against the string-slicing oracle, and the sweep's
    index patterns against the reference builder over every mask."""

    @pytest.mark.parametrize(
        "source", ["1", "2", "3", "4", "5", "6", "graph8", "graph8-complements"]
    )
    def test_graph6_lanes_match_reference(self, source):
        n, masks = TestBatchedKernels.labeled_or_graph8(source)
        graphs = [from_edge_mask(n, int(m)) for m in masks]
        assert graph6_lanes(graphs) == oracle_edge_lanes(n, masks.tolist())
        assert graph6_lanes(graphs[-1:]) == oracle_edge_lanes(n, masks[-1:].tolist())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_range_lanes_match_the_mask_builder(self, n):
        # every mask of the order, lane i being mask i
        masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
        assert harness._range_lanes(n) == oracle_edge_lanes(n, masks.tolist())


class TestStreamBlocks:
    """The stream settles its candidates a block at a time; the block
    boundaries change nothing."""

    @staticmethod
    def stream(n, lines, block, monkeypatch):
        monkeypatch.setattr(harness, "_STREAM_BLOCK", block)
        with extremal_certificates() as calls:
            rep = verify_order(n, (2, n - 1), stream=text_stream(lines))
        return rep, calls

    @pytest.mark.parametrize("form", ["file", "crlf-lines", "header-on-line-one"])
    def test_every_path_yields_the_file_rows(self, form):
        # a block is rows of each line's w bytes and a newline, whichever
        # path read it: graph8.g6 as a file takes the grid path, its lines
        # with CRLF endings in a text stream that keeps them the line
        # path, and with a header on line 1 a text stream's first chunk,
        # the header cut off, the grid path; each joins back to the file's
        # bytes
        raw = GRAPH8.read_bytes()
        report = VerificationReport()
        if form == "file":
            with GRAPH8.open(encoding="ascii") as handle:
                blocks = list(harness._stream_blocks(report, 8, handle))
        elif form == "crlf-lines":
            stream = text_stream(raw.decode("ascii").split("\n")[:-1], "\r\n")
            blocks = list(harness._stream_blocks(report, 8, stream))
        else:
            text = ">>graph6<<" + raw.decode("ascii")
            blocks = list(harness._stream_blocks(report, 8, io.StringIO(text)))
        assert report.errors == []
        assert len(blocks) == 4 and b"".join(blocks) == raw

    @pytest.mark.parametrize("block", [1, 5])
    @pytest.mark.parametrize("source", ["6", "graph8"])
    def test_blocks_match_one_block_and_mask_pipeline(self, monkeypatch, block, source):
        split_certify(monkeypatch)
        if source == "6":
            n, lines = 6, [to_graph6(g) for g in enumerate_labeled(6)]
        else:
            rng = random.Random(8)
            n = 8
            lines = [to_graph6(relabeled(parse_graph6(t), rng)) for t in graph8_lines()]
            rng.shuffle(lines)
        blocked, blocked_calls = self.stream(n, lines, block, monkeypatch)
        whole, whole_calls = self.stream(n, lines, len(lines), monkeypatch)
        with extremal_certificates() as vector_calls:
            vector = mask_pipeline(n, (2, n - 1), lines)
        assert report_fingerprint(blocked) == report_fingerprint(whole) == report_fingerprint(vector)
        assert blocked_calls == whole_calls == vector_calls
        # replays run in line order
        line_of = {text: i for i, text in enumerate(lines)}
        for seen in (blocked_calls, blocked.counterexamples):
            order = [line_of[g6] for g6, _ in seen]
            assert order == sorted(order)
        if n == 6:
            assert len(blocked_calls) > 5 and len(blocked.counterexamples) > 5

    @pytest.mark.parametrize("branch", ["lanes", "per-graph", "per-graph-order-20"])
    def test_orders_above_the_mask_pipeline_with_a_k_window(self, monkeypatch, branch):
        # the lane kernels settle the stream up to _LANE_KERNEL_MAX_ORDER
        # and the single-graph solvers fill the lanes above it; the other
        # branch must not run.  The cheap lane kernels serve every order
        def refused(*args, **kwargs):
            raise AssertionError(f"the other branch ran on the {branch} branch")

        if branch == "lanes":
            n = 9
            refuse = ("chromatic_number", "vertex_connectivity", "find_hamiltonian_cycle")
        else:
            n = 20 if branch.endswith("20") else harness._LANE_KERNEL_MAX_ORDER + 1
            refuse = ("_chromatic_lanes", "_kappa_lanes", "_hamiltonian_lanes")
        for name in refuse:
            monkeypatch.setattr(harness, name, refused)
        rng = random.Random(n)
        graphs = [build_extremal(k, n) for k in (2, 3, 4)]
        graphs += [relabeled(g, rng) for g in graphs]
        graphs += [complete_graph(n), cycle_graph(n), complement(cycle_graph(n))]
        # near-complete graphs reach chi >= n - 4
        graphs += [complement(random_graph(n, p, rng)) for p in (0.05, 0.1, 0.2) for _ in range(6)]
        graphs += [random_graph(n, p, rng) for p in (0.5, 0.7) for _ in range(3)]
        if n == 20:  # about as many missing edges as p = 0.1 leaves at n = 9
            graphs += [complement(random_graph(n, 0.02, rng)) for _ in range(6)]
        rng.shuffle(graphs)
        lines = [to_graph6(g) for g in graphs]
        window = (3, 4)

        hits, kinds, extremal_calls = {3: 0, 4: 0}, [], []
        for g in graphs:
            kappa, chi = vertex_connectivity(g), chromatic_number(g)[0]
            for k in (3, 4):
                if kappa >= k and chi >= n - k:
                    hits[k] += 1
                    kinds.append(certify(g, k).kind)
                    if kinds[-1] == "extremal":
                        extremal_calls.append((to_graph6(g), k))
        assert hits[3] > 4 and hits[4] > 4 and kinds.count("extremal") >= 4

        for block in (2, 4096):
            monkeypatch.setattr(harness, "_STREAM_BLOCK", block)
            with extremal_certificates() as calls:
                rep = verify_order(n, window, stream=text_stream(lines))
            assert rep.total_graphs == len(graphs)
            assert rep.hypothesis_hits == hits
            assert (rep.hamiltonian, rep.extremal) == (
                kinds.count("hamiltonian"), kinds.count("extremal"),
            )
            assert rep.counterexamples == []
            assert calls == extremal_calls

    @pytest.mark.parametrize("block", [1, 5, 4096])
    def test_orders_one_to_three_match_mask_pipeline(self, monkeypatch, block):
        # order 1 has no vertex pair, order 2 one, and neither a k to hit;
        # no pair must not read as the one lane of format(0, "00b")
        monkeypatch.setattr(harness, "_STREAM_BLOCK", block)
        for n in (1, 2, 3):
            lines = [to_graph6(g) for g in enumerate_labeled(n)]
            lines = ["C~", ""] + lines + lines[::-1] + ["@@"]
            streamed, vector, calls = run_both_paths(n, (2, n - 1), lines)
            assert report_fingerprint(streamed) == report_fingerprint(vector)
            assert streamed.total_graphs == 2 << (n * (n - 1) // 2)
            if n == 3:  # the triangle, twice
                assert streamed.hypothesis_hits == {2: 2} and streamed.hamiltonian == 2
            assert [line_no for line_no, _ in streamed.errors] == [1, len(lines)]
            # no line of the order at all
            streamed, vector, _ = run_both_paths(n, (2, n - 1), ["C~", ""])
            assert report_fingerprint(streamed) == report_fingerprint(vector)
            assert streamed.total_graphs == 0
        assert vector.hypothesis_hits == {2: 0}

    @pytest.mark.parametrize("block", [1, 5])
    def test_bad_lines_at_block_boundaries_keep_their_line_numbers(self, monkeypatch, block):
        # bad and blank lines around every block boundary of the valid
        # lines: the errors keep their line numbers, and the tallies match
        # one block
        good = [to_graph6(g) for g in enumerate_labeled(5)][::3]
        lines, bad_at = [], []
        for i, text in enumerate(good):
            if i % 5 in (0, 4):
                lines.append("Dh" if i % 2 else "C~")
                bad_at.append(len(lines))
            if i % 7 == 0:
                lines.append("")
            lines.append(text)
        lines.append("E~~w")
        bad_at.append(len(lines))
        blocked, blocked_calls = self.stream(5, lines, block, monkeypatch)
        whole, whole_calls = self.stream(5, lines, len(lines), monkeypatch)
        assert [line_no for line_no, _ in blocked.errors] == bad_at
        assert blocked.errors == whole.errors
        assert report_fingerprint(blocked) == report_fingerprint(whole)
        assert blocked_calls == whole_calls
        assert blocked.total_graphs == len(good) and blocked.hits_total > 0


def oracle_errors(n, lines):
    """The errors of a stream of order-n lines, each line decoded alone."""
    errors = []
    for line_no, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text:
            continue
        try:
            order, _ = decode_graph6(text)
        except Graph6Error as err:
            errors.append((line_no, str(err)))
            continue
        if order != n:
            errors.append((line_no, f"expected order {n}, got {order}"))
    return errors


def fast_path_lines():
    """Order-8 lines with hits, both extremal graph8.g6 classes among
    them, and a blank line."""
    lines = graph8_lines()
    good = lines[-16:]
    good[4:4] = [lines[3484], lines[6110]]
    good.insert(3, "  ")
    return good


def padded(text):
    """text with its last payload bit set; an order-8 line has two bits
    of padding."""
    return text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 1))


# Each case: lines that replace the line at position 7 of fast_path_lines.
# The two of widths w - 1 and w + 1 join to two w-wide slots whose order
# column and padding are valid, so only the width of each line tells them
# apart.  A block that fails the checks is checked again with its headers
# cut off, so only a line that holds nothing but a header is bad.  A form
# feed and a file separator end a line for str.splitlines but not for a
# text stream, so each makes one bad line.
BAD_LINES = {
    "header": lambda t: [">>graph6<<" + t],
    "header-only": lambda t: [">>graph6<<"],
    "other-order": lambda t: ["Dhc"],
    "order-byte": lambda t: ["H" + t[1:]],
    "padding": lambda t: [padded(t)],
    "byte-out-of-range": lambda t: [t[:2] + "!" + t[3:]],
    "non-ascii": lambda t: [t[:2] + "\u00e9" + t[3:]],
    "truncated": lambda t: [t[:-1]],
    "trailing-byte": lambda t: [t + "?"],
    "widths-off-by-one": lambda t: [t[:-1], "G" + t],
    "form-feed": lambda t: [t[:3] + "\x0c" + t[4:]],
    "file-separator": lambda t: [t[:3] + "\x1c" + t[4:]],
}


def chunks_of(lines, block):
    """The line indices of each chunk that a text stream of lines, each
    ended by a newline, is read in: block * (w + 1) characters, w the
    width of an order-8 line, completed to the line end."""
    size = block * (graph6.graph6_width(8) + 1)
    chunks, chunk, read = [], [], 0
    for i, line in enumerate(lines):
        chunk.append(i)
        read += len(line) + 1
        if read >= size:
            chunks.append(chunk)
            chunk, read = [], 0
    return chunks + [chunk] if chunk else chunks


class TestStreamFastPath:
    """A block of valid lines is validated and read as a whole; one that
    fails a check is decoded line by line.  Both paths must give the
    errors, texts and line numbers of a per-line decode, and the totals of
    the mask pipeline."""

    @staticmethod
    def run(
        monkeypatch, lines, block, fallback_only=False, line_path_only=False, line_blocks=None,
    ):
        """verify_order(8) on a list of lines, as a text stream of them, or
        on a text stream: the report, the extremal certify calls and the
        numbered lines of each per-line decode.  fallback_only fails every
        block check, line_path_only the grid check of the chunks;
        line_blocks, if given, gathers the line number before each block
        that takes the line path."""
        monkeypatch.setattr(harness, "_STREAM_BLOCK", block)
        if line_blocks is not None:
            line_block = harness._line_block

            def listed(report, n, line_no, chunk):
                line_blocks.append(line_no)
                return line_block(report, n, line_no, chunk)

            monkeypatch.setattr(harness, "_line_block", listed)
        decoded = []
        per_line = harness._decoded_lines

        def counted(report, n, numbered):
            decoded.append(numbered)
            return per_line(report, n, numbered)

        monkeypatch.setattr(harness, "_decoded_lines", counted)
        if fallback_only:
            monkeypatch.setattr(harness, "valid_block", lambda n, data: False)
        if line_path_only:
            monkeypatch.setattr(harness, "_grid_block", lambda n, text: None)
        stream = text_stream(lines) if isinstance(lines, list) else lines
        with extremal_certificates() as calls:
            rep = verify_order(8, (2, 7), stream=stream)
        monkeypatch.undo()
        return rep, calls, decoded

    @staticmethod
    def assert_matches_per_line(lines, rep, calls):
        with extremal_certificates() as vector_calls:
            vector = mask_pipeline(8, (2, 7), lines)
        assert rep.errors == oracle_errors(8, lines)
        assert report_fingerprint(rep) == report_fingerprint(vector)
        assert calls == vector_calls

    @pytest.mark.parametrize("block", [1, 5, 4096])
    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_bad_line_falls_back_to_per_line_decode(self, monkeypatch, case, block):
        lines = fast_path_lines()
        lines[7:8] = BAD_LINES[case](lines[7])
        rep, calls, decoded = self.run(monkeypatch, lines, block)
        self.assert_matches_per_line(lines, rep, calls)
        assert rep.extremal == 2 and rep.hits_total > 10
        if case == "header":
            assert rep.errors == [] and rep.total_graphs == 18 and decoded == []
        else:
            bad = range(7, 7 + len(lines) - 18)
            assert [line_no for line_no, _ in rep.errors] == [i + 1 for i in bad]
            # only the chunks that hold a bad line are decoded line by line
            assert len(decoded) == sum(any(i in bad for i in chunk) for chunk in chunks_of(lines, block))
        forced, forced_calls, _ = self.run(monkeypatch, lines, block, fallback_only=True)
        assert (forced.errors, report_fingerprint(forced), forced_calls) == (
            rep.errors, report_fingerprint(rep), calls,
        )

    @pytest.mark.parametrize("block", [1, 5, 4096])
    def test_clean_stream_takes_the_fast_path(self, monkeypatch, block):
        lines = fast_path_lines()
        rep, calls, decoded = self.run(monkeypatch, lines, block)
        assert decoded == [] and rep.errors == []
        self.assert_matches_per_line(lines, rep, calls)
        forced, forced_calls, decoded = self.run(monkeypatch, lines, block, fallback_only=True)
        # a chunk counts characters, blank lines included; one of blank
        # lines alone is not decoded
        assert len(decoded) == sum(
            any(lines[i].strip() for i in chunk) for chunk in chunks_of(lines, block)
        )
        assert report_fingerprint(forced) == report_fingerprint(rep) and forced_calls == calls

    def test_header_on_line_one_keeps_the_fast_path(self, monkeypatch):
        # the usual place for a header: the lines of graph8.g6 as a text
        # stream read the same with it, field for field, and no chunk is
        # decoded line by line
        lines = graph8_lines()
        plain, plain_calls, _ = self.run(monkeypatch, lines, 4096)
        line_blocks = []
        rep, calls, decoded = self.run(
            monkeypatch, [">>graph6<<" + lines[0]] + lines[1:], 4096, line_blocks=line_blocks,
        )
        assert line_blocks == [] and decoded == []
        assert rep == plain
        assert rep.total_graphs == 12346 and calls == plain_calls

    @pytest.mark.parametrize("block", [5, 4096])
    def test_header_on_line_one_of_a_file_keeps_the_grid_path(self, monkeypatch, block):
        # graph8.g6 as a text stream with a header on line 1, the usual
        # place for one, reads as the file without it, field for field:
        # the header is cut off the first chunk before its grid check, so
        # no chunk takes the line path and no line is decoded alone
        with GRAPH8.open(encoding="ascii") as handle:
            plain, plain_calls, _ = self.run(monkeypatch, handle, block)
        line_blocks = []
        text = io.StringIO(">>graph6<<" + GRAPH8.read_text(encoding="ascii"))
        rep, calls, decoded = self.run(monkeypatch, text, block, line_blocks=line_blocks)
        assert line_blocks == [] and decoded == []
        assert rep == plain and calls == plain_calls and rep.total_graphs == 12346

    @settings(max_examples=120, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 12345), min_size=1, max_size=12),
        edits=byte_edits_st,
        block=st.sampled_from([1, 3, 4096]),
    )
    def test_random_byte_edits_match_per_line_decode(self, picks, edits, block):
        lines = graph8_lines()
        lines = edited([lines[i] for i in picks], edits)
        # the lines as a text stream read in chunks, against the per-line
        # decode of the lines that iterating it yields: an edit that puts a
        # newline inside a line splits it there, and no other character does
        text = "\n".join(lines) + "\n"
        old_block = harness._STREAM_BLOCK
        harness._STREAM_BLOCK = block
        try:
            with extremal_certificates() as calls:
                rep = verify_order(8, (2, 7), stream=io.StringIO(text))
        finally:
            harness._STREAM_BLOCK = old_block
        self.assert_matches_per_line(list(io.StringIO(text)), rep, calls)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", None], ids=["lf", "crlf", "no-final-newline"])
    @pytest.mark.parametrize("block", [1, 5, 4096])
    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_text_stream_matches_the_lines(self, monkeypatch, case, block, ending):
        # the lines as a text stream, read in chunks, against the per-line
        # decode of the lines that iterating the same text yields: the
        # same errors and line numbers, totals and certify calls, with the
        # grid path and with every chunk forced onto the line path
        lines = fast_path_lines()
        lines[7:8] = BAD_LINES[case](lines[7])
        for line_path_only in (False, True):
            rep, calls, _ = self.run(
                monkeypatch, text_stream(lines, ending), block, line_path_only=line_path_only,
            )
            self.assert_matches_per_line(list(text_stream(lines, ending)), rep, calls)

    @pytest.mark.parametrize("block", [1, 5, 4096])
    @pytest.mark.parametrize("edit", ["bad-line-first", "header-inside"])
    def test_grid_chunk_then_a_line_chunk(self, monkeypatch, edit, block):
        # the first chunk, block lines, is a grid; the second holds a
        # truncated line as its first line, or a header on a line inside,
        # and alone takes the line path; the third is a grid again.  The
        # truncated line is the one error, with its own line number
        lines = graph8_lines()[:3 * block]
        if edit == "bad-line-first":
            lines[block] = lines[block][:-1]
        else:
            lines[block + block // 2] = ">>graph6<<" + lines[block + block // 2]
        line_blocks = []
        rep, calls, decoded = self.run(monkeypatch, lines, block, line_blocks=line_blocks)
        assert line_blocks == [block]
        self.assert_matches_per_line(lines, rep, calls)
        if edit == "bad-line-first":
            assert [line_no for line_no, _ in rep.errors] == [block + 1] and len(decoded) == 1
        else:
            assert rep.errors == [] and decoded == []

    @pytest.mark.parametrize("block", [5, 4096])
    def test_clean_file_takes_the_grid_path(self, monkeypatch, block):
        # graph8.g6 read as a file never reaches the strip or the per-line
        # decode, and reads as the per-line decode of its lines; forcing
        # the line path on every chunk changes nothing, field for field
        line_blocks = []
        with GRAPH8.open(encoding="ascii") as handle:
            rep, calls, decoded = self.run(monkeypatch, handle, block, line_blocks=line_blocks)
        assert line_blocks == [] and decoded == []
        self.assert_matches_per_line(graph8_lines(), rep, calls)
        with GRAPH8.open(encoding="ascii") as handle:
            forced, forced_calls, _ = self.run(monkeypatch, handle, block, line_path_only=True)
        assert forced == rep
        assert forced_calls == calls and rep.total_graphs == 12346
