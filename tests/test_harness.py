"""Verification harness: population tallies, sharding, streamed input."""

import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hamcert import harness
from hamcert.graph6 import Graph6Error, decode_graph6, parse_graph6, to_graph6
from hamcert.graphs import (
    complete_graph,
    enumerate_labeled,
    from_edge_mask,
    is_connected,
    min_degree,
)
from hamcert.harness import VerificationReport, verify_order
from hamcert.invariants import chromatic_number, independence_number, max_clique
from hamcert.cycles import find_hamiltonian_cycle
from hamcert.theorem import build_extremal

from tests.conftest import relabeled
from tests.oracles import (
    oracle_chromatic,
    oracle_hamiltonian_cycle,
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

    def test_exact_stages_see_only_what_the_cheap_ones_leave(self, monkeypatch):
        # first-fit bounds settle the coloring inequality for every graph at
        # n = 6; exact omega and alpha run on the 4,348 candidates of the
        # 32,768 graphs, batched chi on the 502 whose clique number misses
        # the bound
        sizes = {
            "_clique_alpha": lambda np_, masks, n: masks.size,
            "_chromatic_numbers": lambda np_, rows, *rest: rows[0].size,
            "nordhaus_gaddum": lambda g: 1,
        }
        seen = dict.fromkeys(sizes, 0)
        for name, size in sizes.items():
            exact = getattr(harness, name)

            def counted(*args, _exact=exact, _name=name, _size=size):
                seen[_name] += _size(*args)
                return _exact(*args)

            monkeypatch.setattr(harness, name, counted)
        rep = verify_order(6)
        assert rep.hypothesis_hits == {2: 3168, 3: 1758, 4: 76, 5: 1}
        assert seen == {"_clique_alpha": 4348, "_chromatic_numbers": 502, "nordhaus_gaddum": 0}

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

    def test_rejects_bad_source(self):
        with pytest.raises(ValueError, match="source"):
            verify_order(4, source="telepathy")

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            verify_order(4, shards=0)


class TestSharding:
    def test_totals_independent_of_shard_count(self):
        base = report_fingerprint(verify_order(5))
        for shards in (2, 3, 5, 11):
            assert report_fingerprint(verify_order(5, shards=shards)) == base

    def test_merge_is_associative(self):
        a = VerificationReport(
            total_graphs=3, hypothesis_hits={2: 1}, hamiltonian=1,
            counterexamples=[("Dhc", 2)], elapsed=0.5,
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


class TestStreamedSource:
    @staticmethod
    def assert_stream_matches_internal(n):
        lines = [to_graph6(g) for g in enumerate_labeled(n)]
        streamed = verify_order(n, source="graph6", stream=iter(lines))
        internal = verify_order(n)
        assert streamed.total_graphs == internal.total_graphs
        assert streamed.hypothesis_hits == internal.hypothesis_hits
        assert streamed.hamiltonian == internal.hamiltonian
        assert streamed.extremal == internal.extremal
        assert streamed.lemma1_violations == internal.lemma1_violations
        assert streamed.counterexamples == internal.counterexamples

    def test_stream_matches_internal_on_order_five(self):
        self.assert_stream_matches_internal(5)

    def test_stream_matches_internal_on_order_six(self):
        self.assert_stream_matches_internal(6)

    def test_malformed_lines_reported_and_skipped(self):
        lines = ["Dhc", "", "not graph6 \x01", "Dhc", "C~", "Dhc"]
        rep = verify_order(5, source="graph6", stream=iter(lines))
        assert rep.total_graphs == 3
        assert [line_no for line_no, _ in rep.errors] == [3, 5]
        assert "order" in rep.errors[1][1]

    def test_blank_lines_are_not_errors(self):
        rep = verify_order(5, source="graph6", stream=iter(["", "   ", "\n"]))
        assert rep.total_graphs == 0
        assert rep.errors == []

    def test_stream_requires_lines(self):
        with pytest.raises(ValueError, match="stream"):
            verify_order(5, source="graph6")

    def test_stream_counts_extremal(self):
        g6 = to_graph6(build_extremal(2, 5))
        rep = verify_order(5, source="graph6", stream=iter([g6]))
        assert rep.hypothesis_hits == {2: 1, 3: 0, 4: 0}
        assert rep.extremal == 1
        assert rep.hamiltonian == 0

    def test_order_nine_stream(self):
        lines = [to_graph6(build_extremal(2, 9)), to_graph6(complete_graph(9)), "Dhc"]
        rep = verify_order(9, (2, 2), source="graph6", stream=iter(lines))
        assert rep.total_graphs == 2
        assert rep.hypothesis_hits == {2: 2}
        assert (rep.hamiltonian, rep.extremal) == (1, 1)
        assert [line_no for line_no, _ in rep.errors] == [3]

    def test_order_eight_calls_exact_solvers_only_where_needed(self, monkeypatch):
        # cheap first: the first-fit bounds settle the coloring inequality
        # for every class, and exact chi runs only on the 708 graphs that
        # pass the chromatic condition on their bounds
        calls = {"nordhaus_gaddum": 0, "chromatic_number": 0, "vertex_connectivity": 0}
        for name in calls:
            exact = getattr(harness, name)

            def counted(*args, _exact=exact, _name=name, **kwargs):
                calls[_name] += 1
                return _exact(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        rep = verify_order(8, (2, 7), source="graph6", stream=iter(graph8_lines()))
        assert rep.hits_total == 843
        assert calls == {"nordhaus_gaddum": 0, "chromatic_number": 708, "vertex_connectivity": 666}


def mask_pipeline(n, k_range, lines, on_extremal=None):
    """The order-n lines of a stream through the internal sweep's mask
    pipeline."""
    masks = []
    for text in lines:
        try:
            order, mask = decode_graph6(text)
        except Graph6Error:
            continue
        if order == n:
            masks.append(mask)
    ks = harness._clamped_k_range(n, *k_range)
    return harness._verify_masks(n, ks, np.array(masks, np.uint32), on_extremal)


def run_both_paths(n, k_range, lines):
    """The stream, one graph at a time, and the mask pipeline on the same
    graphs, each with its on_extremal calls."""
    calls = ([], [])
    streamed = verify_order(
        n, k_range, source="graph6", stream=iter(lines),
        on_extremal=lambda g6, k: calls[0].append((g6, k)),
    )
    vector = mask_pipeline(n, k_range, lines, lambda g6, k: calls[1].append((g6, k)))
    return streamed, vector, calls


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
    """The per-graph stream against the internal sweep's array passes on
    the same graphs, field by field."""

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
        streamed, vector, calls = run_both_paths(8, (2, 7), lines)
        assert report_fingerprint(streamed) == report_fingerprint(vector)
        assert calls[0] == calls[1]
        assert streamed.total_graphs == 12346
        assert streamed.extremal + len(streamed.counterexamples) == 2
        assert [line_no for line_no, _ in streamed.errors] == [
            i + 1 for i, text in enumerate(lines) if text in bad
        ]

    def test_loose_bounds_send_every_graph_to_the_exact_pair(self, monkeypatch):
        # with first-fit bounds of n every graph is a Nordhaus-Gaddum suspect
        # and needs its exact chi; a stand-in exact pair flags some graphs,
        # which both paths must count
        exact = harness.nordhaus_gaddum

        def flagged(g):
            chi, chi_c, slack = exact(g)
            return chi, chi_c, -1 if g.edge_count() % 5 == 0 else slack

        def loose(np_, rows, order):
            return np.full(rows[0].shape, len(rows), np.uint8)

        monkeypatch.setattr(harness, "_greedy_bound", loose)
        monkeypatch.setattr(harness, "_first_fit_colors", lambda rows, order: len(rows))
        monkeypatch.setattr(harness, "nordhaus_gaddum", flagged)
        for n, lines in ((5, [to_graph6(g) for g in enumerate_labeled(5)]),
                         (8, graph8_lines()[::12])):
            streamed, vector, _ = run_both_paths(n, (2, n - 1), lines)
            assert report_fingerprint(streamed) == report_fingerprint(vector)
            assert streamed.lemma1_violations > 0


def population(n, masks):
    """Adjacency rows, clique numbers and chi bounds of the labeled graphs
    with the given edge masks, as the internal sweep computes them for its
    candidates."""
    masks = np.asarray(masks, np.uint32)
    rows = harness._build_rows(np, masks, n)
    omega, alpha = harness._clique_alpha(np, masks, n)
    ub = np.minimum(
        np.minimum(harness._greedy_bound(np, rows, range(n)),
                   harness._greedy_bound(np, rows, range(n - 1, -1, -1))),
        n + 1 - alpha,
    )
    return masks, rows, omega, ub


def seeded_masks(n, count, seed=7):
    bits = n * (n - 1) // 2
    return np.random.default_rng(seed).integers(0, 1 << bits, size=count, dtype=np.uint32)


class TestBatchedKernels:
    """The whole-population kernels of the internal sweep against the
    single-graph solvers."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_chromatic_numbers_on_every_unsettled_graph(self, n):
        masks, rows, omega, ub = population(n, np.arange(1 << (n * (n - 1) // 2)))
        unsettled = np.nonzero(omega != ub)[0]
        assert unsettled.size > 0
        chi = harness._chromatic_numbers(
            np, [r[unsettled] for r in rows], n, omega[unsettled], ub[unsettled]
        )
        expected = [chromatic_number(from_edge_mask(n, int(m)))[0] for m in masks[unsettled]]
        assert chi.tolist() == expected

    def test_chromatic_numbers_on_seeded_order_seven(self, monkeypatch):
        # a small block size runs the blocked loop, with a partial last block
        monkeypatch.setattr(harness, "_CHI_BLOCK", 300)
        masks, rows, omega, ub = population(7, seeded_masks(7, 22_000))
        unsettled = np.nonzero(omega != ub)[0]
        assert unsettled.size > 1800
        chi = harness._chromatic_numbers(
            np, [r[unsettled] for r in rows], 7, omega[unsettled], ub[unsettled]
        )
        expected = [chromatic_number(from_edge_mask(7, int(m)))[0] for m in masks[unsettled]]
        assert chi.tolist() == expected

    def test_chromatic_numbers_with_trivial_bounds(self):
        # every t in [1, n - 1] is tested, not only those between the
        # harness bounds
        for n in range(1, 6):
            masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
            rows = harness._build_rows(np, masks, n)
            ones = np.ones(masks.shape, np.uint8)
            chi = harness._chromatic_numbers(np, rows, n, ones, ones * np.uint8(n))
            expected = [chromatic_number(from_edge_mask(n, int(m)))[0] for m in masks]
            assert chi.tolist() == expected

    @pytest.mark.parametrize("complement", [False, True], ids=["graphs", "complements"])
    def test_chromatic_numbers_on_order_eight(self, complement):
        # the uint64 sums wrap; every graph8.g6 class, or its complement,
        # whose clique and greedy bounds disagree
        masks, rows, omega, ub = population(8, self.graph8_masks(complement))
        unsettled = np.nonzero(omega != ub)[0]
        assert unsettled.size == (943 if complement else 1108)
        chi = harness._chromatic_numbers(
            np, [r[unsettled] for r in rows], 8, omega[unsettled], ub[unsettled]
        )
        expected = [chromatic_number(from_edge_mask(8, int(m)))[0] for m in masks[unsettled]]
        assert chi.tolist() == expected

    def test_chromatic_numbers_refuse_order_nine(self):
        rows = [np.zeros(1, np.uint8)] * 9
        ones = np.ones(1, np.uint8)
        with pytest.raises(ValueError, match="order 8"):
            harness._chromatic_numbers(np, rows, 9, ones, ones)

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
        # the complements of the graph8.g6 classes hold K8, whose eight
        # colors need bit 7 of the uint8 forbidden set
        n, masks = self.labeled_or_graph8(source)
        rows = harness._build_rows(np, masks, n)
        adj = [from_edge_mask(n, int(m)).adj for m in masks]
        for order in (range(n), range(n - 1, -1, -1)):
            bound = harness._greedy_bound(np, rows, order)
            assert bound.dtype == np.uint8
            assert bound.tolist() == [harness._first_fit_colors(a, order) for a in adj]

    @pytest.mark.parametrize("source", ["6", "graph8"])
    def test_candidate_rule_rejects_disconnected_graphs(self, source):
        # so the internal sweep needs no connectivity stage of its own
        n, masks = self.labeled_or_graph8(source)
        rows = harness._build_rows(np, masks, n)
        mindeg = np.min([np.bitwise_count(r) for r in rows], axis=0)
        graphs = [from_edge_mask(n, int(m)) for m in masks]
        split = [i for i, g in enumerate(graphs) if not is_connected(g) and min_degree(g) >= 2]
        assert split
        for order in (range(n), range(n - 1, -1, -1)):
            ub = harness._greedy_bound(np, rows, order)
            assert not harness._may_hit(n, n - 1, mindeg, ub)[split].any()

    @pytest.mark.parametrize("source", ["3", "4", "5", "graph8"])
    def test_hamiltonian_matches_solver(self, source):
        n, masks = self.labeled_or_graph8(source)
        masks = masks[::3] if n == 8 else masks
        ham = harness._hamiltonian(np, harness._build_rows(np, masks, n), n)
        expected = [find_hamiltonian_cycle(from_edge_mask(n, int(m))) is not None for m in masks]
        assert ham.tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
    def test_clique_alpha_matches_solvers(self, n):
        if n == 7:
            masks = seeded_masks(7, 3000)
        else:
            masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
        omega, alpha = harness._clique_alpha(np, masks, n)
        graphs = [from_edge_mask(n, int(m)) for m in masks]
        assert omega.tolist() == [max_clique(g).bit_count() for g in graphs]
        assert alpha.tolist() == [independence_number(g)[0] for g in graphs]
