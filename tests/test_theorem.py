"""Extremal family, certification, and proof trace tests."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamcert.graph6 import parse_graph6
from hamcert.graphs import (
    complete_graph,
    cycle_graph,
    enumerate_labeled,
    from_edge_mask,
    path_graph,
    petersen_graph,
    with_edges,
)
from hamcert.invariants import (
    chromatic_number,
    independence_number,
    vertex_connectivity,
)
from hamcert import cycles, theorem
from hamcert.cycles import Cycle, find_hamiltonian_cycle, longest_cycle
from hamcert.theorem import (
    Certificate,
    ExtremalPartition,
    HypothesisError,
    build_extremal,
    certify,
    check_hypothesis,
    format_certificate,
    format_trace,
    parse_certificate,
    recognize_extremal,
    trace_proof,
    validate_certificate,
    validate_extremal_partition,
)
from tests.conftest import count_calls, relabeled
from tests.oracles import (
    oracle_certify,
    oracle_chromatic,
    oracle_extremal_problems,
    oracle_independence_number,
    oracle_vertex_connectivity,
)


# ---------------------------------------------------------------------------
# the extremal family


def test_build_extremal_frozen_edge_counts():
    assert build_extremal(2, 5).edge_count() == 7
    assert build_extremal(2, 6).edge_count() == 10
    # k(k-1)/2 + k*(n-k) + (n-2k)(n-2k-1)/2 with k=3, n=7
    assert build_extremal(3, 7).edge_count() == 15


def test_build_extremal_layout():
    g = build_extremal(2, 6)
    # a = {0,1} universal, b = {2,3} independent, c_part = {4,5} an edge
    assert g.degree(0) == g.degree(1) == 5
    assert g.degree(2) == g.degree(3) == 2
    assert not g.has_edge(2, 3)
    assert g.has_edge(4, 5)


def test_build_extremal_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_extremal(1, 5)
    with pytest.raises(ValueError):
        build_extremal(2, 4)
    with pytest.raises(ValueError):
        build_extremal(3, 6)


def test_extremal_invariants_oracle_checked():
    g = build_extremal(3, 7)
    assert oracle_chromatic(g) == 4
    assert oracle_independence_number(g) == 4
    assert oracle_vertex_connectivity(g) == 3
    assert find_hamiltonian_cycle(g) is None


def test_recognize_round_trip_grid():
    for k in (2, 3, 4, 5):
        for n in range(2 * k + 1, 2 * k + 9):
            g = build_extremal(k, n)
            got = recognize_extremal(g)
            assert got is not None
            rk, part = got
            assert rk == k
            assert validate_extremal_partition(g, k, part) == []


def test_recognize_rejects_non_extremal():
    assert recognize_extremal(complete_graph(6)) is None
    assert recognize_extremal(cycle_graph(6)) is None
    assert recognize_extremal(petersen_graph()) is None
    assert recognize_extremal(path_graph(5)) is None
    assert recognize_extremal(complete_graph(4)) is None  # below minimum order
    # at n = 2k + 1 the k + 1 non-universal vertices must be independent
    for k in (2, 3, 4):
        g = build_extremal(k, 2 * k + 1)
        extra = with_edges(g.n, list(g.edges()) + [(k, 2 * k)])
        assert recognize_extremal(g) is not None and recognize_extremal(extra) is None


def test_recognize_counts_on_every_labeled_graph():
    # the labeled extremal graphs per k: at n = 5, k = 2, the C(5, 2)
    # choices of the join part; at n = 6, those of the join part and then
    # the independent part, 15 * 6; no order below 7 fits k = 3
    for n, expected in ((5, {2: 10}), (6, {2: 90})):
        found = {}
        for g in enumerate_labeled(n):
            if (got := recognize_extremal(g)) is not None:
                found[got[0]] = found.get(got[0], 0) + 1
        assert found == expected, n


def test_recognize_is_label_free():
    base = build_extremal(3, 8)
    perm = [3, 7, 1, 0, 6, 2, 5, 4]
    shuffled = with_edges(8, [(perm[u], perm[v]) for u, v in base.edges()])
    got = recognize_extremal(shuffled)
    assert got is not None
    rk, part = got
    assert rk == 3
    assert validate_extremal_partition(shuffled, 3, part) == []
    # join part follows the permutation
    assert part.a == sum(1 << perm[v] for v in (0, 1, 2))


def test_validate_partition_flags_tampering():
    g = build_extremal(2, 6)
    good = recognize_extremal(g)[1]
    swapped = ExtremalPartition(a=good.b, b=good.a, c_part=good.c_part)
    assert validate_extremal_partition(g, 2, swapped)


def test_validate_partition_matches_the_invariant_oracle():
    # the rows-first acceptance and, for a partition that fails, the
    # problems in their words and order, against the invariant-by-invariant
    # oracle: relabeled extremal graphs with up to two edges toggled, under
    # their own partition or one with a vertex moved, added to a second
    # class or left out, or the join and independent parts swapped, and
    # under a k one off
    g = from_edge_mask(5, 223)
    # every row fits its class, but vertex 2 is in two classes and 4 in none
    overlap = ExtremalPartition(a=0b00011, b=0b01100, c_part=0b00100)
    assert oracle_extremal_problems(g, 2, overlap) == ["classes do not partition the vertex set"]
    assert validate_extremal_partition(g, 2, overlap) == oracle_extremal_problems(g, 2, overlap)
    rng = random.Random(20)
    accepted = 0
    for _ in range(3000):
        k = rng.randint(2, 4)
        n = rng.randint(2 * k + 1, 2 * k + 4)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {tuple(sorted((perm[u], perm[v]))) for u, v in build_extremal(k, n).edges()}
        for _ in range(rng.choice((0, 0, 1, 2))):
            edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        g = with_edges(n, sorted(edges))
        a, b, c = (
            sum(1 << perm[v] for v in vs) for vs in (range(k), range(k, 2 * k), range(2 * k, n))
        )
        v = 1 << rng.randrange(n)
        a, b, c = rng.choice((
            (a, b, c), (a, b, c), (a ^ v, b | v, c), (a, b, c ^ v), (a | v, b | v, c | v),
            (a & ~v, b & ~v, c & ~v), (b, a, c), (a, c, b),
        ))
        claimed = k + rng.choice((0, 0, 0, -1, 1))
        part = ExtremalPartition(a=a, b=b, c_part=c)
        problems = validate_extremal_partition(g, claimed, part)
        assert problems == oracle_extremal_problems(g, claimed, part), (g.adj, claimed, part)
        accepted += not problems
    assert 100 < accepted < 2900


# ---------------------------------------------------------------------------
# hypothesis and certificates


def test_check_hypothesis_frozen():
    rep = check_hypothesis(complete_graph(5), 2)
    assert rep.all_ok and rep.kappa == 4 and rep.chi == 5
    rep = check_hypothesis(cycle_graph(6), 2)
    assert rep.k_connected_ok and not rep.chi_ok and not rep.all_ok
    rep = check_hypothesis(build_extremal(2, 5), 2)
    assert rep.all_ok and rep.kappa == 2 and rep.chi == 3
    rep = check_hypothesis(complete_graph(4), 1)
    assert not rep.k_ge_2


def test_check_hypothesis_rejects_empty():
    from hamcert.graphs import edgeless_graph

    with pytest.raises(ValueError):
        check_hypothesis(edgeless_graph(0), 2)


def test_certify_hamiltonian():
    cert = certify(complete_graph(5), 2)
    assert cert.kind == "hamiltonian"
    assert len(cert.cycle) == 5
    assert validate_certificate(complete_graph(5), cert) == []


def test_certify_extremal():
    for k, n in [(2, 5), (3, 9)]:
        g = build_extremal(k, n)
        cert = certify(g, k)
        assert cert.kind == "extremal"
        assert cert.k == k
        assert validate_certificate(g, cert) == []


def test_certify_reports_failing_flag():
    with pytest.raises(HypothesisError) as exc:
        certify(path_graph(4), 2)
    assert exc.value.flag == "k_connected_ok"
    with pytest.raises(HypothesisError) as exc:
        certify(cycle_graph(6), 2)
    assert exc.value.flag == "chi_ok"
    with pytest.raises(HypothesisError) as exc:
        certify(complete_graph(5), 1)
    assert exc.value.flag == "k_ge_2"


def test_refusal_texts_and_exact_chi_last(monkeypatch):
    # the texts name the first failing flag; a refusal on k or on
    # connectivity computes no exact chromatic number
    cases = [
        (complete_graph(5), 1, "k = 1 is below 2"),
        (path_graph(4), 2, "connectivity 1 is below k = 2"),
        (cycle_graph(6), 2, "chromatic number 2 is below n - k = 4"),
        # the extremal shape under another k takes the exact path
        (build_extremal(2, 7), 3, "connectivity 2 is below k = 3"),
        (build_extremal(3, 7), 2, "chromatic number 4 is below n - k = 5"),
    ]
    exact = theorem.chromatic_number
    calls = []

    def counted(g):
        calls.append(g)
        return exact(g)

    monkeypatch.setattr(theorem, "chromatic_number", counted)
    for g, k, text in cases:
        with pytest.raises(HypothesisError) as exc:
            certify(g, k)
        assert str(exc.value) == text
    assert calls == [cycle_graph(6), build_extremal(3, 7)]


def _certify_outcome(certifier, g, k):
    """The certificate, or the refusal as (flag, text), or the plain
    ValueError's text."""
    try:
        return certifier(g, k)
    except HypothesisError as err:
        return ("refused", err.flag, str(err))
    except ValueError as err:
        return ("invalid", str(err))


def _extremal_grid():
    """(k, graph) over build_extremal(k, n) for k = 2..5 and
    n = 2k+1..12, canonical and under one seeded relabeling."""
    rng = random.Random(15)
    for k in range(2, 6):
        for n in range(2 * k + 1, 13):
            g = build_extremal(k, n)
            yield k, g
            yield k, relabeled(g, rng)


def test_certify_matches_its_full_path_on_every_small_graph():
    # the shape-first path against the former one, every k in 0..n, on
    # every labeled graph of order at most 5
    for n in range(6):
        for g in enumerate_labeled(n):
            for k in range(n + 1):
                assert _certify_outcome(certify, g, k) == _certify_outcome(oracle_certify, g, k), (
                    g, k,
                )


def test_certify_matches_its_full_path_on_the_extremal_grid():
    for k, g in _extremal_grid():
        for k2 in range(g.n):
            assert _certify_outcome(certify, g, k2) == _certify_outcome(oracle_certify, g, k2), (
                g, k, k2,
            )


def test_extremal_partition_fixes_kappa_chi_and_non_hamiltonicity():
    # the lemma certify relies on, confirmed by the exact solvers
    for k, g in _extremal_grid():
        assert vertex_connectivity(g) == k
        assert chromatic_number(g)[0] == g.n - k
        assert find_hamiltonian_cycle(g) is None


def test_certify_counts_solver_calls(monkeypatch):
    # the extremal shape for its own k is certified without an exponential
    # solver; every other graph still runs all three
    calls = count_calls(monkeypatch, theorem, [
        "chromatic_number", "vertex_connectivity", "find_hamiltonian_cycle", "recognize_extremal",
    ])
    assert certify(build_extremal(3, 9), 3).kind == "extremal"
    assert calls == {"chromatic_number": 0, "vertex_connectivity": 0,
                     "find_hamiltonian_cycle": 0, "recognize_extremal": 1}
    assert certify(complete_graph(6), 3).kind == "hamiltonian"
    assert calls == {"chromatic_number": 1, "vertex_connectivity": 1,
                     "find_hamiltonian_cycle": 1, "recognize_extremal": 2}


def test_certificate_serialization_round_trip():
    for g, k in [(complete_graph(5), 2), (build_extremal(2, 5), 2), (build_extremal(3, 9), 3)]:
        cert = certify(g, k)
        text = format_certificate(g, cert)
        g2, cert2 = parse_certificate(text)
        assert g2 == g
        assert cert2 == cert
        assert validate_certificate(g2, cert2) == []


def test_counterexample_certificate_serialization():
    g = complete_graph(5)
    cert = Certificate(kind="counterexample", report="synthetic record for testing")
    text = format_certificate(g, cert)
    g2, cert2 = parse_certificate(text)
    assert cert2.kind == "counterexample"
    assert cert2.report == "synthetic record for testing"
    assert validate_certificate(g2, cert2) == []


def test_validate_certificate_catches_tampering():
    g = build_extremal(2, 5)
    cert = certify(g, 2)
    wrong_graph = complete_graph(5)
    assert validate_certificate(wrong_graph, cert)
    from hamcert.cycles import Cycle

    fake = Certificate(kind="hamiltonian", cycle=Cycle((0, 1, 2)))
    assert validate_certificate(g, fake)


def test_parse_certificate_rejects_garbage():
    with pytest.raises(ValueError):
        parse_certificate("nothing here\n")
    with pytest.raises(ValueError):
        parse_certificate("kind wobble\ngraph C~\n")


_CERTIFICATES = {
    "hamiltonian": "kind hamiltonian\ngraph C~\ncycle 0,1,2,3\n",
    "extremal": "kind extremal\ngraph D}o\nk 2\npart_a 0,1\npart_b 2,3\npart_c 4\n",
}


@pytest.mark.parametrize(
    "kind, key",
    [("hamiltonian", "cycle"), ("extremal", "k"), ("extremal", "part_a"),
     ("extremal", "part_b"), ("extremal", "part_c")],
)
def test_parse_certificate_missing_field_is_value_error(kind, key):
    text = _CERTIFICATES[kind]
    assert parse_certificate(text)[1].kind == kind
    dropped = "".join(line + "\n" for line in text.splitlines() if line.split()[0] != key)
    with pytest.raises(ValueError, match=f"needs a {key} line"):
        parse_certificate(dropped)


_CERT_KEYS = ["kind", "graph", "cycle", "k", "part_a", "part_b", "part_c", "report"]
_CERT_VALUES = st.one_of(
    st.sampled_from(["hamiltonian", "extremal", "counterexample", "C~", "D}o", "-"]),
    st.lists(st.integers(), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.text(max_size=12),
)
# certificate-shaped text reaches the field parsers, not only the key check
_CERT_TEXT = st.lists(st.tuples(st.sampled_from(_CERT_KEYS), _CERT_VALUES), max_size=8).map(
    lambda pairs: "".join(f"{key} {value}\n" for key, value in pairs)
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _CERT_TEXT))
@example("kind extremal\ngraph @\nk 1\npart_a 99999999999999999999\npart_b -\npart_c -\n")
def test_parsers_raise_only_value_error(text):
    for parse in (parse_graph6, parse_certificate):
        try:
            parse(text)
        except ValueError:
            pass


def test_parse_certificate_rejects_vertex_out_of_range():
    text = _CERTIFICATES["extremal"].replace("part_c 4", "part_c 5")
    with pytest.raises(ValueError, match="vertex 5 outside 0..4"):
        parse_certificate(text)


# ---------------------------------------------------------------------------
# proof traces


def test_trace_hamiltonian_short_circuit():
    t = trace_proof(complete_graph(5), 2)
    assert t.conclusion == "hamiltonian"
    assert len(t.steps) == 1
    assert t.all_passed


def test_trace_extremal_case0():
    t = trace_proof(build_extremal(2, 5), 2)
    assert t.all_passed
    assert t.conclusion == "extremal (n = 2k+1)"
    names = [s.name for s in t.steps]
    assert "independent-successors" in names
    assert "equality-chain" in names
    assert "off-set-complete" in names
    assert "case0-structure" in names
    assert "case1-propagate" not in names


def test_trace_extremal_case0_k3():
    t = trace_proof(build_extremal(3, 7), 3)
    assert t.all_passed
    assert t.conclusion == "extremal (n = 2k+1)"


def test_trace_extremal_case1_propagation_length():
    # r = n - 2k - 1 = 2 interior vertices means two propagation steps
    t = trace_proof(build_extremal(2, 7), 2)
    assert t.all_passed
    assert t.conclusion == "extremal (n >= 2k+2)"
    assert sum(1 for s in t.steps if s.name == "case1-propagate") == 2


def test_trace_extremal_case1_k3():
    t = trace_proof(build_extremal(3, 8), 3)
    assert t.all_passed
    assert t.conclusion == "extremal (n >= 2k+2)"
    assert sum(1 for s in t.steps if s.name == "case1-propagate") == 1


def test_trace_step_indices_are_ordered():
    t = trace_proof(build_extremal(2, 7), 2)
    assert [s.index for s in t.steps] == list(range(1, len(t.steps) + 1))


def test_trace_requires_hypothesis():
    with pytest.raises(HypothesisError):
        trace_proof(path_graph(4), 2)


def test_trace_refuses_large_orders(monkeypatch):
    # before any exact solver runs
    calls = count_calls(monkeypatch, theorem, ["vertex_connectivity", "chromatic_number"])
    with pytest.raises(ValueError, match="refused"):
        trace_proof(build_extremal(2, 17), 2)
    assert calls == {"vertex_connectivity": 0, "chromatic_number": 0}


@pytest.mark.parametrize(
    "n, tail",
    [
        (6, [
            "step 8 case0-offcycle-complete PASS vertices off the cycle induce a complete graph | set=4,5",
            "step 9 case0-absorb FAIL absorbing z produced a longer cycle, contradicting maximality"
            " | z=5 longer=4,5,0,2,1",
        ]),
        (7, [
            "step 8 case1-offcycle-complete FAIL vertices off the cycle induce a complete graph | set=3,6",
            "step 9 case1-absorb FAIL the guaranteed absorb extension did not materialize | z=6",
        ]),
    ],
)
def test_trace_absorb_steps_on_a_short_cycle(monkeypatch, n, tail):
    # handed a cycle one vertex short of the longest, the trace finds two
    # vertices off it and ends in the absorb step of its case
    def one_short(g):
        return longest_cycle(with_edges(g.n - 1, [(u, v) for u, v in g.edges() if v < g.n - 1]))

    monkeypatch.setattr(theorem, "longest_cycle", one_short)
    lines = format_trace(trace_proof(build_extremal(2, n), 2)).splitlines()
    assert lines[-3:] == tail + ["conclusion inconsistent"]


def _forced(value=None):
    """A stand-in for a solver or predicate that returns value whatever its
    arguments, or raises ValueError when value is None."""
    def stand_in(*args):
        if value is None:
            raise ValueError("forced")
        return value

    return stand_in


def _two_long_segments(c, fan, k):
    return dataclasses.replace(cycles.segments(c, fan, k), big_segment_indices=frozenset({1, 2}))


# (graph, k, the name that stands in, its stand-in, the step that fails,
# the sha256 of the trace text)
_FAILED_STEPS = [
    (complete_graph(6), 3, "longest_cycle", _forced(Cycle((0, 1, 2))), "order-bound",
     "ae5207cbd6e9af65c8c1435ec85b21dac2ce2d71fca5666a5f57770d06381cec"),
    (build_extremal(2, 7), 2, "menger_fan", _forced(), "fan",
     "ac906f29e06fee05e62d45515d669a7da3824241da4c83f6f3f098e88e11984e"),
    (build_extremal(2, 7), 2, "is_independent_set", _forced(False), "independent-successors",
     "4d266f4d21ba07bd85d5085df0fa9e244952206c34a191e077af8bbcf2a793e3"),
    (build_extremal(2, 7), 2, "max_clique", _forced(1), "equality-chain",
     "40144d0e72cb11711ad397a064f8cb7f5cd1554c94038168a5262821676bf945"),
    (build_extremal(2, 7), 2, "is_clique", _forced(False), "off-set-complete",
     "b3095d91174348d91c3c2a671ccdb2e9b067fdddb2fca5af8d03983fe089418d"),
    (build_extremal(2, 7), 2, "segments", _forced(), "segments",
     "126a35a48a042cf3d783585c4b2a96608ba38ce7e976b24edbb185a712526eb6"),
    (build_extremal(2, 5), 2, "extend_predecessor_chord", _forced(Cycle((0, 1, 2))),
     "case0-extensions-absent",
     "cb755912ccd199c25d2163cb4a0ca2223c1d1927a17fa389b56bd5a76e97bb7f"),
    (build_extremal(2, 7), 2, "extend_predecessor_chord", _forced(Cycle((0, 1, 2))),
     "case1-extensions-absent",
     "19e00c51147852575c6695bb75a58a292d6a9de7a57260c85aab06ba4aabe56a"),
    (build_extremal(2, 5), 2, "recognize_extremal", lambda g: None, "case0-structure",
     "14dc4e25e90c9bb8281db7c6a28f3fcee1f2a934938165db01599366289d060f"),
    (build_extremal(2, 7), 2, "recognize_extremal", lambda g: None, "case1-structure",
     "d20f3d0b0f0e9035a6eb2845a185f7063074de3abeadd55a9e5bf59767df9b60"),
    (build_extremal(2, 8), 2, "extend_case1_rotation", _forced(Cycle((0, 1, 2))),
     "case1-propagate",
     "5ad0ccff81a30d247bb5859e7e56a7357728591ff73055060fbede6cf458458f"),
    (build_extremal(2, 7), 2, "segments", _two_long_segments, "case2-chord",
     "512503fda72edd9b58580fc3ebff1889d2c3d1bdbde80f9ab944213906360c1e"),
]


@pytest.mark.parametrize(
    "g, k, name, stand_in, step, digest", _FAILED_STEPS, ids=[case[4] for case in _FAILED_STEPS]
)
def test_trace_ends_at_each_failed_step(monkeypatch, g, k, name, stand_in, step, digest):
    # one name in theorem's namespace stands in so that one step fails;
    # the trace ends with that step's FAIL and the conclusion, and its
    # text is pinned as it was printed before any trace rewrite
    monkeypatch.setattr(theorem, name, stand_in)
    text = format_trace(trace_proof(g, k))
    lines = text.splitlines()
    assert lines[-2].split()[2:4] == [step, "FAIL"]
    assert lines[-1] == "conclusion inconsistent"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_case1_contradiction_coloring_on_the_rotated_view(monkeypatch):
    # on an extremal graph less one edge from the first successor u1+ to
    # another attachment, case 1 must find u1+ missing that attachment and
    # an explicit proper (n - k - 1)-coloring, whichever segment is long;
    # the hypothesis (chi >= n - k) no longer holds, so the edge is taken
    # out only once the trace enters case 1
    case1 = theorem._trace_case1
    rotated = []

    def less_one_edge(g, k, c, fan, decomp, big_index, *rest):
        u1 = fan.attachments[big_index - 1]
        u = next(u for u in fan.attachments[:k] if u != u1)
        pair = {c.successor(u1), u}
        h = with_edges(g.n, [e for e in g.edges() if set(e) != pair])
        assert chromatic_number(h)[0] == g.n - k - 1
        rotated.append(big_index != 1)
        return case1(h, k, c, fan, decomp, big_index, *rest)

    monkeypatch.setattr(theorem, "_trace_case1", less_one_edge)
    rng = random.Random(0)
    for k in (2, 3):
        for n in range(2 * k + 2, 2 * k + 6):
            for _ in range(4):
                g = relabeled(build_extremal(k, n), rng)
                lines = format_trace(trace_proof(g, k)).splitlines()
                assert lines[-2].split()[2:4] == ["case1-hub-clique", "FAIL"]
                assert lines[-2].endswith("coloring_valid=True"), lines[-2]
    assert any(rotated) and not all(rotated)


@pytest.mark.parametrize(
    "g, k",
    [
        (complete_graph(6), 3),
        (build_extremal(2, 7), 2),
        (relabeled(build_extremal(3, 9), random.Random(9)), 3),
    ],
    ids=["hamiltonian", "extremal-2-7", "relabeled-extremal-3-9"],
)
def test_trace_fills_the_path_table_from_zero_once(monkeypatch, g, k):
    # Hamiltonicity comes from the longest cycle's own table
    starts = []
    fill = cycles._path_ends

    def counted(h, s):
        starts.append(s)
        return fill(h, s)

    monkeypatch.setattr(cycles, "_path_ends", counted)
    trace = trace_proof(g, k)
    assert trace.all_passed
    assert starts.count(0) == 1


def test_certify_and_trace_payloads_golden():
    # frozen before both cycle solvers read one path table: certificate
    # and trace text over the extremal grid up to n = 16, canonical and
    # relabeled
    rng = random.Random(16)
    digest = hashlib.sha256()
    for k in range(2, 6):
        for n in range(2 * k + 1, 17):
            g = build_extremal(k, n)
            for h in (g, relabeled(g, rng)):
                digest.update(format_certificate(h, certify(h, k)).encode())
                digest.update(format_trace(trace_proof(h, k)).encode())
    assert digest.hexdigest() == "9b71ab26280b89aa8be146e5bdf3a53c578d8b5123a10c55ae89ddec1ade398a"


def test_format_trace_is_line_oriented():
    t = trace_proof(build_extremal(2, 5), 2)
    text = format_trace(t)
    lines = text.strip().splitlines()
    assert lines[-1].startswith("conclusion ")
    assert all(line.startswith(("step ", "conclusion ")) for line in lines)
    assert all(" PASS " in line or " FAIL " in line for line in lines[:-1])
