"""Acceptance criteria, one test per criterion.

Every test computes its own evidence, records a one-line verdict for the
terminal summary, and then asserts.  The verdict is recorded before the
assertion so a red run still shows which criterion broke and how.
"""

import random
import time
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from hamcert.graph6 import parse_graph6, to_graph6
from hamcert.graphs import (
    complete_graph,
    from_edge_mask,
    is_clique,
    mask_of,
    triangle_pairs,
    with_edges,
)
from hamcert.invariants import (
    PathSystem,
    chromatic_number,
    independence_number,
    menger_fan,
    vertex_connectivity,
)
from hamcert.cycles import (
    Cycle,
    extend_case1_rotation,
    extend_offcycle,
    extend_predecessor_chord,
    find_hamiltonian_cycle,
    is_valid_cycle,
    longest_cycle,
    segments,
)
from hamcert.harness import _kappa_lanes, verify_order
from hamcert.theorem import (
    build_extremal,
    recognize_extremal,
    trace_proof,
    validate_extremal_partition,
)

from tests.conftest import extremal_certificates, random_graph, record_verdict
from tests.oracles import (
    oracle_chromatic,
    oracle_edge_lanes,
    oracle_extend_case1_rotation,
    oracle_extend_predecessor_chord,
    oracle_hamiltonian_cycle,
    oracle_independence_number,
    oracle_mask_clique_alpha,
    oracle_mask_rows,
    oracle_vertex_connectivity,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def theorem_sweep():
    """Shared full sweep for criteria 1 and 6: reports per order plus
    every (graph6, k) pair that received an extremal certificate."""
    started = time.perf_counter()
    with extremal_certificates() as extremal_hits:
        reports = {n: verify_order(n, (2, n - 1)) for n in range(4, 8)}
    return reports, extremal_hits, time.perf_counter() - started


def test_criterion_1_exhaustive_sweep(theorem_sweep):
    reports, _, elapsed = theorem_sweep
    total = sum(r.total_graphs for r in reports.values())
    cex = sum(len(r.counterexamples) for r in reports.values())
    lemma1 = sum(r.lemma1_violations for r in reports.values())
    balanced = all(r.consistent() for r in reports.values())
    expected_total = sum(1 << (n * (n - 1) // 2) for n in range(4, 8))
    ok = (
        total == expected_total
        and cex == 0
        and lemma1 == 0
        and balanced
        and elapsed < 300.0
    )
    record_verdict(
        f"[1] exhaustive sweep n=4..7 k=2..n-1: {total} graphs, "
        f"{cex} counterexamples, {lemma1} lemma1 violations, "
        f"{elapsed:.3f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert total == expected_total
    assert cex == 0, [r.counterexamples for r in reports.values()]
    assert lemma1 == 0
    assert balanced
    assert elapsed < 300.0


def test_criterion_2_streamed_order_eight():
    path = DATA_DIR / "graph8.g6"
    started = time.perf_counter()
    with path.open(encoding="ascii") as handle:
        report = verify_order(8, (2, 7), stream=handle)
    elapsed = time.perf_counter() - started
    totals = (
        report.hypothesis_hits,
        report.hamiltonian,
        report.extremal,
        report.lemma1_violations,
    )
    expected = ({2: 65, 3: 381, 4: 352, 5: 39, 6: 5, 7: 1}, 841, 2, 0)
    ok = (
        report.total_graphs == 12346
        and totals == expected
        and report.errors == []
        and len(report.counterexamples) == 0
        and report.consistent()
        and elapsed < 600.0
    )
    record_verdict(
        f"[2] streamed sweep n=8: {report.total_graphs} classes, "
        f"{report.hits_total} hits ({report.hamiltonian} hamiltonian, "
        f"{report.extremal} extremal), "
        f"{len(report.counterexamples)} counterexamples, "
        f"{elapsed:.3f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert report.total_graphs == 12346
    assert totals == expected
    assert report.errors == []
    assert report.counterexamples == []
    assert report.consistent()
    assert elapsed < 600.0


def test_criterion_3_extremal_grid():
    cells = 0
    failures = []
    for k in range(2, 6):
        for n in range(2 * k + 1, 2 * k + 9):
            g = build_extremal(k, n)
            cells += 1
            if chromatic_number(g)[0] != n - k:
                failures.append((k, n, "chi"))
            if independence_number(g)[0] != k + 1:
                failures.append((k, n, "alpha"))
            if vertex_connectivity(g) != k:
                failures.append((k, n, "kappa"))
            if find_hamiltonian_cycle(g) is not None:
                failures.append((k, n, "hamiltonian"))
            recognized = recognize_extremal(g)
            if recognized is None or recognized[0] != k:
                failures.append((k, n, "recognize"))
            elif validate_extremal_partition(g, k, recognized[1]):
                failures.append((k, n, "partition"))
    # the proof trace at the top of the exact longest-cycle range
    started = time.perf_counter()
    for k in range(2, 6):
        trace = trace_proof(build_extremal(k, 16), k)
        if not (trace.all_passed and trace.conclusion.startswith("extremal (")):
            failures.append((k, 16, "trace"))
    trace_s = time.perf_counter() - started
    ok = not failures
    record_verdict(
        f"[3] extremal grid k=2..5 n=2k+1..2k+8: {cells} cells, "
        f"traces at n=16 in {trace_s:.2f}s, "
        f"{len(failures)} failures -> {'PASS' if ok else 'FAIL'}"
    )
    assert failures == []


def test_criterion_4_solver_oracle_agreement():
    mismatches = []
    checked = 0

    def compare(g, tag):
        nonlocal checked
        checked += 1
        if chromatic_number(g)[0] != oracle_chromatic(g):
            mismatches.append((tag, "chromatic"))
        if independence_number(g)[0] != oracle_independence_number(g):
            mismatches.append((tag, "independence"))
        if vertex_connectivity(g) != oracle_vertex_connectivity(g):
            mismatches.append((tag, "connectivity"))
        if g.n >= 3:
            ours = find_hamiltonian_cycle(g) is not None
            theirs = oracle_hamiltonian_cycle(g) is not None
            if ours != theirs:
                mismatches.append((tag, "hamiltonian"))

    exhaustive = 0
    for n in range(1, 7):
        for em in range(1 << (n * (n - 1) // 2)):
            compare(from_edge_mask(n, em), f"n={n} em={em}")
            exhaustive += 1

    rng = random.Random(20260822)
    randomized = 0
    for n in (7, 8):
        for p in (0.2, 0.5, 0.8):
            for _ in range(500):
                g = random_graph(n, p, rng)
                compare(g, f"random n={n} p={p}")
                randomized += 1

    ok = not mismatches and exhaustive == 33867 and randomized == 3000
    record_verdict(
        f"[4] solver vs oracle: {exhaustive} exhaustive (n<=6) + "
        f"{randomized} random (n=7,8), {len(mismatches)} mismatches "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    assert exhaustive == 33867
    assert randomized == 3000
    assert mismatches == []


# --- criterion 5 support: whole-population circumference witnesses ----------


def _cycle_edge_masks_by_subset(n):
    """subset bitmask -> edge masks of every distinct cyclic order."""
    idx = {pair: i for i, pair in enumerate(triangle_pairs(n))}
    table = {}
    for s in range(1 << n):
        verts = [v for v in range(n) if s >> v & 1]
        if len(verts) < 3:
            continue
        first, rest = verts[0], verts[1:]
        ems = []
        for perm in permutations(rest):
            if perm[0] > perm[-1]:
                continue
            order = (first,) + perm
            em = 0
            for i, a in enumerate(order):
                b = order[(i + 1) % len(order)]
                em |= 1 << idx[(min(a, b), max(a, b))]
            ems.append(em)
        table[s] = ems
    return table


def _connected_mask(rows, n, full):
    seen = np.full(rows[0].shape, 1, np.uint8)
    for _ in range(n - 1):
        for v in range(n):
            seen |= ((seen >> np.uint8(v)) & np.uint8(1)) * rows[v]
    return seen == np.uint8(full)


def _alpha_kappa_survivors(n):
    """Masks of every 2-connected order-n graph with alpha = kappa + 1,
    with their alpha values."""
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
    rows = oracle_mask_rows(masks, n)
    full = (1 << n) - 1
    mindeg = np.bitwise_count(rows[0])
    for v in range(1, n):
        mindeg = np.minimum(mindeg, np.bitwise_count(rows[v]))
    conn = _connected_mask(rows, n, full)
    _, alpha = oracle_mask_clique_alpha(masks, n)
    pre = conn & (mindeg >= 2) & (alpha >= 3)  # alpha = kappa+1 >= 3 when kappa >= 2
    idx = np.nonzero(pre)[0]
    if idx.size == 0:
        return np.zeros(0, np.uint32)
    at_least = _kappa_lanes(oracle_edge_lanes(n, masks[idx].tolist()), n, n - 1, (1 << idx.size) - 1)
    # the graphs are connected and kappa <= n - 1, so it is 1 plus the
    # number of k in 2..n-1 it reaches
    kappa = np.ones(idx.size, np.uint8)
    for lanes in at_least.values():
        kappa += np.unpackbits(
            np.frombuffer(lanes.to_bytes((idx.size + 7) // 8, "little"), np.uint8),
            count=idx.size, bitorder="little",
        )
    match = (kappa >= 2) & (kappa.astype(np.int16) + 1 == alpha[idx].astype(np.int16))
    return masks[idx[np.nonzero(match)[0]]]


def test_criterion_5_off_cycle_completeness():
    subset_pairs = {
        n: {
            s: np.uint32(sum(1 << i for i, (a, b) in enumerate(triangle_pairs(n))
                             if s >> a & 1 and s >> b & 1))
            for s in range(1 << n)
        }
        for n in range(3, 8)
    }
    violations = []
    survivors_total = 0
    cross_checked = 0
    for n in range(3, 8):
        smasks = _alpha_kappa_survivors(n)
        survivors_total += int(smasks.size)
        if smasks.size == 0:
            continue
        cycle_table = _cycle_edge_masks_by_subset(n)
        circ = np.zeros(smasks.shape, np.uint8)
        witness = np.zeros(smasks.shape, np.uint32)
        for size in range(n, 2, -1):
            open_slots = circ == 0
            if not open_slots.any():
                break
            for s, ems in cycle_table.items():
                if s.bit_count() != size:
                    continue
                contained = np.zeros(smasks.shape, bool)
                for em in ems:
                    em32 = np.uint32(em)
                    contained |= (smasks & em32) == em32
                fresh = contained & (circ == 0)
                circ[fresh] = size
                witness[fresh] = s
        assert int((circ == 0).sum()) == 0  # 2-connected graphs have cycles
        full = (1 << n) - 1
        for s in sorted(set(witness.tolist())):
            rows_here = np.nonzero(witness == s)[0]
            off_clique = subset_pairs[n][full ^ s]
            bad = (smasks[rows_here] & off_clique) != off_clique
            for i in rows_here[np.nonzero(bad)[0]].tolist():
                violations.append((n, int(smasks[i])))
        # subsample: the package longest-cycle solver must agree with the
        # vectorized circumference and exhibit the same completeness
        for i in range(0, int(smasks.size), 97):
            g = from_edge_mask(n, int(smasks[i]))
            c = longest_cycle(g)
            assert len(c) == int(circ[i])
            off = g.vertex_mask ^ mask_of(c.vertices)
            assert is_clique(g, off)
            cross_checked += 1
    ok = not violations
    record_verdict(
        f"[5] off-cycle completeness (2-connected, alpha=kappa+1, n<=7): "
        f"{survivors_total} graphs, {cross_checked} solver cross-checks, "
        f"{len(violations)} violations -> {'PASS' if ok else 'FAIL'}"
    )
    assert violations == []


def test_criterion_6_trace_soundness(theorem_sweep):
    reports, extremal_hits, _ = theorem_sweep
    expected = sum(r.extremal for r in reports.values())
    case_counts = {"extremal (n = 2k+1)": 0, "extremal (n >= 2k+2)": 0}
    failed_steps = 0
    missing_absence = 0
    for g6, k in extremal_hits:
        g = parse_graph6(g6)
        trace = trace_proof(g, k)
        failed_steps += sum(1 for step in trace.steps if not step.passed)
        if trace.conclusion in case_counts:
            case_counts[trace.conclusion] += 1
        names = {step.name for step in trace.steps}
        # the rules-stay-silent assertion must be part of every trace
        if not ({"case0-extensions-absent", "case1-extensions-absent"} & names):
            missing_absence += 1
    ok = (
        len(extremal_hits) == expected
        and expected > 0
        and failed_steps == 0
        and missing_absence == 0
        and sum(case_counts.values()) == expected
    )
    record_verdict(
        f"[6] trace soundness: {len(extremal_hits)} non-hamiltonian hits traced, "
        f"{case_counts['extremal (n = 2k+1)']} case-0 + "
        f"{case_counts['extremal (n >= 2k+2)']} case-1 conclusions, "
        f"{failed_steps} failed steps -> {'PASS' if ok else 'FAIL'}"
    )
    assert len(extremal_hits) == expected
    assert expected > 0
    assert failed_steps == 0
    assert missing_absence == 0
    assert sum(case_counts.values()) == expected


def _random_rule_config(rng):
    n = rng.randint(5, 10)
    if rng.random() < 0.5:
        # dense regime with a long planted cycle: the chord and rotation
        # rules need crowded segments before they can ever fire
        cycle_len = rng.randint(max(3, n - 3), n - 1)
        p = rng.choice((0.5, 0.7))
    else:
        cycle_len = rng.randint(3, n - 1)
        p = rng.choice((0.15, 0.3, 0.5))
    verts = rng.sample(range(n), n)
    cyc = verts[:cycle_len]
    hub = verts[cycle_len]
    edges = {
        (u, v)
        for u, v in combinations(range(n), 2)
        if rng.random() < p
    }
    for i in range(cycle_len):
        a, b = cyc[i], cyc[(i + 1) % cycle_len]
        edges.add((min(a, b), max(a, b)))
    planted = rng.sample(cyc, rng.randint(2, min(cycle_len, 4)))
    for a in planted:
        edges.add((min(hub, a), max(hub, a)))
    g = with_edges(n, sorted(edges))
    c = Cycle(tuple(cyc))
    if rng.random() < 0.2:
        return g, c, menger_fan(g, hub, c, 2)
    if rng.random() < 0.5:
        # lean fan: long segments between few attachments
        pool = sorted(set(planted))
    else:
        pool = [v for v in cyc if g.has_edge(hub, v)]
    pos = {v: i for i, v in enumerate(cyc)}
    base = pos[min(pool)]
    atts = tuple(sorted(pool, key=lambda a: (pos[a] - base) % cycle_len))
    return g, c, PathSystem(hub, tuple((hub, a) for a in atts), atts)


def test_criterion_7_extension_rule_safety():
    # a rule output that is not a longer valid cycle is a violation, and so
    # is a chord or rotation output, at every y index, that differs from
    # the rule's as it was when it built its own decomposition from (c, fan)
    rng = random.Random(718281828)
    configs = 0
    violations = []
    fired = {"offcycle": 0, "chord": 0, "rotation": 0}

    def check(rule, g, c, out):
        if out is None:
            return
        fired[rule] += 1
        if not (is_valid_cycle(g, out) and len(out) > len(c)):
            violations.append((rule, g.adj, c.vertices, out))

    while configs < 10200:
        g, c, fan = _random_rule_config(rng)
        configs += 1
        off = [
            z
            for z in range(g.n)
            if z != fan.hub and z not in c and g.has_edge(fan.hub, z)
        ]
        if off:
            check("offcycle", g, c, extend_offcycle(g, c, fan, rng.choice(off)))
        try:
            decomp = segments(c, fan, len(fan.attachments))
        except ValueError:
            decomp = None
        chord = None if decomp is None else extend_predecessor_chord(g, decomp)
        if chord != oracle_extend_predecessor_chord(g, c, fan):
            violations.append(("chord oracle", g.adj, c.vertices, chord))
        check("chord", g, c, chord)
        if decomp is not None and len(decomp.big_segment_indices) == 1:
            seg = decomp.segments[min(decomp.big_segment_indices) - 1]
            y_index = rng.randint(1, len(seg) - 1)
            check("rotation", g, c, extend_case1_rotation(g, decomp, y_index))
            for y in range(1, len(seg)):
                out = extend_case1_rotation(g, decomp, y)
                if out != oracle_extend_case1_rotation(g, c, fan, y):
                    violations.append(("rotation oracle", g.adj, c.vertices, out))

    ok = configs >= 10000 and not violations and all(v > 0 for v in fired.values())
    record_verdict(
        f"[7] extension-rule safety: {configs} random configs, "
        f"fired offcycle={fired['offcycle']} chord={fired['chord']} "
        f"rotation={fired['rotation']}, {len(violations)} violations "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    assert configs >= 10000
    assert violations == []
    # the test has no teeth unless each rule actually produced cycles
    assert all(v > 0 for v in fired.values()), fired


def test_criterion_8_graph6_round_trip():
    mismatches = 0
    count = 0
    for n in range(0, 7):
        for em in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, em)
            text = to_graph6(g)
            back = parse_graph6(text)
            if back.n != g.n or back.adj != g.adj or to_graph6(back) != text:
                mismatches += 1
            count += 1
    vectors_ok = (
        parse_graph6("?").n == 0
        and to_graph6(with_edges(0, [])) == "?"
        and parse_graph6("C~").adj == complete_graph(4).adj
        and to_graph6(complete_graph(4)) == "C~"
    )
    ok = mismatches == 0 and count == 33868 and vectors_ok
    record_verdict(
        f"[8] graph6 round-trip: {count} graphs n<=6 byte-exact, "
        f"documented vectors ok={vectors_ok}, {mismatches} mismatches "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    assert count == 33868
    assert mismatches == 0
    assert vectors_ok
