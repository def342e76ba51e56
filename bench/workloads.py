"""The four benchmark workloads: seeded inputs, items, and exact checks.

A workload's ``build`` turns a seed into a ``Plan``: the list of items
one pass runs, in order, and the warm-up items run during set-up.  An
item is one CLI command (through ``hamcert.cli.run``) or one solver
call.  Items look up hamcert functions through the module objects at
call time, so the traced run sees the wrappers it installs.  Each item
carries its own check, which sees the item's output and the outputs of
the whole pass (solvers-mid checks pairs of items against each other).

The inputs are produced here, with the benchmark's own graph6 codec and
its own random generator, so the program only ever sees finished inputs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, list], str | None]


@dataclass
class Plan:
    items: list[Item]
    warmup: list[Item]
    note: str = ""


# ---------------------------------------------------------------------------
# graph6 codec and graph helpers, independent of the program


def g6_encode(n: int, edges) -> str:
    """graph6 line of a graph on 0..n-1 (n <= 62)."""
    have = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in have else 0 for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [63 + n]
    for t in range(0, len(bits), 6):
        chunk = 0
        for b in bits[t:t + 6]:
            chunk = chunk << 1 | b
        out.append(63 + chunk)
    return bytes(out).decode("ascii")


def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    data = text.strip().encode("ascii")
    n = data[0] - 63
    edges = []
    t = 0
    for j in range(n):
        for i in range(j):
            if (data[1 + t // 6] - 63) >> (5 - t % 6) & 1:
                edges.append((i, j))
            t += 1
    return n, edges


def relabel(edges, perm) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def extremal_edges(k: int, n: int) -> list[tuple[int, int]]:
    """The extremal graph in the layout ``hamcert extremal`` emits: join
    clique 0..k-1, independent set k..2k-1, clique 2k..n-1."""
    a = range(k)
    c = range(2 * k, n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if u in a]
    edges += [(u, v) for u in c for v in c if u < v]
    return edges


def gnp_edges(rng: random.Random, n: int, p: float, plant: bool) -> list[tuple[int, int]]:
    """G(n, p), redrawn until it has at least n edges (so it has a cycle);
    with plant, a random Hamiltonian cycle is added."""
    while True:
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        if plant:
            order = permutation(rng, n)
            for i in range(n):
                u, v = order[i], order[(i + 1) % n]
                edges.add((min(u, v), max(u, v)))
        if len(edges) >= n:
            return sorted(edges)


def cycle_problem(n: int, edges, cycle, need_all: bool) -> str | None:
    """Check a returned cycle edge by edge against the input edges."""
    have = {(min(u, v), max(u, v)) for u, v in edges}
    seq = list(cycle.vertices)
    if len(seq) < 3 or len(set(seq)) != len(seq) or not all(0 <= v < n for v in seq):
        return f"not a simple cycle: {seq}"
    for i, u in enumerate(seq):
        v = seq[(i + 1) % len(seq)]
        if (min(u, v), max(u, v)) not in have:
            return f"cycle uses non-edge {u}-{v}"
    if need_all and len(seq) != n:
        return f"cycle covers {len(seq)} of {n} vertices"
    return None


# ---------------------------------------------------------------------------
# sweep-n7 and stream-n8: one verify command per pass


def verify_totals(payload: str) -> dict:
    """The counts of a ``verify`` summary, keyed by field."""
    out = {"input errors": 0}
    for line in payload.splitlines():
        m = re.fullmatch(r"hypothesis hits \d+ \((.*)\)", line)
        if m:
            out["hits"] = {int(k): int(v) for k, v in re.findall(r"k=(\d+):(\d+)", m.group(1))}
            continue
        m = re.fullmatch(r"(graphs|hamiltonian|extremal|counterexamples|lemma1 violations|input errors) (\d+)", line)
        if m:
            out[m.group(1)] = int(m.group(2))
    return out


def verify_check(expected: dict):
    def check(outcome, _outputs):
        if outcome.exit_code != 0:
            return f"exit code {outcome.exit_code}"
        got = verify_totals(outcome.payload)
        if got != expected:
            return f"totals {got} != expected {expected}"
        return None

    return check


SWEEP_N7 = {
    "graphs": 2_097_152,
    "hits": {2: 26_804, 3: 153_801, 4: 14_956, 5: 232, 6: 1},
    "hamiltonian": 195_549,
    "extremal": 245,
    "counterexamples": 0,
    "lemma1 violations": 0,
    "input errors": 0,
}

SWEEP_N6 = {
    "graphs": 32_768,
    "hits": {2: 3168, 3: 1758, 4: 76, 5: 1},
    "hamiltonian": 4913,
    "extremal": 90,
    "counterexamples": 0,
    "lemma1 violations": 0,
    "input errors": 0,
}

STREAM_N8 = {
    "graphs": 12_346,
    "hits": {2: 65, 3: 381, 4: 352, 5: 39, 6: 5, 7: 1},
    "hamiltonian": 841,
    "extremal": 2,
    "counterexamples": 0,
    "lemma1 violations": 0,
    "input errors": 0,
}


def build_sweep_n7(seed, hc, root: Path, work: Path) -> Plan:
    cli = hc.cli
    return Plan(
        items=[Item("verify --n 7", lambda: cli.run(["verify", "--n", "7"]), verify_check(SWEEP_N7))],
        warmup=[Item("verify --n 6", lambda: cli.run(["verify", "--n", "6"]), verify_check(SWEEP_N6))],
        note="the internal sweep enumerates every labeled graph; the seed changes nothing",
    )


STREAM_SOURCE = Path("tests") / "data" / "graph8.g6"
STREAM_WARMUP_LINES = 256


def build_stream_n8(seed, hc, root: Path, work: Path) -> Plan:
    rng = random.Random(seed)
    lines = []
    for text in (root / STREAM_SOURCE).read_text(encoding="ascii").split():
        n, edges = g6_decode(text)
        lines.append(g6_encode(n, relabel(edges, permutation(rng, n))))
    rng.shuffle(lines)
    path = work / f"stream-n8-seed{seed}.g6"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    head = work / f"stream-n8-seed{seed}-head.g6"
    head.write_text("\n".join(lines[:STREAM_WARMUP_LINES]) + "\n", encoding="ascii")
    cli = hc.cli

    def warm_check(outcome, _outputs):
        got = verify_totals(outcome.payload)
        if outcome.exit_code != 0 or got.get("graphs") != STREAM_WARMUP_LINES:
            return f"warm-up over {STREAM_WARMUP_LINES} lines failed: {got}"
        return None

    return Plan(
        items=[Item(
            "verify --n 8 --stream",
            lambda: cli.run(["verify", "--n", "8", "--stream", str(path)]),
            verify_check(STREAM_N8),
        )],
        warmup=[Item(
            "verify --n 8 --stream head",
            lambda: cli.run(["verify", "--n", "8", "--stream", str(head)]),
            warm_check,
        )],
    )


# ---------------------------------------------------------------------------
# trace-grid: certify and trace on extremal graphs


def trace_grid_cells() -> list[tuple[int, int]]:
    """k = 2 at n = 5..16; k = 3..5 at n = 2k+1..14 (n = 15 costs 11-18 s
    per canonical trace, which no run length here can hold)."""
    cells = [(2, n) for n in range(5, 17)]
    cells += [(k, n) for k in range(3, 6) for n in range(2 * k + 1, 15)]
    return cells


# Relabeled copies stop here.  From n = 12 the longest-cycle DFS is slow
# on some random labelings: at n = 12 and 13 one labeling now and then
# costs as much as the canonical layout's slow cells (the slowest of 150
# labelings per cell took 0.55 s), and from n = 14 it blows up (k = 2,
# n = 16: 4 of 12 labelings over 3 s, one over 6 minutes).  One such
# draw moved item_tail_s by up to twofold, so with them the tail followed
# the seed instead of the program.
RELABEL_MAX_ORDER = 11


def certify_check(hc, g6: str, k: int):
    def check(outcome, _outputs):
        if outcome.exit_code != 0:
            return f"certify exit code {outcome.exit_code}: {outcome.payload[:200]}"
        try:
            g, cert = hc.theorem.parse_certificate(outcome.payload)
        except ValueError as err:
            return f"certificate does not parse: {err}"
        if hc.graph6.to_graph6(g) != g6:
            return "certificate names another graph"
        if cert.kind != "extremal" or cert.k != k:
            return f"certificate kind {cert.kind} k {cert.k}, expected extremal k {k}"
        problems = hc.theorem.validate_certificate(g, cert)
        return f"certificate invalid: {problems}" if problems else None

    return check


def trace_check(outcome, _outputs):
    if outcome.exit_code != 0:
        return f"trace exit code {outcome.exit_code}"
    lines = outcome.payload.splitlines()
    steps = [line.split() for line in lines if line.startswith("step ")]
    if not steps or any(len(s) < 4 or s[3] != "PASS" for s in steps):
        return "a trace step did not pass"
    if not lines[-1].startswith("conclusion extremal ("):
        return f"trace concluded {lines[-1]!r}"
    return None


def build_trace_grid(seed, hc, root: Path, work: Path) -> Plan:
    rng = random.Random(seed)
    cli = hc.cli
    items = []
    for k, n in trace_grid_cells():
        edges = extremal_edges(k, n)
        # canonical layout kept on purpose: it is where the lex-least
        # longest-cycle reconstruction is slowest
        layouts = [("canonical", g6_encode(n, edges))]
        if n <= RELABEL_MAX_ORDER:
            layouts.append(("relabeled", g6_encode(n, relabel(edges, permutation(rng, n)))))
        for layout, g6 in layouts:
            label = f"k={k} n={n} {layout}"
            items.append(Item(
                f"certify {label}",
                lambda g6=g6, k=k: cli.run(["certify", g6, "--k", str(k)]),
                certify_check(hc, g6, k),
            ))
            items.append(Item(
                f"trace {label}",
                lambda g6=g6, k=k: cli.run(["trace", g6, "--k", str(k)]),
                trace_check,
            ))
    return Plan(items=items, warmup=items[:2])


# ---------------------------------------------------------------------------
# solvers-mid: the subset-DP solvers above order 8

SPARSE, MEDIUM, DENSE = 0.25, 0.45, 0.7
PAIR_ORDERS = range(13, 17)   # longest_cycle's stated limit is 16
PAIR_GRAPHS = 4               # graphs per (order, density) cell
PLANTED_ORDERS = range(17, 21)
EXTREMAL_ORDERS = range(14, 21)


def build_solvers_mid(seed, hc, root: Path, work: Path) -> Plan:
    """Items, in order:

    - for n = 13..16: find_hamiltonian_cycle and longest_cycle on the
      same G(n, p); each answer is checked against the other, since
      longest_cycle is exact up to order 16;
    - for n = 17..20: find_hamiltonian_cycle on G(n, p) with a planted
      Hamiltonian cycle, which must be found;
    - for n = 14..20: find_hamiltonian_cycle on a relabeled
      build_extremal(3, n), which must answer None.

    Orders 21 and 22 (about 3.7 s and 8 s a pass) are left out so that a
    run holds several passes.
    """
    rng = random.Random(seed)
    cycles = hc.cycles
    items: list[Item] = []

    def ham_item(label, n, edges, expect):
        g = hc.graphs.with_edges(n, edges)

        def check(cycle, outputs):
            if cycle is not None:
                return cycle_problem(n, edges, cycle, need_all=True)
            if expect == "found":
                return "no Hamiltonian cycle returned for a Hamiltonian graph"
            if expect == "extremal":
                return None
            partner = outputs[expect]
            if partner is not None and len(partner.vertices) < n:
                return None
            return "None answer not backed by a longest cycle shorter than n"

        return Item(label, lambda: cycles.find_hamiltonian_cycle(g), check)

    def longest_item(label, n, edges, ham_index):
        g = hc.graphs.with_edges(n, edges)

        def check(cycle, outputs):
            problem = cycle_problem(n, edges, cycle, need_all=False)
            if problem:
                return problem
            hamiltonian = outputs[ham_index] is not None
            if (len(cycle.vertices) == n) != hamiltonian:
                return f"longest cycle has {len(cycle.vertices)} of {n}, hamiltonian={hamiltonian}"
            return None

        return Item(label, lambda: cycles.longest_cycle(g), check)

    for n in PAIR_ORDERS:
        for p in (SPARSE, MEDIUM, DENSE):
            for rep in range(PAIR_GRAPHS):
                edges = gnp_edges(rng, n, p, plant=False)
                label = f"n={n} p={p} #{rep}"
                here = len(items)
                items.append(ham_item(f"find_hamiltonian_cycle {label}", n, edges, here + 1))
                items.append(longest_item(f"longest_cycle {label}", n, edges, here))
    for n in PLANTED_ORDERS:
        for p in (SPARSE, MEDIUM, DENSE):
            edges = gnp_edges(rng, n, p, plant=True)
            items.append(ham_item(f"find_hamiltonian_cycle n={n} p={p} planted", n, edges, "found"))
    for n in EXTREMAL_ORDERS:
        edges = relabel(extremal_edges(3, n), permutation(rng, n))
        items.append(ham_item(f"find_hamiltonian_cycle extremal(3, {n})", n, edges, "extremal"))
    return Plan(items=items, warmup=items[:2])


WORKLOADS = {
    "sweep-n7": build_sweep_n7,
    "stream-n8": build_stream_n8,
    "trace-grid": build_trace_grid,
    "solvers-mid": build_solvers_mid,
}
