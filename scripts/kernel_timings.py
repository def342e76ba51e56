"""Time each exact lane kernel of the harness against its single-graph
solver: the table that the _LANE_KERNEL_MAX_ORDER comment in
src/hamcert/harness.py cites.

The inputs are the candidates of seeded G(n, 0.8) streams, the graphs
that the cheap stages leave for the exact ones with the k window
(2, n - 1), in a block of 4,096 and alone (the block's first).  Each
kernel runs as _exact_stages runs it, against the solver that fills the
same lanes above the threshold:

    chi    _chromatic_lanes to n - 2   vs  chromatic_number
    kappa  _kappa_lanes capped at n - 1  vs  vertex_connectivity, stopped
           below max(2, n - chi)
    ham    _hamiltonian_lanes          vs  find_hamiltonian_cycle

Hamiltonicity is timed on every candidate, not on the hits alone.  The
times are the best of 3 runs in milliseconds (a solver block runs once).

With --caps it prints instead, on the same blocks, _kappa_lanes against
the cut-set reference kernel tests.oracles.oracle_kappa_lanes at every
cap from 2 to n - 1: the vertex sets K that _kappa_lanes counts over are
the same at every cap, while the cut sets below a small cap are few.

With --sweep it prints instead the time and the minor page faults
(ru_minflt) of a warm verify_order(n) call, n = 7 by default, split into
the parts of the internal sweep, each timed by wrapping its functions:

    chi table       _chromatic_table: the exact chi table on the
                    order-(n - 1) parents
    cover levels    _cover_levels: Lawler's cover levels that the chi
                    table reads, each level timed as it is computed
    complement bound
                    _first_fit_lanes: first fit on the parents'
                    complements, the bound on chi of the complement
    kappa table     _kappa_table: the kappa >= k table of each k
    ham table       _hamiltonian_table: the Hamiltonicity table
    neighbourhoods  _settle_neighbourhood: the lookups, lemma 1 and the
                    tally of each neighbourhood of vertex n - 1, its
                    replays included
    lemma 1         _coloring_open: the lanes that exact chi and the
                    bound on chi of the complement leave open
    tally           _tally: the hit counts and the walk that gathers the
                    replays, without the replays themselves
    lane walk       iter_bits, in harness's namespace: the lanes of each
                    lane set that lemma 1 and the tally replay, walked
                    from the top
    replay graphs   from_edge_mask, in harness's namespace: the Graph of
                    each replayed mask
    replays         _replay: the certify replays of the non-Hamiltonian
                    hits

and the whole call.  Each is the median of 25 calls after a warm-up one.
Then, as "replay path", the graphs that the call replays, gathered once
with their ks, are decoded (from_edge_mask) and certified (certify) again
in a plain loop with no wrapper, and it prints the us per replayed graph
of the decode, of certify and of both, each the median of 25 loops.
The cover levels run inside the chi table; lemma 1, the tally, the lane
walk, the replay graphs and the replays inside the neighbourhoods, and
the tally's lane walks inside the tally, so their times are also counted
there, and so is the cost of wrapping them: at n = 7 the sweep makes
about 720 wrapped calls in its neighbourhoods, most of them replays,
their graphs and lane walks, and the wrapped call takes 7.0-7.2 ms
against 5.2 ms unwrapped (2-core host).  The header's note says so; the
replay path rows carry no such cost.

With --stream it prints the same for a warm verify_order(n, stream=...)
call on a graph6 file, tests/data/graph8.g6 and n = 8 by default, the
file opened as `verify --stream FILE` opens it:

    read            _stream_blocks: the chunk reads, the grid checks and
                    any line-by-line path
    lanes           pair_lanes, for the cheap stages and for _settle_block,
                    whose share is also counted in settle
    cheap           _cheap_stages on every block of lines
    settle          _settle_block: the exact stages on the candidates,
                    their lanes included

With --trace it prints the same for trace_proof over the extremal grid
build_extremal(k, n') for k = 2..5 and n' = 2k+1..n, n = 16 by default,
each canonical and under one seeded relabeling, the parts timed by
wrapping the names that theorem calls:

    longest cycle   longest_cycle, which also answers Hamiltonicity
    fan             menger_fan
    solvers         vertex_connectivity, chromatic_number and max_clique:
                    kappa and chi of the hypothesis, and omega and chi of
                    the complement in the equality chain
    segments        segments: the one decomposition of each trace
    extension rules extend_offcycle, extend_predecessor_chord and
                    extend_case1_rotation
    structure       recognize_extremal

Run from the repository root:
    python3 scripts/kernel_timings.py [--caps] [n ...]
(default orders 8 10 12 13), or
    python3 scripts/kernel_timings.py --sweep [n]
    python3 scripts/kernel_timings.py --stream [FILE] [n]
    python3 scripts/kernel_timings.py --trace [n]
"""

import inspect
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# hamcert lives under src/; the reference lane builders under tests/
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hamcert import harness, theorem  # noqa: E402
from hamcert.cycles import find_hamiltonian_cycle  # noqa: E402
from hamcert.graphs import from_edge_mask, iter_bits  # noqa: E402
from hamcert.invariants import chromatic_number, vertex_connectivity  # noqa: E402
from tests.conftest import relabeled  # noqa: E402
from tests.oracles import oracle_edge_lanes, oracle_kappa_lanes  # noqa: E402

BLOCK = 4096
DENSITY = 0.8
SWEEP_PARTS = {
    "chi table": ("_chromatic_table",),
    "cover levels": ("_cover_levels",),
    "complement bound": ("_first_fit_lanes",),
    "kappa table": ("_kappa_table",),
    "ham table": ("_hamiltonian_table",),
    "neighbourhoods": ("_settle_neighbourhood",),
    "lemma 1": ("_coloring_open",),
    "tally": ("_tally",),
    "lane walk": ("iter_bits",),
    "replay graphs": ("from_edge_mask",),
    "replays": ("_replay",),
}
STREAM_PARTS = {
    "read": ("_stream_blocks",),
    "lanes": ("pair_lanes",),
    "cheap": ("_cheap_stages",),
    "settle": ("_settle_block",),
}
TRACE_PARTS = {
    "longest cycle": ("longest_cycle",),
    "fan": ("menger_fan",),
    "solvers": ("vertex_connectivity", "chromatic_number", "max_clique"),
    "segments": ("segments",),
    "extension rules": ("extend_offcycle", "extend_predecessor_chord", "extend_case1_rotation"),
    "structure": ("recognize_extremal",),
}
PART_CALLS = 25
GRAPH8 = ROOT / "tests" / "data" / "graph8.g6"


def candidates(n, count):
    """The first count candidates of a G(n, 0.8) stream seeded by n."""
    rng = random.Random(n)
    pairs = n * (n - 1) // 2
    ks = range(2, n)
    found = []
    while len(found) < count:
        masks = [
            sum(1 << t for t in range(pairs) if rng.random() < DENSITY) for _ in range(BLOCK)
        ]
        report = harness.VerificationReport(hypothesis_hits={k: 0 for k in ks})
        every = (1 << BLOCK) - 1
        cand = harness._cheap_stages(
            report, n, ks, oracle_edge_lanes(n, masks), every,
            lambda i: from_edge_mask(n, masks[i]),
        )
        found += [masks[i] for i in iter_bits(cand)]
    return found[:count]


def best_ms(run, repeats=3):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return 1000 * min(times)


def timings(n, masks, solver_repeats):
    """{kernel: (kernel ms, solver ms)} on the lanes of masks."""
    adj = oracle_edge_lanes(n, masks)
    every = (1 << len(masks)) - 1
    graphs = [from_edge_mask(n, m) for m in masks]
    chi = [chromatic_number(g)[0] for g in graphs]
    return {
        "chi": (
            best_ms(lambda: harness._chromatic_lanes(adj, n, n - 2, every)),
            best_ms(lambda: [chromatic_number(g) for g in graphs], solver_repeats),
        ),
        "kappa": (
            best_ms(lambda: harness._kappa_lanes(adj, n, n - 1, every)),
            best_ms(
                lambda: [
                    vertex_connectivity(g, stop_below=max(2, n - x)) for g, x in zip(graphs, chi)
                ],
                solver_repeats,
            ),
        ),
        "ham": (
            best_ms(lambda: harness._hamiltonian_lanes(adj, every)),
            best_ms(lambda: [find_hamiltonian_cycle(g) for g in graphs], solver_repeats),
        ),
    }


def kappa_by_cap(n, masks):
    """{cap: (_kappa_lanes ms, oracle_kappa_lanes ms)}, caps 2 .. n - 1."""
    adj = oracle_edge_lanes(n, masks)
    every = (1 << len(masks)) - 1
    return {
        cap: (
            best_ms(lambda: harness._kappa_lanes(adj, n, cap, every)),
            best_ms(lambda: oracle_kappa_lanes(adj, n, cap, every)),
        )
        for cap in range(2, n)
    }


def part_times(module, call, table):
    """{part: [(s, minor faults), ...]} of each part of table, the
    functions of module that it names timed by wrapping them, and of the
    whole call, over PART_CALLS warm calls; a generator's time is that of
    its steps."""
    spent = {}

    def clocked(part, run, *args):
        # kept to a plain call: a wrapper's cost lands in the part that
        # encloses it, and the sweep makes hundreds of lane walks at n = 7
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        started = time.perf_counter()
        try:
            return run(*args)
        finally:
            row = spent[part]
            row[0] += time.perf_counter() - started
            row[1] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    def timed(run, part):
        def wrapped(*args):
            return clocked(part, run, *args)

        def stepped(*args):
            items = run(*args)
            while (item := clocked(part, next, items, stepped)) is not stepped:
                yield item
        return stepped if inspect.isgeneratorfunction(run) else wrapped

    originals = {name: getattr(module, name) for names in table.values() for name in names}
    for part, names in table.items():
        for name in names:
            setattr(module, name, timed(originals[name], part))
    rows = {part: [] for part in [*table, "call"]}
    try:
        whole = timed(call, "call")
        for turn in range(PART_CALLS + 1):
            spent.update((part, [0.0, 0]) for part in rows)
            whole()
            if turn:
                for part, row in rows.items():
                    row.append(spent[part])
    finally:
        for name, run in originals.items():
            setattr(module, name, run)
    return rows


def print_parts(n, rows, nested) -> None:
    """A header, whose note names the parts that run inside another
    (nested), then one row per part."""
    width = max(map(len, rows))
    print(f"{'n':>3} {'part':<{width}} {'ms':>8} {'faults':>8}   "
          f"(one call, median of {PART_CALLS}; {nested})")
    for part, row in rows.items():
        ms = 1000 * statistics.median(x for x, _ in row)
        print(f"{n:>3} {part:<{width}} {ms:>8.3f} {statistics.median(f for _, f in row):>8.0f}")


def replayed_graphs(n):
    """[(edge mask, ks), ...] of each graph that verify_order(n) replays
    through the certifier, in replay order."""
    replayed = []
    replay = harness._replay

    def gathered(report, g, graph_hits):
        replayed.append((g.edge_mask(), list(graph_hits)))
        return replay(report, g, graph_hits)

    harness._replay = gathered
    try:
        harness.verify_order(n)
    finally:
        harness._replay = replay
    return replayed


def replay_path_us(n):
    """(graphs replayed, {step: us per replayed graph}) of the replay path
    of verify_order(n) in a plain loop: the decode, certify and both,
    medians of PART_CALLS loops."""
    replayed = replayed_graphs(n)
    decode, certify = harness.from_edge_mask, harness.certify
    graphs = [(decode(n, mask), ks) for mask, ks in replayed]

    def both():
        for mask, ks in replayed:
            g = decode(n, mask)
            for k in ks:
                certify(g, k)

    steps = {
        "decode": lambda: [decode(n, mask) for mask, _ in replayed],
        "certify": lambda: [certify(g, k) for g, ks in graphs for k in ks],
        "both": both,
    }
    per = 1e6 / max(len(replayed), 1)
    out = {}
    for step, run in steps.items():
        run()
        times = []
        for _ in range(PART_CALLS):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        out[step] = per * statistics.median(times)
    return len(replayed), out


def sweep(n=7) -> None:
    """Print the ms and minor faults of each part of a warm verify_order(n)
    call and of the whole call, medians of PART_CALLS calls, then the us
    per replayed graph of its replay path, unwrapped."""
    print_parts(
        n, part_times(harness, lambda: harness.verify_order(n), SWEEP_PARTS),
        "cover levels run inside chi table; lemma 1, tally, lane walk, replay graphs and "
        "replays inside neighbourhoods; the tally's lane walks inside tally",
    )
    count, steps = replay_path_us(n)
    print(f"{'n':>3} {'replay path':<11} {'us':>8}   "
          f"(per replayed graph, {count} of them, plain loop, median of {PART_CALLS})")
    for step, us in steps.items():
        print(f"{n:>3} {step:<11} {us:>8.3f}")


def stream(path=GRAPH8, n=8) -> None:
    """Print the ms and minor faults of each part of a warm verify_order(n)
    call on the graph6 file at path and of the whole call, medians of
    PART_CALLS calls."""
    def call():
        with open(path, encoding="ascii", errors="surrogateescape") as handle:
            harness.verify_order(n, stream=handle)

    print_parts(n, part_times(harness, call, STREAM_PARTS), "settle's lanes run inside settle")


def trace(n=16) -> None:
    """Print the ms and minor faults of each part of trace_proof over the
    extremal grid up to order n, canonical and relabeled, and of the whole
    grid, medians of PART_CALLS passes."""
    rng = random.Random(n)
    grid = []
    for k in range(2, 6):
        for m in range(2 * k + 1, n + 1):
            g = theorem.build_extremal(k, m)
            grid += [(k, g), (k, relabeled(g, rng))]

    def call():
        for k, g in grid:
            theorem.trace_proof(g, k)

    print_parts(n, part_times(theorem, call, TRACE_PARTS), "the parts do not nest")


def main(orders, caps=False) -> None:
    if caps:
        print(f"{'n':>3} {'cap':>4} {'kernel':>9} {'cut sets':>9}   (ms, block)")
        for n in orders:
            for cap, (kernel, cuts) in kappa_by_cap(n, candidates(n, BLOCK)).items():
                print(f"{n:>3} {cap:>4} {kernel:>9.2f} {cuts:>9.2f}", flush=True)
        return
    print(f"{'n':>3} {'kernel':<6} {'block kernel':>13} {'block solver':>13} "
          f"{'one kernel':>11} {'one solver':>11}   (ms)")
    for n in orders:
        masks = candidates(n, BLOCK)
        block = timings(n, masks, 1)
        one = timings(n, masks[:1], 3)
        for name, (kernel, solver) in block.items():
            print(f"{n:>3} {name:<6} {kernel:>13.1f} {solver:>13.1f} "
                  f"{one[name][0]:>11.2f} {one[name][1]:>11.2f}", flush=True)


if __name__ == "__main__":
    args = sys.argv[1:]
    orders = [int(a) for a in args if a.isdigit()]
    if "--sweep" in args:
        sweep(*orders[:1])
    elif "--trace" in args:
        trace(*orders[:1])
    elif "--stream" in args:
        files = [a for a in args if not a.isdigit() and not a.startswith("--")]
        stream(*files[:1] or [GRAPH8], *orders[:1])
    else:
        main(orders or [8, 10, 12, 13], "--caps" in args)
