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
    complement bound
                    _first_fit_lanes: first fit on the parents'
                    complements, the bound on chi of the complement
    kappa table     _kappa_table: the kappa >= k table of each k
    ham table       _hamiltonian_table: the Hamiltonicity table
    neighbourhoods  _settle_neighbourhood: the lookups, lemma 1 and the
                    tally of each neighbourhood of vertex n - 1, its
                    replays included
    lane walk       iter_bits, in harness's namespace: the lanes of each
                    lane set that lemma 1 and the tally replay, walked
                    from the top
    replays         _replay: the certify replays of the non-Hamiltonian
                    hits

and the whole call.  Each is the median of 25 calls after a warm-up one.
The lane walk and the replays run inside the neighbourhoods, so their
times are also counted there, and so is the cost of wrapping them: the
sweep makes hundreds of lane walks, about 1 ms of the neighbourhoods'
time at n = 7.  The header's note says so.

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

Run from the repository root:
    python3 scripts/kernel_timings.py [--caps] [n ...]
(default orders 8 10 12 13), or
    python3 scripts/kernel_timings.py --sweep [n]
    python3 scripts/kernel_timings.py --stream [FILE] [n]
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

from hamcert import harness  # noqa: E402
from hamcert.cycles import find_hamiltonian_cycle  # noqa: E402
from hamcert.graphs import from_edge_mask, iter_bits  # noqa: E402
from hamcert.invariants import chromatic_number, vertex_connectivity  # noqa: E402
from tests.oracles import oracle_edge_lanes, oracle_kappa_lanes  # noqa: E402

BLOCK = 4096
DENSITY = 0.8
SWEEP_PARTS = {
    "chi table": ("_chromatic_table",),
    "complement bound": ("_first_fit_lanes",),
    "kappa table": ("_kappa_table",),
    "ham table": ("_hamiltonian_table",),
    "neighbourhoods": ("_settle_neighbourhood",),
    "lane walk": ("iter_bits",),
    "replays": ("_replay",),
}
STREAM_PARTS = {
    "read": ("_stream_blocks",),
    "lanes": ("pair_lanes",),
    "cheap": ("_cheap_stages",),
    "settle": ("_settle_block",),
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


def part_times(call, table):
    """{part: [(s, minor faults), ...]} of each part of table, its harness
    functions timed by wrapping them, and of the whole call, over
    PART_CALLS warm calls; a generator's time is that of its steps."""
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

    originals = {name: getattr(harness, name) for names in table.values() for name in names}
    for part, names in table.items():
        for name in names:
            setattr(harness, name, timed(originals[name], part))
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
            setattr(harness, name, run)
    return rows


def print_parts(n, rows, nested) -> None:
    """A header, whose note names the parts that run inside another
    (nested), then one row per part."""
    width = max(map(len, rows))
    print(f"{'n':>3} {'part':<{width}} {'ms':>8} {'faults':>8}   "
          f"(one call, median of {PART_CALLS}; {nested})")
    for part, row in rows.items():
        ms = 1000 * statistics.median(x for x, _ in row)
        print(f"{n:>3} {part:<{width}} {ms:>8.2f} {statistics.median(f for _, f in row):>8.0f}")


def sweep(n=7) -> None:
    """Print the ms and minor faults of each part of a warm verify_order(n)
    call and of the whole call, medians of PART_CALLS calls."""
    print_parts(
        n, part_times(lambda: harness.verify_order(n), SWEEP_PARTS),
        "lane walk and replays run inside neighbourhoods",
    )


def stream(path=GRAPH8, n=8) -> None:
    """Print the ms and minor faults of each part of a warm verify_order(n)
    call on the graph6 file at path and of the whole call, medians of
    PART_CALLS calls."""
    def call():
        with open(path, encoding="ascii", errors="surrogateescape") as handle:
            harness.verify_order(n, stream=handle)

    print_parts(n, part_times(call, STREAM_PARTS), "settle's lanes run inside settle")


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
    elif "--stream" in args:
        files = [a for a in args if not a.isdigit() and not a.startswith("--")]
        stream(*files[:1] or [GRAPH8], *orders[:1])
    else:
        main(orders or [8, 10, 12, 13], "--caps" in args)
