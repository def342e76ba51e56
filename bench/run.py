"""hamcert benchmark: one workload per run, or all of them in turn.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/hamcert`` and
``tests/data/graph8.g6``.  One process, one client, closed loop: each
item starts when the previous one has finished, and nothing runs in
parallel.  A pass runs every item of the workload once, except that an
untraced pass repeats a short item back to back and times the median;
passes repeat until the next one would end after ``--seconds`` (at
least one pass).

With ``--trace 0`` the run reports the end-to-end metrics, with every
time scaled to a reference speed of the host by the probes in
hostspeed.py (the unscaled times are printed as well).  With
``--trace 1`` it alternates untraced and traced passes, and reports
the per-layer metrics from the traced passes plus the ratio of the two
pass times.  Every output is checked against exact expected
values outside the timed region.  The last line of standard output is
one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report.  A
result record with the environment goes to ``.bench_out/``, and the
traced run writes its spans there too.

See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import HostSpeed  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "harness", "theorem", "cycles", "invariants", "graph6", "graphs")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # item_tail_s has this many item medians above it
# A command of a few milliseconds, timed once, is at the mercy of the
# host; an untraced item that runs shorter than SHORT_ITEM_S runs
# SHORT_REPEATS times back to back, and the median is its latency.
SHORT_ITEM_S = 0.02
SHORT_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# <module>.<function>.<stat>; a *_ratio stat is useful outcomes / calls
PER_LAYER = [
    "harness.verify_order.self_s",
    "invariants.chromatic_number.calls",
    "invariants.chromatic_number.total_s",
    "invariants.is_k_colorable.calls",
    "invariants.is_k_colorable.self_s",
    "invariants.is_k_colorable.sat_ratio",
    "invariants.greedy_coloring.self_s",
    "invariants.vertex_connectivity.calls",
    "invariants.vertex_connectivity.self_s",
    "invariants.vertex_connectivity.ge2_ratio",
    "invariants.nordhaus_gaddum.calls",
    "invariants.nordhaus_gaddum.total_s",
    "invariants.max_clique.calls",
    "invariants.max_clique.self_s",
    "invariants.menger_fan.self_s",
    "cycles.longest_cycle.calls",
    "cycles.longest_cycle.self_s",
    "cycles.find_hamiltonian_cycle.calls",
    "cycles.find_hamiltonian_cycle.self_s",
    "cycles.find_hamiltonian_cycle.found_ratio",
    "theorem.trace_proof.self_s",
    "theorem.certify.calls",
    "theorem.certify.self_s",
    "theorem.certify.extremal_ratio",
    "theorem.check_hypothesis.calls",
    "theorem.check_hypothesis.total_s",
    "theorem.recognize_extremal.calls",
    "graph6.parse_graph6.calls",
    "graph6.parse_graph6.self_s",
    "graph6.to_graph6.calls",
    "graphs.from_edge_mask.calls",
    "graphs.from_edge_mask.self_s",
    "graphs.complement.calls",
    "cli.run.self_s",
    "trace_overhead",
]


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    stat = metric.rsplit(".", 1)[-1]
    if stat == "calls":
        return "count"
    if stat.endswith("_s"):
        return "s"
    return "ratio"


def import_hamcert() -> SimpleNamespace:
    """Import the program afresh, so every set-up pays for the imports."""
    for name in [n for n in sys.modules if n == "hamcert" or n.startswith("hamcert.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"hamcert.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: hamcert imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# environment record


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git (which
    would search parent directories outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hamcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# set-up and passes


def set_up(args):
    """Import, generate the seeded inputs, run the warm-up; repeated, and
    the median time reported.  Returns the last plan and the (start, end)
    of each set-up."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        hc = import_hamcert()
        plan = WORKLOADS[args.workload](args.seed, hc, ROOT, OUT)
        outputs = [item.call() for item in plan.warmup]
        intervals.append((started, perf_counter()))
        for item, output in zip(plan.warmup, outputs):
            problem = item.check(output, outputs)
            if problem:
                raise SystemExit(f"error: warm-up {item.label}: {problem}")
    return plan, intervals


class Runner:
    """Runs passes over a plan and keeps what each one measured."""

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.problems: list[str] = []
        self.next_item = 0

    def one_pass(self, tracer: Tracer | None = None) -> dict:
        """Run every item once, in order, and short untraced items
        SHORT_REPEATS times; a traced item runs once, so that the call
        counts repeat exactly.  Each item's runs are kept as (start, end)
        pairs; timed() turns them into latencies."""
        items = self.plan.items
        outputs: list = [None] * len(items)
        failed: dict[int, str] = {}
        runs_of = []
        started = perf_counter()
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = self.next_item
            self.next_item += 1
            runs = 1 if tracer is not None else SHORT_REPEATS
            samples: list[tuple[float, float]] = []
            while True:
                t0 = perf_counter()
                try:
                    output = item.call()
                except Exception as err:  # a failed item is counted, the run goes on
                    samples.append((t0, perf_counter()))
                    failed[index] = repr(err)
                    break
                samples.append((t0, perf_counter()))
                if len(samples) == 1:
                    outputs[index] = output
                elif output != outputs[index]:
                    failed[index] = "output differs between repeats"
                    break
                if samples[0][1] - samples[0][0] >= SHORT_ITEM_S or len(samples) == runs:
                    break
            runs_of.append(samples)
        wall = perf_counter() - started
        return {"wall": wall, "runs": runs_of, "outputs": outputs, "failed": failed}

    def check(self, result: dict) -> None:
        """Check a pass's outputs.  It runs outside the timed region and
        with no wrappers installed, so the traced counts hold only the
        program's own calls."""
        outputs, failed = result.pop("outputs"), result.pop("failed")
        for index, item in enumerate(self.plan.items):
            problem = failed.get(index)
            if problem is None:
                try:
                    problem = item.check(outputs[index], outputs)
                except Exception as err:  # a check that raises is a failed item
                    problem = f"check raised {err!r}"
            if problem:
                self.problems.append(f"{item.label}: {problem}")
        self.attempted += len(outputs)

    def passes(self, budget: float, tracer: Tracer | None = None) -> list[dict]:
        """Passes until the next one would end after budget seconds (by the
        median pass so far), and at least one.  With a tracer, untraced
        and traced passes alternate, so that drift in host speed touches
        both alike; the traced ones are the odd passes."""
        done = []
        least = 1 if tracer is None else 2
        started = perf_counter()
        while len(done) < least or perf_counter() - started + statistics.median(
            p["wall"] for p in done
        ) <= budget:
            if tracer is None or len(done) % 2 == 0:
                result = self.one_pass()
            else:
                first = len(tracer.spans)
                tracer.install()
                try:
                    result = self.one_pass(tracer)
                finally:
                    tracer.uninstall()
                result["stats"] = tracer.stats(first)
            self.check(result)
            done.append(result)
        return done


def timed(passes, seconds=lambda t0, t1: t1 - t0) -> list[dict]:
    """The passes with each item's latency: the median over its runs of
    seconds(start, end), which is wall-clock time by default."""
    return [
        {"wall": p["wall"],
         "latencies": [statistics.median(seconds(*run) for run in runs) for runs in p["runs"]],
         **({"stats": p["stats"]} if "stats" in p else {})}
        for p in passes
    ]


def item_medians(passes) -> list[float]:
    """Each item's median latency over the passes.  A burst of host noise
    slows a few passes; the per-item median leaves it out."""
    return [statistics.median(times) for times in zip(*(p["latencies"] for p in passes))]


def end_to_end(passes, setup_times) -> tuple[dict, list[str]]:
    medians = item_medians(passes)
    ordered = sorted(medians)
    # the highest percentile with TAIL_BEYOND item medians beyond it; a
    # workload with fewer items reports its slowest, which for a
    # one-item workload is wall_s again
    tail_rank = max(0, len(ordered) - 1 - TAIL_BEYOND)
    walls = [p["wall"] for p in passes]
    values = {
        "wall_s": sum(medians),
        "item_p50_s": statistics.median(medians),
        "item_tail_s": ordered[tail_rank],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"wall_s: sum of {len(medians)} item medians over {len(passes)} passes; "
        f"unscaled pass walls min {min(walls):.4f} max {max(walls):.4f}",
        f"item_p50_s, item_tail_s: over {len(medians)} item medians; "
        f"{len(ordered) - 1 - tail_rank} of them beyond the tail",
        f"setup_s: median of {len(setup_times)} set-ups: "
        + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    return values, notes


def per_layer(untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced passes) and the full table."""
    table = {}
    for name in NAMES:
        rows = [p["stats"][name] for p in traced]
        table[name] = {
            stat: statistics.median(row[stat] for row in rows)
            for stat in ("calls", "self_s", "total_s", "useful")
        }
        table[name]["ratio"] = statistics.median(
            row["useful"] / row["calls"] if row["calls"] else 0.0 for row in rows
        )
    values = {}
    for metric in PER_LAYER:
        if metric == "trace_overhead":
            values[metric] = sum(item_medians(traced)) / sum(item_medians(untraced))
            continue
        function, stat = metric.rsplit(".", 1)
        values[metric] = table[function]["ratio" if stat.endswith("_ratio") else stat]
    return values, table


def run_workload(args) -> int:
    missing = [p for p in (SRC / "hamcert" / "cli.py", ROOT / "tests" / "data" / "graph8.g6")
               if not p.is_file()]
    if missing:
        print(f"error: run from a hamcert checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    # the untraced run measures with the host-speed probes on; the traced
    # run without them, so that they add nothing to the spans
    tracer = Tracer() if args.trace else None
    speed = None if args.trace else HostSpeed()
    if speed is not None:
        speed.start()
    try:
        plan, setups = set_up(args)
        runner = Runner(plan)
        done = runner.passes(args.seconds, tracer)
    finally:
        if speed is not None:
            speed.stop()

    env = environment(args)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if plan.note:
        print(f"note: {plan.note}")

    record = {"env": env}
    if tracer is not None:
        done = timed(done)
        untraced, traced = done[0::2], done[1::2]
        metrics, table = per_layer(untraced, traced)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"{len(untraced)} untraced and {len(traced)} traced passes; "
              f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        print(f"{'function':40} {'calls':>10} {'self_s':>10} {'total_s':>10} {'ratio':>7}")
        for name, row in table.items():
            if row["calls"]:
                print(f"{name:40} {row['calls']:>10.0f} {row['self_s']:>10.4f} "
                      f"{row['total_s']:>10.4f} {row['ratio']:>7.4f}")
        record["functions"] = table
    else:
        metrics, notes = end_to_end(timed(done, speed.scaled), [speed.scaled(*s) for s in setups])
        unscaled, _ = end_to_end(timed(done), [t1 - t0 for t0, t1 in setups])
        deciles = statistics.quantiles(speed.factors, n=10)
        notes.append(
            f"host speed: {len(speed.factors)} probes, factor median "
            f"{statistics.median(speed.factors):.3f} (deciles 1 and 9: {deciles[0]:.3f} "
            f"{deciles[-1]:.3f}); the times are scaled to factor 1")
        notes.append("unscaled: " + " ".join(
            f"{name} {unscaled[name]:.6g}" for name in ("wall_s", "item_p50_s", "item_tail_s", "setup_s")))
        for line in notes:
            print(line)
        record["unscaled"] = unscaled

    failed = len(runner.problems)
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"fail_ratio {failed / runner.attempted:.6g} ({failed} of {runner.attempted} items)")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    record.update(result)
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
