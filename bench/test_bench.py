"""Self-test of the benchmark.  From the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

It runs the benchmark in subprocesses with one-second runs, so it takes
a couple of minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from hostspeed import MIN_PROBES, HostSpeed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Item, Plan, extremal_edges, g6_encode, trace_grid_cells,
)

# Counts that only come out right when calls through imported names are
# caught: harness, theorem and cli import the solvers by name.  On
# trace-grid each of the 92 commands parses its graph once and each of
# the 46 certificates is written once; the benchmark's own output checks
# must add nothing.
KNOWN_CALLS = {
    "sweep-n7": {"invariants.chromatic_number.calls": 37_089},
    "stream-n8": {
        "graph6.parse_graph6.calls": 12_346,
        "invariants.vertex_connectivity.calls": 12_348,
    },
    "trace-grid": {
        "graph6.parse_graph6.calls": 92,
        "graph6.to_graph6.calls": 46,
    },
}


def bench(workload: str, seed: int, trace: int, script: Path = BENCH / "run.py", cwd: Path = ROOT):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return res


def calls(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_calls_repeat(workload):
    first = result(bench(workload, 7, 1))
    second = result(bench(workload, 7, 1))
    assert list(first["metrics"]) == run.PER_LAYER
    assert calls(first) == calls(second)
    for name, count in KNOWN_CALLS.get(workload, {}).items():
        assert first["metrics"][name]["value"] == count


def test_end_to_end_metrics_reported():
    res = result(bench("solvers-mid", 3, 0))
    assert list(res["metrics"]) == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_a_check_that_raises_counts_as_failed():
    runner = run.Runner(Plan(items=[Item("x", lambda: None, lambda out, _: out.vertices)], warmup=[]))
    result = runner.one_pass()
    runner.check(result)
    assert runner.attempted == 1 and len(runner.problems) == 1
    assert "AttributeError" in runner.problems[0]
    ticks = iter(range(10**6))
    runner = run.Runner(Plan(items=[Item("y", lambda: next(ticks), lambda out, _: None)], warmup=[]))
    runner.check(runner.one_pass())
    assert runner.problems == ["y: output differs between repeats"]


def test_tail_has_ten_item_medians_beyond_it():
    passes = [{"wall": 1.0, "latencies": [float(i) for i in range(1, 31)]}] * 3
    values, _ = run.end_to_end(passes, [0.1])
    assert values["item_tail_s"] == 20.0 and values["item_p50_s"] == 15.5
    one, _ = run.end_to_end([{"wall": 2.0, "latencies": [2.0]}], [0.1])
    assert one["wall_s"] == one["item_p50_s"] == one["item_tail_s"] == 2.0


def test_scaled_time_drops_the_probes_and_follows_the_host():
    speed = HostSpeed()
    speed.starts = [0.1 * i for i in range(40)]
    speed.durations = [0.001] * 40
    speed.factors = [0.5] * 20 + [2.0] * 20
    # 1.0 to 1.5 holds the five probes that start at 1.0 to 1.4
    assert speed.scaled(1.0, 1.5) == pytest.approx((0.5 - 0.005) * 0.5)
    assert speed.scaled(3.0, 3.5) == pytest.approx((0.5 - 0.005) * 2.0)
    # far from any probe, the nearest MIN_PROBES of them are used
    assert speed.scaled(10.0, 10.5) == pytest.approx(0.5 * 2.0)
    assert MIN_PROBES <= 20
    with pytest.raises(RuntimeError):
        HostSpeed().scaled(0.0, 1.0)


def test_stream_totals_do_not_depend_on_seed():
    # the exact totals are checked inside the benchmark; here the two
    # seeds must both pass that check on different inputs
    for seed in (1, 2):
        result(bench("stream-n8", seed, 0))
    one, two = (
        (run.OUT / f"stream-n8-seed{seed}.g6").read_text().split() for seed in (1, 2)
    )
    assert one != two and len(one) == len(two) == 12_346


def test_canonical_layout_is_what_the_cli_emits():
    sys.path.insert(0, str(run.SRC))
    hc = run.import_hamcert()
    for k, n in trace_grid_cells():
        emitted = hc.cli.run(["extremal", "--k", str(k), "--n", str(n)]).payload
        assert emitted == g6_encode(n, extremal_edges(k, n))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_fails_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("stream-n8", 1, 0, script=bare / "bench" / "run.py", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
