"""Smoke test of scripts/kernel_timings.py, the timing table that the
_LANE_KERNEL_MAX_ORDER comment in harness.py cites.  The script calls
private harness kernels and the reference lane builders, so it runs here
on a few order-8 candidates to keep it runnable as they change."""

import importlib.util
from pathlib import Path

from hamcert import harness

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "kernel_timings.py"


def test_kernel_timings_prints_both_tables_on_a_small_block(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("kernel_timings", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "BLOCK", 16)
    assert len(script.candidates(8, 16)) == 16
    script.main([8])
    script.main([8], caps=True)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # a header and one row per kernel, then a header and one row per cap
    assert [row[:2] for row in rows[1:4]] == [["8", "chi"], ["8", "kappa"], ["8", "ham"]]
    assert [row[:2] for row in rows[5:]] == [["8", str(cap)] for cap in range(2, 8)]
    assert all(len(row) == 6 for row in rows[1:4]) and all(len(row) == 4 for row in rows[5:])


def test_kernel_timings_sweep_prints_its_parts(capsys):
    # the parts of a warm verify_order(5) call, each timed by wrapping
    # harness functions, which are restored afterwards
    spec = importlib.util.spec_from_file_location("kernel_timings", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [name for names in script.SWEEP_PARTS.values() for name in names]
    before = [getattr(harness, name) for name in names]
    script.sweep(5)
    assert [getattr(harness, name) for name in names] == before
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0][:4] == ["n", "part", "ms", "faults"]
    assert [row[:2] for row in rows[1:]] == [
        ["5", part] for part in ("tables", "neighbourhoods", "replays", "call")
    ]
    assert all(len(row) == 4 and float(row[2]) > 0 and int(row[3]) >= 0 for row in rows[1:])
    assert float(rows[-1][2]) >= max(float(row[2]) for row in rows[1:-1])


def test_kernel_timings_stream_prints_its_parts(capsys):
    # the parts of a warm verify_order(8) call on graph8.g6, each timed by
    # wrapping harness functions, the reader a generator among them,
    # which are restored afterwards
    spec = importlib.util.spec_from_file_location("kernel_timings", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [name for names in script.STREAM_PARTS.values() for name in names]
    before = [getattr(harness, name) for name in names]
    script.stream()
    assert [getattr(harness, name) for name in names] == before
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0][:4] == ["n", "part", "ms", "faults"]
    assert [row[:2] for row in rows[1:]] == [
        ["8", part] for part in ("read", "lanes", "cheap", "settle", "call")
    ]
    assert all(len(row) == 4 and float(row[2]) > 0 and int(row[3]) >= 0 for row in rows[1:])
    assert float(rows[-1][2]) >= max(float(row[2]) for row in rows[1:-1])
