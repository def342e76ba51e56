"""Smoke test of scripts/kernel_timings.py, the timing table that the
_LANE_KERNEL_MAX_ORDER comment in harness.py cites, and its part timings
of the sweep, the stream, the proof trace and the Hamiltonian solver.
The script calls private harness kernels and the reference lane
builders, so it runs here on a few order-8 candidates to keep it
runnable as they change."""

import importlib.util
from pathlib import Path

from hamcert import cycles, harness, theorem

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
    # harness functions, which are restored afterwards, and its replay
    # path timed in a plain loop
    spec = importlib.util.spec_from_file_location("kernel_timings", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [name for names in script.SWEEP_PARTS.values() for name in names]
    before = [getattr(harness, name) for name in names]
    script.sweep(5)
    assert [getattr(harness, name) for name in names] == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["n", "part", "ms", "faults"]
    # the parts, then the replay path's header and its three steps
    lines, path = lines[:-4], lines[-4:]
    # (n, part, ms, faults), a part's name being the words between
    rows = [(row[0], " ".join(row[1:-2]), *row[-2:]) for row in map(str.split, lines[1:])]
    assert [row[:2] for row in rows] == [
        ("5", part)
        for part in (
            "chi table", "cover levels", "complement bound", "kappa table", "ham table",
            "neighbourhoods", "lemma 1", "tally", "lane walk", "replay graphs", "replays",
            "call",
        )
    ]
    # (n, step, us per replayed graph), unwrapped, of every graph replayed
    assert path[0].split()[:4] == ["n", "replay", "path", "us"]
    steps = [row.split() for row in path[1:]]
    assert [row[:2] for row in steps] == [["5", "decode"], ["5", "certify"], ["5", "both"]]
    assert all(len(row) == 3 and float(row[2]) > 0 for row in steps)
    assert int(path[0].split("(per replayed graph, ")[1].split()[0]) > 0
    assert all(float(row[2]) > 0 and int(row[3]) >= 0 for row in rows)
    assert float(rows[-1][2]) >= max(float(row[2]) for row in rows[:-1])
    # the cover levels run inside the chi table, and lemma 1 and the tally
    # inside the neighbourhoods, in every call
    assert float(rows[1][2]) <= float(rows[0][2])
    assert float(rows[6][2]) + float(rows[7][2]) <= float(rows[5][2])


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


def test_kernel_timings_trace_prints_its_parts(capsys):
    # the parts of trace_proof over the extremal grid up to n = 8, each
    # timed by wrapping names in theorem's namespace, which are restored
    # afterwards
    spec = importlib.util.spec_from_file_location("kernel_timings", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [name for names in script.TRACE_PARTS.values() for name in names]
    before = [getattr(theorem, name) for name in names]
    script.trace(8)
    assert [getattr(theorem, name) for name in names] == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["n", "part", "ms", "faults"]
    rows = [(row[0], " ".join(row[1:-2]), *row[-2:]) for row in map(str.split, lines[1:])]
    assert [row[:2] for row in rows] == [
        ("8", part)
        for part in (
            "longest cycle", "fan", "solvers", "segments", "extension rules", "structure", "call",
        )
    ]
    assert all(float(row[2]) > 0 and int(row[3]) >= 0 for row in rows)
    assert float(rows[-1][2]) >= max(float(row[2]) for row in rows[:-1])


def test_kernel_timings_solvers_prints_its_parts(capsys):
    # the parts of find_hamiltonian_cycle over three planted G(n, p) and a
    # relabeled build_extremal(3, n), each timed by wrapping names in
    # cycles' namespace, which are restored afterwards; the certificate
    # settles the extremal graph alone; then the process's peak RSS, which
    # never falls
    spec = importlib.util.spec_from_file_location("kernel_timings", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [name for names in script.SOLVER_PARTS.values() for name in names]
    before = [getattr(cycles, name) for name in names]
    script.solvers([11, 12])
    assert [getattr(cycles, name) for name in names] == before
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 7
    peaks = []
    for n, block in zip(("11", "12"), (lines[:7], lines[7:])):
        assert block[0].split()[:4] == ["n", "part", "ms", "faults"]
        rows = [row.split() for row in block[1:5]]
        assert [row[:2] for row in rows] == [
            [n, part] for part in ("certificate", "fill", "walk", "call")
        ]
        # each part to 3 decimals, above 0
        assert all(len(row) == 4 and len(row[2].split(".")[1]) == 3 for row in rows)
        assert all(float(row[2]) > 0 and int(row[3]) >= 0 for row in rows)
        assert float(rows[-1][2]) >= max(float(row[2]) for row in rows[:-1])
        assert block[5].split() == [n, "settled", "1", "of", "4", "graphs", "by", "the", "certificate"]
        peak = block[6].split()
        assert peak[:3] == [n, "peak", "RSS"]
        assert peak[4:] == ["MB", "of", "the", "process", "so", "far"]
        assert len(peak[3].split(".")[1]) == 1
        peaks.append(float(peak[3]))
    assert 0 < peaks[0] <= peaks[1]
