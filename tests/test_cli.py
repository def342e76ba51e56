"""Command-line interface: dispatch, exit codes, stdin plumbing."""

import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import harness
from hamcert.cli import CommandOutcome, main, run
from hamcert.graph6 import parse_graph6, to_graph6
from hamcert.graphs import complement, complete_graph
from hamcert.harness import verify_order
from hamcert.theorem import (
    build_extremal,
    parse_certificate,
    validate_certificate,
)
from tests.conftest import count_calls, graphs_st, random_graph


def test_extremal_emits_graph6():
    out = run(["extremal", "--k", "2", "--n", "5"])
    assert out.exit_code == 0
    g = parse_graph6(out.payload)
    assert g.n == 5
    assert g.edge_count() == 7


def test_extremal_rejects_bad_parameters():
    assert run(["extremal", "--k", "1", "--n", "5"]).exit_code == 2
    assert run(["extremal", "--k", "2", "--n", "4"]).exit_code == 2


def test_invariants_on_complete_four():
    out = run(["invariants", "C~"])
    assert out.exit_code == 0
    assert out.payload == (
        "C~ n=4 kappa=3 chi=4 alpha=1 omega=4 mindeg=3 hamiltonian=yes"
    )


def test_invariants_on_path():
    out = run(["invariants", "Ch"])
    assert out.exit_code == 0
    assert "kappa=1" in out.payload
    assert "hamiltonian=no" in out.payload


def test_invariants_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nCh\n"))
    out = run(["invariants"])
    assert out.exit_code == 0
    lines = out.payload.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("C~ ")
    assert lines[1].startswith("Ch ")


def test_bad_graph6_is_input_error(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n\x01bogus\n"))
    out = run(["invariants"])
    assert out.exit_code == 2
    # the good line is still processed
    assert out.payload.splitlines()[0].startswith("C~ ")
    assert "error" in out.payload


def test_empty_stdin_is_input_error(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run(["invariants"]).exit_code == 2


class TestCertify:
    def test_round_trip_re_validates(self):
        g = build_extremal(2, 5)
        out = run(["certify", to_graph6(g), "--k", "2"])
        assert out.exit_code == 0
        parsed_graph, cert = parse_certificate(out.payload)
        assert parsed_graph.adj == g.adj
        assert cert.kind == "extremal"
        assert validate_certificate(parsed_graph, cert) == []

    def test_hamiltonian_certificate(self):
        out = run(["certify", "Dhc", "--k", "2"])
        assert out.exit_code == 0
        assert out.payload.splitlines()[0] == "kind hamiltonian"

    def test_hypothesis_violation_names_the_flag(self):
        out = run(["certify", "Ch", "--k", "2"])
        assert out.exit_code == 2
        assert "k_connected_ok" in out.payload

    def test_requires_k(self):
        assert run(["certify", "Dhc"]).exit_code == 2


class TestTrace:
    def test_line_format_is_stable(self):
        out = run(["trace", to_graph6(build_extremal(2, 5)), "--k", "2"])
        assert out.exit_code == 0
        lines = out.payload.splitlines()
        step_re = re.compile(r"^step \d+ [a-z0-9-]+ (PASS|FAIL) ")
        for line in lines[:-1]:
            assert step_re.match(line), line
        assert lines[-1].startswith("conclusion ")
        assert "extremal" in lines[-1]

    def test_hamiltonian_trace_is_single_step(self):
        out = run(["trace", "Dhc", "--k", "2"])
        assert out.exit_code == 0
        lines = out.payload.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("step 1 hamiltonian PASS")
        assert lines[1] == "conclusion hamiltonian"

    def test_hypothesis_violation(self):
        out = run(["trace", "Ch", "--k", "2"])
        assert out.exit_code == 2
        assert "k_connected_ok" in out.payload

    def test_oversize_refusal_is_input_error(self):
        g6 = to_graph6(build_extremal(2, 17))
        out = run(["trace", g6, "--k", "2"])
        assert out.exit_code == 2
        assert "refused" in out.payload


class TestVerify:
    def test_internal_sweep_clean(self):
        out = run(["verify", "--n", "5"])
        assert out.exit_code == 0
        assert "graphs 1024" in out.payload
        assert "counterexamples 0" in out.payload
        assert "lemma1 violations 0" in out.payload

    def test_output_is_deterministic(self):
        first, second = run(["verify", "--n", "5"]), run(["verify", "--n", "5"])
        assert first.payload.encode() == second.payload.encode()
        assert first.exit_code == second.exit_code == 0

    def test_k_window(self):
        out = run(["verify", "--n", "5", "--k-min", "3", "--k-max", "3"])
        assert out.exit_code == 0
        assert "k=3:26" in out.payload

    def test_stream_file(self, tmp_path):
        path = tmp_path / "pop.g6"
        path.write_text("Dhc\nD}o\nnot-a-graph\x01\n")
        out = run(["verify", "--n", "5", "--stream", str(path)])
        assert out.exit_code == 0
        assert "graphs 2" in out.payload
        assert "input errors 1" in out.payload

    @pytest.mark.parametrize("bad_line, bad", [
        (4, lambda lines: lines[:3] + [lines[3][:2] + b"\xe9" + lines[3][2:]] + lines[3:]),
        (1, lambda lines: [b"\xef\xbb\xbf" + lines[0]] + lines[1:]),
    ], ids=["stray-byte", "byte-order-mark"])
    def test_stream_file_with_a_non_ascii_byte(self, tmp_path, bad_line, bad):
        # a stray byte or a UTF-8 byte order mark is one bad line, reported
        # with its line number, as on standard input
        graph8 = Path(__file__).parent / "data" / "graph8.g6"
        lines = graph8.read_bytes().split()[-6:]
        path = tmp_path / "bad.g6"
        path.write_bytes(b"\n".join(bad(lines)) + b"\n")
        out = run(["verify", "--n", "8", "--stream", str(path)])
        assert out.exit_code == 0, out.payload
        assert f"graphs {6 if bad_line == 4 else 5}" in out.payload
        assert "input errors 1" in out.payload
        assert f"  line {bad_line}: non-ASCII character" in out.payload

    def test_stream_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))
        out = run(["verify", "--n", "5", "--stream", "-"])
        assert out.exit_code == 0
        assert "hamiltonian 1" in out.payload

    def test_stream_stdin_pipe_reads_as_the_file(self, monkeypatch):
        # a pipe takes the chunked reader of a file: graph8.g6 on a byte
        # standard input prints what the file run prints, no chunk takes
        # the line path, and standard input stays open
        graph8 = Path(__file__).parent / "data" / "graph8.g6"
        stdin = io.TextIOWrapper(io.BytesIO(graph8.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        blocks = count_calls(monkeypatch, harness, ["_grid_block", "_line_block"])
        piped = run(["verify", "--n", "8", "--stream", "-"])
        assert blocks == {"_grid_block": 4, "_line_block": 0}
        assert not stdin.buffer.closed
        filed = run(["verify", "--n", "8", "--stream", str(graph8)])
        assert piped.payload.encode() == filed.payload.encode()
        assert piped.exit_code == filed.exit_code == 0
        assert "hypothesis hits 843 " in piped.payload

    @pytest.mark.parametrize("variant", ["crlf", "header-every-line", "bad-lines"])
    def test_stream_file_variants(self, tmp_path, variant):
        # CRLF line ends and a header on every line read as the plain
        # file; bad lines are reported with their line numbers, and the
        # other lines read as the plain file without them
        graph8 = Path(__file__).parent / "data" / "graph8.g6"
        lines = graph8.read_bytes().split()
        path = tmp_path / "variant.g6"
        if variant == "crlf":
            path.write_bytes(b"".join(line + b"\r\n" for line in lines))
        elif variant == "header-every-line":
            path.write_bytes(b"".join(b">>graph6<<" + line + b"\n" for line in lines))
        else:
            edited = list(lines)
            edited[4096:4096] = [b"G?\x0c???", b"Dhc"]
            edited[11:11] = [b"", lines[0][:-1]]
            path.write_bytes(b"\n".join(edited))
        out = run(["verify", "--n", "8", "--stream", str(path)])
        plain = run(["verify", "--n", "8", "--stream", str(graph8)])
        if variant == "bad-lines":
            report, _, errors = out.payload.partition("\ninput errors 3\n")
            assert errors.splitlines() == [
                "  line 13: truncated graph6 payload: need 5 bytes, got 4",
                "  line 4099: byte 12 outside graph6 range 63..126",
                "  line 4100: expected order 8, got 5",
            ]
            assert report == plain.payload
        else:
            assert out.payload == plain.payload
        assert out.exit_code == plain.exit_code == 0

    def test_missing_stream_file(self):
        out = run(["verify", "--n", "5", "--stream", "/no/such/file.g6"])
        assert out.exit_code == 2

    def test_internal_order_cap(self):
        out = run(["verify", "--n", "8"])
        assert out.exit_code == 2
        assert "1..7" in out.payload

    def test_stream_never_imports_numpy(self, tmp_path):
        # the streamed sweep is pure Python: its lane builder, lane kernels
        # and path tables need no numpy, and its resident size depends on
        # that.  The order-9 stream has candidates and hits, extremal and
        # Hamiltonian, for the exact chi, kappa and Hamiltonicity kernels
        # above the mask pipeline's order.  The order-13 stream has hits of
        # both kinds above _LANE_KERNEL_MAX_ORDER, settled by the
        # single-graph solvers and, for the extremal ones, the certify
        # replay.  The seeded order-20 stream runs the lane builder and the
        # cheap kernels
        script = """
import json, sys
from hamcert.cli import run
for argv, graphs, hits in json.loads(sys.argv[1]):
    out = run(argv)
    assert out.exit_code == 0, out.payload
    assert f"graphs {graphs}" in out.payload, out.payload
    assert f"hypothesis hits {hits} " in out.payload, out.payload
    assert "counterexamples 0" in out.payload, out.payload
assert "numpy" not in sys.modules, "verify --stream imported numpy"
"""
        root = Path(__file__).parent.parent
        graph8 = root / "tests" / "data" / "graph8.g6"
        rng = random.Random(20)
        lines = [to_graph6(random_graph(20, p, rng)) for p in (0.1, 0.2, 0.3) for _ in range(20)]
        order20 = tmp_path / "order20.g6"
        order20.write_text("\n".join(lines) + "\n", encoding="ascii")
        rng = random.Random(9)
        lines9 = [to_graph6(build_extremal(k, 9)) for k in (2, 3, 4)]
        lines9 += [to_graph6(complement(random_graph(9, p, rng))) for p in (0.05, 0.1, 0.2) for _ in range(6)]
        order9 = tmp_path / "order9.g6"
        order9.write_text("\n".join(lines9) + "\n", encoding="ascii")
        rep = verify_order(9, stream=iter(lines9))
        assert rep.hits_total > 10 and rep.extremal >= 3 and rep.hamiltonian > 0
        rng = random.Random(13)
        lines13 = [to_graph6(build_extremal(k, 13)) for k in (2, 3)]
        lines13 += [to_graph6(complement(random_graph(13, 0.1, rng))) for _ in range(3)]
        order13 = tmp_path / "order13.g6"
        order13.write_text("\n".join(lines13) + "\n", encoding="ascii")
        rep13 = verify_order(13, stream=iter(lines13))
        assert rep13.extremal >= 2 and rep13.hamiltonian > 0
        runs = [
            (["verify", "--n", "8", "--stream", str(graph8)], 12346, 843),
            (["verify", "--n", "9", "--stream", str(order9)], len(lines9), rep.hits_total),
            (["verify", "--n", "13", "--stream", str(order13)], len(lines13), rep13.hits_total),
            (["verify", "--n", "20", "--stream", str(order20)], len(lines), 0),
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_sweep_never_imports_numpy(self):
        # the internal sweep reads every graph from tables on the parents'
        # lanes, with its replays extremal and its tally as the stream's
        script = """
import sys
from hamcert.cli import run
out = run(["verify", "--n", "6"])
assert out.exit_code == 0, out.payload
assert "graphs 32768" in out.payload and "extremal 90" in out.payload, out.payload
assert "counterexamples 0" in out.payload, out.payload
assert "numpy" not in sys.modules, "verify --n 6 imported numpy"
"""
        root = Path(__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--n", "8", "--stream", "-"],
     ["graphs 1", "input errors 1", "  line 2: non-ASCII character in graph6 string:"]),
    (["invariants"],
     ["G~~~~{ n=8 kappa=7 chi=8 ", "error: \\udce9G~~~~{: non-ASCII character in graph6 string:"]),
], ids=["verify-stream", "invariants"])
def test_stdin_with_a_non_ascii_byte_under_a_strict_locale(argv, expected):
    # a stray byte on standard input is one bad line, whatever the
    # interpreter's own error handler for it
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONIOENCODING="utf-8:strict")
    done = subprocess.run(
        [sys.executable, "-m", "hamcert.cli", *argv],
        input=b"G~~~~{\n\xe9G~~~~{\n", env=env, capture_output=True, timeout=60,
    )
    out = done.stdout.decode("ascii")
    assert done.returncode == (0 if argv[0] == "verify" else 2), done.stderr
    for text in expected:
        assert text in out, out


class TestGraph6Utility:
    def test_module_runs_as_a_script(self):
        root = Path(__file__).parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "hamcert.cli", "g6", "decode", "C~"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "4 0-1 0-2 0-3 1-2 1-3 2-3\n"), done.stderr

    def test_decode(self):
        out = run(["g6", "decode", "C~"])
        assert out.exit_code == 0
        assert out.payload == "4 0-1 0-2 0-3 1-2 1-3 2-3"

    def test_decode_no_edges(self):
        assert run(["g6", "decode", "?"]).payload == "0"

    def test_encode(self):
        out = run(["g6", "encode", "4 0-1 0-2 0-3 1-2 1-3 2-3"])
        assert out.payload == "C~"

    def test_encode_decode_round_trip(self, monkeypatch):
        g6 = to_graph6(complete_graph(5))
        decoded = run(["g6", "decode", g6]).payload
        assert run(["g6", "encode", decoded]).payload == g6

    def test_garbage_input(self):
        assert run(["g6", "encode", "four 0-1"]).exit_code == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["nonsense"]).exit_code == 2


def test_help_exits_zero():
    assert run(["--help"]).exit_code == 0


def test_main_prints_payload_and_returns_code(capsys):
    code = main(["extremal", "--k", "2", "--n", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "D}o"


@pytest.mark.parametrize("argv, code", [
    (["verify", "--n", "5"], 0),
    (["certify", "--k", "3", "Dhc"], 2),
], ids=["verify", "input-error"])
def test_closed_standard_output_keeps_the_exit_code(argv, code):
    # the reader is gone before the command writes, as in `hamcert verify
    # --n 5 | true`: no traceback, and the command's own exit code, not the
    # 1 that reports a counterexample
    root = Path(__file__).parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hamcert.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, b"")


def test_outcome_is_frozen():
    outcome = CommandOutcome(0, "x")
    with pytest.raises(AttributeError):
        outcome.exit_code = 1


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "?"],  # the order-0 graph
        ["certify", "?", "--k", "2"],
        ["certify", "Bw", "--k", "-3"],
        ["extremal", "--k", "40", "--n", "81"],  # order 121, beyond graph6
    ],
)
def test_value_errors_are_input_errors(argv):
    out = run(argv)
    assert out.exit_code == 2
    assert out.payload.startswith("error: ")


def argv_for(command, text, a, b):
    return {
        "invariants": ["invariants", text],
        "certify": ["certify", text, "--k", str(a)],
        "trace": ["trace", text, "--k", str(a)],
        "extremal": ["extremal", "--k", str(a), "--n", str(b)],
        "verify": ["verify", "--n", str(b), "--k-min", str(a)],
        "g6": ["g6", "decode" if a % 2 else "encode", text],
    }[command]


# graph6 text of at most 6 characters holds at most 30 edge bits, so at
# most 8 vertices; verify orders stay at most 5
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["invariants", "certify", "trace", "extremal", "verify", "g6"]),
    st.one_of(
        graphs_st(max_n=6).map(to_graph6),
        st.text(alphabet=[chr(c) for c in range(32, 127)], max_size=6),
    ),
    st.integers(-3, 8),
    st.integers(-2, 5),
)
def test_run_never_raises(command, text, a, b):
    assert run(argv_for(command, text, a, b)).exit_code in (0, 1, 2)
