"""Command-line front end.

Subcommands: invariants, certify, trace, extremal, verify, g6.  Graphs
arrive as graph6 text, either as a positional argument or one per line
on standard input.  Exit codes: 0 success, 1 a counterexample or
property violation was found, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from hamcert.graph6 import parse_graph6, to_graph6
from hamcert.graphs import Graph, min_degree, with_edges
from hamcert.invariants import (
    chromatic_number,
    independence_number,
    max_clique,
    vertex_connectivity,
)
from hamcert.cycles import find_hamiltonian_cycle
from hamcert.harness import verify_order
from hamcert.theorem import (
    HypothesisError,
    build_extremal,
    certify,
    format_certificate,
    format_trace,
    trace_proof,
)


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    payload: str


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamcert",
        description="Exact invariant solvers and certified Hamiltonicity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print the invariant profile of a graph")
    p.add_argument("graph", nargs="?", help="graph6 string (stdin if omitted)")

    p = sub.add_parser("certify", help="certify one graph against the theorem")
    p.add_argument("graph", nargs="?", help="graph6 string (stdin if omitted)")
    p.add_argument("--k", type=int, required=True, help="connectivity parameter")

    p = sub.add_parser("trace", help="print the mechanized proof trace")
    p.add_argument("graph", nargs="?", help="graph6 string (stdin if omitted)")
    p.add_argument("--k", type=int, required=True, help="connectivity parameter")

    p = sub.add_parser("extremal", help="emit the extremal graph as graph6")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="sweep a whole graph population")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--stream", default=None, metavar="FILE",
                   help="graph6 file ('-' for stdin) instead of internal enumeration")

    p = sub.add_parser("g6", help="graph6 codec utility")
    p.add_argument("mode", choices=["encode", "decode"])
    p.add_argument("text", nargs="?", help="input line (stdin if omitted)")
    return parser


@contextmanager
def _stdin_text():
    """Standard input, for every subcommand, as verify --stream reads a
    file: as ASCII, with each other byte passed on as a lone surrogate, so
    that it makes one bad line whatever the locale's error handler.  A
    text stream with no byte buffer beneath, such as a StringIO, is read
    as it is."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        yield sys.stdin
        return
    text = io.TextIOWrapper(buffer, encoding="ascii", errors="surrogateescape")
    try:
        yield text
    finally:
        text.detach()  # leave standard input open


def _shown(text: str) -> str:
    """An input line as echoed in an error: each character outside ASCII
    as a backslash escape, since a lone surrogate cannot be written to a
    strict stream."""
    return text.encode("ascii", "backslashreplace").decode("ascii")


def _input_lines(arg: str | None) -> list[str]:
    if arg is not None:
        return [arg]
    with _stdin_text() as text:
        return [line for line in (raw.strip() for raw in text) if line]


def _each_graph(arg, handler) -> CommandOutcome:
    """Run handler(g6, graph) per input line; worst severity wins.  A line
    whose graph6 or hypothesis is rejected, or that a solver refuses,
    is an input error and the next line still runs."""
    out: list[str] = []
    code = 0
    for text in _input_lines(arg):
        try:
            line_code, payload = handler(text, parse_graph6(text))
        except HypothesisError as err:
            line_code, payload = 2, f"error: {text}: hypothesis fails ({err.flag}): {err}"
        except ValueError as err:
            line_code, payload = 2, f"error: {_shown(text)}: {err}"
        out.append(payload)
        code = max(code, line_code)
    if not out:
        return CommandOutcome(2, "error: no input graphs")
    return CommandOutcome(code, "\n".join(out))


def _cmd_invariants(args) -> CommandOutcome:
    def handler(g6: str, g: Graph):
        chi = chromatic_number(g)[0]
        alpha = independence_number(g)[0]
        omega = max_clique(g).bit_count()
        ham = g.n >= 3 and find_hamiltonian_cycle(g) is not None
        fields = [
            f"n={g.n}",
            f"kappa={vertex_connectivity(g)}",
            f"chi={chi}",
            f"alpha={alpha}",
            f"omega={omega}",
            f"mindeg={min_degree(g)}",
            f"hamiltonian={'yes' if ham else 'no'}",
        ]
        return 0, f"{g6} " + " ".join(fields)

    return _each_graph(args.graph, handler)


def _cmd_certify(args) -> CommandOutcome:
    def handler(g6: str, g: Graph):
        cert = certify(g, args.k)
        code = 1 if cert.kind == "counterexample" else 0
        return code, format_certificate(g, cert)

    return _each_graph(args.graph, handler)


def _cmd_trace(args) -> CommandOutcome:
    def handler(g6: str, g: Graph):
        trace = trace_proof(g, args.k)
        return (0 if trace.all_passed else 1), format_trace(trace)

    return _each_graph(args.graph, handler)


def _cmd_extremal(args) -> CommandOutcome:
    return CommandOutcome(0, to_graph6(build_extremal(args.k, args.n)))


def _cmd_verify(args) -> CommandOutcome:
    k_min = args.k_min if args.k_min is not None else 2
    k_max = args.k_max if args.k_max is not None else args.n - 1
    try:
        if args.stream is None:
            report = verify_order(args.n, (k_min, k_max))
        elif args.stream == "-":
            with _stdin_text() as text:
                report = verify_order(args.n, (k_min, k_max), stream=text)
        else:
            # a byte the codec cannot read reaches the decoder as a lone
            # surrogate, which is then reported with its line number
            with open(args.stream, encoding="ascii", errors="surrogateescape") as handle:
                report = verify_order(args.n, (k_min, k_max), stream=handle)
    except OSError as err:
        return CommandOutcome(2, f"error: {err}")
    bad = report.counterexamples or report.lemma1_violations
    return CommandOutcome(1 if bad else 0, report.summary())


def _cmd_g6(args) -> CommandOutcome:
    out: list[str] = []
    code = 0
    for text in _input_lines(args.text):
        try:
            if args.mode == "decode":
                g = parse_graph6(text)
                edges = " ".join(f"{u}-{v}" for u, v in g.edges())
                out.append(f"{g.n} {edges}".rstrip())
            else:
                tokens = text.split()
                n = int(tokens[0])
                edges = []
                for token in tokens[1:]:
                    u, _, v = token.partition("-")
                    edges.append((int(u), int(v)))
                out.append(to_graph6(with_edges(n, edges)))
        except (ValueError, IndexError) as err:
            out.append(f"error: {_shown(text)}: {err}")
            code = 2
    if not out:
        return CommandOutcome(2, "error: no input")
    return CommandOutcome(code, "\n".join(out))


_HANDLERS = {
    "invariants": _cmd_invariants,
    "certify": _cmd_certify,
    "trace": _cmd_trace,
    "extremal": _cmd_extremal,
    "verify": _cmd_verify,
    "g6": _cmd_g6,
}


def run(argv) -> CommandOutcome:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse already wrote usage/help text to its own streams
        return CommandOutcome(0 if exc.code in (0, None) else 2, "")
    try:
        return _HANDLERS[args.command](args)
    except ValueError as err:  # malformed input or a refused size, Graph6Error included
        return CommandOutcome(2, f"error: {err}")


def main(argv=None) -> int:
    outcome = run(sys.argv[1:] if argv is None else argv)
    if outcome.payload:
        try:
            print(outcome.payload)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone, as in `hamcert verify --n 7 | head -1`:
            # the exit code still reports the command, and standard output
            # points at devnull so that the interpreter's last flush of the
            # unwritten rest does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
