"""Shared test strategies and the acceptance verdict reporter."""

from __future__ import annotations

import io
import random
from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from hamcert import harness
from hamcert.graph6 import to_graph6
from hamcert.graphs import Graph, from_edge_mask, with_edges


@st.composite
def graphs_st(draw, min_n: int = 0, max_n: int = 8):
    """Arbitrary labeled graph with n in [min_n, max_n]."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return from_edge_mask(n, mask)


# Edits of a list of lines: (line, position, kind, character), the kind 0
# to replace the character at the position, 1 to insert before it and 2 to
# delete it; the characters are the 256 byte values and a non-ASCII one.
byte_edits_st = st.lists(
    st.tuples(
        st.integers(0, 15), st.integers(0, 9), st.integers(0, 2),
        st.one_of(st.integers(0, 255).map(chr), st.just("\u00e9")),
    ),
    max_size=4,
)


def edited(lines: list[str], edits) -> list[str]:
    """lines after each edit of byte_edits_st, the line taken modulo their
    count and the position cut to the line's length."""
    lines = list(lines)
    for at, pos, kind, char in edits:
        text = lines[at % len(lines)]
        pos = min(pos, len(text))
        if kind == 0:
            text = text[:pos] + char + text[pos + 1:]
        elif kind == 1:
            text = text[:pos] + char + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
        lines[at % len(lines)] = text
    return lines


def text_stream(lines: list[str], ending: str | None = "\n") -> io.StringIO:
    """lines as a text file: each ended by ending, or, for None, every
    one but the last by a newline."""
    if ending is None:
        return io.StringIO("\n".join(lines))
    return io.StringIO("".join(line + ending for line in lines))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi style draw over the fixed pair order."""
    bits = n * (n - 1) // 2
    mask = 0
    for t in range(bits):
        if rng.random() < p:
            mask |= 1 << t
    return from_edge_mask(n, mask)


@contextmanager
def extremal_certificates():
    """Record (graph6, k) of every extremal certificate that the harness
    issues inside the block, in order, by wrapping harness.certify."""
    calls: list[tuple[str, int]] = []
    exact = harness.certify

    def certify(g, k):
        cert = exact(g, k)
        if cert.kind == "extremal":
            calls.append((to_graph6(g), k))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "certify", certify)
        yield calls


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Wrap each named function of module to count its calls; the counts
    are read from the returned dict as the calls happen."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        exact = getattr(module, name)

        def counted(*args, _exact=exact, _name=name, **kwargs):
            calls[_name] += 1
            return _exact(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def relabeled(g: Graph, rng: random.Random) -> Graph:
    """Copy of g under a random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return with_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# acceptance verdict plumbing: each acceptance test records one line here and
# the terminal summary prints the block after the run.

_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    _VERDICTS.append(line)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("ACCEPTANCE SUMMARY")
    for line in _VERDICTS:
        terminalreporter.write_line(line)
