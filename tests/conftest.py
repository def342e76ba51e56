"""Shared test strategies and the acceptance verdict reporter."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from hamcert.graphs import Graph, from_edge_mask, with_edges


@st.composite
def graphs_st(draw, min_n: int = 0, max_n: int = 8):
    """Arbitrary labeled graph with n in [min_n, max_n]."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return from_edge_mask(n, mask)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi style draw over the fixed pair order."""
    bits = n * (n - 1) // 2
    mask = 0
    for t in range(bits):
        if rng.random() < p:
            mask |= 1 << t
    return from_edge_mask(n, mask)


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
