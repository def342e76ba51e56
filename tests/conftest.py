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


def lane_difference(got, want, at=()) -> str | None:
    """None when two lane tables are equal, else where they first differ:
    the index path into their lists, tuples and dicts, and for lane sets
    the lowest lane whose bit differs, with that bit on each side.  A
    failed == on lane sets of thousands of lanes prints no diff, only
    "Exceeds the limit (4300 digits) for integer string conversion", so
    lane tables are compared through this."""
    where = f"index {list(at)}: " if at else ""
    if isinstance(got, int) and isinstance(want, int):
        diff = got ^ want
        if not diff:
            return None
        lane = (diff & -diff).bit_length() - 1
        return f"{where}lane {lane} is {got >> lane & 1}, want {want >> lane & 1}"
    if type(got) is not type(want):
        return f"{where}a {type(got).__name__}, want a {type(want).__name__}"
    if isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{where}keys {sorted(got)}, want {sorted(want)}"
        pairs = [(key, got[key], want[key]) for key in got]
    elif isinstance(got, (list, tuple)):
        if len(got) != len(want):
            return f"{where}length {len(got)}, want {len(want)}"
        pairs = list(zip(range(len(got)), got, want))
    else:
        return None if got == want else f"{where}{got!r}, want {want!r}"
    for key, a, b in pairs:
        if (found := lane_difference(a, b, (*at, key))) is not None:
            return found
    return None


def assert_same_lanes(got, want, *context) -> None:
    """Fail naming the first differing index and lane (lane_difference)
    and the context, unless the two lane tables are equal."""
    __tracebackhide__ = True
    where = lane_difference(got, want)
    assert where is None, (*context, where)


def build_sharpness(k: int, n: int) -> Graph:
    """K_k + (K_{k+1}^c u K_{n-2k-1}), n >= 2k + 2: the join part 0..k-1,
    the independent part k..2k and the clique part 2k+1..n-1.  It has
    kappa = k and chi = n - k - 1, and deleting the join part leaves k + 2
    components, so it is not Hamiltonian: chi >= n - k cannot be lowered
    by one at any k or n."""
    if not (k >= 2 and n >= 2 * k + 2):
        raise ValueError("the sharpness family needs k >= 2 and n >= 2k + 2")
    join = [(u, v) for v in range(n) for u in range(min(v, k))]
    clique = [(u, v) for v in range(2 * k + 1, n) for u in range(2 * k + 1, v)]
    return with_edges(n, join + clique)


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
