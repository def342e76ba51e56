"""graph6 codec: byte-exact vectors, strict error handling, round trips."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import graph6
from hamcert.graph6 import (
    MAX_GRAPH6_ORDER,
    Graph6Error,
    decode_graph6,
    graph6_width,
    pair_lanes,
    parse_graph6,
    to_graph6,
    valid_block,
)
from hamcert.graphs import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    enumerate_labeled,
    from_edge_mask,
    path_graph,
    petersen_graph,
    transpose_swaps,
)
from tests.conftest import byte_edits_st, edited, graphs_st

GRAPH8 = Path(__file__).parent / "data" / "graph8.g6"


def test_known_vectors():
    assert to_graph6(edgeless_graph(0)) == "?"
    assert to_graph6(edgeless_graph(1)) == "@"
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(edgeless_graph(2)) == "A?"
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(cycle_graph(5)) == "Dhc"
    assert to_graph6(path_graph(4)) == "Ch"


def test_parse_known_vectors():
    assert parse_graph6("?").n == 0
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count() == 6
    # same 5-cycle class under another labeling; must still be 2-regular
    c5 = parse_graph6("DqK")
    assert c5.n == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    assert parse_graph6("Dhc") == cycle_graph(5)


def test_header_and_whitespace_tolerated():
    assert parse_graph6(">>graph6<<C~\n") == complete_graph(4)
    assert parse_graph6("  C~  ") == complete_graph(4)


def test_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated payload
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")  # trailing bytes
    with pytest.raises(Graph6Error):
        parse_graph6("C!~~")  # byte below range
    with pytest.raises(Graph6Error):
        parse_graph6("C\xc8~~")  # non-ASCII
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # n > 62 marker
    with pytest.raises(Graph6Error):
        parse_graph6("Aw")  # nonzero padding for n=2


def test_petersen_round_trip():
    p = petersen_graph()
    assert parse_graph6(to_graph6(p)) == p


def test_exhaustive_round_trip_small():
    for n in range(5):
        for g in enumerate_labeled(n):
            assert parse_graph6(to_graph6(g)) == g


@given(graphs_st(max_n=12))
def test_round_trip_property(g):
    assert parse_graph6(to_graph6(g)) == g


def bitwise_decode(text):
    """Order and edge mask of a graph6 line, read one bit at a time."""
    data = text.encode("ascii")
    n = data[0] - 63
    mask = 0
    for t in range(n * (n - 1) // 2):
        if (data[1 + t // 6] - 63) >> (5 - t % 6) & 1:
            mask |= 1 << t
    return n, mask


def test_decoder_matches_bitwise_reference():
    lines = GRAPH8.read_text(encoding="ascii").split()
    assert len(lines) == 12346
    for text in lines:
        assert decode_graph6(text) == bitwise_decode(text)
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            text = to_graph6(from_edge_mask(n, mask))
            assert decode_graph6(text) == bitwise_decode(text) == (n, mask)


def test_every_nonzero_padding_bit_rejected():
    for n in range(2, 10):
        nbits = n * (n - 1) // 2
        need = (nbits + 5) // 6
        pad = need * 6 - nbits
        for last in range(64):
            text = chr(63 + n) + "?" * (need - 1) + chr(63 + last)
            if last & ((1 << pad) - 1):
                with pytest.raises(Graph6Error, match="padding"):
                    decode_graph6(text)
            else:
                assert decode_graph6(text) == bitwise_decode(text)


def test_valid_block_rejects_each_kind_of_bad_line():
    # orders 3 and 4 share the width 2, and order 5 has two padding bits;
    # a block holds each line followed by a newline, as a text stream
    # holds it
    good = [to_graph6(from_edge_mask(4, mask)) for mask in range(64)]

    def block(texts):
        return "".join(text + "\n" for text in texts).encode("utf-8")

    data = block(good)
    assert valid_block(4, data)
    assert pair_lanes(4, data) == [
        sum(1 << mask for mask in range(64) if mask >> t & 1) for t in range(6)
    ]
    for bad in ("B~", "C", "C~~", "C\u00e9", "C!", ">>graph6<<C~"):
        assert not valid_block(4, block(good + [bad])), bad
    assert valid_block(5, block(["Dhc"]))
    assert not valid_block(5, block(["Dhc", "Dhd"]))
    assert valid_block(4, b"")
    # every line must end in a newline, even where the newline count, the
    # order column and the padding column pass: the lines "D" and "??Dhc"
    # fill two rows "D\n??" and "Dhc\n"
    for bad in (b"C~\rC~\n", b"C~ C~\n", b"C~\nC~ ", b"C~\n\nC", b"C~C~"):
        assert not valid_block(4, bad), bad
    assert not valid_block(5, b"D\n??Dhc\n")


def plain_line(n, text):
    """Whether text alone, as it stands, is a valid order-n graph6 line
    without header."""
    try:
        order, _ = decode_graph6(text)
    except Graph6Error:
        return False
    return order == n and text == text.strip() and not text.startswith(">>")


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 10),
    masks=st.lists(st.integers(min_value=0, max_value=(1 << 45) - 1), min_size=1, max_size=6),
    edits=byte_edits_st,
)
def test_block_decode_matches_line_decode(n, masks, edits):
    # a block passes valid_block exactly when each of its lines alone
    # decodes to order n without header, and pair_lanes then holds each
    # line's mask; the lines are those of its text, split at each newline
    # as a text stream splits them
    pairs = n * (n - 1) // 2
    texts = [to_graph6(from_edge_mask(n, m & ((1 << pairs) - 1))) for m in masks]
    grid = "".join(text.strip() + "\n" for text in edited(texts, edits))
    lines = grid.split("\n")[:-1]
    valid = all(plain_line(n, line) for line in lines)
    data = grid.encode("utf-8")
    assert valid_block(n, data) == valid
    if valid:
        expected = [
            sum((decode_graph6(line)[1] >> t & 1) << i for i, line in enumerate(lines))
            for t in range(pairs)
        ]
        assert pair_lanes(n, data) == expected


def random_grid(rng, n, rows):
    """rows random valid order-n graph6 lines, each w bytes and a newline:
    uniform payload bits, the padding bits of the last column clear."""
    w = graph6_width(n)
    pad = 6 * (w - 1) - n * (n - 1) // 2
    payload = bytes(63 + (b & 63) for b in range(256))
    last = bytes(63 + (b & 63 & -(1 << pad)) for b in range(256))
    grid = bytearray(b"\n" * (rows * (w + 1)))
    grid[::w + 1] = bytes([63 + n]) * rows
    for j in range(1, w):
        grid[j::w + 1] = rng.randbytes(rows).translate(last if j == w - 1 else payload)
    return bytes(grid)


def line_masks(n, grid, picks):
    """{i: edge mask of line i} for the picked lines of a grid, by
    decode_graph6 on each line alone."""
    w = graph6_width(n)
    decoded = {i: decode_graph6(grid[i * (w + 1):(i + 1) * (w + 1)].decode("ascii")) for i in picks}
    assert all(order == n for order, _ in decoded.values())
    return {i: mask for i, (_, mask) in decoded.items()}


def lane_mask(lanes, i):
    """The edge mask that bit i of each pair's lane set spells."""
    return sum((x >> i & 1) << t for t, x in enumerate(lanes))


@pytest.mark.parametrize("n", range(1, MAX_GRAPH6_ORDER + 1))
def test_pair_lanes_hold_each_line_at_every_order(n):
    # one block of 4,097 random lines, and every prefix of 0-17 and
    # 4,095-4,097 lines, which ends in a partial or a whole 8-line word:
    # the lanes of a prefix are those of the block cut to its lines, and
    # bit i of the lanes spells line i's decoded mask, for every line up
    # to order 8 and above it for every line of the 17-line prefix and a
    # spread of the block's
    rng = random.Random(n)
    w = graph6_width(n)
    pairs = n * (n - 1) // 2
    grid = random_grid(rng, n, 4097)
    assert valid_block(n, grid)
    lanes = pair_lanes(n, grid)
    assert len(lanes) == pairs
    for rows in [*range(18), 4095, 4096, 4097]:
        cut = [x & ((1 << rows) - 1) for x in lanes]
        assert pair_lanes(n, grid[:rows * (w + 1)]) == cut, rows
    assert all(x >> 4097 == 0 for x in lanes)
    picks = range(4097) if n <= 8 else [*range(17), *range(17, 4080, 61), *range(4080, 4097)]
    masks = line_masks(n, grid, picks)
    assert {i: lane_mask(lanes, i) for i in picks} == masks


def test_pair_lanes_need_every_swap_of_the_transpose(monkeypatch):
    # a transpose with one of its three delta swaps left out puts some
    # bits of an order-8 block in the wrong lanes
    rng = random.Random(8)
    grid = random_grid(rng, 8, 64)
    expected = pair_lanes(8, grid)
    masks = line_masks(8, grid, range(64))
    assert [lane_mask(expected, i) for i in range(64)] == [masks[i] for i in range(64)]
    low, swaps = graph6._transpose_constants(64)
    assert len(swaps) == len(graph6.TRANSPOSE_SWAPS) == 3
    for left_out in range(3):
        kept = swaps[:left_out] + swaps[left_out + 1:]
        monkeypatch.setattr(graph6, "_transpose_constants", lambda rows, kept=kept: (low, kept))
        assert pair_lanes(8, grid) != expected, left_out


def test_pair_lanes_swaps_are_the_shared_builders_at_width_8():
    # the 8 x 8 swaps that pair_lanes ran as literals, as a set: the
    # builder's order may differ, since the swaps commute
    old = {(7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)}
    assert set(transpose_swaps(8)) == set(graph6.TRANSPOSE_SWAPS) == old


def test_pair_lanes_of_graph8_blocks_are_pinned():
    # graph8.g6 in blocks of 4,096 lines and the 58 left over, as the
    # stream reads it: the sha256 of the lane lists' reprs, taken when
    # the swaps were literals
    data = GRAPH8.read_bytes()
    row = graph6_width(8) + 1
    digest = hashlib.sha256()
    for at in range(0, len(data), 4096 * row):
        digest.update(repr(pair_lanes(8, data[at:at + 4096 * row])).encode())
    assert digest.hexdigest() == "e546ec2bd8f1ed0af08af69ca415e978c37ab29c6b50feeb5cb2d36f7506efab"
