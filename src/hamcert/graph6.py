"""graph6 text codec, bit-exact for orders 0 through 62.

Layout: one printable-ASCII line per graph.  First byte is 63 + n.  The
upper triangle of the adjacency matrix is read in column order (0,1),
(0,2), (1,2), (0,3), ..., packed big-endian into 6-bit groups, each
group emitted as one byte offset by 63.  The final group is zero-padded.
An optional ``>>graph6<<`` header prefix is accepted on input.

A block of lines of one order decodes at once, as one bytes object of
rows of w + 1 bytes: each line's w bytes and a newline, as a text
stream holds them.  valid_block checks the whole block and pair_lanes
reads each pair's bit of every line as one int, bit i for line i, by an
8 x 8 bit transpose of each payload column with no str or digit string
made.  The transpose's swaps come from graphs.transpose_swaps, the one
bit-matrix transpose of the package, which from_edge_mask runs at every
order.
"""

from __future__ import annotations

from functools import lru_cache

from hamcert.graphs import Graph, from_edge_mask, transpose_swaps

GRAPH6_HEADER = ">>graph6<<"

# Printable graph6 byte range.
_LO = 63
_HI = 126

# The one-byte order form ends here: the first byte 63 + n stays below
# 126, which marks the multi-byte form, left out of scope.
MAX_GRAPH6_ORDER = _HI - _LO - 1


class Graph6Error(ValueError):
    """Raised for malformed graph6 input."""


# Bit t of an edge mask sits at position 5 - t % 6 of byte t // 6, so
# each payload byte, less 63, contributes its 6 bits reversed.
_REVERSED6 = [int(f"{c:06b}"[::-1], 2) for c in range(64)]


def decode_graph6(text: str) -> tuple[int, int]:
    """Decode one graph6 line (surrounding whitespace and header
    tolerated) to its order n and its edge mask in ``triangle_pairs``
    order; every malformed line raises Graph6Error."""
    s = text.strip().removeprefix(GRAPH6_HEADER)
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character in graph6 string: {exc}") from None
    if min(data) < _LO or max(data) > _HI:
        bad = next(b for b in data if b < _LO or b > _HI)
        raise Graph6Error(f"byte {bad} outside graph6 range {_LO}..{_HI}")
    n = data[0] - _LO
    if n > MAX_GRAPH6_ORDER:
        raise Graph6Error(f"graph6 orders above {MAX_GRAPH6_ORDER} are not supported")
    body = data[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated graph6 payload: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"trailing bytes after graph6 payload: {len(body) - need} extra")
    mask = 0
    for b in reversed(body):
        mask = mask << 6 | _REVERSED6[b - _LO]
    # Zero padding in the final group is required; anything else is noise.
    if mask >> nbits:
        raise Graph6Error("nonzero padding bits in final graph6 byte")
    return n, mask


# The delta swaps of an 8 x 8 bit transpose of a little-endian 64-bit word,
# row i in byte i: (shift, mask of the bits that trade places with the bits
# shift above them).
TRANSPOSE_SWAPS = transpose_swaps(8)
_GRAPH6_BYTES = bytes(range(_LO, _HI + 1))


def graph6_width(n: int) -> int:
    """The length of an order-n graph6 line without header: the order
    byte and one byte per six pairs."""
    return 1 + (n * (n - 1) // 2 + 5) // 6


# _UNPADDED[pad] holds the graph6 bytes whose low pad bits are clear: the
# last payload byte of an order-n line may hold no other, pad being
# 6 (w - 1) - n (n - 1) / 2, from 0 to 5.
_UNPADDED = [
    bytes(b for b in _GRAPH6_BYTES if (b - _LO) & ((1 << pad) - 1) == 0) for pad in range(6)
]


def valid_block(n: int, data: bytes) -> bool:
    """Whether data is rows of w + 1 bytes, each a valid order-n graph6
    line without header and a newline.  The rows fill data, each row's w
    bytes are in 63..126 and its last byte a newline, the order column is
    63 + n, and the last payload column has no padding bit set.  Each
    check takes the whole block in one call."""
    w = graph6_width(n)
    rows, rest = divmod(len(data), w + 1)
    ends = b"\n" * rows
    return (
        not rest
        and data.translate(None, _GRAPH6_BYTES) == ends
        and data[w::w + 1] == ends
        and data[::w + 1] == bytes([_LO + n]) * rows
        and not data[w - 1::w + 1].translate(None, _UNPADDED[6 * (w - 1) - n * (n - 1) // 2])
    )


@lru_cache(maxsize=4)
def _transpose_constants(rows: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """For a column of rows bytes: the int of rows bytes 63, and each
    delta swap of TRANSPOSE_SWAPS with its mask repeated once per 8-byte
    word.  A stream asks for the same block size again and again."""
    words = -(-rows // 8)
    swaps = tuple(
        (shift, int.from_bytes(swap.to_bytes(8, "little") * words, "little"))
        for shift, swap in TRANSPOSE_SWAPS
    )
    return int.from_bytes(bytes([_LO]) * rows, "little"), swaps


def pair_lanes(n: int, data: bytes) -> list[int]:
    """Bit-sliced decode of a block of valid order-n lines, rows of w + 1
    bytes as valid_block takes them: the lane set of each pair in
    ``triangle_pairs`` order, whose bit i is the pair's bit in line i.
    Column 1 + j of the block is data[1 + j::w + 1], one byte per line,
    and holds pairs 6j .. 6j + 5, pair t as bit 5 - t % 6.  Each column
    is one int, byte i for line i, less 63 in every byte at once (no byte
    is below 63, so nothing borrows); its 8-byte words are 8 x 8 bit
    matrices with a row per line, and three swaps of their off-diagonal
    blocks transpose every word at once (Warren, Hacker's Delight, 7-3).
    Byte b of each word then holds bit b of its eight lines, so the lane
    set of pair 6j + r is bytes 5 - r, 13 - r, ... of the column."""
    pairs = n * (n - 1) // 2
    w = graph6_width(n)
    rows = len(data) // (w + 1)
    low, swaps = _transpose_constants(rows)
    size = -(-rows // 8) * 8
    lanes = []
    for j in range(w - 1):
        x = int.from_bytes(data[1 + j::w + 1], "little") - low
        for shift, swap in swaps:
            t = ((x >> shift) ^ x) & swap
            x ^= t ^ (t << shift)
        column = x.to_bytes(size, "little")
        lanes += [int.from_bytes(column[5 - r::8], "little") for r in range(min(6, pairs - 6 * j))]
    return lanes


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (surrounding whitespace and header tolerated)."""
    return from_edge_mask(*decode_graph6(text))


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header, no newline): the
    order byte, then each six bits of the edge mask reversed, as
    decode_graph6 reads them, since the reversal undoes itself."""
    if g.n > MAX_GRAPH6_ORDER:
        raise Graph6Error(f"graph6 orders above {MAX_GRAPH6_ORDER} are not supported")
    mask = g.edge_mask()
    body = [_LO + _REVERSED6[mask >> 6 * j & 63] for j in range(graph6_width(g.n) - 1)]
    return bytes([_LO + g.n, *body]).decode("ascii")
