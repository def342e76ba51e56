"""graph6 text codec, bit-exact for orders 0 through 62.

Layout: one printable-ASCII line per graph.  First byte is 63 + n.  The
upper triangle of the adjacency matrix is read in column order (0,1),
(0,2), (1,2), (0,3), ..., packed big-endian into 6-bit groups, each
group emitted as one byte offset by 63.  The final group is zero-padded.
An optional ``>>graph6<<`` header prefix is accepted on input.
"""

from __future__ import annotations

from hamcert.graphs import Graph, from_edge_mask, triangle_pairs

_HEADER = ">>graph6<<"

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
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
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


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (surrounding whitespace and header tolerated)."""
    return from_edge_mask(*decode_graph6(text))


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header, no newline)."""
    if g.n > MAX_GRAPH6_ORDER:
        raise Graph6Error(f"graph6 orders above {MAX_GRAPH6_ORDER} are not supported")
    out = [g.n + _LO]
    chunk = 0
    filled = 0
    for i, j in triangle_pairs(g.n):
        chunk = chunk << 1 | (g.adj[i] >> j & 1)
        filled += 1
        if filled == 6:
            out.append(chunk + _LO)
            chunk = 0
            filled = 0
    if filled:
        out.append((chunk << (6 - filled)) + _LO)
    return bytes(out).decode("ascii")
