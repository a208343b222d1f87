"""Reading and writing undirected graphs in graph6 format.

The format packs the upper triangle of the adjacency matrix, read
column by column, into 6-bit chunks offset by 63 (McKay, "graph6 and
sparse6 formats").  The reader turns the body into one "0"/"1" string
and finds its set bits with str.find, so its Python work is per edge,
not per bit.
"""

from __future__ import annotations

from .graphs import Graph, build_graph

__all__ = ["Graph6Error", "parse_graph6", "write_graph6"]

_HEADER = ">>graph6<<"
_MAX_ORDER = 100_000
# the data bytes 63..126, and each one's six bits as a "0"/"1" string
_DATA_BYTES = bytes(range(63, 127))
_SIX_BITS = {b: format(b - 63, "06b") for b in _DATA_BYTES}


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _parse_order(data: bytes) -> tuple[int, bytes]:
    if not data:
        raise Graph6Error("empty graph6 string")
    if data[0] != 126:  # '~'
        n = data[0] - 63
        if not 0 <= n <= 62:
            raise Graph6Error(f"order byte {data[0]} out of range")
        return n, data[1:]
    if len(data) < 2 or data[1] != 126:
        chunk, rest = data[1:4], data[4:]
        if len(chunk) != 3:
            raise Graph6Error("truncated 3-byte order field")
    else:
        chunk, rest = data[2:8], data[8:]
        if len(chunk) != 6:
            raise Graph6Error("truncated 6-byte order field")
    n = 0
    for b in chunk:
        if not 63 <= b <= 126:
            raise Graph6Error(f"order byte {b} out of range")
        n = (n << 6) | (b - 63)
    if n > _MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the supported maximum")
    return n, rest


def parse_graph6(text: str) -> Graph:
    """Graph from one graph6 line (optional >>graph6<< header allowed).

    Raises Graph6Error for non-ASCII text, a bad order field, a body of
    the wrong length, a data byte outside 63..126 (the first one is
    named) and nonzero padding bits.  The set bits are found one by one
    in the body's bit string, and a running column start turns each
    position into its edge (i, j)."""
    line = text.strip()
    if line.startswith(_HEADER):
        line = line[len(_HEADER):]
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("graph6 text must be ASCII") from exc
    n, body = _parse_order(data)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"expected {(nbits + 5) // 6} data bytes for order {n}, got {len(body)}"
        )
    bad = body.translate(None, _DATA_BYTES)
    if bad:
        raise Graph6Error(f"data byte {bad[0]} out of range")
    bits = "".join([_SIX_BITS[b] for b in body])
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    # column j holds the bits of (0, j) .. (j - 1, j) from position start
    edges = []
    j = start = 0
    pos = bits.find("1", 0, nbits)
    while pos >= 0:
        while pos >= start + j:
            start += j
            j += 1
        edges.append((pos - start, j))
        pos = bits.find("1", pos + 1, nbits)
    return build_graph(n, edges)


def write_graph6(g: Graph) -> str:
    n = g.order
    if n > _MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the supported maximum")
    if n <= 62:
        head = bytes([n + 63])
    else:  # n <= _MAX_ORDER <= 258047, so the 3-byte order field
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    nbits = n * (n - 1) // 2
    bits = [0] * (nbits + -nbits % 6)
    for i, j in g.edges():
        bits[j * (j - 1) // 2 + i] = 1
    body = bytes(
        63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
              | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5])
        for i in range(0, len(bits), 6)
    )
    return (head + body).decode("ascii")
