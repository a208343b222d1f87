import random

import pytest

from cdtsep.catalog import CdtName, build_cdt
from cdtsep.graph6 import _HEADER, Graph6Error, _parse_order, parse_graph6, write_graph6
from cdtsep.graphs import Graph, build_graph


def reference_parse(text: str) -> Graph:
    """The per-bit graph6 decoder that parse_graph6 replaced: every bit
    of the upper triangle read in a Python loop."""
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
    bits = []
    for b in body:
        if not 63 <= b <= 126:
            raise Graph6Error(f"data byte {b} out of range")
        bits.extend((b - 63) >> shift & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return build_graph(n, edges)


def both_refuse(text: str) -> str:
    """The message that parse_graph6 and reference_parse both refuse
    text with."""
    with pytest.raises(Graph6Error) as ours:
        parse_graph6(text)
    with pytest.raises(Graph6Error) as ref:
        reference_parse(text)
    assert str(ours.value) == str(ref.value)
    return str(ours.value)


def random_graphs():
    """One seeded random graph of each order 0..130 at a random density,
    and the empty and complete graphs of a few orders on both sides of
    the switch from the 1-byte to the 3-byte order field at 63."""
    rng = random.Random(2802)
    out = []
    for n in range(131):
        p = rng.random()
        out.append(build_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
    for n in (0, 1, 2, 7, 61, 62, 63, 64, 130):
        out.append(build_graph(n, []))
        out.append(build_graph(n, [(i, j) for j in range(n) for i in range(j)]))
    return out


class TestParse:
    def test_k4(self):
        g = parse_graph6("C~")
        assert g.order == 4
        assert g.num_edges() == 6

    def test_k2(self):
        g = parse_graph6("A_")
        assert g.order == 2
        assert g.has_edge(0, 1)

    def test_empty_graph_on_four_vertices(self):
        g = parse_graph6("C?")
        assert g.order == 4
        assert g.num_edges() == 0

    def test_header_and_whitespace_tolerated(self):
        assert parse_graph6(">>graph6<<C~\n").num_edges() == 6

    def test_rejects_truncation(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C")

    def test_rejects_extra_bytes(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C~~")

    def test_rejects_out_of_range_byte(self):
        # an ASCII byte below 63, past the ASCII check
        with pytest.raises(Graph6Error, match="data byte 33"):
            parse_graph6("C!")

    def test_rejects_non_ascii_text(self):
        with pytest.raises(Graph6Error, match="ASCII"):
            parse_graph6("C" + chr(200))

    def test_rejects_nonzero_padding(self):
        # K2 body with a stray low-order padding bit set
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(63 + 0b100001))

    def test_rejects_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_lone_tilde_is_a_truncated_3_byte_field(self):
        with pytest.raises(Graph6Error, match="truncated 3-byte order field"):
            parse_graph6("~")


class TestOrderCap:
    def test_parse_refuses_order_above_cap(self):
        # ~WY` is the 3-byte order field of 100001
        with pytest.raises(Graph6Error, match="order 100001 exceeds"):
            parse_graph6("~WY`")

    def test_parse_reads_order_at_cap(self):
        # ~WY_ is 100000: the header passes and the missing body is reported
        with pytest.raises(Graph6Error, match="data bytes for order 100000"):
            parse_graph6("~WY_")

    def test_write_refuses_order_above_cap(self):
        with pytest.raises(Graph6Error, match="order 100001 exceeds"):
            write_graph6(Graph(100_001, ((),) * 100_001))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "edges,n",
        [
            ([], 1),
            ([(0, 1)], 2),
            ([(0, 1), (1, 2), (2, 0)], 3),
            ([(i, (i + 1) % 7) for i in range(7)], 7),
        ],
    )
    def test_small_graphs(self, edges, n):
        g = build_graph(n, edges)
        h = parse_graph6(write_graph6(g))
        assert h.order == g.order
        assert sorted(h.edges()) == sorted(g.edges())

    def test_large_order_uses_long_form(self):
        g = build_graph(63, [(0, 62)])
        text = write_graph6(g)
        assert text.startswith("~")
        h = parse_graph6(text)
        assert h.order == 63
        assert h.has_edge(0, 62)

    def test_known_encoding(self):
        assert write_graph6(build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])) == "C~"


class TestAgainstTheBitDecoder:
    def test_random_graphs(self):
        for g in random_graphs():
            text = write_graph6(g)
            assert parse_graph6(text) == reference_parse(text) == g, text

    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_catalog_graphs(self, name):
        g, _ = build_cdt(name)
        text = write_graph6(g)
        assert parse_graph6(text) == reference_parse(text) == g

    def test_each_padding_bit_is_refused(self):
        refused = 0
        for n in range(2, 70):
            text = write_graph6(build_graph(n, [(i, j) for j in range(n) for i in range(j)]))
            nbits = n * (n - 1) // 2
            for shift in range(-nbits % 6):
                bad = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 1 << shift))
                assert both_refuse(bad) == "nonzero padding bits", (n, shift)
                refused += 1
        assert refused == 148

    def test_out_of_range_first_and_last_body_byte(self):
        for n in (2, 7, 12, 62, 63, 100):
            text = write_graph6(build_graph(n, [(0, n - 1)]))
            head = 1 if n <= 62 else 4
            for pos in (head, len(text) - 1):
                for byte in (0, 62, 127):
                    bad = text[:pos] + chr(byte) + text[pos + 1:]
                    assert both_refuse(bad) == f"data byte {byte} out of range", (n, pos)
