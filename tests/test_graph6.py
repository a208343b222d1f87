import pytest

from cdtsep.graph6 import Graph6Error, parse_graph6, write_graph6
from cdtsep.graphs import Graph, build_graph


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
        with pytest.raises(Graph6Error):
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
