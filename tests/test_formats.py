import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import square_cycle, triangle_cycle
from imbalanceset import Digraph, realize_imbalance_set
from imbalanceset.formats import (
    detect_format,
    emit,
    parse,
    parse_dot,
    parse_edgelist,
    parse_json,
    write,
)


@st.composite
def digraphs(draw, max_n: int = 7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            state = draw(st.integers(min_value=0, max_value=2))
            if state == 1:
                arcs.append((u, v))
            elif state == 2:
                arcs.append((v, u))
    return Digraph(n, arcs)


class TestDot:
    def test_emit_shape(self):
        text = emit(Digraph(2, [(0, 1)]), "dot")
        assert text == "digraph {\n  0 -> 1;\n}\n"

    def test_isolated_vertices_are_kept(self):
        text = emit(Digraph(1), "dot")
        assert text == "digraph {\n  0;\n}\n"
        assert parse_dot(text).n == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="dot"):
            parse_dot("graph { 0 -- 1; }")
        with pytest.raises(ValueError, match="unparseable"):
            parse_dot("digraph {\n  0 => 1;\n}\n")


class TestEdgelist:
    def test_emit_shape(self):
        text = emit(triangle_cycle(), "edgelist")
        assert text == "# tournament n=3\n0 1\n1 2\n2 0\n"

    def test_header_is_required(self):
        with pytest.raises(ValueError, match="tournament n="):
            parse_edgelist("0 1\n")


class TestJson:
    def test_document_fields(self):
        text = emit(square_cycle(), "json")
        assert (
            text
            == '{"n": 4, "arcs": [[0, 1], [1, 2], [2, 3], [3, 0]], '
            '"imbalance_sequence": [0, 0, 0, 0], "imbalance_set": [0]}\n'
        )

    def test_parse_needs_n_and_arcs(self):
        with pytest.raises(ValueError, match="arcs"):
            parse_json('{"n": 3}')


class TestRoundTrips:
    @given(digraphs())
    @settings(max_examples=50)
    def test_emit_parse_emit_is_byte_identical(self, g: Digraph):
        for kind in ("dot", "edgelist", "json"):
            text = emit(g, kind)
            again = parse(text, kind)
            assert again == g
            assert emit(again, kind) == text

    def test_realized_tournament_round_trips(self):
        g = realize_imbalance_set({4, 2, -2})
        for kind in ("dot", "edgelist", "json"):
            assert parse(emit(g, kind), kind) == g


class TestWrite:
    @given(digraphs())
    @settings(max_examples=50)
    def test_write_gives_the_emitted_text(self, g: Digraph):
        for kind in ("dot", "edgelist", "json"):
            fh = io.StringIO()
            write(g, kind, fh)
            assert fh.getvalue() == emit(g, kind)

    def test_unknown_format_writes_nothing(self):
        fh = io.StringIO()
        with pytest.raises(ValueError, match="unknown format"):
            write(Digraph(1), "gml", fh)
        assert fh.getvalue() == ""


class TestDetect:
    def test_by_extension(self):
        assert detect_format("", "graph.dot") == "dot"
        assert detect_format("", "graph.gv") == "dot"
        assert detect_format("", "graph.json") == "json"
        assert detect_format("", "graph.edges") == "edgelist"

    def test_by_content(self):
        assert detect_format("digraph {\n}\n") == "dot"
        assert detect_format('{"n": 1, "arcs": []}') == "json"
        assert detect_format("# tournament n=2\n0 1\n") == "edgelist"

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit(triangle_cycle(), "gml")


class TestBytes:
    @given(digraphs())
    @settings(max_examples=50)
    def test_bytes_parse_as_their_text(self, g: Digraph):
        for kind in ("dot", "edgelist", "json"):
            text = emit(g, kind)
            assert parse(text.encode(), kind) == parse(text, kind) == g
            assert detect_format(text.encode()) == detect_format(text) == kind

    def test_non_ascii_bytes_are_read_as_utf8(self):
        text = "digraph {\u2028  0 -> 1;\n}\n"  # a line break str.splitlines knows
        assert parse_dot(text.encode()) == parse_dot(text) == Digraph(2, [(0, 1)])
        with pytest.raises(UnicodeDecodeError):
            parse_dot(b"digraph {\n  0 -> 1;\xff\n}\n")
