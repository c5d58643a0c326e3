import io
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import square_cycle, triangle_cycle
from imbalanceset import Digraph, digraph, formats, realize_imbalance_set
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


class TestScratch:
    def test_a_line_longer_than_a_block_grows_the_scratch(self, monkeypatch):
        sizes = []
        take = formats._Scratch.__call__
        monkeypatch.setattr(formats._Scratch, "__call__", lambda self, size: sizes.append(size) or take(self, size))
        text = "# tournament n=2\n0" + " " * (2 * formats._CHUNK) + "1\n"
        assert parse_edgelist(text) == Digraph(2, [(0, 1)])
        assert max(sizes) > 3 * (formats._CHUNK + 256)  # the scratch's first size


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

    def test_a_utf8_tail_is_scanned_not_read_whole(self, monkeypatch):
        whole = []
        monkeypatch.setattr(formats, "_load_json", whole.append)
        text = '{"n": 2, "arcs": [[0, 1]], "note": "\u00e9\u2028"}'.encode()
        assert parse_json(text) == Digraph(2, [(0, 1)]) and whole == []

    @pytest.mark.parametrize("note", [b"\xff", b"\xed\xa0\x80"])  # json.loads of bytes passes the surrogate
    def test_a_tail_that_is_not_utf8_is_refused(self, note):
        with pytest.raises(UnicodeDecodeError):
            parse_json(b'{"n": 2, "arcs": [[0, 1]], "note": "' + note + b'"}')

    def test_an_id_with_a_leading_zero_is_read_whole(self, monkeypatch):
        # The scan refuses the chunk, and json.loads refuses the number.
        whole = []
        load = formats._load_json
        monkeypatch.setattr(formats, "_load_json", lambda text: whole.append(text) or load(text))
        text = '{"n": 3, "arcs": [[01, 2]]}'
        with pytest.raises(ValueError, match="Expecting ',' delimiter"):
            parse_json(text)
        assert whole == [text]

    @pytest.mark.parametrize("key", ['"arcs"', '"\\u0061rcs"'])
    def test_a_later_arcs_key_wins_as_in_json_loads(self, key):
        assert parse_json('{"n": 2, "arcs": [[0, 1]], ' + key + ": []}") == Digraph(2)


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

    @pytest.mark.parametrize("kind", ["dot", "edgelist", "json"])
    def test_write_unpacks_a_bounded_block(self, kind):
        # Traced peak <= the packed rows, two blocks of unpacked cells and
        # the table of id strings (under 80 bytes an id): an order-903
        # tournament unpacked whole would take 815 KB.
        class Discard(io.TextIOBase):
            def write(self, text: str) -> int:
                return len(text)

        graph = realize_imbalance_set({4, -598})
        n = graph.n
        write(graph, kind, Discard())  # json is imported on first use
        tracemalloc.start()
        try:
            write(graph, kind, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 903
        assert peak <= n * -(-n // 8) + 2 * digraph._CELLS + 80 * n, peak


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
        with pytest.raises(ValueError, match="unknown format"):
            parse("", "gml")

    @pytest.mark.parametrize("chunk", (formats._CHUNK, 1, 2))
    @pytest.mark.parametrize(
        "lead", [c.decode() for c in formats._WIDE] + [chr(b) for b in formats._ODD_BYTES] + [" ", "\t", "\n"], ids=ascii
    )
    def test_leading_whitespace_of_every_kind_is_skipped(self, monkeypatch, lead, chunk):
        # The guess on every cut of the document, whole characters or not,
        # is the one its text decoded and stripped of whitespace gives.
        def guess(data: bytes) -> str:
            head = data.decode("utf-8", "replace").lstrip()
            return "dot" if head.startswith("digraph") else "json" if head.startswith("{") else "edgelist"

        monkeypatch.setattr(formats, "_CHUNK", chunk)
        for body in ("digraph {\n}\n", '{"n": 0, "arcs": []}', "# tournament n=0\n", "digrap", "x"):
            text = 2 * lead + body
            data = text.encode()
            assert detect_format(text) == guess(data)
            for cut in range(len(data) + 1):
                assert detect_format(data[:cut]) == detect_format(io.BytesIO(data[:cut])) == guess(data[:cut])


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
        with pytest.raises(UnicodeDecodeError):  # in the head line, which is free text
            parse_dot(b"digraph \xff {\n  0 -> 1;\n}\n")
        with pytest.raises(UnicodeDecodeError):
            parse_edgelist(b"# tournament n=2\n0 1\xff\n")


# Each line break str.splitlines knows and each other whitespace, with the
# character it stands in for in a document written with "\n" and " ".
_STAND_INS = [
    ("\r\n", "\n"),
    ("\r", "\n"),
    ("\x0b", "\n"),
    ("\x85", "\n"),
    ("\u2028", "\n"),
    ("\x1f", " "),
    ("\xa0", " "),
    ("\u3000", " "),
]


class TestReadBoundaries:
    """Line breaks and spaces other than "\\n" and " " are mapped as the
    file is read, byte for byte; small reads cut their UTF-8 sequences,
    forward through the body and backward from the end."""

    @pytest.mark.parametrize("kind", ["dot", "edgelist"])
    @pytest.mark.parametrize("char, plain", _STAND_INS)
    def test_every_read_size_parses_as_the_plain_twin(self, monkeypatch, kind, char, plain):
        graph = realize_imbalance_set({3, -1, -5})
        text = emit(graph, kind).replace(plain, char)
        assert graph.n == 12 and char in text
        for chunk in range(8, 91):
            monkeypatch.setattr(formats, "_CHUNK", chunk)
            assert parse(text.encode(), kind) == graph, chunk

    def test_a_crlf_reads_as_a_space_and_a_line_end(self):
        assert formats._Lines(io.BytesIO(b"0 1\r\n2 3\r")).read() == b"0 1 \n2 3\n"
        # A lone "\r" still ends a line, as in str.splitlines: "\r\r\n" is two.
        assert formats._Lines(io.BytesIO(b"0\r\r\n1")).read() == b"0\n \n1"
        assert len("0\r\r\n1".splitlines()) == 3

    @pytest.mark.parametrize("cut", range(1, 11))
    def test_a_read_cut_in_a_crlf_maps_like_an_uncut_one(self, cut):
        data = b"0 1\r\n2 3\r\n"  # cut 4 falls between its first "\r" and "\n"
        lines = formats._Lines(io.BytesIO(data))
        assert lines.read(cut) + lines.read() == formats._Lines(io.BytesIO(data)).read() == b"0 1 \n2 3 \n"

    def test_every_whitespace_character_is_mapped(self):
        # Breaks to "\n" (a wide one behind spaces), other whitespace to
        # spaces, each to as many bytes as it has; every other character
        # is kept.
        def mapped(c: str) -> bytes:
            data = c.encode()
            if not c.isspace() or c in " \t\n":
                return data
            return b" " * (len(data) - 1) + (b"\n" if len(f"a{c}a".splitlines()) == 2 else b" ")

        chars = [chr(i) for i in range(sys.maxunicode + 1) if not 0xD800 <= i < 0xE000]
        text = formats._Lines(io.BytesIO("".join(chars).encode())).read()
        assert text == b"".join(map(mapped, chars))

    @pytest.mark.parametrize(
        "kind, end, members, order, unpacked, blocks",
        [("edgelist", "\r\n", {4, -198}, 303, True, 32)]
        + [
            (kind, end, {4, -598}, 903, False, 64)
            for kind, end in (("dot", "\n"), ("dot", "\r\n"), ("edgelist", "\n"), ("edgelist", "\r\n"), ("json", "\n"))
        ],
        ids=("edgelist-crlf-303", "dot-lf", "dot-crlf", "edgelist-lf", "edgelist-crlf", "json"),
    )
    def test_parse_is_bounded_in_memory(self, tmp_path, monkeypatch, kind, end, members, order, unpacked, blocks):
        # Traced peak <= the packed rows, an unpacked matrix if allowed,
        # and `blocks` 4 KiB reads of temporaries.  A decoded and
        # rewritten copy of the document (379 KB at order 303) would not
        # fit, nor at order 903 the unpacked matrix (815 KB).
        graph = realize_imbalance_set(members)
        n = graph.n
        path = tmp_path / f"graph.{kind}"
        path.write_bytes(emit(graph, kind).replace("\n", end).encode())
        monkeypatch.setattr(formats, "_CHUNK", 4096)
        with path.open("rb") as fh:
            tracemalloc.start()
            try:
                parsed = parse(fh, kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert parsed == graph and n == order
        assert peak <= n * -(-n // 8) + unpacked * n * n + blocks * 4096, peak

    @pytest.mark.parametrize("kind", ["dot", "edgelist", "json"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_parse_holds_a_dozen_reads(self, tmp_path, monkeypatch, kind, end):
        # Traced peak <= the packed rows and 12 reads of 4 KiB of working
        # set: the masks and decoder words in one reused scratch buffer,
        # the block and its ids.  DOT's rows grow as its ids come, so the
        # rows before a growth are alive with the rows after it.
        graph = realize_imbalance_set({4, -598})
        n = graph.n
        path = tmp_path / f"graph.{kind}"
        path.write_bytes(emit(graph, kind).replace("\n", end).encode())
        monkeypatch.setattr(formats, "_CHUNK", 4096)
        with path.open("rb") as fh:
            tracemalloc.start()
            try:
                parsed = parse(fh, kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert parsed == graph and n == 903
        assert peak <= (2 if kind == "dot" else 1) * n * -(-n // 8) + 12 * 4096, peak
