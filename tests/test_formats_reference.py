"""The array-based formats against the per-line code they replaced.

``reference_formats`` is the replaced code.  On every generated ASCII
document both parsers must accept or both reject; a rejection must be of
the same kind (and, for faults in the arcs themselves, carry the same
message); an accepted document must give the same graph.  Emitters must
agree byte for byte.  The deliberate differences are tested on their
own, and last come the same checks with the parsers' chunk size patched
small, so that chunk boundaries fall between every pair of lines, each
also read from an open file.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_formats as ref
from imbalanceset import Digraph, DoubledPairError, ResourceLimitError, formats, realize_imbalance_set
from imbalanceset.formats import emit, parse, parse_dot, parse_edgelist, parse_json

DATA = Path(__file__).parent / "data"
KINDS = ("dot", "edgelist", "json")

_ARC_FAULTS = ("out of range", "self-loop", "duplicate", "opposing")
# A line or a JSON arc entry that is not a pair of integers.
_SYNTAX = ("unparseable", "invalid literal", "values to unpack", "[source, target] pairs", "ids must be integers")


def _kind(exc: Exception) -> str:
    text = str(exc)
    for word in _ARC_FAULTS:
        if word in text:
            return word
    if any(word in text for word in _SYNTAX):
        return "syntax"
    if "dot digraph" in text:
        return "frame"
    if "empty edge-list" in text:
        return "empty"
    if "tournament n=" in text:
        return "header"
    return f"other: {type(exc).__name__}: {text}"


def _outcome(parser, text: str):
    try:
        return "ok", parser(text)
    except ValueError as exc:
        return "error", _kind(exc), str(exc)


def _assert_agree(kind: str, text: str) -> None:
    old = _outcome(ref.PARSE[kind], text)
    new = _outcome(lambda t: parse(t, kind), text)
    assert old[:2] == new[:2], (text, old, new)
    if old[0] == "ok":
        assert new[1] == old[1], text
    elif old[1] in _ARC_FAULTS:
        assert old[2] == new[2], text
    if new[0] == "error" and new[1] in ("duplicate", "opposing"):
        with pytest.raises(DoubledPairError):
            parse(text, kind)


# -- generated documents -------------------------------------------------

_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c")
_space = st.text(alphabet=" \t\x1f", max_size=3)
_gap = st.text(alphabet=" \t\x1f", min_size=1, max_size=3)
_garbage = st.text(alphabet="0123456789 ->;{}#=nabx.", max_size=8)


@st.composite
def _number(draw, lo: int, hi: int) -> str:
    value = draw(st.integers(min_value=lo, max_value=hi))
    zeros = "0" * draw(st.integers(min_value=0, max_value=1)) if value >= 0 else ""
    return f"{'-' if value < 0 else ''}{zeros}{abs(value)}"


@st.composite
def _document(draw, head, line) -> str:
    """A head line and up to 12 lines, each with a drawn line break.

    Half of the documents may hold garbage lines; the rest exercise the
    arc checks and the accepted whitespace.
    """
    if draw(st.booleans()):
        line = _pick((3, line), (1, _garbage))
    lines = [draw(head)] + draw(st.lists(line, max_size=12))
    breaks = [draw(st.sampled_from(_BREAKS)) for _ in lines]
    tail = draw(st.sampled_from(("", "\n", "\n\n", "  ")))
    return "".join(ln + br for ln, br in zip(lines, breaks)).rstrip("\n") + tail


def _pick(*options):
    """A draw from one of the strategies, given as (weight, strategy) pairs."""
    return st.sampled_from([s for w, s in options for _ in range(w)]).flatmap(lambda s: s)


def _mostly(good, *bad):
    """Draw ``good`` about three times in four, else one of ``bad``."""
    return _pick((3, good), (1, st.sampled_from(bad)))


@st.composite
def dot_documents(draw) -> str:
    s = _space
    ident = _number(0, 9)
    arc = st.builds(lambda a, u, b, c, v, d, e: f"{a}{u}{b}->{c}{v}{d};{e}", s, ident, s, s, ident, s, s)
    node = st.builds(lambda a, u, b, c: f"{a}{u}{b};{c}", s, ident, s, s)
    line = _pick((4, arc), (1, node), (1, s))
    head = st.builds(lambda a, h, b: a + h + b, s, st.sampled_from(("digraph {", "digraph{", "digraph G {")), s)
    body = draw(_document(_mostly(head, "graph {", "", "digraph {}", "{"), line))
    foot = draw(_mostly(st.sampled_from(("}", " } ", "}\n", "\t}\n\n")), "", "};", "}}"))
    return body + ("\n" if body and not body.endswith("\n") else "") + foot


@st.composite
def edgelist_documents(draw) -> str:
    n = draw(st.integers(min_value=0, max_value=6))
    s, gap = _space, _gap
    ident = _number(-2, n + 2)
    arc = st.builds(lambda a, u, b, v, c: f"{a}{u}{b}{v}{c}", s, ident, gap, ident, s)
    line = _pick((4, arc), (1, s))
    head = st.builds(
        lambda a, b, c, d, n_text, e: f"{a}#{b}tournament{c}n={n_text}{e}",
        s, s, gap, s, st.sampled_from((str(n), f"0{n}")), s,
    )
    bad_heads = ("", "# n=3", "tournament n=2", "# tournament n=", "# tournament n=x")
    return draw(_document(_mostly(head, *bad_heads), line))


@st.composite
def json_documents(draw) -> str:
    n = draw(st.integers(min_value=0, max_value=6))
    ident = st.integers(min_value=-1, max_value=n + 1)
    pair = st.tuples(ident, ident).map(list)
    odd = st.one_of(
        st.lists(ident, max_size=3),
        # Ids that int() reads, "1" or true, are a deliberate difference, tested on their own.
        st.tuples(ident, st.sampled_from(("x", "", "1.5"))).map(list),
    )
    entry = _pick((12, pair), (1, odd))
    arcs = draw(st.lists(entry, max_size=10))
    return json.dumps({"n": n, "arcs": arcs})


_generated = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestParsersAgree:
    @_generated
    @given(dot_documents())
    def test_dot(self, text):
        _assert_agree("dot", text)

    @_generated
    @given(edgelist_documents())
    def test_edgelist(self, text):
        _assert_agree("edgelist", text)

    @_generated
    @given(json_documents())
    def test_json(self, text):
        _assert_agree("json", text)

    @_generated
    @given(st.sampled_from(KINDS), st.data())
    def test_well_formed_documents_with_arc_faults(self, kind, data):
        # Whole documents of arc lines only, so nearly every example
        # reaches the arc checks: range, self-loop, duplicate, opposing.
        n = data.draw(st.integers(min_value=1, max_value=6))
        ident = st.integers(min_value=-1 if kind != "dot" else 0, max_value=n)
        arcs = data.draw(st.lists(st.tuples(ident, ident), max_size=12))
        if kind == "dot":
            text = "digraph {\n" + "".join(f"  {u} -> {v};\n" for u, v in arcs) + "}\n"
        elif kind == "edgelist":
            text = f"# tournament n={n}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
        else:
            text = json.dumps({"n": n, "arcs": arcs})
        _assert_agree(kind, text)

    @pytest.mark.parametrize(
        "text",
        [
            "digraph {\r\n  0 -> 1;\r\n  1 -> 2;\r\n}\r\n",
            "\n\n  digraph {\n\n  2;\n\t0\t->\t1\t;\n}\n\n",
            "digraph {\n  0 -> 1;\n  1 -> 0;\n  0 -> 0;\n}\n",
            "digraph {\n  3;\n  0 -> 1; junk\n}\n",
            "digraph {\n}",
            "digraph {}\n",
            "}\n",
            "",
        ],
    )
    def test_dot_cases(self, text):
        _assert_agree("dot", text)

    @pytest.mark.parametrize(
        "text",
        [
            "# tournament n=3\r\n0 1\r\n\r\n1 2\r\n",
            "  #tournament\tn=003  \n\n 0\t1 \n",
            "# tournament n=3\n0 1\n-1 2\n",
            "# tournament n=3\n0 1\n1 0\n2 2\n",
            "# tournament n=3\n0 1\n2 2\n1 0\n",
            "# tournament n=3\n0 1 2\n",
            "# tournament n=3\nx y\n",
            "\n \n",
            "0 1\n",
        ],
    )
    def test_edgelist_cases(self, text):
        _assert_agree("edgelist", text)


class TestEmittersAgree:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_byte_identical(self, data):
        n = data.draw(st.integers(min_value=0, max_value=9))
        states = data.draw(st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2,
                                    max_size=n * (n - 1) // 2))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        arcs = [(u, v) if s == 1 else (v, u) for s, (u, v) in zip(states, pairs) if s]
        g = Digraph(n, arcs)
        for kind in KINDS:
            assert emit(g, kind) == ref.EMIT[kind](g)

    @pytest.mark.parametrize("members", [{4, 2, -2}, {3, -1}, {0}, {1, -3}, {10, -12}, {2, 0, -4}])
    def test_realized_certificates(self, members):
        g = realize_imbalance_set(members)
        for kind in KINDS:
            assert emit(g, kind) == ref.EMIT[kind](g)


class TestLargeOrderRoundTrip:
    def test_order_1503_round_trips_in_every_format(self):
        g = realize_imbalance_set({4, -998})
        assert g.n == 1503
        for kind in KINDS:
            text = emit(g, kind)
            again = parse(text, kind)
            assert again == g
            assert emit(again, kind) == text

    def test_golden_dot_file_is_reproduced(self):
        golden = (DATA / "golden_4_2_-2.dot").read_text()
        g = realize_imbalance_set({4, 2, -2})
        assert emit(g, "dot") == golden
        assert emit(parse(golden, "dot"), "dot") == golden


class TestDeliberateDifferences:
    """Inputs the replaced parsers took or failed on differently."""

    @pytest.mark.parametrize("line", ["+3 1", "1_0 2", "١ 2"])
    def test_edge_ids_are_ascii_digits_with_an_optional_minus(self, line):
        text = f"# tournament n=20\n{line}\n"
        assert ref.parse_edgelist(text).arc_count == 1
        with pytest.raises(ValueError, match="unparseable edge-list line"):
            parse_edgelist(text)

    def test_dot_ids_are_ascii_digits(self):
        text = "digraph {\n  ١ -> 2;\n}\n"
        assert ref.parse_dot(text).arc_count == 1
        with pytest.raises(ValueError, match="unparseable dot line"):
            parse_dot(text)

    def test_huge_orders_hit_the_matrix_cap_before_allocation(self):
        with pytest.raises(ResourceLimitError):
            parse_dot("digraph {\n  0 -> 99999999;\n}\n")
        with pytest.raises(ResourceLimitError):
            parse_edgelist("# tournament n=99999999\n")

    def test_ids_beyond_int64_are_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_edgelist("# tournament n=3\n0 99999999999999999999999\n")
        with pytest.raises(ValueError, match="out of range"):
            parse_json('{"n": 3, "arcs": [[0, 99999999999999999999999]]}')

    @pytest.mark.parametrize("arcs", ["5", "[null]", "[[0, 1], 7]"])
    def test_json_arcs_that_are_not_pairs_raise_value_error(self, arcs):
        text = f'{{"n": 3, "arcs": {arcs}}}'
        with pytest.raises(TypeError):
            ref.parse_json(text)
        with pytest.raises(ValueError, match=r"\[source, target\] pairs"):
            parse_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "arcs": [[1.9, 0]]}',
            '{"n": 3, "arcs": [[1.0, 0]]}',
            '{"n": 3, "arcs": [[1, 2e0]]}',
            '{"n": 2.7, "arcs": []}',
        ],
    )
    def test_json_numbers_must_be_integers(self, text):
        assert ref.parse_json(text).n in (2, 3)
        with pytest.raises(ValueError, match="json numbers must be integers"):
            parse_json(text)

    @pytest.mark.parametrize(
        "text, ref_outcome",
        [
            ('{"n": 2, "arcs": [[true, 0]]}', None),
            ('{"n": 3, "arcs": [[0, "1"], [1, 2]]}', None),
            ('{"n": 3, "arcs": [[1, null]]}', TypeError),
            ('{"n": 3, "arcs": [[1, [2]]]}', TypeError),
            ('{"n": 3, "arcs": [[0, 2], {"1": 2, "0": 1}]}', None),
        ],
    )
    def test_json_ids_must_be_json_integers(self, text, ref_outcome):
        if ref_outcome is None:
            assert ref.parse_json(text).arc_count >= 1
        else:
            with pytest.raises(ref_outcome):
                ref.parse_json(text)
        with pytest.raises(ValueError, match="json arc ids must be integers"):
            parse_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"arcs": [[0, 1]], "n": "2"}',
            '{"n": "2", "arcs": [[0, 1]]}',
            '{"n": true, "arcs": []}',
        ],
    )
    def test_json_order_must_be_a_json_integer(self, text):
        assert ref.parse_json(text).n in (1, 2)
        with pytest.raises(ValueError, match="json 'n' must be an integer"):
            parse_json(text)

    @pytest.mark.parametrize("arcs", ['""', "{}", '{"ab": 1}'])
    def test_json_arcs_must_be_a_list(self, arcs):
        text = f'{{"n": 3, "arcs": {arcs}}}'
        with pytest.raises(ValueError, match=r"\[source, target\] pairs"):
            parse_json(text)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_json_constants_are_not_integers(self, constant):
        text = f'{{"n": {constant}, "arcs": []}}'
        with pytest.raises((ValueError, OverflowError)):
            ref.parse_json(text)
        with pytest.raises(ValueError, match=f"integers, not {constant}"):
            parse_json(text)


# -- chunk boundaries ----------------------------------------------------

# The program's chunk, then chunks of one byte (so one line or arc each),
# of a few bytes and of a few lines.
CHUNKS = (formats._CHUNK, 1, 7, 64)
_DOCUMENTS = {"dot": dot_documents(), "edgelist": edgelist_documents(), "json": json_documents()}


def _exact(kind: str, text: str):
    try:
        return "ok", parse(text, kind)
    except (ValueError, ResourceLimitError) as exc:
        return "error", type(exc), str(exc)


def _assert_same_for_every_chunk(kind: str, text: str) -> None:
    """Under each chunk size: the outcome agrees with the reference as in
    TestParsersAgree, and the graph, or the exception type and message,
    is exactly the one under the program's chunk; read from an open
    file, it is exactly the one read from the same bytes."""
    expected = _exact(kind, text)
    data = text.encode()
    for chunk in CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_CHUNK", chunk)
            assert _exact(kind, text) == expected, (chunk, text)
            _assert_agree(kind, text)
            assert _exact(kind, io.BytesIO(data)) == _exact(kind, data), (chunk, text)


def _arc_lines(kind: str, n: int, arcs) -> str:
    if kind == "dot":
        return "digraph {\n" + "".join(f"  {u} -> {v};\n" for u, v in arcs) + "}\n"
    if kind == "edgelist":
        return f"# tournament n={n}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    return json.dumps({"n": n, "arcs": arcs})


_FILLER = [(0, v) for v in range(2, 40)]  # long enough to put what follows in a later chunk


class TestChunkBoundaries:
    @_generated
    @given(st.sampled_from(KINDS), st.data())
    def test_generated_documents(self, kind, data):
        _assert_same_for_every_chunk(kind, data.draw(_DOCUMENTS[kind]))

    @_generated
    @given(st.sampled_from(KINDS), st.data())
    def test_documents_with_arc_faults(self, kind, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        ident = st.integers(min_value=-1 if kind != "dot" else 0, max_value=n)
        arcs = data.draw(st.lists(st.tuples(ident, ident), max_size=40))
        _assert_same_for_every_chunk(kind, _arc_lines(kind, n, arcs))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("early", [[(0, 1), (1, 0)], [(0, 1), (0, 1)], [(1, 1)], [(0, 99)]])
    def test_an_early_arc_fault_yields_to_a_later_grammar_fault(self, kind, early):
        text = _arc_lines(kind, 40, early + _FILLER)
        if kind == "json":
            text = text[:-2] + ', [0, "x"]]}'
        else:
            text = text.replace("  0 -> 39;\n", "  0 -> 39;\n  junk\n").replace("0 39\n", "0 39\njunk\n")
        _assert_same_for_every_chunk(kind, text)
        with pytest.raises(ValueError, match="unparseable|must be integers"):
            parse(text, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("late", [(1, 0), (0, 1), (39, 0), (0, 39)])
    def test_a_pair_doubled_across_chunks(self, kind, late):
        text = _arc_lines(kind, 40, [(0, 1)] + _FILLER + [late])
        _assert_same_for_every_chunk(kind, text)
        with pytest.raises(DoubledPairError):
            parse(text, kind)

    def test_signed_zero_ids_at_block_starts(self):
        # "-0" is id 0.  A block starts a line, so the byte before its first
        # id is not in it: the last byte read ahead of it, a "-" here at
        # chunk size 1, must not sign that id.
        arcs = [(u, v) for u in range(12) for v in range(u)]
        text = "# tournament n=12\n" + "".join(f"{u} -{v}\n" if v == 0 else f"{u} {v}\n" for u, v in arcs)
        _assert_same_for_every_chunk("edgelist", text)
        assert parse(text, "edgelist") == Digraph(12, arcs)

    @pytest.mark.parametrize("kind", KINDS)
    def test_growing_ids(self, kind):
        # DOT learns its order from its ids, so its matrix grows chunk by chunk.
        path = [(v, v + 1) for v in range(300)]
        _assert_same_for_every_chunk(kind, _arc_lines(kind, 301, path))
        _assert_same_for_every_chunk(kind, _arc_lines(kind, 301, path + [(150, 0), (300, 299)]))

    @pytest.mark.parametrize(
        "text",
        [
            '{"arcs": [[0, 1], [1, 2]], "n": 3, "imbalance_set": [1]}',
            '{"arcs": [[0, 1]], "n": 3, "arcs": [[1, 2], [2, 0]]}',
            '{"n": 3, "arcs": [[0, 1], [1, 0]], "arcs": [[1, 2]]}',
            '{"n": 3, "arcs": [[1, 2]], "extra": [[0, 1]], "arcs": [[2, 1], [1, 2]]}',
            '{"n": 3, "arcs": [[0, 1]], "note": "\\"arcs\\": [[1, 0]]"}',
        ],
    )
    def test_json_arcs_not_last_or_twice(self, text):
        _assert_same_for_every_chunk("json", text)
