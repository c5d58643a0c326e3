"""Stable text formats for digraphs: dot, edge list, and json.

Emission is canonical (arcs sorted by source then target, fixed header
and key order), so emit -> parse -> emit is byte-identical.  Vertex ids
are 0-based contiguous integers and survive every round trip; vertices
that touch no arc are written explicitly so the order is never lost.

A certificate has Theta(n^2) arcs, so neither direction makes a Python
object per arc.  Emission yields one string per adjacency row, joining
the row's targets from a table of id strings; :func:`write` writes them
one by one, :func:`emit` joins them.  Parsing checks the whole body
with one ``re.sub`` that deletes runs of good lines, anchored at line
starts (whatever it leaves over are the bad lines), and then converts
every id in one ``np.fromstring`` call.  JSON floats are refused.
Lines break wherever ``str.splitlines`` breaks them, surrounding
whitespace is ignored, blank lines are skipped, and ids are ASCII
decimal digits (``-`` allowed in edge lists, so a negative id is
reported as out of range).
"""

from __future__ import annotations

import gc
import json
import re
from itertools import chain
from typing import Iterator, NoReturn, TextIO

import numpy as np

from .digraph import Digraph
from .errors import FORMATS  # noqa: F401  (re-exported)

# _lines() rewrites every str.splitlines break to "\n" and every other
# whitespace to a space, so inside a line only spaces and tabs remain,
# both of which np.fromstring skips.
_BREAKS = re.compile(r"\r\n|[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_ODD_SPACE = re.compile(r"[^\S\n\t ]")
_S = r"[ \t]"
_DIGIT = re.compile(r"[0-9]")


def _line_blocks(line: str) -> re.Pattern:
    """Runs of up to 256 whole lines of one grammar, from a line start.

    ``re.sub`` with this pattern deletes every good line and leaves the
    bad ones.  A block per match is cheaper than a match per line, and
    the bound keeps the engine's backtracking record small (an unbounded
    run over the whole body would hold one record per line).
    """
    return re.compile(rf"^(?:{line}\n){{1,256}}", re.MULTILINE)


_DOT_FRAME = re.compile(rf"\s*digraph[^\n]*\n(.*\n)?{_S}*\}}\s*", re.DOTALL)
_DOT_LINES = _line_blocks(rf"{_S}*(?:[0-9]+{_S}*(?:->{_S}*[0-9]+{_S}*)?;)?{_S}*")
_DOT_NODE = re.compile(rf"^{_S}*([0-9]+){_S}*;{_S}*$", re.MULTILINE)
_DOT_PUNCT = str.maketrans("->;", "   ")

_EDGE_HEAD = re.compile(rf"\s*#{_S}*tournament{_S}+n=([0-9]+){_S}*\n")
_EDGE_LINES = _line_blocks(rf"{_S}*(?:-?[0-9]+{_S}+-?[0-9]+)?{_S}*")


def emit(graph: Digraph, kind: str) -> str:
    return "".join(_pieces(graph, kind))


def write(graph: Digraph, kind: str, fh: TextIO) -> None:
    """Write what :func:`emit` returns to ``fh``, one row at a time."""
    fh.writelines(_pieces(graph, kind))


def parse(text: str, kind: str) -> Digraph:
    if kind == "dot":
        return parse_dot(text)
    if kind == "edgelist":
        return parse_edgelist(text)
    if kind == "json":
        return parse_json(text)
    raise ValueError(f"unknown format {kind!r}")


def detect_format(text: str, filename: str | None = None) -> str:
    """Guess the format from the filename extension, then the content."""
    if filename:
        lowered = filename.lower()
        if lowered.endswith((".dot", ".gv")):
            return "dot"
        if lowered.endswith(".json"):
            return "json"
        if lowered.endswith((".edges", ".edgelist", ".txt")):
            return "edgelist"
    head = text.lstrip()[:16]
    if head.startswith("digraph"):
        return "dot"
    if head.startswith("{"):
        return "json"
    return "edgelist"


# -- shared row and token passes ---------------------------------------


def _pieces(graph: Digraph, kind: str) -> Iterator[str]:
    """The document in pieces: its head, one piece per row, its tail."""
    between = ""
    if kind == "dot":
        degrees = graph.out_degrees() + graph.in_degrees()
        head = "digraph {\n" + "".join(f"  {v};\n" for v in np.flatnonzero(degrees == 0))
        rows, tail = ("  {u} -> ", ";\n  {u} -> ", ";\n"), "}\n"
    elif kind == "edgelist":
        head, rows, tail = f"# tournament n={graph.n}\n", ("{u} ", "\n{u} ", "\n"), ""
    elif kind == "json":
        head, rows, between = f'{{"n": {graph.n}, "arcs": [', ("[{u}, ", "], [{u}, ", "]"), ", "
        tail = (
            f'], "imbalance_sequence": {json.dumps(list(graph.imbalance_sequence()))}, '
            f'"imbalance_set": {json.dumps(sorted(graph.imbalance_set(), reverse=True))}}}\n'
        )
    else:
        raise ValueError(f"unknown format {kind!r}")
    yield head
    rows = _rows(graph, *rows)
    yield next(rows, "")
    yield from (between + row for row in rows)
    yield tail


def _rows(graph: Digraph, head: str, sep: str, tail: str) -> Iterator[str]:
    """One string per vertex with out-arcs: ``head + t1 + sep + t2 ... + tail``.

    ``head`` and ``sep`` may hold ``{u}`` for the row's source id; the
    targets come from a table of id strings, in increasing order.
    """
    adj = graph.matrix()
    ids = np.array([str(v) for v in range(graph.n)], dtype=object)
    for u in np.flatnonzero(adj.any(axis=1)):
        name = ids[u]
        targets = ids[np.flatnonzero(adj[u])].tolist()
        yield head.format(u=name) + sep.format(u=name).join(targets) + tail


def _lines(text: str) -> str:
    """``text`` with every line ending in "\\n", the last one too, where
    str.splitlines would end it, and only " " or "\\t" as whitespace
    inside a line."""
    if not text.isascii() or any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e\x1f"):
        text = _ODD_SPACE.sub(" ", _BREAKS.sub("\n", text))
    return text if text.endswith("\n") else text + "\n"


def _check_lines(blocks: re.Pattern, body: str, kind: str) -> None:
    """Raise for the first line of ``body`` outside the grammar of ``blocks``."""
    bad = blocks.sub("", body)
    if bad:
        first = bad[: bad.index("\n")].strip()
        raise ValueError(f"unparseable {kind} line: {first!r}")


def _ids(body: str) -> np.ndarray:
    """Every decimal id in a checked body, in order, as one int64 array.

    Ids beyond the int64 range clamp to its ends, which are out of range
    for any order the matrix cap allows.
    """
    if _DIGIT.search(body) is None:  # np.fromstring reads a blank string as [0]
        return np.zeros(0, dtype=np.int64)
    return np.fromstring(body, dtype=np.int64, sep=" ")


# -- dot ---------------------------------------------------------------


def parse_dot(text: str) -> Digraph:
    frame = _DOT_FRAME.fullmatch(_lines(text))
    if frame is None:
        raise ValueError("not a dot digraph document")
    body = frame.group(1) or ""
    _check_lines(_DOT_LINES, body, "dot")
    seen = -1
    if body.count(";") != body.count("->"):  # some node lines ("  7;")
        seen = max(int(v) for v in _DOT_NODE.findall(body))
        body = _DOT_NODE.sub("", body)
    ids = _ids(body.translate(_DOT_PUNCT))
    if ids.size:
        seen = max(seen, int(ids.max()))
    return Digraph.from_arcs(seen + 1, ids[0::2], ids[1::2])


# -- edge list ---------------------------------------------------------


def parse_edgelist(text: str) -> Digraph:
    text = _lines(text)
    header = _EDGE_HEAD.match(text)
    if not header:
        if not text.strip():
            raise ValueError("empty edge-list document")
        raise ValueError("edge list must start with '# tournament n=<n>'")
    body = text[header.end():]
    _check_lines(_EDGE_LINES, body, "edge-list")
    ids = _ids(body)
    return Digraph.from_arcs(int(header.group(1)), ids[0::2], ids[1::2])


# -- json --------------------------------------------------------------


def parse_json(text: str) -> Digraph:
    # json.loads makes a list per arc and no cycles, so pausing the cyclic
    # collector (which would rescan the growing heap) loses nothing.  The
    # switch is process-wide; another thread at worst runs unpaused or
    # paused for as long as this call.
    collecting = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text, parse_float=_not_an_id, parse_constant=_not_an_id)
    finally:
        if collecting:
            gc.enable()
    if not isinstance(doc, dict) or "n" not in doc or "arcs" not in doc:
        raise ValueError("json document must carry 'n' and 'arcs'")
    arcs = doc["arcs"]
    try:
        pairs = set(map(len, arcs)) <= {2}
    except TypeError:
        pairs = False
    if not pairs:
        raise ValueError("json 'arcs' must be a list of [source, target] pairs")
    try:
        ids = np.fromiter(chain.from_iterable(arcs), dtype=np.int64, count=2 * len(arcs))
    except OverflowError:
        raise ValueError(f"json arc id out of range for order {doc['n']}") from None
    return Digraph.from_arcs(int(doc["n"]), ids[0::2], ids[1::2])


def _not_an_id(token: str) -> NoReturn:
    """Reject a JSON float or constant, which int() would silently truncate."""
    raise ValueError(f"json numbers must be integers, not {token}")
