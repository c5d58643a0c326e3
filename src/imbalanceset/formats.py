"""Stable text formats for digraphs: dot, edge list, and json.

Emission is canonical (arcs sorted by source then target, fixed header
and key order), so emit -> parse -> emit is byte-identical.  Vertex ids
are 0-based contiguous integers and survive every round trip; vertices
that touch no arc are written explicitly so the order is never lost.

A certificate has Theta(n^2) arcs, so neither direction makes a Python
object per arc.  Emission unpacks the graph's bit-packed rows a bounded
block at a time (``digraph._CELLS`` cells) and yields one string per
row, joining the row's targets from a table of id strings; :func:`write`
writes them one by one, :func:`emit` joins them.

Parsing reads the document from a binary file (a ``str`` or ``bytes`` is
wrapped in ``io.BytesIO``), ``_CHUNK`` bytes at a time, and never holds
it whole.  The head is read from the start; the DOT closing ``}`` line
and the JSON ``]]`` that closes the arcs are found by reading back from
the end.  The body between them is then read once, each block cut at its
last line end, or in JSON at the ``]`` that closes an arc, with the rest
carried into the next read.  In each block:

1. numpy marks, once per block, where tokens start (a digit run,
   ``->``, ``;``, a line end; in JSON ``[``, ``,`` and ``]``) and where
   digit runs start.  The token string, each token's first byte,
   is cut out of the block by ``bytes.translate``, and counts of its
   lines (or JSON arcs) check the grammar.  The first bad line is found
   by bisecting the block.
2. Each digit run is decoded from the eight bytes that start it, read
   as one integer and decoded in place (see :func:`_ids`).
3. The arcs are set straight into the graph's packed rows by
   :func:`imbalanceset.digraph._set_arcs`, which checks only their
   range.  No unpacked matrix is made.  Once every block is in, one
   banded test of the rows (:func:`imbalanceset.digraph._sound`) shows
   whether an arc repeated a pair or looped, and only then is the body
   read again, through :func:`imbalanceset.digraph._place_arcs`, to
   name the first such arc.

The masks and the decoder's words are written into one scratch buffer,
allocated once per parse and reused by every block.  So the peak is the
packed rows, n * ceil(n / 8) bytes, plus about 8 to 12 blocks' worth of
working set (the scratch, the block, its ids, the reads), unless a line
is longer than a block or JSON holds much outside ``arcs`` (the rest is
read whole by ``json.loads``).

A grammar fault is raised at once; an arc fault is held until the rest
of the body has passed the grammar, so grammar faults still come first,
and an arc fault is the first in file order, with the messages of
:meth:`Digraph.from_arcs`.  The matrix cap is checked before the rows
are allocated.  A DOT document does not state its order, which is its
largest id plus one, so its rows grow with the ids (by at least a
quarter each time, each order checked against the cap first), and its
arc faults also wait until the last id shows that the cap holds.

DOT and edge-list documents are read through :class:`_Lines`, which
maps every line break ``str.splitlines`` knows to "\\n" and the rest of
the whitespace to spaces, byte for byte, so offsets stay the file's own
and one streaming pass reads every document (the "\\r" of a CRLF reads
as a space, so a CRLF line has the tokens of its LF twin).  Surrounding
whitespace is ignored, blank lines are skipped, and ids are ASCII
decimal digits (``-`` allowed in edge lists, so a negative id is
reported as out of range).  Any other non-ASCII
byte fails the scan; the line its message quotes and the DOT head line,
the one free text (a graph name), are decoded as UTF-8, so a byte that
is not UTF-8 raises ``UnicodeDecodeError``.

In JSON only the ``arcs`` array is scanned: the rest of the document is
cut out, decoded strictly and read by ``json.loads``, which refuses
floats.  The one read of a whole document is :func:`_load_json`: JSON
whose head is not ``{"n": ..., "arcs": [``, whose arcs are not all plain
integer pairs, or whose ``arcs`` key the scan cannot place (a second
one, say), is read by ``json.loads`` whole, and its ids are scattered by
the same code.  Only the code that writes or reads JSON imports
:mod:`json`, so DOT and edge-list documents never load it.
"""

from __future__ import annotations

import io
import re
from itertools import chain
from typing import BinaryIO, Callable, Iterator, NoReturn, TextIO

import numpy as np

from .digraph import Digraph, _place_arcs, _resized, _set_arcs, _sound, _zeros
from .errors import MAX_MATRIX_ORDER, ResourceLimitError, check_matrix_order

# Bytes per read, and so about per scanned chunk.  The scan's working set
# comes to about 8 to 12 times this size, while each chunk costs a fixed
# number of Python-level calls: larger chunks parse a little faster but
# hold more memory.
_CHUNK = 1 << 16

# The bytes the scanners read as other bytes of the same count, so that
# every offset stays the file's own: each str.splitlines break becomes
# "\n" and every other whitespace but " " and "\t" spaces, a character
# wider than a byte as spaces, then "\n" if it is a break.
_ODD_BYTES = b"\r\x0b\x0c\x1c\x1d\x1e\x1f"
_NARROW = bytes.maketrans(_ODD_BYTES, b"\n\n\n\n\n\n ")
_WIDE = {
    c.encode(): b" " * (len(c.encode()) - 1) + (b"\n" if c in "\x85\u2028\u2029" else b" ")
    for c in "\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000"
}
_WIDE_SPACE = re.compile(b"|".join(map(re.escape, _WIDE)))

_DOT_HEAD = re.compile(rb"[ \t\n]*digraph[^\n]*\n")
_EDGE_HEAD = re.compile(rb"[ \t\n]*#[ \t]*tournament[ \t]+n=([0-9]+)[ \t]*\n")
_WS = rb"[ \t\n\r]*"  # JSON whitespace
_JSON_HEAD = re.compile(rb'%s\{%s(?:"n"%s:%s-?[0-9]+%s,%s)?"arcs"%s:%s\[' % ((_WS,) * 8))

# Bytes between tokens.  In edge lists and JSON a sign is one too, and
# is checked on its own (_BAD_SIGN finds one out of place): right before
# a digit and, in edge lists, not right after one.  A dot "->" is one
# token, its "-"; its ">" is read as a space.
_SPACES = {"dot": b" \t", "edgelist": b" \t-", "json": b" \t\n\r-"}
_BAD_SIGN = {"edgelist": re.compile(rb"-(?![0-9])|[0-9]-"), "json": re.compile(rb"-(?![0-9])")}
_DIGIT_ZERO = bytes.maketrans(b"0123456789", b"0000000000")
_JSON_ARC = np.frombuffer(b",[0,0]", dtype=np.uint8)  # the tokens of a JSON arc, "0" for an id
_JSON_DIGITS = 18  # an id of at most 18 digits fits int64

_NAMES = {"dot": "dot", "edgelist": "edge-list"}
_INT64_MAX = 2**63 - 1


def emit(graph: Digraph, kind: str) -> str:
    return "".join(_pieces(graph, kind))


def write(graph: Digraph, kind: str, fh: TextIO) -> None:
    """Write what :func:`emit` returns to ``fh``, one row at a time."""
    fh.writelines(_pieces(graph, kind))


def parse(text: str | bytes | BinaryIO, kind: str) -> Digraph:
    if kind == "dot":
        return parse_dot(text)
    if kind == "edgelist":
        return parse_edgelist(text)
    if kind == "json":
        return parse_json(text)
    raise ValueError(f"unknown format {kind!r}")


def detect_format(text: str | bytes | BinaryIO, filename: str | None = None) -> str:
    """Guess the format from the filename extension, then the content:
    its start up to 7 bytes past the leading whitespace (``text`` may be
    an open binary file, read from its start)."""
    if filename:
        lowered = filename.lower()
        if lowered.endswith((".dot", ".gv")):
            return "dot"
        if lowered.endswith(".json"):
            return "json"
        if lowered.endswith((".edges", ".edgelist", ".txt")):
            return "edgelist"
    head = _prefix(_Lines(_open(text)), lambda data: len(data.lstrip(b" \t\n")) >= 7).lstrip(b" \t\n")
    if head.startswith(b"digraph"):
        return "dot"
    if head.startswith(b"{"):
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
        import json

        head, rows, between = f'{{"n": {graph.n}, "arcs": [', ("[{u}, ", "], [{u}, ", "]"), ", "
        imbalances = graph.imbalances()
        tail = (
            f'], "imbalance_sequence": {json.dumps(np.sort(imbalances)[::-1].tolist())}, '
            f'"imbalance_set": {json.dumps(sorted(set(imbalances.tolist()), reverse=True))}}}\n'
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
    ids = np.array([str(v) for v in range(graph.n)], dtype=object)
    for lo, block in graph._row_blocks():
        for r in np.flatnonzero(block.any(axis=1)):
            name = ids[lo + r]
            targets = ids[np.flatnonzero(block[r])].tolist()
            yield head.format(u=name) + sep.format(u=name).join(targets) + tail


def _open(source: str | bytes | BinaryIO) -> BinaryIO:
    """``source`` as a binary file: a ``str`` is encoded, bytes are wrapped (not copied)."""
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, (bytes, bytearray, memoryview)):
        return io.BytesIO(source)
    return source


def _whole(source: str | bytes | BinaryIO, fh: BinaryIO) -> str | bytes:
    """The whole document: ``source`` itself if it is a ``str``, else the file's bytes."""
    if isinstance(source, str):
        return source
    fh.seek(0)
    return fh.read()


def _prefix(fh: BinaryIO, done: Callable[[bytes], bool]) -> bytes:
    """The document's first blocks, read until ``done`` holds for them or the file ends."""
    fh.seek(0)
    data = b""
    while not done(data):
        block = fh.read(_CHUNK)
        if not block:
            break
        data += block
    return data


def _head_line(fh: BinaryIO) -> bytes:
    """The start of a text document, through the line end after its first
    byte that is not " ", "\\t" or "\\n" (a "\\n" is added at the end of a
    document that lacks one).  A text head ends there."""

    def done(data: bytes) -> bool:
        return data.find(b"\n", len(data) - len(data.lstrip(b" \t\n"))) >= 0

    data = _prefix(fh, done)
    return data if data.endswith(b"\n") else data + b"\n"


def _backwards(fh: BinaryIO, lo: int) -> Iterator[tuple[int, bytes]]:
    """The file from ``lo`` to its end, in blocks read from the end back:
    pairs of offset and bytes."""
    hi = fh.seek(0, io.SEEK_END)
    while hi > lo:
        start = max(lo, hi - _CHUNK)
        fh.seek(start)
        yield start, fh.read(hi - start)
        hi = start


class _Lines:
    """A binary file read with its bytes mapped as :data:`_NARROW` and
    :data:`_WIDE` say, so that a text scanner sees only "\\n" line ends
    and only " " or "\\t" inside a line, each at its offset in the file.

    A "\\r" right before a "\\n" is mapped to a space first, so a CRLF
    line reads as its LF twin with a space at its end, as many tokens;
    any other "\\r" ends a line, as ``str.splitlines`` says.

    A read that is ASCII without a byte of :data:`_ODD_BYTES` is passed
    through.  Any other is mapped together with the 2 bytes on either
    side of it, so that a character of up to 3 bytes, or a "\\r\\n", that
    a read cuts is still mapped whole.  Only valid UTF-8 whitespace is
    mapped: every other non-ASCII byte reaches the scanner as it is,
    which refuses it.
    """

    def __init__(self, fh: BinaryIO):
        self._fh = fh

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        return self._fh.seek(offset, whence)

    def read(self, size: int = -1) -> bytes:
        at = self._fh.tell()
        data = self._fh.read(size)
        if data.isascii() and not any(byte in data for byte in _ODD_BYTES):
            return data
        lo, end = max(at - 2, 0), at + len(data)
        del data
        self._fh.seek(lo)
        mapped = self._fh.read(end - lo + 2).replace(b"\r\n", b" \n").translate(_NARROW)
        self._fh.seek(end)
        if not mapped.isascii():
            mapped = _WIDE_SPACE.sub(lambda m: _WIDE[m[0]], mapped)
        return mapped[at - lo : end - lo]


def _blocks(fh: BinaryIO, lo: int, hi: int, end: bytes) -> Iterator[tuple[bytes, int]]:
    """The body ``[lo, hi)`` of the file in runs that each end with
    ``end`` (a body that does not is given one at its end): pairs
    ``(buf, cut)``, where ``buf[:cut]`` is the run and the rest of
    ``buf`` is what follows it in the file.

    Each read takes ``_CHUNK`` bytes.  A run is cut at the last ``end``
    that leaves 7 bytes after it, so that every id in it has the 8 bytes
    :func:`_ids` reads, and the rest is carried into the next read; a
    line longer than a block keeps reading.  The last run, at the end of
    the file, is padded with 7 spaces instead.
    """
    fh.seek(lo)
    buf = b""
    while lo < hi:
        size = len(buf)
        buf += fh.read(_CHUNK)
        if len(buf) == size:  # the file ends: the rest of the body is one run
            cut = min(hi - lo, len(buf))
            if not buf.endswith(end, 0, cut):
                buf, cut = buf[:cut] + end, cut + 1
            yield buf + b"       ", cut
            return
        limit = min(hi - lo, len(buf) - 7)
        cut = buf.rfind(end, 0, limit) + 1 if limit > 0 else 0
        if cut:
            yield buf, cut
            buf, lo = buf[cut:], lo + cut


class _Scratch:
    """The working memory of one parse: a byte buffer that each block's
    passes write into, sized from ``_CHUNK`` and grown only for a block
    that needs more (a long line, or ids denser than one in 2.7 bytes):
    3 bytes a byte for the token masks, then 8 bytes an id for
    :func:`_ids`."""

    def __init__(self) -> None:
        self._mem = np.empty(3 * (_CHUNK + 256), dtype=np.uint8)

    def __call__(self, size: int) -> np.ndarray:
        """At least ``size`` bytes, holding nothing a caller may keep."""
        if len(self._mem) < size:
            self._mem = np.empty(size + size // 8, dtype=np.uint8)
        return self._mem


def _tokens(buf: bytes, cut: int, kind: str, space: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Masks of the bytes of the chunk ``buf[:cut]`` where a token starts
    and where a digit run starts, written into the first ``3 * cut``
    bytes of ``space``; or None if a sign or an arrow is out of place, or
    (a JSON chunk) an id has a leading zero.

    A token starts at every byte but a space, a digit right after a
    digit and the ">" of a dot "->".  A byte that only the rare
    documents hold is looked for with ``bytes.find`` before numpy looks
    at each byte for it.
    """
    if kind != "dot" and buf.find(b"-", 0, cut) >= 0 and _BAD_SIGN[kind].search(buf, 0, cut):
        return None
    view = np.frombuffer(buf, dtype=np.uint8, count=cut)
    runs, start, other = (space[i * cut : (i + 1) * cut].view(bool) for i in range(3))
    np.not_equal(view, ord(" "), out=start)
    for byte in _SPACES[kind][1:]:
        if buf.find(byte, 0, cut) >= 0:
            np.equal(view, byte, out=other)
            np.greater(start, other, out=start)
    if kind == "dot":  # each "-" right before a ">", each ">" right after a "-"; the ">" a space
        np.equal(view, ord(">"), out=other)
        np.equal(view[:-1], ord("-"), out=runs[:-1])
        np.not_equal(runs[:-1], other[1:], out=runs[:-1])
        if other[0] or runs[:-1].any():
            return None
        np.greater(start, other, out=start)
    np.subtract(view, ord("0"), out=other.view(np.uint8))
    np.less(other.view(np.uint8), 10, out=runs)  # the digits: bytes below "0" wrap around to 207 and up
    np.logical_and(runs[1:], runs[:-1], out=other[1:])  # a digit right after a digit
    np.greater(start[1:], other[1:], out=start[1:])
    if kind == "json":  # a "0" that starts a run of two digits or more
        np.equal(view[:-1], ord("0"), out=other[:-1])
        other[:-1] &= start[:-1]
        other[:-1] &= runs[1:]
        if other[:-1].any():
            return None
    runs &= start
    return start, runs


def _grammar(
    buf: bytes, cut: int, kind: str, first: bool = False, space: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The digit-run starts (as from :func:`_tokens`) and the token string
    of the chunk ``buf[:cut]`` if it is in the grammar, else None.  The
    token string holds the first byte of each token, a digit read as "0";
    it is made by zeroing every other byte and deleting the zeros with
    ``bytes.translate``, so a chunk that holds a NUL byte (a token in no
    grammar) is refused first.

    Text chunks are whole lines.  A dot line is "", "u;" or "u->v;",
    whose tokens read "\\n", "0;\\n" and "0-0;\\n"; an edge-list line is ""
    or "u v", "\\n" or "00\\n".  No two matches of "\\n", of the "0;" of
    "0;\\n", of the "0-" that starts "0-0;\\n" and of the "00" of "00\\n"
    share a byte, and every match starts a line.  So the token string is
    a run of lines exactly when these matches cover it, when its length
    is the sum of their lengths.  A chunk of JSON arcs holds whole arcs,
    ",[0,0]" each, a "," put in front of the first arc if ``first``
    holds it.
    """
    space = np.empty(3 * cut, dtype=np.uint8) if space is None else space
    masks = _tokens(buf, cut, kind, space)
    if masks is None or buf.find(b"\0", 0, cut) >= 0:
        return None
    start, runs = masks
    marked = np.multiply(np.frombuffer(buf, dtype=np.uint8, count=cut), start, out=space[2 * cut : 3 * cut])
    t = marked.tobytes().translate(_DIGIT_ZERO, b"\0")
    t = np.frombuffer(b"," + t if first and kind == "json" else t, dtype=np.uint8)
    if kind == "json":
        ok = t.size % 6 == 0 and bool((t.reshape(-1, 6) == _JSON_ARC).all())
    else:
        end, zero = t == ord("\n"), t == ord("0")
        if kind == "dot":
            line = zero[:-2] & (t[1:-1] == ord(";")) & end[2:]
            pairs = np.count_nonzero(line) + np.count_nonzero(zero[:-4] & (t[1:-3] == ord("-")) & line[2:])
        else:
            pairs = np.count_nonzero(zero[:-2] & zero[1:-1] & end[2:])
        ok = np.count_nonzero(end) + 2 * pairs == t.size
    return (runs, t) if ok else None


def _first_bad_line(buf: bytes, cut: int, kind: str) -> str:
    """The first line of the chunk ``buf[:cut]`` outside the grammar, found
    by bisecting the chunk's lines (a run of lines is good iff each line is)."""
    ends = 1 + np.flatnonzero(np.frombuffer(buf, dtype=np.uint8, count=cut) == ord("\n"))
    good, bad = 0, len(ends) - 1  # lines before `good` pass; lines up to `bad` fail
    while good < bad:
        mid = (good + bad) // 2
        if _grammar(buf, int(ends[mid]), kind) is None:
            bad = mid
        else:
            good = mid + 1
    start = ends[good - 1] if good else 0
    return buf[start : ends[good] - 1].strip(b" \t").decode("utf-8", "surrogatepass")


def _ids(buf: bytes, cut: int, runs: np.ndarray, scratch: _Scratch, signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The values and lengths (up to 255) of the digit runs of the chunk
    ``buf[:cut]`` that start where ``runs`` is set; ``buf`` goes on at
    least 7 bytes past ``cut``.  The lengths are a view of ``scratch``.

    A run of at most 6 digits is read from the 8 bytes that start it, as
    one little-endian integer, into a new array that is then decoded in
    place; its lengths are worked out in one more word array, from
    ``scratch``, with no other temporary.  XOR with "0" in every byte
    turns the run's digits into their values and, the chunk being ASCII,
    the byte after them into 10 or more.  Adding 0x76 in every byte then
    sets the top bit of that byte and of no digit, carrying nothing below
    it.  Those bits, moved to the bottom of their bytes and multiplied by
    0x0101010101010101, count in each byte the ones at or below it, which
    is not 0 from the run's end up; 0x7F added in every byte carries
    those into its top bit, and the same move and multiply count them in
    the top byte: 8 less the run's length, which times 8 is the shift
    that moves the run to the top.  That leaves its digits in place-value
    order behind zeros, and three multiply-shifts join them pairwise,
    then the pairs, then the quads.  Longer runs are read by ``int``;
    values beyond int64 clamp to its largest, as ``np.fromstring`` read
    them.  ``signed`` negates an id after a ``-``.
    """
    words = np.ndarray((cut,), dtype=np.dtype("<u8"), buffer=buf, strides=(1,))
    x = words[runs]
    m = x.size
    size = scratch(8 * m)[: 8 * m].view("<u8")  # after the masks that `runs` is part of
    x ^= 0x3030303030303030
    np.add(x, 0x7676767676767676, out=size)
    size &= 0x8080808080808080
    size >>= 7
    size *= 0x0101010101010101  # in each byte, the top bits set at or below it
    size += 0x7F7F7F7F7F7F7F7F
    size &= 0x8080808080808080
    size >>= 7
    size *= 0x0101010101010101  # in the top byte, the bytes from the run's end up
    size >>= 53  # that count times 8: the bytes below it hold at most 7
    np.left_shift(x, size, out=x)  # 0 or 8 for 7 digits or more
    x *= 2561  # 10 * 256 + 1
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 6553601  # 100 * 2**16 + 1
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 42949672960001  # 10**4 * 2**32 + 1
    x >>= 32
    size >>= 3
    np.subtract(8, size, out=size)
    ids = x.view(np.int64)
    longest = m and int(size.max()) >= 7
    if not (signed or longest):
        return ids, size
    arr = np.frombuffer(buf, dtype=np.uint8)
    digit = (arr[:cut] - ord("0")) < 10
    at = np.flatnonzero(digit & ~np.append(False, digit[:-1]))
    # A chunk starts a line, so no sign comes before its offset 0.
    negative = arr[np.maximum(at, 1) - 1] == ord("-") if signed else np.zeros(0, dtype=bool)
    if negative.any():
        np.negative(ids, out=ids, where=negative)
    for i in np.flatnonzero(size >= 7) if longest else ():
        digits = int(np.argmax((arr[at[i] : cut] - ord("0")) >= 10))
        text = buf[at[i] - (signed and negative[i]) : at[i] + digits]
        value = int(text) if len(text.lstrip(b"-0")) <= 19 else _INT64_MAX
        ids[i] = value if -(2**63) <= value <= _INT64_MAX else _INT64_MAX
        size[i] = min(digits, 255)
    return ids, size


def _arc_ids(buf: bytes, cut: int, kind: str, first: bool, scratch: _Scratch) -> tuple[np.ndarray, int] | None:
    """The ids of the arcs of the chunk ``buf[:cut]``, sources and targets
    interleaved, and in DOT its largest id (else -1), or None for a JSON
    chunk outside the grammar or with an id that is not a plain int64
    integer.  A text chunk outside the grammar raises."""
    tokens = _grammar(buf, cut, kind, first, scratch(3 * cut))
    if tokens is None:
        if kind == "json":
            return None
        raise ValueError(f"unparseable {_NAMES[kind]} line: {_first_bad_line(buf, cut, kind)!r}")
    runs, t = tokens
    ids, size = _ids(buf, cut, runs, scratch, signed=kind != "dot" and buf.find(b"-", 0, cut) >= 0)
    if kind == "json" and int(size.max(initial=0)) > _JSON_DIGITS:
        return None  # not one int64 holds it
    top = int(ids.max(initial=-1)) if kind == "dot" else -1
    if kind == "dot":
        dash = t == ord("-")
        if 2 * np.count_nonzero(dash) != ids.size:  # drop the ids of vertex lines ("u;"), next to no "->"
            ids = ids[(np.append(False, dash[:-1]) | np.append(dash[1:], False))[t == ord("0")]]
    return ids, top


def _scan(fh: BinaryIO, lo: int, hi: int, kind: str, n: int | None, checked: bool = False) -> Digraph | None:
    """Check the grammar of each chunk of the body ``[lo, hi)`` of the
    file, decode its ids and place its arcs in packed rows.

    A text chunk outside the grammar raises at once, and a JSON one (or
    a JSON id that is not a plain int64 integer) returns None.  The arcs
    are set by :func:`_set_arcs`, which checks only their range; the
    finished rows then show by :func:`_sound` whether some arc repeated
    a pair or looped.  If one did, or an id was out of range, the body
    is read again ``checked``: each chunk's arcs go through
    :func:`_place_arcs`, which finds the fault.  Such a fault is held,
    and no more arcs placed, until the whole body is checked, so a
    grammar fault comes first wherever it is.  ``n`` is the order, or
    None for DOT, whose order is its largest id plus one: the rows then
    grow to hold each id as it appears, until an order would pass the
    cap, which is raised with the last order before any arc fault, as
    from_arcs does.
    """
    bits, fault, seen, placed, recheck = _zeros(0), None, -1, 0, False
    if n is not None:
        try:
            bits = _zeros(n)
        except (ValueError, ResourceLimitError) as exc:
            fault = exc
    scratch, first = _Scratch(), True
    for buf, cut in _blocks(fh, lo, hi, b"]" if kind == "json" else b"\n"):
        chunk = _arc_ids(buf, cut, kind, first, scratch)
        if chunk is None:
            return None
        first, (ids, top) = False, chunk
        seen = max(seen, top)
        if fault is None and not recheck and seen < MAX_MATRIX_ORDER:
            if seen >= len(bits):  # only in DOT, where the order is not known
                bits = _resized(bits, max(seen + 1, min(len(bits) * 5 // 4, MAX_MATRIX_ORDER)))
            if not checked:
                recheck, placed = not _set_arcs(bits, ids[0::2], ids[1::2]), placed + ids.size // 2
            else:
                try:
                    _place_arcs(bits, ids[0::2], ids[1::2])
                except ValueError as exc:
                    fault = exc
        del buf, chunk, ids  # before the next read
    del scratch
    if kind == "dot":
        check_matrix_order(seen + 1)
    if fault is None and not checked and (recheck or not _sound(bits, placed, _CHUNK)):
        return _scan(fh, lo, hi, kind, n, checked=True)
    if fault is not None:
        raise fault
    return Digraph._from_bits(_resized(bits, seen + 1) if kind == "dot" else bits)


# -- dot ---------------------------------------------------------------


def parse_dot(text: str | bytes | BinaryIO) -> Digraph:
    fh = _Lines(_open(text))
    head = _DOT_HEAD.match(_head_line(fh))
    hi = None
    if head is not None:
        head[0].decode("utf-8")  # the one free text, a graph name, must be UTF-8
        hi = _closing_line(fh, head.end())
    if hi is None:
        raise ValueError("not a dot digraph document")
    lo = head.end()
    del head  # its text, a block: not kept through the scan
    return _scan(fh, lo, hi, "dot", None)


def _closing_line(fh: BinaryIO, lo: int) -> int | None:
    """Where the last non-blank line of the file after ``lo`` starts, if
    it is ``}``; read from the end back."""
    brace = False
    for start, block in _backwards(fh, lo):
        if not brace:
            block = block.rstrip(b" \t\n")
            if not block:
                continue
            if not block.endswith(b"}"):
                return None
            brace, block = True, block[:-1]
        block = block.rstrip(b" \t")
        if block:
            return start + len(block) if block.endswith(b"\n") else None
    return lo if brace else None


# -- edge list ---------------------------------------------------------


def parse_edgelist(text: str | bytes | BinaryIO) -> Digraph:
    fh = _Lines(_open(text))
    head = _head_line(fh)
    header = _EDGE_HEAD.match(head)
    if not header:
        if not head.strip(b" \t\n"):
            raise ValueError("empty edge-list document")
        raise ValueError("edge list must start with '# tournament n=<n>'")
    lo, n = header.end(), int(header.group(1))
    del head, header  # a block: not kept through the scan
    return _scan(fh, lo, fh.seek(0, io.SEEK_END), "edgelist", n)


# -- json --------------------------------------------------------------


def parse_json(text: str | bytes | BinaryIO) -> Digraph:
    fh = _open(text)
    graph = _scan_json(fh)
    return graph if graph is not None else _load_json(_whole(text, fh))


def _scan_json(fh: BinaryIO) -> Digraph | None:
    """Scan the arcs of a JSON document and ``json.loads`` the rest, or
    return None if the arcs are not all plain integer pairs or the rest
    is not a UTF-8 object without escapes that holds them once."""
    data = _prefix(fh, _arcs_opened)
    head = _JSON_HEAD.match(data)
    if head is None:
        return None
    lo = head.end()  # just after the "[" of the arcs
    # The "]" closing the arcs.  Arcs that pass the scan hold "]]" only at
    # their end, and a key follows them, so a later "]]" fails the scan.
    hi = _last_pair_end(fh, lo) + 1
    if hi < lo:
        return None
    fh.seek(hi)
    tail = fh.read()
    if b'"arcs"' in tail or b"\\" in tail:
        return None
    import json

    try:
        # Decoded here, strictly: json.loads would let bytes pass surrogates.
        rest = (data[: lo - 1] + b"0" + tail[1:]).decode("utf-8")
        n = json.loads(rest, parse_float=_not_an_id, parse_constant=_not_an_id)["n"]
    except (KeyError, TypeError, ValueError):
        return None
    del data, head, tail, rest  # not kept through the scan
    return _scan(fh, lo, hi, "json", n) if type(n) is int else None


def _arcs_opened(data: bytes) -> bool:
    """Whether ``data`` holds a "[" after its first ``"arcs"``, where a
    head that :data:`_JSON_HEAD` matches ends."""
    at = data.find(b'"arcs"')
    return at >= 0 and data.find(b"[", at) >= 0


def _last_pair_end(fh: BinaryIO, lo: int) -> int:
    """The offset of the last "]]" of the file at or after ``lo``, or -1."""
    after = b""
    for start, block in _backwards(fh, lo):
        at = (block + after).rfind(b"]]")
        if at >= 0:
            return start + at
        after = block[:1]
    return -1


def _load_json(text: str | bytes) -> Digraph:
    """Read the whole document with ``json.loads`` and place its arcs."""
    import json

    if not isinstance(text, str):
        text = text.decode("utf-8")
    doc = json.loads(text, parse_float=_not_an_id, parse_constant=_not_an_id)
    if not isinstance(doc, dict) or "n" not in doc or "arcs" not in doc:
        raise ValueError("json document must carry 'n' and 'arcs'")
    n, arcs = doc["n"], doc["arcs"]
    if type(n) is not int:
        raise ValueError("json 'n' must be an integer")
    try:
        pairs = isinstance(arcs, list) and set(map(len, arcs)) <= {2}
    except TypeError:
        pairs = False
    if not pairs:
        raise ValueError("json 'arcs' must be a list of [source, target] pairs")
    if not set(map(type, chain.from_iterable(arcs))) <= {int}:
        raise ValueError("json arc ids must be integers")
    try:
        ids = np.fromiter(chain.from_iterable(arcs), dtype=np.int64, count=2 * len(arcs))
    except OverflowError:
        raise ValueError(f"json arc id out of range for order {n}") from None
    return Digraph.from_arcs(n, ids[0::2], ids[1::2])


def _not_an_id(token: str) -> NoReturn:
    """Reject a JSON float or constant, which int() would silently truncate."""
    raise ValueError(f"json numbers must be integers, not {token}")
