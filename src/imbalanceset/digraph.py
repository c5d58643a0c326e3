"""Simple oriented graphs with degree and imbalance accounting.

Everything in this package lives inside orientations of simple graphs:
between any unordered pair of vertices there is at most one arc and
never a pair of opposing arcs.  Two structured special cases matter
downstream: tournaments (every pair joined) and near tournaments
(every vertex joined to all others except exactly one, which forces
even order).

Graphs are backed by a dense adjacency matrix because all algorithms
here touch most vertex pairs and orders stay in the low tens of
thousands.  The matrix is stored as bit-packed rows, as
``np.packbits(adj, axis=1, bitorder="little")`` makes them: bit j of
byte c in row u is cell (u, 8c + j), and the bits past column n - 1 are
zero, so an order-n graph takes n * ceil(n / 8) bytes.  Only this
module knows that layout, and the little-endian 64-bit words that
:func:`_fill` lays over it.  Graphs are written into rows from
:func:`_zeros` or :func:`_resized`, never into cells: arcs by
:func:`_place_arcs`, which :meth:`Digraph.from_arcs` calls, or by the
parsers' :func:`_set_arcs` block by block, checked once at the end by
:func:`_sound`, and intervals of cells by :func:`_fill`.  Every
construction writes upper cells (u, v), v > u, only; then one
:func:`_mirror` pass over the whole graph writes each lower cell (v, u)
as 1 - (u, v), reads it back for doubled pairs and counts the
out-degrees, and :func:`_toggle` unjoins the pairs left so.
:meth:`Digraph.from_matrix` packs a finished matrix and checks it with
:func:`_check_packed`, the same pass without the write; ``Digraph(n,
arcs)`` delegates to ``from_arcs``, :meth:`Digraph.matrix` unpacks a
copy of the cells, and instances are immutable.

Transposed access goes through 8 x 8 bit blocks: the block (R, C) of the
packed rows is byte C of rows 8R .. 8R + 7.  :func:`_planes` lays the
blocks of a band out as eight bit planes, plane i holding row i of every
block, and :func:`_transpose8` transposes every block with three delta
swaps between whole planes.  The transposed passes, :func:`_mirror`
(with :func:`_check_packed`) and the unjoined-pair scans, walk the bands
of ``_TILE`` rows of :func:`_bands`; the mirror meets the transposed
planes through a view of the band's lower columns as planes.

First touch.  An array that numpy gets fresh from the kernel is mapped
on its first access to each page: a read maps the shared zero page, and
a write after it faults again to copy it.  So an array whose pages are
read and then written, as ``|=`` into rows and a running XOR in place
do, has its zeros written when it is allocated, not left to
``np.zeros``: the rows of :func:`_zeros`, which :func:`_resized` and the
parsers take too, and the word buffer of :func:`_fill`.  Each page then
faults once, on that write.  An array that is written before it is read
(the planes of :func:`_planes`), or read and never written (the cell
span of :func:`_set_arcs` where no arc falls), faults once a page from
``np.zeros`` as it is.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import chain
from math import gcd
from typing import Iterable, Iterator

import numpy as np

from .errors import DoubledPairError, check_matrix_order

# Row-band height, rounded down to whole 8 x 8 blocks, of the passes on
# packed rows; small enough to stay in cache.
_TILE = 512
# Cells unpacked at once where rows are read as cells (emission, arcs(),
# in-degrees of a graph that is not a tournament): 64 KB, a few hundred
# microseconds of work per block, so the blocks' fixed costs stay small.
_CELLS = 1 << 16
# Bytes of the word buffer in which _fill sets one band of rows.
_FILL = 1 << 18


class _NotOriented(ValueError):
    """A self-loop or an opposing pair in packed rows: the two faults
    that :func:`_check_loops` and :func:`_mirror` raise themselves, so
    that a certificate check reports them and no other ValueError."""


class Digraph:
    """Immutable simple oriented graph on vertices ``0 .. n-1``.

    Cell ``(u, v)`` of the adjacency matrix is 1 exactly when there is
    an arc directed from ``u`` to ``v``.  The no-2-cycle invariant means
    each unordered pair is in one of three states: unjoined, forward,
    or backward.
    """

    __slots__ = ("_bits",)

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        arcs = list(arcs)
        if any(len(arc) != 2 for arc in arcs):
            raise ValueError("arcs must be (source, target) pairs")
        try:  # operator.index refuses 0.5, which an int64 cast reads as 0
            ids = np.fromiter(map(operator.index, chain.from_iterable(arcs)), np.int64, 2 * len(arcs))
        except OverflowError:
            raise ValueError(f"arc id out of range for order {n}") from None
        self._bits = Digraph.from_arcs(n, ids[0::2], ids[1::2])._bits

    @classmethod
    def from_arcs(cls, n: int, src: np.ndarray, dst: np.ndarray) -> "Digraph":
        """Build the graph on ``0 .. n-1`` with arcs ``src[i] -> dst[i]``.

        The arcs are checked in whole-array passes, and the fault
        reported is the one at the first bad arc in array order: an id
        out of range, a self-loop, or a pair joined twice
        (:class:`DoubledPairError`, for a duplicate or an opposing arc).
        Non-integer id arrays are refused, and the order is checked
        against the matrix cap before allocation.
        """
        n = operator.index(n)
        bits = _zeros(n)
        src, dst = np.asarray(src), np.asarray(dst)
        if any(a.size and a.dtype.kind not in "biu" for a in (src, dst)):
            raise ValueError("arc ids must be integers")  # not cast: 0.5 would read 0
        src, dst = src.reshape(-1), dst.reshape(-1)
        if src.shape != dst.shape:
            raise ValueError("source and target arrays differ in length")
        _place_arcs(bits, src, dst)
        return cls._from_bits(bits)

    @classmethod
    def from_matrix(cls, adj: np.ndarray) -> "Digraph":
        """Pack a square adjacency matrix (uint8) as a Digraph.

        Entries other than 0 or 1, then self-loops, then opposing pairs
        are refused, each over the whole matrix by a plain ValueError,
        the last two in the packed rows by :func:`_check_packed`.  The
        array itself is not kept.
        """
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if adj.dtype != np.uint8:
            # The cast would wrap 256 to 0 and truncate 1.9 to 1.
            if not ((adj == 0) | (adj == 1)).all():
                raise ValueError("adjacency entries must be 0 or 1")
            adj = adj.astype(np.uint8)
        if adj.max(initial=0) > 1:
            raise ValueError("adjacency entries must be 0 or 1")
        bits = np.packbits(adj, axis=1, bitorder="little")
        try:
            _check_packed(bits)
        except _NotOriented as exc:
            raise ValueError(*exc.args) from None
        return cls._from_bits(bits)

    @classmethod
    def _from_bits(cls, bits: np.ndarray) -> "Digraph":
        """Wrap packed rows (n rows of ceil(n / 8) bytes, as the module
        docstring lays them out) without a check, and freeze them."""
        g = object.__new__(cls)
        bits.flags.writeable = False
        g._bits = bits
        return g

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        return self._bits.shape[0]

    @property
    def arc_count(self) -> int:
        return int(self.out_degrees().sum())

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Yield arcs as (source, target), sorted lexicographically."""
        for lo, block in self._row_blocks():
            rows, cols = np.nonzero(block)
            yield from zip((rows + lo).tolist(), cols.tolist())

    def matrix(self) -> np.ndarray:
        """The adjacency matrix as a read-only ``uint8`` array of 0s and 1s.

        Unpacked on each call, so it allocates one n x n array; passes
        over the whole graph use the packed rows instead.
        """
        adj = np.unpackbits(self._bits, axis=1, count=self.n, bitorder="little")
        adj.flags.writeable = False
        return adj

    def _row_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Pairs of a first row and its block of rows unpacked to cells,
        blocks of about ``_CELLS`` cells in row order."""
        n = self.n
        step = max(1, _CELLS // max(n, 1))
        for lo in range(0, n, step):
            yield lo, np.unpackbits(self._bits[lo : lo + step], axis=1, count=n, bitorder="little")

    # -- degrees and imbalances ------------------------------------------

    def out_degrees(self) -> np.ndarray:
        """Row bit counts, by :func:`_row_counts`."""
        return _row_counts(self._bits, np.empty(self.n, dtype=np.int64))

    def in_degrees(self) -> np.ndarray:
        """Column sums of the rows: see :meth:`_in_degrees`."""
        return self._in_degrees(self.out_degrees())

    def _in_degrees(self, out: np.ndarray) -> np.ndarray:
        """The in-degrees, given the out-degrees ``out``.  If they sum to
        n(n - 1)/2 the graph is a tournament (see
        :func:`_tournament_imbalances`), and each in-degree is n - 1 - out;
        else the rows are unpacked a block at a time and their columns summed."""
        n = self.n
        if int(out.sum()) == n * (n - 1) // 2:
            return n - 1 - out
        into = np.zeros(n, dtype=np.int64)
        for _, block in self._row_blocks():
            into += block.sum(axis=0, dtype=np.int64)
        return into

    def imbalances(self) -> np.ndarray:
        """Per-vertex imbalance, indexed by vertex id."""
        out = self.out_degrees()
        return out - self._in_degrees(out)

    def imbalance_sequence(self) -> tuple[int, ...]:
        """All vertex imbalances sorted nonincreasing.  Sums to zero."""
        vals = np.sort(self.imbalances())[::-1]
        return tuple(int(x) for x in vals)

    def imbalance_set(self) -> frozenset[int]:
        """The deduplicated set of vertex imbalances."""
        return frozenset(self.imbalances().tolist())

    # -- structural predicates -------------------------------------------

    def is_tournament(self) -> bool:
        """True iff every unordered pair carries exactly one arc.

        Decided by the arc-count rule proved in :func:`_tournament_imbalances`.
        """
        return _tournament_imbalances(self.out_degrees()) is not None

    def is_near_tournament(self) -> bool:
        """True iff n is even, n >= 2, and every vertex misses exactly one.

        The degree criterion is enough because construction already rules
        out doubled pairs, so joined-count = out-degree + in-degree.
        """
        n = self.n
        if n < 2 or n % 2:
            return False
        out = self.out_degrees()
        return bool((out + self._in_degrees(out) == n - 2).all())

    def non_neighbour_pairs(self) -> tuple[tuple[int, int], ...]:
        """All unjoined pairs {u, v}, normalized as (min, max) and sorted."""
        return tuple(self._unjoined_pairs())

    def first_non_neighbour_pair(self) -> tuple[int, int] | None:
        """The smallest unjoined pair (u, v), u < v, or None if there is none.

        Scans row bands and stops at the first band with a gap, so a
        graph missing a pair near the top costs one band, not n^2 / 2
        pair tuples.
        """
        return next(self._unjoined_pairs(), None)

    def _unjoined_pairs(self) -> Iterator[tuple[int, int]]:
        """The unjoined pairs (u, v), u < v, in order, a row band at a time."""
        n = self.n
        for r0, upper, lower in _bands(self._bits):
            h = lower.shape[1]
            # The lower columns as planes, transposed, then as the band's rows.
            free = _transpose8(_planes(lower)).transpose(1, 0, 2).reshape(8 * h, -1)[: len(upper)]
            free |= upper
            np.invert(free, out=free)
            free[:, :h] &= _upper(h, diagonal=False).transpose(1, 0, 2).reshape(8 * h, h)[: len(upper)]
            if n % 8:
                free[:, -1] &= (1 << n % 8) - 1  # the columns past n - 1
            rows, cols = _set_cells(free)
            yield from zip((rows + 8 * r0).tolist(), (cols + 8 * r0).tolist())

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash((self.n, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


def _zeros(n: int) -> np.ndarray:
    """The packed rows of the empty order-n graph, refused before
    allocation if n is negative or passes the matrix cap.  The zeros are
    written here, as the module docstring's first-touch rule asks: the
    ``|=`` of :func:`_fill` and :func:`_set_arcs` reads a row's pages
    before it writes them."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    check_matrix_order(n)
    bits = np.empty((n, -(-n // 8)), dtype=np.uint8)
    bits.fill(0)
    return bits


def _place_arcs(bits: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """Set the arcs ``src[i] -> dst[i]`` in the packed rows ``bits``, as
    from :func:`_zeros`, or raise for the first bad arc in array order.

    The arcs come after those of earlier calls on the same rows, and
    the fault raised is the first doubled pair (:class:`DoubledPairError`,
    for a duplicate or an opposing arc) before the first arc out of
    range or looping, else that arc.  A cell's key is its bit in the
    flat rows, ``s * 8 * width + d``.  Keys that strictly increase, as
    files list arcs, are taken as they are, others sorted, so that a
    cell written twice shows as equal neighbours; then each byte's bits
    are OR-reduced and written at once.  A pair is also doubled if its
    cell is set before the write or its reverse cell after it.  Ids are
    read as int64; messages quote them as given.
    """
    n, width = bits.shape
    s64, d64 = np.ascontiguousarray(src, dtype=np.int64), np.ascontiguousarray(dst, dtype=np.int64)
    bad = (np.maximum(s64.view(np.uint64), d64.view(np.uint64)) >= n) | (s64 == d64)  # negatives wrap
    good = int(bad.argmax()) if bad.any() else src.size
    s, d = s64[:good], d64[:good]
    keys, reverse = s * (8 * width) + d, d * (8 * width) + s
    ranked, twice = keys, False
    if not (keys[1:] > keys[:-1]).all():
        ranked = np.sort(keys)
        twice = bool((ranked[1:] == ranked[:-1]).any())
    at = ranked >> 3
    first = np.ones(at.size, dtype=bool)  # the first key of each byte
    np.not_equal(at[1:], at[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    at, new = at[starts], np.bitwise_or.reduceat(_bit(ranked), starts)
    flat = bits.reshape(-1)
    old = flat[at]
    flat[at] = old | new
    if twice or (old & new).any() or _cells(flat, reverse).any():
        flat[at] = old
        raise _first_doubled_pair(n, s, d, _cells(flat, keys), _cells(flat, reverse))
    if good < src.size:
        u, v = int(src[good]), int(dst[good])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for order {n}")
        raise ValueError(f"self-loop at vertex {u}")


def _set_arcs(bits: np.ndarray, src: np.ndarray, dst: np.ndarray) -> bool:
    """Set the cells (src[i], dst[i]) of the packed rows ``bits`` with no
    check but the range, or return False, setting none, if an id (int64)
    is outside ``0 .. n-1``.  A cell set twice stays set once, and a loop
    or an opposing pair is set as it comes: :func:`_sound` finds each of
    them in the finished rows.  ``src`` is overwritten with the keys of
    the cells, so that a block's arcs make no array of their own.

    A file lists a row's arcs together, so a block of arcs spans a few
    rows.  When those rows hold at most about four cells per arc, the
    arcs are set as bytes in a local span of cells and packed into the
    rows at once; any other block ORs its bits in byte by byte.
    """
    n, width = bits.shape
    if not src.size:
        return True
    if max(int(src.view(np.uint64).max()), int(dst.view(np.uint64).max())) >= n:  # negatives wrap
        return False
    r0, r1 = int(src.min()), int(src.max()) + 1
    span = (r1 - r0) * 8 * width
    keys = np.subtract(src, r0, out=src)
    keys *= 8 * width
    keys += dst
    rows = bits[r0:r1].reshape(-1)
    if span <= 4 * keys.size + 16 * width:
        cells = np.zeros(span, dtype=np.uint8)
        cells[keys] = 1
        rows |= np.packbits(cells, bitorder="little")
    else:
        np.bitwise_or.at(rows, keys >> 3, _bit(keys))
    return True


def _sound(bits: np.ndarray, arcs: int, band: int) -> bool:
    """Whether the packed rows hold ``arcs`` set cells, no self-loop and
    no opposing pair: what the arcs that :func:`_set_arcs` placed give
    if none of them repeats a pair or loops.  The test of
    :func:`_check_packed`, in bands of about ``band`` bytes of rows, so
    that its temporaries stay near the size of the parser's blocks."""
    try:
        return int(_check_packed(bits, _bands(bits, max(8, band // max(bits.shape[1], 1)))).sum()) == arcs
    except _NotOriented:
        return False


def _cells(flat: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each cell, keyed as in :func:`_place_arcs`, is set in the
    flat packed rows."""
    return (flat[keys >> 3] & _bit(keys)) != 0


def _first_doubled_pair(
    n: int, src: np.ndarray, dst: np.ndarray, forward: np.ndarray, backward: np.ndarray
) -> DoubledPairError:
    """The error for the first arc whose unordered pair an earlier arc joined,
    given which cells (u, v) and (v, u) of each arc earlier calls set.

    The earlier arcs of those pairs go in front, one per pair.  A stable
    sort by pair then groups the arcs of each pair in order; every arc
    after the first of its group repeats a pair, and the earliest of
    those is the one reported.
    """
    at = np.flatnonzero(forward | backward)
    es, ed = np.where(forward[at], src[at], dst[at]), np.where(forward[at], dst[at], src[at])
    _, once = np.unique(np.minimum(es, ed) * n + np.maximum(es, ed), return_index=True)
    src, dst = np.concatenate((es[once], src)), np.concatenate((ed[once], dst))
    key = np.minimum(src, dst) * n + np.maximum(src, dst)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeats = np.flatnonzero(ranked[1:] == ranked[:-1]) + 1
    at = int(order[repeats].min())
    first = int(order[np.searchsorted(ranked, key[at])])
    u, v = int(src[at]), int(dst[at])
    if int(src[first]) == v:
        return DoubledPairError(f"opposing arcs between {u} and {v}")
    return DoubledPairError(f"duplicate arc ({u}, {v})")


def _check_packed(bits: np.ndarray, bands: Iterable | None = None) -> np.ndarray:
    """Refuse self-loops, then opposing pairs, in packed rows (whose
    entries are bits, so 0 or 1), and return their out-degrees: the
    diagonal by :func:`_check_loops`, then the pair test and the row
    counts of :func:`_mirror`, without its write, over ``bands``."""
    _check_loops(bits)
    return _mirror(bits, write=False, bands=bands)


def _check_loops(bits: np.ndarray) -> None:
    """Refuse a self-loop in packed rows: one gather of n bytes."""
    v = np.arange(len(bits))
    if (bits[v, v >> 3] >> (v & 7) & 1).any():
        raise _NotOriented("self-loops are not allowed")


def _mirror(bits: np.ndarray, *, write: bool = True, bands: Iterable | None = None) -> np.ndarray:
    """Set each lower cell (v, u), v > u, of the packed rows to 1 - (u, v),
    refuse a doubled pair, and return the out-degrees: the one pass that
    finishes a build.  Without ``write`` it only tests and counts, for
    :func:`_check_packed`.  ``bands`` are those of :func:`_bands`, of
    ``_TILE`` rows if None.

    Per band of :func:`_bands`, the band's upper rows are laid out as
    bit planes by :func:`_planes` and transposed once by
    :func:`_transpose8`, so that byte R of plane j, block C holds the
    cells (u, v) of the lower cells (v, u) in byte R of lower row
    8C + j.  The lower columns are met as the same planes, through the
    view ``lower.reshape(-1, 8, h).transpose(1, 0, 2)`` of their whole
    block rows and, for the last block row, cut short at row n - 1, on
    its own (:func:`_meet`).  The complement is written into the lower
    columns, keeping the upper cells and the diagonal of the band's own
    square.  So every write is a whole byte, and no cell is written
    twice.  Then the lower columns are read back from ``bits``, not from
    the planes written, and met with them below the square's diagonal: a
    set bit is a pair with both cells set, and raises.  Last the band's
    rows are counted.  The planes, the swaps' temporary and the counts
    share one scratch block of one and a half first bands, taken once
    for the pass: the first band is the largest, and a block freed and
    taken again in every band has its pages mapped again in every band.

    Why the tested and counted cells are final.  The band of columns
    [c0, c1) writes only cells (v, c) with c0 <= c < c1 and v > c: lower
    cells, each in the one band that holds its column.  So no upper cell
    is written, and each pair u < v is tested in the band of u after
    that band wrote (v, u), the only write to either cell.  The band's
    rows are [c0, c1), and a later band writes only rows from its own
    first column on, c1 or more, so the counted rows are final too.  The
    diagonal is kept, not tested: with it zero, no pair holds two arcs,
    and by :func:`_tournament_imbalances` the counts make a tournament
    exactly when they sum to n(n - 1)/2.
    """
    out = np.empty(len(bits), dtype=np.int64)
    scratch = None
    for r0, upper, lower in _bands(bits) if bands is None else bands:
        h = lower.shape[1]
        rows = slice(8 * r0, 8 * r0 + len(upper))
        if scratch is None:  # the first band is the largest: every band's planes, spare and rows fit
            scratch = np.empty(12 * -(-len(upper) // 8) * bits.shape[1], dtype=np.uint8)
        planes = _planes(upper, scratch)
        flip = _transpose8(planes, scratch[planes.size :])
        keep = _upper(h, diagonal=True)
        full, part = divmod(len(lower), 8)
        if full:
            _meet(lower[: 8 * full].reshape(full, 8, h).transpose(1, 0, 2), flip[:, :full], keep, write)
        if part:
            _meet(lower[8 * full :, None], flip[:part, full:], keep[:part, full:], write)
        _row_counts(bits[rows], out[rows], scratch)
    return out


def _meet(lower: np.ndarray, flip: np.ndarray, keep: np.ndarray, write: bool) -> None:
    """Write (if ``write``) and test block rows of a band's lower columns,
    as planes (j, C, R) of byte R of lower row 8C + j, against their
    transpose ``flip`` and the square's mask ``keep`` from the same
    block row on: the body of :func:`_mirror`.  ``flip`` below the
    square is spent: the read-back test runs in it."""
    square = min(keep.shape[1], lower.shape[1])  # block rows in the band's square
    keep, below, spent = keep[:, :square], lower[:, square:], flip[:, square:]
    if write:
        np.invert(spent, out=below)
        lower[:, :square] = lower[:, :square] & keep | ~(flip[:, :square] | keep)
    # Read back: a set bit below the square's diagonal is a doubled pair.
    np.bitwise_and(spent, below, out=spent)
    if spent.max(initial=0) or (flip[:, :square] & lower[:, :square] & ~keep).any():
        raise _NotOriented("opposing arc pairs are not allowed")


def _fill(bits: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Set the cells [lo[j], hi[j]) of row rows[j] of the packed rows
    ``bits`` for every j, keeping the cells already set: the cells that
    an odd number of their row's intervals cover, all covered cells when
    a row's intervals are disjoint.  There is at least one interval: the
    greedy's writes skip empty flushes, and a completion adds rows.

    Suffix XOR.  [lo, hi) = [lo, end) ^ [hi, end), and in 64-bit words
    the suffix from bit p is the running XOR over the words
    (``np.bitwise_xor.accumulate``) of a toggle ~0 at word p >> 6, with
    that word's edge mask, the bits below p & 63, XOR-ed out after.  The
    toggles and edge masks of one word are summed by XOR first.

    Word layout.  Bands of rows of at most ``_FILL`` bytes each go through
    one buffer of ``'<u8'`` words, every row from word w0 = min(lo) >> 6
    to its end plus a spare word for edges at the end; after a row's last
    edge the running XOR is zero, so rows do not carry into each other.
    The buffer comes from ``np.empty``, and each band zeroes its part
    before it scatters its toggles, so that no page of it is read before
    it is written (the module docstring's first-touch rule).
    ``'<u8'`` is little-endian on every host, so byte c of word w holds
    columns 64(w0 + w) + 8c .. + 7 and a buffer row read as bytes is its
    packed row from byte 8 * w0 on (a native-endian view would reverse the
    bytes on a big-endian host).
    """
    width = bits.shape[1]
    rows, lo, hi = (np.asarray(a, dtype=np.int64) for a in (rows, lo, hi))
    w0 = int(lo.min()) >> 6
    row_bits = 64 * (-(-width // 8) - w0 + 1)
    # The edges as bits of the bands' rows laid out one after another, in order.
    edges = np.sort(np.concatenate((lo, hi)) + np.tile(row_bits * rows - 64 * w0, 2))
    first, last = int(edges[0]) // row_bits, int(edges[-1]) // row_bits
    h = max(1, 8 * _FILL // row_bits)
    buf = np.empty(min(h, last + 1 - first) * row_bits // 64, dtype="<u8")
    at = 0
    while at < edges.size:
        r0 = int(edges[at]) // row_bits
        r1 = min(r0 + h, last + 1)
        stop = int(np.searchsorted(edges, r1 * row_bits))
        pos = edges[at:stop] - r0 * row_bits
        at = stop
        starts = np.flatnonzero(np.diff(pos >> 6, prepend=-1))  # each word's first edge
        w = pos[starts] >> 6
        used = buf[: (r1 - r0) * row_bits // 64]
        used[...] = 0
        used[w] = np.uint64(0) - (np.diff(starts, append=pos.size) & 1).astype(np.uint64)
        np.bitwise_xor.accumulate(used, out=used)
        low = (np.uint64(1) << (pos & 63).astype(np.uint64)) - np.uint64(1)  # edge masks
        used[w] ^= np.bitwise_xor.reduceat(low, starts)
        bits[r0:r1, 8 * w0 :] |= used.view(np.uint8).reshape(r1 - r0, -1)[:, : width - 8 * w0]


def _resized(bits: np.ndarray, order: int) -> np.ndarray:
    """The packed rows ``bits`` grown with zeros or trimmed to order
    ``order``: new rows from :func:`_zeros`, or ``bits`` at its order."""
    if order == len(bits):
        return bits
    out = _zeros(order)
    rows, width = min(order, len(bits)), min(out.shape[1], bits.shape[1])
    out[:rows, :width] = bits[:rows, :width]
    if order % 8:
        out[:, -1] &= (1 << order % 8) - 1  # the columns past order - 1
    return out


def _toggle(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Flip the cell (rows[j], cols[j]) of the packed rows ``bits`` for
    every j, one scattered write: the rows must be distinct, as the
    lower or the upper ends of a pairing are.  Sets the arc of each
    unjoined pair (u, v), u < v, before :func:`_mirror`, or clears the
    cell (v, u) that the mirror joined after it."""
    bits[rows, cols >> 3] ^= _bit(cols)


def _unjoined(bits: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether neither cell of any pair (u[j], v[j]) is set in the packed rows."""
    return not ((bits[u, v >> 3] & _bit(v)) | (bits[v, u >> 3] & _bit(u))).any()


def _bands(bits: np.ndarray, tile: int = 0) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Cut packed rows into bands of ``max(1, tile // 8)`` block rows
    (8 rows each; ``tile`` is ``_TILE`` if 0), lazily, and yield for
    each its first block row r0, its rows from its diagonal block on and
    its columns from its diagonal block down, as views of ``bits``."""
    step = max(1, (tile or _TILE) // 8)
    for r0 in range(0, bits.shape[1], step):
        yield r0, bits[8 * r0 : 8 * (r0 + step), r0:], bits[8 * r0 :, r0 : r0 + step]


def _planes(rows: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Packed rows as a (8, bytes, ceil(rows / 8)) array of bit planes:
    plane i holds row i of every 8 x 8 block, block (R, C) of the rows at
    [:, C, R], and the rows past the last are zero.  The planes are the
    front of ``scratch`` if given, else new, and never a view of
    ``rows``, which :func:`_transpose8` would transpose in place."""
    r, width = rows.shape
    full, part = divmod(r, 8)
    shape = (8, width, full + (part > 0))
    planes = np.empty(shape, dtype=np.uint8) if scratch is None else scratch[: 8 * width * shape[2]].reshape(shape)
    planes[:, :, :full] = rows[: 8 * full].reshape(full, 8, width).transpose(1, 2, 0)
    if part:
        planes[:, :, full] = 0
        planes[:part, :, full] = rows[8 * full :]
    return planes


def _transpose8(x: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Transpose in place each 8 x 8 bit block of ``x``, a contiguous
    array of eight bit planes as :func:`_planes` makes it, and return it.
    The swaps' temporary, four planes, is the front of the bytes
    ``spare`` if given, else new.

    In a block, bit j of row i is cell (i, j), and row i lies in plane i.
    Three delta swaps exchange cells (i, j + s) and (i + s, j) for every
    i and j with bit s clear, s = 1, 2, 4: first across the diagonal of
    each 2 x 2 square, then of each 4 x 4 square of 2 x 2 squares, then
    of the whole block.  Plane i + s is the partner plane, so each step
    runs over whole planes; the mask holds the bits j of each swap
    (0x55, 0x33, 0x0F).

    The swaps run on the widest unsigned words, up to 64 bits, that
    divide a plane, with the mask repeated in every byte.  On either
    byte order, the right shift by s carries bits across a byte edge
    only into the top s bits of a byte, which the mask clears, and the
    masked bits shift back left within their own byte.
    """
    size = gcd(x[0].size, 8)  # bytes of a word
    planes = x.reshape(8, -1).view(f"u{size}")
    half = 4 * x[0].size  # bytes of four planes
    spare = (np.empty(half, dtype=np.uint8) if spare is None else spare[:half]).view(planes.dtype)
    for s, mask in ((1, 0x55), (2, 0x33), (4, 0x0F)):
        pairs = planes.reshape(4 // s, 2, s, -1)
        top, bottom = pairs[:, 0], pairs[:, 1]
        t = np.right_shift(top, s, out=spare.reshape(top.shape))
        t ^= bottom
        t &= mask * 0x0101010101010101 >> 64 - 8 * size  # in every byte of a word
        bottom ^= t
        t <<= s
        top ^= t
    return x


@cache
def _upper(h: int, *, diagonal: bool) -> np.ndarray:
    """The read-only mask of the cells (v, u) of a square on the diagonal
    with u > v, and u == v if ``diagonal``, as planes (j, C, R) of byte R
    of row 8C + j, as :func:`_transpose8` leaves the lower columns."""
    mask = np.zeros((8, h, h), dtype=np.uint8)
    c, r = np.triu_indices(h, 1)
    mask[:, c, r] = 0xFF
    d = np.arange(h)
    mask[:, d, d] = ((0xFF if diagonal else 0xFE) << np.arange(8)[:, None]) & 0xFF
    mask.flags.writeable = False
    return mask


def _row_counts(rows: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Write the set bits of each packed row into ``out``, ``_TILE`` rows
    at a time, and return it.  The bytes' counts go into the front of
    ``scratch`` if given, else into one new block.  A row's bits are
    summed in ``uint16`` when it has fewer than 2**16 of them, as at
    every order the matrix cap passes, else in ``uint32``: exact, and
    about twice as fast as a sum in ``int64``."""
    total = np.uint16 if 8 * rows.shape[1] < 1 << 16 else np.uint32
    if scratch is None:
        scratch = np.empty(min(len(rows), _TILE) * rows.shape[1], dtype=np.uint8)
    for lo in range(0, len(rows), _TILE):
        block = rows[lo : lo + _TILE]
        counts = np.bitwise_count(block, out=scratch[: block.size].reshape(block.shape))
        np.add.reduce(counts, axis=1, dtype=total, out=out[lo : lo + _TILE])
    return out


def _set_cells(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the set cells of packed rows, in row-major order."""
    r, c = np.nonzero(bits)
    at, j = np.nonzero(np.unpackbits(bits[r, c][:, None], axis=1, bitorder="little"))
    return r[at], 8 * c[at] + j


def _bit(col: np.ndarray) -> np.ndarray:
    """The bit of each column within its byte, as ``uint8`` masks."""
    return np.left_shift(1, col & 7).astype(np.uint8)


def _tournament_imbalances(out_deg: np.ndarray) -> np.ndarray | None:
    """Each vertex's imbalance, by id, if the graph with these out-degrees
    is a tournament, else None.

    The graph must be a simple oriented graph: every entry 0 or 1, the
    diagonal zero and no pair carrying two opposing arcs, as
    :meth:`Digraph.from_matrix` checks and :meth:`Digraph.from_arcs`
    ensures.  Then each of the n(n-1)/2 unordered pairs holds at most
    one arc, so the arc count, the sum of the out-degrees, is at most
    n(n-1)/2, with equality exactly when every pair holds one arc: when
    the graph is a tournament.  In a tournament each vertex is joined
    once to each of the n - 1 others, so its in-degree is n - 1 - out
    and its imbalance out - in is 2 * out - (n - 1).  So one pass over
    the matrix, for the out-degrees, gives both answers.
    """
    n = len(out_deg)
    if int(out_deg.sum()) != n * (n - 1) // 2:
        return None
    return 2 * out_deg - (n - 1)
