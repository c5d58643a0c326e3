"""Simple oriented graphs with degree and imbalance accounting.

Everything in this package lives inside orientations of simple graphs:
between any unordered pair of vertices there is at most one arc and
never a pair of opposing arcs.  Two structured special cases matter
downstream: tournaments (every pair joined) and near tournaments
(every vertex joined to all others except exactly one, which forces
even order).

Graphs are backed by a dense adjacency matrix because all algorithms
here touch most vertex pairs and orders stay in the low tens of
thousands.  Instances are immutable after construction.  There are two
entry points: :meth:`Digraph.from_arcs` takes the arcs as two integer
arrays (sources, targets) and checks them in whole-array passes, and
:meth:`Digraph.from_matrix` wraps a finished adjacency matrix.
``Digraph(n, arcs)`` is a convenience that delegates to ``from_arcs``.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import DoubledPairError, check_matrix_order

# Row-block size for pair checks on large matrices, keeps temporaries small.
_BLOCK = 4096
# Square tile side for the opposing-pair test, small enough to stay in cache.
_TILE = 512


class Digraph:
    """Immutable simple oriented graph on vertices ``0 .. n-1``.

    Cell ``(u, v)`` of the adjacency matrix is 1 exactly when there is
    an arc directed from ``u`` to ``v``.  The no-2-cycle invariant means
    each unordered pair is in one of three states: unjoined, forward,
    or backward.
    """

    __slots__ = ("_adj",)

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        arcs = list(arcs)
        if any(len(arc) != 2 for arc in arcs):
            raise ValueError("arcs must be (source, target) pairs")
        try:  # operator.index refuses 0.5, which an int64 cast reads as 0
            ids = np.fromiter(map(operator.index, chain.from_iterable(arcs)), np.int64, 2 * len(arcs))
        except OverflowError:
            raise ValueError(f"arc id out of range for order {n}") from None
        self._adj = Digraph.from_arcs(n, ids[0::2], ids[1::2])._adj

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
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        check_matrix_order(n)
        src, dst = np.asarray(src), np.asarray(dst)
        if any(a.size and a.dtype.kind not in "biu" for a in (src, dst)):
            raise ValueError("arc ids must be integers")  # not cast: 0.5 would read 0
        src, dst = src.reshape(-1), dst.reshape(-1)
        if src.shape != dst.shape:
            raise ValueError("source and target arrays differ in length")
        adj = np.zeros((n, n), dtype=np.uint8)
        _place_arcs(adj.reshape(-1), n, src, dst)
        return cls.from_matrix(adj, validate=False)

    @classmethod
    def from_matrix(cls, adj: np.ndarray, *, validate: bool = True) -> "Digraph":
        """Wrap an adjacency matrix (uint8, square) as a Digraph.

        The array is taken over without copying and frozen; callers must
        not keep a writable reference.
        """
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if adj.dtype != np.uint8:
            # The cast would wrap 256 to 0 and truncate 1.9 to 1.
            if validate and not ((adj == 0) | (adj == 1)).all():
                raise ValueError("adjacency entries must be 0 or 1")
            adj = adj.astype(np.uint8)
        if validate:
            _validate_matrix(adj)
        g = object.__new__(cls)
        adj.flags.writeable = False
        g._adj = adj
        return g

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def arc_count(self) -> int:
        return int(self._adj.sum(dtype=np.int64))

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Yield arcs as (source, target), sorted lexicographically."""
        for u, v in np.argwhere(self._adj):
            yield int(u), int(v)

    def matrix(self) -> np.ndarray:
        """Read-only view of the adjacency matrix."""
        return self._adj

    # -- degrees and imbalances ------------------------------------------

    def out_degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1, dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        return self._adj.sum(axis=0, dtype=np.int64)

    def imbalances(self) -> np.ndarray:
        """Per-vertex imbalance, indexed by vertex id."""
        return self.out_degrees() - self.in_degrees()

    def imbalance_sequence(self) -> tuple[int, ...]:
        """All vertex imbalances sorted nonincreasing.  Sums to zero."""
        vals = np.sort(self.imbalances())[::-1]
        return tuple(int(x) for x in vals)

    def imbalance_set(self) -> frozenset[int]:
        """The deduplicated set of vertex imbalances."""
        return frozenset(int(x) for x in np.unique(self.imbalances()))

    # -- structural predicates -------------------------------------------

    def is_tournament(self) -> bool:
        """True iff every unordered pair carries exactly one arc.

        Decided by the arc-count rule proved in :func:`_tournament_imbalances`.
        """
        return _tournament_imbalances(self) is not None

    def is_near_tournament(self) -> bool:
        """True iff n is even, n >= 2, and every vertex misses exactly one.

        The degree criterion is enough because construction already rules
        out doubled pairs, so joined-count = out-degree + in-degree.
        """
        n = self.n
        if n < 2 or n % 2:
            return False
        joined = self.out_degrees() + self.in_degrees()
        return bool((joined == n - 2).all())

    def non_neighbour_pairs(self) -> tuple[tuple[int, int], ...]:
        """All unjoined pairs {u, v}, normalized as (min, max) and sorted."""
        n = self.n
        out: list[tuple[int, int]] = []
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            joined = self._adj[lo:hi, :] | self._adj[:, lo:hi].T
            rows, cols = np.nonzero(joined == 0)
            keep = cols > rows + lo
            for r, c in zip(rows[keep], cols[keep]):
                out.append((int(r) + lo, int(c)))
        out.sort()
        return tuple(out)

    def first_non_neighbour_pair(self) -> tuple[int, int] | None:
        """The smallest unjoined pair (u, v), u < v, or None if there is none.

        Scans row blocks and stops at the first block with a gap, so a
        graph missing a pair near the top costs one block, not n^2 / 2
        pair tuples.
        """
        n = self.n
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            joined = self._adj[lo:hi, :] | self._adj[:, lo:hi].T
            gap = np.triu(joined == 0, lo + 1)  # columns right of the diagonal
            if gap.any():
                r, c = divmod(int(gap.argmax()), n)
                return (r + lo, c)
        return None

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._adj, other._adj))

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


def _place_arcs(flat: np.ndarray, n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Set the arcs ``src[i] -> dst[i]`` in the flat order-n matrix, or
    raise for the first bad arc in array order.

    The arcs come after those of earlier calls on the same matrix, and
    the fault raised is the first doubled pair (:class:`DoubledPairError`,
    for a duplicate or an opposing arc) before the first arc out of
    range or looping, else that arc.  A pair is doubled if its cell is
    set before the scatter, if its reverse cell is set after it, or if
    a cell is written twice (keys in increasing order, as files list
    them, cannot repeat).  Ids are read as int64; messages quote them as
    given, so a uint64 id that wraps in the cast is quoted unwrapped.
    """
    s64, d64 = src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)
    bad = (s64.view(np.uint64) >= n) | (d64.view(np.uint64) >= n) | (s64 == d64)  # negatives wrap
    good = int(bad.argmax()) if bad.any() else src.size
    s, d = s64[:good], d64[:good]
    keys, reverse = s * n + d, d * n + s
    before = flat[keys]
    flat[keys] = 1
    if before.any() or flat[reverse].any() or not _distinct(keys):
        flat[keys] = before
        raise _first_doubled_pair(n, s, d, before.astype(bool), flat[reverse].astype(bool))
    if good < src.size:
        u, v = int(src[good]), int(dst[good])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for order {n}")
        raise ValueError(f"self-loop at vertex {u}")


def _distinct(keys: np.ndarray) -> bool:
    if (keys[1:] > keys[:-1]).all():
        return True
    ranked = np.sort(keys)
    return not (ranked[1:] == ranked[:-1]).any()


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


def _validate_matrix(adj: np.ndarray) -> None:
    """Refuse entries other than 0 or 1, self-loops and opposing pairs.

    Each row block is checked for all three, in that order, before the
    next.  A pair is tested in the block of its smaller endpoint, one
    tile against its mirror tile, so each transposed read is a small
    square; the diagonal is zero by then, so tiles crossing it report
    only pairs.  No temporary grows with n: the entry test is a
    reduction (``max``) over the block, the self-loop test makes two
    ``_BLOCK``-long index arrays and a gather of the block's diagonal
    cells (72 KiB), and the pair test one ``_TILE`` x ``_TILE`` tile
    product (256 KiB).
    """
    n = adj.shape[0]
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block = adj[lo:hi, :]
        if block.max() > 1:
            raise ValueError("adjacency entries must be 0 or 1")
        rows = np.arange(hi - lo)
        if block[rows, rows + lo].any():
            raise ValueError("self-loops are not allowed")
        for a in range(lo, hi, _TILE):
            a_end = min(a + _TILE, hi)
            for b in range(a, n, _TILE):
                b_end = min(b + _TILE, n)
                if (adj[a:a_end, b:b_end] & adj[b:b_end, a:a_end].T).any():
                    raise ValueError("opposing arc pairs are not allowed")


def _tournament_imbalances(graph: Digraph) -> np.ndarray | None:
    """Each vertex's imbalance, by id, if the graph is a tournament, else None.

    The graph must be a simple oriented graph: every entry 0 or 1, the
    diagonal zero and no pair carrying two opposing arcs, as
    :func:`_validate_matrix` checks and :meth:`Digraph.from_arcs`
    ensures.  Then each of the n(n-1)/2 unordered pairs holds at most
    one arc, so the arc count, the sum of the out-degrees, is at most
    n(n-1)/2, with equality exactly when every pair holds one arc: when
    the graph is a tournament.  In a tournament each vertex is joined
    once to each of the n - 1 others, so its in-degree is n - 1 - out
    and its imbalance out - in is 2 * out - (n - 1).  So one pass over
    the matrix, for the out-degrees, gives both answers.
    """
    n = graph.n
    out_deg = graph.out_degrees()
    if int(out_deg.sum()) != n * (n - 1) // 2:
        return None
    return 2 * out_deg - (n - 1)
