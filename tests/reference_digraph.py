"""The checks that ``Digraph`` replaced, kept only as references for the
differential tests.

``validate_matrix`` is the matrix check that ``Digraph.from_matrix``
replaced: the whole matrix is tested against its transpose, where the
program tests opposing pairs band by band on the packed rows.

``place_arcs`` is the arc placement that ``digraph._place_arcs``
replaced: it scatters the arcs into a flat ``uint8`` order-n matrix, one
byte a cell, where the program sets bits in packed rows.  Behaviour is
exactly the replaced code's, including its error messages.

``mirror`` is the mirror pass on unpacked cells: it writes each lower
cell (v, u), v > u, as 1 - (u, v) in the whole ``uint8`` matrix, with no
test and no count, where the program transposes the packed rows band by
band as bit planes, reads the written columns back for doubled pairs
and returns the out-degrees.
"""

from __future__ import annotations

import numpy as np

from imbalanceset.digraph import _first_doubled_pair


def validate_matrix(adj: np.ndarray) -> None:
    if (adj > 1).any():
        raise ValueError("adjacency entries must be 0 or 1")
    opposing = adj & adj.T
    rows = np.arange(adj.shape[0])
    if adj[rows, rows].any():
        raise ValueError("self-loops are not allowed")
    opposing[rows, rows] = 0
    if opposing.any():
        raise ValueError("opposing arc pairs are not allowed")


def place_arcs(flat: np.ndarray, n: int, src: np.ndarray, dst: np.ndarray) -> None:
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


def mirror(bits: np.ndarray) -> None:
    n = len(bits)
    adj = np.unpackbits(bits, axis=1, count=n, bitorder="little")
    lower = np.tril_indices(n, -1)
    adj[lower] = 1 - adj.T[lower]
    bits[...] = np.packbits(adj, axis=1, bitorder="little")
