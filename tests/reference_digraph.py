"""The checks that ``Digraph`` replaced, kept only as references for the
differential tests.

``validate_matrix`` is the matrix check that ``Digraph.from_matrix``
replaced: the whole matrix is tested against its transpose, where the
program tests opposing pairs band by band on the packed rows.

``place_arcs`` is the arc placement that ``digraph._place_arcs``
replaced: it scatters the arcs into a flat ``uint8`` order-n matrix, one
byte a cell, where the program sets bits in packed rows.  Behaviour is
exactly the replaced code's, including its error messages.

``mirror`` is the mirror pass that ``digraph._mirror`` replaced: it
writes each lower cell (v, u), v > u, as 1 - (u, v) band by band, with
no test and no count, where the program also reads the written columns
back for doubled pairs and returns the out-degrees.
"""

from __future__ import annotations

import numpy as np

from imbalanceset.digraph import _bands, _blocks, _first_doubled_pair, _flip, _upper


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
    for _, upper, lower in _bands(bits):
        h = lower.shape[1]
        low = np.invert(_flip(upper), order="C")
        keep = _upper(h, diagonal=True)
        low[:h] &= ~keep
        low[:h] |= _blocks(lower[: 8 * h]) & keep
        lower[...] = low.reshape(-1, h)[: len(lower)]
