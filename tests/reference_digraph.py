"""The matrix check that ``digraph._validate_matrix`` replaced.

Kept only as the reference for the differential test: each row block
is tested against the whole transposed column block, where the program
tests opposing pairs tile by tile.  It reads the block size from the
program's module, so a test that makes ``digraph._BLOCK`` small runs
several blocks in both.
"""

from __future__ import annotations

import numpy as np

from imbalanceset import digraph


def validate_matrix(adj: np.ndarray) -> None:
    n = adj.shape[0]
    for lo in range(0, n, digraph._BLOCK):
        hi = min(lo + digraph._BLOCK, n)
        block = adj[lo:hi, :]
        if (block > 1).any():
            raise ValueError("adjacency entries must be 0 or 1")
        opposing = block & adj[:, lo:hi].T
        rows = np.arange(hi - lo)
        if block[rows, rows + lo].any():
            raise ValueError("self-loops are not allowed")
        opposing[rows, rows + lo] = 0
        if opposing.any():
            raise ValueError("opposing arc pairs are not allowed")
