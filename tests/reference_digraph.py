"""The matrix check that ``Digraph.from_matrix(validate=True)`` replaced.

Kept only as the reference for the differential test: the whole matrix
is tested against its transpose, where the program tests opposing pairs
band by band on the packed rows.
"""

from __future__ import annotations

import numpy as np


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
