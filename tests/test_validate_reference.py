"""The tiled matrix check against the block check it replaced.

``reference_digraph.validate_matrix`` tests each row block against the
whole transposed column block; ``digraph._validate_matrix`` tests
opposing pairs tile by tile.  On matrices with several faults of
different kinds, both must accept the same matrices and raise the same
first fault.  Block and tile sizes are made small, and the tile size
does not divide the block size, so many blocks and ragged tiles run.
"""

import numpy as np
import pytest

import reference_digraph
from imbalanceset import digraph


def _outcome(check, adj):
    try:
        check(adj)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _faulty_matrix(rng, n):
    """A random simple digraph with up to three faults: an entry other
    than 0 or 1, a self-loop or an opposing pair."""
    state = np.triu(rng.integers(0, 3, size=(n, n)), 1)
    adj = ((state == 1) | (state == 2).T).astype(np.uint8)
    for _ in range(rng.integers(0, 4)):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        kind = rng.integers(0, 3)
        if kind == 0:
            adj[u, v] = rng.choice((2, 3, 255))
        elif kind == 1:
            adj[u, u] = 1
        elif u != v:
            adj[u, v] = adj[v, u] = 1
    return adj


@pytest.mark.parametrize("block, tile", [(8, 3), (5, 5), (16, 7), (4096, 512)])
def test_first_fault_matches_the_block_check(monkeypatch, block, tile):
    monkeypatch.setattr(digraph, "_BLOCK", block)
    monkeypatch.setattr(digraph, "_TILE", tile)
    rng = np.random.default_rng(block * 1000 + tile)
    seen = set()
    for _ in range(600):
        adj = _faulty_matrix(rng, int(rng.integers(1, 40)))
        got = _outcome(digraph._validate_matrix, adj)
        assert got == _outcome(reference_digraph.validate_matrix, adj)
        seen.add(got if got is None else got[1])
    assert len(seen) == 4  # accepted, and each of the three faults first
