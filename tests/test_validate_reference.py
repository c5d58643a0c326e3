"""The packed matrix check against the whole-matrix check it replaced.

``reference_digraph.validate_matrix`` tests the whole matrix against its
transpose; ``Digraph.from_matrix`` packs the matrix and tests opposing
pairs band by band.  On matrices with several faults of different
kinds, both must accept the same matrices and raise the same first
fault.  Bands are made small, down to one 8 x 8 block row, so that
many bands and ragged last bands run.
"""

import numpy as np
import pytest

import reference_digraph
from imbalanceset import Digraph, digraph


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


@pytest.mark.parametrize("tile", [8, 16, 24, 512])
def test_first_fault_matches_the_whole_matrix_check(monkeypatch, tile):
    monkeypatch.setattr(digraph, "_TILE", tile)
    rng = np.random.default_rng(tile)
    seen = set()
    for _ in range(600):
        adj = _faulty_matrix(rng, int(rng.integers(1, 40)))
        got = _outcome(Digraph.from_matrix, adj)
        assert got == _outcome(reference_digraph.validate_matrix, adj)
        seen.add(got if got is None else got[1])
    assert len(seen) == 4  # accepted, and each of the three faults first
