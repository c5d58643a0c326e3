"""The mirror pass that finishes every build against the mirror it replaced.

``digraph._mirror`` writes each lower cell (v, u), v > u, as 1 - (u, v),
reads the written columns back for doubled pairs and returns the
out-degrees, in one pass over the bands.  It must leave the cells that
``reference_digraph.mirror`` (write only) leaves and return the row
counts of the result, and the builds that ignore those counts must not
change.  Rows hold random cells everywhere, lower cells included, as in
``add_arcs``, which mirrors a grown copy of a finished base.  Orders
1-40 cover every n mod 8; bands of 1, 2 and 64 block rows make bands
end ragged.
"""

import numpy as np
import pytest

import imbalanceset.realize
import reference_digraph
from conftest import all_valid_imbalance_sequences
from imbalanceset import Digraph, EqualSumWitness, add_arcs, digraph, max_realization


def _random_rows(rng, n):
    adj = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
    return np.packbits(adj, axis=1, bitorder="little")


@pytest.mark.parametrize("tile", (8, 16, 512))
def test_mirror_matches_the_replaced_pass(monkeypatch, tile):
    monkeypatch.setattr(digraph, "_TILE", tile)
    rng = np.random.default_rng(tile)
    for n in range(1, 41):
        for _ in range(3):
            bits = _random_rows(rng, n)
            want = bits.copy()
            reference_digraph.mirror(want)
            degrees = digraph._mirror(bits)
            assert (bits == want).all(), n
            assert (degrees == Digraph._from_bits(bits).out_degrees()).all(), n


def test_builds_are_unchanged(monkeypatch):
    # max_realization and add_arcs ignore the degrees the pass returns.
    sequences = [seq for n in range(1, 8) for seq in all_valid_imbalance_sequences(n)]
    reports = [max_realization(seq) for seq in sequences]
    near = [r for r in reports if r.is_near_tournament]
    witness = EqualSumWitness((0,), (), 0)
    grown = [add_arcs(r, witness) for r in near]
    monkeypatch.setattr(imbalanceset.realize, "_mirror", reference_digraph.mirror)
    assert [max_realization(seq) for seq in sequences] == reports
    assert [add_arcs(r, witness) for r in near] == grown
