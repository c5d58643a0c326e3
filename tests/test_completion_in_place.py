"""The one-matrix even build against the public copying path.

``decide_tis`` allocates the final matrix once, has the greedy write the
base's upper cells into its top-left block, completes it there and
mirrors it once.  The public path builds the base matrix on its own and
``add_arcs`` copies it into a grown one.  Both must give the same
certificate bytes, and the certificate must hold the base that
``max_realization`` reports, with its unjoined pairs joined.
"""

import tracemalloc

import pytest

import imbalanceset.digraph
import imbalanceset.realize
from imbalanceset import (
    ImbalanceSet,
    add_arcs,
    canonical_sequence,
    decide_tis,
    max_realization,
)

# The golden set, pair sets (one whose couples outnumber the pairs),
# sets with 0 and three-member sets of mixed 2-adic valuation.
EVEN_SETS = [
    {4, 2, -2},
    {4, -6},
    {2, -300},
    {56, -2},
    {0, 2, -40},
    {0, 4, -2},
    {12, -8, -24},
    {6, -4, -10},
]


@pytest.mark.parametrize("members", EVEN_SETS, ids=str)
def test_certificate_matches_the_copying_path(members):
    decision = decide_tis(members, with_certificate=True)
    assert decision.witness is not None
    parts = ImbalanceSet.from_values(members)
    copied = add_arcs(max_realization(canonical_sequence(parts)), decision.witness)
    assert decision.certificate.n == copied.n == decision.order
    assert decision.certificate.matrix().tobytes() == copied.matrix().tobytes()


@pytest.mark.parametrize("members", EVEN_SETS, ids=str)
def test_certificate_extends_the_base_by_its_pair_arcs(members):
    base = max_realization(canonical_sequence(ImbalanceSet.from_values(members)))
    n = base.graph.n
    want = base.graph.matrix().copy()
    for lo, hi in base.non_neighbour_pairing:
        want[lo, hi] = 1
    cert = decide_tis(members, with_certificate=True).certificate
    assert (cert.matrix()[:n, :n] == want).all()


def test_even_build_peaks_at_one_matrix_plus_one_band():
    # Traced peak <= final packed matrix + the band buffer of _fill +
    # 128 bytes for each interval held at once: fewer than 2 * _FLUSH
    # receiver stretches in the greedy, k + 3n/2 + S in the completion
    # (10,024 here).  Order 5013 from a base of order 3342: 3.1 + 0.3 +
    # 2.1 MB; the unpacked matrix (25.1 MB) or a matrix-sized temporary
    # in the greedy, the check or the mirror (3.1 MB) would not fit.
    decide_tis({2, -8}, with_certificate=True)  # imports outside the trace
    tracemalloc.start()
    try:
        decision = decide_tis({2, -3340}, with_certificate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total, witness = decision.order, decision.witness
    assert total == 5013
    held = max(2 * imbalanceset.realize._FLUSH, witness.total_length + 3 * 3342 // 2 + witness.common_sum)
    assert peak <= total * -(-total // 8) + imbalanceset.digraph._FILL + 128 * held
