"""The apex completion that imbalanceset.realize.add_apex_zero replaced.

Kept only as the reference for the differential test: ``add_apex_zero``
now calls ``add_arcs`` with the degenerate witness ([0], []), and this
is the direct matrix construction it used to run.
"""

from __future__ import annotations

import numpy as np

from imbalanceset import Digraph, RealizationReport


def add_apex_zero(near: RealizationReport) -> Digraph:
    """Complete a near tournament by a single vertex of imbalance zero.

    Every unjoined pair (v, v') gains the arc v -> v', the apex beats
    v and loses to v', so all original imbalances survive and the apex
    nets zero.
    """
    if not near.is_near_tournament:
        raise ValueError("base graph must be a near tournament")
    n = near.graph.n
    adj = np.zeros((n + 1, n + 1), dtype=np.uint8)
    adj[:n, :n] = near.graph.matrix()
    lo = np.fromiter((p for p, _ in near.non_neighbour_pairing), dtype=np.int64)
    hi = np.fromiter((q for _, q in near.non_neighbour_pairing), dtype=np.int64)
    adj[lo, hi] = 1
    adj[hi, n] = 1
    adj[n, lo] = 1
    return Digraph.from_matrix(adj)
