"""The per-vertex maximum-realization greedy that ``realize.max_realization`` replaced.

Kept only as the reference for the differential test: it runs one pass
of numpy calls over the whole unprocessed suffix for every vertex,
where the program steps over runs of equal vertices.  Both must build
the same matrix and pairing and fail with the same error.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from imbalanceset import Digraph, RealizationError, RealizationReport, digraph_imbalance_failure
from imbalanceset.errors import check_matrix_order


def max_realization(seq: Sequence[int]) -> RealizationReport:
    """Build a maximum-arc simple digraph realizing the sequence.

    The result is a tournament when every entry matches the parity of
    n - 1, and a near tournament when every entry misses it (so n is
    even); mixed parities leave both flags false.
    """
    failure = digraph_imbalance_failure(seq)
    if failure is not None:
        raise ValueError(f"not a digraph imbalance sequence ({failure.kind})")
    n = len(seq)
    check_matrix_order(n)

    targets = np.asarray(seq, dtype=np.int64)
    out_quota = (n - 1 + targets) // 2
    parity_match = (targets % 2) == ((n - 1) % 2)
    joined_quota = np.where(parity_match, n - 1, n - 2)
    in_quota = joined_quota - out_quota

    adj = np.zeros((n, n), dtype=np.uint8)
    rem_out = out_quota.copy()
    rem_in = in_quota.copy()
    skip_free = ~parity_match
    skip_partner = np.full(n, -1, dtype=np.int64)

    for i in range(n):
        unproc = n - 1 - i
        assert rem_out[i] + rem_in[i] + int(skip_free[i]) == unproc

        partner = -1
        if skip_free[i]:
            free = np.flatnonzero(skip_free[i + 1 :])
            if free.size == 0:
                raise RealizationError(f"no free non-neighbour slot for vertex {i}")
            partner = i + 1 + int(free[0])
            skip_free[i] = False
            skip_free[partner] = False
            skip_partner[i] = partner
            skip_partner[partner] = i

        cand = np.arange(i + 1, n, dtype=np.int64)
        if partner >= 0:
            cand = cand[cand != partner]
        if cand.size == 0:
            continue

        need_recv = int(rem_out[i])
        need_send = int(rem_in[i])
        assert need_recv + need_send == cand.size

        # A candidate with both residuals exhausted could take no arc at
        # all; the per-vertex bookkeeping identity rules that out here.
        assert not ((rem_out[cand] == 0) & (rem_in[cand] == 0)).any()

        forced_recv = cand[rem_out[cand] == 0]
        flex = cand[(rem_out[cand] > 0) & (rem_in[cand] > 0)]
        extra = need_recv - forced_recv.size
        # extra > flex.size means the forced senders overfill the in-quota.
        if extra < 0 or extra > flex.size:
            raise RealizationError(f"vertex {i} could not be balanced")
        if extra == 0:
            chosen = flex[:0]
        elif extra == flex.size:
            chosen = flex
        else:
            # Largest residual in-demand first, lowest id on ties.
            key = rem_in[flex] * np.int64(n + 1) + (n - flex)
            chosen = flex[np.argpartition(-key, extra - 1)[:extra]]

        recv_mask = np.zeros(n, dtype=bool)
        recv_mask[forced_recv] = True
        recv_mask[chosen] = True
        receivers = cand[recv_mask[cand]]
        senders = cand[~recv_mask[cand]]

        adj[i, receivers] = 1
        adj[senders, i] = 1
        rem_in[receivers] -= 1
        rem_out[senders] -= 1
        rem_out[i] -= receivers.size
        rem_in[i] -= senders.size
        assert rem_out[i] == 0 and rem_in[i] == 0

    if rem_out.any() or rem_in.any() or skip_free.any():
        raise RealizationError("residual quotas did not close")
    graph = Digraph.from_matrix(adj)

    pairing = tuple(
        (int(v), int(skip_partner[v]))
        for v in range(n)
        if skip_partner[v] > v
    )
    arc_count = int(out_quota.sum())
    return RealizationReport(
        graph=graph,
        arc_count=arc_count,
        is_tournament=bool(parity_match.all()),
        is_near_tournament=bool(n >= 2 and n % 2 == 0 and not parity_match.any()),
        non_neighbour_pairing=pairing,
    )
