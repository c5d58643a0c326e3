"""Realize an imbalance sequence as a simple digraph with maximum arcs.

A nonincreasing integer sequence t passing the digraph feasibility
check is realized by a graph in which every vertex has at most one
non-neighbour (Mubayi, Will & West, "Realizing degree imbalances in
directed graphs", Discrete Math. 2001); the arc total is the sum of
floor((n - 1 + t_i) / 2).  Vertex i gets out-quota
floor((n - 1 + t_i) / 2); it is joined to all n - 1 others when t_i has
the parity of n - 1 and to n - 2 others (leaving one non-neighbour)
otherwise.

The builder processes vertices in sequence order.  Each step fixes all
arcs between the current vertex and the not-yet-processed ones: first
the non-neighbour slot is paired off (lowest-id unprocessed vertex with
a free slot), then out-arcs go to the candidates with the largest
residual in-demand (ties to the lower id), and the remaining candidates
send arcs in.  Candidates whose residual demand forces a direction are
honoured first.

Why the greedy finishes.  Call a state completable when some maximum
realization extends every arc and pairing fixed so far.  The start is
completable: the theorem above gives a realization with these quotas.
* Orientation step, proved.  Let D complete the state after v is
  paired, and b(c) be candidate c's residual in-demand.  In D a
  candidate with no out-demand left receives from v and one with no
  in-demand left sends to v, so the balance guard below cannot fire.
  Take D agreeing with the greedy receivers G on the most candidates,
  with v -> c for some c outside G and c' -> v for some c' in G; both
  are unforced, so b(c') >= b(c).  A path c ~> c' in D - v, reversed
  together with v -> c and c' -> v, keeps all degrees and agrees with
  G more.  Without one, let R be reachable from c in D - v and C the
  other unprocessed vertices; arcs between them point into R.  c
  misses at most one vertex, so b(c) >= 1 + (|C| - 1), while c' in C
  receives only from C: b(c') <= |C| - 1 < b(c).  So D follows G.
* Pairing step, open: pairing v with the lowest-id free vertex is not
  proved to keep the state completable.  Exchanging the non-neighbour
  pairs {v, k}, {j, l} for {v, j}, {k, l} keeps degrees unless arcs
  v-j and k-l both leave one old pair; then it needs a path that the
  greedy's unordered residual demands do not guarantee.  Evidence: it
  finished on all 168,789 digraph imbalance sequences of orders 1-10
  and on the canonical expansions of all 2,891 one-parity two-signed
  2- to 4-member sets from {-14..14} with n <= 300.
A failed step raises :class:`RealizationError`.  Each arc set takes one
unit from its tail's out-quota and its head's in-quota, so the closing
guard that every residual quota is zero proves the built imbalances.

Outputs are deterministic, which the golden-file tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digraph import Digraph
from .errors import check_matrix_order
from .sequences import digraph_imbalance_failure


class RealizationError(RuntimeError):
    """The greedy builder could not complete a feasible sequence."""


@dataclass(frozen=True)
class RealizationReport:
    """A built graph plus the structural facts tests and callers rely on.

    non_neighbour_pairing lists the unjoined pairs normalized as
    (min, max) and sorted; for a near tournament it is a perfect
    matching, for a tournament it is empty.
    """

    graph: Digraph
    arc_count: int
    is_tournament: bool
    is_near_tournament: bool
    non_neighbour_pairing: tuple[tuple[int, int], ...]


def max_arc_count(seq: Sequence[int]) -> int:
    """Arc count of any maximum realization: sum of floor((n-1+t_i)/2)."""
    failure = digraph_imbalance_failure(seq)
    if failure is not None:
        raise ValueError(f"not a digraph imbalance sequence ({failure.kind})")
    n = len(seq)
    return sum((n - 1 + t) // 2 for t in seq)


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
    graph = Digraph.from_matrix(adj, validate=False)

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


def verify_realization(seq: Sequence[int], report: RealizationReport) -> bool:
    """Recompute everything the report claims, straight from the graph."""
    g = report.graph
    return (
        g.imbalance_sequence() == tuple(seq)
        and report.arc_count == g.arc_count
        and report.is_tournament == g.is_tournament()
        and report.is_near_tournament == g.is_near_tournament()
        and tuple(report.non_neighbour_pairing) == g.non_neighbour_pairs()
    )
