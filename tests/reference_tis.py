"""The completion that imbalanceset.realize.add_arcs replaced.

Kept only as the reference for the differential test: it lays out the
counterbalancing roles of every (pair, new vertex) cell at once, in
arrays of n/2 x k cells, and builds the new clique from a k x k gap
array.  The program fills the same cells block by block of pairs.
"""

from __future__ import annotations

import numpy as np

from imbalanceset import Digraph, EqualSumWitness, RealizationReport
from imbalanceset.errors import check_matrix_order


def add_arcs(near: RealizationReport, witness: EqualSumWitness) -> Digraph:
    """Complete a near tournament into a tournament via an equal-sum pair.

    Adds len(xs) + len(ys) vertices (the total must be odd) whose
    imbalances come out as the xs and the negated ys, while every
    original vertex keeps its imbalance.  See the module docstring for
    the construction; it degenerates to the single-apex picture when
    the witness is the trivial ([0], []).
    """
    if not near.is_near_tournament:
        raise ValueError("base graph must be a near tournament")
    xs, ys = witness.xs, witness.ys
    k = len(xs) + len(ys)
    if k % 2 == 0:
        raise ValueError("the witness must have odd total length")
    if any(v % 2 for v in xs) or any(v % 2 for v in ys):
        raise ValueError("witness entries must be even")

    n = near.graph.n
    n_pairs = n // 2
    common = witness.common_sum
    couples = common // 2
    if any(x // 2 > n_pairs for x in xs) or any(y // 2 > n_pairs for y in ys):
        raise ValueError("a witness entry exceeds the base graph's pair capacity")
    if couples and -(-couples // n_pairs) > (k - 1) // 2:
        raise ValueError("witness couple load exceeds the new-clique capacity")

    total = n + k
    check_matrix_order(total)
    adj = np.zeros((total, total), dtype=np.uint8)
    adj[:n, :n] = near.graph.matrix()

    # New clique: rotational regular tournament (k odd), vertex i beats
    # the next (k - 1) / 2 vertices cyclically.
    new_ids = n + np.arange(k, dtype=np.int64)
    offsets = np.arange(k, dtype=np.int64)
    gap = (offsets[None, :] - offsets[:, None]) % k
    adj[n:, n:] = ((gap >= 1) & (gap <= (k - 1) // 2)).astype(np.uint8)

    lo = np.fromiter((p for p, _ in near.non_neighbour_pairing), dtype=np.int64)
    hi = np.fromiter((q for _, q in near.non_neighbour_pairing), dtype=np.int64)
    adj[lo, hi] = 1

    # Couple j pairs the j-th positive half-unit with the j-th negative
    # one; couples are dealt round-robin over the pairs, so one owner's
    # units land on distinct pairs (its demand is at most n/2 units).
    x_owner = np.repeat(np.arange(len(xs)), np.asarray(xs, dtype=np.int64) // 2)
    y_owner = np.repeat(np.arange(len(ys)), np.asarray(ys, dtype=np.int64) // 2)
    assert x_owner.size == couples and y_owner.size == couples
    cpair = np.arange(couples) % max(n_pairs, 1)

    adj[n + x_owner, lo[cpair]] = 1
    adj[n + x_owner, hi[cpair]] = 1
    adj[lo[cpair], n + len(xs) + y_owner] = 1
    adj[hi[cpair], n + len(xs) + y_owner] = 1

    owners = np.zeros((n_pairs, k), dtype=bool)
    owners[cpair, x_owner] = True
    owners[cpair, len(xs) + y_owner] = True

    # Counterbalance each pair with its non-owner new vertices: ranked
    # by id, the first (m-1)/2 and the last push one way, the middle
    # (m-1)/2 the other, which exactly cancels the pair arc's +1/-1.
    rank = np.cumsum(~owners, axis=1, dtype=np.int64) - 1
    m_per_pair = k - 2 * np.bincount(cpair, minlength=n_pairs)
    half = (m_per_pair - 1) // 2
    role_a = ~owners & ((rank < half[:, None]) | (rank == (m_per_pair - 1)[:, None]))
    role_b = ~owners & ~role_a & (rank < (m_per_pair - 1)[:, None])
    adj[np.ix_(new_ids, lo)] |= role_a.T
    adj[np.ix_(hi, new_ids)] |= role_a
    adj[np.ix_(lo, new_ids)] |= role_b
    adj[np.ix_(new_ids, hi)] |= role_b.T

    return Digraph.from_matrix(adj)
