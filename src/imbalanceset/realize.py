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

The steps run over runs, not vertices.  Equal entries get equal
quotas, and a step treats the vertices of one state alike except at a
cut, so the unprocessed vertices form runs of consecutive ids with
equal state (residual out-quota, residual in-quota, free slot), kept
in plain lists.  A step takes its vertex off the head run, splits off
the partner, takes flexible runs whole in (in-demand descending, start
ascending) order and splits at most the run where its out-quota ends,
which picks the same receivers as ranking single vertices, and merges
neighbouring runs of equal state.

Rows are written once, then mirrored, as :mod:`imbalanceset.digraph`
lays down.  In :func:`_upper_rows`, step i writes only row i's upper
cells: one slice of ones per stretch of receivers, in a strip of
``_STRIP`` unpacked rows that :func:`~imbalanceset.digraph._write_rows`
packs into the matrix each time it fills.  Then one
:func:`~imbalanceset.digraph._mirror` pass sets every lower cell
(c, i) to 1 - (i, c): 1 for each sender c, 0 for each receiver, and 1
for the partner, whose pair is then cleared.  With R runs the build
costs O(n * R) list work, about n^2 / 2 strip bytes and one pass over
the n^2 / 8 packed bytes.

A canonical expansion has at most |Z| distinct entries, and no step
saw more than 6 runs on the expansions of every realizable 2- or
3-member set from {-16..16} and of {4,-998}, {2,0,-1998},
{3,1,-2001}, {2,-3300}, {5652,-2}, {0,2,-3470} and {12,-8,-24}.  The
worst case has every entry distinct (R = n - i at step i), as in the
transitive sequence, so its build costs O(n^2) list work.

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
Only the functions that build a matrix import numpy and
:mod:`imbalanceset.digraph`; importing this module loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, Sequence

from .sequences import digraph_imbalance_failure

if TYPE_CHECKING:
    import numpy as np

    from .digraph import Digraph

# Rows of the unpacked strip that _upper_rows writes before packing them.
_STRIP = 64


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
    _check_sequence(seq)
    n = len(seq)
    return sum((n - 1 + t) // 2 for t in seq)


def _check_sequence(seq: Sequence[int]) -> None:
    """Raise ValueError unless ``seq`` is a digraph imbalance sequence."""
    failure = digraph_imbalance_failure(seq)
    if failure is not None:
        raise ValueError(f"not a digraph imbalance sequence ({failure.kind})")


def max_realization(seq: Sequence[int]) -> RealizationReport:
    """Build a maximum-arc simple digraph realizing the sequence.

    The result is a tournament when every entry matches the parity of
    n - 1, and a near tournament when every entry misses it (so n is
    even); mixed parities leave both flags false.
    """
    from .digraph import Digraph, _clear_pairs, _mirror, _zeros

    _check_sequence(seq)
    n = len(seq)
    bits = _zeros(n)
    pairing, out_quota, parity_match = _upper_rows(seq, bits)
    _mirror(bits)
    _clear_pairs(bits, pairing)
    return RealizationReport(
        graph=Digraph._from_bits(bits),
        arc_count=int(out_quota.sum()),
        is_tournament=bool(parity_match.all()),
        is_near_tournament=bool(n >= 2 and n % 2 == 0 and not parity_match.any()),
        non_neighbour_pairing=pairing,
    )


def _upper_rows(
    seq: Sequence[int], bits: np.ndarray
) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """Run the greedy on ``seq``, a checked sequence of length n, and
    write the upper cells of its rows into the top-left n x n block of
    the zeroed packed rows ``bits``.  Returns the non-neighbour pairing,
    the out-quotas and where the entries match the parity of n - 1.
    """
    import numpy as np

    from .digraph import _write_rows

    n = len(seq)
    targets = np.asarray(seq, dtype=np.int64)
    out_quota = (n - 1 + targets) // 2
    parity_match = (targets % 2) == ((n - 1) % 2)
    joined_quota = np.where(parity_match, n - 1, n - 2)
    in_quota = joined_quota - out_quota

    strip = np.zeros((_STRIP, n), dtype=np.uint8)

    def pack(stop: int) -> None:
        """Pack the strip's rows up to ``stop`` and clear it; their
        cells left of the strip's first row are lower, so left zero."""
        start = (stop - 1) // _STRIP * _STRIP
        _write_rows(bits, slice(start, stop), start, strip[: stop - start, start:])
        strip[:, start:] = 0

    # The unprocessed vertices as maximal runs [start, stop) of equal
    # state (rem_out, rem_in, free), in id order; vertex i heads runs[0].
    runs: list[tuple[int, int, int, int, bool]] = []
    start = 0
    states = zip(out_quota.tolist(), in_quota.tolist(), (~parity_match).tolist())
    for state, group in groupby(states):
        stop = start + sum(1 for _ in group)
        runs.append((start, stop, *state))
        start = stop
    pairing: list[tuple[int, int]] = []
    residual = 0  # quotas the vertices keep after their own steps

    for i in range(n):
        if i and i % _STRIP == 0:
            pack(i)
        _, stop, need_recv, need_send, free = runs[0]
        unproc = n - 1 - i
        assert need_recv + need_send + free == unproc
        if stop == i + 1:
            del runs[0]
        else:
            runs[0] = (i + 1, *runs[0][1:])

        partner = -1
        if free:
            at = next((k for k, run in enumerate(runs) if run[4]), None)
            if at is None:
                raise RealizationError(f"no free non-neighbour slot for vertex {i}")
            partner, p_stop, p_out, p_in, _ = runs[at]
            tail = [(partner + 1, p_stop, p_out, p_in, True)] if p_stop > partner + 1 else []
            runs[at : at + 1] = [(partner, partner + 1, p_out, p_in, False), *tail]
            pairing.append((i, partner))

        cand_size = unproc - (partner >= 0)
        if cand_size == 0:
            residual += need_recv + need_send
            continue
        assert need_recv + need_send == cand_size

        forced = flex_size = 0
        flex = []
        for s, e, o, r, _ in runs:
            if s == partner:
                continue
            # Neither residual left would let the run take no arc at all;
            # the per-vertex bookkeeping identity rules that out here.
            assert o or r
            if o == 0:
                forced += e - s
            elif r:
                flex.append((-r, s, e))
                flex_size += e - s
        extra = need_recv - forced
        # extra > flex_size means the forced senders overfill the in-quota.
        if extra < 0 or extra > flex_size:
            raise RealizationError(f"vertex {i} could not be balanced")
        # Largest residual in-demand first, lowest id on ties: flexible
        # runs ranked above the cut run (in-demand cut_r, start cut_s)
        # receive whole, the cut run its lowest cut_take ids, the rest
        # send.  A cut of in-demand 0 takes every flexible run, one of n
        # none.
        cut_r, cut_s, cut_take = (0, 0, 0) if extra == flex_size else (n, 0, 0)
        if 0 < extra < flex_size:
            for neg_r, s, e in sorted(flex):
                if extra <= e - s:
                    cut_r, cut_s, cut_take = -neg_r, s, extra
                    break
                extra -= e - s

        # Split each run into its receivers [s, t) and senders [t, e),
        # merging neighbours of equal state; recv holds the stretches
        # [lo, hi) of receivers, row i's arcs out.
        new: list[tuple[int, int, int, int, bool]] = []
        recv: list[list[int]] = []
        for s, e, o, r, f in runs:
            if s == partner:
                pieces = ((s, e, o, r, False),)
            else:
                if o == 0:
                    t = e
                elif r == 0:
                    t = s
                elif r > cut_r or (r == cut_r and s < cut_s):
                    t = e
                elif r == cut_r and s == cut_s:
                    t = s + cut_take
                else:
                    t = s
                pieces = ((s, t, o, r - 1, True), (t, e, o - 1, r, False))
            for lo, hi, po, pr, receives in pieces:
                if lo == hi:
                    continue
                if receives and recv and recv[-1][1] == lo:
                    recv[-1][1] = hi
                elif receives:
                    recv.append([lo, hi])
                last = new[-1] if new else None
                if last and last[2] == po and last[3] == pr and last[4] == f:
                    new[-1] = (last[0], hi, po, pr, f)
                else:
                    new.append((lo, hi, po, pr, f))
        runs = new
        row = strip[i % _STRIP]
        for lo, hi in recv:
            row[lo:hi] = 1
        left = need_send - (cand_size - need_recv)
        assert left == 0
        residual += abs(left)

    if residual:
        raise RealizationError("residual quotas did not close")
    if n:
        pack(n)
    return tuple(pairing), out_quota, parity_match


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
