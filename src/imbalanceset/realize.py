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

The quota identity.  Vertex v starts with out-quota
floor((n - 1 + t_v) / 2), free slot (n - 1 + t_v) mod 2 and in-quota
n - 1 less both (the out-quota less t_v); o(v), r(v) and f(v) are what
is left of them.  Step i takes exactly one unit from each v > i: r(v)
if v receives from i, o(v) if v sends to i, f(v) if v is i's partner.
So before step i every unprocessed v has

    o(v) + r(v) + f(v) = n - 1 - i,

and the greedy keeps only o and f, reading r(v) as n - 1 - i - o(v) -
f(v).  At its own step i has n - 1 - i - f(i) candidates, of which the
balance guard lets exactly o(i) receive (the forced ones and ``extra``
flexible ones, 0 <= extra <= the flexible count), so the other r(i)
send: i spends both quotas and its imbalance is t_i, with nothing left
to check at the end.  No residual goes below zero: a candidate with
o = 0 receives, one with r = 0 sends, and none has both, as o + r =
n - 1 - i - f >= 1 unless v = n - 1 is free and i's only candidate.
It is not: the free vertices are even in number (their count has the
parity of the sum of all n - 1 + t_v, n(n - 1)), and each step takes
zero or two of them off the unprocessed ones, so then i is free and v
its partner.

The steps run over runs, not vertices.  Equal entries get equal
quotas, and a step treats the vertices of one state alike except at a
cut, so the unprocessed vertices form runs of consecutive ids with
equal state (residual out-quota, free slot), kept in plain lists.  A
step takes its vertex off the head run, splits off the partner, takes
flexible runs whole in (in-demand descending, start ascending) order
and splits at most the run where its out-quota ends, which picks the
same receivers as ranking single vertices, and merges neighbouring runs
of equal state.  :func:`_step` is that step, and the only code that
makes a greedy decision.

Rows are written once, then mirrored, as :mod:`imbalanceset.digraph`
lays down.  In :func:`_upper_rows`, row i gets only its upper cells:
its stretches of receivers [lo, hi), which
:func:`~imbalanceset.digraph._fill` sets in the packed rows
``_FLUSH`` stretches or so at a time.  A plain step appends its own; a
fast-forward appends the stretches of all its periods at once, as
arrays affine in the period (below).  Then one
:func:`~imbalanceset.digraph._mirror` pass sets every lower cell
(c, i) to 1 - (i, c): 1 for each sender c, 0 for each receiver, and 1
for the partner, whose pair is then cleared.

The greedy fast-forwards over affine stretches.  Write the state
before step i as the integer vector v = (i, then start, stop, rem_out
of each run), with the runs' free flags beside it; a run's in-demand,
n - 1 - i - rem_out - free, is affine in v too.  On a canonical
expansion v moves by one delta every ``_PERIOD`` = 2 steps over long
stretches.  When the last two periods kept the run count and free
flags and moved v by the same delta, :func:`_fast_forward` runs the
greedy's next two periods traced, on ints that log every difference
they compare (sorting and run positions included): period 0 from v0
and, once it has ended at v0 + delta, period 1 from there.  If both
compare with the same signs and period 1 ends at v0 + 2 * delta, it
skips periods 0..K for the K below, writing their rows by formula.
Detection compares run counts first, so a step with no candidate costs
O(1) more; the all-distinct transitive sequence never repeats its run
count and runs every step.

Why the skip is exact.  Fix the comparison path of periods 0 and 1.
Along it, a step only adds and subtracts state entries and constants,
so with period k started at v0 + k * delta, each compared difference,
the end state and the rows (stretch ends and partners) are affine in
k: the j-th difference is a_j + k * b_j, where a_j and a_j + b_j are
the ones periods 0 and 1 logged with one sign.  It keeps that sign for
every k >= 0 when a_j * b_j >= 0 (a_j = 0 forces b_j = 0), and up to
k = (|a_j| - 1) // |b_j|.  K is the least of these bounds, and at most
(n - i) // 2 - 1, so that the periods end by vertex n.  By induction
over the comparisons in order, each one is that affine function on
[0, K], since the path before it is fixed, and keeps its sign there; so
every k in [0, K] takes the path, and period K + 1 leaves it unless
the cap stopped K.  The end state minus v0 + (k + 1) * delta is affine
and zero at k = 0 and k = 1, so it is zero throughout: period k starts
where period k - 1 ends, and the greedy itself runs through every
skipped period, whose rows are rows(0) + k * (rows(1) - rows(0)).
Every traced step is one the greedy takes, and how far a skip reaches
does not change the rows, which are the greedy's own; so under
``python -O``, where the asserts and their comparisons vanish, the
certificates are the same.

Why the greedy finishes.  Call a state completable when some maximum
realization extends every arc and pairing fixed so far.  The start is
completable: the theorem above gives a realization with these quotas.
* Orientation step, proved.  Let D complete the state after v is
  paired, and b(c) be candidate c's residual in-demand.  In D a
  candidate with no out-demand left receives from v and one with no
  in-demand left sends to v, so the balance guard cannot fire.
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
A failed step, with no free partner or failing the balance guard,
raises :class:`RealizationError`; a finished greedy has built the
imbalances t, by the quota identity.

Completion mechanics (:func:`add_arcs`): the k = a + b new vertices,
the members of an equal-sum pair with odd total length k, first form a
rotational regular tournament among themselves (k is odd): new vertex
i beats the next (k - 1)/2 of them cyclically.  All unjoined pairs
(v, v') of the base get their arc v -> v'.  Each new vertex with
positive target x must beat both endpoints of x/2 pairs, and each with
negative target -y must lose to both endpoints of y/2 pairs; these unit
claims are coupled (one x-unit with one y-unit) and dealt round-robin
over the pairs, so a pair may host several couples when the common sum
exceeds the number of pairs.  A pair hosting c couples is touched by 2c
new vertices whose effects cancel pairwise; the remaining m = k - 2c
new vertices (an odd count, the free ones) join it in the half-and-half
counterbalancing pattern that exactly cancels the pair arc's +1/-1:
ranked by id, the first (m-1)/2 and the last beat v and lose to v'
(role a), the middle (m-1)/2 do the reverse (role b).  Feasibility is
guaranteed: the couple load per pair is at most ceil(S/n) <= min(a, b)
<= (k-1)/2, and each new vertex's pair demand x/2 (or y/2) is under n/2
because every member's magnitude is below n.  For ([0], []) there are
no couples, and the one new vertex beats v and loses to v' in every
pair: the apex of :func:`add_apex_zero`.

:func:`_complete` sets the pair arcs v -> v', by one scattered flip of
their cells (unset, as each pair is unjoined), then the upper cells
of the new columns as O(n + S) intervals, a span of free ranks in
closed form and a cell per couple owner for each pair row.  The lower
cells of the new rows, new -> base, need no roles of their own.  Every
(base, new) pair is joined exactly once by then, since an x-owner beats
both ends of its pair, a y-owner loses to both, and each free new
vertex takes role a or role b; the new clique is a tournament, and so
is the base with its pair arcs.  So every lower cell is 1 minus its
mirror cell, which the mirror writes.

Every certificate takes one matrix: :func:`_certificate`, which
:func:`~imbalanceset.tis.decide_tis` calls, allocates the packed
(n + k)-order matrix, the greedy writes the base's upper cells into its
top-left block, :func:`_complete` the rest when k > 0, and one mirror
pass ends the build and checks it.  The greedy takes the canonical
expansion as the runs (value, count) of
:meth:`~imbalanceset.sequences.ImbalanceSet.canonical_runs`, unchecked
and never written out as an n-tuple: the
:mod:`imbalanceset.sequences` docstring proves that every canonical
expansion is a digraph imbalance sequence, so no O(n) pass runs before
the greedy.  :func:`max_realization`, whose sequence is the caller's,
checks it and groups it into runs itself.  The mirror pass writes
the lower cells, reads them back for doubled pairs and counts the
out-degrees, from which :func:`_certified` finishes the check (odd sets
and ``{0}``, whose sequence is (0,), have k = 0 and no unjoined pairs,
so the base is the tournament).  So the peak of a build is that matrix
((n + k) * ceil((n + k) / 8) bytes, every page of it written once at
allocation, see :func:`~imbalanceset.digraph._zeros`), the intervals
held at once (fewer than ``2 * _FLUSH`` receiver stretches in the
greedy, O(n + S) in the completion), the pairing as two arrays and the
band buffer of ``digraph._FILL`` bytes; the mirror pass adds
band-sized temporaries only.  Public :func:`add_arcs` takes a
finished base report, so it holds the base and a grown copy of it.

Outputs are deterministic, which the golden-file tests rely on.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import groupby
from operator import add, sub
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .digraph import (
    Digraph, _check_loops, _fill, _mirror, _NotOriented, _resized, _toggle,
    _tournament_imbalances, _unjoined, _zeros,
)
from .equalsum import EqualSumWitness
from .sequences import digraph_imbalance_failure

# Receiver stretches that _upper_rows gathers before it writes them: it
# holds fewer than twice as many at once, unless one period has more.
_FLUSH = 1 << 13
# Period, in steps, of the repeating moves of the greedy's state that
# _upper_rows fast-forwards over (every one found on canonical expansions
# has period 2; a stretch of another period runs step by step).
_PERIOD = 2

# A run (start, stop, rem_out, free) of unprocessed vertices, and the
# greedy's state before a step: (vertex, runs).  Before step i, a run's
# residual in-quota is n - 1 - i - rem_out - free (module docstring).
_Run = tuple[int, int, int, bool]
_State = tuple[int, list[_Run]]


class RealizationError(RuntimeError):
    """The greedy builder could not complete a feasible sequence."""


class RealizationReport(NamedTuple):
    """A built graph plus the structural facts tests and callers rely
    on, as a named tuple.

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
    _check_sequence(seq)
    n = len(seq)
    bits = _zeros(n)
    lo, hi = _upper_rows([(operator.index(t), len(list(g))) for t, g in groupby(seq)], bits)
    _mirror(bits)
    _toggle(bits, hi, lo)
    pairing = tuple(zip(lo.tolist(), hi.tolist()))
    # Every entry that misses the parity of n - 1 is paired once and the
    # rest are joined to all, so the pairing settles the arcs and flags.
    return RealizationReport(
        graph=Digraph._from_bits(bits),
        arc_count=n * (n - 1) // 2 - len(pairing),
        is_tournament=not pairing,
        is_near_tournament=n >= 2 and 2 * len(pairing) == n,
        non_neighbour_pairing=pairing,
    )


def _upper_rows(seq_runs: Sequence[tuple[int, int]], bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the greedy on a digraph imbalance sequence of length n, given
    as its runs (value, count) of distinct values, and write the upper
    cells of its rows into the top-left n x n block of the zeroed packed
    rows ``bits``.  Returns the non-neighbour pairing as int64 arrays
    (lo, hi), lo < hi, in order of lo.
    """
    n = sum(count for _, count in seq_runs)
    # The pairing's (lo, hi) arrays, and the plain steps' pairs not yet
    # moved to them, flattened as [lo, hi, lo, hi, ...].
    pairs: list[tuple[np.ndarray, np.ndarray]] = [(np.empty(0, dtype=np.int64),) * 2]
    paired_now: list[int] = []
    # Receiver stretches not yet written, in row order: (rows, lo, hi)
    # arrays, then the plain steps' as a row per stretch and the
    # stretches flattened as [lo, hi, lo, hi, ...].
    chunks: list[tuple[np.ndarray, ...]] = []
    rows: list[int] = []
    ends: list[int] = []

    def write(hold: int) -> None:
        """Move the plain steps' pairs to ``pairs`` and their stretches
        to ``chunks``, then write every chunk unless they hold fewer
        than ``hold`` stretches or none (a fast-forward period may have
        none), so that no call of :func:`_fill` is given empty rows."""
        if paired_now:
            pairs.append((np.array(paired_now[0::2]), np.array(paired_now[1::2])))
            paired_now.clear()
        if rows:
            chunks.append((np.array(rows), np.array(ends[0::2]), np.array(ends[1::2])))
            rows.clear()
            ends.clear()
        if sum(len(chunk[0]) for chunk in chunks) >= max(hold, 1):
            _fill(bits, *map(np.concatenate, zip(*chunks)))
            chunks.clear()

    # The unprocessed vertices as maximal runs (start, stop, rem_out, free)
    # of equal state, in id order; vertex i heads runs[0].
    # Vertex i has out-quota (n - 1 + t_i) // 2 and is free (misses the
    # parity of n - 1) when n - 1 + t_i is odd, so equal entries have
    # equal states and the runs are those of seq_runs.
    runs: list[_Run] = []
    start = 0
    for t, count in seq_runs:
        out, free = divmod(n - 1 + t, 2)
        runs.append((start, start + count, out, bool(free)))
        start += count
    # The state, and the states the last plain steps reached.
    now: _State = (0, runs)
    seen: deque[_State] = deque([now], maxlen=2 * _PERIOD + 1)
    while now[0] < n:
        delta = _repeating(seen, n)
        if delta is not None:
            i = now[0]
            now, steps, out, slope, periods = _fast_forward(now, delta, n)
            write(_FLUSH)
            # Period k's rows are i + s + k * _PERIOD for step s, and its
            # partners and stretch ends are those of period 0 plus k times
            # their change: a chunk of periods at a time, in row order.
            first, change, steps = np.array(out), np.array(slope), np.array(steps, dtype=np.int64)
            p = len(out) - 2 * len(steps)  # the partners come first
            paired = np.flatnonzero(first[:p] >= 0)
            per = max(1, _FLUSH // max(1, len(steps)))
            for k0 in range(0, periods, per):
                k = np.arange(k0, min(k0 + per, periods))[:, None]
                values = first + k * change
                rows_k = i + _PERIOD * k
                ends_k = values[:, p:]
                chunks.append(((rows_k + steps).ravel(), ends_k[:, 0::2].ravel(), ends_k[:, 1::2].ravel()))
                pairs.append(((rows_k + paired).ravel(), values[:, paired].ravel()))
                write(_FLUSH)
            seen.clear()
        else:
            i, runs = now
            runs, recv, partner = _step(i, runs, n)
            rows += [i] * (len(recv) // 2)
            ends += recv
            if partner >= 0:
                paired_now += i, partner
            if len(rows) >= _FLUSH:
                write(0)
            now = (i + 1, runs)
        seen.append(now)

    write(0)
    lo, hi = map(np.concatenate, zip(*pairs))
    return lo, hi


def _step(i: int, runs: list[_Run], n: int) -> tuple[list[_Run], list[int], int]:
    """One greedy step, the only code that makes a greedy decision:
    vertex i, the head of ``runs``, is joined to every later vertex.
    Returns the runs after the step (``runs`` itself is not changed),
    row i's receiver stretches [lo, hi) in id order, flattened as
    [lo, hi, lo, hi, ...], and i's non-neighbour partner (-1 for none).
    A candidate's residual in-demand is unproc - rem_out - free, by the
    quota identity of the module docstring.
    """
    _, stop, need_recv, free = runs[0]
    unproc = n - 1 - i
    runs = runs[1:] if stop == i + 1 else [(i + 1, *runs[0][1:]), *runs[1:]]

    partner = -1
    if free:
        at = next((k for k, run in enumerate(runs) if run[3]), None)
        if at is None:
            raise RealizationError(f"no free non-neighbour slot for vertex {i}")
        partner, p_stop, p_out, _ = runs[at]
        tail = [(partner + 1, p_stop, p_out, True)] if p_stop > partner + 1 else []
        runs[at : at + 1] = [(partner, partner + 1, p_out, False), *tail]

    forced = flex_size = 0
    flex = []
    for s, e, o, f in runs:
        if s == partner:
            continue
        r = unproc - o - f
        # Neither residual left would let the run take no arc at all; the
        # identity and the even count of free vertices rule that out.
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
    new: list[_Run] = []
    recv: list[int] = []
    for s, e, o, f in runs:
        if s == partner:
            pieces = ((s, e, o, False),)
        else:
            r = unproc - o - f
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
            pieces = ((s, t, o, True), (t, e, o - 1, False))
        for lo, hi, po, receives in pieces:
            if lo == hi:
                continue
            if receives and recv and recv[-1] == lo:
                recv[-1] = hi
            elif receives:
                recv += lo, hi
            last = new[-1] if new else None
            if last and last[2] == po and last[3] == f:
                new[-1] = (last[0], hi, po, f)
            else:
                new.append((lo, hi, po, f))
    return new, recv, partner


def _vector(state: _State) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """A state as plain ints (i, then s, e, o of each run) and the runs'
    free flags."""
    i, runs = state
    vec = (int(i), *(int(x) for run in runs for x in run[:3]))
    return vec, tuple(run[3] for run in runs)


def _state(vec: Iterable[int], flags: tuple[bool, ...]) -> _State:
    """The inverse of :func:`_vector`."""
    i, *cells = vec
    return i, [(*cells[3 * j : 3 * j + 3], f) for j, f in enumerate(flags)]


def _repeating(seen: deque[_State], n: int) -> tuple[int, ...] | None:
    """The delta by which each of the last two periods of ``_PERIOD``
    steps moved the state, with the same run count and free flags; None
    if there is none or fewer than two periods are left.  Run counts are
    compared first, so a step without a candidate costs O(1)."""
    if len(seen) < 2 * _PERIOD + 1 or n - seen[-1][0] < 2 * _PERIOD:
        return None
    first, mid, last = seen[-1 - 2 * _PERIOD], seen[-1 - _PERIOD], seen[-1]
    if not len(first[1]) == len(mid[1]) == len(last[1]):
        return None
    (a, fa), (b, fb), (c, fc) = map(_vector, (first, mid, last))
    delta = tuple(map(sub, c, b))
    return delta if fa == fb == fc and delta == tuple(map(sub, b, a)) else None


def _fast_forward(
    now: _State, delta: tuple[int, ...], n: int
) -> tuple[_State, list[int], list[int], list[int], int]:
    """Run the greedy from ``now`` over as many whole periods as move
    its state by ``delta`` along one comparison path.  Returns the state
    after them, the step of each stretch in a period, the first period's
    partners and stretch ends and their change per period, laid out as
    :func:`_trace` lays them out, and the number of periods.  Periods 0
    and 1 are the greedy's own next steps, run traced; the last period
    on their path follows from their compared differences, as the
    module docstring proves.  When period 0 or 1 leaves the path, the
    steps traced so far are handed back as one period, with no change.
    """
    v0, flags = _vector(now)
    v1 = tuple(map(add, v0, delta))
    traced = _tracer()
    end, out0, steps, diffs0 = _trace(traced, v0, flags, n)
    if end != (v1, flags):
        return _state(*end), steps, out0, [0] * len(out0), 1
    end, out1, steps1, diffs1 = _trace(traced, v1, flags, n)
    if (
        end != (tuple(map(add, v1, delta)), flags)
        or len(diffs0) != len(diffs1)
        or not all(a * b > 0 or a == b for a, b in zip(diffs0, diffs1))
    ):
        out = out0[:_PERIOD] + out1[:_PERIOD] + out0[_PERIOD:] + out1[_PERIOD:]
        return _state(*end), steps + [s + _PERIOD for s in steps1], out, [0] * len(out), 1
    # Comparison j of period k compares a + k * b, of one sign up to k =
    # (|a| - 1) // |b| when a and b have opposite signs, for ever if not.
    last = (n - v0[0]) // _PERIOD - 1
    for a, b in zip(diffs0, map(sub, diffs1, diffs0)):
        if a * b < 0:
            last = min(last, (abs(a) - 1) // abs(b))
    end = _state((a + (last + 1) * d for a, d in zip(v0, delta)), flags)
    return end, steps, out0, list(map(sub, out1, out0)), last + 1


def _trace(
    traced: type, vec: tuple[int, ...], flags: tuple[bool, ...], n: int
) -> tuple[tuple[tuple[int, ...], tuple[bool, ...]], list[int], list[int], list[int]]:
    """Run ``_PERIOD`` greedy steps from the state (vec, flags) on fresh
    ``traced`` ints.  Returns the state after them as :func:`_vector`
    gives it; the steps' partners (-1 for none), then their receiver
    stretches (lo, hi, lo, hi, ...), as plain ints; the step of each
    stretch; and every difference compared, in order.
    """
    diffs: list[int] = []
    traced.diffs = diffs
    now = _state(map(traced, vec), flags)
    partners, ends, steps = [], [], []
    for s in range(_PERIOD):
        i, runs = now
        runs, recv, partner = _step(i, runs, n)
        partners.append(int(partner))
        ends += map(int, recv)
        steps += [s] * (len(recv) // 2)
        now = (i + 1, runs)
    return _vector(now), partners + ends, steps, diffs


def _tracer() -> type:
    """A fresh int type for :func:`_trace`.  Sums, differences and
    negations of its values are traced values, and each comparison or
    truth test appends the difference it tests to the class's
    ``diffs``.  An equality that Python settles by identity (one
    object in both tuples) logs nothing, and holds along the whole path,
    which makes the same objects."""

    class Traced(int):
        diffs: list[int] = []

        def diff(self, other: int) -> int:
            d = int.__sub__(self, other)
            Traced.diffs.append(d)
            return d

        __lt__ = lambda a, b: a.diff(b) < 0
        __le__ = lambda a, b: a.diff(b) <= 0
        __eq__ = lambda a, b: a.diff(b) == 0
        __ne__ = lambda a, b: a.diff(b) != 0
        __gt__ = lambda a, b: a.diff(b) > 0
        __ge__ = lambda a, b: a.diff(b) >= 0
        __bool__ = lambda a: a.diff(0) != 0
        __neg__ = lambda a: Traced(-int(a))
        __add__ = __radd__ = lambda a, b: Traced(int.__add__(a, b))
        __sub__ = lambda a, b: Traced(int.__sub__(a, b))
        __rsub__ = lambda a, b: Traced(int.__rsub__(a, b))
        __hash__ = int.__hash__

    return Traced


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


def add_apex_zero(near: RealizationReport) -> Digraph:
    """Complete a near tournament by a single vertex of imbalance zero.

    Every unjoined pair (v, v') gains the arc v -> v', the apex beats
    v and loses to v', so all original imbalances survive and the apex
    nets zero: :func:`add_arcs` with the degenerate witness ([0], []).
    """
    return add_arcs(near, EqualSumWitness((0,), (), 0))


def add_arcs(near: RealizationReport, witness: EqualSumWitness) -> Digraph:
    """Complete a near tournament into a tournament via an equal-sum pair.

    Adds len(xs) + len(ys) vertices (the total must be odd) whose
    imbalances come out as the xs and the negated ys, while every
    original vertex keeps its imbalance.  See the module docstring for
    the construction; it degenerates to the single-apex picture when
    the witness is the trivial ([0], []).  The report's pairing must be
    its graph's unjoined pairs, which is checked in O(n).  The base's
    packed rows are copied into a grown matrix, which :func:`_complete`
    completes.
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
    couples = witness.common_sum // 2
    if any(x // 2 > n_pairs for x in xs) or any(y // 2 > n_pairs for y in ys):
        raise ValueError("a witness entry exceeds the base graph's pair capacity")
    if couples and -(-couples // n_pairs) > (k - 1) // 2:
        raise ValueError("witness couple load exceeds the new-clique capacity")

    lo, hi = np.array(near.non_neighbour_pairing, dtype=np.int64).reshape(-1, 2).T
    # A near tournament's unjoined pairs are a perfect matching, so a
    # perfect matching of unjoined pairs is all of them.
    matching = np.array_equal(np.sort(np.concatenate((lo, hi))), np.arange(n))
    if not (matching and _unjoined(near.graph._bits, lo, hi)):
        raise ValueError("the pairing is not the base graph's unjoined pairs")
    bits = _resized(near.graph._bits, n + k)
    _complete(bits, lo, hi, witness)
    _mirror(bits)
    return Digraph._from_bits(bits)


def _certificate(
    runs: Sequence[tuple[int, int]], witness: EqualSumWitness | None, members: frozenset[int]
) -> Digraph:
    """The checked tournament with imbalance set ``members``, built in
    one matrix: the maximum realization of the sequence with runs
    (value, count) ``runs``, completed by ``witness`` unless that is
    None (k = 0).  The sequence is not checked: it is a canonical
    expansion, which the :mod:`imbalanceset.sequences` docstring proves
    feasible, or (0,)."""
    n = sum(count for _, count in runs)
    k = 0 if witness is None else witness.total_length
    bits = _zeros(n + k)
    lo, hi = _upper_rows(runs, bits)
    if witness is not None:
        _complete(bits, lo, hi, witness)
    return _certified(bits, members, n + k, _mirror)


def _complete(bits: np.ndarray, lo: np.ndarray, hi: np.ndarray, witness: EqualSumWitness) -> None:
    """Write the completion's upper cells, as the module docstring says,
    into ``bits``: packed (n + k)-order rows whose top-left block holds
    at least the upper cells of the base, a near tournament whose
    unjoined pairs are (lo[j], hi[j]), lo ascending, and whose new rows
    and columns are zero, for a ``witness`` that :func:`add_arcs` accepts.

    Every row is a few intervals of new columns (vertex id v at column
    n + v), set by one :func:`~imbalanceset.digraph._fill`, which XORs
    the intervals of a row: k + 3n/2 + S of them in all.

    * New row i beats i + 1 .. i + (k - 1)/2 cyclically: its upper cells
      are [i + 1, min(i + (k + 1)/2, k)), and the mirror writes the rest.
    * Free ranks in closed form.  List the 2c owners of a pair hosting c
      couples as o_0 < o_1 < ...; o_j - j counts the free vertices below
      o_j, so the f-th free vertex (from 0) is col(f) = f + #{j : o_j - j
      <= f}, f plus the owners below it.  Couple j goes to pair j mod
      (n/2) as its t-th couple, t = j div (n/2), and each owner's couples
      are consecutive, so the x-owner of a pair's t-th couple is o_t and
      its y-owner o_{c + t} (x-owners precede y-owners).
    * Role b is free ranks (m - 1)/2 .. m - 2 of the m = k - 2c, so its
      free vertices are those in the span [col((m - 1)/2), col(m - 1)),
      col(m - 1) being the last free vertex, of role a.  Row lo beats
      role b and the y-owners: the span, XOR the x-owners inside it, XOR
      the y-owners outside it.  Row hi beats role a and the y-owners:
      [0, k) less the span, XOR the x-owners outside it, XOR the
      y-owners inside it.  So each owner is one cell of row lo or hi.
    """
    xs, ys = witness.xs, witness.ys
    k = len(xs) + len(ys)
    n = bits.shape[0] - k
    n_pairs = n // 2
    couples = witness.common_sum // 2

    # Each pair is unjoined, so its cell (lo, hi) is unset until this flip.
    _toggle(bits, lo, hi)

    # Couple j pairs the j-th positive half-unit with the j-th negative
    # one and goes to pair j mod n/2 as its t-th couple, so one owner's
    # units land on distinct pairs (its demand is at most n/2 units).
    x_owner = np.repeat(np.arange(len(xs)), np.asarray(xs, dtype=np.int64) // 2)
    y_owner = np.repeat(np.arange(len(xs), k), np.asarray(ys, dtype=np.int64) // 2)
    assert x_owner.size == couples and y_owner.size == couples
    t, pair = np.divmod(np.arange(couples), max(n_pairs, 1))
    hosted = np.bincount(pair, minlength=n_pairs)
    m = k - 2 * hosted
    x_below, y_below = x_owner - t, y_owner - hosted[pair] - t  # o_j - j

    def col(f: np.ndarray) -> np.ndarray:
        below = np.bincount(pair[x_below <= f[pair]], minlength=n_pairs)
        return f + below + np.bincount(pair[y_below <= f[pair]], minlength=n_pairs)

    start, stop = col((m - 1) // 2), col(m - 1)
    x_in = (start[pair] <= x_owner) & (x_owner < stop[pair])
    y_in = (start[pair] <= y_owner) & (y_owner < stop[pair])
    new = np.arange(k)
    owners = np.concatenate((x_owner, y_owner))
    owner_rows = np.concatenate((np.where(x_in, lo[pair], hi[pair]), np.where(y_in, hi[pair], lo[pair])))
    rows = (n + new, lo, hi, hi, owner_rows)
    firsts = (new + 1, start, np.zeros_like(start), stop, owners)
    lasts = (np.minimum(new + (k + 1) // 2, k), stop, start, np.full_like(stop, k), owners + 1)
    _fill(bits, np.concatenate(rows), n + np.concatenate(firsts), n + np.concatenate(lasts))


def _certified(bits: np.ndarray, members: frozenset[int], order: int, finish: Callable) -> Digraph:
    """The one check of every certificate, on its packed rows: order,
    simple oriented graph, every pair joined, and the exact imbalance
    set.

    ``finish`` refuses a doubled pair and returns the out-degrees, from
    the stored cells: for a build it is
    :func:`~imbalanceset.digraph._mirror`, the pass that writes the
    lower cells and so finishes the rows.  Its docstring proves that the
    cells it tests and counts are final; then the diagonal, one gather
    of n bytes, must be zero, and the arc count n(n - 1)/2 makes the
    graph a tournament, whose imbalances the out-degrees give, by
    :func:`~imbalanceset.digraph._tournament_imbalances`.  Every fault
    raises, also under ``python -O``.
    """
    if len(bits) != order:
        raise AssertionError(f"certificate order {len(bits)}, expected {order}")
    try:
        out_deg = finish(bits)
        _check_loops(bits)
    except _NotOriented as exc:
        raise AssertionError(f"certificate is not a simple oriented graph: {exc}") from None
    imbalances = _tournament_imbalances(out_deg)
    if imbalances is None:
        raise AssertionError("certificate is not a tournament")
    if frozenset(imbalances.tolist()) != members:
        raise AssertionError("certificate imbalance set mismatch")
    return Digraph._from_bits(bits)
