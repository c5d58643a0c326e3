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
``_FLUSH`` stretches or so at a time.  A plain step appends its own;
a stretch (below) appends those of its periods 2 .. K - 1 at once, as
arrays affine in the period.  Then one
:func:`~imbalanceset.digraph._mirror` pass sets every lower cell
(c, i) to 1 - (i, c): 1 for each sender c, 0 for each receiver, and 1
for the partner, whose pair is then cleared.

The stretch lemma.  Before step i, let c = i + 1 + f(i) be the first
candidate after i and, if i is free, after i + 1, and cut each run
(s, e) at c to [max(s, c), e).  The state is a stretch state when
(a) i + 1 is free if i is, so that i + 1 is i's partner;
(b) the cut runs start with a block [c, h) of one run, or of two runs
    of in-demands lam and lam + 1 in that order, the upper one [p, h)
    of q vertices (q = 0 for one run), all free if i is;
(c) each later run, of the tail [h, n) of t vertices, has in-demand at
    least lam + 2, and at least lam + 3 if x < q;
(d) lam >= 1 and each block run has out-quota o >= 1; and
(e) 0 <= x <= h - c, where x = o(i) - t.
Its margins, computed by :func:`_margins`, are lam, each block run's o,
each tail run's in-demand less lam + 1 + [x < q] (all positive by (c)
and (d)), x, h - c - x, x - q and each run's length past c.

Lemma 1 (a step).  From a stretch state, step i pairs i with i + 1 if i
is free, sends to the whole tail and to the x block vertices that follow
p in the cyclic order [p, h), [c, p), and leaves the tail's runs as they
were.  On the stretch states of given free flags, block run count and
margin signs, its runs after it, stretches and partner are affine in
the state vector (i, then start, stop and out-quota of each run).
Proof.  i + 1 is the lowest free vertex after i.  By (d) no block
vertex is forced; a tail vertex is a forced receiver (no out-quota
left) or ranks above the whole block, by (c).  So the tail receives
whole, x = o(i) - t receivers are left for the block, and (e) is the
balance guard.  By in-demand, then id, the block ranks [p, h) before
[c, p), and :func:`_step` takes the lowest ids of the run it cuts, so
the receivers are the first x in the cyclic order.  Receivers keep
their out-quota, so the tail's runs stay.  The block's pieces
(receivers keep o, senders lose 1) are of in-demand lam - 1, lam or
lam + 1, and two neighbours of one flag merge exactly when their
in-demands agree.  Which pieces are empty, and so which are neighbours,
is read off the signs of x, h - c - x and x - q.  No piece merges with
the partner (not free, the block being free) or with the tail, whose
in-demand, one less now, still exceeds theirs by (c).  Which receiver
stretches touch (the upper run's with the tail when x = q, the lower
run's with the upper's when x = h - c) is read off the same signs.  So
on those states the step is one formula in which every end and quota
is a sum of state entries and constants.  Each margin is affine there
as well: which runs reach past c is fixed by the signs of the lengths
past c.

Lemma 2 (a stretch).  Let periods 0 and 1, of ``_PERIOD`` = 2 steps
each, run from v0 to v1 = v0 + delta to v2 = v1 + delta, with one run
count and the same free flags, and let the states before their steps be
stretch states, the first steps' two of one flags, block run count and
margin signs, and the second steps' two likewise.  For a margin of value
a in period 0 and b in period 1 let K_a = (|a| - 1) // (|a| - |b|) + 1
when |b| < |a|, with no bound otherwise, and K the least K_a
(:func:`_periods`).  Then every period k < K runs from v0 + k * delta to
v0 + (k + 1) * delta, and each of its steps has the partner and
stretches of period 0 plus k times their change.
Proof.  By induction on k; periods 0 and 1 are given.  Let period k
start at v0 + k * delta.  A margin is affine in the state, so there it
is a + k * (b - a), of the sign of a as k < K_a.  The rest of the shape
holds too: (a) and the flags in (b) are fixed by the flags and the
signs of the lengths past c, and the in-demand gap of the block's runs
is affine and 1 at k = 0 and k = 1, so 1 throughout.  So the first step
starts in the set of Lemma 1 that holds the first steps of periods 0
and 1, where it is an affine map A with A(v0) = m0 and A(v1) = m1 (the
states after those steps); so it ends at m0 + k * (m1 - m0), with a
partner and stretches affine in k the same way.  The second step, from
there, likewise ends at v1 + k * (v2 - v1) = v0 + (k + 1) * delta.  K
is finite: the block loses 2 vertices a period, while each of its runs
keeps a length of at least 1 past c.

So every decision is :func:`_step`'s.  :func:`_upper_rows` steps every
vertex but those of the periods 2 .. K - 1 of a trial.  A trial starts
at a stretch state with at least 3 periods left and with the run count
of two steps back (a stretch repeats its run count every period, so
this test is O(1) where none can start): its periods 0 and 1 are
stepped and written as usual, and when K >= 3 periods 2 .. K - 1 are
written as arrays affine in k and the state jumps to v0 + K * delta.  A
trial that fails costs only its margins.  On the canonical expansions
of the 11,850 one-parity two-signed 2- to 4-member sets from {-20..20}
of order at most 3,000, each of the 12,057 stretches moves i by 2 and
each block run's out-quota by -1 a period, and the tail not at all; it
ends when its block runs out, when the tail's in-demand comes down to
the block's, or when x - q changes sign.

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
  2- to 4-member sets from {-14..14} with n <= 300.  The stretch lemma
  does not settle it: it says which pairs the greedy makes along a
  stretch (i with i + 1), not that they keep the state completable; it
  does show that no step of a stretch fails, by (a) and (e).
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
from itertools import groupby
from typing import Callable, NamedTuple, Sequence

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
# Steps in a period of the stretch lemma (module docstring).
_PERIOD = 2

# A run (start, stop, rem_out, free) of unprocessed vertices.  Before
# step i, its residual in-quota is n - 1 - i - rem_out - free (module
# docstring).
_Run = tuple[int, int, int, bool]


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
        than ``hold`` stretches or none (a stretch's period may have
        none), so that no call of :func:`_fill` is given empty rows."""
        if paired_now:
            pairs.append((np.array(paired_now[0::2]), np.array(paired_now[1::2])))
            paired_now.clear()
        if rows:
            chunks.append((np.array(rows), np.array(ends[0::2]), np.array(ends[1::2])))
            del rows[:], ends[:]
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
    # Every step is a plain _step call.  A state of the stretch lemma's
    # shape starts a trial, in which the states and the partners and
    # stretches of periods 0 and 1 are kept; only a state with the run
    # count of two steps back is tested (a stretch keeps its run count
    # from period to period), so the test costs O(1) where none starts.
    i, back, last, trial = 0, -1, -1, []
    while i < n:
        if back == len(runs) and not trial and n - i >= 3 * _PERIOD and _margins(i, runs, n):
            trial = [(i, runs, -1, [])]
        back, last = last, len(runs)
        runs, recv, partner = _step(i, runs, n)
        rows += [i] * (len(recv) // 2)
        ends += recv
        if partner >= 0:
            paired_now += i, partner
        if len(rows) >= _FLUSH:
            write(0)
        i += 1
        if not trial:
            continue
        trial.append((i, runs, partner, recv))
        if len(trial) <= 2 * _PERIOD:
            continue
        periods, done, trial = _periods(trial, n), trial, []
        if periods <= 2:
            continue
        (i0, runs0, *_), (_, runs1, *_) = done[0], done[_PERIOD]
        # Periods 2 .. K - 1 by formula: period k's stretches (row, lo, hi)
        # and pairs (row, partner) are period 0's plus k times their change.
        (recv0, pair0), (recv1, pair1) = (
            (np.array([(j - 1, *r[m : m + 2]) for j, _, _, r in h for m in range(0, len(r), 2)], dtype=np.int64),
             np.array([(j - 1, p) for j, _, p, _ in h if p >= 0], dtype=np.int64)) for h in (done[1:3], done[3:])
        )
        per = max(1, _FLUSH // max(1, len(recv0)))
        write(_FLUSH)
        for k0 in range(2, periods, per):
            k = np.arange(k0, min(k0 + per, periods))[:, None, None]
            chunks.append(tuple((recv0 + k * (recv1 - recv0)).reshape(-1, 3).T))
            pairs.append(tuple((pair0 + k * (pair1 - pair0)).reshape(-1, 2).T))
            write(_FLUSH)
        i = i0 + _PERIOD * periods
        runs = [(*(x + periods * (y - x) for x, y in zip(r[:3], q)), r[3]) for r, q in zip(runs0, runs1)]

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


def _margins(i: int, runs: list[_Run], n: int) -> tuple[list, list[int]] | None:
    """The stretch lemma's view of the state before step i (module
    docstring): its structure (the runs' free flags and the block's run
    count) and its margins, or None if it is not a stretch state."""
    _, stop, out, free = runs[0]
    c = i + 1 + free  # the first candidate after i and its partner
    # The runs cut at c, as (start, stop, out-quota, free, in-demand).
    pieces = [(max(s, c), e, o, f, n - 1 - i - o - f) for s, e, o, f in runs if e > c]
    if not pieces or free and not runs[stop == i + 1][3]:  # (a)
        return None
    low = pieces[0][4]
    k = 1 + (len(pieces) > 1 and pieces[1][4] == low + 1)  # (b)
    block, tail, h = pieces[:k], pieces[k:], pieces[k - 1][1]
    x, size = out - (n - h), h - c
    upper = h - block[1][0] if k == 2 else 0
    # (c) and (d) as positive margins, then (e) and (b)'s flags.
    margins = [low, *(p[2] for p in block), *(p[4] - low - 1 - (x < upper) for p in tail)]
    if min(margins) <= 0 or not 0 <= x <= size or free and not all(p[3] for p in block):
        return None
    return [*(f for *_, f in runs), k], [*margins, x, size - x, x - upper, *(e - max(s, c) for s, e, *_ in runs)]


def _periods(states: list[tuple], n: int) -> int:
    """The number K of periods from ``states[0]`` over which the stretch
    lemma proves the greedy affine, given a trial's five states (i, runs,
    ...): before the steps of periods 0 and 1, and after them.  It is at
    most 2 when the lemma does not apply."""
    views = [_margins(i, runs, n) for i, runs, *_ in states[: 2 * _PERIOD]]
    a, b, c = ([x for run in runs for x in run] for _, runs, *_ in states[::_PERIOD])
    moved = len(b) == len(c) and [y - x for x, y in zip(a, b)] == [y - x for x, y in zip(b, c)]
    if not moved or None in views or [v[0] for v in views[:2]] != [v[0] for v in views[2:]]:
        return 0
    # A margin x at period 0 and y at period 1 is x + k * (y - x) at
    # period k, of the sign of x for k < (|x| - 1) // (|x| - |y|) + 1.
    margins = list(zip(views[0][1] + views[1][1], views[2][1] + views[3][1]))
    if any(x * y <= 0 and (x or y) for x, y in margins):
        return 0
    return min(((abs(x) - 1) // (abs(x) - abs(y)) + 1 for x, y in margins if abs(y) < abs(x)), default=0)


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
