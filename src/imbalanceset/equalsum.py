"""Equal-sum sequence searches.

Two related searches live here.

:func:`solve_esseq` is the general bounded problem: given two sets of
non-negative integers and a repetition cap, find nonempty sequences
drawn from each side with equal sums.  It runs reachable-sum DP per
side (bitmask tables over achievable sums) and reconstructs a canonical
witness.

:func:`min_odd_equal_sum` and :func:`~imbalanceset.tis.decide_tis`
share the even case of the tournament decision, in two private steps:
``_shortest_odd_zero_sum`` finds (k, S) and ``_lex_min_witness`` the
witness.  Among pairs of sequences with equal sums drawn from the two
sides X and |Y| of an even imbalance set, they find one with the least
total number of terms k subject to k being odd; ties go to the smallest
common sum S, then the lexicographically smallest xs, then ys.  A side
holding 0 has the pair ([0], []), with k = 1 and S = 0.  Without 0,
such a pair is the same thing as an odd zero-sum multiset over
Z = X u -Y, with S the sum of its positive terms.  Three facts make
this cheap, a fourth bounds its cost, and a fifth answers pairs in
closed form.

1. *Verdict (2-adic rule).*  An odd zero-sum multiset over Z exists iff
   the members of Z do not all share one 2-adic valuation.  Only if:
   when every member is 2^v times an odd number, divide by 2^v; a zero
   sum of odd numbers has an even number of terms.  If: were every x in
   X of the valuation of every y in |Y|, all members would share one,
   as both sides are nonempty; so some x and y differ.  With
   g = gcd(x, y) the cofactors x/g and y/g are coprime and differ in
   valuation, so exactly one is even and (x + y)/g is odd; y/g copies
   of x against x/g copies of y is an odd witness.  This costs O(|Z|).

2. *Steinitz window.*  Any zero-sum sequence over Z can be reordered so
   that a positive term follows every partial sum <= 0 and a negative
   term every partial sum > 0: if the partial sum s is <= 0 the
   remaining terms sum to -s >= 0, so a positive term remains unless
   none remains at all, and if s > 0 they sum to -s < 0, so a negative
   term remains.  Each step then keeps the partial sum in
   (-max|Y|, max X]: from s <= 0 a step of at most max X, from s > 0 a
   step down of less than s + max|Y|.  So odd zero-sum multisets are
   exactly the odd closed walks from 0 in the graph on states
   (partial sum in the window, parity of the number of terms) whose
   steps obey that rule, and k is a breadth-first distance over at
   most 2 * (max X + max|Y|) states.

3. *Least common sum.*  Every prefix of a shortest closed walk is a
   shortest path to the state it reaches: the steps allowed from a
   state depend only on its partial sum, so a shorter way into that
   state followed by the rest of the walk would be a shorter odd
   closed walk.  Hence the least positive-part sum over shortest walks
   into a state is the minimum, over its predecessors in the previous
   breadth-first layer, of theirs plus the step's positive part, and
   keeping that value per state along the layers yields the least
   common sum S among all minimal witnesses.  The reordering of fact 2
   maps every minimal witness to such a walk, so none is missed.

4. *Work bound.*  Let W = |X| * max|Y| + |Y| * max X.  Of the window's
   partial sums, max|Y| are <= 0 and step by the |X| members, and
   max X are > 0 and step by the |Y| members.  A state joins a layer
   only while unmarked, so each parity expands it at most once: at
   most 2 * W steps, and 2 * (max X + max|Y|) <= 2 * W table bytes.
   And W <= n = l*M + m*L, as l = |X|, m = |Y|, M >= max|Y| and
   L >= max X, so a cap on W refuses no set with n up to the cap.

5. *Two members, in closed form.*  Let Z = {x, -y}, x and y > 0 of
   distinct valuations, and g = gcd(x, y).  A zero-sum multiset of a
   copies of x and b of -y has a * x/g = b * y/g, and x/g and y/g are
   coprime, so a = m * y/g and b = m * x/g for some m >= 1, and its
   length is m * (x + y)/g.  By fact 1 exactly one cofactor is even, so
   (x + y)/g is odd, and the length is odd exactly when m is.  So m = 1:
   k = (x + y)/g, S = (y/g) * x = lcm(x, y), and the witness of length
   k is unique, y/g copies of x against x/g copies of y.
   ``_shortest_odd_zero_sum`` returns this (k, S) and
   ``_lex_min_witness`` this witness, with no search and no tables, for
   both callers.

For three or more members the witness itself is rebuilt from (k, S)
with exact per-count reachability tables (bitmask rows, one per term
count), which fix the lexicographic tie-break.  They take about k * S
bits; their size, or a pair's k terms at 64 bits each, is checked
against :data:`~imbalanceset.errors.WITNESS_TABLE_BIT_CAP` before
anything is built.
"""

from __future__ import annotations

import operator
from itertools import takewhile
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import ESSEQ_SUM_CAP, SEARCH_WORK_CAP, WITNESS_TABLE_BIT_CAP, ResourceLimitError


class _Witness(NamedTuple):
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    common_sum: int


class EqualSumWitness(_Witness):
    """Two equal-sum sequences, one per side, with their common sum, as
    a named tuple.

    xs is drawn from the non-negative side, ys from the magnitudes of
    the negative side.  Both are stored sorted nondecreasing.  The
    constructor refuses sides that do not sum to ``common_sum``;
    ``_make`` and ``_replace`` do not check.
    """

    __slots__ = ()

    def __new__(cls, xs: tuple[int, ...], ys: tuple[int, ...], common_sum: int) -> EqualSumWitness:
        if not xs and not ys:
            raise ValueError("witness sides cannot both be empty")
        if sum(xs) != common_sum or (ys and sum(ys) != common_sum):
            raise ValueError("witness sums do not match common_sum")
        if ys == () and common_sum != 0:
            raise ValueError("one-sided witness must have sum zero")
        return super().__new__(cls, xs, ys, common_sum)

    @property
    def total_length(self) -> int:
        return len(self.xs) + len(self.ys)


def _validate_side(values: Iterable[int], name: str, *, even: bool) -> tuple[int, ...]:
    vals = tuple(sorted(set(map(operator.index, values))))
    if not vals:
        raise ValueError(f"{name} must be nonempty")
    if any(v < 0 for v in vals):
        raise ValueError(f"{name} must contain non-negative integers")
    if even and any(v % 2 for v in vals):
        raise ValueError(f"{name} must contain even integers only")
    return vals


def _exact_count_rows(values: Sequence[int], max_count: int, sum_bits: int) -> list[int]:
    """rows[c] = bitmask of sums reachable with exactly c terms."""
    mask = (1 << sum_bits) - 1
    rows = [1]
    for _ in range(max_count):
        prev = rows[-1]
        cur = 0
        for v in values:
            cur |= (prev << v) & mask
        rows.append(cur)
    return rows


def _lex_min_terms(
    values: Sequence[int],
    rows: list[int],
    target: int,
    count_options: Iterable[int],
) -> tuple[int, ...]:
    """Lexicographically smallest nondecreasing term tuple hitting target.

    values ascend; count_options are the admissible term counts.  The walk
    keeps the set of still-consistent remaining counts and always appends
    the smallest value that leaves the target reachable.  The callers'
    (k, S) has a witness by fact 3, so some option reaches the target;
    were none to, the walk would find no value to append and raise the
    tables-inconsistent AssertionError.
    """
    remaining = target
    counts = {c for c in count_options if c < len(rows) and (rows[c] >> target) & 1}
    out: list[int] = []
    while not (remaining == 0 and 0 in counts):
        for v in takewhile(lambda v: v <= remaining, values):
            shrunk = {
                c - 1
                for c in counts
                if c >= 1 and (rows[c - 1] >> (remaining - v)) & 1
            }
            if shrunk:
                out.append(v)
                remaining -= v
                counts = shrunk
                break
        else:
            raise AssertionError("reachability tables are inconsistent")
    return tuple(out)


def _has_odd_pair(values: Iterable[int]) -> bool:
    """Whether the even set of ``values`` (with their signs, or as the
    magnitudes of both sides) has an odd-total equal-sum pair: exactly
    when 0 is a member, which gives ([0], []), or its members do not all
    share one 2-adic valuation (fact 1 of the module docstring).

    The lowest set bit of v (``v & -v``, also for negative v) is
    2 ** valuation, and 0 for v = 0; so both cases are one set of them.
    """
    lows = {v & -v for v in values}
    return 0 in lows or len(lows) > 1


def _shortest_odd_zero_sum(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, int]:
    """(k, S) for ascending non-negative xs and positive ys with an odd witness.

    k is the least odd number of terms of a zero-sum multiset over xs
    and the negated ys, and S the least sum of the positive terms among
    those of length k, which :func:`_has_odd_pair` must have promised.
    A 0 in xs gives (1, 0), the pair ([0], []), and one member per side
    gives fact 5's closed form, both before the work cap.  Otherwise the
    valuations are mixed, so that by fact 1 such a multiset exists, and
    a breadth-first search over the Steinitz window (facts 2 and 3 of
    the module docstring) finds it after the work bound W of fact 4 is
    capped.
    """
    if xs[0] == 0:
        return 1, 0
    if len(xs) == len(ys) == 1:
        (x,), (y,) = xs, ys
        return (x + y) // gcd(x, y), lcm(x, y)
    work = len(xs) * ys[-1] + len(ys) * xs[-1]
    if work > SEARCH_WORK_CAP:
        raise ResourceLimitError(f"odd zero-sum search of work {work} exceeds the cap")
    # A partial sum s in (-max|Y|, max X] is stored at offset s + zero.
    zero = ys[-1] - 1
    width = zero + xs[-1] + 1
    # seen[p][off]: reached at a shorter length of parity p.  Marking the
    # origin at length 0 prunes even returns to it, never shortest.
    seen = (bytearray(width), bytearray(width))
    seen[0][zero] = 1
    frontier = {zero: 0}  # offset -> least positive-part sum
    length = 0
    while frontier:
        length += 1
        mark = seen[length & 1]
        layer: dict[int, int] = {}
        for off, pos in frontier.items():
            if off <= zero:
                for x in xs:
                    t = off + x
                    if not mark[t]:
                        old = layer.get(t)
                        if old is None or pos + x < old:
                            layer[t] = pos + x
            else:
                for y in ys:
                    t = off - y
                    if not mark[t]:
                        old = layer.get(t)
                        if old is None or pos < old:
                            layer[t] = pos
        if length & 1 and zero in layer:
            return length, layer[zero]
        for t in layer:
            mark[t] = 1
        frontier = layer
    raise AssertionError("the 2-adic rule promised an odd zero-sum multiset")


def min_odd_equal_sum(
    x_values: Iterable[int], y_abs_values: Iterable[int]
) -> EqualSumWitness | None:
    """Minimal odd-total-length equal-sum pair for an even imbalance set.

    x_values is the non-negative side (may contain 0), y_abs_values the
    magnitudes of the negative side; all entries must be even.  Returns
    a witness minimizing len(xs) + len(ys) subject to the total being
    odd and the sums agreeing, or None when no such pair exists.  Among
    minimal-length witnesses the one with the smallest common sum wins,
    then the lexicographically smallest xs, then the smallest ys.

    A zero in x gives the one-term witness ([0], []), the degenerate
    odd-length pair, and one member per side gives fact 5's witness:
    the same two steps that complete an even set in
    :func:`~imbalanceset.tis.decide_tis`.  Raises
    :class:`ResourceLimitError` before a search over ``SEARCH_WORK_CAP``
    or a witness over :data:`~imbalanceset.errors.WITNESS_TABLE_BIT_CAP`
    bits, so no cap short of the witness's own size refuses a pair.
    """
    xs = _validate_side(x_values, "x side", even=True)
    ys = _validate_side(y_abs_values, "y side", even=True)
    if any(v == 0 for v in ys):
        raise ValueError("y side magnitudes must be positive")
    if not _has_odd_pair(xs + ys):
        return None
    return _lex_min_witness(xs, ys, *_shortest_odd_zero_sum(xs, ys))


def _lex_min_witness(
    xs: Sequence[int], ys: Sequence[int], k: int, common: int
) -> EqualSumWitness:
    """The lex-least witness of k terms and common sum S, which must exist.

    xs and ys are ascending; (1, 0) is the pair ([0], []) of a side with
    0.  One member per side takes fact 5's witness, still k tuple slots,
    else the tables are walked; the cap counts either first.
    """
    if common == 0:
        return EqualSumWitness((0,), (), 0)
    pair = len(xs) == len(ys) == 1
    # A pair's k terms at 64 bits each; else two tables of k rows, each
    # row at most common + 1 bits.
    bits = 64 * k if pair else 2 * k * (common + 1)
    if bits > WITNESS_TABLE_BIT_CAP:
        raise ResourceLimitError(
            f"equal-sum witness of length {k} and sum {common} needs {bits} "
            f"table bits (cap {WITNESS_TABLE_BIT_CAP})"
        )
    if pair:
        (x,), (y,) = xs, ys
        return EqualSumWitness((x,) * (common // x), (y,) * (common // y), common)
    rows_x = _exact_count_rows(xs, k - 1, common + 1)
    rows_y = _exact_count_rows(ys, k - 1, common + 1)
    a_options = [
        a
        for a in range(1, k)
        if (rows_x[a] >> common) & 1 and (rows_y[k - a] >> common) & 1
    ]
    witness_xs = _lex_min_terms(xs, rows_x, common, a_options)
    witness_ys = _lex_min_terms(ys, rows_y, common, [k - len(witness_xs)])

    witness = EqualSumWitness(witness_xs, witness_ys, common)
    assert witness.total_length == k
    return witness


def _bounded_sum_rows(values: Sequence[int], max_repeats: int, sum_bits: int) -> int:
    """Bitmask of sums reachable using each value at most max_repeats times.

    Selections may be empty; bit 0 is always set.
    """
    mask = (1 << sum_bits) - 1
    reach = 1
    for v in values:
        if v == 0:
            continue
        # Binary splitting of the repetition budget.
        left = max_repeats
        step = 1
        while left > 0:
            take = min(step, left)
            shift = v * take
            if shift >= sum_bits:
                break
            reach |= (reach << shift) & mask
            left -= take
            step *= 2
    return reach


def solve_esseq(
    x_values: Iterable[int],
    y_values: Iterable[int],
    max_repeats: int,
) -> EqualSumWitness | None:
    """Equal-sum sequences with a per-element repetition cap.

    Finds nonempty sequences from each side, each element used at most
    max_repeats times per side, with equal sums; returns None when no
    such pair exists.  The witness is canonical: smallest achievable
    common sum, then fewest terms per side, then lexicographically
    smallest terms.

    The reachable-sum tables, and ESSEQ_SUM_CAP, stop at a bound on the
    least common sum: max_repeats times the smaller side sum, or, when
    g = gcd(x0, y0) of the least positive members x0, y0 has
    max(x0, y0)/g <= max_repeats, the sum of y0/g copies of x0 and of
    x0/g copies of y0, lcm(x0, y0) = max(x0, y0)/g * min(x0, y0), which
    is no larger.
    """
    if max_repeats < 1:
        raise ValueError("repetition cap must be at least 1")
    xs = _validate_side(x_values, "x side", even=False)
    ys = _validate_side(y_values, "y side", even=False)

    # Sum 0 is witnessable only by the zero element itself.
    if 0 in xs and 0 in ys:
        return EqualSumWitness((0,), (0,), 0)

    cap = max_repeats * min(sum(xs), sum(ys))
    x0, y0 = (next((v for v in side if v > 0), 0) for side in (xs, ys))  # sides ascend
    if x0 and y0 and max(x0, y0) // gcd(x0, y0) <= max_repeats:
        cap = lcm(x0, y0)
    if cap > ESSEQ_SUM_CAP:
        raise ResourceLimitError(f"equal-sum table of {cap} sums exceeds the cap")

    reach_x = _bounded_sum_rows(xs, max_repeats, cap + 1)
    reach_y = _bounded_sum_rows(ys, max_repeats, cap + 1)
    both = reach_x & reach_y & ~1  # drop the empty selection
    if both == 0:
        return None
    common = (both & -both).bit_length() - 1

    witness_xs = _bounded_lex_min(xs, max_repeats, common)
    witness_ys = _bounded_lex_min(ys, max_repeats, common)
    return EqualSumWitness(witness_xs, witness_ys, common)


def _bounded_lex_min(
    values: Sequence[int], max_repeats: int, target: int
) -> tuple[int, ...]:
    """Fewest-terms, then lex-smallest, bounded-repeat multiset for target.

    ``target`` is a positive sum that the values reach.  Fewer than
    ceil(target / max(values)) terms, each at most the largest value,
    sum below target, and more than target terms, each at least 1,
    above it; so the first count in that range with a walk is the least.
    """
    positives = [v for v in values if v > 0]  # ascending, as the sides are
    counts = range(-(-target // positives[-1]), target + 1)
    return next(w for w in (_bounded_walk(positives, max_repeats, target, c) for c in counts) if w is not None)


def _bounded_walk(
    values: Sequence[int], max_repeats: int, target: int, count: int
) -> tuple[int, ...] | None:
    """Lex-min multiset with exactly `count` terms and bounded repeats.

    Values are scanned ascending and each first takes as many copies as
    feasible, one fewer on each backtrack, which yields the
    lexicographically smallest nondecreasing tuple.  The last value is
    never retried with fewer copies: with no value after it, only
    exactly ``left`` copies summing to ``remaining`` can end the walk,
    and the most copies it can take are those if any are, so one try
    settles its state (and a long remainder costs one step, not one per
    copy).  The search keeps an explicit stack, so long witnesses do not
    hit the recursion limit.
    """
    dead: set[tuple[int, int, int]] = set()  # (remaining, left, idx) that fail
    # (idx, copies of values[idx], remaining and left before those copies)
    frames: list[tuple[int, int, int, int]] = []
    remaining, left, idx = target, count, 0
    while left or remaining:
        if left and idx < len(values) and (remaining, left, idx) not in dead:
            copies = min(max_repeats, remaining // values[idx], left)
        else:
            while frames and (not frames[-1][1] or frames[-1][0] == len(values) - 1):
                i, _, rem_in, left_in = frames.pop()
                dead.add((rem_in, left_in, i))
            if not frames:
                return None
            idx, copies, remaining, left = frames.pop()
            copies -= 1
        frames.append((idx, copies, remaining, left))
        remaining -= copies * values[idx]
        left -= copies
        idx += 1
    return tuple(v for i, c, _, _ in frames for v in (values[i],) * c)
