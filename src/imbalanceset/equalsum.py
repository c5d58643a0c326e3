"""Equal-sum sequence search by reachable-sum dynamic programming.

Two related searches live here.

:func:`solve_esseq` is the general bounded problem: given two sets of
non-negative integers and a repetition cap, find nonempty sequences
drawn from each side with equal sums.  It runs reachable-sum DP per
side (bitmask tables over achievable sums) and reconstructs a canonical
witness.

:func:`min_odd_equal_sum` is the search that drives the even case of
the tournament decision: among pairs of sequences with equal sums drawn
from the two sides of an even imbalance set, find one minimizing the
total number of terms subject to that total being odd.  Key facts that
keep it pseudo-polynomial:

* if any odd-total witness exists, a minimal one has fewer than
  n = l*M + m*L terms, so the layered search can stop at n - 1 layers;
* a witness sum S satisfies S <= a * max(X) and S <= b * max(|Y|), so
  sums never need to exceed (n - 1) * min(max(X), max(|Y|)).

The DP state is (sum, term-count parity) per side; minimal length per
state is recovered by expanding in layers of one term each.  Exact
per-count reachability tables (bitmask rows, one per term count) are
rebuilt afterwards only over the chosen sum to reconstruct the witness
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DP_CELL_CAP, ESSEQ_SUM_CAP, ResourceLimitError

_INF = np.iinfo(np.int64).max // 4


@dataclass(frozen=True)
class EqualSumWitness:
    """Two equal-sum sequences, one per side, with their common sum.

    xs is drawn from the non-negative side, ys from the magnitudes of
    the negative side.  Both are stored sorted nondecreasing.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    common_sum: int

    def __post_init__(self) -> None:
        if not self.xs and not self.ys:
            raise ValueError("witness sides cannot both be empty")
        if sum(self.xs) != self.common_sum or (
            self.ys and sum(self.ys) != self.common_sum
        ):
            raise ValueError("witness sums do not match common_sum")
        if self.ys == () and self.common_sum != 0:
            raise ValueError("one-sided witness must have sum zero")

    @property
    def total_length(self) -> int:
        return len(self.xs) + len(self.ys)


def _validate_side(values: Iterable[int], name: str, *, even: bool) -> tuple[int, ...]:
    vals = tuple(sorted(set(int(v) for v in values)))
    if not vals:
        raise ValueError(f"{name} must be nonempty")
    if any(v < 0 for v in vals):
        raise ValueError(f"{name} must contain non-negative integers")
    if even and any(v % 2 for v in vals):
        raise ValueError(f"{name} must contain even integers only")
    return vals


def _min_counts_by_parity(
    values: Sequence[int], sum_cap: int, layer_cap: int
) -> np.ndarray:
    """dist[p, s] = least number of terms with count parity p summing to s.

    Layered breadth-first expansion over (sum, parity); one layer adds
    one term.  Stops after layer_cap layers or when no new state
    appears.  Unreached states hold a large sentinel.
    """
    dist = np.full((2, sum_cap + 1), _INF, dtype=np.int64)
    dist[0, 0] = 0
    frontier = np.zeros((2, sum_cap + 1), dtype=bool)
    frontier[0, 0] = True
    seen = frontier.copy()
    for layer in range(1, layer_cap + 1):
        nxt = np.zeros_like(frontier)
        for p in (0, 1):
            src = frontier[1 - p]
            if not src.any():
                continue
            for v in values:
                if v == 0:
                    nxt[p] |= src
                elif v <= sum_cap:
                    nxt[p, v:] |= src[: sum_cap + 1 - v]
        nxt &= ~seen
        if not nxt.any():
            break
        dist[nxt] = layer
        seen |= nxt
        frontier = nxt
    return dist


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

    count_options are the admissible term counts; the walk keeps the set
    of still-consistent remaining counts and always appends the smallest
    value that leaves the target reachable.
    """
    remaining = target
    counts = {c for c in count_options if c < len(rows) and (rows[c] >> target) & 1}
    if not counts:
        raise ValueError("target sum unreachable with the allowed term counts")
    out: list[int] = []
    while not (remaining == 0 and 0 in counts):
        for v in values:
            if v > remaining:
                break
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

    A zero in x short-circuits to the one-term witness ([0], []), the
    degenerate odd-length pair.
    """
    xs = _validate_side(x_values, "x side", even=True)
    ys = _validate_side(y_abs_values, "y side", even=True)
    if any(v == 0 for v in ys):
        raise ValueError("y side magnitudes must be positive")

    big_l = sum(xs)
    big_m = sum(ys)
    order = len(xs) * big_m + len(ys) * big_l

    if 0 in xs:
        witness = EqualSumWitness((0,), (), 0)
        assert witness.total_length < order
        return witness

    # Any witness sum fits under each side's per-term maximum.
    sum_cap = (order - 1) * min(xs[-1], ys[-1])
    if 4 * (sum_cap + 1) > DP_CELL_CAP:
        raise ResourceLimitError(
            f"equal-sum search needs {4 * (sum_cap + 1)} DP cells "
            f"(cap {DP_CELL_CAP})"
        )

    dist_x = _min_counts_by_parity(xs, sum_cap, order - 1)
    dist_y = _min_counts_by_parity(ys, sum_cap, order - 1)

    totals = np.minimum(dist_x[0] + dist_y[1], dist_x[1] + dist_y[0])
    totals[0] = _INF
    best = int(totals.min())
    if best >= order:
        return None
    k = best
    common = int(np.flatnonzero(totals == k)[0])

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
    assert witness.total_length == k and k % 2 == 1
    assert witness.total_length < order
    return witness


def _two_adic_valuation(v: int) -> int:
    return (v & -v).bit_length() - 1


def power_of_two_check(parts) -> bool:
    """Sufficient condition: a power of two with an unmatched companion.

    True when some member is +/- 2^p (p >= 1) and the opposite side
    holds a member whose 2-adic valuation differs from p.  Writing that
    companion's magnitude as r * 2^q with r odd, equal sums come from
    r copies of 2^p against 2^(p-q) copies of the companion (or the
    mirrored multiples when q > p); exactly one of the two counts is
    even, so the total length is odd and the set is realizable.  With
    matching valuations (the lone pair {2^p, -2^p}, but also e.g.
    {2, -6}) every equal-sum pair has even total length, so such
    members never qualify.  False is inconclusive.  Requires both signs
    present, all members even, and 0 absent.
    """
    pos = parts.non_negative
    neg = parts.negative_abs
    if not pos or not neg:
        raise ValueError("both signs must be present")
    if 0 in pos:
        raise ValueError("0 must not be a member")
    if any(v % 2 for v in pos) or any(v % 2 for v in neg):
        raise ValueError("all members must be even")
    for side, other in ((pos, neg), (neg, pos)):
        for e in side:
            if e & (e - 1):
                continue
            p = _two_adic_valuation(e)
            if any(_two_adic_valuation(f) != p for f in other):
                return True
    return False


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
    """
    if max_repeats < 1:
        raise ValueError("repetition cap must be at least 1")
    xs = _validate_side(x_values, "x side", even=False)
    ys = _validate_side(y_values, "y side", even=False)

    cap = max_repeats * min(sum(xs), sum(ys))
    if cap > ESSEQ_SUM_CAP:
        raise ResourceLimitError(f"equal-sum table of {cap} sums exceeds the cap")

    # Sum 0 is witnessable only by the zero element itself.
    if 0 in xs and 0 in ys:
        return EqualSumWitness((0,), (0,), 0)

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
    """Fewest-terms, then lex-smallest, bounded-repeat multiset for target."""
    positives = [v for v in values if v > 0]
    # Counts beyond target are futile: every usable term is >= 1.
    for count in range(1, target + 1):
        found = _bounded_walk(positives, max_repeats, target, count)
        if found is not None:
            return found
    raise AssertionError("target was reported reachable but is not")


def _bounded_walk(
    values: Sequence[int], max_repeats: int, target: int, count: int
) -> tuple[int, ...] | None:
    """Lex-min multiset with exactly `count` terms and bounded repeats.

    Values are scanned ascending and the smaller value is always tried
    first, with as many copies as feasible, which yields the
    lexicographically smallest nondecreasing tuple.
    """

    dead: set[tuple[int, int, int]] = set()

    def go(remaining: int, left: int, idx: int, used: int) -> tuple[int, ...] | None:
        if left == 0:
            return () if remaining == 0 else None
        if idx >= len(values):
            return None
        key = (remaining, left, idx)
        if used == 0 and key in dead:
            return None
        v = values[idx]
        if used < max_repeats and v <= remaining:
            rest = go(remaining - v, left - 1, idx, used + 1)
            if rest is not None:
                return (v,) + rest
        found = go(remaining, left, idx + 1, 0)
        if found is None and used == 0:
            dead.add(key)
        return found

    return go(target, count, 0, 0)
