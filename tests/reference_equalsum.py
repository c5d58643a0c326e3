"""The layered dynamic program that imbalanceset.equalsum replaced.

Kept only as the reference for the differential tests.  It searches
(sum, term-count parity) per side over every sum up to
(n - 1) * min(max X, max |Y|), one layer per term, n = l*M + m*L, then
rebuilds the witness from exact per-count reachability tables.  The
helpers are copied rather than imported, so a change to the program's
witness reconstruction shows up as a difference.  Behaviour is exactly
the replaced code's, without its resource cap.

:func:`bounded_walk` is the recursive walk that ``solve_esseq`` used
before its walk kept an explicit stack, and :func:`bounded_lex_min` the
loop that tried its term counts from one up.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from imbalanceset import EqualSumWitness

_INF = np.iinfo(np.int64).max // 4


def _validate_side(values: Iterable[int], name: str) -> tuple[int, ...]:
    vals = tuple(sorted(set(int(v) for v in values)))
    if not vals:
        raise ValueError(f"{name} must be nonempty")
    if any(v < 0 for v in vals):
        raise ValueError(f"{name} must contain non-negative integers")
    if any(v % 2 for v in vals):
        raise ValueError(f"{name} must contain even integers only")
    return vals


def _min_counts_by_parity(
    values: Sequence[int], sum_cap: int, layer_cap: int
) -> np.ndarray:
    """dist[p, s] = least number of terms with count parity p summing to s."""
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
    """The replaced search: same contract as the program's function."""
    xs = _validate_side(x_values, "x side")
    ys = _validate_side(y_abs_values, "y side")
    if any(v == 0 for v in ys):
        raise ValueError("y side magnitudes must be positive")

    order = len(xs) * sum(ys) + len(ys) * sum(xs)
    if 0 in xs:
        return EqualSumWitness((0,), (), 0)

    sum_cap = (order - 1) * min(xs[-1], ys[-1])
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
    return EqualSumWitness(witness_xs, witness_ys, common)


def bounded_walk(
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


def bounded_lex_min(values: Sequence[int], max_repeats: int, target: int) -> tuple[int, ...]:
    """Fewest-terms, then lex-smallest, bounded-repeat multiset for target."""
    positives = [v for v in values if v > 0]
    # Counts beyond target are futile: every usable term is >= 1.
    for count in range(1, target + 1):
        found = bounded_walk(positives, max_repeats, target, count)
        if found is not None:
            return found
    raise AssertionError("target was reported reachable but is not")
