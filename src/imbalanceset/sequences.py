"""Sequence-level feasibility checks and set-to-sequence expansion.

Three classic feasibility tests live here:

* score sequences of tournaments (prefix sums of a nondecreasing
  sequence must dominate the binomial lower bound, with equality at the
  full sequence);
* imbalance sequences of simple digraphs (prefix sums of a
  nonincreasing sequence bounded by ``j * (n - j)``, total zero);
* imbalance sequences of tournaments (the digraph condition plus the
  requirement that every entry has the parity of ``n - 1``).

For sorted input, checking prefix sums is equivalent to checking every
index subset: among subsets of a fixed size, a prefix has the extreme
sum, so it is the binding case.

All checks take sorted integer input and reject unsorted input
instead of silently sorting; normalization is the caller's job.  A
non-integer entry (0.5, or 1.0) raises TypeError.  Empty sequences
pass vacuously, except the tournament check which requires at least one
entry.

The :class:`ImbalanceSet` container splits a candidate set into its
non-negative and negative parts and owns the arithmetic (part sums and
the canonical expansion length) used throughout the package.

Every canonical expansion is a digraph imbalance sequence, so the
certificate builder takes it as runs from
:meth:`ImbalanceSet.canonical_runs` and checks nothing.  Write it as
x_1 > ... > x_l >= 0, each M times, then -y_1 > ... > -y_m, each L
times (L, M the part sums, both positive), n = l*M + m*L, and let the
slack be s(j) = j(n - j) - P(j), P(j) the sum of the first j entries.
The expansion is nonincreasing by construction and P(n) = L*M - M*L =
0, so only s(j) >= 0 is left.  Inside a run P is linear and j(n - j) concave, so s
is concave and least at the run's ends: j = a*M (a <= l) and j = l*M +
b*L (b <= m).
* At j = a*M, a >= 1: P = M * S_a, S_a = x_1 + ... + x_a <= L, and
  s = M(a((l - a)M + mL) - S_a) >= M(L - S_a) >= 0, as m, a >= 1.
  At j = 0, s = 0.
* At j = l*M + b*L, b < m: P = L(M - Y_b), Y_b = y_1 + ... + y_b, and
  s = L((lM + bL)(m - b) - M + Y_b) >= L * Y_b >= 0, as m - b >= 1 and
  lM >= M.  At b = m, j = n and s = 0.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Sequence


class CheckFailure(NamedTuple):
    """First reason a sequence check fails, as a named tuple.

    kind is one of "prefix" (inequality broken at 1-based index
    ``index``), "total" (full sum misses its forced value), or "parity"
    (entry at 0-based ``index`` has the wrong parity).
    """

    kind: str
    index: int


def _sorted_ints(seq: Sequence[int], *, nondecreasing: bool, what: str) -> list[int]:
    """The entries of ``seq`` as ints, checked to be sorted.  Each entry
    passes through ``operator.index``, so 0.5 or 1.0 raises TypeError
    and numpy integers are accepted."""
    ints = list(map(operator.index, seq))
    for i in range(len(ints) - 1):
        if nondecreasing and ints[i] > ints[i + 1]:
            raise ValueError(f"{what} must be sorted nondecreasing")
        if not nondecreasing and ints[i] < ints[i + 1]:
            raise ValueError(f"{what} must be sorted nonincreasing")
    return ints


def landau_failure(scores: Sequence[int]) -> CheckFailure | None:
    """First violated prefix of the tournament score-sequence condition.

    Input must be nondecreasing and non-negative (raises otherwise).
    Returns None when the sequence is a valid tournament score sequence.
    """
    scores = _sorted_ints(scores, nondecreasing=True, what="score sequence")
    if any(s < 0 for s in scores):
        raise ValueError("scores must be non-negative")
    n = len(scores)
    prefix = 0
    for j in range(1, n + 1):
        prefix += scores[j - 1]
        if prefix < j * (j - 1) // 2:
            return CheckFailure("prefix", j)
    if n and prefix != n * (n - 1) // 2:
        return CheckFailure("total", n)
    return None


def check_landau(scores: Sequence[int]) -> bool:
    return landau_failure(scores) is None


def digraph_imbalance_failure(seq: Sequence[int]) -> CheckFailure | None:
    """First violated prefix of the digraph imbalance condition.

    Input must be nonincreasing (raises otherwise).  Valid sequences
    satisfy prefix_j <= j * (n - j) for every j, with equality at j = n.
    """
    seq = _sorted_ints(seq, nondecreasing=False, what="imbalance sequence")
    n = len(seq)
    prefix = 0
    for j in range(1, n + 1):
        prefix += seq[j - 1]
        if prefix > j * (n - j):
            return CheckFailure("prefix", j)
    if n and prefix != 0:
        return CheckFailure("total", n)
    return None


def check_digraph_imbalance(seq: Sequence[int]) -> bool:
    return digraph_imbalance_failure(seq) is None


def tournament_imbalance_failure(seq: Sequence[int]) -> CheckFailure | None:
    """Tournament imbalance condition: parity plus the digraph prefixes.

    Every entry must share the parity of n - 1; on top of that the
    digraph prefix inequalities must hold with total zero.  Requires a
    nonempty nonincreasing sequence.
    """
    seq = _sorted_ints(seq, nondecreasing=False, what="imbalance sequence")
    if not seq:
        raise ValueError("tournament imbalance check requires n >= 1")
    n = len(seq)
    want = (n - 1) % 2
    for i, t in enumerate(seq):
        if t % 2 != want:
            return CheckFailure("parity", i)
    return digraph_imbalance_failure(seq)


def check_tournament_imbalance(seq: Sequence[int]) -> bool:
    return tournament_imbalance_failure(seq) is None


def scores_from_imbalances(seq: Sequence[int]) -> tuple[int, ...]:
    """Convert a tournament imbalance sequence to its score sequence.

    Each imbalance t maps to the score (n - 1 + t) / 2; the result is
    returned nondecreasing.  The input must pass the tournament
    imbalance check (the parity part makes the division exact).
    """
    failure = tournament_imbalance_failure(seq)
    if failure is not None:
        if failure.kind == "parity":
            raise ValueError(
                f"parity mismatch: entry {seq[failure.index]} vs order {len(seq)}"
            )
        raise ValueError("not a tournament imbalance sequence")
    n = len(seq)
    return tuple((n - 1 + t) // 2 for t in reversed(seq))


def imbalances_from_scores(scores: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`scores_from_imbalances`: t = 2s - (n - 1)."""
    failure = landau_failure(scores)
    if failure is not None:
        raise ValueError("not a tournament score sequence")
    n = len(scores)
    return tuple(2 * s - (n - 1) for s in reversed(scores))


class ImbalanceSet:
    """A finite integer set split into non-negative and negative parts.

    ``non_negative`` holds the members >= 0 sorted decreasing,
    ``negative_abs`` the magnitudes of the members < 0 sorted
    increasing (so the negative members themselves are decreasing).
    """

    __slots__ = ("non_negative", "negative_abs")

    def __init__(self, non_negative: Iterable[int], negative_abs: Iterable[int]):
        pos = tuple(sorted(set(map(operator.index, non_negative)), reverse=True))
        neg = tuple(sorted(set(map(operator.index, negative_abs))))
        if any(x < 0 for x in pos):
            raise ValueError("non-negative part contains a negative value")
        if any(y <= 0 for y in neg):
            raise ValueError("negative part magnitudes must be positive")
        self.non_negative = pos
        self.negative_abs = neg

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "ImbalanceSet":
        members = set(map(operator.index, values))
        if not members:
            raise ValueError("imbalance set must be nonempty")
        return cls(
            (v for v in members if v >= 0),
            (-v for v in members if v < 0),
        )

    def members(self) -> frozenset[int]:
        return frozenset(self.non_negative) | frozenset(-y for y in self.negative_abs)

    @property
    def non_negative_sum(self) -> int:
        return sum(self.non_negative)

    @property
    def negative_abs_sum(self) -> int:
        return sum(self.negative_abs)

    @property
    def canonical_length(self) -> int:
        """Length of the canonical expansion: l * M + m * L.

        l, m are the part sizes and L, M the part sums; each
        non-negative member is repeated M times and each negative member
        L times, which is what makes the expansion sum to zero.
        """
        return (
            len(self.non_negative) * self.negative_abs_sum
            + len(self.negative_abs) * self.non_negative_sum
        )


    def canonical_runs(self) -> tuple[tuple[int, int], ...]:
        """The canonical expansion as runs (value, count), values
        decreasing: each non-negative member x counted M times (M = sum
        of negative magnitudes), then each negative member -y counted L
        times (L = sum of non-negative members).  It needs a positive
        and a negative member, and is a digraph imbalance sequence by
        the module docstring's proof.
        """
        if not self.non_negative or not self.negative_abs:
            raise ValueError("canonical sequence needs both ends of the sign range")
        big_l = self.non_negative_sum
        big_m = self.negative_abs_sum
        if big_l == 0:
            # Non-negative part is {0} alone: the negatives could never appear.
            raise ValueError("canonical sequence needs a strictly positive member")
        return tuple((x, big_m) for x in self.non_negative) + tuple((-y, big_l) for y in self.negative_abs)


def canonical_sequence(parts: ImbalanceSet) -> tuple[int, ...]:
    """Expand a set into its canonical zero-sum imbalance sequence: the
    runs of :meth:`ImbalanceSet.canonical_runs`, written out.  The
    result has length l*M + m*L, sums to zero, and contains every member
    of the set, which requires both a positive and a negative member.
    """
    out: list[int] = []
    for value, count in parts.canonical_runs():
        out += [value] * count
    return tuple(out)
