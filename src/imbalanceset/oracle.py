"""Brute-force ground truth for the rest of the package.

Tests call these to check the fast paths against exhaustive
enumeration.  The main pipeline does not use them; only the CLI's
``decide --budget`` and ``bound --budget`` run one, as a second answer
next to the program's (see ``cli._oracle``).

Two tiers: tournament enumeration is the primitive truth but only
affordable at tiny orders (2^(n(n-1)/2) labeled tournaments), so
:func:`brute_min_order` works at the sequence level through the
tournament feasibility check, whose own validity the enumeration tier
establishes for orders up to 5.

No search is cut short.  Before each layer of an enumeration, its work
up to and including that layer is checked against
:data:`~imbalanceset.errors.ORACLE_WORK_CAP`.  The unit is one case:
2^(n(n-1)/2) tournaments of order n, C(m + k, k) multisets of at most k
terms over m members.  :func:`brute_min_order` is the exception: a case
of order j sorts and checks j terms, so it counts j, and the work
through order n is the sum of j * C(j - 1, m - 1) over j <= n, which is
m * C(n + 1, m + 1) because j * C(j - 1, m - 1) = m * C(j, m).  Work
over the cap raises :class:`ResourceLimitError`, so a call that answers
early is never refused and None means that no answer exists within the
given limit.

*Length bound.*  An odd zero-sum multiset over Z, if any, has at most
max Z - min Z terms (one if 0 is in Z).  Let 0 not be in Z.  A zero sum
then needs both signs.  Were each positive x of the 2-adic valuation v
of each negative -y, dividing by 2^v would leave a zero sum of odd
numbers, whose length is even.  So some x and -y differ in valuation,
and with g = gcd(x, y) exactly one of the coprime x/g and y/g is even:
y/g copies of x and x/g copies of -y are an odd zero sum of
(x + y)/g <= max Z - min Z terms.  This is fact 1 of
:mod:`imbalanceset.equalsum` for all integers, proved afresh so that
the oracle shares no code with the fast path.
"""

from __future__ import annotations

import operator
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Iterable, Iterator

from .digraph import Digraph
from .errors import ORACLE_WORK_CAP, ResourceLimitError
from .sequences import check_tournament_imbalance


def _check_work(work: int, what: str) -> None:
    if work > ORACLE_WORK_CAP:
        raise ResourceLimitError(f"brute force over {what}: work {work}, cap {ORACLE_WORK_CAP}")


def enumerate_tournaments(n: int) -> Iterator[Digraph]:
    """Yield every labeled tournament of order n exactly once.

    Orientations are encoded as bits over the C(n, 2) vertex pairs in
    lexicographic order, lowest pair in the lowest bit; streams are
    reproducible.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("order must be positive")
    # 2^e exceeds the cap exactly when e reaches the cap's bit length;
    # comparing exponents avoids building a huge integer.
    e = n * (n - 1) // 2
    if e >= ORACLE_WORK_CAP.bit_length():
        raise ResourceLimitError(f"order {n} has 2^{e} tournaments, cap {ORACLE_WORK_CAP}")
    pairs = list(combinations(range(n), 2))
    for code in range(1 << e):
        arcs = [
            (u, v) if not code >> k & 1 else (v, u)
            for k, (u, v) in enumerate(pairs)
        ]
        yield Digraph(n, arcs)


def brute_zero_sum_min_odd(values: Iterable[int], len_max: int) -> int | None:
    """Smallest odd k <= len_max with a k-term zero-sum multiset.

    Terms are drawn from the value set with repetition; plain
    enumeration over multisets, independent of the search it
    cross-checks.  Lengths past the bound proved above are not searched.
    """
    members = sorted(set(map(operator.index, values)))
    if not members:
        raise ValueError("the value set must be nonempty")
    len_max = operator.index(len_max)
    if len_max < 1:
        raise ValueError("len_max must be positive")
    len_max = min(len_max, 1 if 0 in members else members[-1] - members[0])
    for k in range(1, len_max + 1, 2):
        _check_work(comb(len(members) + k, k), f"zero sums of up to {k} terms")
        for combo in combinations_with_replacement(members, k):
            if sum(combo) == 0:
                return k
    return None


def brute_min_order(values: Iterable[int], n_max: int) -> int | None:
    """Exact minimal tournament order realizing the set, or None.

    Searches every multiset of each size that uses all members at least
    once, at the sequence level: a multiset works iff its nonincreasing
    arrangement passes the tournament imbalance check.
    """
    members = sorted(set(map(operator.index, values)), reverse=True)
    if not members:
        raise ValueError("the value set must be nonempty")
    m = len(members)
    for n in range(m, operator.index(n_max) + 1):
        _check_work(m * comb(n + 1, m + 1), f"orders up to {n}")
        for extra in combinations_with_replacement(members, n - m):
            seq = tuple(sorted(members + list(extra), reverse=True))
            if check_tournament_imbalance(seq):
                return n
    return None
