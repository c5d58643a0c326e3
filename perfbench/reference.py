"""Independent references and output checks for the benchmark.

Nothing here calls the code under test, except that
:func:`cross_check_with_oracle` compares the reference search with the
brute-force oracle shipped in ``imbalanceset.oracle``.  The verdict
comes from closed-form rules and the order from a breadth-first search
that shares no code with the program's equal-sum dynamic program;
graphcheck.py re-reads graph files with a reader of our own.  This
module is plain Python, so the benchmark's parent process stays small
(see run.py on peak memory).

Verdict rules for a set Z other than {0}:

* Z needs a positive and a negative member, and one parity throughout.
* Odd members: realizable at exactly the canonical order n.
* Even members with 0: realizable at order n + 1 (apex vertex).
* Even members without 0: realizable iff the members do not all share
  one 2-adic valuation.  If they all equal 2^v times an odd number, a
  zero sum of them has an even number of terms; otherwise some x > 0
  and -y < 0 differ in valuation, and y/g copies of x with x/g copies
  of -y (g = gcd(x, y)) sum to zero with the odd count (x + y)/g < n.
  The constructed order is n plus the least odd length of a zero-sum
  multiset over Z.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Expected:
    """What a correct program reports for one set."""

    members: frozenset[int]
    n: int  # canonical expansion length
    verdict: bool
    refusal: str | None
    order: int | None  # order of the constructed tournament on a yes


def two_adic(v: int) -> int:
    return (v & -v).bit_length() - 1


def canonical_n(members: Iterable[int]) -> int:
    pos = [v for v in members if v >= 0]
    neg = [-v for v in members if v < 0]
    return len(pos) * sum(neg) + len(neg) * sum(pos)


def min_odd_zero_sum(members: Iterable[int]) -> int | None:
    """Least odd k with a k-term zero-sum multiset over nonzero members.

    By the one-dimensional Steinitz argument any zero-sum sequence can
    be reordered so that a positive term follows every partial sum <= 0
    and a negative term every partial sum > 0; partial sums then stay in
    (-max|Y|, max X].  A breadth-first search over (partial sum, length
    parity) in that window finds the least odd closed walk from 0.
    """
    xs = sorted({v for v in members if v > 0})
    ys = sorted({-v for v in members if v < 0})
    if not xs or not ys:
        return None
    lo = -ys[-1] + 1
    width = xs[-1] - lo + 1
    dist = [-1] * (2 * width)
    start = (0 - lo) * 2
    dist[start] = 0
    queue = deque([start])
    goal = (0 - lo) * 2 + 1
    while queue:
        state = queue.popleft()
        s, p = state // 2 + lo, state % 2
        d = dist[state]
        steps = xs if s <= 0 else [-y for y in ys]
        for step in steps:
            nxt = (s + step - lo) * 2 + (1 - p)
            if dist[nxt] < 0:
                dist[nxt] = d + 1
                if nxt == goal:
                    return d + 1
                queue.append(nxt)
    return None


def expected(members: Iterable[int]) -> Expected:
    z = frozenset(int(v) for v in members)
    n = canonical_n(z)
    if z == {0}:
        return Expected(z, 1, True, None, 1)
    if not any(v > 0 for v in z) or not any(v < 0 for v in z):
        return Expected(z, n, False, "one-sided", None)
    if len({v % 2 for v in z}) > 1:
        return Expected(z, n, False, "mixed-parity", None)
    if next(iter(z)) % 2:
        return Expected(z, n, True, None, n)
    if 0 in z:
        return Expected(z, n, True, None, n + 1)
    if len({two_adic(abs(v)) for v in z}) == 1:
        return Expected(z, n, False, "no-odd-equal-sum", None)
    k = min_odd_zero_sum(z)
    if k is None or not n < n + k < 2 * n or k % 2 == 0:
        raise AssertionError(f"reference search disagrees with the 2-adic rule on {sorted(z)}")
    return Expected(z, n, True, None, n + k)


def cross_check_with_oracle(sets: Iterable[Iterable[int]]) -> list[str]:
    """Compare :func:`min_odd_zero_sum` with the brute-force oracle.

    Returns one message per disagreement; the sets must be small enough
    for the oracle's enumeration budget (magnitudes at most 64).
    """
    from imbalanceset.oracle import brute_zero_sum_min_odd

    problems = []
    for z in sets:
        z = frozenset(z)
        ours = min_odd_zero_sum(z)
        theirs = brute_zero_sum_min_odd(z, 63)
        if ours != theirs:
            problems.append(f"{sorted(z)}: reference {ours}, oracle {theirs}")
    return problems


# -- program output checks -----------------------------------------------

_DECIDE_YES = re.compile(r"^yes: realizable by a tournament of order (\d+)$")
_DECIDE_NO = re.compile(r"^no: (\S+)$")


def check_decide(exp: Expected, exit_code: int, stdout: str) -> str | None:
    """None when the CLI's decide output matches the reference."""
    lines = stdout.splitlines()
    first = lines[0] if lines else ""
    if exp.verdict:
        m = _DECIDE_YES.match(first)
        if exit_code != 0 or not m:
            return f"expected yes, got exit {exit_code} {first!r}"
        if int(m.group(1)) != exp.order:
            return f"order {m.group(1)}, expected {exp.order}"
        return None
    m = _DECIDE_NO.match(first)
    if exit_code != 2 or not m:
        return f"expected no, got exit {exit_code} {first!r}"
    if m.group(1) != exp.refusal:
        return f"refusal {m.group(1)}, expected {exp.refusal}"
    return None


def check_verify(exp: Expected, exit_code: int, stdout: str) -> str | None:
    want = f"ok: tournament of order {exp.order} with the stated imbalance set"
    first = stdout.splitlines()[0] if stdout else ""
    if exit_code != 0 or first != want:
        return f"verify: exit {exit_code} {first!r}"
    return None


def check_realize_stdout(exp: Expected, exit_code: int, stdout: str) -> str | None:
    if exit_code != 0:
        return f"realize: exit {exit_code}"
    if not stdout.startswith(f"order {exp.order}; "):
        return f"realize: unexpected report {stdout[:60]!r}"
    return None
