"""Seeded input generators for the three benchmark workloads.

Each workload is a fixed list of slots.  A slot fixes what drives the
cost of its call (the kind of set, the sizes of its two sides, the
small members the equal-sum search scales with) and a target canonical
order; the seed draws the rest (the large members within +-1% of the
target, the small members, and for decide-even which sign carries the
small side).  Stratifying this way keeps the work of one pass nearly the
same from seed to seed, so different seeds measure the same workload.

The program only ever receives the set literal of an input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import Expected, expected, two_adic

WORKLOADS = ("decide-even", "realize-io", "build-large")


@dataclass(frozen=True)
class Input:
    slot: int
    kind: str  # what the slot exercises, for the run record
    literal: str  # the only thing the program sees
    fmt: str | None  # graph file format for realize-io
    exp: Expected


def _near(rng: random.Random, target: float) -> float:
    return target * rng.uniform(0.99, 1.01)


def _with_valuation(value: float, v: int) -> int:
    """The integer 2^v * odd closest to value (at least 2^v)."""
    unit = 1 << v
    odd = max(1, round(value / unit))
    if odd % 2 == 0:
        odd += 1
    return unit * odd


def _literal(members: set[int]) -> str:
    # Descending, so the literal never starts with '-' (argparse would
    # take it for an option).
    return ",".join(str(v) for v in sorted(members, reverse=True))


def _orient(small_positive: bool, small: set[int], large: set[int]) -> set[int]:
    """Give the small side the stated sign and the large side the other."""
    if small_positive:
        return small | {-y for y in large}
    return {-x for x in small} | large


# decide-even: CLI `decide` on even sets with both signs and no 0.  The
# equal-sum dynamic program dominates: its cost grows with the canonical
# order n times (n - 1) * max(small side), so the small side is fixed per
# slot and the seed moves only the large members.  Half the slots share
# one 2-adic valuation (answer no, the search runs to exhaustion), half
# are yes (witness reconstruction runs too).  No graph is built or
# written, so formats, realize, tis and digraph do no work here.
# (target n, verdict, small side, number of large members)
_DECIDE_SLOTS = (
    (5_000, False, (4,), 1),
    (8_000, True, (2,), 1),
    (10_000, False, (2, 6), 1),
    (12_000, True, (4, 8), 2),
    (20_000, False, (2,), 2),
    (35_000, True, (2,), 1),
)


def _decide_even(rng: random.Random) -> list[Input]:
    out = []
    for slot, (n_target, yes, small, n_large) in enumerate(_DECIDE_SLOTS):
        v_small = min(two_adic(x) for x in small)
        big_sum = (_near(rng, n_target) - n_large * sum(small)) / len(small)
        if n_large == 1:
            shares = [big_sum]
        else:
            first = big_sum * rng.uniform(0.3, 0.45)
            shares = [first, big_sum - first]
        large = set()
        for i, share in enumerate(shares):
            v = v_small
            if yes and i == 0 and len({two_adic(x) for x in small}) == 1:
                v = v_small + 1 + rng.randrange(3)
            large.add(_with_valuation(share, v))
        # The search costs the same either way round, so the seed picks.
        members = _orient(rng.random() < 0.5, set(small), large)
        exp = expected(members)
        assert exp.verdict == yes and len(members) == len(small) + n_large
        kind = f"even-{'yes' if yes else 'no'}"
        out.append(Input(slot, kind, _literal(members), None, exp))
    return out


def _graph_set(rng: random.Random, order_target: int, kind: str, small_positive: bool) -> set[int]:
    """A set whose constructed tournament has about the target order.

    odd:  two small odd members and one large one, order n.
    zero: 0, a small even member a and a large one, order n + 1 (apex
          completion).
    pair: {2, -Y} with Y = 4 * odd, so the least odd zero-sum length is
          (2 + Y) / 2 and the order is 1.5 (2 + Y); this runs the
          equal-sum search and the add_arcs completion.

    The slot fixes which sign the small side takes: it changes the shape
    of the canonical sequence, and with it the cost of building.
    """
    t = _near(rng, order_target)
    if kind == "odd":
        small = set(rng.sample((1, 3, 5, 7), 2))
        y = round((t - sum(small)) / 2)
        return _orient(small_positive, small, {y + 1 - y % 2})
    if kind == "zero":
        a = rng.choice((2, 4, 6))
        if small_positive:  # non-negative side {a, 0}: n = 2 Y + a
            y = round((t - 1 - a) / 2)
            return {0, a, -(y + y % 2)}
        y = round(t - 1 - 2 * a)  # non-negative side {Y, 0}: n = 2 a + Y
        return {0, y + y % 2, -a}
    if kind == "pair":
        return _orient(small_positive, {2}, {_with_valuation(t / 1.5 - 2, 2)})
    raise ValueError(kind)


# realize-io: CLI `realize --out FILE` then CLI `verify FILE` on the same
# set, cycling dot, edgelist and json over orders ~250-1050.  Turning a
# graph into text and back dominates (emit and parse are one Python
# string per arc, and parse feeds a per-arc Digraph loop), so a change to
# either side of serialization shows here, and writes sit next to reads.
# Each format sees each kind of set once across the two rounds.
# (target order, kind of set, format, small side positive)
_REALIZE_SLOTS = (
    (250, "odd", "dot", True),
    (400, "zero", "edgelist", False),
    (550, "pair", "json", True),
    (700, "zero", "dot", True),
    (850, "pair", "edgelist", False),
    (1_050, "odd", "json", False),
)

# build-large: library realize_imbalance_set in a fresh process, orders
# ~3k-8.5k, no I/O.  Construction (max_realization), completion
# (add_apex_zero / add_arcs) and the certificate checks dominate, and
# the dense n x n matrix sets the peak memory.  The three kinds of set
# exercise the three construction paths.
# (target order, kind of set, small side positive)
_BUILD_SLOTS = (
    (3_000, "odd", True),
    (4_000, "zero", False),
    (5_000, "pair", True),
    (6_000, "odd", False),
    (7_000, "zero", True),
    (8_500, "pair", False),
)


def generate(workload: str, seed: int) -> list[Input]:
    """The input list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "decide-even":
        return _decide_even(rng)
    if workload == "realize-io":
        slots = _REALIZE_SLOTS
    elif workload == "build-large":
        slots = tuple((t, kind, None, pos) for t, kind, pos in _BUILD_SLOTS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for slot, (target, kind, fmt, small_positive) in enumerate(slots):
        exp = expected(_graph_set(rng, target, kind, small_positive))
        assert exp.verdict
        out.append(Input(slot, kind, _literal(set(exp.members)), fmt, exp))
    return out


def small_sets(seed: int, count: int = 12) -> list[set[int]]:
    """Small even sets for checking the reference search against the oracle."""
    rng = random.Random(f"small/{seed}")
    sets = []
    while len(sets) < count:
        pos = set(rng.sample(range(2, 41, 2), rng.choice((1, 2))))
        neg = set(rng.sample(range(2, 41, 2), rng.choice((1, 2))))
        sets.append(pos | {-y for y in neg})
    return sets
