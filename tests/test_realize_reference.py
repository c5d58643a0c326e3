"""The run-stepping greedy against the per-vertex greedy it replaced.

``reference_realize.max_realization`` is the replaced builder, which
runs one numpy pass over the whole unprocessed suffix per vertex.  The
program's ``max_realization`` must return the same matrix, pairing,
arc count and flags, or fail with the same exception type and message.
The inputs cover every valid sequence of orders 0-8, imbalance
sequences of random digraphs (many distinct values, mixed parity), the
canonical expansions the construction realizes (small ones, and large
ones where the greedy fast-forwards over long stretches), and a
sequence with every entry distinct.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import imbalanceset.realize
import reference_realize
from conftest import all_valid_imbalance_sequences
from imbalanceset import (
    ImbalanceSet,
    canonical_sequence,
    decide_tis,
    max_realization,
    realize_imbalance_set,
)


def _outcome(build, seq):
    try:
        rep = build(seq)
    except Exception as exc:  # the type and message are compared
        return "failed", type(exc), str(exc)
    return (
        "built",
        rep.graph.matrix().tobytes(),
        rep.graph.n,
        rep.non_neighbour_pairing,
        rep.arc_count,
        rep.is_tournament,
        rep.is_near_tournament,
    )


def _assert_same(seq):
    new = _outcome(max_realization, seq)
    assert new == _outcome(reference_realize.max_realization, seq), seq
    return new


def _digraph_sequence(n, seed, weights):
    """Imbalance sequence of a random simple digraph: each pair is
    unjoined, forward or backward with the given weights."""
    rng = np.random.default_rng(seed)
    p = np.asarray(weights, dtype=float) / sum(weights)
    state = np.triu(rng.choice(3, size=(n, n), p=p), 1)
    adj = (state == 1) | (state == 2).T
    imb = adj.sum(axis=1) - adj.sum(axis=0)
    return sorted(imb.tolist(), reverse=True)


def test_every_valid_sequence_up_to_order_eight():
    count = 0
    for n in range(0, 9):
        for seq in all_valid_imbalance_sequences(n):
            assert _assert_same(seq)[0] == "built", seq
            count += 1
    assert count == 6_744


def test_infeasible_and_unsorted_input_fails_alike():
    failures = 0
    for n in range(1, 5):
        for seq in itertools.product(range(-4, 5), repeat=n):
            failures += _assert_same(list(seq))[0] == "failed"
    assert failures > 6_000


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
)
@settings(max_examples=150, deadline=None)
def test_random_digraph_sequences(n, seed, weights):
    seq = _digraph_sequence(n, seed, weights)
    assert _assert_same(seq)[0] == "built", seq


def test_canonical_expansions_of_small_sets():
    built = 0
    for r in (2, 3):
        for combo in itertools.combinations(range(-16, 17), r):
            if not decide_tis(combo).verdict:
                continue
            seq = canonical_sequence(ImbalanceSet.from_values(combo))
            assert _assert_same(seq)[0] == "built", combo
            built += 1
    assert built > 1_000


def test_all_distinct_transitive_sequence():
    seq = [199 - 2 * i for i in range(200)]
    assert _assert_same(seq)[5]  # a tournament


# The realize-io sets of benchmark seed 1 (perfbench/workloads.py) and
# four more, orders 254-2,006.
LARGE_SETS = (
    (3, 1, -125),
    (388, 0, -6),
    (2, -372),
    (2, 0, -350),
    (572, -2),
    (521, -3, -7),
    (2, -1332),
    (6, 0, -998),
    (3, 1, -1001),
)


@pytest.mark.parametrize("members", LARGE_SETS)
def test_large_canonical_expansions(members):
    seq = canonical_sequence(ImbalanceSet.from_values(members))
    assert _assert_same(seq)[0] == "built", members


# The build-large sets of benchmark seed 1, orders 3,020-6,994.
BUILD_LARGE_SEED_1 = (
    (5, 1, -1507),
    (4020, 0, -2),
    (2, -3340),
    (2981, -1, -7),
    (6, 0, -3494),
    (5652, -2),
)


@pytest.mark.parametrize("members", BUILD_LARGE_SEED_1)
def test_fast_forward_skips_nearly_every_step(members, monkeypatch):
    """Single greedy steps, traced periods of the fast-forward included,
    stay under 2% of the canonical order."""
    steps = 0
    step = imbalanceset.realize._step

    def counted(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(imbalanceset.realize, "_step", counted)
    graph = realize_imbalance_set(members)
    n = ImbalanceSet.from_values(members).canonical_length
    assert graph.n >= n
    assert 0 < steps <= 0.02 * n, (members, steps, n)
