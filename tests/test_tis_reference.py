"""The interval completion against the whole-array completion it replaced.

``reference_tis.add_arcs`` lays out the roles of every (pair, new
vertex) cell at once; ``realize.add_arcs`` writes each row as a few
intervals, band by band of rows, and the new -> base block as its
transposed complement.  Both must return the same matrix bytes, or fail
with the same exception type and message.  Every input also runs with
``digraph._FILL`` patched small, so that many bands run and band
boundaries cut through the rows of the pairs one owner's couples land
on, and with ``realize._FLUSH`` patched small, so that the greedy that
builds the base writes its stretches a few at a time (that base must
be the same).  The inputs are the even sets the pipeline completes (with
and without 0), large ones included, and random near tournaments with a
random pairing whose witnesses deal more couples than there are pairs.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tis
from imbalanceset import (
    Digraph,
    EqualSumWitness,
    ImbalanceSet,
    RealizationReport,
    canonical_sequence,
    decide_tis,
    digraph,
    max_realization,
    realize,
)

# Band bytes and flush stretches: the program's, then bands of one row
# with every stretch written on its own, and bands of a few rows for
# small k but one for k > 64 with a few stretches at a time.
SIZES = ((digraph._FILL, realize._FLUSH), (1, 1), (100, 7))


def _digest(complete, report, witness):
    try:
        graph = complete(report, witness)
    except Exception as exc:  # the type and message are compared
        return "failed", type(exc), str(exc)
    return "built", graph.n, hashlib.sha256(graph.matrix().tobytes()).hexdigest()


def _assert_same_for_every_size(report, witness, seq=None):
    """Compare under each of ``SIZES``, and rebuild the base from ``seq``
    when given; return how many of them split the rows of some owner's
    pairs over two bands."""
    expected = _digest(reference_tis.add_arcs, report, witness)
    splits = 0
    for fill, flush in SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_FILL", fill)
            mp.setattr(realize, "_FLUSH", flush)
            if seq is not None:
                assert max_realization(seq) == report, (fill, flush)
            assert _digest(realize.add_arcs, report, witness) == expected, (witness, fill, flush)
            splits += _splits_an_owner(report.non_neighbour_pairing, witness, fill)
    return expected, splits


def _splits_an_owner(pairing, witness, fill):
    """Whether the rows of the pairs of some owner's couples fall in two
    bands, as ``digraph._fill`` cuts the completion's rows (every row of
    the order-(n + k) matrix holds an interval)."""
    n, k = 2 * len(pairing), witness.total_length
    words = -(-(n + k) // 64) - (n >> 6) + 1
    rows = max(1, fill // (8 * words))
    ends = np.array(pairing, dtype=np.int64).reshape(-1, 2)
    start = 0
    for half in (witness.xs, witness.ys):
        for v in half:
            pairs = np.arange(start, start + v // 2) % len(pairing)
            start += v // 2
            if len(set((ends[pairs] // rows).ravel().tolist())) > 1:
                return True
        start = 0
    return False


def _completion_input(members):
    """The base report and witness that the pipeline completes."""
    parts = ImbalanceSet.from_values(members)
    if 0 in members:
        witness = EqualSumWitness((0,), (), 0)
    else:
        witness = decide_tis(members, with_certificate=True).witness
    seq = canonical_sequence(parts)
    return max_realization(seq), witness, seq


def test_every_small_even_set():
    built = splits = 0
    for r in (2, 3):
        for combo in itertools.combinations(range(-16, 17, 2), r):
            if not decide_tis(combo).verdict:
                continue
            outcome, split = _assert_same_for_every_size(*_completion_input(frozenset(combo)))
            assert outcome[0] == "built", combo
            built += 1
            splits += split
    assert built > 400 and splits > 100


@pytest.mark.parametrize(
    "members",
    [{4, -998}, {2, 0, -1998}, {2, -3300}, {5652, -2}, {0, 2, -3470}, {12, -8, -24}],
)
def test_large_even_sets(members):
    outcome, _ = _assert_same_for_every_size(*_completion_input(frozenset(members)))
    assert outcome[0] == "built"


def _near_tournament(n, seed):
    """A random near tournament of even order n with a random pairing."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairing = sorted((min(u, v), max(u, v)) for u, v in zip(perm[0::2].tolist(), perm[1::2].tolist()))
    forward = np.triu(rng.integers(0, 2, size=(n, n)), 1).astype(bool)
    adj = (forward | np.tril(~forward.T, -1)).astype(np.uint8)
    for u, v in pairing:
        adj[u, v] = adj[v, u] = 0
    graph = Digraph.from_matrix(adj)
    return RealizationReport(
        graph=graph,
        arc_count=graph.arc_count,
        is_tournament=False,
        is_near_tournament=True,
        non_neighbour_pairing=tuple(pairing),
    )


@st.composite
def _parts(draw, total, count, largest):
    """``count`` parts of 1..largest that sum to ``total``, which they can."""
    parts, left = [], total
    for i in range(count - 1, -1, -1):  # i parts remain after this one
        part = draw(st.integers(max(1, left - i * largest), min(largest, left - i)))
        parts.append(part)
        left -= part
    return parts


@st.composite
def _crowded_witness(draw, n_pairs):
    """An odd-total equal-sum pair of even entries that fit the pairs,
    dealing more couples than there are pairs.

    With a entries on one side and b on the other, each half an entry
    in 1..n_pairs, such a witness exists exactly when its couple count
    lies in [max(a, b, n_pairs + 1), min(a, b) * n_pairs], so only
    shapes (k, a) with a nonempty range are drawn, and no draw is
    rejected.
    """
    shapes = [
        (k, a) for k in (3, 5, 7, 9) for a in range(1, k) if max(a, k - a, n_pairs + 1) <= min(a, k - a) * n_pairs
    ]
    k, a = draw(st.sampled_from(shapes))
    b = k - a
    couples = draw(st.integers(max(a, b, n_pairs + 1), min(a, b) * n_pairs))
    x_halves = draw(_parts(couples, a, n_pairs))
    y_halves = draw(_parts(couples, b, n_pairs))
    return EqualSumWitness(
        tuple(sorted(2 * x for x in x_halves)), tuple(sorted(2 * y for y in y_halves)), 2 * couples
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.data())
def test_random_near_tournaments_with_crowded_pairs(n_pairs, seed, data):
    report = _near_tournament(2 * n_pairs, seed)
    witness = data.draw(_crowded_witness(n_pairs))
    outcome, _ = _assert_same_for_every_size(report, witness)
    assert outcome[0] == "built"


def _forged_witness(xs, ys, common):
    """A witness whose common sum disagrees with its sides, which the
    constructor refuses; only such a witness can overload the clique
    (see the feasibility argument of the realize docstring)."""
    return tuple.__new__(EqualSumWitness, (xs, ys, common))


@pytest.mark.parametrize(
    "seq, witness, message",
    [
        ([0, 0, 0, 0], EqualSumWitness((2,), (2,), 2), "odd total length"),
        ([0, 0, 0, 0], EqualSumWitness((3,), (1, 2), 3), "must be even"),
        ([0, 0, 0, 0], EqualSumWitness((6,), (2, 4), 6), "pair capacity"),
        ([0, 0, 0, 0], _forged_witness((2,), (2, 0), 100), "couple load"),
        ([2, 0, -2], EqualSumWitness((0,), (), 0), "near tournament"),
    ],
)
def test_invalid_input_fails_alike(seq, witness, message):
    outcome, _ = _assert_same_for_every_size(max_realization(seq), witness, seq)
    assert outcome[:2] == ("failed", ValueError) and message in outcome[2]
