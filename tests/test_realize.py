import collections
import itertools
import math
import random

import numpy as np
import pytest

import imbalanceset.realize
from conftest import all_simple_digraphs, all_valid_imbalance_sequences
from imbalanceset import (
    Digraph,
    ImbalanceSet,
    canonical_sequence,
    check_digraph_imbalance,
    max_arc_count,
    max_realization,
    verify_realization,
)


class TestMaxArcCount:
    def test_full_tournament(self):
        assert max_arc_count([2, 0, -2]) == 3

    def test_even_block_sequence(self):
        seq = canonical_sequence(ImbalanceSet.from_values({4, 2, -2}))
        assert max_arc_count(seq) == 40  # n(n-2)/2 at n = 10

    def test_all_even_small(self):
        assert max_arc_count([0, 0, 0, 0]) == 4

    def test_rejects_invalid_sequence(self):
        with pytest.raises(ValueError):
            max_arc_count([3, -1, -1])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            max_arc_count([1.0, -1.0])
        with pytest.raises(TypeError):
            max_arc_count([0.5, -0.5])


class TestMaxRealization:
    def test_transitive_triangle(self):
        rep = max_realization([2, 0, -2])
        assert rep.is_tournament and not rep.is_near_tournament
        assert rep.arc_count == 3
        assert sorted(rep.graph.out_degrees().tolist()) == [0, 1, 2]
        assert rep.non_neighbour_pairing == ()

    def test_all_even_order_four(self):
        rep = max_realization([0, 0, 0, 0])
        assert rep.arc_count == 4
        assert rep.is_near_tournament and not rep.is_tournament
        # The pairing is a perfect matching on the four vertices.
        assert len(rep.non_neighbour_pairing) == 2
        assert sorted(v for pair in rep.non_neighbour_pairing for v in pair) == [
            0,
            1,
            2,
            3,
        ]

    def test_even_block_sequence_gives_near_tournament(self):
        seq = canonical_sequence(ImbalanceSet.from_values({4, 2, -2}))
        rep = max_realization(seq)
        assert rep.is_near_tournament
        assert rep.arc_count == 40
        assert rep.graph.imbalance_sequence() == seq
        assert len(rep.non_neighbour_pairing) == 5

    def test_rejects_infeasible_sequence(self):
        with pytest.raises(ValueError):
            max_realization([2, 2, -2])

    def test_rejects_non_integer_entries(self):
        # Read as ints, (0.5, -0.5) would build a graph of imbalances (0, 0).
        for seq in ([0.5, -0.5], [1.0, -1.0], [2, 0.0, -2]):
            with pytest.raises(TypeError):
                max_realization(seq)

    def test_numpy_integer_array_builds_like_a_list(self):
        rep = max_realization(np.array([2, 0, 0, -2], dtype=np.int32))
        assert rep.graph == max_realization([2, 0, 0, -2]).graph
        assert verify_realization([2, 0, 0, -2], rep)

    def test_empty_and_single(self):
        assert max_realization([]).is_tournament
        rep = max_realization([0])
        assert rep.is_tournament and rep.graph.n == 1

    def test_deterministic(self):
        seq = canonical_sequence(ImbalanceSet.from_values({4, -6}))
        assert max_realization(seq).graph == max_realization(seq).graph


class TestVerifyRealization:
    def test_accepts_honest_report(self):
        rep = max_realization([2, 0, -2])
        assert verify_realization([2, 0, -2], rep)

    def test_rejects_sequence_mismatch(self):
        rep = max_realization([2, 0, -2])
        assert not verify_realization([0, 0, 0], rep)

    def test_accepts_square_cycle_report(self):
        rep = max_realization([0, 0, 0, 0])
        assert verify_realization([0, 0, 0, 0], rep)

    def test_rejects_forged_flags(self):
        rep = max_realization([0, 0, 0, 0])
        forged = imbalanceset.realize.RealizationReport(
            graph=rep.graph,
            arc_count=rep.arc_count,
            is_tournament=True,
            is_near_tournament=False,
            non_neighbour_pairing=rep.non_neighbour_pairing,
        )
        assert not verify_realization([0, 0, 0, 0], forged)


class TestExhaustiveSmallOrders:
    def test_every_valid_sequence_realizes(self):
        for n in range(0, 9):
            for seq in all_valid_imbalance_sequences(n):
                rep = max_realization(seq)
                assert verify_realization(seq, rep), seq
                assert rep.arc_count == max_arc_count(seq), seq

    def test_parity_dichotomy(self):
        for n in range(1, 6):
            for seq in all_valid_imbalance_sequences(n):
                rep = max_realization(seq)
                matches = [(t - (n - 1)) % 2 == 0 for t in seq]
                assert rep.is_tournament == all(matches)
                assert rep.is_near_tournament == (
                    n % 2 == 0 and not any(matches)
                )
                assert not (rep.is_tournament and rep.is_near_tournament) or n < 2

    def test_no_denser_realization_exists(self):
        # Enumerate every simple oriented graph of order <= 5 and compare
        # its arc count against the formula for its own imbalance sequence.
        for n in range(1, 6):
            for g in all_simple_digraphs(n):
                seq = g.imbalance_sequence()
                assert g.arc_count <= max_arc_count(seq)

    def test_at_most_one_non_neighbour_each(self):
        for seq in all_valid_imbalance_sequences(5):
            g = max_realization(seq).graph
            assert (g.out_degrees() + g.in_degrees() >= g.n - 2).all()


class TestRandomizedOrders:
    def test_random_sequences_up_to_eight(self):
        rng = random.Random(20240817)
        for _ in range(150):
            n = rng.randint(1, 8)
            arcs = []
            for u in range(n):
                for v in range(u + 1, n):
                    state = rng.randrange(3)
                    if state == 1:
                        arcs.append((u, v))
                    elif state == 2:
                        arcs.append((v, u))
            seq = Digraph(n, arcs).imbalance_sequence()
            rep = max_realization(seq)
            assert verify_realization(seq, rep)


def _few_valued(rng):
    """A sequence of a few values: balanced (x, -y) blocks and zeros."""
    seq = [0] * rng.randint(0, 30)
    for _ in range(rng.randint(1, 2)):
        x, y, m = rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 4)
        g = math.gcd(x, y)
        seq += [x] * (y // g * m) + [-y] * (x // g * m)
    return sorted(seq, reverse=True)


def _block(rng):
    """The imbalances of a random oriented graph on a few vertices, each
    blown up into an odd block: block u gets size * (u's imbalance)."""
    m, size = rng.randint(2, 6), rng.randrange(1, 60, 2)
    arcs = []
    for u, v in itertools.combinations(range(m), 2):
        state = rng.randrange(3)
        if state:
            arcs.append((u, v) if state == 1 else (v, u))
    imbalances = Digraph(m, arcs).imbalance_sequence()
    return [size * t for t in imbalances for _ in range(size)]


def _canonical(rng):
    """The canonical expansion of a random two-signed 2- to 4-member set
    of one parity."""
    odd = rng.randrange(2)
    values = range(-61 + (1 - odd), 61, 2)
    while True:
        members = set(rng.sample(values, rng.randint(2, 4)))
        if min(members) < 0 < max(members):
            return canonical_sequence(ImbalanceSet.from_values(members))


class TestFastForward:
    def test_fast_forward_builds_what_single_steps_build(self, monkeypatch):
        """The greedy with its fast-forward against the greedy stepping
        every vertex (no repeat ever detected): same packed rows, pairing
        and flags."""
        rng = random.Random(20261019)
        seqs = [make(rng) for make in (_few_valued, _block, _canonical) for _ in range(120)]
        seqs = [s for s in seqs if len(s) <= 400 and check_digraph_imbalance(s)]
        assert len(seqs) > 250

        # How each fast-forward ended: cut short by a comparison before the
        # sequence's end, or handing back the steps traced as one period.
        ends = collections.Counter()
        fast_forward = imbalanceset.realize._fast_forward

        def watched(now, delta, n):
            result = fast_forward(now, delta, n)
            periods = result[4]
            if periods == 1:
                ends["single period"] += 1
            elif periods < (n - now[0]) // imbalanceset.realize._PERIOD:
                ends["cut by a comparison"] += 1
            return result

        def facts(rep):
            return (
                rep.graph._bits.tobytes(),
                rep.non_neighbour_pairing,
                rep.arc_count,
                rep.is_tournament,
                rep.is_near_tournament,
            )

        with monkeypatch.context() as m:
            m.setattr(imbalanceset.realize, "_fast_forward", watched)
            fast = [facts(max_realization(s)) for s in seqs]
        with monkeypatch.context() as m:
            m.setattr(imbalanceset.realize, "_repeating", lambda seen, n: None)
            m.setattr(imbalanceset.realize, "_fast_forward", None)
            for seq, built in zip(seqs, fast):
                assert facts(max_realization(seq)) == built, seq
        assert ends["single period"] and ends["cut by a comparison"], ends
