import itertools
import json
import math
import random
from pathlib import Path

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
    realize_imbalance_set,
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


def _one_parity_runs(lo, hi):
    """The canonical runs of every one-parity, two-signed 2- to 4-member
    set from {lo..hi}."""
    return [
        ImbalanceSet.from_values(members).canonical_runs()
        for size in (2, 3, 4)
        for members in itertools.combinations(range(lo, hi + 1), size)
        if members[0] < 0 < members[-1] and len({m % 2 for m in members}) == 1
    ]


def _near_stretch_state(rng):
    """A random state before step 0, as runs, near the stretch lemma's
    shape: a head run, a block of in-demands lam and lam + 1 (the upper
    run may be empty) and tail runs of larger in-demands; None if some
    out-quota would be negative."""
    sizes = [rng.choice([1, 2, rng.randint(1, 30)]), rng.randint(1, 40), rng.choice([0, rng.randint(1, 40)])]
    sizes += [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
    n = sum(sizes)
    lam = max(1, (sum(sizes[:3]) - 1) // 2 + rng.randint(-3, 3))
    demands = [lam + rng.choice([-1, 0, 1, 2]), lam, lam + 1]
    demands += [lam + rng.choice([2, 3, 4, rng.randint(2, 20)]) for _ in sizes[3:]]
    head_free = rng.random() < 0.5
    block_free = head_free or rng.random() < 0.5
    flags = [head_free] + [block_free if rng.random() < 0.9 else not block_free for _ in range(2)]
    flags += [rng.random() < 0.5 for _ in sizes[3:]]
    runs, start = [], 0
    for size, r, f in zip(sizes, demands, flags):
        out = n - 1 - r - f
        if out < 0:
            return None, n
        if runs and runs[-1][2:] == (out, f):
            runs[-1] = (runs[-1][0], start + size, out, f)
        elif size:
            runs.append((start, start + size, out, f))
        start += size
    return runs, n


STEP_COUNTS = Path(__file__).resolve().parent / "data" / "step_counts.json"


class TestStretchLemma:
    def test_stretches_build_what_single_steps_build(self, monkeypatch):
        """The greedy with the stretch lemma against the greedy running
        _step alone (the lemma stubbed out): same packed rows, pairing and
        flags, on every one-parity two-signed 2- to 4-member set from
        {-14..14} and on random few-valued, block and canonical
        sequences."""
        rng = random.Random(20261019)
        seqs = [make(rng) for make in (_few_valued, _block, _canonical) for _ in range(120)]
        seqs = [s for s in seqs if len(s) <= 400 and check_digraph_imbalance(s)]
        assert len(seqs) > 250
        sets = _one_parity_runs(-14, 14)
        assert len(sets) == 2891

        # Each stretch the lemma wrote: (its first vertex, its periods, n).
        stretches = []
        periods = imbalanceset.realize._periods

        def watched(states, n):
            count = periods(states, n)
            if count > 2:
                stretches.append((states[0][0], count, n))
            return count

        def built():
            for runs in sets:
                bits = imbalanceset.realize._zeros(sum(count for _, count in runs))
                lo, hi = imbalanceset.realize._upper_rows(runs, bits)
                yield bits.tobytes(), lo.tolist(), hi.tolist()
            for seq in seqs:
                rep = max_realization(seq)
                yield (
                    rep.graph._bits.tobytes(),
                    rep.non_neighbour_pairing,
                    rep.arc_count,
                    rep.is_tournament,
                    rep.is_near_tournament,
                )

        with monkeypatch.context() as m:
            m.setattr(imbalanceset.realize, "_periods", watched)
            lemma = list(built())
        with monkeypatch.context() as m:
            m.setattr(imbalanceset.realize, "_margins", lambda i, runs, n: None)
            m.setattr(imbalanceset.realize, "_periods", None)
            for want, got in zip(built(), lemma):
                assert got == want
        # The lemma fired, and some stretch stopped with a whole period
        # of the sequence left, by a margin's sign.
        step = imbalanceset.realize._PERIOD
        assert stretches
        assert any(i + step * (count + 1) <= n for i, count, n in stretches)

    def test_random_states_follow_the_lemma(self):
        """From random states near the lemma's shape, every period k < K
        that _periods grants runs as periods 0 and 1 predict: after each
        of its steps, the partner, the receiver stretches and the runs
        are those of period 0 plus k times their change."""
        realize = imbalanceset.realize
        step = 2 * realize._PERIOD

        def flat(state):
            i, runs, partner, recv = state
            return [partner, *recv, *(x for run in runs for x in run)]

        rng = random.Random(20261022)
        fired = 0
        for _ in range(12000):
            runs, n = _near_stretch_state(rng)
            if runs is None or realize._margins(0, runs, n) is None:
                continue
            states = [(0, runs, -1, [])]
            try:
                while len(states) <= step or len(states) <= realize._PERIOD * periods:
                    i, runs = states[-1][:2]
                    runs, recv, partner = realize._step(i, runs, n)
                    states.append((i + 1, runs, partner, recv))
                    if len(states) == step + 1:
                        periods = realize._periods(states, n)
            except realize.RealizationError:
                continue
            fired += periods > 2
            for j in range(step + 1, len(states)):
                k, s = divmod(j - 1, realize._PERIOD)
                first, then = flat(states[s + 1]), flat(states[s + 1 + realize._PERIOD])
                assert len(first) == len(then)
                assert flat(states[j]) == [a + k * (b - a) for a, b in zip(first, then)], (runs, n, j)
        assert fired > 100, fired

    def test_no_certificate_takes_more_steps(self, monkeypatch):
        """Every set of ``data/step_counts.json`` (those of
        ``data/certificate_digests.json``) builds its certificate in at
        most the _step calls listed there, which the greedy took before
        the stretch lemma, its traced periods included."""
        calls = 0
        step = imbalanceset.realize._step

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(imbalanceset.realize, "_step", counted)
        for want in json.loads(STEP_COUNTS.read_text()):
            calls = 0
            realize_imbalance_set(want["members"])
            assert calls <= want["steps"], want
