import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imbalanceset import (
    CheckFailure,
    ImbalanceSet,
    canonical_sequence,
    check_digraph_imbalance,
    check_landau,
    check_tournament_imbalance,
    digraph_imbalance_failure,
    imbalances_from_scores,
    landau_failure,
    scores_from_imbalances,
    tournament_imbalance_failure,
)


class TestLandau:
    def test_accepts_transitive_scores(self):
        assert check_landau([0, 1, 2])

    def test_accepts_regular_scores(self):
        assert check_landau([1, 1, 1])

    def test_rejects_starved_prefix(self):
        assert not check_landau([0, 0, 2])
        assert landau_failure([0, 0, 2]) == CheckFailure("prefix", 2)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            check_landau([1, 0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_landau([-1, 0])

    def test_empty_is_vacuously_true(self):
        assert check_landau([])

    def test_total_must_be_exact(self):
        assert landau_failure([1, 1, 2]) == CheckFailure("total", 3)


class TestDigraphImbalance:
    def test_accepts_odd_spread(self):
        assert check_digraph_imbalance([1, 0, -1])

    def test_accepts_two_against_one(self):
        assert check_digraph_imbalance([2, -1, -1])

    def test_rejects_nonzero_total(self):
        assert not check_digraph_imbalance([3, -1, -1])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            check_digraph_imbalance([-1, 1])

    def test_empty_is_vacuously_true(self):
        assert check_digraph_imbalance([])

    def test_prefix_failure_index(self):
        assert digraph_imbalance_failure([4, -2, -2]) == CheckFailure("prefix", 1)

    def test_non_integer_entries_are_refused(self):
        # A float cast would read 0.5 as 0 and pass (0.5, -0.5) as (0, 0).
        for seq in ([0.5, -0.5], [1.0, -1.0], [1, 0.0, -1]):
            with pytest.raises(TypeError):
                digraph_imbalance_failure(seq)
            with pytest.raises(TypeError):
                check_digraph_imbalance(seq)
        with pytest.raises(TypeError):
            tournament_imbalance_failure([1.0, -1.0])
        with pytest.raises(TypeError):
            landau_failure([0.5, 0.5])

    def test_numpy_integer_arrays_pass(self):
        assert digraph_imbalance_failure(np.array([2, -1, -1])) is None
        assert digraph_imbalance_failure(np.array([0, 0, -1], dtype=np.int32)) == CheckFailure("total", 3)
        assert tournament_imbalance_failure(np.array([2, 0, -2], dtype=np.int16)) is None
        assert landau_failure(np.array([1, 1, 1], dtype=np.uint8)) is None


class TestTournamentImbalance:
    def test_accepts_regular(self):
        assert check_tournament_imbalance([0, 0, 0])

    def test_accepts_transitive(self):
        assert check_tournament_imbalance([2, 0, -2])

    def test_rejects_parity_mismatch(self):
        # Two even entries need odd length-minus-one parity.
        assert not check_tournament_imbalance([6, -10])
        assert tournament_imbalance_failure([6, -10]) == CheckFailure("parity", 0)

    def test_empty_sequence_is_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            check_tournament_imbalance([])

    def test_single_zero(self):
        assert check_tournament_imbalance([0])


class TestConversions:
    def test_scores_from_imbalances(self):
        assert scores_from_imbalances([2, 0, -2]) == (0, 1, 2)
        assert scores_from_imbalances([0, 0, 0]) == (1, 1, 1)
        assert scores_from_imbalances([1, -1]) == (0, 1)

    def test_imbalances_from_scores(self):
        assert imbalances_from_scores([0, 1, 2]) == (2, 0, -2)
        assert imbalances_from_scores([1, 1, 1]) == (0, 0, 0)
        assert imbalances_from_scores([0, 1]) == (1, -1)

    def test_parity_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="parity"):
            scores_from_imbalances([1, 0, -1])

    def test_nonzero_total_is_an_error(self):
        with pytest.raises(ValueError, match="not a tournament imbalance sequence"):
            scores_from_imbalances([1, 1])

    def test_invalid_scores_are_an_error(self):
        with pytest.raises(ValueError, match="score"):
            imbalances_from_scores([0, 0, 2])

    @given(st.integers(min_value=1, max_value=9), st.data())
    @settings(max_examples=80)
    def test_round_trip(self, n, data):
        # Random valid score sequence -> imbalances -> scores.
        scores = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        if not check_landau(scores):
            return
        seq = imbalances_from_scores(scores)
        assert check_tournament_imbalance(seq)
        assert scores_from_imbalances(seq) == tuple(scores)
        assert imbalances_from_scores(scores_from_imbalances(seq)) == seq

    def test_conversion_result_satisfies_landau(self):
        seq = (3, 1, -1, -3)
        assert check_landau(scores_from_imbalances(seq))


class TestImbalanceSetParts:
    def test_partition(self):
        parts = ImbalanceSet.from_values({4, 2, -2})
        assert parts.non_negative == (4, 2)
        assert parts.negative_abs == (2,)
        assert parts.non_negative_sum == 6
        assert parts.negative_abs_sum == 2
        assert parts.canonical_length == 10

    def test_zero_goes_to_the_non_negative_part(self):
        parts = ImbalanceSet.from_values({2, 0, -2})
        assert parts.non_negative == (2, 0)
        assert parts.canonical_length == 6

    def test_members_round_trip(self):
        values = {5, 1, -3, -7}
        assert ImbalanceSet.from_values(values).members() == frozenset(values)

    def test_empty_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ImbalanceSet.from_values([])

    def test_parts_must_have_their_signs(self):
        with pytest.raises(ValueError, match="non-negative part contains a negative value"):
            ImbalanceSet([-1], [1])
        with pytest.raises(ValueError, match="negative part magnitudes must be positive"):
            ImbalanceSet([1], [0])

    def test_members_must_be_integers(self):
        with pytest.raises(TypeError):
            ImbalanceSet.from_values([1.5, -1])
        with pytest.raises(TypeError):
            ImbalanceSet([2.0], [1])
        parts = ImbalanceSet.from_values(np.array([4, 2, -2]))
        assert parts.non_negative == (4, 2) and parts.canonical_length == 10


class TestCanonicalSequence:
    def test_three_member_even_set(self):
        parts = ImbalanceSet.from_values({4, 2, -2})
        assert canonical_sequence(parts) == (4, 4, 2, 2, -2, -2, -2, -2, -2, -2)

    def test_minimal_odd_pair(self):
        assert canonical_sequence(ImbalanceSet.from_values({1, -1})) == (1, -1)

    def test_lopsided_odd_pair(self):
        seq = canonical_sequence(ImbalanceSet.from_values({3, -1}))
        assert seq == (3, -1, -1, -1)
        assert check_tournament_imbalance(seq)

    def test_one_sided_is_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            canonical_sequence(ImbalanceSet.from_values({1, 3}))

    def test_zero_with_only_negatives_is_rejected(self):
        # {0, -2} could never show its negative member (zero repetitions).
        with pytest.raises(ValueError, match="positive"):
            canonical_sequence(ImbalanceSet.from_values({0, -2}))

    @staticmethod
    def _mixed_sign_subsets(universe, max_size):
        for size in range(2, max_size + 1):
            for combo in itertools.combinations(universe, size):
                if any(v > 0 for v in combo) and any(v < 0 for v in combo):
                    yield combo

    def test_odd_sets_expand_to_tournament_sequences(self):
        for combo in self._mixed_sign_subsets((-11, -9, -7, -5, -3, -1, 1, 3, 5, 7, 9, 11), 4):
            parts = ImbalanceSet.from_values(combo)
            seq = canonical_sequence(parts)
            assert len(seq) == parts.canonical_length
            assert sum(seq) == 0
            assert set(seq) == set(combo)
            assert check_tournament_imbalance(seq), combo

    def test_even_sets_expand_to_digraph_but_not_tournament_sequences(self):
        for combo in self._mixed_sign_subsets((-10, -8, -6, -4, -2, 0, 2, 4, 6, 8, 10), 4):
            parts = ImbalanceSet.from_values(combo)
            seq = canonical_sequence(parts)
            assert len(seq) % 2 == 0
            assert check_digraph_imbalance(seq), combo
            assert not check_tournament_imbalance(seq), combo

    @settings(max_examples=300, deadline=None)
    @given(
        st.sets(st.integers(0, 400), min_size=1, max_size=5),
        st.sets(st.integers(1, 400), min_size=1, max_size=5),
    )
    def test_every_expansion_is_a_digraph_sequence(self, non_negative, negative_abs):
        # The certificate builder relies on this without checking it (the
        # proof is in the sequences docstring); any two sides, any parity.
        parts = ImbalanceSet(non_negative, negative_abs)
        assume(parts.non_negative_sum > 0)  # else refused: test_zero_with_only_negatives_is_rejected
        runs = parts.canonical_runs()
        seq = canonical_sequence(parts)
        assert seq == tuple(v for v, count in runs for _ in range(count))
        assert [v for v, _ in runs] == sorted(parts.members(), reverse=True)
        assert len(seq) == parts.canonical_length
        assert check_digraph_imbalance(seq), runs
