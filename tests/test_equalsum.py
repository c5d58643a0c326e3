import itertools

import pytest

from imbalanceset import (
    EqualSumWitness,
    ImbalanceSet,
    brute_zero_sum_min_odd,
    min_odd_equal_sum,
    power_of_two_check,
    solve_esseq,
)


class TestWitnessInvariants:
    def test_sums_must_match(self):
        with pytest.raises(ValueError, match="sums"):
            EqualSumWitness((4,), (2,), 4)

    def test_both_sides_empty_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EqualSumWitness((), (), 0)

    def test_degenerate_zero_witness(self):
        w = EqualSumWitness((0,), (), 0)
        assert w.total_length == 1


class TestSolveEsseq:
    def test_no_witness_without_repeats(self):
        assert solve_esseq({3}, {2}, 1) is None

    def test_repeats_unlock_a_witness(self):
        w = solve_esseq({3}, {2}, 3)
        assert w == EqualSumWitness((3, 3), (2, 2, 2), 6)

    def test_shared_element(self):
        assert solve_esseq({2}, {2}, 1) == EqualSumWitness((2,), (2,), 2)

    def test_empty_side_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            solve_esseq(set(), {2}, 1)

    def test_repetition_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            solve_esseq({3}, {2}, 0)

    def test_zero_on_both_sides(self):
        assert solve_esseq({0, 3}, {0, 5}, 1) == EqualSumWitness((0,), (0,), 0)

    def test_single_repeat_matches_subset_enumeration(self):
        # With the cap at 1 the problem degenerates to equal-sum subsets
        # from two sets; compare against plain subset enumeration.
        cases = [
            ({1, 3, 9}, {2, 5}),
            ({4, 7}, {2, 3, 6}),
            ({10, 20, 31}, {1, 2, 4}),
            ({5, 8, 13, 21}, {3, 6, 9, 12}),
            ({2, 4, 8, 16, 32, 64}, {3, 9, 27, 81, 243, 729}),
        ]
        for xs, ys in cases:
            subset_sums = lambda vals: {
                sum(c)
                for r in range(1, len(vals) + 1)
                for c in itertools.combinations(vals, r)
            }
            expected = bool(subset_sums(xs) & subset_sums(ys))
            assert (solve_esseq(xs, ys, 1) is not None) == expected, (xs, ys)

    def test_witness_is_canonical(self):
        # Smallest common sum first, then fewest terms, then lex order.
        w = solve_esseq({2, 6}, {3}, 3)
        assert w == EqualSumWitness((6,), (3, 3), 6)


class TestMinOddEqualSum:
    def test_one_against_two(self):
        w = min_odd_equal_sum({4}, {2})
        assert w == EqualSumWitness((4,), (2, 2), 4)
        assert w.total_length == 3

    def test_matched_pair_has_no_odd_witness(self):
        assert min_odd_equal_sum({2}, {2}) is None

    def test_two_against_one(self):
        assert min_odd_equal_sum({2}, {4}) == EqualSumWitness((2, 2), (4,), 4)

    def test_coprime_ratio_forces_even_totals(self):
        assert min_odd_equal_sum({6}, {10}) is None

    def test_zero_short_circuit(self):
        assert min_odd_equal_sum({0, 4}, {6}) == EqualSumWitness((0,), (), 0)

    def test_odd_entries_are_rejected(self):
        with pytest.raises(ValueError, match="even"):
            min_odd_equal_sum({3}, {2})

    def test_empty_side_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            min_odd_equal_sum(set(), {2})

    def test_agrees_with_brute_force_on_a_grid(self):
        # Every nonempty X from {0,2,4,6,8} and |Y| from {2,4,6,8},
        # up to three members a side, against direct multiset search.
        pool_x = (0, 2, 4, 6, 8)
        pool_y = (2, 4, 6, 8)
        for xr in range(1, 4):
            for xs in itertools.combinations(pool_x, xr):
                for yr in range(1, 4):
                    for ys in itertools.combinations(pool_y, yr):
                        parts = ImbalanceSet(xs, ys)
                        order = parts.canonical_length
                        witness = min_odd_equal_sum(xs, ys)
                        members = set(xs) | {-y for y in ys}
                        brute = brute_zero_sum_min_odd(members, order - 1)
                        if witness is None:
                            assert brute is None, (xs, ys)
                        else:
                            assert brute == witness.total_length, (xs, ys)
                            assert witness.total_length < order

    def test_minimal_length_with_competing_sums(self):
        # [2,2,2] vs [6] has even total; the shortest odd pairing is
        # three terms against two at common sum 12.
        w = min_odd_equal_sum({2, 8}, {6})
        assert w == EqualSumWitness((2, 2, 8), (6, 6), 12)

    def test_tie_break_prefers_smaller_common_sum_then_lex(self):
        # [6] vs [6] has even total; among length-3 witnesses the xs is
        # the lexicographically smallest two-term split of 6.
        w = min_odd_equal_sum({2, 4, 6}, {6})
        assert w == EqualSumWitness((2, 4), (6,), 6)
        assert w == min_odd_equal_sum({2, 4, 6}, {6})  # deterministic


class TestPowerOfTwo:
    def test_power_with_companion(self):
        assert power_of_two_check(ImbalanceSet.from_values({4, -6}))

    def test_lone_power_pair_is_excluded(self):
        assert not power_of_two_check(ImbalanceSet.from_values({2, -2}))
        assert not power_of_two_check(ImbalanceSet.from_values({8, -8}))

    def test_no_power_is_inconclusive(self):
        assert not power_of_two_check(ImbalanceSet.from_values({6, -10}))

    def test_same_valuation_companion_does_not_qualify(self):
        # 6 = 3 * 2 shares the valuation of 2, so every equal-sum pair
        # over {2, -6} has even total length; the check must say false.
        assert not power_of_two_check(ImbalanceSet.from_values({2, -6}))
        assert min_odd_equal_sum({2}, {6}) is None

    def test_negative_power_counts(self):
        assert power_of_two_check(ImbalanceSet.from_values({6, -4}))

    def test_distinct_powers_are_fine(self):
        assert power_of_two_check(ImbalanceSet.from_values({4, -2}))

    def test_zero_member_is_rejected(self):
        with pytest.raises(ValueError, match="0"):
            power_of_two_check(ImbalanceSet.from_values({4, 0, -2}))

    def test_odd_members_are_rejected(self):
        with pytest.raises(ValueError, match="even"):
            power_of_two_check(ImbalanceSet.from_values({3, -2}))

    def test_true_implies_a_witness_exists(self):
        pool = (2, 4, 6, 8, 10, 12, 16)
        for x in pool:
            for y in pool:
                parts = ImbalanceSet.from_values({x, -y})
                if x == y and not power_of_two_check(parts):
                    continue
                if power_of_two_check(parts):
                    assert min_odd_equal_sum({x}, {y}) is not None, (x, y)
