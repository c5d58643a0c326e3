import itertools
import time

import pytest

from imbalanceset import (
    ResourceLimitError,
    brute_min_order,
    brute_zero_sum_min_odd,
    enumerate_tournaments,
    min_odd_equal_sum,
    order_upper_bound,
)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_tournaments(2)) == 2
        assert sum(1 for _ in enumerate_tournaments(3)) == 8
        assert sum(1 for _ in enumerate_tournaments(4)) == 64

    def test_all_distinct_and_all_tournaments(self):
        seen = set()
        for g in enumerate_tournaments(4):
            assert g.is_tournament()
            seen.add(tuple(g.arcs()))
        assert len(seen) == 64

    def test_work_cap_allows_order_7_and_refuses_8(self):
        assert next(enumerate_tournaments(7)).is_tournament()
        with pytest.raises(ResourceLimitError, match="2\\^28"):
            next(enumerate_tournaments(8))
        with pytest.raises(ResourceLimitError):
            next(enumerate_tournaments(10**6))

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="order must be positive"):
            next(enumerate_tournaments(0))


class TestBruteZeroSum:
    def test_two_against_four(self):
        assert brute_zero_sum_min_odd({2, -4}, 9) == 3

    def test_matched_pair_has_none(self):
        assert brute_zero_sum_min_odd({2, -2}, 9) is None

    def test_coprime_scaled_pair_has_none(self):
        assert brute_zero_sum_min_odd({6, -10}, 15) is None

    def test_zero_member_gives_length_one(self):
        assert brute_zero_sum_min_odd({2, 0, -2}, 9) == 1

    def test_searches_past_length_64(self):
        # 64 copies of 63 against 63 of -64.
        assert brute_zero_sum_min_odd({63, -64}, 200) == 127

    def test_empty_set_and_nonpositive_length_are_refused(self):
        with pytest.raises(ValueError, match="value set must be nonempty"):
            brute_zero_sum_min_odd([], 3)
        with pytest.raises(ValueError, match="len_max must be positive"):
            brute_zero_sum_min_odd([1, -1], 0)

    def test_members_must_be_integers(self):
        with pytest.raises(TypeError):
            brute_zero_sum_min_odd({2.7, -1.2}, 9)
        with pytest.raises(TypeError):
            brute_min_order({2.0, -2.0}, 9)

    def test_work_cap_refuses_instead_of_answering_none(self):
        members = {18, 14, 10, 6, 2, -2, -6, -10, -14, -18}
        with pytest.raises(ResourceLimitError):
            brute_zero_sum_min_odd(members, 63)

    def test_length_clamp_changes_no_answer(self):
        # Every 2-3 member set from [-12, 12], mixed parity included,
        # against a plain loop over every length up to 49, which keeps
        # the sums of all k-term multisets.
        def unclamped(members, len_max):
            sums = {0}
            for k in range(1, len_max + 1):
                sums = {s + v for s in sums for v in members}
                if k % 2 and 0 in sums:
                    return k
            return None

        for r in (2, 3):
            for combo in itertools.combinations(range(-12, 13), r):
                assert brute_zero_sum_min_odd(combo, 49) == unclamped(combo, 49), combo

    def test_agrees_with_dp_search(self):
        cases = [({4}, {2}), ({2}, {4}), ({8}, {6}), ({2, 4}, {6}), ({6}, {10})]
        for xs, ys in cases:
            members = set(xs) | {-y for y in ys}
            witness = min_odd_equal_sum(xs, ys)
            brute = brute_zero_sum_min_odd(members, 63)
            if witness is None:
                assert brute is None
            else:
                assert brute == witness.total_length


class TestBruteMinOrder:
    def test_zero_alone(self):
        assert brute_min_order({0}, 5) == 1

    def test_empty_set_is_refused(self):
        with pytest.raises(ValueError, match="value set must be nonempty"):
            brute_min_order([], 3)

    def test_matched_odd_pair(self):
        assert brute_min_order({1, -1}, 5) == 2

    def test_three_member_even_set(self):
        # The constructive pipeline realizes this set at order 13; the
        # true minimum is 5 (sequence 4, 2, -2, -2, -2).
        exact = brute_min_order({4, 2, -2}, 13)
        assert exact == 5
        assert exact <= 13

    def test_searches_past_order_64(self):
        assert brute_min_order({64, -2}, 131) == 99

    def test_unrealizable_has_none(self):
        assert brute_min_order({6, -10}, 20) is None

    def test_work_counts_the_terms_of_each_case(self):
        # Work through order n is m * C(n + 1, m + 1): 3 * C(66, 4) =
        # 2,162,160 passes the cap at order 65.  Counting cases reached
        # the cap only at order 234, after more than a minute.
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="orders up to 65: work 2162160,"):
            brute_min_order({3, 1, -301}, 1000)
        assert time.perf_counter() - t0 < 10

    def test_minimum_is_within_the_guaranteed_bound(self):
        for values in ({3, -1}, {1, -1}, {2, 0, -2}, {4, -6}, {4, 2, -2}):
            bound = order_upper_bound(values)
            exact = brute_min_order(values, bound)
            assert exact is not None and exact <= bound
