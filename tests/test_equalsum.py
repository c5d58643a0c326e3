import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import imbalanceset
import reference_equalsum
from imbalanceset import (
    REFUSAL_NO_ODD_EQUAL_SUM,
    EqualSumWitness,
    ImbalanceSet,
    ResourceLimitError,
    brute_zero_sum_min_odd,
    decide_tis,
    min_odd_equal_sum,
    solve_esseq,
)
from imbalanceset.equalsum import _bounded_lex_min


class TestWitnessInvariants:
    def test_sums_must_match(self):
        with pytest.raises(ValueError, match="sums"):
            EqualSumWitness((4,), (2,), 4)

    def test_both_sides_empty_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EqualSumWitness((), (), 0)

    def test_one_sided_witness_must_sum_to_zero(self):
        with pytest.raises(ValueError, match="one-sided witness must have sum zero"):
            EqualSumWitness((2,), (), 2)

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

    def test_zero_on_one_side_only(self):
        # A lone 0 adds no sum: the tables skip it, and it is no witness.
        assert solve_esseq({0, 3}, {2}, 3) == EqualSumWitness((3, 3), (2, 2, 2), 6)
        assert solve_esseq({0}, {5}, 1) is None

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

    def test_long_witness_needs_no_deep_recursion(self):
        # A thousand copies of one value: the walk was one recursion
        # level per term and raised RecursionError.
        w = solve_esseq({1}, {1000}, 1000)
        assert w.xs == (1,) * 1000 and w.ys == (1000,) and w.common_sum == 1000

    def test_a_long_witness_skips_the_counts_that_cannot_reach_it(self):
        # 16,000 ones: tried from one term up, the counts below 16,000
        # took 61 s; fewer terms of at most 1 cannot sum to 16,000.
        w = solve_esseq({1}, {16000}, 16000)
        assert w == EqualSumWitness((1,) * 16000, (16000,), 16000)

    # (values, cap, sum, witness).  The least count, ceil(sum / max
    # value), has a walk in the first three; the cap pushes the last two
    # past it; 0 is never a term.
    @pytest.mark.parametrize(
        "values, max_repeats, target, want",
        [
            ((1,), 16000, 16000, (1,) * 16000),
            ((1, 7), 300, 700, (7,) * 100),
            ((2, 3), 500, 1501, (2, 2) + (3,) * 499),
            ((1, 10), 3, 32, (1, 1, 10, 10, 10)),
            ((0, 1, 2), 1, 3, (1, 2)),
        ],
        ids=["ones", "all-largest", "two-small", "cap-binds", "zero-skipped"],
    )
    def test_bounded_lex_min_starts_at_the_least_count(self, values, max_repeats, target, want):
        assert _bounded_lex_min(values, max_repeats, target) == want

    def test_the_last_value_fills_a_long_remainder_at_once(self):
        # 3c + 1 = 2 * 2 + 3 * (c - 1): the walk tried each count of 3s
        # from c down at every count of 2s, 4.7 s at c = 5,000.  The
        # reference loop gives that witness at c = 50 (at c = 500 it
        # takes seconds).
        assert reference_equalsum.bounded_lex_min((2, 3), 50, 151) == (2, 2) + (3,) * 49
        c = 5000
        t0 = time.perf_counter()
        w = _bounded_lex_min((2, 3), c, 3 * c + 1)
        assert time.perf_counter() - t0 < 1.0
        assert w == (2, 2) + (3,) * (c - 1)

    def test_tables_stop_at_the_least_members_common_multiple(self):
        # y0/g copies of x0 against x0/g copies of y0 bound the least
        # common sum by lcm(x0, y0), far below max_repeats * min side sum.
        assert solve_esseq({1}, {1}, 10**8) == EqualSumWitness((1,), (1,), 1)
        assert solve_esseq({6, 10}, {15}, 10**7) == EqualSumWitness((10, 10, 10), (15, 15), 30)

    def test_zero_on_both_sides_needs_no_table(self):
        assert solve_esseq({0, 10**9}, {0, 10**9}, 10**8) == EqualSumWitness((0,), (0,), 0)

    def test_a_common_multiple_beyond_the_cap_is_refused(self):
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            solve_esseq({2**30 + 1}, {2**30}, 2**31)


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
        # The nonzero members of {0, -2} share one valuation, yet 0 completes.
        assert min_odd_equal_sum({0}, {2}) == EqualSumWitness((0,), (), 0)

    def test_odd_entries_are_rejected(self):
        with pytest.raises(ValueError, match="even"):
            min_odd_equal_sum({3}, {2})

    def test_empty_side_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            min_odd_equal_sum(set(), {2})

    def test_signs_are_checked(self):
        with pytest.raises(ValueError, match="x side must contain non-negative integers"):
            min_odd_equal_sum([-2], [2])
        with pytest.raises(ValueError, match="y side magnitudes must be positive"):
            min_odd_equal_sum([2], [0])

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


class TestTwoAdicRule:
    """An even set without 0 has an odd-total equal-sum pair exactly
    when its members do not all share one 2-adic valuation."""

    @pytest.mark.parametrize(
        "members", [{2, -6}, {6, -10}, {8, -8}], ids=["2,-6", "6,-10", "8,-8"]
    )
    def test_shared_valuation_is_no(self, members):
        parts = ImbalanceSet.from_values(members)
        assert min_odd_equal_sum(parts.non_negative, parts.negative_abs) is None
        assert decide_tis(members).refusal == REFUSAL_NO_ODD_EQUAL_SUM

    @pytest.mark.parametrize(
        "members", [{4, -6}, {6, -4}, {12, -8, -24}], ids=["4,-6", "6,-4", "12,-8,-24"]
    )
    def test_differing_valuations_are_yes(self, members):
        parts = ImbalanceSet.from_values(members)
        witness = min_odd_equal_sum(parts.non_negative, parts.negative_abs)
        assert witness is not None and witness.total_length % 2 == 1
        assert decide_tis(members).verdict

    def test_agrees_with_brute_force_on_a_grid(self):
        # Every mixed-sign set of 2-3 members from +-{2, 4, ..., 20}.
        pool = [v for v in range(2, 21, 2)] + [-v for v in range(2, 21, 2)]
        checked = 0
        for r in (2, 3):
            for combo in itertools.combinations(pool, r):
                if not (min(combo) < 0 < max(combo)):
                    continue
                order = ImbalanceSet.from_values(combo).canonical_length
                brute = brute_zero_sum_min_odd(combo, order - 1)
                assert decide_tis(combo).verdict == (brute is not None), combo
                checked += 1
        assert checked == 1_000


class TestPowerOfTwo:
    """A power of two with a companion of another 2-adic valuation is the
    special case of the rule above that an earlier shortcut decided."""

    def test_distinct_powers_are_fine(self):
        witness = min_odd_equal_sum({4}, {2})
        assert witness is not None and witness.total_length % 2 == 1
        assert decide_tis({4, -2}).verdict

    def test_true_implies_a_witness_exists(self):
        pool = (2, 4, 6, 8, 10, 12, 16)
        for x in pool:
            for y in pool:
                witness = min_odd_equal_sum({x}, {y})
                if (x & -x) != (y & -y):
                    assert witness is not None, (x, y)
                    assert witness.total_length % 2 == 1, (x, y)
                else:
                    assert witness is None, (x, y)


class TestWitnessTableCap:
    def test_oversized_tables_are_refused_before_they_are_built(self):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="table bits"):
            min_odd_equal_sum({20000, 40000}, {60004})
        assert time.perf_counter() - t0 < 1.0


class TestSearchWorkCap:
    def test_oversized_search_is_refused_before_it_starts(self):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="search of work 10000006 "):
            min_odd_equal_sum([4], [6, 10**7 - 2])
        assert time.perf_counter() - t0 < 0.1


class TestPairsInClosedForm:
    """Fact 5 of the equalsum docstring: {x, -y} has one shortest odd
    witness, y/g copies of x against x/g copies of y, and neither the
    search cap nor the table cap refuses it."""

    def test_a_pair_past_the_table_cap_answers(self):
        t0 = time.perf_counter()
        w = min_odd_equal_sum({20000}, {60004})
        assert time.perf_counter() - t0 < 1.0
        assert w == EqualSumWitness((20000,) * 15001, (60004,) * 5000, 300020000)
        assert w.total_length == 20001

    def test_a_pair_past_the_search_cap_answers(self):
        w = min_odd_equal_sum([4], [10**7 - 2])
        assert w.total_length == 5000001 and w.common_sum == 2 * (10**7 - 2)
        assert w.xs == (4,) * 4999999 and w.ys == (10**7 - 2,) * 2

    def test_a_pair_witness_too_long_to_hold_is_refused_before_it_is_built(self):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="length 500000000001 "):
            min_odd_equal_sum([2], [10**12])
        assert time.perf_counter() - t0 < 0.1


class TestLexMinTerms:
    def test_inconsistent_tables_raise_when_no_value_fits(self):
        # Sum 2 from one term, where the tables say some term reaches it but
        # 2 leaves 0 unreachable and 4 is past the remainder.  Run in a child,
        # so that a walk which spins instead of raising fails by the timeout.
        code = (
            "from imbalanceset.equalsum import _lex_min_terms\n"
            "_lex_min_terms((2, 4), [0, 0b100], 2, [1])"
        )
        src = Path(imbalanceset.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=30,
        )
        assert done.returncode == 1
        assert done.stderr.endswith("AssertionError: reachability tables are inconsistent\n")


class TestIntegerInputs:
    def test_sides_must_be_integers(self):
        with pytest.raises(TypeError):
            solve_esseq([1.5], [1], 1)
        with pytest.raises(TypeError):
            min_odd_equal_sum([4.0], [2])

    def test_numpy_integers_are_integers(self):
        assert solve_esseq(np.array([3]), [np.int32(2)], 3) == solve_esseq([3], [2], 3)
