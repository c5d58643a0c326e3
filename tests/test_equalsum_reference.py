"""The Steinitz-window search against the dynamic program it replaced.

``reference_equalsum.min_odd_equal_sum`` is the replaced layered DP
over every sum up to (n - 1) * min(max X, max |Y|).  The program's
search must return the same whole witness (xs, ys and common sum, or
None) on every set of the grid, and its length must be the one the
brute-force oracle finds.  The bounded walk of ``solve_esseq`` must
return what the recursive walk it replaced returns, and its count loop
what the loop from one term up returned.
"""

import itertools
import random

import pytest

import reference_equalsum
from imbalanceset import (
    REFUSAL_NO_ODD_EQUAL_SUM,
    ImbalanceSet,
    brute_zero_sum_min_odd,
    decide_tis,
    min_odd_equal_sum,
)
from imbalanceset.cli import main
from imbalanceset.equalsum import _bounded_lex_min, _bounded_sum_rows, _bounded_walk


def _grid():
    """Every mixed-sign set of 2-4 members from +-{2, 4, ..., 16}."""
    pool = [v for v in range(2, 17, 2)] + [-v for v in range(2, 17, 2)]
    for r in (2, 3, 4):
        for combo in itertools.combinations(pool, r):
            if min(combo) < 0 < max(combo):
                yield ImbalanceSet.from_values(combo)


def test_the_grid_has_every_mixed_sign_set():
    assert sum(1 for _ in _grid()) == 2_192


def test_witnesses_match_the_replaced_search():
    for parts in _grid():
        new = min_odd_equal_sum(parts.non_negative, parts.negative_abs)
        old = reference_equalsum.min_odd_equal_sum(parts.non_negative, parts.negative_abs)
        assert new == old, parts.members()


def test_bounded_walk_matches_the_recursive_walk():
    found = 0
    for r in (1, 2, 3):
        for values in itertools.combinations((1, 2, 3, 5, 7, 8), r):
            for max_repeats, target, count in itertools.product(
                (1, 2, 3), range(21), range(7)
            ):
                new = _bounded_walk(values, max_repeats, target, count)
                old = reference_equalsum.bounded_walk(values, max_repeats, target, count)
                assert new == old, (values, max_repeats, target, count)
                found += new is not None
    assert found > 1000


@pytest.mark.parametrize("max_repeats", range(1, 7))
def test_bounded_lex_min_matches_the_loop_from_one_term(max_repeats):
    rng = random.Random(max_repeats)
    cases = 0
    while cases < 1000:
        values = tuple(sorted(set(rng.choices(range(30), k=rng.randint(1, 4)))))
        reach = _bounded_sum_rows(values, max_repeats, 81)
        for target in range(1, 81):
            if reach >> target & 1:
                old = reference_equalsum.bounded_lex_min(values, max_repeats, target)
                assert _bounded_lex_min(values, max_repeats, target) == old, (values, max_repeats, target)
                cases += 1


def test_lengths_match_the_oracle():
    # On a yes the oracle searches up to the found length, which checks
    # both that it is reachable and that no shorter odd length is.  On a
    # no it searches the lengths below the canonical order only up to
    # max Z - min Z, as its docstring proves no shortest one is longer.
    for parts in _grid():
        members = parts.members()
        witness = min_odd_equal_sum(parts.non_negative, parts.negative_abs)
        if witness is None:
            assert brute_zero_sum_min_odd(members, parts.canonical_length - 1) is None, members
        else:
            k = witness.total_length
            assert brute_zero_sum_min_odd(members, k) == k, members
            assert decide_tis(members).order == parts.canonical_length + k, members


class TestBaselineRows:
    """Inputs on which the replaced search took 95.5 s and 50.7 s."""

    def test_shared_valuation_pair_is_no(self):
        d = decide_tis({2, -199998})
        assert not d.verdict and d.refusal == REFUSAL_NO_ODD_EQUAL_SUM

    def test_large_pair_is_yes(self):
        d = decide_tis({4, -99998})
        assert d.verdict and d.order == 150003

    def test_cli_refuses_the_shared_valuation_pair(self, capsys):
        assert main(["decide", "2,-199998"]) == 2
        assert capsys.readouterr().out.strip() == f"no: {REFUSAL_NO_ODD_EQUAL_SUM}"

