import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import imbalanceset.digraph
import imbalanceset.realize
import imbalanceset.tis
import reference_apex
import reference_equalsum
from conftest import triangle_cycle
from imbalanceset import (
    REFUSAL_MIXED_PARITY,
    REFUSAL_NO_ODD_EQUAL_SUM,
    REFUSAL_ONE_SIDED,
    Digraph,
    EqualSumWitness,
    ImbalanceSet,
    ResourceLimitError,
    add_apex_zero,
    add_arcs,
    canonical_sequence,
    decide_tis,
    max_realization,
    order_upper_bound,
    realize_imbalance_set,
)
from imbalanceset.digraph import _check_packed
from imbalanceset.errors import MAX_MATRIX_ORDER, SEARCH_WORK_CAP
from imbalanceset.realize import _certified


class TestDecide:
    def test_zero_alone(self):
        d = decide_tis({0}, with_certificate=True)
        assert d.verdict and d.order == 1
        assert d.certificate.n == 1
        assert d.certificate == Digraph(1)

    def test_example_even_pair_is_refused(self):
        d = decide_tis({6, -10})
        assert not d.verdict
        assert d.refusal == REFUSAL_NO_ODD_EQUAL_SUM

    def test_matched_power_pair_is_refused(self):
        assert decide_tis({2, -2}).refusal == REFUSAL_NO_ODD_EQUAL_SUM

    def test_three_member_even_set(self):
        d = decide_tis({4, 2, -2}, with_certificate=True)
        assert d.verdict and d.order == 13
        assert d.witness == EqualSumWitness((4,), (2, 2), 4)

    def test_odd_pair(self):
        d = decide_tis({3, -1}, with_certificate=True)
        assert d.verdict and d.order == 4
        assert d.certificate.imbalance_set() == {3, -1}

    def test_positive_only_is_one_sided(self):
        d = decide_tis({1, 2})
        assert d.refusal == REFUSAL_ONE_SIDED

    def test_refusal_precedence_sign_before_parity(self):
        # {1, 2} is both one-sided and mixed-parity; the sign check fires.
        assert decide_tis({1, 2}).refusal == REFUSAL_ONE_SIDED
        assert decide_tis({3, -2}).refusal == REFUSAL_MIXED_PARITY

    def test_zero_with_negatives_only_is_one_sided(self):
        assert decide_tis({0, -2}).refusal == REFUSAL_ONE_SIDED

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="nonempty"):
            decide_tis(set())

    def test_resource_cap(self):
        # The search's work 1 * 6 + 2 * 10**6 exceeds SEARCH_WORK_CAP: the
        # yes stands, without its order.  A certificate still raises, for
        # its matrix first, as the search's work is at most n.
        capped = "odd zero-sum search of work 2000006 exceeds the cap"
        assert decide_tis({10**6, -2, -6}) == (True, None, None, None, None, capped)
        with pytest.raises(ResourceLimitError, match="matrix cells"):
            decide_tis({10**6, -2, -6}, with_certificate=True)

    def test_a_certificate_search_is_never_refused(self):
        # decide_tis checks the order n against the matrix cap before the
        # search, whose work is at most n (fact 4 of equalsum); with a
        # certificate it has no path for a refused search.
        assert MAX_MATRIX_ORDER <= SEARCH_WORK_CAP

    def test_a_refused_search_keeps_the_verdict(self):
        # The 2-adic rule says yes in O(|Z|); only the order needs the search.
        d = decide_tis({4, -2000002, -6})
        assert d.verdict and d.refusal is None and d.order is None
        assert d.capped == "odd zero-sum search of work 2000010 exceeds the cap"
        with pytest.raises(ResourceLimitError, match="matrix cells"):
            decide_tis({4, -2000002, -6}, with_certificate=True)
        with pytest.raises(ResourceLimitError, match="matrix cells"):
            realize_imbalance_set({4, -2000002, -6})
        assert order_upper_bound({4, -2000002, -6}) == 4000031
        # Answered orders carry no cap message.
        assert decide_tis({4, 2, -2}).capped is None and decide_tis({6, -10}).capped is None

    def test_two_members_need_no_search(self):
        # Fact 5 of the equalsum docstring: k = (x + y)/g, S = lcm(x, y).
        # The search for {4, -1999998} would pass the work cap, and the
        # witness tables for {20000, -60004} the table cap, so neither runs.
        assert decide_tis({4, -1999998}).order == 2000002 + 1000001
        assert decide_tis({10**6, -2}).order == 1000002 + 500001
        sides = (20000,), (60004,)
        k, common = imbalanceset.tis._shortest_odd_zero_sum(*sides)
        assert (k, common) == (20001, 300020000)
        assert decide_tis({20000, -60004}).order == 80004 + k
        witness = imbalanceset.tis._lex_min_witness(*sides, k, common)
        assert witness == EqualSumWitness((20000,) * 15001, (60004,) * 5000, common)
        d = decide_tis({12, -2}, with_certificate=True)
        assert d.order == 14 + 7 and d.witness == EqualSumWitness((12,), (2,) * 6, 12)
        assert d.certificate.imbalance_set() == {12, -2}

    def test_two_members_match_the_search(self):
        for x in range(2, 40, 2):
            for y in range(2, 40, 2):
                d = decide_tis({x, -y}, with_certificate=True)
                witness = reference_equalsum.min_odd_equal_sum({x}, {y})
                assert d.witness == witness, (x, y)
                if witness is not None:
                    n = ImbalanceSet.from_values({x, -y}).canonical_length
                    assert d.order == n + witness.total_length, (x, y)

    def test_refusal_needs_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a no must not search")

        monkeypatch.setattr(imbalanceset.tis, "_shortest_odd_zero_sum", no_search)
        d = decide_tis({2, -2000002})
        assert d.refusal == REFUSAL_NO_ODD_EQUAL_SUM

    def test_orders_that_need_no_search_are_not_capped(self):
        assert decide_tis({1, -1000001}).order == 1000002
        assert decide_tis({0, 2, -1000000}).order == 2000003
        assert decide_tis({1, -(10**30 + 1)}).order == 10**30 + 2
        assert order_upper_bound({1, -1000001}) == 1000002

    def test_search_at_the_cap_runs(self):
        # Work |X| * max|Y| + |Y| * max X = 999998, just under the cap; k is
        # 125001, one 250000 against 125000 twos (a pair would not search).
        assert decide_tis({250000, -2, -499998}).order == 1000000 + 125001

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 30).map(lambda v: 2 * v), min_size=2, max_size=4, unique=True),
        st.data(),
    )
    def test_search_cap_spares_every_set_of_order_up_to_the_cap(self, magnitudes, data):
        # Fact 4 of the equalsum docstring: the search's work is at most
        # n.  A mixed-valuation set scaled by f keeps k and multiplies n
        # by f, so scaling to just under the cap must still decide it.
        cut = data.draw(st.integers(1, len(magnitudes) - 1))
        small = frozenset(magnitudes[:cut]) | frozenset(-v for v in magnitudes[cut:])
        assume(decide_tis(small).verdict)
        n_small = ImbalanceSet.from_values(small).canonical_length
        scale = SEARCH_WORK_CAP // n_small
        members = frozenset(scale * v for v in small)
        n = ImbalanceSet.from_values(members).canonical_length
        assert SEARCH_WORK_CAP - n_small < n <= SEARCH_WORK_CAP
        k = decide_tis(members).order - n
        assert k == decide_tis(small).order - n_small

    def test_members_must_be_integers(self):
        with pytest.raises(TypeError):
            decide_tis({1.5, -1.2}, with_certificate=True)
        with pytest.raises(TypeError):
            order_upper_bound({1.5, -1.5})
        assert decide_tis(np.array([4, 2, -2])).order == 13
        assert order_upper_bound(np.array([4, 2, -2])) == 19

    def test_matrix_cap_is_checked_before_the_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the equal-sum search must not start")

        monkeypatch.setattr(imbalanceset.tis, "_shortest_odd_zero_sum", no_search)
        monkeypatch.setattr(imbalanceset.tis, "_lex_min_witness", no_search)
        with pytest.raises(ResourceLimitError, match="matrix cells"):
            realize_imbalance_set({4, -39998})

    def test_final_order_is_capped_before_the_base_matrix(self, monkeypatch):
        # Base order 30006 fits the matrix cap; the completed order
        # 30006 + 15003 does not, and is refused before any matrix.
        def no_matrix(*args):
            raise AssertionError("no base matrix may be built")

        monkeypatch.setattr(imbalanceset.realize, "_zeros", no_matrix)
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="order 45009 "):
            realize_imbalance_set({4, -30002})
        assert time.perf_counter() - t0 < 1.0

    def test_large_yes_needs_no_witness_tables(self):
        # The witness tables would take about 10^13 bits; the order
        # needs only the search over the Steinitz window.
        t0 = time.perf_counter()
        d = decide_tis({20000, -60004})
        assert time.perf_counter() - t0 < 1.0
        assert d.verdict and d.order == 100005 and d.witness is None

    def test_large_yes_certificate_is_refused_on_the_matrix_cap(self):
        with pytest.raises(ResourceLimitError, match="matrix cells"):
            realize_imbalance_set({20000, -60004})

    def test_decision_without_certificate_is_fast_and_bare(self):
        d = decide_tis({9, 7, -5, -9})
        assert d.verdict and d.certificate is None and d.order == 60


class TestRealizeSet:
    def test_single_arc_tournament(self):
        g = realize_imbalance_set({1, -1})
        assert g.n == 2 and g.arc_count == 1

    def test_three_member_even_set_realizes_at_thirteen(self):
        g = realize_imbalance_set({4, 2, -2})
        assert g.n == 13
        assert g.imbalance_sequence() == (4, 4, 4, 2, 2, -2, -2, -2, -2, -2, -2, -2, -2)

    def test_zero_bearing_even_set_uses_one_extra_vertex(self):
        g = realize_imbalance_set({2, 0, -2})
        assert g.n == 7
        assert g.imbalance_set() == {2, 0, -2}

    def test_unrealizable_set_is_an_error(self):
        with pytest.raises(ValueError, match="one-sided"):
            realize_imbalance_set({1, 2, 3})

    def test_certificates_are_deterministic(self):
        assert realize_imbalance_set({4, -6}) == realize_imbalance_set({4, -6})


class TestAddApexZero:
    def test_on_expanded_zero_bearing_set(self):
        seq = canonical_sequence(ImbalanceSet.from_values({2, 0, -2}))
        report = max_realization(seq)
        grown = add_apex_zero(report)
        assert grown.n == 7
        assert grown.imbalance_set() == {2, 0, -2}

    def test_on_square_cycle(self):
        report = max_realization([0, 0, 0, 0])
        grown = add_apex_zero(report)
        assert grown.n == 5
        assert grown.imbalance_set() == {0}

    def test_on_two_isolated_vertices_yields_the_cyclic_triangle(self):
        report = max_realization([0, 0])
        grown = add_apex_zero(report)
        assert grown.n == 3
        assert grown.imbalance_set() == {0}
        assert grown == triangle_cycle() or sorted(grown.out_degrees().tolist()) == [1, 1, 1]

    def test_rejects_non_near_tournament(self):
        report = max_realization([2, 0, -2])
        with pytest.raises(ValueError, match="near tournament"):
            add_apex_zero(report)


class TestAddArcs:
    def test_three_new_vertices(self):
        seq = canonical_sequence(ImbalanceSet.from_values({4, 2, -2}))
        report = max_realization(seq)
        grown = add_arcs(report, EqualSumWitness((4,), (2, 2), 4))
        assert grown.n == 13
        assert grown.imbalance_set() == {4, 2, -2}

    def test_witness_sum_may_exceed_base_order(self):
        # {4, -6} expands to order 10 but the only odd-total witness
        # sums to 12, so pairs host several couples each.
        parts = ImbalanceSet.from_values({4, -6})
        report = max_realization(canonical_sequence(parts))
        grown = add_arcs(report, EqualSumWitness((4, 4, 4), (6, 6), 12))
        assert grown.n == 15
        assert grown.imbalance_set() == {4, -6}

    def test_mirrored_witness(self):
        parts = ImbalanceSet.from_values({2, -4})
        report = max_realization(canonical_sequence(parts))
        grown = add_arcs(report, EqualSumWitness((2, 2), (4,), 4))
        assert grown.n == 9
        assert grown.imbalance_set() == {2, -4}

    def test_preserves_base_imbalances(self):
        parts = ImbalanceSet.from_values({8, -6})
        report = max_realization(canonical_sequence(parts))
        before = list(report.graph.imbalances())
        grown = add_arcs(report, EqualSumWitness((8, 8, 8), (6, 6, 6, 6), 24))
        after = list(grown.imbalances())[: report.graph.n]
        assert before == after
        new = sorted(grown.imbalances()[report.graph.n :], reverse=True)
        assert new == [8, 8, 8, -6, -6, -6, -6]

    def test_even_total_witness_is_rejected(self):
        report = max_realization([0, 0, 0, 0])
        with pytest.raises(ValueError, match="odd"):
            add_arcs(report, EqualSumWitness((2,), (2,), 2))

    def test_oversized_entry_is_rejected(self):
        report = max_realization([0, 0, 0, 0])
        with pytest.raises(ValueError, match="capacity"):
            add_arcs(report, EqualSumWitness((6,), (2, 4), 6))

    def test_a_pairing_that_is_not_the_unjoined_pairs_is_rejected(self):
        # The completion sets each pair's arc by flipping its cell, so a
        # pairing that names a joined pair, misses a pair or leaves the
        # graph's range would build a wrong graph without this check.
        report = max_realization(canonical_sequence(ImbalanceSet.from_values({4, 2, -2})))
        pairs = report.non_neighbour_pairing
        assert pairs[:2] == ((0, 1), (2, 3))
        for forged in (((0, 2), (1, 3), *pairs[2:]), pairs[1:], (*pairs[:-1], (8, 10))):
            with pytest.raises(ValueError):
                add_apex_zero(report._replace(non_neighbour_pairing=forged))

    def test_degenerate_witness_matches_the_apex_construction(self):
        for seq in (
            [0, 0, 0, 0],
            canonical_sequence(ImbalanceSet.from_values({2, 0, -2})),
            canonical_sequence(ImbalanceSet.from_values({0, 2, -3470})),  # order 6943
        ):
            report = max_realization(seq)
            assert add_apex_zero(report) == reference_apex.add_apex_zero(report), len(seq)

    def test_peak_memory_is_the_matrices_plus_one_band(self):
        # Traced peak <= final packed matrix + the band buffer of _fill +
        # 128 bytes for each of the k + 3n/2 + S intervals the completion
        # writes (new rows, pair rows, owner cells; 10,024 here); the
        # base's packed rows are the caller's.  Order 5013 from a base of
        # order 3342: 3.1 + 0.3 + 1.3 MB; an unpacked matrix (25.1 MB) or
        # a second packed one would not fit, and whole-array roles took
        # 98 MB.
        parts = ImbalanceSet.from_values({2, -3340})
        sides = parts.non_negative[::-1], parts.negative_abs
        witness = imbalanceset.tis._lex_min_witness(*sides, *imbalanceset.tis._shortest_odd_zero_sum(*sides))
        report = max_realization(canonical_sequence(parts))
        n = report.graph.n
        total = n + witness.total_length
        tracemalloc.start()
        try:
            grown = add_arcs(report, witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grown.n == total == 5013
        intervals = witness.total_length + 3 * n // 2 + witness.common_sum
        assert peak <= total * -(-total // 8) + imbalanceset.digraph._FILL + 128 * intervals


class TestCertificateCheck:
    def test_rejects_opposing_arcs_that_degree_checks_accept(self):
        adj = np.zeros((4, 4), dtype=np.uint8)
        for u, v in [(0, 1), (1, 0), (2, 3), (3, 2), (0, 3), (1, 2)]:
            adj[u, v] = 1
        forged = Digraph._from_bits(np.packbits(adj, axis=1, bitorder="little"))
        assert forged.is_tournament() and forged.imbalance_set() == {1, -1}
        with pytest.raises(AssertionError, match="opposing"):
            _certified(forged._bits, frozenset({1, -1}), 4, _check_packed)

    def test_rejects_a_missing_pair(self):
        # A transitive tournament of order 4 without its arc 0 -> 3: a
        # simple oriented graph whose out-degrees sum to one short of 6.
        adj = np.triu(np.ones((4, 4), dtype=np.uint8), 1)
        adj[0, 3] = 0
        forged = Digraph.from_matrix(adj)
        with pytest.raises(AssertionError, match="certificate is not a tournament"):
            _certified(forged._bits, frozenset({2, 1, -1, -3}), 4, _check_packed)

    def test_rejects_a_wrong_order(self):
        # A right certificate for {3, -1}, checked against another order.
        graph = realize_imbalance_set({3, -1})
        assert _certified(graph._bits, frozenset({3, -1}), 4, _check_packed) == graph
        with pytest.raises(AssertionError, match="certificate order 4, expected 5"):
            _certified(graph._bits, frozenset({3, -1}), 5, _check_packed)

    def test_rejects_a_wrong_member_set(self):
        graph = realize_imbalance_set({3, -1})
        with pytest.raises(AssertionError, match="certificate imbalance set mismatch"):
            _certified(graph._bits, frozenset({3, -3}), 4, _check_packed)


class TestOrderBounds:
    def test_odd_set_exact(self):
        assert order_upper_bound({3, -1}) == 4

    def test_even_with_zero(self):
        assert order_upper_bound({2, 0, -2}) == 7

    def test_even_without_zero(self):
        assert order_upper_bound({4, 2, -2}) == 19

    def test_zero_alone(self):
        assert order_upper_bound({0}) == 1

    def test_unrealizable_is_an_error(self):
        with pytest.raises(ValueError, match="not a tournament imbalance set"):
            order_upper_bound({6, -10})

    def test_constructions_respect_their_bounds(self):
        for values in ({3, -1}, {1, -1}, {4, 2, -2}, {2, 0, -2}, {4, -6}, {8, -6}):
            g = realize_imbalance_set(values)
            assert g.n <= order_upper_bound(values)


class TestCharacterizationSweep:
    def test_small_mixed_parity_grid(self):
        for combo in itertools.combinations((-4, -3, -1, 2, 3, 5), 2):
            members = set(combo)
            d = decide_tis(members)
            has_pos = any(v > 0 for v in members)
            has_neg = any(v < 0 for v in members)
            parities = {v % 2 for v in members}
            if not (has_pos and has_neg):
                assert d.refusal == REFUSAL_ONE_SIDED
            elif len(parities) > 1:
                assert d.refusal == REFUSAL_MIXED_PARITY

    def test_every_odd_both_signed_pair_realizes(self):
        for x in (1, 3, 5):
            for y in (1, 3, 5):
                members = {x, -y}
                d = decide_tis(members, with_certificate=True)
                parts = ImbalanceSet.from_values(members)
                assert d.verdict
                assert d.certificate.n == parts.canonical_length
                assert d.certificate.imbalance_set() == members

    def test_full_sweep_against_first_principles(self):
        # Every set of up to three values from [-8, 8]; the expected
        # verdict is recomputed from scratch per the characterization:
        # {0} alone, both signs, uniform parity, and (for even sets) an
        # odd-length zero-sum multiset found by plain enumeration.
        from imbalanceset import brute_zero_sum_min_odd

        universe = range(-8, 9)
        for size in (1, 2, 3):
            for combo in itertools.combinations(universe, size):
                members = frozenset(combo)
                decision = decide_tis(members)
                if members == {0}:
                    assert decision.verdict
                    continue
                has_pos = any(v > 0 for v in members)
                has_neg = any(v < 0 for v in members)
                if not (has_pos and has_neg):
                    assert decision.refusal == REFUSAL_ONE_SIDED, members
                    continue
                if len({v % 2 for v in members}) > 1:
                    assert decision.refusal == REFUSAL_MIXED_PARITY, members
                    continue
                if next(iter(members)) % 2:
                    assert decision.verdict, members
                    continue
                parts = ImbalanceSet.from_values(members)
                witness_len = brute_zero_sum_min_odd(
                    members, parts.canonical_length - 1
                )
                assert decision.verdict == (witness_len is not None), members


class TestRandomizedCrossCheck:
    def test_even_sets_against_the_zero_sum_oracle(self):
        import random

        from imbalanceset import brute_zero_sum_min_odd

        rng = random.Random(271828)
        for _ in range(120):
            pos = rng.sample([2, 4, 6, 8, 10], rng.randint(1, 2))
            neg = rng.sample([-2, -4, -6, -8, -10], rng.randint(1, 2))
            members = frozenset(pos) | frozenset(neg)
            parts = ImbalanceSet.from_values(members)
            expected = (
                brute_zero_sum_min_odd(members, parts.canonical_length - 1)
                is not None
            )
            decision = decide_tis(members, with_certificate=expected)
            assert decision.verdict == expected, members
            if expected:
                assert decision.certificate.imbalance_set() == members
