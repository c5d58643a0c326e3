import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_simple_digraphs, square_cycle, triangle_cycle, triangle_transitive
from imbalanceset import Digraph, DoubledPairError, ResourceLimitError
from imbalanceset.digraph import _tournament_imbalances


@st.composite
def digraphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pair_count = n * (n - 1) // 2
    states = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=pair_count,
            max_size=pair_count,
        )
    )
    arcs = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if states[k] == 1:
                arcs.append((u, v))
            elif states[k] == 2:
                arcs.append((v, u))
            k += 1
    return Digraph(n, arcs)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [(0, 0)])

    def test_rejects_opposing_arcs(self):
        with pytest.raises(ValueError, match="opposing"):
            Digraph(2, [(0, 1), (1, 0)])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph(2, [(0, 1), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(2, [(0, 2)])

    def test_doubled_pairs_raise_the_typed_error(self):
        with pytest.raises(DoubledPairError, match="opposing arcs between 1 and 0"):
            Digraph(2, [(0, 1), (1, 0)])
        with pytest.raises(DoubledPairError, match=r"duplicate arc \(0, 1\)"):
            Digraph(2, [(0, 1), (0, 1)])

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 1), (1, 2), (0, 1), (2, 1)], r"duplicate arc \(0, 1\)"),
            ([(0, 1), (1, 2), (2, 1), (0, 1)], "opposing arcs between 2 and 1"),
            ([(0, 0), (0, 1), (0, 1)], "self-loop at vertex 0"),
            ([(0, 1), (0, 1), (0, 5)], r"duplicate arc \(0, 1\)"),
            ([(1, 2), (2, 9), (2, 2), (2, 1)], r"arc \(2, 9\) out of range for order 3"),
            ([(1, 2), (-1, 0)], r"arc \(-1, 0\) out of range"),
        ],
    )
    def test_reports_the_first_bad_arc_in_order(self, arcs, message):
        with pytest.raises(ValueError, match=message):
            Digraph(3, arcs)

    def test_ids_beyond_int64_are_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(3, [(0, 10**20)])

    def test_uint64_ids_are_reported_uncast(self):
        big = np.array([2**64 - 1], dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"arc \({2**64 - 1}, 0\) out of range for order 3"):
            Digraph.from_arcs(3, big, np.zeros(1, dtype=np.uint64))

    def test_from_arcs_takes_arrays(self):
        g = Digraph.from_arcs(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
        assert g == triangle_cycle()
        assert Digraph.from_arcs(2, [], []) == Digraph(2)

    def test_ids_must_be_integers(self):
        with pytest.raises(TypeError):
            Digraph(3, [(0.5, 1)])
        with pytest.raises(ValueError, match="must be integers"):
            Digraph.from_arcs(3, np.array([0.5]), np.array([1]))
        with pytest.raises(ValueError, match="must be integers"):
            Digraph.from_arcs(3, np.array([0]), np.array([1.0]))
        assert Digraph(3, [(np.int32(0), 1)]) == Digraph(3, [(0, 1)])
        assert Digraph.from_arcs(2, np.array([True]), np.array([False])) == Digraph(2, [(1, 0)])

    def test_from_arcs_rejects_uneven_arrays(self):
        with pytest.raises(ValueError, match="differ in length"):
            Digraph.from_arcs(3, np.array([0, 1]), np.array([1]))

    def test_arcs_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            Digraph(3, [(0, 1, 2)])

    def test_order_is_checked_against_the_matrix_cap(self):
        with pytest.raises(ResourceLimitError):
            Digraph(10**6)

    @given(digraphs())
    @settings(max_examples=60)
    def test_from_arcs_rebuilds_any_graph(self, g: Digraph):
        src, dst = np.nonzero(g.matrix())
        assert Digraph.from_arcs(g.n, src, dst) == g

    def test_empty_graph_is_legal(self):
        g = Digraph(0)
        assert g.n == 0 and g.arc_count == 0

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Digraph(-1)

    def test_equality_with_another_type_is_false(self):
        assert Digraph(1).__eq__(object()) is NotImplemented
        assert (Digraph(1) == object()) is False

    def test_matrix_is_frozen(self):
        g = triangle_cycle()
        with pytest.raises(ValueError):
            g.matrix()[0, 1] = 0

    def test_from_matrix_validates(self):
        bad = np.zeros((2, 2), dtype=np.uint8)
        bad[0, 1] = bad[1, 0] = 1
        with pytest.raises(ValueError, match="opposing"):
            Digraph.from_matrix(bad)

    def test_from_matrix_refuses_a_non_square_array(self):
        with pytest.raises(ValueError, match="must be square"):
            Digraph.from_matrix(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="must be square"):
            Digraph.from_matrix(np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [bool, np.float64])
    def test_from_matrix_casts_a_0_1_array(self, dtype):
        adj = triangle_cycle().matrix().astype(dtype)
        assert Digraph.from_matrix(adj) == triangle_cycle()

    @pytest.mark.parametrize("entry", [256, 257, 0.5, 1.9])
    def test_from_matrix_rejects_entries_the_cast_would_hide(self, entry):
        # As uint8, 256 and 0.5 would read "no arc", 257 and 1.9 an arc.
        bad = np.zeros((2, 2), dtype=np.float64 if entry % 1 else np.int64)
        bad[0, 1] = entry
        with pytest.raises(ValueError, match="0 or 1"):
            Digraph.from_matrix(bad)


class TestImbalance:
    def test_single_arc(self):
        g = Digraph(2, [(0, 1)])
        assert g.imbalances()[0] == 1
        assert g.imbalances()[1] == -1

    def test_cycle_vertex_is_balanced(self):
        assert triangle_cycle().imbalances()[0] == 0

    def test_imbalance_sequence_transitive(self):
        assert triangle_transitive().imbalance_sequence() == (2, 0, -2)

    def test_imbalance_sequence_cycle(self):
        assert triangle_cycle().imbalance_sequence() == (0, 0, 0)

    def test_imbalance_sequence_empty_graph_on_two(self):
        assert Digraph(2).imbalance_sequence() == (0, 0)

    def test_imbalance_set(self):
        assert triangle_transitive().imbalance_set() == {2, 0, -2}
        assert triangle_cycle().imbalance_set() == {0}


class TestPredicates:
    def test_cycle_is_tournament(self):
        assert triangle_cycle().is_tournament()

    def test_square_cycle_is_not_tournament(self):
        assert not square_cycle().is_tournament()

    def test_single_vertex_is_tournament(self):
        assert Digraph(1).is_tournament()

    def test_empty_graph_is_tournament_vacuously(self):
        assert Digraph(0).is_tournament()
        assert not Digraph(0).is_near_tournament()

    @pytest.mark.parametrize("n", range(5))
    def test_arc_count_rule_on_every_graph(self, n):
        # Against the per-vertex rule: each vertex joined to all n - 1 others.
        for g in all_simple_digraphs(n):
            got = _tournament_imbalances(g.out_degrees())
            joined_to_all = bool((g.out_degrees() + g.in_degrees() == n - 1).all())
            assert (got is not None) == joined_to_all == g.is_tournament()
            if got is not None:
                assert (got == g.imbalances()).all()
                assert (got == 2 * g.out_degrees() - (n - 1)).all()

    def test_square_cycle_is_near_tournament(self):
        g = square_cycle()
        assert g.is_near_tournament()
        assert g.non_neighbour_pairs() == ((0, 2), (1, 3))

    def test_triangle_is_not_near_tournament(self):
        assert not triangle_cycle().is_near_tournament()

    def test_two_isolated_vertices_form_a_near_tournament(self):
        # Boundary case: each of the two vertices misses exactly one.
        assert Digraph(2).is_near_tournament()

    @given(digraphs())
    @settings(max_examples=60)
    def test_first_non_neighbour_pair_is_the_smallest(self, g: Digraph):
        pairs = g.non_neighbour_pairs()
        assert g.first_non_neighbour_pair() == (pairs[0] if pairs else None)

    def test_first_non_neighbour_pair_of_a_late_gap(self):
        n = 5000  # more rows than one scan block
        adj = np.triu(np.ones((n, n), dtype=np.uint8), 1)
        adj[4999 - 1, 4999] = 0
        assert Digraph.from_matrix(adj).first_non_neighbour_pair() == (4998, 4999)


class TestInvariants:
    @given(digraphs())
    @settings(max_examples=60)
    def test_imbalances_sum_to_zero(self, g: Digraph):
        assert sum(g.imbalance_sequence()) == 0

    @given(digraphs())
    @settings(max_examples=60)
    def test_tournament_excludes_near_tournament(self, g: Digraph):
        if g.n >= 2 and g.is_tournament():
            assert not g.is_near_tournament()

    @given(digraphs(max_n=7))
    @settings(max_examples=60)
    def test_tournament_imbalance_score_relation(self, g: Digraph):
        if not g.is_tournament():
            return
        assert (g.imbalances() == 2 * g.out_degrees() - (g.n - 1)).all()

    def test_equality_and_hash(self):
        assert triangle_cycle() == Digraph(3, [(1, 2), (2, 0), (0, 1)])
        assert triangle_cycle() != triangle_transitive()
        assert hash(triangle_cycle()) == hash(Digraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_arcs_are_sorted(self):
        g = Digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert list(g.arcs()) == [(0, 1), (1, 2), (2, 0)]


@pytest.mark.parametrize("seed", range(4))
def test_in_degrees_are_the_column_sums(seed):
    # The closed form n - 1 - out for tournaments, and the unpacked blocks
    # for the rest, against the column sums of the whole matrix.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40)) * 2
    upper = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    tournament = upper + np.triu(1 - upper, 1).T
    near = tournament.copy()
    for u, v in rng.permutation(n).reshape(-1, 2):  # unjoin a perfect matching
        near[u, v] = near[v, u] = 0
    sparse = np.triu(rng.random((n, n)) < 0.05, 1).astype(np.uint8)
    for adj, kind in ((tournament, "tournament"), (near, "near"), (sparse, "sparse")):
        g = Digraph.from_matrix(adj)
        assert g.is_tournament() == (kind == "tournament") and g.is_near_tournament() == (kind == "near")
        out, into = adj.sum(axis=1, dtype=np.int64), adj.sum(axis=0, dtype=np.int64)
        assert np.array_equal(g.in_degrees(), into), kind
        assert np.array_equal(g.imbalances(), out - into), kind



@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults as Linux reports them")
@pytest.mark.parametrize("make", ["_zeros(4000)", "_resized(_zeros(8), 4000)"])
def test_fresh_rows_are_written_when_allocated(make):
    # Rows left untouched by the allocator map the shared zero page on a
    # first read and fault again on the write after it; rows whose zeros
    # were written fault once, at allocation.  4000 rows of 500 bytes are
    # 489 pages, each a fault on this read if the zeros were not written.
    # Measured in a fresh interpreter, whose allocator has no freed pages.
    code = f"""
import resource
import numpy as np
from imbalanceset.digraph import _resized, _zeros
bits = {make}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
np.count_nonzero(bits)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert int(out) <= 16
