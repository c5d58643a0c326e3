"""Tests of the benchmark's own checker, generator and span accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import numpy as np
import pytest

from imbalanceset import decide_tis, realize_imbalance_set
from imbalanceset.formats import emit
from graphcheck import check_arcs, check_matrix, read_graph
from reference import (
    check_decide,
    check_verify,
    cross_check_with_oracle,
    expected,
    min_odd_zero_sum,
)
from run import SUFFIX
from spans import Tracer, self_times
from workloads import WORKLOADS, generate, small_sets

Z = frozenset({4, 2, -2})


@pytest.fixture(params=sorted(SUFFIX))
def graph_file(request, tmp_path):
    path = tmp_path / f"g{SUFFIX[request.param]}"
    path.write_text(emit(realize_imbalance_set(Z), request.param), encoding="utf-8")
    return path


def test_written_file_passes(graph_file):
    assert check_arcs(expected(Z), *read_graph(str(graph_file))) is None


def _corrupt(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


CORRUPTIONS = {
    # A reversed arc keeps the tournament but moves two imbalances.
    "reversed arc": {".dot": ("0 -> 1;", "1 -> 0;"), ".edges": ("\n0 1\n", "\n1 0\n"),
                     ".json": ("[0, 1]", "[1, 0]")},
    # A dropped arc leaves a pair unjoined.
    "dropped arc": {".dot": ("  0 -> 1;\n", ""), ".edges": ("\n0 1\n", "\n"),
                    ".json": ("[0, 1], ", "")},
    # An opposing arc in place of another doubles a pair.
    "opposing arc": {".dot": ("0 -> 4;", "1 -> 0;"), ".edges": ("\n0 4\n", "\n1 0\n"),
                     ".json": ("[0, 4]", "[1, 0]")},
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_file_is_caught(graph_file, kind):
    _corrupt(graph_file, *CORRUPTIONS[kind][graph_file.suffix])
    try:
        problem = check_arcs(expected(Z), *read_graph(str(graph_file)))
    except ValueError as exc:
        problem = str(exc)
    assert problem is not None


def test_garbled_file_is_unreadable(graph_file):
    text = graph_file.read_text(encoding="utf-8")
    graph_file.write_text(text.replace("1", "x", 1), encoding="utf-8")
    with pytest.raises(ValueError):
        read_graph(str(graph_file))


def test_matrix_check_catches_a_reversed_arc():
    adj = realize_imbalance_set(Z).matrix().copy()
    assert check_matrix(expected(Z), adj, block=4) is None
    u, v = np.argwhere(adj)[0]
    adj[u, v], adj[v, u] = 0, 1
    assert check_matrix(expected(Z), adj, block=4) is not None


def test_wrong_verdicts_and_orders_are_caught():
    no = expected({6, -10})
    assert check_decide(no, 2, "no: no-odd-equal-sum\n") is None
    assert check_decide(no, 0, "yes: realizable by a tournament of order 9\n") is not None
    assert check_decide(no, 2, "no: mixed-parity\n") is not None
    yes = expected(Z)
    assert check_decide(yes, 0, "yes: realizable by a tournament of order 13\n") is None
    assert check_decide(yes, 2, "no: no-odd-equal-sum\n") is not None
    assert check_decide(yes, 0, "yes: realizable by a tournament of order 15\n") is not None
    assert check_verify(yes, 0, "ok: tournament of order 13 with the stated imbalance set\n") is None
    assert check_verify(yes, 2, "imbalance mismatch: ...\n") is not None


def test_reference_matches_the_program_and_the_oracle():
    sets = small_sets(0, count=40) + [{6, -10}, {4, -6}, {2, -6, -10}, {4, 8, -12}]
    assert cross_check_with_oracle(sets) == []
    for z in sets:
        exp, got = expected(z), decide_tis(z)
        assert (exp.verdict, exp.order) == (got.verdict, got.order), sorted(z)


def test_pair_rule():
    # gcd(4, 6) = 2, so the least odd zero-sum length is (4 + 6) / 2.
    assert min_odd_zero_sum({4, -6}) == 5
    assert min_odd_zero_sum({2, -6}) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_seeded(workload):
    first = generate(workload, 7)
    assert first == generate(workload, 7)
    assert [i.literal for i in first] != [i.literal for i in generate(workload, 8)]
    assert all(not i.literal.startswith("-") for i in first)


def test_decide_even_is_half_no():
    verdicts = [i.exp.verdict for i in generate("decide-even", 3)]
    assert verdicts.count(False) == verdicts.count(True)
    assert all(0 not in i.exp.members for i in generate("decide-even", 3))


def test_self_times_subtract_children():
    tr = Tracer("r0")
    with tr.span("request"):
        with tr.span("a.outer"):
            with tr.span("b.inner"):
                pass
    spans = tr.spans
    times = self_times(spans)
    dur = {s["name"]: s["end"] - s["start"] for s in spans}
    assert times["a.outer"] == pytest.approx(dur["a.outer"] - dur["b.inner"])
    assert times["request"] == pytest.approx(dur["request"] - dur["a.outer"])
    assert [s["parent"] for s in spans] == [None, 0, 1]
