"""End-to-end acceptance gates.

Each test exercises one headline guarantee at its stated budget and
prints a single pass/fail line; run with ``pytest -v -s`` to see them.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from imbalanceset import (
    Digraph,
    ImbalanceSet,
    REFUSAL_ONE_SIDED,
    add_apex_zero,
    add_arcs,
    brute_zero_sum_min_odd,
    canonical_sequence,
    check_landau,
    check_tournament_imbalance,
    decide_tis,
    enumerate_tournaments,
    max_arc_count,
    max_realization,
    min_odd_equal_sum,
    order_upper_bound,
    realize_imbalance_set,
)
from imbalanceset.cli import main as cli_main
from imbalanceset.formats import emit

DATA = Path(__file__).parent / "data"

ODD_POOL = (-9, -7, -5, -3, -1, 1, 3, 5, 7, 9)
EVEN_POOL = (-8, -6, -4, -2, 0, 2, 4, 6, 8)


@contextmanager
def gate(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] FAIL {description}")
        raise
    print(f"[acceptance {num:02d}] PASS {description}")


def _odd_grid():
    for size in (2, 3, 4):
        yield from itertools.combinations(ODD_POOL, size)


def _even_grid():
    for size in (1, 2, 3):
        yield from itertools.combinations(EVEN_POOL, size)


def _expected_even_verdict(members: frozenset[int]) -> bool:
    if members == {0}:
        return True
    if not any(v > 0 for v in members) or not any(v < 0 for v in members):
        return False
    parts = ImbalanceSet.from_values(members)
    return brute_zero_sum_min_odd(members, parts.canonical_length - 1) is not None


def test_01_three_member_even_set_realizes_at_order_13(tmp_path):
    with gate(1, "realize {4,2,-2}: order-13 tournament, pinned arcs, <1s"):
        out_path = tmp_path / "built.dot"
        buffer = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buffer):
            code = cli_main(["realize", "4,2,-2", "--format", "dot", "--out", str(out_path)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert "order 13" in buffer.getvalue()
        assert out_path.read_text() == (DATA / "golden_4_2_-2.dot").read_text()
        graph = realize_imbalance_set({4, 2, -2})
        assert graph.n == 13 and graph.is_tournament()
        assert graph.imbalance_sequence() == (
            4, 4, 4, 2, 2, -2, -2, -2, -2, -2, -2, -2, -2,
        )
        assert emit(graph, "dot") == out_path.read_text()
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_02_even_pair_without_odd_witness_is_refused():
    with gate(2, "decide {6,-10}: refused as no-odd-equal-sum, <0.1s"):
        buffer = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buffer):
            code = cli_main(["decide", "6,-10"])
        elapsed = time.perf_counter() - t0
        assert code == 2
        assert "no-odd-equal-sum" in buffer.getvalue()
        decision = decide_tis({6, -10})
        assert not decision.verdict
        assert decision.refusal == "no-odd-equal-sum"
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_03_odd_sets_realize_exactly_at_the_canonical_length():
    with gate(3, "odd grid sweep: every mixed-sign set realizes at l*M+m*L, <60s"):
        t0 = time.perf_counter()
        mixed = refused = 0
        for combo in _odd_grid():
            members = frozenset(combo)
            both_signs = any(v > 0 for v in members) and any(v < 0 for v in members)
            decision = decide_tis(members, with_certificate=both_signs)
            if not both_signs:
                assert decision.refusal == REFUSAL_ONE_SIDED, members
                refused += 1
                continue
            parts = ImbalanceSet.from_values(members)
            assert decision.verdict, members
            cert = decision.certificate
            assert cert.n == parts.canonical_length, members
            assert cert.is_tournament()
            assert cert.imbalance_set() == members
            mixed += 1
        elapsed = time.perf_counter() - t0
        assert mixed == 325 and refused == 50
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_04_even_sets_match_the_brute_force_characterization():
    with gate(4, "even grid: verdicts match the zero-sum oracle + signs, <60s"):
        t0 = time.perf_counter()
        pinned_no = [{2, -2}, {4, -4}, {8, -8}]
        pinned_yes = [{2, -4}, {4, -2}, {2, 0, -2}, {4, -6}]
        seen_yes = 0
        for combo in _even_grid():
            members = frozenset(combo)
            expected = _expected_even_verdict(members)
            decision = decide_tis(members, with_certificate=expected)
            assert decision.verdict == expected, members
            if expected and members != {0}:
                cert = decision.certificate
                assert cert.is_tournament() and cert.imbalance_set() == members
                seen_yes += 1
        for members in pinned_no:
            assert not decide_tis(members).verdict, members
        for members in pinned_yes:
            assert decide_tis(members).verdict, members
        elapsed = time.perf_counter() - t0
        assert seen_yes > 20
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_05_checks_agree_with_exhaustive_enumeration():
    with gate(5, "orders 1..5: score/imbalance acceptors equal enumerated sets, <30s"):
        t0 = time.perf_counter()
        for n in range(1, 6):
            scores = set()
            imbalances = set()
            for g in enumerate_tournaments(n):
                scores.add(tuple(sorted(g.out_degrees().tolist())))
                imbalances.add(g.imbalance_sequence())
            landau_accepted = {
                combo
                for combo in itertools.combinations_with_replacement(range(n), n)
                if check_landau(combo)
            }
            imbalance_accepted = {
                tuple(sorted(combo, reverse=True))
                for combo in itertools.combinations_with_replacement(
                    range(-(n - 1), n), n
                )
                if check_tournament_imbalance(tuple(sorted(combo, reverse=True)))
            }
            assert scores == landau_accepted, n
            assert imbalances == imbalance_accepted, n
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_06_random_realizations_hit_the_maximum_arc_count():
    with gate(6, "200 random sequences (n<=30): exact arc totals, <10s"):
        t0 = time.perf_counter()
        rng = random.Random(6180339)
        checked_near = 0
        for trial in range(200):
            n = rng.randint(2, 30)
            if trial % 2 == 0:
                # General case: imbalance sequence of a random oriented graph.
                arcs = []
                for u in range(n):
                    for v in range(u + 1, n):
                        state = rng.randrange(3)
                        if state == 1:
                            arcs.append((u, v))
                        elif state == 2:
                            arcs.append((v, u))
                seq = Digraph(n, arcs).imbalance_sequence()
            else:
                # All-even case: random tournament minus a perfect matching.
                if n % 2:
                    n += 1
                perm = list(range(n))
                rng.shuffle(perm)
                matched = {
                    (min(a, b), max(a, b))
                    for a, b in zip(perm[0::2], perm[1::2])
                }
                arcs = []
                for u in range(n):
                    for v in range(u + 1, n):
                        if (u, v) in matched:
                            continue
                        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
                seq = Digraph(n, arcs).imbalance_sequence()
            report = max_realization(seq)
            assert report.arc_count == max_arc_count(seq)
            assert report.graph.imbalance_sequence() == seq
            g = report.graph
            assert (g.out_degrees() + g.in_degrees() >= g.n - 2).all()
            if trial % 2 == 1:
                assert report.is_near_tournament
                m = len(seq)
                assert report.arc_count == m * (m - 2) // 2
                checked_near += 1
        elapsed = time.perf_counter() - t0
        assert checked_near == 100
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_07_minimal_odd_witness_lengths_match_the_oracle():
    with gate(7, "even grid: DP witness length equals brute force and < l*M+m*L"):
        for combo in _even_grid():
            members = frozenset(combo)
            if members == {0}:
                continue
            if not any(v > 0 for v in members) or not any(v < 0 for v in members):
                continue
            parts = ImbalanceSet.from_values(members)
            order = parts.canonical_length
            witness = min_odd_equal_sum(parts.non_negative, parts.negative_abs)
            brute = brute_zero_sum_min_odd(members, order - 1)
            if witness is None:
                assert brute is None, members
            else:
                assert witness.total_length == brute, members
                assert witness.total_length < order, members


def test_08_constructed_orders_respect_the_guaranteed_bounds():
    with gate(8, "grid certificates stay within their order bounds"):
        for combo in _odd_grid():
            members = frozenset(combo)
            if not (any(v > 0 for v in members) and any(v < 0 for v in members)):
                continue
            decision = decide_tis(members)
            assert decision.order <= order_upper_bound(members), members
        for combo in _even_grid():
            members = frozenset(combo)
            if not _expected_even_verdict(members):
                continue
            bound = order_upper_bound(members)
            decision = decide_tis(members, with_certificate=True)
            assert decision.certificate.n <= bound, members
            parts = ImbalanceSet.from_values(members)
            if members == {0}:
                assert decision.certificate.n == 1
            elif 0 in members:
                assert decision.certificate.n == parts.canonical_length + 1, members
            else:
                assert decision.certificate.n <= 2 * parts.canonical_length - 1


def test_09_completions_preserve_imbalances_and_close_every_pair():
    with gate(9, "apex/equal-sum completions keep old imbalances, hit new targets"):
        for combo in _even_grid():
            members = frozenset(combo)
            if members == {0} or not _expected_even_verdict(members):
                continue
            parts = ImbalanceSet.from_values(members)
            report = max_realization(canonical_sequence(parts))
            before = list(report.graph.imbalances())
            witness = min_odd_equal_sum(parts.non_negative, parts.negative_abs)
            if witness.ys == ():
                grown = add_apex_zero(report)
                new_targets = [0]
            else:
                grown = add_arcs(report, witness)
                new_targets = list(witness.xs) + [-y for y in witness.ys]
            n = report.graph.n
            assert list(grown.imbalances())[:n] == before, members
            assert sorted(grown.imbalances()[n:]) == sorted(new_targets), members
            assert grown.is_tournament(), members
            joined = grown.out_degrees() + grown.in_degrees()
            assert (joined == grown.n - 1).all(), members


def test_10_pseudo_polynomial_scaling():
    with gate(10, "decide+realize: {10,-12} <2s and a ~10^4-order set <60s"):
        t0 = time.perf_counter()
        small = realize_imbalance_set({10, -12})
        t_small = time.perf_counter() - t0
        assert small.n == 33 and small.imbalance_set() == {10, -12}
        assert t_small < 2.0, f"took {t_small:.2f}s"

        t0 = time.perf_counter()
        parts = ImbalanceSet.from_values({4, -9998})
        assert parts.canonical_length == 10002
        big = realize_imbalance_set({4, -9998})
        t_big = time.perf_counter() - t0
        assert big.n == 15003
        assert big.imbalance_set() == {4, -9998}
        assert t_big < 60.0, f"took {t_big:.1f}s"
