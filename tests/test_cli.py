import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from imbalanceset import Digraph, cli, digraph, formats, order_upper_bound
from imbalanceset.cli import main
from imbalanceset.formats import emit, parse, parse_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_yes_with_order(self, capsys):
        code, out, _ = run(capsys, "decide", "4,2,-2")
        assert code == 0
        assert "yes" in out and "13" in out

    def test_no_with_refusal(self, capsys):
        code, out, _ = run(capsys, "decide", "6,-10")
        assert code == 2
        assert "no-odd-equal-sum" in out

    def test_zero_alone(self, capsys):
        code, out, _ = run(capsys, "decide", "0")
        assert code == 0 and "order 1" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "decide", "4,2,-2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc == {
            "set": [4, 2, -2],
            "verdict": "yes",
            "refusal": None,
            "order": 13,
        }

    def test_budget_adds_brute_force_cross_check(self, capsys):
        code, out, _ = run(capsys, "decide", "6,-10", "--json", "--budget", "15")
        assert code == 2
        assert json.loads(out)["brute_zero_sum_min_odd"] is None

    def test_budget_must_be_an_int(self, capsys):
        code, out, err = run(capsys, "decide", "4,-6", "--budget", "x")
        assert code == 1 and out == ""
        assert "invalid int value: 'x'" in err

    def test_budget_is_a_length_not_a_magnitude_limit(self, capsys):
        code, out, _ = run(capsys, "decide", "66,-2", "--budget", "3")
        assert code == 2
        assert out.splitlines() == [
            "no: no-odd-equal-sum",
            "brute-force minimal odd zero-sum length: None",
        ]

    def test_budget_over_the_oracle_cap_exits_3_at_once(self, capsys):
        members = "18,14,10,6,2,-2,-6,-10,-14,-18"
        t0 = time.perf_counter()
        code, _, err = run(capsys, "decide", members, "--budget", "63")
        assert code == 3 and "resource cap exceeded" in err
        assert time.perf_counter() - t0 < 2.0

    def test_verdict_survives_a_refused_oracle(self, capsys):
        members = "18,14,10,6,2,-2,-6,-10,-14,-18"
        code, out, err = run(capsys, "decide", members, "--budget", "63")
        assert code == 3 and "resource cap exceeded" in err
        assert out.splitlines() == ["no: no-odd-equal-sum"]

    def test_json_verdict_survives_a_refused_oracle(self, capsys):
        members = "18,14,10,6,2,-2,-6,-10,-14,-18"
        code, out, err = run(capsys, "decide", members, "--budget", "63", "--json")
        assert code == 3 and "resource cap exceeded" in err
        assert json.loads(out) == {
            "set": [18, 14, 10, 6, 2, -2, -6, -10, -14, -18],
            "verdict": "no",
            "refusal": "no-odd-equal-sum",
            "order": None,
        }

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "decide", "4,,2")
        assert code == 1 and "cannot parse" in err

    def test_blank_literal_is_a_parse_failure(self, capsys):
        code, out, err = run(capsys, "decide", " ")
        assert code == 1 and out == ""
        assert err == "error: cannot parse set literal ' '\n"

    def test_duplicates_rejected(self, capsys):
        code, _, err = run(capsys, "decide", "4,4,-2")
        assert code == 1 and "duplicates" in err

    def test_resource_cap(self, capsys):
        # Both need the odd zero-sum search, whose work 2000006 exceeds its
        # cap: the yes stands, without its order.
        capped = "odd zero-sum search of work 2000006 exceeds the cap"
        for literal in ("1000000,-2,-6", "4,-1999998,-6"):
            code, out, err = run(capsys, "decide", literal)
            assert code == 0 and err == ""
            assert out == f"yes: realizable by a tournament; order not computed ({capped})\n"

    def test_a_refused_search_keeps_the_verdict(self, capsys):
        capped = "odd zero-sum search of work 2000010 exceeds the cap"
        code, out, err = run(capsys, "decide", "4,-2000002,-6")
        assert code == 0 and err == ""
        assert out == f"yes: realizable by a tournament; order not computed ({capped})\n"
        code, out, err = run(capsys, "decide", "4,-2000002,-6", "--json")
        assert code == 0 and err == ""
        assert json.loads(out) == {
            "set": [4, -6, -2000002],
            "verdict": "yes",
            "refusal": None,
            "order": None,
            "capped": capped,
        }
        code, out, err = run(capsys, "realize", "4,-2000002,-6")
        assert code == 3 and out == "" and "matrix cells" in err
        code, out, _ = run(capsys, "bound", "4,-2000002,-6")
        assert code == 0 and out == "4000031\n"

    def test_two_members_are_not_capped(self, capsys):
        # k and S in closed form: (x + y)/gcd(x, y) terms of sum lcm(x, y).
        for literal, order in (("4,-1999998", 3000003), ("1000000,-2", 1500003)):
            code, out, _ = run(capsys, "decide", literal)
            assert code == 0 and f"order {order}" in out

    def test_answers_that_need_no_search_are_not_capped(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "decide", "1,-1000001")
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and "order 1000002" in out
        code, out, _ = run(capsys, "decide", "0,2,-1000000")
        assert code == 0 and "order 2000003" in out

    def test_a_no_is_never_capped(self, capsys):
        code, out, _ = run(capsys, "decide", "2,-2000002")
        assert code == 2 and "no-odd-equal-sum" in out

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_a_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "decide", "4,2,-2", "--budget", budget)
        assert code == 1 and out == ""
        assert f"error: argument --budget: must be at least 1, got {budget}" in err


class TestRealize:
    def test_writes_dot_file(self, tmp_path, capsys):
        out_path = tmp_path / "pair.dot"
        code, out, _ = run(capsys, "realize", "1,-1", "--out", str(out_path))
        assert code == 0
        assert "order 2" in out
        g = parse_dot(out_path.read_text())
        assert g.n == 2 and g.arc_count == 1

    def test_json_payload_to_stdout(self, capsys):
        code, out, err = run(capsys, "realize", "4,2,-2", "--format", "json")
        assert code == 0
        doc = json.loads(out.splitlines()[0])
        assert doc["n"] == 13
        assert doc["imbalance_set"] == [4, 2, -2]
        assert "order 13" in err

    def test_unrealizable_exits_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "realize", "2,-2", "--out", str(tmp_path / "never.dot")
        )
        assert code == 2 and "no-odd-equal-sum" in err
        assert not (tmp_path / "never.dot").exists()

    def test_closed_pipe_is_a_write_error(self):
        # The reader stops after 20 bytes of an order-1503 DOT document:
        # one error line, exit 1, and no traceback, also not at exit.
        src = Path(cli.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "imbalanceset", "realize", "4,-998"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        head = child.stdout.read(20)
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert head.startswith(b"digraph {\n")
        assert err == "error: cannot write standard output: [Errno 32] Broken pipe\n"

    def test_closed_pipe_during_an_edge_list_is_a_write_error(self):
        # Closed after a few bytes of an order-1503 edge list: stdout is
        # silenced, so nothing fails again when the interpreter exits.
        src = Path(cli.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "imbalanceset", "realize", "4,-998", "--format", "edgelist"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        head = child.stdout.read(8)
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert head == b"# tourna"
        assert err.startswith("error: cannot write standard output")
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_missing_directory_is_a_write_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, "realize", "4,2,-2", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: [Errno 2] ")

    def test_directory_path_is_a_write_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "realize", "4,2,-2", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: [Errno 21] ")


class TestCheck:
    def test_landau_pass(self, capsys):
        code, out, _ = run(capsys, "check", "0,1,2", "--mode", "landau")
        assert code == 0 and out.strip() == "pass"

    def test_tournament_pass(self, capsys):
        code, out, _ = run(capsys, "check", "2,0,-2", "--mode", "tournament")
        assert code == 0

    def test_digraph_pass(self, capsys):
        code, out, _ = run(capsys, "check", "2,0,-2", "--mode", "digraph")
        assert code == 0 and out == "pass\n"

    def test_digraph_total_failure(self, capsys):
        code, out, _ = run(capsys, "check", "0,-1", "--mode", "digraph")
        assert code == 2 and out == "fail: total sum misses its forced value\n"

    def test_tournament_parity_failure(self, capsys):
        code, out, _ = run(capsys, "check", "6,-10", "--mode", "tournament")
        assert code == 2 and "parity" in out

    def test_prefix_failure_reports_index(self, capsys):
        code, out, _ = run(capsys, "check", "0,0,2", "--mode", "landau")
        assert code == 2 and "index 2" in out

    def test_unsorted_input_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "2,0,1", "--mode", "landau")
        assert code == 1 and "sort" in err

    def test_condition_errors_carry_no_sort_hint(self, capsys):
        assert run(capsys, "check", "-1,1", "--mode", "landau") == (1, "", "error: scores must be non-negative\n")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "check", "1,1,1", "--mode", "landau", "--json")
        assert code == 0
        assert json.loads(out) == {"mode": "landau", "ok": True, "failure": None}

    def test_json_failure_report(self, capsys):
        code, out, _ = run(capsys, "check", "0,0,2", "--mode", "landau", "--json")
        assert code == 2
        assert out == '{"mode": "landau", "ok": false, "failure": {"kind": "prefix", "index": 2}}\n'

    def test_parse_failure(self, capsys):
        code, out, err = run(capsys, "check", "1,,2", "--mode", "digraph")
        assert code == 1 and out == ""
        assert err == "error: cannot parse sequence literal '1,,2'\n"


class TestVerify:
    def test_tournament_with_stated_set(self, tmp_path, capsys):
        path = tmp_path / "t.dot"
        run(capsys, "realize", "4,2,-2", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path), "4,2,-2")
        assert code == 0 and "ok" in out

    def test_cyclic_triangle_is_zero_set(self, tmp_path, capsys):
        path = tmp_path / "c3.dot"
        path.write_text(emit(Digraph(3, [(0, 1), (1, 2), (2, 0)]), "dot"))
        code, out, _ = run(capsys, "verify", str(path), "0")
        assert code == 0

    def test_missing_pair_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "c4.dot"
        path.write_text(emit(Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), "dot"))
        code, out, _ = run(capsys, "verify", str(path), "0")
        assert code == 2 and "missing pair" in out

    def test_missing_pair_of_a_large_arc_free_file_is_the_first(self, tmp_path, capsys):
        path = tmp_path / "empty.edges"
        path.write_text("# tournament n=2000\n")
        code, out, _ = run(capsys, "verify", str(path), "0")
        assert code == 2 and "missing pair (0, 1)" in out

    def test_doubled_pair_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.dot"
        path.write_text("digraph {\n  0 -> 1;\n  1 -> 0;\n}\n")
        code, out, _ = run(capsys, "verify", str(path), "0")
        assert code == 2 and "doubled pair" in out

    def test_imbalance_mismatch_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "c3.dot"
        path.write_text(emit(Digraph(3, [(0, 1), (1, 2), (2, 0)]), "dot"))
        code, out, _ = run(capsys, "verify", str(path), "1,-1")
        assert code == 2 and "mismatch" in out

    def test_only_missing_pair_near_the_end_is_named(self, tmp_path, capsys, monkeypatch):
        # A transitive tournament of order 12 without its arc 9 -> 11:
        # the degrees sum one short, and with row bands of 8 the pair
        # lies in the last band.
        monkeypatch.setattr(digraph, "_TILE", 8)
        arcs = [(u, v) for u in range(12) for v in range(u + 1, 12) if (u, v) != (9, 11)]
        path = tmp_path / "gap.edges"
        path.write_text(emit(Digraph(12, arcs), "edgelist"))
        code, out, err = run(capsys, "verify", str(path), "11,9,7,5,3,1,-1,-3,-5,-7,-9,-11")
        assert (code, out, err) == (2, "structural failure: missing pair (9, 11)\n", "")

    def test_imbalance_mismatch_names_both_sets(self, tmp_path, capsys):
        arcs = [(u, v) for u in range(4) for v in range(u + 1, 4)]  # transitive
        path = tmp_path / "t4.json"
        path.write_text(emit(Digraph(4, arcs), "json"))
        code, out, err = run(capsys, "verify", str(path), "3,1,-1")
        expected = "imbalance mismatch: graph has [3, 1, -1, -3], stated [3, 1, -1]\n"
        assert (code, out, err) == (2, expected, "")

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/x.dot", "0")
        assert code == 1 and "cannot read" in err

    def test_read_error_mid_parse(self, tmp_path, capsys, monkeypatch):
        # The file is parsed from the open file, so a read can fail after
        # the first block has been scanned.
        class Failing(io.BytesIO):
            reads = 0

            def read(self, size=-1):
                Failing.reads += 1
                if Failing.reads > 3:
                    raise OSError(5, "Input/output error")
                return super().read(size)

        path = tmp_path / "t.edges"
        path.write_text(emit(Digraph(40, [(u, v) for u in range(40) for v in range(u + 1, 40)]), "edgelist"))
        monkeypatch.setattr(formats, "_CHUNK", 64)
        monkeypatch.setattr(cli, "open", lambda name, mode: Failing(path.read_bytes()), raising=False)
        code, out, err = run(capsys, "verify", str(path), "39,-39")
        assert (code, out) == (1, "")
        assert err == f"error: cannot read {path}: [Errno 5] Input/output error\n"

    @pytest.mark.parametrize(
        "name, fault, expected",
        [
            ("late.edges", "junk\n", (1, "", "error: unparseable edge-list line: 'junk'\n")),
            ("late.edges", "30 2\n", (2, "structural failure: doubled pair (opposing arcs between 30 and 2)\n", "")),
            ("late.dot", "  30 -> 2;\n", (2, "structural failure: doubled pair (opposing arcs between 30 and 2)\n", "")),
        ],
    )
    def test_fault_past_the_first_block(self, tmp_path, capsys, monkeypatch, name, fault, expected):
        # A transitive tournament of order 40, with the fault put in front
        # of row 30, some ten 64-byte blocks into the file.
        dot = name.endswith(".dot")
        text = emit(Digraph(40, [(u, v) for u in range(40) for v in range(u + 1, 40)]), "dot" if dot else "edgelist")
        cut = text.rindex("\n", 0, text.index("30 -> 31" if dot else "30 31")) + 1
        assert cut > 10 * 64
        path = tmp_path / name
        path.write_text(text[:cut] + fault + text[cut:])
        monkeypatch.setattr(formats, "_CHUNK", 64)
        assert run(capsys, "verify", str(path), "39,-39") == expected

    @pytest.mark.parametrize(
        "name, text",
        [
            ("nbsp.dot", "digraph {\n\u00a00 -> 1;\u2028  1 -> 2;\n  0 -> 2;\n}\n"),
            ("head.dot", "digraph \u00e9 {\u2028  0 -> 1;\n  1 -> 2;\n  0 -> 2;\n}\n"),
            ("note.json", '{"n": 3, "arcs": [[0, 1], [1, 2], [0, 2]], "note": "\u00e9"}'),
            ("ids.edges", "# tournament n=3\n0 1\n1 2\n0 \u0032\n"),
        ],
    )
    def test_non_ascii_document_reads_as_its_text(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        graph = formats.parse(text, formats.detect_format(text, name))
        assert graph == Digraph(3, [(0, 1), (1, 2), (0, 2)])
        expected = (0, "ok: tournament of order 3 with the stated imbalance set\n", "")
        assert run(capsys, "verify", str(path), "2,0,-2") == expected

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"n": 3, "arcs": [[1, null]]}', "json arc ids must be integers"),
            ('{"n": 3, "arcs": [[1, [2]]]}', "json arc ids must be integers"),
            ('{"n": 2, "arcs": [[true, 0]]}', "json arc ids must be integers"),
            ('{"arcs": [[0, 1]], "n": "2"}', "json 'n' must be an integer"),
        ],
    )
    def test_json_ids_and_order_must_be_integers(self, tmp_path, doc, message):
        # One error line, exit 1, and no traceback.
        path = tmp_path / "g.json"
        path.write_text(doc)
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "imbalanceset", "verify", str(path), "1,-1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")

    def test_dot_closing_line_followed_by_blank_lines(self, tmp_path, capsys):
        path = tmp_path / "blank.dot"
        path.write_text("digraph {\n  0 -> 1;\n  2 -> 0;\n  2 -> 1;\n}\n\n  \n\t\n\n")
        expected = (0, "ok: tournament of order 3 with the stated imbalance set\n", "")
        assert run(capsys, "verify", str(path), "2,0,-2") == expected


class TestBound:
    def test_values(self, capsys):
        assert run(capsys, "bound", "3,-1")[1].strip() == "4"
        assert run(capsys, "bound", "2,0,-2")[1].strip() == "7"
        assert run(capsys, "bound", "4,2,-2")[1].strip() == "19"

    def test_unrealizable_exits_two(self, capsys):
        code, _, err = run(capsys, "bound", "2,-2")
        assert code == 2

    def test_large_odd_set_is_not_capped(self, capsys):
        code, out, _ = run(capsys, "bound", "1,-1000001")
        assert code == 0 and out.strip() == "1000002"
        assert order_upper_bound({1, -1000001}) == 1000002

    def test_budget_searches_exact_minimum(self, capsys):
        code, out, _ = run(capsys, "bound", "4,2,-2", "--json", "--budget", "13")
        assert code == 0
        assert json.loads(out)["exact_min_order"] == 5

    def test_budget_searches_past_length_64(self, capsys):
        code, out, _ = run(capsys, "bound", "64,-2", "--budget", "200")
        assert code == 0
        assert out.splitlines()[1] == "exact minimal order (searched): 99"


    def test_bound_survives_a_refused_oracle(self, capsys, monkeypatch):
        # The true minimum 99 lies past the orders a cap of 100 cases allows.
        monkeypatch.setattr("imbalanceset.oracle.ORACLE_WORK_CAP", 100)
        code, out, err = run(capsys, "bound", "64,-2", "--budget", "200")
        assert code == 3 and "resource cap exceeded" in err
        assert out.splitlines() == [str(order_upper_bound({64, -2}))]

    def test_json_bound_survives_a_refused_oracle(self, capsys, monkeypatch):
        monkeypatch.setattr("imbalanceset.oracle.ORACLE_WORK_CAP", 100)
        code, out, err = run(capsys, "bound", "64,-2", "--budget", "200", "--json")
        assert code == 3 and "resource cap exceeded" in err
        assert json.loads(out) == {"set": [64, -2], "bound": order_upper_bound({64, -2})}

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_a_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "bound", "4,2,-2", "--budget", budget)
        assert code == 1 and out == ""
        assert f"error: argument --budget: must be at least 1, got {budget}" in err


class TestEqualSum:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "equal-sum", "3", "2", "--k", "3")
        assert code == 0
        assert "xs=[3, 3]" in out and "ys=[2, 2, 2]" in out

    def test_shared_member(self, capsys):
        code, out, _ = run(capsys, "equal-sum", "2", "2", "--k", "1")
        assert code == 0 and "sum=2" in out

    def test_none(self, capsys):
        code, out, _ = run(capsys, "equal-sum", "3", "2", "--k", "1")
        assert code == 2 and out.strip() == "none"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "equal-sum", "3", "2", "--k", "3", "--json")
        assert json.loads(out)["witness"]["common_sum"] == 6

    def test_json_none(self, capsys):
        code, out, _ = run(capsys, "equal-sum", "3", "2", "--k", "1", "--json")
        assert code == 2 and out == '{"witness": null}\n'

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_a_usage_error(self, capsys, k):
        code, out, err = run(capsys, "equal-sum", "3", "2", "--k", k)
        assert code == 1 and out == ""
        assert f"error: argument --k: must be at least 1, got {k}" in err

    def test_repeat_cap_above_the_sum_cap(self, capsys):
        code, out, _ = run(capsys, "equal-sum", "1", "1", "--k", "100000000")
        assert code == 0 and out.strip() == "xs=[1] ys=[1] sum=1"

    def test_long_witness(self, capsys):
        code, out, _ = run(capsys, "equal-sum", "1", "1000", "--k", "1000", "--json")
        assert code == 0
        assert json.loads(out)["witness"] == {
            "xs": [1] * 1000,
            "ys": [1000],
            "common_sum": 1000,
        }


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_argument(self, capsys):
        assert run(capsys, "decide")[0] == 1

    def test_decide_and_realize_always_agree(self, tmp_path, capsys):
        for literal in ("0", "1,-1", "4,2,-2", "6,-10", "2,-2", "4,-6", "1,2"):
            decide_code, _, _ = run(capsys, "decide", literal)
            realize_code, _, _ = run(
                capsys, "realize", literal, "--out", str(tmp_path / "g.dot")
            )
            assert decide_code == realize_code, literal

    def test_realize_emits_parseable_output_in_all_formats(self, tmp_path, capsys):
        # The one-vertex tournament of {0}, byte for byte in each format.
        zero = {
            "dot": b"digraph {\n  0;\n}\n",
            "edgelist": b"# tournament n=1\n",
            "json": b'{"n": 1, "arcs": [], "imbalance_sequence": [0], "imbalance_set": [0]}\n',
        }
        for kind in ("dot", "edgelist", "json"):
            path = tmp_path / f"g.{kind}"
            for literal, n in (("1,-1", 2), ("0", 1)):
                code, _, _ = run(
                    capsys, "realize", literal, "--format", kind, "--out", str(path)
                )
                assert code == 0
                assert parse(path.read_text(), kind).n == n
            assert path.read_bytes() == zero[kind]


# Every argument of each command, all of which its -h must name.
HELP_NAMES = {
    (): ["decide", "realize", "check", "verify", "bound", "equal-sum"],
    ("decide",): ["set_literal", "--json", "--budget"],
    ("realize",): ["set_literal", "--format", "--out"],
    ("check",): ["seq_literal", "--mode", "--json"],
    ("verify",): ["graph_path", "set_literal"],
    ("bound",): ["set_literal", "--json", "--budget"],
    ("equal-sum",): ["x_literal", "y_literal", "--k", "--json"],
}


class TestArgumentSyntax:
    def test_option_equals_value(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code, out, err = run(capsys, "realize", "4,2,-2", "--format=json", f"--out={path}")
        assert (code, err) == (0, "") and out.startswith("order 13;")
        assert json.loads(path.read_text())["n"] == 13
        assert run(capsys, "equal-sum", "3", "2", "--k=3") == (0, "xs=[3, 3] ys=[2, 2, 2] sum=6\n", "")

    def test_options_before_the_positionals(self, tmp_path, capsys):
        path = tmp_path / "t.edges"
        code, out, _ = run(capsys, "realize", "--format", "edgelist", "--out", str(path), "4,-2")
        assert code == 0 and out.startswith("order 9;")
        assert path.read_text().startswith("# tournament n=9\n")
        assert run(capsys, "check", "--mode", "landau", "--json", "0,1,2") == run(
            capsys, "check", "0,1,2", "--mode", "landau", "--json"
        )
        assert run(capsys, "equal-sum", "--k", "3", "3", "2")[1] == "xs=[3, 3] ys=[2, 2, 2] sum=6\n"
        assert run(capsys, "decide", "--budget=15", "--json", "6,-10") == run(
            capsys, "decide", "6,-10", "--json", "--budget", "15"
        )

    def test_an_option_value_may_start_with_a_minus_and_a_digit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "realize", "1,-1", "--out", "-2")[0] == 0
        assert (tmp_path / "-2").read_text() == "digraph {\n  0 -> 1;\n}\n"
        assert run(capsys, "verify", "-2", "-1,1") == (0, "ok: tournament of order 2 with the stated imbalance set\n", "")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", list(HELP_NAMES))
    def test_help_names_every_argument(self, capsys, command, flag):
        code, out, err = run(capsys, *command, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: imbalanceset")
        for name in HELP_NAMES[command]:  # each on a line of its own, not only in the usage
            assert re.search(rf"^\s+{re.escape(name)}\b", out, re.MULTILINE), name

    def test_help_stops_the_reading(self, capsys):
        assert run(capsys, "check", "-h")[:2] == run(capsys, "check", "1,,2", "extra", "-h")[:2]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["realize", "4,2,-2", "--format", "svg"], "argument --format: invalid choice: 'svg'"),
            (["realize", "4,2,-2", "--format=svg"], "argument --format: invalid choice: 'svg'"),
            (["check", "0,1,2", "--mode", "scores"], "argument --mode: invalid choice: 'scores'"),
            (["check", "0,1,2"], "the following arguments are required: --mode"),
            (["check", "--mode", "landau"], "the following arguments are required: seq_literal"),
            (["equal-sum", "3", "2"], "the following arguments are required: --k"),
            (["equal-sum", "3"], "the following arguments are required: y_literal, --k"),
            (["realize", "4,2,-2", "--out"], "argument --out: expected one argument"),
            (["realize", "4,2,-2", "--format", "--out", "x.dot"], "argument --format: expected one argument"),
            (["decide", "4,-6", "--budget"], "argument --budget: expected one argument"),
            (["equal-sum", "3", "2", "--k", "--json"], "argument --k: expected one argument"),
            (["decide", "4,-6", "5,-7"], "unrecognized arguments: 5,-7"),
            (["verify", "t.dot", "4,-2", "extra"], "unrecognized arguments: extra"),
            (["decide", "4,-6", "--out", "x.dot"], "unrecognized arguments: --out x.dot"),
            (["decide", "4,-6", "--json=yes"], "argument --json: ignored explicit argument 'yes'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: command"),
            # No prefix stands for an option, as argparse let --form stand for --format.
            (["realize", "4,2,-2", "--form", "dot"], "unrecognized arguments: --form dot"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: imbalanceset") and f"\nerror: {message}" in err


class TestLeadingMinus:
    """A literal that starts with a minus sign is the literal, not an option."""

    @pytest.mark.parametrize("argv", [["-2,4"], ["--json", "-2,4"], ["-2,4", "--json"]])
    def test_decide(self, capsys, argv):
        got = run(capsys, "decide", *argv)
        assert got[0] == 0 and got == run(capsys, "decide", *(a if a != "-2,4" else "4,-2" for a in argv))

    def test_bound(self, capsys):
        assert run(capsys, "bound", "-2,4") == run(capsys, "bound", "4,-2") == (0, "11\n", "")

    def test_verify(self, tmp_path, capsys):
        path = tmp_path / "t.dot"
        assert run(capsys, "realize", "4,-2", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "verify", str(path), "-2,4")
        assert code == 0 and "ok" in out

    def test_check_reaches_the_sort_error(self, capsys):
        code, out, err = run(capsys, "check", "-1,1", "--mode", "digraph")
        assert code == 1 and out == ""
        assert "must be sorted nonincreasing" in err

    def test_an_unknown_option_is_still_refused(self, capsys):
        code, out, err = run(capsys, "decide", "-x")
        assert code == 1 and out == ""
        assert "required: set_literal" in err
