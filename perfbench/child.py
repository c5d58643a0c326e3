"""Child-process entry points of the benchmark.

    python3 perfbench/child.py build LITERAL [--digest]
    python3 perfbench/child.py replay REQUEST_ID COMMAND ARG...
    python3 perfbench/child.py check-file PATH LITERAL
    python3 perfbench/child.py oracle SEED
    python3 perfbench/child.py probe

``build`` is the library runner: it times one
``realize_imbalance_set`` call (interpreter start excluded), then
checks the graph with the benchmark's own matrix check.

``replay`` re-runs one CLI command (decide, realize or verify) or one
library build stage by stage through the public function of each
module, in the order ``decide_tis`` uses, with a span around each
stage.  A replayed realize then makes the direct
``realize_imbalance_set`` call and compares the graphs; a replayed
build returns a digest of its graph, which run.py compares with the
untraced build's.

``check-file`` re-reads a graph file the CLI wrote and checks it;
``oracle`` compares the reference search with the brute-force oracle on
small seeded sets.  ``probe`` answers each line on standard input with
the times of a fixed piece of interpreter and numpy work, see
run.py.  They run here, not in run.py's process, to keep that process's
memory small.

All modes print one JSON object on the last line of standard output.
The program is imported from the ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np

from imbalanceset import (
    ImbalanceSet,
    add_apex_zero,
    add_arcs,
    canonical_sequence,
    digraph_imbalance_failure,
    max_realization,
    min_odd_equal_sum,
    realize_imbalance_set,
)
from imbalanceset.cli import build_parser
from imbalanceset.formats import detect_format, emit, parse
from graphcheck import check_arcs, check_matrix, read_graph
from reference import cross_check_with_oracle, expected
from spans import Tracer
from workloads import small_sets


def _members(literal: str) -> frozenset[int]:
    return frozenset(int(v) for v in literal.split(","))


def _digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(matrix, axis=None).tobytes()).hexdigest()


def build(literal: str, digest: bool) -> dict:
    members = _members(literal)
    t0 = time.perf_counter()
    graph = realize_imbalance_set(members)
    build_s = time.perf_counter() - t0
    out = {"build_s": build_s, "order": graph.n,
           "error": check_matrix(expected(members), graph.matrix())}
    if digest:
        out["digest"] = _digest(graph.matrix())
    return out


class _Replay:
    """Stage-by-stage replays; each returns what the program would report."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.counts = {"equalsum.calls": 0, "equalsum.refusals": 0,
                       "equalsum.witness_len": 0, "equalsum.dp_cells": 0,
                       "formats.bytes": 0, "formats.arcs": 0, "sequences.n": 0,
                       "tis.new_vertices": 0, "realize.matrix_bytes": 0}

    def _decide(self, members: frozenset[int], certificate: bool):
        """The decide_tis pipeline for a set with both signs and one parity."""
        t, c = self.t, self.counts
        with t.span("sequences.expand"):
            parts = ImbalanceSet.from_values(members)
            n = parts.canonical_length
        c["sequences.n"] += n
        witness = None
        if next(iter(members)) % 2 == 0:
            with t.span("equalsum.search"):
                witness = min_odd_equal_sum(parts.non_negative, parts.negative_abs)
            c["equalsum.calls"] += 1
            if 0 not in parts.non_negative:
                big = min(parts.non_negative[0], parts.negative_abs[-1])
                c["equalsum.dp_cells"] += 4 * ((n - 1) * big + 1)
            if witness is None:
                c["equalsum.refusals"] += 1
                return False, None, None
            c["equalsum.witness_len"] += witness.total_length
        order = n + (witness.total_length if witness else 0)
        if not certificate:
            return True, order, None
        with t.span("sequences.expand"):
            seq = canonical_sequence(parts)
        with t.span("sequences.check"):
            failure = digraph_imbalance_failure(seq)
        if failure is not None:
            raise AssertionError(f"canonical sequence fails its check: {failure}")
        with t.span("realize.max_realization"):
            report = max_realization(seq)
        c["realize.matrix_bytes"] = max(c["realize.matrix_bytes"], n * n)
        graph = report.graph
        if witness is not None:
            with t.span("tis.complete"):
                if witness.ys == ():
                    graph = add_apex_zero(report)
                else:
                    graph = add_arcs(report, witness)
            c["tis.new_vertices"] += graph.n - n
        with t.span("digraph.cert_check"):
            ok = graph.n == order and graph.is_tournament() and graph.imbalance_set() == members
        if not ok:
            raise AssertionError("replayed certificate fails its check")
        return True, order, graph

    def decide(self, argv: list[str]) -> dict:
        with self.t.span("cli.args"):
            args = build_parser().parse_args(argv)
            members = _members(args.set_literal)
        verdict, order, _ = self._decide(members, certificate=False)
        with self.t.span("cli.report"):
            report = f"yes: order {order}" if verdict else "no"
        return {"verdict": verdict, "order": order, "report": report}

    def realize(self, argv: list[str]):
        t, c = self.t, self.counts
        with t.span("cli.args"):
            args = build_parser().parse_args(argv)
            members = _members(args.set_literal)
        _, order, graph = self._decide(members, certificate=True)
        with t.span("formats.emit"):
            payload = emit(graph, args.format)
        c["formats.bytes"] += len(payload)
        c["formats.arcs"] += order * (order - 1) // 2
        with t.span("cli.file_io"):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        with t.span("cli.report"):
            with t.span("digraph.imbalance_sequence"):
                seq = graph.imbalance_sequence()
            report = f"order {graph.n}; imbalance sequence " + ",".join(str(v) for v in seq)
        return {"order": order, "report_len": len(report)}, members, graph

    def verify(self, argv: list[str]) -> dict:
        t, c = self.t, self.counts
        with t.span("cli.args"):
            args = build_parser().parse_args(argv)
            members = _members(args.set_literal)
        with t.span("cli.file_io"):
            with open(args.graph_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        with t.span("formats.parse"):
            graph = parse(text, detect_format(text, args.graph_path))
        c["formats.bytes"] += len(text)
        c["formats.arcs"] += graph.n * (graph.n - 1) // 2
        with t.span("digraph.cert_check"):
            ok = graph.is_tournament() and graph.imbalance_set() == members
        with t.span("cli.report"):
            report = f"ok: tournament of order {graph.n}" if ok else "mismatch"
        return {"ok": ok, "order": graph.n, "report": report}


def replay(request: str, command: str, argv: list[str]) -> dict:
    tracer = Tracer(request)
    rep = _Replay(tracer)
    graph = members = None
    with tracer.span("request"):
        if command == "decide":
            result = rep.decide([command, *argv])
        elif command == "realize":
            result, members, graph = rep.realize([command, *argv])
        elif command == "verify":
            result = rep.verify([command, *argv])
        elif command == "build":
            members = _members(argv[0])
            _, order, graph = rep._decide(members, certificate=True)
            result = {"order": order}
        else:
            raise ValueError(f"unknown command {command!r}")
    post = time.perf_counter()
    if command == "realize":
        direct = realize_imbalance_set(members)
        result["same_as_direct"] = bool(np.array_equal(direct.matrix(), graph.matrix()))
    if command == "build":
        result["digest"] = _digest(graph.matrix())
        result["error"] = check_matrix(expected(members), graph.matrix())
    return {"result": result, "spans": tracer.spans, "counts": rep.counts,
            "post_s": time.perf_counter() - post}


def _probe_once(numbers: list[int], bits: np.ndarray, matrix: np.ndarray) -> dict[str, float]:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    sorted(numbers)
    t1 = time.perf_counter()
    for _ in range(8):
        shifted = bits.copy()
        for v in range(1, 60):
            shifted[v:] |= bits[:-v]
    t2 = time.perf_counter()
    matrix.sum(axis=0, dtype=np.int64)
    (matrix + matrix.T).any()
    t3 = time.perf_counter()
    return {"py": t1 - t0, "small": t2 - t1, "large": t3 - t2}


def probe_loop() -> None:
    # Built here, not at import, so the other modes' memory stays the program's.
    numbers = [(i * 7919) % 100_003 for i in range(50_000)]
    bits = np.arange(200_000) % 7 == 0
    matrix = np.ones((2_000, 2_000), dtype=np.uint8)
    for _ in sys.stdin:
        runs = [_probe_once(numbers, bits, matrix) for _ in range(3)]
        print(json.dumps({k: min(r[k] for r in runs) for k in runs[0]}), flush=True)


def main(argv: list[str]) -> int:
    if argv[0] == "probe":
        probe_loop()
        return 0
    if argv[0] == "build":
        out = build(argv[1], digest="--digest" in argv[2:])
    elif argv[0] == "replay":
        out = replay(argv[1], argv[2], argv[3:])
    elif argv[0] == "check-file":
        try:
            error = check_arcs(expected(_members(argv[2])), *read_graph(argv[1]))
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable graph file: {exc}"
        out = {"error": error}
    elif argv[0] == "oracle":
        out = {"problems": cross_check_with_oracle(small_sets(int(argv[1])))}
    else:
        print(f"unknown mode {argv[0]!r}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
