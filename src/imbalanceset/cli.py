"""Command-line front end.

Subcommands: decide, realize, check, verify, bound, equal-sum.  Exit
codes: 0 yes/pass, 2 no/fail, 1 usage or parse error, 3 resource cap
exceeded.  Only ``realize`` and ``verify`` make a matrix, so only they
import :mod:`imbalanceset.formats` (and with it numpy); the brute-force
oracles are imported only when ``--budget`` runs them, and :mod:`json`
only when ``--json`` prints a document.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Sequence

from .equalsum import solve_esseq
from .errors import FORMATS, DoubledPairError, ResourceLimitError
from .sequences import (
    CheckFailure,
    digraph_imbalance_failure,
    landau_failure,
    tournament_imbalance_failure,
)
from .tis import _refusal, decide_tis, order_upper_bound

EXIT_YES = 0
EXIT_USAGE = 1
EXIT_NO = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A dash and a digit start a literal such as -2,4, not an option.
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_literal(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated ints of a ``what`` ("set" or "sequence") literal;
    ``int`` strips each chunk and refuses an empty or blank one."""
    try:
        return tuple(int(chunk) for chunk in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {what} literal {text!r}") from None


def _parse_set(text: str) -> frozenset[int]:
    values = _parse_literal(text, "set")
    if len(set(values)) != len(values):
        raise ValueError("set literal contains duplicates")
    return frozenset(values)


def _positive_int(text: str) -> int:
    """An ``int`` of at least 1, for ``--budget`` and ``--k``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# The sequence conditions of ``check``, by --mode.
_CONDITIONS = {
    "landau": landau_failure,
    "digraph": digraph_imbalance_failure,
    "tournament": tournament_imbalance_failure,
}


def _failure_text(failure: CheckFailure) -> str:
    if failure.kind == "parity":
        return f"parity mismatch at position {failure.index}"
    if failure.kind == "prefix":
        return f"prefix inequality violated at index {failure.index}"
    return "total sum misses its forced value"


def _oracle():
    """The brute-force oracles, imported only when ``--budget`` runs one."""
    from . import oracle

    return oracle


def _print_answer(
    args: argparse.Namespace,
    doc: dict,
    line: str,
    key: str = "",
    label: str = "",
    oracle: Callable[[], object] | None = None,
) -> None:
    """Print ``doc`` as JSON or ``line`` as text, then the oracle's answer
    under ``key`` or ``label`` if the command has a --budget and it is set.

    The answer is printed before the oracle runs, so an oracle refused
    by its work cap (ResourceLimitError, exit 3) loses only its own line
    in text, or its own key in the JSON document.
    """
    budget = getattr(args, "budget", None)
    if not args.as_json:
        print(line)
        if budget is not None:
            print(f"{label}: {oracle()}")
        return
    import json

    if budget is not None:
        try:
            doc[key] = oracle()
        except ResourceLimitError:
            print(json.dumps(doc))
            raise
    print(json.dumps(doc))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imbalanceset")
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="decide realizability of a set")
    decide.add_argument("set_literal", help="comma-separated integers, e.g. '4,2,-2'")
    decide.add_argument("--json", action="store_true", dest="as_json")
    decide.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="LENGTH",
        help="also search odd zero sums of up to LENGTH terms by brute force",
    )

    realize = sub.add_parser("realize", help="build a realizing tournament")
    realize.add_argument("set_literal")
    realize.add_argument("--format", choices=FORMATS, default="dot")
    realize.add_argument("--out", default=None, help="output path (default stdout)")

    check = sub.add_parser("check", help="test a sequence condition")
    check.add_argument("seq_literal")
    check.add_argument("--mode", choices=_CONDITIONS, required=True)
    check.add_argument("--json", action="store_true", dest="as_json")

    verify = sub.add_parser("verify", help="verify a tournament file against a set")
    verify.add_argument("graph_path")
    verify.add_argument("set_literal")

    bound = sub.add_parser("bound", help="order bound for a realizable set")
    bound.add_argument("set_literal")
    bound.add_argument("--json", action="store_true", dest="as_json")
    bound.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="ORDER",
        help="also search orders up to ORDER (and the bound) by brute force",
    )

    equal = sub.add_parser("equal-sum", help="equal-sum sequences from two sets")
    equal.add_argument("x_literal")
    equal.add_argument("y_literal")
    equal.add_argument("--k", type=_positive_int, required=True, help="per-element repetition cap")
    equal.add_argument("--json", action="store_true", dest="as_json")

    return parser


def _cmd_decide(args: argparse.Namespace) -> int:
    members = _parse_set(args.set_literal)
    decision = decide_tis(members)
    doc = {
        "set": sorted(members, reverse=True),
        "verdict": "yes" if decision.verdict else "no",
        "refusal": decision.refusal,
        "order": decision.order,
    }
    yes = f"yes: realizable by a tournament of order {decision.order}"
    if decision.capped is not None:  # the verdict stands; only the order's search was refused
        doc["capped"] = decision.capped
        yes = f"yes: realizable by a tournament; order not computed ({decision.capped})"
    _print_answer(
        args,
        doc,
        yes if decision.verdict else f"no: {decision.refusal}",
        "brute_zero_sum_min_odd",
        "brute-force minimal odd zero-sum length",
        lambda: _oracle().brute_zero_sum_min_odd(members, args.budget),
    )
    return EXIT_YES if decision.verdict else EXIT_NO


def _cmd_realize(args: argparse.Namespace) -> int:
    from .digraph import _tournament_imbalances
    from .formats import write

    members = _parse_set(args.set_literal)
    decision = decide_tis(members, with_certificate=True)
    if not decision.verdict:
        print(f"no: {decision.refusal}", file=sys.stderr)
        return EXIT_NO
    graph = decision.certificate
    assert graph is not None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write(graph, args.format, fh)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    else:
        try:
            write(graph, args.format, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, say
            _silence_stdout()
            raise ValueError(f"cannot write standard output: {exc}") from None
    # A certificate is a verified tournament: one out-degree pass.
    seq = ",".join(map(str, sorted(_tournament_imbalances(graph.out_degrees()).tolist(), reverse=True)))
    print(f"order {graph.n}; imbalance sequence {seq}", file=sys.stderr if not args.out else sys.stdout)
    return EXIT_YES


def _silence_stdout() -> None:
    """Point standard output at the null device, so that the rest still
    buffered for it cannot fail again when the interpreter flushes it at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file, as under a capture
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _cmd_check(args: argparse.Namespace) -> int:
    seq = _parse_literal(args.seq_literal, "sequence")
    failure = _CONDITIONS[args.mode](seq)
    ok = failure is None
    doc = {"mode": args.mode, "ok": ok, "failure": None if ok else failure._asdict()}
    _print_answer(args, doc, "pass" if ok else f"fail: {_failure_text(failure)}")
    return EXIT_YES if ok else EXIT_NO


def _cmd_verify(args: argparse.Namespace) -> int:
    from .digraph import _tournament_imbalances
    from .formats import detect_format, parse

    members = _parse_set(args.set_literal)
    try:
        with open(args.graph_path, "rb") as fh:  # parsed in blocks, not read whole
            graph = parse(fh, detect_format(fh, args.graph_path))
    except OSError as exc:
        raise ValueError(f"cannot read {args.graph_path}: {exc}") from None
    except DoubledPairError as exc:
        print(f"structural failure: doubled pair ({exc})")
        return EXIT_NO
    # parse refused doubled pairs and self-loops, so one out-degree pass
    # decides the tournament and gives the imbalances.
    imbalances = _tournament_imbalances(graph.out_degrees())
    if imbalances is None:
        pair = graph.first_non_neighbour_pair()
        where = f" {pair}" if pair else ""
        print(f"structural failure: missing pair{where}")
        return EXIT_NO
    got = frozenset(imbalances.tolist())
    if got != members:
        print(
            "imbalance mismatch: graph has "
            f"{sorted(got, reverse=True)}, stated {sorted(members, reverse=True)}"
        )
        return EXIT_NO
    print(f"ok: tournament of order {graph.n} with the stated imbalance set")
    return EXIT_YES


def _cmd_bound(args: argparse.Namespace) -> int:
    members = _parse_set(args.set_literal)
    refusal = _refusal(members)
    if refusal is not None:
        print(f"no: {refusal}", file=sys.stderr)
        return EXIT_NO
    bound = order_upper_bound(members)
    _print_answer(
        args,
        {"set": sorted(members, reverse=True), "bound": bound},
        str(bound),
        "exact_min_order",
        "exact minimal order (searched)",
        lambda: _oracle().brute_min_order(members, min(bound, args.budget)),
    )
    return EXIT_YES


def _cmd_equal_sum(args: argparse.Namespace) -> int:
    xs = _parse_set(args.x_literal)
    ys = _parse_set(args.y_literal)
    witness = solve_esseq(xs, ys, args.k)
    if witness is None:
        _print_answer(args, {"witness": None}, "none")
        return EXIT_NO
    doc = {"xs": list(witness.xs), "ys": list(witness.ys), "common_sum": witness.common_sum}
    _print_answer(args, {"witness": doc}, f"xs={doc['xs']} ys={doc['ys']} sum={doc['common_sum']}")
    return EXIT_YES


_DISPATCH = {
    "decide": _cmd_decide,
    "realize": _cmd_realize,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "equal-sum": _cmd_equal_sum,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
