"""Command-line front end.

Subcommands: decide, realize, check, verify, bound, equal-sum.  Exit
codes: 0 yes/pass, 2 no/fail, 1 usage or parse error, 3 resource cap
exceeded.

The arguments are read against one table, ``_COMMANDS`` with its
``_OPTIONS``, from which ``-h``/``--help`` is printed too.  The command
comes first; its positionals and options follow in any order.  An
option is named in full and takes its value as ``--opt value`` or
``--opt=value``; a dash followed by a digit starts a literal such as
``-2,4``, not an option.  A usage error prints the usage line and an
``error:`` line in argparse's wording, and exits 1.  The reader imports
nothing, because argparse, with the gettext and locale it loads, would
be most of the program's own start-up in a ``decide`` call.

Only ``realize`` and ``verify`` make a matrix, so only they
import :mod:`imbalanceset.formats` (and with it numpy); the brute-force
oracles are imported only when ``--budget`` runs them, and :mod:`json`
only when ``--json`` prints a document.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Callable, NoReturn, Sequence

from .equalsum import solve_esseq
from .errors import FORMATS, DoubledPairError, ResourceLimitError
from .sequences import digraph_imbalance_failure, landau_failure, tournament_imbalance_failure
from .tis import _refusal, decide_tis, order_upper_bound

EXIT_YES = 0
EXIT_USAGE = 1
EXIT_NO = 2
EXIT_RESOURCE = 3


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
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


# The sequence conditions of ``check``, by --mode.
_CONDITIONS = {"landau": landau_failure, "digraph": digraph_imbalance_failure,
               "tournament": tournament_imbalance_failure}


# What ``check`` prints for each kind of CheckFailure, given its index.
_FAILURES = {"parity": "parity mismatch at position {}", "prefix": "prefix inequality violated at index {}",
             "total": "total sum misses its forced value"}


def _oracle():
    """The brute-force oracles, imported only when ``--budget`` runs one."""
    from . import oracle

    return oracle


def _print_answer(args: SimpleNamespace, doc: dict, line: str, key: str = "", label: str = "",
                  oracle: Callable[[], object] | None = None) -> None:
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


def _cmd_decide(args: SimpleNamespace) -> int:
    members = _parse_set(args.set_literal)
    decision = decide_tis(members)
    doc = {"set": sorted(members, reverse=True), "verdict": "yes" if decision.verdict else "no",
           "refusal": decision.refusal, "order": decision.order}
    yes = f"yes: realizable by a tournament of order {decision.order}"
    if decision.capped is not None:  # the verdict stands; only the order's search was refused
        doc["capped"] = decision.capped
        yes = f"yes: realizable by a tournament; order not computed ({decision.capped})"
    _print_answer(args, doc, yes if decision.verdict else f"no: {decision.refusal}", "brute_zero_sum_min_odd",
                  "brute-force minimal odd zero-sum length",
                  lambda: _oracle().brute_zero_sum_min_odd(members, args.budget))
    return EXIT_YES if decision.verdict else EXIT_NO


def _cmd_realize(args: SimpleNamespace) -> int:
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


def _cmd_check(args: SimpleNamespace) -> int:
    seq = _parse_literal(args.seq_literal, "sequence")
    failure = _CONDITIONS[args.mode](seq)
    ok = failure is None
    doc = {"mode": args.mode, "ok": ok, "failure": None if ok else failure._asdict()}
    _print_answer(args, doc, "pass" if ok else f"fail: {_FAILURES[failure.kind].format(failure.index)}")
    return EXIT_YES if ok else EXIT_NO


def _cmd_verify(args: SimpleNamespace) -> int:
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
        stated = sorted(members, reverse=True)
        print(f"imbalance mismatch: graph has {sorted(got, reverse=True)}, stated {stated}")
        return EXIT_NO
    print(f"ok: tournament of order {graph.n} with the stated imbalance set")
    return EXIT_YES


def _cmd_bound(args: SimpleNamespace) -> int:
    members = _parse_set(args.set_literal)
    refusal = _refusal(members)
    if refusal is not None:
        print(f"no: {refusal}", file=sys.stderr)
        return EXIT_NO
    bound = order_upper_bound(members)
    _print_answer(args, {"set": sorted(members, reverse=True), "bound": bound}, str(bound), "exact_min_order",
                  "exact minimal order (searched)",
                  lambda: _oracle().brute_min_order(members, min(bound, args.budget)))
    return EXIT_YES


def _cmd_equal_sum(args: SimpleNamespace) -> int:
    xs = _parse_set(args.x_literal)
    ys = _parse_set(args.y_literal)
    witness = solve_esseq(xs, ys, args.k)
    if witness is None:
        _print_answer(args, {"witness": None}, "none")
        return EXIT_NO
    doc = {"xs": list(witness.xs), "ys": list(witness.ys), "common_sum": witness.common_sum}
    _print_answer(args, {"witness": doc}, f"xs={doc['xs']} ys={doc['ys']} sum={doc['common_sum']}")
    return EXIT_YES


_REQUIRED = object()
# Every option: (dest, read, default, metavar, help).  read None makes a
# switch, a collection a choice among its members, and a function reads
# the value; the default _REQUIRED makes the option required.
_OPTIONS = {
    "--json": ("as_json", None, False, "", "print the report as one JSON document"),
    "--budget": ("budget", _positive_int, None, "N",
                 "also search by brute force: odd zero sums of up to N terms (decide), orders to N (bound)"),
    "--format": ("format", FORMATS, "dot", "{" + ",".join(FORMATS) + "}", "graph file format (default dot)"),
    "--out": ("out", str, None, "OUT", "output path (default stdout)"),
    "--mode": ("mode", _CONDITIONS, _REQUIRED, "{" + ",".join(_CONDITIONS) + "}", "the sequence condition"),
    "--k": ("k", _positive_int, _REQUIRED, "K", "per-element repetition cap"),
}
_COMMANDS = {  # command: (its function, help, positionals, options)
    "decide": (_cmd_decide, "decide realizability of a set", ("set_literal",), ("--json", "--budget")),
    "realize": (_cmd_realize, "build a realizing tournament", ("set_literal",), ("--format", "--out")),
    "check": (_cmd_check, "test a sequence condition", ("seq_literal",), ("--mode", "--json")),
    "verify": (_cmd_verify, "verify a tournament file against a set", ("graph_path", "set_literal"), ()),
    "bound": (_cmd_bound, "order bound for a realizable set", ("set_literal",), ("--json", "--budget")),
    "equal-sum": (_cmd_equal_sum, "equal-sum sequences from two sets", ("x_literal", "y_literal"),
                  ("--k", "--json")),
}


def _is_option(token: str) -> bool:
    """A dash and a digit start a literal such as -2,4, not an option."""
    return len(token) > 1 and token[0] == "-" and not token[1].isdecimal()


def _shown(flag: str) -> str:
    """The option ``flag`` with its value, as usage and help show it."""
    return flag if _OPTIONS[flag][1] is None else f"{flag} {_OPTIONS[flag][3]}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: imbalanceset [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, positionals, options = _COMMANDS[command]
    shown = [_shown(f) if _OPTIONS[f][2] is _REQUIRED else f"[{_shown(f)}]" for f in options]
    return " ".join(["usage: imbalanceset", command, "[-h]", *shown, *positionals])


def _error(command: str | None, message: str) -> NoReturn:
    print(_usage(command), f"error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _help(command: str | None) -> NoReturn:
    """Print the help of ``command``, or of the program for None; exit 0."""
    about, rows = "commands:", [(name, spec[1]) for name, spec in _COMMANDS.items()]
    if command is not None:
        _, about, positionals, options = _COMMANDS[command]
        rows = [(name, "") for name in positionals] + [(_shown(f), _OPTIONS[f][4]) for f in options]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"  {name:<{width}}{text}".rstrip() for name, text in rows]
    print(_usage(command), "", about, *lines, sep="\n")
    raise SystemExit(EXIT_YES)


class _Reader:
    """Reads a command line against _COMMANDS, in one pass over it."""

    def parse_args(self, argv: Sequence[str] | None = None) -> SimpleNamespace:
        """The command and its arguments, as attributes named by their
        dests; SystemExit(0) after -h or --help, (1) on a usage error."""
        command, *tokens = list(sys.argv[1:] if argv is None else argv) or [None]
        if command in ("-h", "--help"):
            _help(None)
        if command is None:
            _error(None, "the following arguments are required: command")
        if command not in _COMMANDS:
            choices = ", ".join(map(repr, _COMMANDS))
            _error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
        _, _, positionals, options = _COMMANDS[command]
        values = {_OPTIONS[flag][0]: _OPTIONS[flag][2] for flag in options}
        words: list[str] = []  # the tokens that are not options, in order
        extras: list[str] = []  # the options that the command does not take
        rest = iter(tokens)
        for token in rest:
            flag, equals, value = token.partition("=")
            if not _is_option(token):
                words.append(token)
            elif flag in ("-h", "--help"):
                _help(command)
            elif flag not in options:
                extras.append(token)
            elif _OPTIONS[flag][1] is None:  # a switch
                if equals:
                    _error(command, f"argument {flag}: ignored explicit argument {value!r}")
                values[_OPTIONS[flag][0]] = True
            else:
                if not equals:
                    value = next(rest, None)
                    if value is None or _is_option(value):
                        _error(command, f"argument {flag}: expected one argument")
                dest, read = _OPTIONS[flag][:2]
                try:
                    if not callable(read) and value not in read:
                        choices = ", ".join(map(repr, read))
                        raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
                    values[dest] = read(value) if callable(read) else value
                except ValueError as exc:
                    _error(command, f"argument {flag}: {exc}")
        values.update(zip(positionals, words))
        missing = [*positionals[len(words):], *(f for f in options if values[_OPTIONS[f][0]] is _REQUIRED)]
        if missing:
            _error(command, f"the following arguments are required: {', '.join(missing)}")
        if extras or words[len(positionals):]:
            _error(command, f"unrecognized arguments: {' '.join(extras + words[len(positionals):])}")
        return SimpleNamespace(command=command, **values)


def build_parser() -> _Reader:
    """The command-line reader: ``build_parser().parse_args(argv)`` reads argv."""
    return _Reader()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
