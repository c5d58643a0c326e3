"""Decide realizability of an imbalance set and build a witness tournament.

The decision pipeline, in order:

1. ``{0}`` alone is realized by the one-vertex tournament.
2. Unless the set is ``{0}``, it must hold at least one positive and at
   least one negative member (a zero-sum multiset needs both ends).
3. All members must share one parity (every vertex imbalance in a
   tournament has the parity of n - 1).
4. Every yes is built one way: realize the canonical expansion of
   order n = l*M + m*L with the most arcs, then add k new vertices, the
   members of an equal-sum pair of sequences with odd total length k.
5. Odd members need k = 0: the expansion is a tournament already.  Even
   members expand to a near tournament (n is even), which completes
   exactly when such a pair exists: when 0 is a member, by the pair
   ([0], []) with k = 1, or when the members do not all share one
   2-adic valuation, with k the least odd zero-sum length: in closed
   form for two members, else found by a search capped on its work, at
   most n; a search refused by that cap leaves the yes without its
   order.  :mod:`imbalanceset.equalsum` owns the pair, its proofs and
   its witness, and answers :func:`~imbalanceset.min_odd_equal_sum`
   with the same two steps.

The verdict and the order are arithmetic and load no numpy.  The
certificate is built, in one matrix, and checked by
:mod:`imbalanceset.realize`, from the runs of the canonical expansion,
which the :mod:`imbalanceset.sequences` docstring proves feasible; for
``{0}`` the greedy realizes (0,).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .equalsum import EqualSumWitness, _has_odd_pair, _lex_min_witness, _shortest_odd_zero_sum
from .errors import ResourceLimitError, check_matrix_order
from .sequences import ImbalanceSet

if TYPE_CHECKING:
    from .digraph import Digraph

REFUSAL_ONE_SIDED = "one-sided"
REFUSAL_MIXED_PARITY = "mixed-parity"
REFUSAL_NO_ODD_EQUAL_SUM = "no-odd-equal-sum"


class TisDecision(NamedTuple):
    """Outcome of the decision, as a named tuple: a verdict plus its
    certificate or reason.

    ``order`` is the order of the tournament the pipeline constructs,
    present on every yes, even when the certificate itself was not
    requested, unless the search for it was refused: then ``capped``
    holds the cap's message.  ``witness`` carries the equal-sum pair
    backing an even-case yes when the certificate was requested.
    """

    verdict: bool
    refusal: str | None = None
    order: int | None = None
    certificate: Digraph | None = None
    witness: EqualSumWitness | None = None
    capped: str | None = None


def decide_tis(values: Iterable[int], *, with_certificate: bool = False) -> TisDecision:
    """Decide whether a finite integer set is a tournament imbalance set.

    Refusals name the first failing condition: "one-sided" (missing a
    positive or negative member), "mixed-parity", or "no-odd-equal-sum"
    (even members admit no odd-total equal-sum pair).  The verdict takes
    O(|Z|) and never searches.  An even yes takes k and S, and with a
    certificate the witness, from the two steps of
    :mod:`imbalanceset.equalsum` that also answer
    :func:`~imbalanceset.min_odd_equal_sum`: closed forms for a set
    with 0 and for two members (fact 5 there), else a breadth-first
    search over the Steinitz window (fact 2).  With
    ``with_certificate`` a realizing tournament is built and verified
    once, by :mod:`imbalanceset.realize`, before returning.
    Members must be integers: 1.5 raises TypeError.  Caps bound work,
    not answers: a search for k refused on its work (at most n by fact 4
    there) still gives the yes, with ``order`` None and the cap's
    message in ``capped``.  Only a certificate needs k, so only with one
    do that search, the orders n and n + k and the witness raise
    :class:`ResourceLimitError`, each before the work it bounds.
    """
    members = frozenset(map(operator.index, values))
    refusal = _refusal(members)
    if refusal is not None:
        return TisDecision(False, refusal=refusal)

    parts = ImbalanceSet.from_values(members)
    n = parts.canonical_length  # 0 for {0}, which the pair ([0], []) completes
    if with_certificate:
        check_matrix_order(n)
    # The completing odd equal-sum pair: k terms, common sum S.
    sides = parts.non_negative[::-1], parts.negative_abs
    try:
        k, common = (0, 0) if next(iter(members)) % 2 else _shortest_odd_zero_sum(*sides)
    except ResourceLimitError as exc:
        if with_certificate:
            raise
        return TisDecision(True, capped=str(exc))
    if not with_certificate:
        return TisDecision(True, order=n + k)

    check_matrix_order(n + k)
    from .realize import _certificate

    if n == 0:  # {0}: the greedy builds the one-vertex tournament from (0,)
        return TisDecision(True, order=1, certificate=_certificate(((0, 1),), None, members))
    witness = _lex_min_witness(*sides, k, common) if k else None
    cert = _certificate(parts.canonical_runs(), witness, members)
    return TisDecision(True, order=n + k, certificate=cert, witness=witness)


def realize_imbalance_set(values: Iterable[int]) -> Digraph:
    """Build a tournament whose imbalance set is exactly the input."""
    decision = decide_tis(values, with_certificate=True)
    if not decision.verdict:
        raise ValueError(f"not a tournament imbalance set ({decision.refusal})")
    assert decision.certificate is not None
    return decision.certificate


def order_upper_bound(values: Iterable[int]) -> int:
    """Guaranteed order bound for the constructed tournament.

    Odd members: exactly n = l*M + m*L.  Even with a zero member:
    n + 1.  Even without zero: 2n - 1 (the completion adds fewer than
    n vertices).  So {0} gets 1, as n = 0.  Needs only the O(|Z|) verdict.
    """
    members = frozenset(map(operator.index, values))
    refusal = _refusal(members)
    if refusal is not None:
        raise ValueError(f"not a tournament imbalance set ({refusal})")
    n = ImbalanceSet.from_values(members).canonical_length
    if next(iter(members)) % 2:
        return n
    if 0 in members:
        return n + 1
    return 2 * n - 1


def _refusal(members: frozenset[int]) -> str | None:
    """The first failing condition of the characterization, None on a yes.

    O(|Z|): sign, parity, and for even sets
    :func:`~imbalanceset.equalsum._has_odd_pair`: a 0 member or the 2-adic
    rule (fact 1 of the :mod:`imbalanceset.equalsum` docstring).
    """
    if not members:
        raise ValueError("the input set must be nonempty")
    if members == {0}:
        return None
    if not any(v > 0 for v in members) or not any(v < 0 for v in members):
        return REFUSAL_ONE_SIDED
    if len({v % 2 for v in members}) > 1:
        return REFUSAL_MIXED_PARITY
    if next(iter(members)) % 2 == 0 and not _has_odd_pair(members):
        return REFUSAL_NO_ODD_EQUAL_SUM
    return None
