"""Decide realizability of an imbalance set and build a witness tournament.

The decision pipeline, in order:

1. ``{0}`` alone is realized by the one-vertex tournament.
2. Unless the set is ``{0}``, it must hold at least one positive and at
   least one negative member (a zero-sum multiset needs both ends).
3. All members must share one parity (every vertex imbalance in a
   tournament has the parity of n - 1).
4. Every yes is built one way: realize the canonical expansion of
   order n = l*M + m*L with the most arcs, then add k new vertices as
   :func:`add_arcs` does, the members of an equal-sum pair of sequences
   with odd total length k over the two sides.
5. Odd members need k = 0: the expansion is a tournament already.  Even
   members expand to a near tournament (n is even), which completes
   exactly when such a pair exists: when 0 is a member, by the pair
   ([0], []) with k = 1, or when the members do not all share one
   2-adic valuation, with k the least odd zero-sum length (found by a
   search capped on its work, at most n; proofs in :mod:`imbalanceset.equalsum`).

Completion mechanics (:func:`add_arcs`): the k = a + b new vertices
first form a rotational regular tournament among themselves (k is odd):
new vertex i beats the next (k - 1)/2 of them cyclically.  All unjoined
pairs (v, v') of the base get their arc v -> v'.  Each new vertex with
positive target x must beat both endpoints of x/2 pairs, and each with
negative target -y must lose to both endpoints of y/2 pairs; these unit
claims are coupled (one x-unit with one y-unit) and dealt round-robin
over the pairs, so a pair may host several couples when the common sum
exceeds the number of pairs.  A pair hosting c couples is touched by 2c
new vertices whose effects cancel pairwise; the remaining m = k - 2c
new vertices (an odd count, the free ones) join it in the half-and-half
counterbalancing pattern that exactly cancels the pair arc's +1/-1:
ranked by id, the first (m-1)/2 and the last beat v and lose to v'
(role a), the middle (m-1)/2 do the reverse (role b).  Feasibility is
guaranteed: the couple load per pair is at most ceil(S/n) <= min(a, b)
<= (k-1)/2, and each new vertex's pair demand x/2 (or y/2) is under n/2
because every member's magnitude is below n.  For ([0], []) there are
no couples, and the one new vertex beats v and loses to v' in every
pair: the apex of :func:`add_apex_zero`.

The matrix holds bit-packed rows, built as :mod:`imbalanceset.digraph`
lays down: upper cells first, then one
:func:`~imbalanceset.digraph._mirror` pass over the whole graph.
:func:`_complete` writes the pair arcs v -> v', then the upper cells
of the new columns as O(n + S) intervals, a span of free ranks in
closed form and a cell per couple owner for each pair row.  The lower
cells of the new rows, new -> base, need no roles of their own.  Every
(base, new) pair is joined exactly once by then, since an x-owner beats
both ends of its pair, a y-owner loses to both, and each free new
vertex takes role a or role b; the new clique is a tournament, and so
is the base with its pair arcs.  So every lower cell is 1 minus its
mirror cell, which the mirror writes.

Every certificate takes one matrix: :func:`decide_tis` allocates the
packed (n + k)-order matrix, the greedy writes the base's upper cells
into its top-left block, :func:`_complete` the rest when k > 0, and one
mirror pass ends the build (odd sets have k = 0 and no unjoined pairs,
so the base is the tournament).  So the peak of a build is that matrix
((n + k) * ceil((n + k) / 8) bytes), the intervals held at once (fewer
than ``2 * realize._FLUSH`` receiver stretches in the greedy, O(n + S)
in the completion) and the band buffer of ``digraph._FILL`` bytes; the
mirror and the certificate check add band-sized temporaries only.
Public :func:`add_arcs` takes a finished base report, so it holds the
base and a grown copy of it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .equalsum import (
    EqualSumWitness,
    _lex_min_witness,
    _mixed_valuations,
    _shortest_odd_zero_sum,
)
from .errors import check_matrix_order
from .realize import RealizationReport, _check_sequence, _upper_rows
from .sequences import ImbalanceSet, canonical_sequence

if TYPE_CHECKING:
    import numpy as np

    from .digraph import Digraph

REFUSAL_ONE_SIDED = "one-sided"
REFUSAL_MIXED_PARITY = "mixed-parity"
REFUSAL_NO_ODD_EQUAL_SUM = "no-odd-equal-sum"


@dataclass(frozen=True)
class TisDecision:
    """Outcome of the decision: a verdict plus its certificate or reason.

    ``order`` is the order of the tournament the pipeline constructs
    (present on every yes, even when the certificate itself was not
    requested).  ``witness`` carries the equal-sum pair backing an
    even-case yes when the certificate was requested.
    """

    verdict: bool
    refusal: str | None = None
    order: int | None = None
    certificate: Digraph | None = None
    witness: EqualSumWitness | None = None


def decide_tis(values: Iterable[int], *, with_certificate: bool = False) -> TisDecision:
    """Decide whether a finite integer set is a tournament imbalance set.

    Refusals name the first failing condition: "one-sided" (missing a
    positive or negative member), "mixed-parity", or "no-odd-equal-sum"
    (even members admit no odd-total equal-sum pair).  The verdict takes
    O(|Z|) and never searches; only an even yes without 0 takes its
    order from a breadth-first search over the Steinitz window (see
    :mod:`imbalanceset.equalsum`).  With ``with_certificate`` the
    equal-sum witness is rebuilt and a realizing tournament is built and
    verified once, here, before returning.  Members must be integers:
    1.5 raises TypeError.  Caps bound work, not answers: only the search
    for k (on its work, at most n by fact 4 there) and, for a
    certificate, the orders n and n + k and the witness tables raise
    :class:`ResourceLimitError`, each before the work it bounds.
    """
    members = frozenset(map(operator.index, values))
    refusal = _refusal(members)
    if refusal is not None:
        return TisDecision(False, refusal=refusal)

    if members == {0}:
        cert = None
        if with_certificate:
            from .digraph import Digraph

            cert = _verified_certificate(Digraph(1), members, 1)
        return TisDecision(True, order=1, certificate=cert)

    parts = ImbalanceSet.from_values(members)
    n = parts.canonical_length
    if with_certificate:
        check_matrix_order(n)
    # The completing odd equal-sum pair: k terms, common sum S.
    if next(iter(members)) % 2:
        k, common = 0, 0
    elif 0 in members:
        k, common = 1, 0  # the pair ([0], [])
    else:
        k, common = _shortest_odd_zero_sum(parts.non_negative[::-1], parts.negative_abs)
    if not with_certificate:
        return TisDecision(True, order=n + k)

    check_matrix_order(n + k)
    from .digraph import Digraph, _mirror, _zeros

    seq = canonical_sequence(parts)
    _check_sequence(seq)
    witness = None
    if k:
        witness = _lex_min_witness(parts.non_negative[::-1], parts.negative_abs, k, common)
    bits = _zeros(n + k)
    pairing = _upper_rows(seq, bits)
    if k:
        _complete(bits, pairing, witness)
    _mirror(bits)
    cert = _verified_certificate(Digraph._from_bits(bits), members, n + k)
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
    n vertices).  The lone set {0}: 1.  Needs only the O(|Z|) verdict.
    """
    members = frozenset(map(operator.index, values))
    refusal = _refusal(members)
    if refusal is not None:
        raise ValueError(f"not a tournament imbalance set ({refusal})")
    if members == {0}:
        return 1
    n = ImbalanceSet.from_values(members).canonical_length
    if next(iter(members)) % 2:
        return n
    if 0 in members:
        return n + 1
    return 2 * n - 1


def _refusal(members: frozenset[int]) -> str | None:
    """The first failing condition of the characterization, None on a yes.

    O(|Z|): sign, parity, and for even sets without 0 the 2-adic rule
    (fact 1 of the :mod:`imbalanceset.equalsum` docstring).
    """
    if not members:
        raise ValueError("the input set must be nonempty")
    if members == {0}:
        return None
    if not any(v > 0 for v in members) or not any(v < 0 for v in members):
        return REFUSAL_ONE_SIDED
    if len({v % 2 for v in members}) > 1:
        return REFUSAL_MIXED_PARITY
    if next(iter(members)) % 2 == 0 and 0 not in members and not _mixed_valuations(members):
        return REFUSAL_NO_ODD_EQUAL_SUM
    return None


def add_apex_zero(near: RealizationReport) -> Digraph:
    """Complete a near tournament by a single vertex of imbalance zero.

    Every unjoined pair (v, v') gains the arc v -> v', the apex beats
    v and loses to v', so all original imbalances survive and the apex
    nets zero: :func:`add_arcs` with the degenerate witness ([0], []).
    """
    return add_arcs(near, EqualSumWitness((0,), (), 0))


def add_arcs(near: RealizationReport, witness: EqualSumWitness) -> Digraph:
    """Complete a near tournament into a tournament via an equal-sum pair.

    Adds len(xs) + len(ys) vertices (the total must be odd) whose
    imbalances come out as the xs and the negated ys, while every
    original vertex keeps its imbalance.  See the module docstring for
    the construction; it degenerates to the single-apex picture when
    the witness is the trivial ([0], []).  The base's packed rows are
    copied into a grown matrix, which :func:`_complete` completes.
    """
    from .digraph import Digraph, _mirror, _resized

    if not near.is_near_tournament:
        raise ValueError("base graph must be a near tournament")
    xs, ys = witness.xs, witness.ys
    k = len(xs) + len(ys)
    if k % 2 == 0:
        raise ValueError("the witness must have odd total length")
    if any(v % 2 for v in xs) or any(v % 2 for v in ys):
        raise ValueError("witness entries must be even")

    n = near.graph.n
    n_pairs = n // 2
    couples = witness.common_sum // 2
    if any(x // 2 > n_pairs for x in xs) or any(y // 2 > n_pairs for y in ys):
        raise ValueError("a witness entry exceeds the base graph's pair capacity")
    if couples and -(-couples // n_pairs) > (k - 1) // 2:
        raise ValueError("witness couple load exceeds the new-clique capacity")

    bits = _resized(near.graph._bits, n + k)
    _complete(bits, near.non_neighbour_pairing, witness)
    _mirror(bits)
    return Digraph._from_bits(bits)


def _complete(
    bits: np.ndarray, pairing: tuple[tuple[int, int], ...], witness: EqualSumWitness
) -> None:
    """Write the completion's upper cells, as the module docstring says,
    into ``bits``: packed (n + k)-order rows whose top-left block holds
    at least the upper cells of the base, a near tournament with unjoined
    pairs ``pairing``, and whose new rows and columns are zero, for a
    ``witness`` that :func:`add_arcs` accepts.

    Every row is a few intervals of new columns (vertex id v at column
    n + v), set by one :func:`~imbalanceset.digraph._fill`, which XORs
    the intervals of a row: k + 3n/2 + S of them in all.

    * New row i beats i + 1 .. i + (k - 1)/2 cyclically: its upper cells
      are [i + 1, min(i + (k + 1)/2, k)), and the mirror writes the rest.
    * Free ranks in closed form.  List the 2c owners of a pair hosting c
      couples as o_0 < o_1 < ...; o_j - j counts the free vertices below
      o_j, so the f-th free vertex (from 0) is col(f) = f + #{j : o_j - j
      <= f}, f plus the owners below it.  Couple j goes to pair j mod
      (n/2) as its t-th couple, t = j div (n/2), and each owner's couples
      are consecutive, so the x-owner of a pair's t-th couple is o_t and
      its y-owner o_{c + t} (x-owners precede y-owners).
    * Role b is free ranks (m - 1)/2 .. m - 2 of the m = k - 2c, so its
      free vertices are those in the span [col((m - 1)/2), col(m - 1)),
      col(m - 1) being the last free vertex, of role a.  Row lo beats
      role b and the y-owners: the span, XOR the x-owners inside it, XOR
      the y-owners outside it.  Row hi beats role a and the y-owners:
      [0, k) less the span, XOR the x-owners outside it, XOR the
      y-owners inside it.  So each owner is one cell of row lo or hi.
    """
    import numpy as np

    from .digraph import _fill, _place_arcs

    xs, ys = witness.xs, witness.ys
    k = len(xs) + len(ys)
    n = bits.shape[0] - k
    n_pairs = n // 2
    couples = witness.common_sum // 2

    # The pairing is sorted, so its keys increase and need no sort.
    lo, hi = np.array(pairing, dtype=np.int64).reshape(-1, 2).T
    _place_arcs(bits, lo, hi)

    # Couple j pairs the j-th positive half-unit with the j-th negative
    # one and goes to pair j mod n/2 as its t-th couple, so one owner's
    # units land on distinct pairs (its demand is at most n/2 units).
    x_owner = np.repeat(np.arange(len(xs)), np.asarray(xs, dtype=np.int64) // 2)
    y_owner = np.repeat(np.arange(len(xs), k), np.asarray(ys, dtype=np.int64) // 2)
    assert x_owner.size == couples and y_owner.size == couples
    t, pair = np.divmod(np.arange(couples), max(n_pairs, 1))
    hosted = np.bincount(pair, minlength=n_pairs)
    m = k - 2 * hosted
    x_below, y_below = x_owner - t, y_owner - hosted[pair] - t  # o_j - j

    def col(f: np.ndarray) -> np.ndarray:
        below = np.bincount(pair[x_below <= f[pair]], minlength=n_pairs)
        return f + below + np.bincount(pair[y_below <= f[pair]], minlength=n_pairs)

    start, stop = col((m - 1) // 2), col(m - 1)
    x_in = (start[pair] <= x_owner) & (x_owner < stop[pair])
    y_in = (start[pair] <= y_owner) & (y_owner < stop[pair])
    new = np.arange(k)
    owners = np.concatenate((x_owner, y_owner))
    owner_rows = np.concatenate((np.where(x_in, lo[pair], hi[pair]), np.where(y_in, hi[pair], lo[pair])))
    rows = (n + new, lo, hi, hi, owner_rows)
    firsts = (new + 1, start, np.zeros_like(start), stop, owners)
    lasts = (np.minimum(new + (k + 1) // 2, k), stop, start, np.full_like(stop, k), owners + 1)
    _fill(bits, np.concatenate(rows), n + np.concatenate(firsts), n + np.concatenate(lasts))


def _verified_certificate(
    graph: Digraph, members: frozenset[int], order: int
) -> Digraph:
    """The one check of every certificate: order, simple oriented graph,
    every pair joined, and the exact imbalance set.

    Once :func:`~imbalanceset.digraph._check_packed` passes on the
    packed rows (no self-loop, no opposing pair), the tournament test
    and the imbalances take one pass of bit counts over the rows, by
    :func:`~imbalanceset.digraph._tournament_imbalances`.
    """
    from .digraph import _check_packed, _tournament_imbalances

    if graph.n != order:
        raise AssertionError(f"certificate order {graph.n}, expected {order}")
    try:
        _check_packed(graph._bits)
    except ValueError as exc:
        raise AssertionError(f"certificate is not a simple oriented graph: {exc}") from None
    imbalances = _tournament_imbalances(graph)
    if imbalances is None:
        raise AssertionError("certificate is not a tournament")
    if frozenset(imbalances.tolist()) != members:
        raise AssertionError("certificate imbalance set mismatch")
    return graph
