"""Shared exception types, every resource cap (the oracles' included) and the
graph file format names.  Caps bound work, not answers: each is checked before the
memory it guards or the search it bounds.  Nothing here loads numpy, so the CLI
parser can list the formats without importing :mod:`imbalanceset.formats`."""

from math import isqrt

SEARCH_WORK_CAP = 10**6  # odd zero-sum search: |X|*max|Y| + |Y|*max X
MATRIX_CELL_CAP = 1_000_000_000  # dense adjacency matrix cells
MAX_MATRIX_ORDER = isqrt(MATRIX_CELL_CAP)  # the largest order check_matrix_order passes
# MAX_MATRIX_ORDER <= SEARCH_WORK_CAP: a certificate's order n passes
# check_matrix_order before the odd zero-sum search, whose work is at most n
# (fact 4 of imbalanceset.equalsum), so the search for a certificate is never
# refused.  tis.decide_tis relies on it; tests/test_tis.py checks it.
WITNESS_TABLE_BIT_CAP = 2**32  # odd-total equal-sum witness tables, in bits
ESSEQ_SUM_CAP = 50_000_000  # bounded equal-sum search: largest sum
ORACLE_WORK_CAP = 2**21  # brute-force oracles: cases through the next layer, terms in brute_min_order

FORMATS = ("dot", "edgelist", "json")  # graph file formats


class ResourceLimitError(RuntimeError):
    """An input is structurally fine but exceeds the configured size cap."""


class DoubledPairError(ValueError):
    """A list of arcs joins some vertex pair twice (duplicate or opposing arcs)."""


def check_matrix_order(order: int) -> None:
    """Refuse a dense matrix of this order before it is allocated."""
    if order * order > MATRIX_CELL_CAP:
        raise ResourceLimitError(f"order {order} needs {order * order} matrix cells")
