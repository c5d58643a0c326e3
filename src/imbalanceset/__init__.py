"""Tournament imbalance sets: decision, construction, and verification.

The imbalance of a vertex is its out-degree minus its in-degree; the
imbalance set of a digraph is the set of its vertex imbalances.  This
package decides whether a finite set of integers is the imbalance set
of some tournament and, when it is, constructs an explicit tournament
realizing it, together with the sequence-level feasibility checks, the
equal-sum sequence search that powers the even case, and brute-force
oracles for independent verification.
"""

from .digraph import Digraph, VertexImbalance
from .equalsum import EqualSumWitness, min_odd_equal_sum, solve_esseq
from .errors import DoubledPairError, ResourceLimitError
from .oracle import (
    brute_min_order,
    brute_zero_sum_min_odd,
    enumerate_tournaments,
)
from .realize import (
    RealizationError,
    RealizationReport,
    max_arc_count,
    max_realization,
    verify_realization,
)
from .sequences import (
    CheckFailure,
    ImbalanceSet,
    canonical_sequence,
    check_digraph_imbalance,
    check_landau,
    check_tournament_imbalance,
    digraph_imbalance_failure,
    imbalances_from_scores,
    landau_failure,
    scores_from_imbalances,
    tournament_imbalance_failure,
)
from .tis import (
    REFUSAL_MIXED_PARITY,
    REFUSAL_NO_ODD_EQUAL_SUM,
    REFUSAL_ONE_SIDED,
    TisDecision,
    add_apex_zero,
    add_arcs,
    decide_tis,
    order_upper_bound,
    realize_imbalance_set,
)

__version__ = "0.1.0"

__all__ = [
    "CheckFailure",
    "Digraph",
    "DoubledPairError",
    "EqualSumWitness",
    "ImbalanceSet",
    "RealizationError",
    "RealizationReport",
    "REFUSAL_MIXED_PARITY",
    "REFUSAL_NO_ODD_EQUAL_SUM",
    "REFUSAL_ONE_SIDED",
    "ResourceLimitError",
    "TisDecision",
    "VertexImbalance",
    "add_apex_zero",
    "add_arcs",
    "brute_min_order",
    "brute_zero_sum_min_odd",
    "canonical_sequence",
    "check_digraph_imbalance",
    "check_landau",
    "check_tournament_imbalance",
    "decide_tis",
    "digraph_imbalance_failure",
    "enumerate_tournaments",
    "imbalances_from_scores",
    "landau_failure",
    "max_arc_count",
    "max_realization",
    "min_odd_equal_sum",
    "order_upper_bound",
    "realize_imbalance_set",
    "scores_from_imbalances",
    "solve_esseq",
    "tournament_imbalance_failure",
    "verify_realization",
]
