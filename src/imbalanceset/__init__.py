"""Tournament imbalance sets: decision, construction, and verification.

The imbalance of a vertex is its out-degree minus its in-degree; the
imbalance set of a digraph is the set of its vertex imbalances.  This
package decides whether a finite set of integers is the imbalance set
of some tournament and, when it is, constructs an explicit tournament
realizing it, together with the sequence-level feasibility checks, the
equal-sum sequence search that powers the even case, and brute-force
oracles for independent verification.

Import boundary: the verdict is arithmetic (sign, parity, the 2-adic
rule and a search over small integers), so numpy is loaded only by the
modules that build, write, read or check a matrix, at import:
:mod:`.digraph`, :mod:`.realize` (so every name it exports, such as
``max_arc_count``), :mod:`.formats` and :mod:`.oracle`; :mod:`.tis`
imports :mod:`.realize` only to build a certificate.  The names below
are exported lazily (PEP 562): ``import imbalanceset`` loads no
submodule, and each name loads only its own module on first use.  So
``decide_tis`` without a certificate, ``order_upper_bound`` and the CLI
commands other than ``realize`` and ``verify`` (or ``--budget``) never
import numpy.  Nor does that path load :mod:`inspect` (the record
types are named tuples) or :mod:`json`, which only ``--json`` output
and the JSON graph format import.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  Each submodule named
# here also resolves as an attribute, as when these were eager imports,
# and so does formats, whose emit, parse and write no name here exports.
_EXPORTS = {
    "CheckFailure": "sequences",
    "Digraph": "digraph",
    "DoubledPairError": "errors",
    "EqualSumWitness": "equalsum",
    "ImbalanceSet": "sequences",
    "RealizationError": "realize",
    "RealizationReport": "realize",
    "REFUSAL_MIXED_PARITY": "tis",
    "REFUSAL_NO_ODD_EQUAL_SUM": "tis",
    "REFUSAL_ONE_SIDED": "tis",
    "ResourceLimitError": "errors",
    "TisDecision": "tis",
    "add_apex_zero": "realize",
    "add_arcs": "realize",
    "brute_min_order": "oracle",
    "brute_zero_sum_min_odd": "oracle",
    "canonical_sequence": "sequences",
    "check_digraph_imbalance": "sequences",
    "check_landau": "sequences",
    "check_tournament_imbalance": "sequences",
    "decide_tis": "tis",
    "digraph_imbalance_failure": "sequences",
    "enumerate_tournaments": "oracle",
    "imbalances_from_scores": "sequences",
    "landau_failure": "sequences",
    "max_arc_count": "realize",
    "max_realization": "realize",
    "min_odd_equal_sum": "equalsum",
    "order_upper_bound": "tis",
    "realize_imbalance_set": "tis",
    "scores_from_imbalances": "sequences",
    "solve_esseq": "equalsum",
    "tournament_imbalance_failure": "sequences",
    "verify_realization": "realize",
}

__all__ = list(_EXPORTS)
_MODULES = {*_EXPORTS.values(), "formats"}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
