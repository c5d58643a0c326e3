"""Certificates stay bit-for-bit what they were when the digests were taken.

``data/certificate_digests.json`` holds, for each set, the order and the
SHA-256 of the packed adjacency rows of ``realize_imbalance_set``'s
tournament.  The sets are every realizable 2- or 3-member set from
{-10..10}, a few named large expansions, and the six ``build-large``
sets of benchmark seed 1.  Regenerate the file only for an intended
change of certificate:

    PYTHONPATH=src python tests/test_certificate_digests.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from imbalanceset import decide_tis, realize_imbalance_set

DATA = Path(__file__).resolve().parent / "data" / "certificate_digests.json"

NAMED = (
    (4, -998),
    (2, 0, -1998),
    (3, 1, -2001),
    (2, -3300),
    (5652, -2),
    (0, 2, -3470),
    (12, -8, -24),
)
# perfbench/workloads.py, workload build-large, seed 1.
BUILD_LARGE_SEED_1 = (
    (5, 1, -1507),
    (4020, 0, -2),
    (2, -3340),
    (2981, -1, -7),
    (6, 0, -3494),
    (5652, -2),
)


def _sets() -> list[tuple[int, ...]]:
    small = [
        combo
        for r in (2, 3)
        for combo in itertools.combinations(range(-10, 11), r)
        if decide_tis(combo).verdict
    ]
    named = [tuple(sorted(s)) for s in NAMED + BUILD_LARGE_SEED_1]
    return small + sorted(set(named))


def _digest(members: tuple[int, ...]) -> dict:
    graph = realize_imbalance_set(members)
    return {
        "members": list(members),
        "order": graph.n,
        "sha256": hashlib.sha256(graph._bits.tobytes()).hexdigest(),
    }


def test_certificates_match_their_digests():
    golden = json.loads(DATA.read_text())
    assert [d["members"] for d in golden] == [list(s) for s in _sets()]
    for want in golden:
        assert _digest(tuple(want["members"])) == want, want["members"]


if __name__ == "__main__":
    DATA.write_text(json.dumps([_digest(s) for s in _sets()], indent=0) + "\n")
