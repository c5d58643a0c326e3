"""The per-arc, per-line graph I/O that imbalanceset.formats replaced.

Kept only as the reference for the differential tests: every emitter
builds one string per arc from ``Digraph.arcs()``, every parser splits
the document into lines and feeds the arcs one at a time to the
per-arc check that ``Digraph.__init__`` used to run.  Behaviour is
exactly the replaced code's, including its error messages.
"""

from __future__ import annotations

import json
import re

import numpy as np

from imbalanceset import Digraph

_DOT_ARC = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*;\s*$")
_DOT_NODE = re.compile(r"^\s*(\d+)\s*;\s*$")


def build(n: int, arcs) -> Digraph:
    """The replaced per-arc ``Digraph.__init__`` loop."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if adj[v, u]:
            raise ValueError(f"opposing arcs between {u} and {v}")
        if adj[u, v]:
            raise ValueError(f"duplicate arc ({u}, {v})")
        adj[u, v] = 1
    return Digraph.from_matrix(adj)


def emit_dot(graph: Digraph) -> str:
    lines = ["digraph {"]
    degrees = graph.out_degrees() + graph.in_degrees()
    for v in np.flatnonzero(degrees == 0):
        lines.append(f"  {int(v)};")
    for u, v in graph.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text: str) -> Digraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        raise ValueError("not a dot digraph document")
    arcs: list[tuple[int, int]] = []
    seen = -1
    for ln in lines[1:-1]:
        m = _DOT_ARC.match(ln)
        if m:
            u, v = int(m.group(1)), int(m.group(2))
            arcs.append((u, v))
            seen = max(seen, u, v)
            continue
        m = _DOT_NODE.match(ln)
        if m:
            seen = max(seen, int(m.group(1)))
            continue
        raise ValueError(f"unparseable dot line: {ln!r}")
    return build(seen + 1, arcs)


def emit_edgelist(graph: Digraph) -> str:
    lines = [f"# tournament n={graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.arcs())
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Digraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list document")
    header = re.match(r"^#\s*tournament\s+n=(\d+)$", lines[0])
    if not header:
        raise ValueError("edge list must start with '# tournament n=<n>'")
    n = int(header.group(1))
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"unparseable edge-list line: {ln!r}")
        arcs.append((int(parts[0]), int(parts[1])))
    return build(n, arcs)


def emit_json(graph: Digraph) -> str:
    doc = {
        "n": graph.n,
        "arcs": [[u, v] for u, v in graph.arcs()],
        "imbalance_sequence": list(graph.imbalance_sequence()),
        "imbalance_set": sorted(graph.imbalance_set(), reverse=True),
    }
    return json.dumps(doc, indent=None, separators=(", ", ": ")) + "\n"


def parse_json(text: str) -> Digraph:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "arcs" not in doc:
        raise ValueError("json document must carry 'n' and 'arcs'")
    return build(int(doc["n"]), [(int(u), int(v)) for u, v in doc["arcs"]])


EMIT = {"dot": emit_dot, "edgelist": emit_edgelist, "json": emit_json}
PARSE = {"dot": parse_dot, "edgelist": parse_edgelist, "json": parse_json}
