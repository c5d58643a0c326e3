"""Graph checks of the benchmark, independent of the program's formats.

A reader of our own for the three file formats, and tournament checks
on an arc list or an adjacency matrix.  Runs in child processes only.
"""

from __future__ import annotations

import json
import re

import numpy as np

from reference import Expected

_DOT_LINE = re.compile(r"[ \t]*(\d+)[ \t]*->[ \t]*(\d+)[ \t]*;[ \t]*\n")
_DOT_NODE = re.compile(r"^[ \t]*(\d+)[ \t]*;[ \t]*$", re.MULTILINE)


def read_graph(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Read a dot, edge-list or json graph file into (order, src, dst).

    The format comes from the extension.  Raises ValueError on anything
    that is not a well-formed document of that format.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        arcs = np.asarray(doc["arcs"], dtype=np.int64).reshape(-1, 2)
        return int(doc["n"]), arcs[:, 0].copy(), arcs[:, 1].copy()
    if path.endswith(".dot"):
        if not text.startswith("digraph {\n") or not text.endswith("}\n"):
            raise ValueError("not a dot digraph document")
        body = text[len("digraph {\n") : -2]
        nodes = [int(v) for v in _DOT_NODE.findall(body)]
        arc_text = _DOT_NODE.sub("", body)
        tokens = arc_text.replace("->", " ").replace(";", " ").split()
        if len(_DOT_LINE.findall(arc_text)) * 2 != len(tokens):
            raise ValueError("malformed dot arc line")
        flat = np.array(tokens, dtype=np.int64)
        src, dst = flat[0::2], flat[1::2]
        order = 1 + max([-1, *nodes, int(flat.max(initial=-1))])
        return order, src, dst
    if path.endswith(".edges"):
        head, _, body = text.partition("\n")
        m = re.fullmatch(r"# tournament n=(\d+)", head)
        if not m:
            raise ValueError("edge list lacks its header")
        rows = body.splitlines()
        if any(len(r.split()) != 2 for r in rows):
            raise ValueError("malformed edge-list line")
        flat = np.array(body.split(), dtype=np.int64)
        return int(m.group(1)), flat[0::2], flat[1::2]
    raise ValueError(f"unknown graph file extension: {path}")


def check_arcs(exp: Expected, order: int, src: np.ndarray, dst: np.ndarray) -> str | None:
    """None when the arc list is a tournament with imbalance set Z."""
    if order != exp.order:
        return f"order {order}, expected {exp.order}"
    if src.size != order * (order - 1) // 2:
        return f"{src.size} arcs, a tournament of order {order} has {order * (order - 1) // 2}"
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= order):
        return "arc endpoint out of range"
    if (src == dst).any():
        return "self-loop"
    pair = np.minimum(src, dst) * order + np.maximum(src, dst)
    if np.unique(pair).size != pair.size:
        return "a vertex pair carries two arcs"
    imb = np.bincount(src, minlength=order) - np.bincount(dst, minlength=order)
    got = frozenset(int(v) for v in np.unique(imb))
    if got != exp.members:
        return f"imbalance set {sorted(got)}, expected {sorted(exp.members)}"
    return None


def check_matrix(exp: Expected, adj: np.ndarray, block: int = 512) -> str | None:
    """None when a 0/1 adjacency matrix is a tournament with imbalance set Z.

    Works in row blocks so the check adds little to the peak memory of
    the process holding the matrix.
    """
    order = adj.shape[0]
    if adj.shape != (order, order):
        return "adjacency matrix is not square"
    if order != exp.order:
        return f"order {order}, expected {exp.order}"
    imb = np.zeros(order, dtype=np.int64)
    for lo in range(0, order, block):
        hi = min(lo + block, order)
        rows = adj[lo:hi].astype(np.int16)
        both = rows + adj[:, lo:hi].T
        idx = np.arange(hi - lo)
        if (both[idx, idx + lo] != 0).any():
            return "self-loop"
        both[idx, idx + lo] = 1
        if (both != 1).any():
            return "a vertex pair is unjoined or carries two arcs"
        imb[lo:hi] = 2 * rows.sum(axis=1, dtype=np.int64) - (order - 1)
    got = frozenset(int(v) for v in np.unique(imb))
    if got != exp.members:
        return f"imbalance set {sorted(got)}, expected {sorted(exp.members)}"
    return None
