"""The bit-packed adjacency rows and the 8 x 8 bit-block kernel.

``digraph._transpose8`` is checked against ``np.transpose`` block by
block; the mirror, the certificate check and the passes that read
columns (in-degrees, unjoined pairs) against plain ``uint8`` matrix
arithmetic, on orders that are not multiples of 8 and with the band
height patched small, so that bands, bytes and tiles all end ragged.
Forged certificates put each fault at a byte or band boundary.  Arc
placement into packed rows is checked against the ``uint8`` scatter it
replaced, ``reference_digraph.place_arcs``; the interval writer against
cells set one by one in an unpacked ``uint8`` matrix; and the resizing
of packed rows against ``np.packbits`` of the same cells.
"""

import re

import numpy as np
import pytest

import reference_digraph
from imbalanceset import Digraph, digraph, realize_imbalance_set
from imbalanceset.digraph import _check_packed
from imbalanceset.realize import _certified

ORDERS = (1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 70)
TILES = (8, 16, 24, 512)  # bands of 1, 2, 3 and 64 block rows


def _pack(adj):
    return np.packbits(adj, axis=1, bitorder="little")


def _unpack(bits, n):
    return np.unpackbits(bits, axis=1, count=n, bitorder="little")


def _tournament(rng, n):
    upper = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    return upper + np.tril(1 - upper.T, -1)


def test_transpose8_matches_np_transpose_on_random_blocks():
    rng = np.random.default_rng(8)
    # Planes of 15, 6, 4 and 16 bytes: words of 1, 2, 4 and 8 bytes.
    for blocks, width in ((5, 3), (3, 2), (1, 4), (4, 4)):
        cells = rng.integers(0, 2, size=(blocks, 8, width, 8), dtype=np.uint8)  # blocks (R, C) of 8 x 8 cells
        rows = _pack(cells.reshape(8 * blocks, 8 * width))
        x = rows.reshape(blocks, 8, width).transpose(1, 2, 0).copy()  # plane i: row i of every block
        digraph._transpose8(x)
        got = _unpack(x.transpose(2, 0, 1).reshape(8 * blocks, width), 8 * width).reshape(cells.shape)
        assert (got == cells.transpose(0, 3, 2, 1)).all(), (blocks, width)  # each block transposed in place


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n", ORDERS)
def test_mirror_fills_every_lower_cell(monkeypatch, n, tile):
    monkeypatch.setattr(digraph, "_TILE", tile)
    rng = np.random.default_rng(n * 100 + tile)
    upper = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    bits = _pack(upper)
    digraph._mirror(bits)
    assert (_unpack(bits, n) == upper + np.tril(1 - upper.T, -1)).all()


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n", ORDERS)
def test_check_packed_leaves_the_rows_byte_identical(monkeypatch, n, tile):
    monkeypatch.setattr(digraph, "_TILE", tile)
    rng = np.random.default_rng(n * 10 + tile)
    state = np.triu(rng.integers(0, 3, size=(n, n)), 1)
    adj = ((state == 1) | (state == 2).T).astype(np.uint8)  # unjoined pairs too
    bits = _pack(adj)
    before = bits.tobytes()
    degrees = digraph._check_packed(bits)
    assert bits.tobytes() == before
    assert (degrees == adj.sum(axis=1)).all()


def _intervals(rng, n, disjoint):
    """Random intervals (rows, lo, hi) of an order-n matrix, in random
    order or in row order: disjoint in each row, cut at columns 0 and n, at byte and
    word edges and one cell wide, or else anywhere, empty and
    overlapping ones included."""
    rows, lo, hi = [], [], []
    edges = sorted({0, n} | {c + d for c in range(0, n + 1, 8) for d in (-1, 0, 1) if 0 <= c + d <= n})
    for row in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist():
        if disjoint:
            cuts = rng.choice(edges, size=min(len(edges), 2 * int(rng.integers(1, 5))), replace=False)
            cuts = np.sort(np.concatenate((cuts, cuts[:2] + 1)))  # one cell wide when cut and cut + 1 pair up
            cuts = np.unique(np.minimum(cuts, n))
            ends = cuts[: len(cuts) // 2 * 2].reshape(-1, 2)
        else:
            ends = np.sort(rng.integers(0, n + 1, size=(int(rng.integers(1, 6)), 2)), axis=1)
        rows += [row] * len(ends)
        lo += ends[:, 0].tolist()
        hi += ends[:, 1].tolist()
    order = rng.permutation(len(rows)) if rng.random() < 0.5 else np.lexsort((lo, rows))  # as the greedy
    return tuple(np.array(x, dtype=np.int64)[order] for x in (rows, lo, hi))


# Orders 1-130 in all (every n mod 8 and mod 64; _fill takes at least
# one interval, so no order 0); bands of 1 row, of a few rows and the
# program's.
@pytest.mark.parametrize("first", range(0, 131, 27))
@pytest.mark.parametrize("fill", (1, 100, 400, digraph._FILL))
def test_fill_matches_the_uint8_cells(monkeypatch, fill, first):
    monkeypatch.setattr(digraph, "_FILL", fill)
    rng = np.random.default_rng(fill + first)
    for n in range(max(first, 1), min(first + 27, 131)):
        for disjoint in (True, False):
            adj = (rng.random((n, n)) < 0.2).astype(np.uint8)  # cells already set stay set
            want = adj.copy()
            rows, lo, hi = _intervals(rng, n, disjoint)
            parity = np.zeros_like(adj)
            for r, a, b in zip(rows.tolist(), lo.tolist(), hi.tolist()):
                parity[r, a:b] ^= 1
            want |= parity
            if disjoint:
                assert (parity.sum() == (hi - lo).sum()), n  # the intervals of a row do not meet
            bits = _pack(adj)
            digraph._fill(bits, rows, lo, hi)
            assert (bits == _pack(want)).all(), (n, disjoint)


@pytest.mark.parametrize("n", ORDERS)
def test_resized_grows_and_trims_as_matrix_slices(n):
    g = Digraph._from_bits(_pack(np.random.default_rng(n).integers(0, 2, size=(n, n), dtype=np.uint8)))
    for order in range(n + 10):
        resized = digraph._resized(g._bits, order)
        want = np.zeros((order, order), dtype=np.uint8)
        want[:n, :n] = g.matrix()[:order, :order]
        assert (resized == _pack(want)).all(), order  # the bits past column order - 1 too
        assert resized is g._bits if order == n else resized.flags.writeable


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n", ORDERS)
def test_column_passes_match_the_cells(monkeypatch, n, tile):
    monkeypatch.setattr(digraph, "_TILE", tile)
    rng = np.random.default_rng(n * 7 + tile)
    state = np.triu(rng.integers(0, 3, size=(n, n)), 1)
    adj = ((state == 1) | (state == 2).T).astype(np.uint8)
    g = Digraph.from_matrix(adj)
    assert (g.matrix() == adj).all()
    assert (g.out_degrees() == adj.sum(axis=1)).all()
    assert (g.in_degrees() == adj.sum(axis=0)).all()
    assert g.arc_count == int(adj.sum())
    assert list(g.arcs()) == [(int(u), int(v)) for u, v in np.argwhere(adj)]
    unjoined = tuple((int(u), int(v)) for u, v in np.argwhere(np.triu((adj | adj.T) == 0, 1)))
    assert g.non_neighbour_pairs() == unjoined
    assert g.first_non_neighbour_pair() == (unjoined[0] if unjoined else None)


def test_first_unjoined_pair_scans_one_band(monkeypatch):
    monkeypatch.setattr(digraph, "_TILE", 8)
    adj = _tournament(np.random.default_rng(40), 40)
    adj[3, 5] = adj[5, 3] = 0
    g = Digraph.from_matrix(adj)
    calls = []
    transpose8 = digraph._transpose8
    monkeypatch.setattr(digraph, "_transpose8", lambda x: calls.append(x.shape) or transpose8(x))
    assert g.first_non_neighbour_pair() == (3, 5)
    assert calls == [(8, 1, 5)]  # band 0 of 5: its columns below, as planes


def _forgeries(n, tile):
    """Cells next to byte and band edges, as (u, v) with u < v."""
    edges = {0, 7, 8, tile - 1, tile, n - 2, n - 1} | {8 * k + j for k in range(n // 8 + 1) for j in (0, 7)}
    cells = sorted({(u, v) for u in edges for v in edges if 0 <= u < v < n})
    return cells[:: max(1, len(cells) // 40)]


@pytest.mark.parametrize("tile", (8, 16, 512))
@pytest.mark.parametrize("n", (9, 17, 23, 33))
def test_forged_certificates_are_refused(monkeypatch, n, tile):
    monkeypatch.setattr(digraph, "_TILE", tile)
    adj = _tournament(np.random.default_rng(n * tile), n)
    members = frozenset(Digraph.from_matrix(adj).imbalance_set())
    assert _certified(_pack(adj), members, n, _check_packed).n == n
    for u, v in _forgeries(n, tile):
        opposing = adj.copy()
        opposing[u, v] = opposing[v, u] = 1
        missing = adj.copy()
        missing[u, v] = missing[v, u] = 0
        for forged, message in ((opposing, "opposing arc pairs"), (missing, "not a tournament")):
            with pytest.raises(AssertionError, match=message):
                _certified(_pack(forged), members, n, _check_packed)
        looped = adj.copy()
        looped[v, v] = 1
        with pytest.raises(AssertionError, match="self-loops"):
            _certified(_pack(looped), members, n, _check_packed)


def test_a_broken_pass_is_not_reported_as_a_bad_certificate(monkeypatch):
    # Upper rows sliced one byte late: numpy's shape error must surface
    # as itself, not as a certificate that is not a simple oriented graph.
    bands = digraph._bands
    monkeypatch.setattr(digraph, "_bands", lambda bits: ((r0, up[:, 1:], low) for r0, up, low in bands(bits)))
    message = "non-broadcastable output operand with shape (7,1,64) doesn't match the broadcast shape (7,0,64)"
    with pytest.raises(ValueError, match=re.escape(message)):
        realize_imbalance_set({4, -998})


def _faulty_arcs(rng, n):
    """The arcs of a random simple oriented graph of order n in file
    order, with up to four faults put in at random places: a duplicate,
    an opposing arc, an id out of range or negative, a self-loop."""
    state = np.triu(rng.integers(0, 3, size=(n, n)), 1)
    arcs = [tuple(a) for a in np.argwhere((state == 1) | (state == 2).T).tolist()]
    for _ in range(rng.integers(0, 5)):
        u = int(rng.integers(0, max(n, 1)))
        kind = rng.integers(0, 4)
        if kind == 0 and arcs:
            fault = arcs[rng.integers(len(arcs))]
        elif kind == 1 and arcs:
            fault = arcs[rng.integers(len(arcs))][::-1]
        elif kind == 2:
            fault = (u, int(rng.choice((n, n + 9, -1, -n - 3, 2**40))))[:: rng.choice((1, -1))]
        else:
            fault = (u, u)
        arcs.insert(rng.integers(len(arcs) + 1), fault)
    return np.array(arcs, dtype=np.int64).reshape(-1, 2)


def _place_in_calls(place, cells, arcs, cuts):
    """Place ``arcs`` call by call, cut at ``cuts``: the first fault raised
    (type and message), or None, and the cells placed."""
    try:
        for block in np.split(arcs, cuts):
            place(block[:, 0], block[:, 1])
    except ValueError as exc:
        return (type(exc), str(exc)), cells()
    return None, cells()


def test_placement_matches_the_uint8_scatter():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(1500):
        n = int(rng.integers(0, 41))
        arcs = _faulty_arcs(rng, n)
        s, d = arcs[:, 0], arcs[:, 1]
        orders = (
            np.arange(len(arcs)),  # file order
            rng.permutation(len(arcs)),
            np.lexsort((-d, d >> 3, s)),  # the arcs of each byte in decreasing order
        )
        for order in orders:
            ids = arcs[order]
            if rng.random() < 0.3 and ids.size and ids.min() >= 0 and ids.max() < 2**31:
                ids = ids.astype(np.int32)
            cuts = np.sort(rng.integers(0, len(ids) + 1, size=rng.integers(0, 4)))
            flat = np.zeros(n * n, dtype=np.uint8)
            want = _place_in_calls(
                lambda u, v: reference_digraph.place_arcs(flat, n, u, v), lambda: flat.reshape(n, n), ids, cuts
            )
            bits = digraph._zeros(n)
            got = _place_in_calls(
                lambda u, v: digraph._place_arcs(bits, u, v), lambda: _unpack(bits, n), ids, cuts
            )
            assert got[0] == want[0], (n, ids.tolist(), cuts)
            assert (got[1] == want[1]).all(), (n, ids.tolist(), cuts)
            seen.add(want[0] and want[0][1].split()[0])
    assert seen == {None, "duplicate", "opposing", "arc", "self-loop"}
