"""Batched even-odd rasterization: the vectorized scanline kernel.

The scalar rasterizer (`region_spans` in :mod:`repro.slicer.toolpath`,
the per-scanline loop it drove in :mod:`repro.slicer.preview`) walked
every scanline in Python, recomputing each contour's edge crossings one
``y`` at a time.  Profiling the counterfeiter grid search shows that
loop *is* the deposit hot path: ~75% of a chain run was spent producing
crossings scanline-by-scanline.

This module computes all contour-edge x scanline crossings in one
broadcast NumPy pass and fills the even-odd parity spans with a
sorted-interval merge and one XOR scan, so a whole layer - or a whole layer
*stack* - rasterizes in a handful of array operations.  The kernel is
bit-identical to the scalar path by construction:

* crossings use the same per-edge expression
  ``px + (y - py) / (qy - py) * (qx - px)`` (IEEE ops are elementwise,
  so broadcasting cannot change a single bit of any crossing);
* crossings are sorted per scanline and paired in even-odd order, and
  pairs no wider than the same ``1e-9`` epsilon are dropped;
* span endpoints map to cells with the same ``floor``/``ceil`` snapping
  and the same out-of-frame clipping.

The scalar implementations are retained (`region_spans` stays the
public single-``y`` API; the tests use both as reference oracles).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Spans narrower than this are degenerate (tangent vertices) and
#: dropped - the same epsilon the scalar ``region_spans`` uses.
SPAN_EPS = 1e-9


def contour_edges(contours) -> Tuple[np.ndarray, np.ndarray]:
    """All directed edges ``(p, q)`` of a contour set, concatenated.

    Returns two ``(n_edges, 2)`` arrays; closing edges (last vertex back
    to first) are included, matching the ``np.roll`` in the scalar path.
    """
    if not contours:
        empty = np.empty((0, 2), dtype=float)
        return empty, empty.copy()
    ps = [np.asarray(c.points, dtype=float) for c in contours]
    qs = [np.roll(p, -1, axis=0) for p in ps]
    return np.vstack(ps), np.vstack(qs)


def edge_crossings(
    p: np.ndarray, q: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (scanline, edge) crossing of edge set ``(p, q)``.

    Returns ``(rows, cols, xs)``: for each crossing, the scanline index
    into ``ys``, the edge index, and the crossing x.  An edge crosses
    scanline ``y`` iff exactly one endpoint satisfies ``end_y > y`` -
    the same half-open rule as the scalar path, which makes vertices
    lying exactly on a scanline count once, not twice.
    """
    ys = np.asarray(ys, dtype=float)
    if p.shape[0] == 0 or ys.shape[0] == 0:
        z = np.empty(0, dtype=np.intp)
        return z, z.copy(), np.empty(0, dtype=float)
    above_p = p[:, 1][None, :] > ys[:, None]  # (n_scanlines, n_edges)
    above_q = q[:, 1][None, :] > ys[:, None]
    rows, cols = np.nonzero(above_p != above_q)
    py, qy = p[cols, 1], q[cols, 1]
    px, qx = p[cols, 0], q[cols, 0]
    xs = px + (ys[rows] - py) / (qy - py) * (qx - px)
    return rows, cols, xs


def _pair_crossings(
    rows: np.ndarray, xs: np.ndarray, n_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort crossings per row and pair them even-odd into spans.

    Returns ``(span_rows, x_in, x_out)`` with degenerate spans
    (``x_out - x_in <= SPAN_EPS``) removed.  A trailing unpaired
    crossing (odd count, a degenerate touch) is dropped, as in the
    scalar path.
    """
    if rows.size == 0:
        z = np.empty(0, dtype=np.intp)
        return z, np.empty(0, dtype=float), np.empty(0, dtype=float)
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    order = np.lexsort((xs, rows))
    xs_sorted = xs[order]
    rows_sorted = rows[order]
    position = np.arange(xs_sorted.size) - starts[rows_sorted]
    is_in = (position % 2 == 0) & (position + 1 < counts[rows_sorted])
    in_idx = np.nonzero(is_in)[0]
    x_in = xs_sorted[in_idx]
    x_out = xs_sorted[in_idx + 1]
    keep = x_out - x_in > SPAN_EPS
    return rows_sorted[in_idx[keep]], x_in[keep], x_out[keep]


def _clipped_spans(
    span_rows: np.ndarray,
    x_in: np.ndarray,
    x_out: np.ndarray,
    x0: float,
    nx: int,
    cell: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Span endpoints as cell indices ``[lo, hi)``, clipped to the frame;
    spans wholly outside it are dropped."""
    i0 = np.floor((x_in - x0) / cell)
    i1 = np.ceil((x_out - x0) / cell)
    inside = (i1 > 0) & (i0 < nx)
    rows = span_rows[inside]
    lo = np.clip(i0[inside], 0, nx).astype(np.intp)
    hi = np.clip(i1[inside], 0, nx).astype(np.intp)
    return rows, lo, hi


def fill_spans(
    span_rows: np.ndarray,
    x_in: np.ndarray,
    x_out: np.ndarray,
    x0: float,
    nx: int,
    cell: float,
    n_rows: int,
) -> np.ndarray:
    """Paint x-spans onto a ``(n_rows, nx)`` boolean raster.

    A span fills cells ``floor((x_in - x0)/cell)`` up to (exclusive)
    ``ceil((x_out - x0)/cell)``, clipped to the frame - identical to the
    scalar fill.  Overlapping spans union: the ``[lo, hi)`` intervals
    are sorted and merged per row (a running maximum of interval ends
    over a flat ``row * (nx + 1) + x`` index), each merged interval
    toggles a bool array at its two ends, and one XOR scan fills
    between them - no scatter-add and no integer prefix sum over the
    whole raster.  :func:`_fill_spans_add_at` is the retained oracle.
    """
    if span_rows.size == 0:
        return np.zeros((n_rows, nx), dtype=bool)
    rows, lo, hi = _clipped_spans(span_rows, x_in, x_out, x0, nx, cell)
    if rows.size == 0:
        return np.zeros((n_rows, nx), dtype=bool)
    width = nx + 1  # one spare column: an interval may end at x = nx
    starts = rows * width + lo
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    reach = np.maximum.accumulate((rows * width + hi)[order])
    # An interval opens a new merged run unless it begins inside (or
    # right at the end of) everything before it; rows never merge,
    # since a row's ends stay below the next row's first index.
    opens = np.ones(starts.size, dtype=bool)
    np.greater(starts[1:], reach[:-1], out=opens[1:])
    first = np.nonzero(opens)[0]
    last = np.append(first[1:] - 1, starts.size - 1)
    toggle = np.zeros(n_rows * width, dtype=bool)
    toggle[starts[first]] = True
    # Run ends are distinct and never another run's start; an empty
    # run (start == end) toggles twice and stays unfilled.
    toggle[reach[last]] ^= True
    filled = np.logical_xor.accumulate(toggle)
    return np.ascontiguousarray(filled.reshape(n_rows, width)[:, :nx])


def _fill_spans_add_at(
    span_rows: np.ndarray,
    x_in: np.ndarray,
    x_out: np.ndarray,
    x0: float,
    nx: int,
    cell: float,
    n_rows: int,
) -> np.ndarray:
    """Scatter-add oracle of :func:`fill_spans`: a per-row difference
    array (``np.add.at``) whose row-wise cumulative sum marks covered
    cells."""
    grid = np.zeros((n_rows, nx), dtype=bool)
    if span_rows.size == 0:
        return grid
    rows, lo, hi = _clipped_spans(span_rows, x_in, x_out, x0, nx, cell)
    if rows.size == 0:
        return grid
    delta = np.zeros((n_rows, nx + 1), dtype=np.int32)
    np.add.at(delta, (rows, lo), 1)
    np.add.at(delta, (rows, hi), -1)
    np.cumsum(delta[:, :-1], axis=1, out=delta[:, :-1])
    np.greater(delta[:, :-1], 0, out=grid)
    return grid


def scanline_spans_batch(
    contours, ys: Sequence[float]
) -> List[List[Tuple[float, float]]]:
    """Even-odd interior x-spans of ``contours`` at every ``ys`` height.

    Batched equivalent of calling
    :func:`repro.slicer.toolpath.region_spans` once per ``y``; returns
    one span list per scanline, in ``ys`` order.
    """
    ys = np.asarray(ys, dtype=float)
    spans: List[List[Tuple[float, float]]] = [[] for _ in range(ys.size)]
    p, q = contour_edges(contours)
    rows, _, xs = edge_crossings(p, q, ys)
    span_rows, x_in, x_out = _pair_crossings(rows, xs, ys.size)
    for row, a, b in zip(span_rows.tolist(), x_in.tolist(), x_out.tolist()):
        spans[row].append((a, b))
    return spans


def rasterize_frame(
    contours, lo: np.ndarray, nx: int, ny: int, cell: float
) -> np.ndarray:
    """Even-odd rasterization of one contour set onto a ``(ny, nx)`` frame.

    The vectorized implementation behind
    :func:`repro.slicer.preview.rasterize_contours`: scanlines run
    through cell-row centres ``lo[1] + (iy + 0.5) * cell``.
    """
    if not contours:
        return np.zeros((ny, nx), dtype=bool)
    ys = lo[1] + (np.arange(ny, dtype=float) + 0.5) * cell
    p, q = contour_edges(contours)
    rows, _, xs = edge_crossings(p, q, ys)
    span_rows, x_in, x_out = _pair_crossings(rows, xs, ny)
    return fill_spans(span_rows, x_in, x_out, float(lo[0]), nx, cell, ny)


#: Soft cap on the broadcast (n_scanlines x n_edges) crossing matrix,
#: in elements; stacks whose matrix would exceed it are processed in
#: layer chunks so memory stays bounded on very tall prints.  Kept a
#: few MB so the temporaries recycle through the allocator's arena
#: instead of round-tripping fresh mmaps on every chunk.
_MAX_BROADCAST_ELEMENTS = 4_000_000


def rasterize_stack(
    layer_contours: Sequence, lo: np.ndarray, nx: int, ny: int, cell: float
) -> np.ndarray:
    """Rasterize a whole layer stack onto one ``(nz, ny, nx)`` frame.

    All layers share the scanline grid, so every layer's edges are
    batched into a single crossing computation: edge j of layer iz
    crossing scanline iy lands in flat row ``iz * ny + iy``, and one
    span fill paints the entire volume.
    """
    nz = len(layer_contours)
    if nz == 0:
        return np.zeros((0, ny, nx), dtype=bool)
    ys = lo[1] + (np.arange(ny, dtype=float) + 0.5) * cell

    # Per-layer edge arrays plus the owning layer of every edge.
    ps, qs, owners = [], [], []
    for iz, contours in enumerate(layer_contours):
        if not contours:
            continue
        p, q = contour_edges(contours)
        ps.append(p)
        qs.append(q)
        owners.append(np.full(p.shape[0], iz, dtype=np.intp))
    if not ps:
        return np.zeros((nz, ny, nx), dtype=bool)

    x0 = float(lo[0])
    grid = np.zeros((nz * ny, nx), dtype=bool)
    edge_budget = max(int(_MAX_BROADCAST_ELEMENTS // max(ny, 1)), 1)
    # Chunk at *layer* granularity: even-odd pairing needs every
    # crossing of a scanline row present at once, and rows never span
    # layers, so whole-layer groups keep the parity fill exact.
    start = 0
    while start < len(ps):
        stop, edges = start, 0
        while stop < len(ps) and (edges == 0 or edges + ps[stop].shape[0] <= edge_budget):
            edges += ps[stop].shape[0]
            stop += 1
        p_all = np.vstack(ps[start:stop])
        q_all = np.vstack(qs[start:stop])
        owner_all = np.concatenate(owners[start:stop])
        base = int(owner_all[0])
        n_chunk_rows = (int(owner_all[-1]) + 1 - base) * ny
        rows, cols, xs = edge_crossings(p_all, q_all, ys)
        flat_rows = (owner_all[cols] - base) * ny + rows
        span_rows, x_in, x_out = _pair_crossings(flat_rows, xs, n_chunk_rows)
        grid[base * ny : base * ny + n_chunk_rows] |= fill_spans(
            span_rows, x_in, x_out, x0, nx, cell, n_chunk_rows
        )
        start = stop
    return grid.reshape(nz, ny, nx)
