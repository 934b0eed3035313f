"""Contour chaining: the endpoint-id walk == the scalar oracle.

:func:`repro.slicer.slicer.chain_segments` snaps every endpoint once and
walks chains on integer endpoint ids; :func:`_chain_segments_loop` is
the tuple-keyed loop it replaced.  Both must return identical contours
and open paths (same points, same order) on any segment soup - shared
endpoints, T-junctions, duplicates, zero-length slivers and gaps right
at the snapping and closure tolerances included - and on real slices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slicer.slicer import (
    _CHAIN_TOL,
    _chain_segments_loop,
    _plane_segments,
    chain_segments,
    layer_heights,
)

#: Endpoint offsets around the snap grid's rounding boundary (half a
#: grid step) and the closure tolerance (one step); mostly exact hits.
_JITTER = st.sampled_from(
    [0.0] * 12 + [x * _CHAIN_TOL for x in (0.3, 0.5, -0.5, 0.9, 1.0, -1.0, 1.1, 1.5, 2.1)]
)


def assert_same_chains(segments):
    """``segments``: an ``(n, 2, 2)`` array; the oracle gets point pairs."""
    contours, open_paths = chain_segments(segments)
    ref_contours, ref_open = _chain_segments_loop([(a, b) for a, b in segments])
    assert len(contours) == len(ref_contours)
    for poly, ref in zip(contours, ref_contours):
        assert poly.points.dtype == ref.points.dtype
        assert np.array_equal(poly.points, ref.points)
    assert len(open_paths) == len(ref_open)
    for path, ref in zip(open_paths, ref_open):
        assert path.dtype == ref.dtype
        assert np.array_equal(path, ref)
    return contours, open_paths


@st.composite
def segment_soups(draw):
    """Segments between a few lattice anchors: rings (contours), extra
    chords (T-junctions), duplicates and reversals, slivers, all with
    tolerance-scale jitter on the endpoints, in shuffled order."""
    base = draw(st.sampled_from([0.0, 10.1, 123.456]))
    anchors = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=3, max_size=8, unique=True,
    ))

    def point(i):
        ax, ay = anchors[i]
        return [base + ax + draw(_JITTER), base + 0.5 * ay + draw(_JITTER)]

    idx = st.integers(0, len(anchors) - 1)
    pairs = []
    for _ in range(draw(st.integers(1, 3))):  # rings through the anchors
        ring = draw(st.lists(idx, min_size=3, max_size=len(anchors), unique=True))
        pairs += list(zip(ring, ring[1:] + ring[:1]))
    pairs += draw(st.lists(st.tuples(idx, idx), max_size=6))  # chords, slivers
    segments = [[point(i), point(j)] for i, j in pairs]
    for k in draw(st.lists(st.integers(0, 100), max_size=3)):  # duplicates
        if segments:
            a, b = segments[k % len(segments)]
            segments.append([b, a] if draw(st.booleans()) else [a, b])
    segments = draw(st.permutations(segments))
    return np.array(segments, dtype=float).reshape(-1, 2, 2)


class TestChainOracle:
    @given(segment_soups())
    @settings(max_examples=300, deadline=None)
    def test_segment_soups(self, segments):
        assert_same_chains(segments)

    def test_t_junction_and_duplicate(self):
        segs = np.array([
            [[0, 0], [1, 0]], [[1, 0], [1, 1]], [[1, 1], [0, 1]], [[0, 1], [0, 0]],
            [[1, 0], [2, 0]],  # T-junction at (1, 0)
            [[1, 1], [0, 1]],  # duplicate edge
        ], dtype=float)
        contours, open_paths = assert_same_chains(segs)
        assert len(contours) + len(open_paths) >= 2

    @pytest.mark.parametrize("gap", [0.4, 0.5, 0.99, 1.0, 1.01, 1.5, 3.0])
    def test_closure_gap_at_tolerance(self, gap):
        g = gap * _CHAIN_TOL
        square = np.array([
            [[0, 0], [1, 0]], [[1, 0], [1, 1]], [[1, 1], [0, 1]], [[0, 1], [g, 0]],
        ], dtype=float)
        assert_same_chains(square)
        assert_same_chains(square[::-1].copy())

    def test_slivers_only(self):
        segs = np.array([[[1.0, 1.0], [1.0, 1.0]], [[2.0, 2.0], [2.0, 2.0 + 1e-7]]])
        assert assert_same_chains(segs) == ([], [])

    def test_empty(self):
        assert chain_segments(np.empty((0, 2, 2))) == ([], [])


def test_real_slices(split_bar_build_meshes):
    """The split bar sliced every 0.1778 mm, all resolutions x
    orientations."""
    n_contours = 0
    for mesh in split_bar_build_meshes.values():
        tris = mesh.triangles
        lo, hi = float(mesh.bounds.lo[2]), float(mesh.bounds.hi[2])
        for z in layer_heights(lo, hi, 0.1778):
            band = (tris[:, :, 2].min(axis=1) <= z) & (tris[:, :, 2].max(axis=1) >= z)
            contours, _ = assert_same_chains(_plane_segments(tris[band], float(z)))
            n_contours += len(contours)
    assert n_contours > 0
