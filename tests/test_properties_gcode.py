"""Property-based tests for the G-code pipeline and reverse engineering."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slicer.gcode import (
    _generate_gcode_loop,
    generate_gcode,
    parse_gcode,
    toolpath_statistics,
)
from repro.slicer.reverse import reconstruct_layers
from repro.slicer.toolpath import Path, PathRole, ToolMaterial, ToolpathLayer
from test_slicer_gcode import assert_same_program

coord = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


@st.composite
def open_paths(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pts = []
    last = None
    for _ in range(n):
        p = (draw(coord), draw(coord))
        if last is not None and abs(p[0] - last[0]) + abs(p[1] - last[1]) < 1e-6:
            p = (p[0] + 1.0, p[1])
        pts.append(p)
        last = p
    return Path(points=np.array(pts), role=PathRole.INFILL)


@st.composite
def toolpath_layer_lists(draw):
    n_layers = draw(st.integers(min_value=1, max_value=4))
    layers = []
    for i in range(n_layers):
        n_paths = draw(st.integers(min_value=1, max_value=4))
        paths = [draw(open_paths()) for _ in range(n_paths)]
        layers.append(ToolpathLayer(z=0.2 * (i + 1), paths=paths))
    return layers


class TestGcodeRoundtrip:
    @given(toolpath_layer_lists())
    @settings(max_examples=40, deadline=None)
    def test_extrusion_length_survives_roundtrip(self, layers):
        """Path length in == extrusion length parsed back out."""
        program = generate_gcode(layers)
        stats = toolpath_statistics(parse_gcode(program))
        expected = sum(p.length for layer in layers for p in layer.paths)
        # G-code coordinates are rounded to 4 decimals; tolerance covers it.
        assert np.isclose(stats["extrude_mm"], expected, rtol=1e-3, atol=0.05)

    @given(toolpath_layer_lists())
    @settings(max_examples=40, deadline=None)
    def test_layer_count_survives(self, layers):
        program = generate_gcode(layers)
        stats = toolpath_statistics(parse_gcode(program))
        assert stats["n_layers"] == len({round(l.z, 4) for l in layers})

    @given(toolpath_layer_lists())
    @settings(max_examples=40, deadline=None)
    def test_e_axis_monotone(self, layers):
        moves = parse_gcode(generate_gcode(layers))
        es = [m.e for m in moves if m.e is not None]
        assert all(b >= a - 1e-9 for a, b in zip(es, es[1:]))

    @given(toolpath_layer_lists())
    @settings(max_examples=30, deadline=None)
    def test_reverse_engineering_recovers_path_length(self, layers):
        """The ref [20] reconstruction finds all printed geometry."""
        moves = parse_gcode(generate_gcode(layers))
        recon = reconstruct_layers(moves)
        total_in = sum(p.length for layer in layers for p in layer.paths)
        total_out = 0.0
        for layer in recon:
            total_out += layer.raster_length_mm
            for loop in layer.loops:
                total_out += loop.perimeter
        assert np.isclose(total_out, total_in, rtol=1e-3, atol=0.1)


@st.composite
def mixed_layer_lists(draw):
    """Layer lists with closed paths, support material and empty layers."""
    layers = draw(toolpath_layer_lists())
    for layer in layers:
        for path in layer.paths:
            path.closed = draw(st.booleans())
            if draw(st.booleans()):
                path.material = ToolMaterial.SUPPORT
    if draw(st.booleans()):
        layers.insert(draw(st.integers(0, len(layers))), ToolpathLayer(z=0.1))
    return layers


class TestScalarOracle:
    @given(toolpath_layer_lists())
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_on_open_paths(self, layers):
        assert_same_program(generate_gcode(layers), _generate_gcode_loop(layers))

    @given(mixed_layer_lists())
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_on_mixed_layers(self, layers):
        assert_same_program(generate_gcode(layers), _generate_gcode_loop(layers))
