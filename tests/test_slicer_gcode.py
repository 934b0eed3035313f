"""Unit tests for repro.slicer.gcode."""

import numpy as np
import pytest

from repro.slicer.gcode import (
    GCodeProgram,
    generate_gcode,
    parse_gcode,
    toolpath_statistics,
)
from repro.slicer.toolpath import Path, PathRole, ToolMaterial, ToolpathLayer


@pytest.fixture
def simple_layers():
    square = Path(
        points=np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]),
        role=PathRole.PERIMETER,
        closed=True,
    )
    raster = Path(points=np.array([[1.0, 5.0], [9.0, 5.0]]), role=PathRole.INFILL)
    support = Path(
        points=np.array([[0.0, -2.0], [10.0, -2.0]]),
        role=PathRole.SUPPORT,
        material=ToolMaterial.SUPPORT,
    )
    return [
        ToolpathLayer(z=0.2, paths=[square, raster]),
        ToolpathLayer(z=0.4, paths=[support, raster]),
    ]


class TestGeneration:
    def test_header(self, simple_layers):
        program = generate_gcode(simple_layers)
        assert program.lines[1].startswith("G21")
        assert program.lines[2].startswith("G90")

    def test_layer_markers(self, simple_layers):
        program = generate_gcode(simple_layers)
        z_lines = [l for l in program.lines if l.startswith("G0 Z")]
        assert len(z_lines) == 2

    def test_extrusion_monotone(self, simple_layers):
        moves = parse_gcode(generate_gcode(simple_layers))
        es = [m.e for m in moves if m.e is not None]
        assert all(b >= a for a, b in zip(es, es[1:]))

    def test_tool_change_for_support(self, simple_layers):
        program = generate_gcode(simple_layers)
        assert any(l.strip() == "T1" for l in program.lines)

    def test_closed_path_returns_to_start(self, simple_layers):
        moves = parse_gcode(generate_gcode(simple_layers))
        xy = [(m.x, m.y) for m in moves if m.command == "G1" and m.x is not None]
        assert (0.0, 0.0) in xy  # perimeter closes back at its first point

    def test_program_size(self, simple_layers):
        program = generate_gcode(simple_layers)
        assert program.size_bytes == len(program.text.encode())
        assert program.n_lines == len(program.lines)


class TestParsing:
    def test_comment_stripping(self):
        moves = parse_gcode("G1 X1 Y2 E0.1 ; a comment\n; full comment line\n")
        assert len(moves) == 1
        assert moves[0].x == 1.0

    def test_unknown_commands_skipped(self):
        moves = parse_gcode("M104 S200\nG28\nG1 X5 E1\n")
        assert len(moves) == 1

    def test_tool_tracking(self):
        moves = parse_gcode("T1\nG1 X5 E1\nT0\nG1 X6 E2\n")
        assert moves[0].tool == 1
        assert moves[1].tool == 0

    def test_malformed_word_raises(self):
        with pytest.raises(ValueError):
            parse_gcode("G1 Xabc\n")

    def test_feedrate_parsed(self):
        moves = parse_gcode("G0 X0 Y0 F6000\n")
        assert moves[0].feedrate == 6000.0

    def test_is_extruding(self):
        moves = parse_gcode("G0 X1\nG1 X2\nG1 X3 E0.5\n")
        assert [m.is_extruding for m in moves] == [False, False, True]

    def test_gcode_program_text_roundtrip(self, simple_layers):
        program = generate_gcode(simple_layers)
        reparsed = parse_gcode(GCodeProgram(lines=program.text.splitlines()))
        assert len(reparsed) == len(parse_gcode(program))


class TestStatistics:
    def test_counts(self, simple_layers):
        moves = parse_gcode(generate_gcode(simple_layers))
        stats = toolpath_statistics(moves)
        assert stats["n_moves"] == len(moves)
        assert stats["n_layers"] == 2
        assert stats["extrude_mm"] > 0
        assert stats["travel_mm"] > 0

    def test_extrude_length_matches_paths(self, simple_layers):
        moves = parse_gcode(generate_gcode(simple_layers))
        stats = toolpath_statistics(moves)
        expected = sum(
            p.length for layer in simple_layers for p in layer.paths
        )
        assert np.isclose(stats["extrude_mm"], expected, rtol=1e-6)


class TestMoveTable:
    """The structured move table (ISSUE 7 zero-copy data plane)."""

    def test_generate_attaches_table(self, simple_layers):
        from repro.slicer.gcode import MoveTable

        prog = generate_gcode(simple_layers)
        assert isinstance(prog.moves, MoveTable)
        assert len(prog.moves) > 0

    def test_table_matches_reparsed_text(self, simple_layers):
        # The bit-identity contract: the attached table restores the
        # exact move list parsing the emitted text would produce.
        prog = generate_gcode(simple_layers)
        assert prog.moves.to_moves() == parse_gcode(prog)

    def test_from_moves_roundtrip(self):
        from repro.slicer.gcode import MoveTable

        moves = parse_gcode(
            "G0 X5 F6000\nG1 X10.1234 Y-2.5 E0.12345 F2400\nT1\nG1 Y7\n"
        )
        assert MoveTable.from_moves(moves).to_moves() == moves

    def test_columns_roundtrip(self, simple_layers):
        from repro.slicer.gcode import MoveTable

        table = generate_gcode(simple_layers).moves
        back = MoveTable.from_columns(table.to_columns())
        assert back.to_moves() == table.to_moves()

    def test_pack_unpack_roundtrip(self, simple_layers):
        from repro.slicer.gcode import pack_gcode, unpack_gcode

        prog = generate_gcode(simple_layers)
        back = unpack_gcode(pack_gcode(prog))
        assert back.lines == prog.lines
        assert back.moves.to_moves() == prog.moves.to_moves()

    def test_pack_without_table_survives(self):
        from repro.slicer.gcode import pack_gcode, unpack_gcode

        prog = GCodeProgram(lines=["G0 X5 F6000"])
        back = unpack_gcode(pack_gcode(prog))
        assert back.lines == prog.lines
        assert back.moves is None


def assert_same_program(fast, slow):
    """Identical text; move-table columns equal bit for bit (NaN-aware:
    the raw bytes are compared, so NaN words must match too)."""
    assert fast.lines == slow.lines
    for name, column in fast.moves.to_columns().items():
        ref = getattr(slow.moves, name)
        assert column.dtype == ref.dtype, name
        assert column.shape == ref.shape, name
        assert column.tobytes() == ref.tobytes(), name


class TestScalarOracle:
    """The array-first generate_gcode == the per-move loop it replaced."""

    @pytest.fixture(scope="class")
    def real_toolpaths(self, split_bar_build_meshes):
        from repro.printer.deposition import DepositionSimulator
        from repro.printer.machines import DIMENSION_ELITE
        from repro.slicer.slicer import slice_mesh
        from repro.slicer.toolpath import generate_toolpaths

        settings = DepositionSimulator(DIMENSION_ELITE).settings
        return {
            cell: generate_toolpaths(slice_mesh(mesh, settings), settings)
            for cell, mesh in split_bar_build_meshes.items()
        }

    @pytest.mark.parametrize("resolution", ["Coarse", "Fine", "Custom"])
    @pytest.mark.parametrize("orientation", ["x-y", "x-z", "y-z"])
    def test_real_toolpaths(self, real_toolpaths, resolution, orientation):
        from repro.slicer.gcode import _generate_gcode_loop

        layers = real_toolpaths[(resolution, orientation)]
        assert any(path.closed for layer in layers for path in layer.paths)
        assert_same_program(generate_gcode(layers), _generate_gcode_loop(layers))

    def test_tool_changes_and_closed_paths(self, simple_layers):
        from repro.slicer.gcode import _generate_gcode_loop

        # Support first, an empty layer, then model: tool changes at a
        # layer's first path and across an empty layer.
        layers = simple_layers[::-1] + [ToolpathLayer(z=0.6)] + simple_layers
        prog = generate_gcode(layers, travel_feedrate=4500.4, print_feedrate=1800.6)
        assert_same_program(prog, _generate_gcode_loop(
            layers, travel_feedrate=4500.4, print_feedrate=1800.6
        ))
        assert "T1" in prog.lines and "T0" in prog.lines[5:]

    def test_move_lengths_match_scalar_norm(self):
        """The E axis integrates these; the loop took one norm per move."""
        from repro.slicer.gcode import _move_lengths

        rng = np.random.default_rng(7)
        step = np.diff(rng.random((20000, 2)) * 200.0, axis=0)
        step[::97] *= 1e-6
        scalar = np.array([np.linalg.norm(row) for row in step])
        assert _move_lengths(step).tobytes() == scalar.tobytes()

    def test_empty_program(self):
        from repro.slicer.gcode import _generate_gcode_loop

        for layers in ([], [ToolpathLayer(z=0.2)]):
            assert_same_program(generate_gcode(layers), _generate_gcode_loop(layers))
