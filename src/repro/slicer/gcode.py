"""G-code generation and parsing.

The generated dialect is the common FDM subset: ``G21`` (mm), ``G90``
(absolute), ``G0`` travels, ``G1`` extruding moves with an ``E`` axis,
and ``T0``/``T1`` tool selection for model/support material.  The parser
reads the same subset back; it is also what the firmware simulator and
the tool-path reverse-engineering verification (paper ref. [20]) run on.

Besides the text, :func:`generate_gcode` now emits a structured
:class:`MoveTable` (ISSUE 7): columnar NumPy arrays carrying exactly the
values the emitted text encodes (every coordinate is round-tripped
through its ``%.4f``/``%.5f``/``%.0f`` format before entering the
table), so ``table.to_moves() == parse_gcode(text)`` holds bit-for-bit
and downstream consumers (the firmware simulator) can run vectorized
over the table instead of re-parsing the text they just generated.  The
text stays the leaf artifact of record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.slicer.toolpath import Path, ToolMaterial, ToolpathLayer

#: Extruded filament cross-section factor: E advance per mm of travel.
_E_PER_MM = 0.033


@dataclass
class GCodeMove:
    """One parsed motion command."""

    command: str  # "G0" or "G1"
    x: Optional[float] = None
    y: Optional[float] = None
    z: Optional[float] = None
    e: Optional[float] = None
    feedrate: Optional[float] = None
    tool: int = 0

    @property
    def is_extruding(self) -> bool:
        return self.command == "G1" and self.e is not None


@dataclass
class MoveTable:
    """Columnar (structure-of-arrays) form of a parsed move list.

    ``command`` is 0 for ``G0`` and 1 for ``G1``; unset float words are
    ``NaN`` (the text form simply omits them).  The table is the
    firmware simulator's vectorized input; :meth:`to_moves` restores
    the exact :class:`GCodeMove` list :func:`parse_gcode` would produce
    from the corresponding text, which is the bit-identity contract
    tests assert.
    """

    command: np.ndarray  # uint8: 0 = G0, 1 = G1
    x: np.ndarray  # float64, NaN = word absent
    y: np.ndarray
    z: np.ndarray
    e: np.ndarray
    feedrate: np.ndarray
    tool: np.ndarray  # int8

    def __len__(self) -> int:
        return int(self.command.shape[0])

    @classmethod
    def from_moves(cls, moves: List["GCodeMove"]) -> "MoveTable":
        n = len(moves)
        nan = math.nan
        return cls(
            command=np.fromiter(
                (0 if m.command == "G0" else 1 for m in moves),
                dtype=np.uint8, count=n,
            ),
            x=np.fromiter(
                (nan if m.x is None else m.x for m in moves),
                dtype=np.float64, count=n,
            ),
            y=np.fromiter(
                (nan if m.y is None else m.y for m in moves),
                dtype=np.float64, count=n,
            ),
            z=np.fromiter(
                (nan if m.z is None else m.z for m in moves),
                dtype=np.float64, count=n,
            ),
            e=np.fromiter(
                (nan if m.e is None else m.e for m in moves),
                dtype=np.float64, count=n,
            ),
            feedrate=np.fromiter(
                (nan if m.feedrate is None else m.feedrate for m in moves),
                dtype=np.float64, count=n,
            ),
            tool=np.fromiter((m.tool for m in moves), dtype=np.int8, count=n),
        )

    def to_moves(self) -> List["GCodeMove"]:
        """The row form; ``NaN`` columns become ``None`` words."""

        def opt(v: float) -> Optional[float]:
            return None if math.isnan(v) else float(v)

        return [
            GCodeMove(
                command="G0" if self.command[i] == 0 else "G1",
                x=opt(self.x[i]),
                y=opt(self.y[i]),
                z=opt(self.z[i]),
                e=opt(self.e[i]),
                feedrate=opt(self.feedrate[i]),
                tool=int(self.tool[i]),
            )
            for i in range(len(self))
        ]

    def to_columns(self) -> dict:
        """Plain dict-of-arrays form (the cache codec's packed tree)."""
        return {
            "command": self.command,
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "e": self.e,
            "feedrate": self.feedrate,
            "tool": self.tool,
        }

    @classmethod
    def from_columns(cls, columns: dict) -> "MoveTable":
        return cls(**{k: np.asarray(v) for k, v in columns.items()})


@dataclass
class GCodeProgram:
    """A G-code file: raw text plus the parsed move list.

    ``moves`` (when present) is the structured table emitted alongside
    the text; consumers must treat it as an exact mirror of the text -
    :func:`generate_gcode` guarantees it, and the cache codec restores
    it on hits.  A ``None`` table means "parse the text" (programs built
    by hand or loaded from legacy cache entries).
    """

    lines: List[str] = field(default_factory=list)
    moves: Optional[MoveTable] = None

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode())


_HEADER = (
    "; repro ObfusCADe G-code",
    "G21 ; millimetres",
    "G90 ; absolute positioning",
    "M82 ; absolute extrusion",
    "T0",
)
_FOOTER = ("M104 S0 ; cool down", "M140 S0")


def _move_lengths(step: np.ndarray) -> np.ndarray:
    """Row lengths of ``step``, bit-identical to ``np.linalg.norm`` of
    each row: ``vecdot`` runs the same BLAS dot product (a plain
    ``x*x + y*y`` differs in the last bit)."""
    return np.sqrt(np.vecdot(step, step))


def _parse(words: List[str]) -> np.ndarray:
    """Float64 values of formatted words (exactly what a parser reads)."""
    return np.fromiter(map(float, words), dtype=np.float64, count=len(words))


def generate_gcode(
    layers: Iterable[ToolpathLayer],
    travel_feedrate: float = 6000.0,
    print_feedrate: float = 2400.0,
) -> GCodeProgram:
    """Emit G-code for a list of tool-path layers.

    Array-first: every path's vertex sequence (closed paths repeat
    their first vertex) is gathered into one array, so segment lengths
    and the running E axis come from one ``np.cumsum`` over the whole
    program.  Each coordinate is formatted once; the text line and the
    :class:`MoveTable` column are both derived from that one string.
    Byte-identical text and bit-identical table to the per-move loop
    :func:`_generate_gcode_loop`, kept as the oracle.
    """
    layers = list(layers)
    travel_word = f"F{travel_feedrate:.0f}"
    print_word = f"F{print_feedrate:.0f}"
    travel_f = float(travel_word[1:])
    print_f = float(print_word[1:])

    # Vertex rows: each path's points, closed paths repeating their
    # first point.  A path's first row is its G0 travel, the rest G1.
    seqs: List[np.ndarray] = []
    tools: List[int] = []
    for layer in layers:
        for path in layer.paths:
            pts = path.points
            seqs.append(np.concatenate([pts, pts[:1]]) if path.closed else pts)
            tools.append(0 if path.material is ToolMaterial.MODEL else 1)
    counts = np.array([len(seq) for seq in seqs], dtype=np.intp)
    verts = np.concatenate(seqs) if seqs else np.empty((0, 2))
    starts = np.zeros(len(verts), dtype=bool)
    starts[np.cumsum(counts) - counts] = True
    extrude = ~starts
    step = np.diff(verts, axis=0, prepend=verts[:1])[extrude]
    e_axis = np.cumsum(_move_lengths(step) * _E_PER_MM)

    x_words = [f"{v:.4f}" for v in verts[:, 0].tolist()]
    y_words = [f"{v:.4f}" for v in verts[:, 1].tolist()]
    e_words = [f"{v:.5f}" for v in e_axis.tolist()]
    g1_lines = [
        f"G1 X{x_words[k]} Y{y_words[k]} E{e} {print_word}"
        for k, e in zip(np.flatnonzero(extrude).tolist(), e_words)
    ]

    # The text in program order, noting where each layer's G0 Z row
    # goes among the vertex rows and which tool is current there.
    lines = list(_HEADER)
    z_words: List[str] = []
    layer_rows: List[int] = []
    layer_tools: List[int] = []
    current_tool = 0
    ip = row = g1 = 0  # path, vertex row and G1 line cursors
    for layer in layers:
        z_word = f"{layer.z:.4f}"
        z_words.append(z_word)
        layer_rows.append(row)
        layer_tools.append(current_tool)
        lines.append(f"; layer z={z_word}")
        lines.append(f"G0 Z{z_word} {travel_word}")
        for _ in layer.paths:
            if tools[ip] != current_tool:
                current_tool = tools[ip]
                lines.append(f"T{current_tool}")
            lines.append(f"G0 X{x_words[row]} Y{y_words[row]} {travel_word}")
            n_g1 = int(counts[ip]) - 1
            lines.extend(g1_lines[g1:g1 + n_g1])
            g1 += n_g1
            row += n_g1 + 1
            ip += 1
    lines.extend(_FOOTER)

    # Columns: the vertex rows, with each layer's G0 Z row inserted.
    e_col = np.full(len(verts), math.nan)
    e_col[extrude] = _parse(e_words)
    columns = {
        "command": (extrude.astype(np.uint8), 0),
        "x": (_parse(x_words), math.nan),
        "y": (_parse(y_words), math.nan),
        "z": (np.full(len(verts), math.nan), _parse(z_words)),
        "e": (e_col, math.nan),
        "feedrate": (np.where(starts, travel_f, print_f), travel_f),
        "tool": (np.repeat(np.array(tools, dtype=np.int8), counts), layer_tools),
    }
    table = MoveTable(**{
        name: np.insert(vertex_col, layer_rows, layer_col)
        for name, (vertex_col, layer_col) in columns.items()
    })
    return GCodeProgram(lines=lines, moves=table)


def _generate_gcode_loop(
    layers: Iterable[ToolpathLayer],
    travel_feedrate: float = 6000.0,
    print_feedrate: float = 2400.0,
) -> GCodeProgram:
    """Scalar oracle for :func:`generate_gcode` (one move at a time)."""
    lines = [
        "; repro ObfusCADe G-code",
        "G21 ; millimetres",
        "G90 ; absolute positioning",
        "M82 ; absolute extrusion",
        "T0",
    ]
    e = 0.0
    current_tool = 0
    nan = math.nan
    # Columnar mirror of the emitted moves.  Every value entering the
    # table is round-tripped through the *same format* the text uses,
    # so the table is bit-identical to re-parsing the text.
    cmd: List[int] = []
    col_x: List[float] = []
    col_y: List[float] = []
    col_z: List[float] = []
    col_e: List[float] = []
    col_f: List[float] = []
    col_t: List[int] = []
    travel_f = float(f"{travel_feedrate:.0f}")
    print_f = float(f"{print_feedrate:.0f}")

    def emit(command: int, x=nan, y=nan, z=nan, e_word=nan, feed=nan) -> None:
        cmd.append(command)
        col_x.append(x)
        col_y.append(y)
        col_z.append(z)
        col_e.append(e_word)
        col_f.append(feed)
        col_t.append(current_tool)

    for layer in layers:
        lines.append(f"; layer z={layer.z:.4f}")
        lines.append(f"G0 Z{layer.z:.4f} F{travel_feedrate:.0f}")
        emit(0, z=float(f"{layer.z:.4f}"), feed=travel_f)
        for path in layer.paths:
            tool = 0 if path.material is ToolMaterial.MODEL else 1
            if tool != current_tool:
                lines.append(f"T{tool}")
                current_tool = tool
            pts = path.points
            lines.append(f"G0 X{pts[0, 0]:.4f} Y{pts[0, 1]:.4f} F{travel_feedrate:.0f}")
            emit(
                0,
                x=float(f"{pts[0, 0]:.4f}"),
                y=float(f"{pts[0, 1]:.4f}"),
                feed=travel_f,
            )
            sequence = list(range(1, len(pts)))
            if path.closed:
                sequence.append(0)
            prev = pts[0]
            for idx in sequence:
                p = pts[idx]
                e += float(np.linalg.norm(p - prev)) * _E_PER_MM
                lines.append(
                    f"G1 X{p[0]:.4f} Y{p[1]:.4f} E{e:.5f} F{print_feedrate:.0f}"
                )
                emit(
                    1,
                    x=float(f"{p[0]:.4f}"),
                    y=float(f"{p[1]:.4f}"),
                    e_word=float(f"{e:.5f}"),
                    feed=print_f,
                )
                prev = p
    lines.append("M104 S0 ; cool down")
    lines.append("M140 S0")
    table = MoveTable(
        command=np.array(cmd, dtype=np.uint8),
        x=np.array(col_x, dtype=np.float64),
        y=np.array(col_y, dtype=np.float64),
        z=np.array(col_z, dtype=np.float64),
        e=np.array(col_e, dtype=np.float64),
        feedrate=np.array(col_f, dtype=np.float64),
        tool=np.array(col_t, dtype=np.int8),
    )
    return GCodeProgram(lines=lines, moves=table)


def pack_gcode(program: GCodeProgram) -> dict:
    """Cache codec: a primitive tree whose move-table columns qualify
    for the disk cache's ``.npy`` segment layout (mmap-able on warm
    reads), with the text lines in the pickled header."""
    return {
        "lines": list(program.lines),
        "columns": (
            None if program.moves is None else program.moves.to_columns()
        ),
    }


def unpack_gcode(packed: dict) -> GCodeProgram:
    columns = packed["columns"]
    return GCodeProgram(
        lines=list(packed["lines"]),
        moves=None if columns is None else MoveTable.from_columns(columns),
    )


def parse_gcode(program) -> List[GCodeMove]:
    """Parse a :class:`GCodeProgram` (or raw text) into moves.

    Unknown commands are skipped; comments (``;``) are stripped.  Raises
    ``ValueError`` on malformed coordinate words, because silently
    mis-parsing a tool path is exactly the failure mode a G-code
    validation stage exists to catch.
    """
    text = program.text if isinstance(program, GCodeProgram) else str(program)
    moves: List[GCodeMove] = []
    tool = 0
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].upper()
        if head.startswith("T") and head[1:].isdigit():
            tool = int(head[1:])
            continue
        if head not in ("G0", "G1"):
            continue
        move = GCodeMove(command=head, tool=tool)
        for word in parts[1:]:
            letter = word[0].upper()
            try:
                value = float(word[1:])
            except ValueError as exc:
                raise ValueError(f"malformed G-code word {word!r} in line {raw!r}") from exc
            if letter == "X":
                move.x = value
            elif letter == "Y":
                move.y = value
            elif letter == "Z":
                move.z = value
            elif letter == "E":
                move.e = value
            elif letter == "F":
                move.feedrate = value
        moves.append(move)
    return moves


def toolpath_statistics(moves: List[GCodeMove]) -> dict:
    """Aggregate statistics of a parsed program (for Fig. 3's stage view)."""
    x = y = z = None
    e_prev = 0.0
    travel = 0.0
    extrude = 0.0
    layers = set()
    for m in moves:
        nx = m.x if m.x is not None else x
        ny = m.y if m.y is not None else y
        nz = m.z if m.z is not None else z
        if x is not None and nx is not None and ny is not None and y is not None:
            d = float(np.hypot(nx - x, ny - y))
            if m.is_extruding and m.e is not None and m.e > e_prev:
                extrude += d
            else:
                travel += d
        if m.e is not None:
            e_prev = m.e
        if m.z is not None:
            layers.add(round(m.z, 4))
        x, y, z = nx, ny, nz
    return {
        "n_moves": len(moves),
        "n_layers": len(layers),
        "travel_mm": travel,
        "extrude_mm": extrude,
        "filament_e": e_prev,
    }
