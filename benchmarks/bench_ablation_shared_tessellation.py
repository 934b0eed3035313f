"""Ablation - shared vs independent tessellation of the split bodies.

The Fig. 4 gaps exist because each body's mesher places its own
vertices along the shared spline.  Forcing both bodies to share one
vertex-placement strategy removes the mismatch - and with it the
x-y defect signal - demonstrating the mechanism is tessellation
independence, not the split itself.

A cold sweep over the same model then shows the *scheduler's*
sharing: orientation-independent stages are scheduled once per
resolution, not once per cell.
"""

import time

from repro.cad import (
    COARSE,
    StlResolution,
    BaseExtrudeFeature,
    CadModel,
    SplineSplitFeature,
    default_split_spline,
    tensile_bar_profile,
)
from repro.mesh.validate import find_tessellation_gaps, max_gap
from repro.pipeline import ParallelSweep
from repro.printer import PrintOrientation
from repro.slicer import SlicerSettings, analyze_split_seam

SWEEP_RESOLUTIONS = (
    COARSE,
    StlResolution(name="Mid", angle_deg=20.0, deviation_fraction=0.0012),
)
SWEEP_ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)


def build(shared: bool):
    return CadModel(
        f"split-{'shared' if shared else 'independent'}",
        [
            BaseExtrudeFeature(tensile_bar_profile(), 3.2),
            SplineSplitFeature(default_split_spline(), shared_tessellation=shared),
        ],
    )


def run(split_bar_unused=None):
    rows = []
    for shared in (False, True):
        export = build(shared).export_stl(COARSE)
        a, b = list(export.body_meshes.values())
        gap = max_gap(find_tessellation_gaps(a, b, interface_band=0.4))
        seam = analyze_split_seam(a, b, SlicerSettings())
        rows.append(
            {
                "tessellation": "shared" if shared else "independent",
                "max_gap_mm": gap,
                "bonded_fraction": seam.bonded_fraction,
                "prints_defect_xy": seam.prints_discontinuity,
            }
        )
    return rows


def run_scheduler_sweep():
    """Cold sweep wall-clock and node counters on the fleet scheduler."""
    start = time.perf_counter()
    sweep_report = ParallelSweep().run(
        build(False), SWEEP_RESOLUTIONS, SWEEP_ORIENTATIONS
    )
    return {
        "wall_s": time.perf_counter() - start,
        "scheduler": sweep_report.scheduler,
    }


def test_ablation_shared_tessellation(benchmark, report):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    sched = run_scheduler_sweep()

    lines = [
        f"{'tessellation':14s} {'max gap (mm)':>13s} {'bonded':>8s} "
        f"{'x-y defect?':>12s}"
    ]
    for r in rows:
        lines.append(
            f"{r['tessellation']:14s} {r['max_gap_mm']:>13.4f} "
            f"{r['bonded_fraction']:>8.2f} {str(r['prints_defect_xy']):>12s}"
        )
    lines.append("")
    lines.append(
        f"cold {len(SWEEP_RESOLUTIONS)}x{len(SWEEP_ORIENTATIONS)} sweep, "
        "stage-granular scheduler:"
    )
    totals = sched["scheduler"]
    lines.append(
        f"  {sched['wall_s']:6.2f} s  "
        f"(scheduled {totals.total_scheduled}, "
        f"deduped {totals.total_deduped}, "
        f"executed {totals.total_executed})"
    )
    report("Ablation shared tessellation", lines)

    independent, shared = rows
    # Independent meshing: Coarse gaps and an x-y defect (the paper).
    assert independent["max_gap_mm"] > 0.05
    assert independent["prints_defect_xy"]
    # Shared meshing: the gap collapses and the defect disappears.
    assert shared["max_gap_mm"] < 1e-6
    assert not shared["prints_defect_xy"]

    # The shared stages execute once per resolution, not per cell.
    n_cells = len(SWEEP_RESOLUTIONS) * len(SWEEP_ORIENTATIONS)
    tess = sched["scheduler"].stages["tessellate"]
    assert tess.scheduled == tess.executed == len(SWEEP_RESOLUTIONS)
    assert tess.deduped == n_cells - len(SWEEP_RESOLUTIONS)
