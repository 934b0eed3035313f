"""EXP-K1 - cold-path kernels vs their retained scalar oracles.

Every vectorized kernel of the cold print chain keeps the scalar
version it replaced as its test oracle.  This bench captures each
kernel's real inputs from the CLI ``sweep`` default grid (the protected
bar, coarse/fine/custom x x-y/x-z, fdm), then for every kernel/oracle
pair:

* checks equivalence on every captured input (exact: ``array_equal``
  on index maps, span rasters and voxel stacks, equal G-code lines and
  bitwise move table columns, equal contour and open-path points);
* times both over ``ROUNDS`` interleaved rounds (each round runs the
  pair on all captured inputs, alternating which goes first) and
  records the median, quartiles and spread of the per-round totals,
  the speed ratio (oracle median / kernel median) and ``nproc``.

A kernel that is not equivalent, or slower than its oracle, fails.
Results go to ``benchmarks/results/kernel_microbench.txt`` and
``BENCH_kernels.json``.  ``OBFUSCADE_BENCH_SMOKE=1`` (the CI smoke
configuration) cuts the rounds to 3; the gates stay the same.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
from scipy import ndimage

from repro.cad.resolution import COARSE, FINE, custom_resolution
from repro.envflags import env_flag
from repro.obfuscade.attack import CounterfeiterSimulator
from repro.obfuscade.obfuscator import Obfuscator
from repro.pipeline import ProcessChain
from repro.pipeline import chain as pipeline_chain
from repro.printer import deposition
from repro.printer.orientation import PrintOrientation
from repro.slicer import gcode, raster, slicer

SMOKE = env_flag("OBFUSCADE_BENCH_SMOKE", default=False)
ROUNDS = 3 if SMOKE else 7

#: The ``repro-obfuscade sweep`` default grid.
RESOLUTIONS = (COARSE, FINE, custom_resolution())
ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)

_CROSS = ndimage.generate_binary_structure(2, 1)


@contextlib.contextmanager
def _recording(module, name, sink):
    """Swap ``module.name`` for a wrapper that appends its arguments
    to ``sink`` (the chain looks these kernels up as module globals)."""
    original = getattr(module, name)

    def wrapper(*args):
        sink.append(args)
        return original(*args)

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def capture_inputs() -> dict:
    """Every kernel call's arguments from one cold default-grid sweep."""
    calls = {
        name: []
        for name in ("dedup", "closing", "fill", "chain", "gcode", "spans")
    }
    protected = Obfuscator(seed=7).protect_tensile_bar()
    sim = CounterfeiterSimulator(
        resolutions=RESOLUTIONS, orientations=ORIENTATIONS, chain=ProcessChain()
    )
    with contextlib.ExitStack() as stack:
        for module, name, key in (
            (deposition, "_unique_layers", "dedup"),
            (deposition, "_cross_closing", "closing"),
            (deposition, "_fill_holes_stack", "fill"),
            (slicer, "chain_segments", "chain"),
            (pipeline_chain, "generate_gcode", "gcode"),
            (raster, "fill_spans", "spans"),
        ):
            stack.enter_context(_recording(module, name, calls[key]))
        result = sim.attack(protected)
    assert not result.failed, result.failed
    return calls


# -- kernel / oracle pairs ----------------------------------------------------


def _closing_oracle(stack, iterations):
    return np.stack([
        ndimage.binary_closing(layer, structure=_CROSS, iterations=iterations)
        for layer in stack
    ])


def _fill_oracle(stack):
    return np.stack([
        ndimage.binary_fill_holes(layer, structure=_CROSS) for layer in stack
    ])


def _same_arrays(a, b) -> bool:
    if isinstance(a, tuple):
        return all(_same_arrays(x, y) for x, y in zip(a, b))
    return a.dtype == b.dtype and np.array_equal(a, b)


def _same_gcode(a, b) -> bool:
    if a.lines != b.lines:
        return False
    return all(
        col.dtype == getattr(b.moves, name).dtype
        and col.tobytes() == getattr(b.moves, name).tobytes()
        for name, col in a.moves.to_columns().items()
    )


def _same_chains(a, b) -> bool:
    (contours_a, open_a), (contours_b, open_b) = a, b
    return (
        len(contours_a) == len(contours_b)
        and len(open_a) == len(open_b)
        and all(
            np.array_equal(p.points, q.points)
            for p, q in zip(contours_a, contours_b)
        )
        and all(_same_arrays(p, q) for p, q in zip(open_a, open_b))
    )


def kernel_pairs(calls: dict) -> dict:
    """name -> (kernel, oracle, equal, argument tuples, input summary)."""
    dedup_shapes = sorted({args[0].shape for args in calls["dedup"]})
    n_segments = sum(len(args[0]) for args in calls["chain"])
    n_cells = sum(args[4] * args[6] for args in calls["spans"])
    n_moves = sum(
        len(path.points) + path.closed
        for (layers,) in calls["gcode"] for layer in layers for path in layer.paths
    )
    return {
        "layer_dedup": (
            deposition._unique_layers, deposition._unique_layers_loop,
            _same_arrays, calls["dedup"],
            f"{len(calls['dedup'])} stacks, shapes {dedup_shapes}",
        ),
        "gcode_emission": (
            gcode.generate_gcode, gcode._generate_gcode_loop,
            _same_gcode, calls["gcode"],
            f"{len(calls['gcode'])} programs, {n_moves} moves",
        ),
        "contour_chaining": (
            slicer.chain_segments, slicer._chain_segments_loop,
            _same_chains, calls["chain"],
            f"{len(calls['chain'])} layers, {n_segments} segments",
        ),
        "span_fill": (
            raster.fill_spans, raster._fill_spans_add_at,
            _same_arrays, calls["spans"],
            f"{len(calls['spans'])} fills, {n_cells} cells",
        ),
        "bead_closing": (
            deposition._cross_closing, _closing_oracle,
            _same_arrays, calls["closing"],
            f"{len(calls['closing'])} unique-layer stacks",
        ),
        "hole_fill": (
            deposition._fill_holes_stack, _fill_oracle,
            _same_arrays, calls["fill"],
            f"{len(calls['fill'])} closed stacks",
        ),
    }


def _run_all(fn, inputs) -> float:
    start = time.perf_counter()
    for args in inputs:
        fn(*args)
    return time.perf_counter() - start


def _spread(samples) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "median_s": float(median),
        "q1_s": float(q1),
        "q3_s": float(q3),
        "min_s": float(min(samples)),
        "max_s": float(max(samples)),
        "iqr_over_median": float((q3 - q1) / median) if median else 0.0,
        "rounds_s": [float(s) for s in samples],
    }


def measure(pairs: dict) -> dict:
    results = {}
    for name, (kernel, oracle, equal, inputs, summary) in pairs.items():
        equivalent = all(equal(kernel(*args), oracle(*args)) for args in inputs)
        fast, slow = [], []
        for r in range(ROUNDS):
            if r % 2:
                slow.append(_run_all(oracle, inputs))
                fast.append(_run_all(kernel, inputs))
            else:
                fast.append(_run_all(kernel, inputs))
                slow.append(_run_all(oracle, inputs))
        kernel_t, oracle_t = _spread(fast), _spread(slow)
        results[name] = {
            "kernel": f"{kernel.__module__}.{kernel.__qualname__}",
            "oracle": f"{oracle.__module__}.{oracle.__qualname__}",
            "inputs": summary,
            "equivalent": equivalent,
            "kernel_s": kernel_t,
            "oracle_s": oracle_t,
            "speedup": oracle_t["median_s"] / kernel_t["median_s"],
        }
    return results


def test_kernels_vs_oracles(report):
    results = measure(kernel_pairs(capture_inputs()))
    nproc = os.cpu_count()
    lines = [
        f"default sweep grid: {len(RESOLUTIONS)} resolutions x "
        f"{len(ORIENTATIONS)} orientations, {ROUNDS} interleaved rounds"
        f"{' (smoke)' if SMOKE else ''}, nproc {nproc}",
        f"{'kernel':<18}{'equal':>7}{'kernel s':>11}{'oracle s':>11}"
        f"{'speedup':>9}{'IQR/med':>9}  inputs",
    ]
    for name, r in results.items():
        k, o = r["kernel_s"], r["oracle_s"]
        spread = max(k["iqr_over_median"], o["iqr_over_median"])
        lines.append(
            f"{name:<18}{str(r['equivalent']):>7}{k['median_s']:>11.4f}"
            f"{o['median_s']:>11.4f}{r['speedup']:>8.1f}x{spread:>9.2f}"
            f"  {r['inputs']}"
        )
    report(
        "kernel microbench",
        lines,
        data={
            "grid": {
                "resolutions": [res.name for res in RESOLUTIONS],
                "orientations": [o.value for o in ORIENTATIONS],
            },
            "smoke": SMOKE,
            "rounds": ROUNDS,
            "nproc": nproc,
            "kernels": results,
        },
        json_name="BENCH_kernels.json",
    )
    for name, r in results.items():
        assert r["equivalent"], f"{name} differs from its oracle"
        assert r["speedup"] >= 1.0, (
            f"{name} is slower than its oracle: "
            f"{r['kernel_s']['median_s']:.4f} s vs {r['oracle_s']['median_s']:.4f} s"
        )
