"""The CLI sweep workloads: ``sweep_cold`` and ``sweep_disk_2w``.

Both run ``repro-obfuscade sweep`` with the default grid (fdm;
coarse/fine/custom x x-y/x-z), one fresh process per invocation, and
repeat until the run's time budget would be exceeded.  In a traced run
untraced and traced invocations alternate: the untraced ones give the
end-to-end figures and the tracing overhead's baseline, the traced ones
the per-layer figures.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import spans as spans_mod
from common import (
    MB,
    SERVICE_IDLE,
    STAGE_SPANS,
    TRACE_SLACK_S,
    TRACE_TOLERANCE,
    Context,
    Outcome,
    check_cli_sweep,
    median,
    stage_totals,
)
from procs import Program, dir_bytes

GRID = [f"{r}/{o}" for r in ("Coarse", "Fine", "Custom")
        for o in ("x-y", "x-z")]
#: Wall-clock limit of one CLI invocation before it counts as hung.
INVOCATION_TIMEOUT_S = 150.0


@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    import_s: float
    protect_s: float
    peak_rss_bytes: int
    manifest: dict
    spans: Optional[list]


def _invoke(ctx: Context, out: Outcome, tag: str, argv: List[str],
            manifest_path: Path, traced: bool) -> Invocation:
    trace_dir = ctx.workdir / f"{tag}.spans" if traced else None
    program = Program(argv, ctx.workdir, tag, trace_dir)
    program.wait(INVOCATION_TIMEOUT_S)
    record = program.record()
    text = program.output()
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        manifest = {}
        out.problems.append(f"{tag}: no run manifest ({exc})")
    if record["missing"]:
        out.problems.append(f"{tag}: spans not installed: {record['missing']}")
    out.check(check_cli_sweep(text, manifest, ctx.reference, GRID), tag)
    start, ready = record["protect"][0]
    return Invocation(
        wall_s=program.wall_s,
        setup_s=ready - program.t0,
        import_s=start - program.t0,
        protect_s=ready - start,
        peak_rss_bytes=program.peak_rss_bytes,
        manifest=manifest,
        spans=spans_mod.load(trace_dir) if traced else None,
    )


def _cli_seed(ctx: Context) -> str:
    return str(random.Random(ctx.seed).randrange(1, 2**31))


def chain_layers(summary: dict) -> dict:
    """Per-layer figures of the process chain from a span summary."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def count(name):
        return summary.get(name, {}).get("n", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    return {
        "printer.deposit_s": total("printer.deposit"),
        "printer.voxels": count("printer.deposit"),
        "slicer.gcode_s": total("slicer.gcode"),
        "slicer.gcode_lines": count("slicer.gcode"),
        "slicer.slice_s": total("slicer.slice"),
        "slicer.layers": count("slicer.slice"),
        "slicer.toolpath_s": total("slicer.toolpath"),
        "slicer.seam_s": total("slicer.seam"),
        "slicer.resolve_s": total("slicer.resolve"),
        "cad.export_stl_s": total("cad.export_stl"),
        "cad.triangles": count("cad.export_stl"),
        "printer.firmware_s": total("printer.firmware"),
        "obfuscade.assess_s": total("obfuscade.assess"),
        "pipeline.fingerprint_s": total("pipeline.fingerprint"),
        "pipeline.cache_self_s": self_s("pipeline.disk_get_or_run"),
    }


def pipeline_layers(manifests: List[dict], written_bytes: int) -> dict:
    """Cache, data-plane and scheduler counters the program reports in
    its run manifests, summed over the given invocations."""
    hits = lookups = requested = executed = 0
    zero_copy = mmap = max_task = retries = rebuilds = 0
    for m in manifests:
        for row in stage_totals(m).values():
            hits += row["hits"]
            lookups += row["hits"] + row["misses"]
        cache = m.get("stages", {}).get("_cache", {})
        zero_copy += cache.get("zero_copy_hits", 0)
        mmap += cache.get("mmap_bytes", 0)
        sched = m.get("scheduler")
        if sched:
            requested += sched["totals"]["requested"]
            executed += sched["totals"]["executed"]
        else:
            # The serial path has no scheduler; its stage cache plays
            # the part: executions are misses, requests are lookups.
            requested += sum(r["hits"] + r["misses"]
                             for r in stage_totals(m).values())
            executed += sum(r["misses"] for r in stage_totals(m).values())
        max_task = max(max_task,
                       (m.get("transport") or {}).get("max_task_bytes", 0))
        retries += m.get("counters", {}).get("retries", 0)
        rebuilds += m.get("counters", {}).get("pool_rebuilds", 0)
    return {
        "pipeline.hit_ratio": hits / lookups if lookups else 0.0,
        "pipeline.zero_copy_hits": zero_copy,
        "pipeline.mmap_mb": mmap / MB,
        "pipeline.disk_written_mb": written_bytes / MB,
        "pipeline.dedup_ratio": executed / requested if requested else 0.0,
        "pipeline.max_task_bytes": max_task,
        "pipeline.retries": retries,
        "pipeline.pool_rebuilds": rebuilds,
    }


def cross_check(inv: Invocation, summary: dict, out: Outcome) -> float:
    """Traced stage totals against the program's own per-stage ``run_s``;
    returns the largest relative deviation and flags any stage outside
    the stated tolerance."""
    worst = 0.0
    for stage, row in stage_totals(inv.manifest).items():
        name = STAGE_SPANS.get(stage)
        if name is None:
            continue
        traced = summary.get(name, {}).get("total_s", 0.0)
        run_s = row["run_s"]
        gap = abs(traced - run_s)
        worst = max(worst, gap / run_s if run_s > 0 else 0.0)
        if gap > TRACE_TOLERANCE * run_s + TRACE_SLACK_S:
            out.problems.append(
                f"trace cross-check: {stage} traced {traced:.3f}s vs "
                f"program run_s {run_s:.3f}s"
            )
    return worst


def _set_up_metrics(out: Outcome, plain: List[Invocation]) -> None:
    out.metrics["setup_s"] = median([i.setup_s for i in plain])
    out.samples["setup_s"] = len(plain)


def _layer_setup(plain: List[Invocation]) -> dict:
    return {
        "setup.import_s": median([i.import_s for i in plain]),
        "obfuscade.protect_s": median([i.protect_s for i in plain]),
    }


def _summaries(traced: List[List[Invocation]]) -> List[dict]:
    return [spans_mod.summarize([s for inv in group for s in inv.spans])
            for group in traced]


def _median_layers(rows: List[dict]) -> dict:
    return {k: median([r[k] for r in rows]) for k in rows[0]}


def sweep_cold(ctx: Context) -> Outcome:
    """Fresh-process serial sweeps with no cache directory."""
    out = Outcome()
    seed = _cli_seed(ctx)
    plain: List[Invocation] = []
    traced: List[Invocation] = []
    i = 0
    while True:
        use_trace = ctx.trace and i % 2 == 1
        manifest_path = ctx.workdir / f"cold{i}.manifest.json"
        inv = _invoke(
            ctx, out, f"cold{i}",
            ["sweep", "--seed", seed, "--stats", "--manifest",
             str(manifest_path)],
            manifest_path, use_trace,
        )
        (traced if use_trace else plain).append(inv)
        i += 1
        if ctx.trace and not traced:
            continue
        typical = median([x.wall_s for x in plain + traced])
        if time.monotonic() + typical > ctx.deadline:
            break
    walls = [x.wall_s for x in plain]
    _set_up_metrics(out, plain)
    out.metrics["sweep_wall_s"] = median(walls)
    # Without a cache directory every sweep is a rerun of the same grid
    # that reuses nothing: the bypass case, where a rerun costs a sweep.
    out.metrics["rerun_wall_s"] = median(walls)
    peaks = [x.peak_rss_bytes / MB for x in plain]
    out.metrics["peak_rss_mb"] = median(peaks)
    out.samples.update(sweep_wall_s=len(walls), rerun_wall_s=len(walls),
                       peak_rss_mb=len(plain))
    out.detail.update(walls_s=walls, peak_rss_mb=peaks)
    if ctx.trace:
        summaries = _summaries([[x] for x in traced])
        worst = max(cross_check(x, s, out) for x, s in zip(traced, summaries))
        layers = _median_layers([chain_layers(s) for s in summaries])
        layers.update(pipeline_layers([x.manifest for x in traced[:1]], 0))
        layers.update(_layer_setup(plain))
        layers.update(SERVICE_IDLE)
        layers["trace.overhead_s"] = (
            median([x.wall_s for x in traced]) - median(walls)
        )
        out.metrics.update(layers)
        out.detail["trace_cross_check_max_dev"] = worst
        out.detail["span_summary"] = summaries[0]
        out.notes.append(
            f"trace cross-check: worst stage deviation {worst:.1%} "
            f"(tolerance {TRACE_TOLERANCE:.0%} + {TRACE_SLACK_S}s)"
        )
        top = max(STAGE_SPANS.values(), key=lambda n: layers[n + "_s"])
        out.notes.append(f"trace: largest stage layer {top}_s "
                         f"({layers[top + '_s']:.3f} s)")
    return out


def sweep_disk_2w(ctx: Context) -> Outcome:
    """``--jobs 2`` sweeps on a fresh cache directory, each followed by
    an identical rerun on the populated cache."""
    out = Outcome()
    seed = _cli_seed(ctx)
    pairs: List[tuple] = []
    traced_pairs: List[tuple] = []
    disk: List[int] = []
    written: List[int] = []
    i = 0
    while True:
        use_trace = ctx.trace and i % 2 == 1
        cache_dir = ctx.workdir / f"cache{i}"
        manifest_path = cache_dir / "sweep-manifest.json"
        argv = ["sweep", "--seed", seed, "--jobs", "2", "--cache-dir",
                str(cache_dir), "--stats"]
        cold = _invoke(ctx, out, f"disk{i}.cold", argv, manifest_path,
                       use_trace)
        cold_bytes = dir_bytes(cache_dir)
        warm = _invoke(ctx, out, f"disk{i}.rerun", argv, manifest_path,
                       use_trace)
        if use_trace:
            traced_pairs.append((cold, warm))
            written.append(cold_bytes)
        else:
            pairs.append((cold, warm))
            disk.append(dir_bytes(cache_dir))
        shutil.rmtree(cache_dir, ignore_errors=True)
        i += 1
        if ctx.trace and not traced_pairs:
            continue
        typical = median([c.wall_s + w.wall_s
                          for c, w in pairs + traced_pairs])
        if time.monotonic() + typical > ctx.deadline:
            break
    plain = [x for pair in pairs for x in pair]
    _set_up_metrics(out, plain)
    out.metrics["sweep_wall_s"] = median([c.wall_s for c, _ in pairs])
    out.metrics["rerun_wall_s"] = median([w.wall_s for _, w in pairs])
    out.metrics["peak_rss_mb"] = median(
        [max(c.peak_rss_bytes, w.peak_rss_bytes) for c, w in pairs]
    ) / MB
    out.samples.update(sweep_wall_s=len(pairs), rerun_wall_s=len(pairs),
                       peak_rss_mb=len(pairs))
    out.detail["cold_walls_s"] = [c.wall_s for c, _ in pairs]
    out.detail["rerun_walls_s"] = [w.wall_s for _, w in pairs]
    if disk:
        out.extra["disk_mb"] = (median(disk) / MB, "MB", len(disk))
    if ctx.trace:
        summaries = _summaries([list(p) for p in traced_pairs])
        layers = _median_layers([chain_layers(s) for s in summaries])
        layers.update(pipeline_layers(list(
            (traced_pairs[0][0].manifest, traced_pairs[0][1].manifest)
        ), median(written)))
        layers.update(_layer_setup(plain))
        layers.update(SERVICE_IDLE)
        layers["trace.overhead_s"] = (
            median([c.wall_s + w.wall_s for c, w in traced_pairs])
            - median([c.wall_s + w.wall_s for c, w in pairs])
        )
        out.metrics.update(layers)
        out.detail["span_summary"] = summaries[0]
    return out
