"""Shared pieces of the benchmark: run context, statistics, the output
correctness gate against the serial reference, and manifest readers."""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Traced stage totals must match the program's own per-stage ``run_s``
#: within this share of ``run_s`` plus :data:`TRACE_SLACK_S`.
TRACE_TOLERANCE = 0.10
TRACE_SLACK_S = 0.02
MB = 1e6

#: Chain stage (as the program's ``CacheStats`` names it) -> the traced
#: layer function that does that stage's work.
STAGE_SPANS = {
    "tessellate": "cad.export_stl",
    "resolve": "slicer.resolve",
    "seam": "slicer.seam",
    "slice": "slicer.slice",
    "toolpath": "slicer.toolpath",
    "gcode": "slicer.gcode",
    "firmware": "printer.firmware",
    "deposit": "printer.deposit",
}


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    reference: Dict[str, Any]
    #: ``time.monotonic()`` when measuring began; the run ends by
    #: ``started + seconds``.
    started: float

    @property
    def deadline(self) -> float:
        return self.started + self.seconds


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Sample count behind each reported timing.
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Human-readable lines printed above the result line.
    notes: List[str] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Further end-to-end figures, printed by name but not part of the
    #: result line: name -> (value, unit, sample count or None).
    extra: Dict[str, tuple] = field(default_factory=dict)

    def check(self, problems: List[str], what: str) -> None:
        """Count one attempted operation; a problem list fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(n: int) -> Optional[int]:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for q in (50, 90, 95, 99):
        if n - math.ceil(q / 100.0 * n) >= 10:
            best = q
    return best


_ROW = re.compile(
    r"^\s+(\S+)\s+(x-y|x-z|y-z)\s+(\S+)\s+(-?\d+\.\d+)( <-- key)?\s*$"
)


def cli_rows(text: str) -> Dict[str, tuple]:
    """The verdict rows a ``sweep`` prints: cell -> (grade, score, key)."""
    rows = {}
    for line in text.splitlines():
        m = _ROW.match(line)
        if m:
            rows[f"{m.group(1)}/{m.group(2)}"] = (
                m.group(3), m.group(4), bool(m.group(5))
            )
    return rows


def check_cli_sweep(text: str, manifest: dict, reference: dict,
                    cells: List[str]) -> List[str]:
    """Verdict rows and outcome fingerprints of one CLI sweep against the
    serial reference; returns the mismatches (empty when correct).  The
    exit code is deliberately not consulted: a grid with y-z exits 1 by
    design."""
    problems = []
    rows = cli_rows(text)
    ref = reference["cells"]
    if sorted(rows) != sorted(cells):
        problems.append(f"verdict rows for {sorted(rows)}, want {sorted(cells)}")
    for cell in cells:
        want = ref[cell]
        got = rows.get(cell)
        if got is not None and got != (
            want["grade"], f"{want['score']:.2f}", want["matches_key"]
        ):
            problems.append(f"{cell} verdict {got} differs from reference")
    if manifest.get("model", {}).get("digest") != reference["model_digest"]:
        problems.append("model digest differs from the reference model")
    fingerprints = manifest.get("fingerprints", {})
    for cell in cells:
        if fingerprints.get(cell) != ref[cell]["fingerprint"]:
            problems.append(f"{cell} fingerprint differs from reference")
    return problems


def check_job_result(result: dict, reference: dict,
                     cells: List[str]) -> List[str]:
    """A service job's summary rows and fingerprints against the reference."""
    problems = []
    ref = reference["cells"]
    fingerprints = result.get("fingerprints", {})
    if sorted(fingerprints) != sorted(cells):
        problems.append(f"cells {sorted(fingerprints)}, want {sorted(cells)}")
    for cell in cells:
        if fingerprints.get(cell) != ref[cell]["fingerprint"]:
            problems.append(f"{cell} fingerprint differs from reference")
    for res, ori, grade, score, matches in result.get("summary", []):
        want = ref.get(f"{res}/{ori}")
        if want is None or (grade, score, matches) != (
            want["grade"], want["score"], want["matches_key"]
        ):
            problems.append(f"{res}/{ori} verdict differs from reference")
    return problems


def stage_totals(manifest: dict) -> Dict[str, Dict[str, float]]:
    """The manifest's per-stage counters, without the ``_cache`` block."""
    return {k: v for k, v in manifest.get("stages", {}).items()
            if not k.startswith("_")}



#: Per-layer figures of the service and its load generator; a sweep
#: workload crosses none of these layers and reports them as zero.
SERVICE_IDLE = {
    "service.cross_job_deduped": 0,
    "service.fanout_results": 0,
    "service.queue_wait_p50_s": 0.0,
    "service.run_p50_s": 0.0,
    "service.http_p50_s": 0.0,
    "service.coalesced_joins": 0,
    "service.refused": 0,
    "service.out_bytes_per_job": 0,
    "service.models_memo": 0,
    "loadgen.lag_p95_s": 0.0,
}
