"""The serial in-process reference every measured output is checked
against.

Run as ``python3 perfbench/reference.py OUT.json`` (with ``src`` on
``PYTHONPATH``): it prints the protected bar under the full 3x3 fdm grid
through the plain serial ``CounterfeiterSimulator`` path - no pool, no
disk tier, no service - and writes, per cell, the verdict row (grade,
score, key match) and the outcome fingerprint.  The CLI's default 3x2
grid and every service job's grid are subsets of it.

The program builds the same geometry for every seed (the protected bar
is not randomised), so one reference serves every seed; the model
digest is recorded so a run whose model differs is flagged, not
silently compared against the wrong cells.
"""

from __future__ import annotations

import json
import os
import sys

ORIENTATIONS = ("x-y", "x-z", "y-z")
SEED = 7


def compute() -> dict:
    from repro.cad.resolution import COARSE, FINE, custom_resolution
    from repro.mesh.content_hash import model_digest
    from repro.obfuscade.attack import CounterfeiterSimulator
    from repro.obfuscade.obfuscator import Obfuscator
    from repro.pipeline import ProcessChain
    from repro.printer.machines import DIMENSION_ELITE
    from repro.printer.orientation import PrintOrientation

    protected = Obfuscator(seed=SEED).protect_tensile_bar()
    sim = CounterfeiterSimulator(
        resolutions=[COARSE, FINE, custom_resolution()],
        orientations=[PrintOrientation(o) for o in ORIENTATIONS],
        chain=ProcessChain(machine=DIMENSION_ELITE),
    )
    result = sim.attack(protected)
    if result.failed:
        raise SystemExit(f"reference sweep failed: {result.failed}")
    fingerprints = {
        f"{c.resolution}/{c.orientation}": c.fingerprint
        for c in result.report.cells
    }
    cells = {}
    for res, ori, grade, score, matches in result.summary_rows():
        key = f"{res}/{ori}"
        cells[key] = {
            "grade": grade,
            "score": score,
            "matches_key": matches,
            "fingerprint": fingerprints[key],
        }
    return {
        "machine": "fdm",
        "model_digest": model_digest(protected.model),
        "cells": cells,
    }


if __name__ == "__main__":
    out = sys.argv[1]
    doc = compute()
    with open(out + ".tmp", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    os.replace(out + ".tmp", out)
