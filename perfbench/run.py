"""Benchmark of the ObfusCADe reproduction: CLI sweeps and the job service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``sweep_cold``     fresh-process serial ``repro-obfuscade sweep`` runs
``sweep_disk_2w``  ``sweep --jobs 2 --cache-dir`` cold pass + warm rerun
``service_mixed``  a ``serve`` process: cold burst, then an open-loop
                   ladder of warm jobs from three tenants

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics.  Every measured
output is checked against a serial in-process reference sweep; the last
line of standard output is the JSON result.  The program is run from
``src/`` of the current directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from common import Context, Outcome

HERE = Path(__file__).resolve().parent
#: Work area inside the checkout (listed in .gitignore).
WORK_ROOT = Path(".perfbench")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_reference() -> dict:
    """The serial reference for the current sources, computed once per
    source tree and kept under :data:`WORK_ROOT`."""
    path = WORK_ROOT / f"reference-{_source_digest()}.json"
    if not path.exists():
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(path)],
            env=env, check=True, timeout=600,
            stdout=subprocess.DEVNULL,
        )
    return json.loads(path.read_text())


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count()}


def _workloads():
    import service
    import sweeps

    return {
        "sweep_cold": sweeps.sweep_cold,
        "sweep_disk_2w": sweeps.sweep_disk_2w,
        "service_mixed": service.service_mixed,
    }


def _stop(signum, _frame):
    # Unwind through the workloads' cleanup, which stops the program.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/cli.py").is_file():
        print("perfbench: run from the repository root (src/repro is "
              "missing here)", file=sys.stderr)
        return 2
    # The load generator drives the service through the program's own
    # client SDK.
    sys.path.insert(0, os.path.abspath("src"))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir()
    try:
        reference = load_reference()
        ctx = Context(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir.resolve(),
            reference=reference,
            started=time.monotonic(),
        )
        outcome: Outcome = workloads[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}",
              file=sys.stderr)
        return 1
    attempted = max(outcome.attempted, 1)
    if not args.trace:
        outcome.extra["error_share"] = (
            outcome.failed / attempted, "share", attempted
        )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _versions(),
        "samples": outcome.samples,
        "extra": outcome.extra,
        "detail": outcome.detail,
        "problems": outcome.problems,
    }
    for line in outcome.notes:
        print(line)
    rows = [(m["name"], outcome.metrics[m["name"]], m["unit"],
             outcome.samples.get(m["name"])) for m in wanted]
    rows += [(name, *row) for name, row in outcome.extra.items()]
    for name, value, unit, n in rows:
        print(f"{name:28s} {value:14.6f} {unit}"
              + (f"  (n={n})" if n else ""))
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps(report, sort_keys=True, default=float))
    result = {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]],
                        "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
