#!/usr/bin/env python
"""End-to-end smoke test of the fleet-scheduled obfuscation service.

Drives a real :class:`ObfuscadeService` through the v1 HTTP API with
the :class:`repro.client.ServiceClient` SDK, the way CI exercises the
other subsystems:

* N identical jobs submitted concurrently from distinct tenants must
  all end ``done`` under N distinct job ids, and summed over their N
  manifests each stage's cache misses must equal one cold run's: the
  fleet (for jobs admitted together) and the shared disk tier (for
  the rest) compute each stage once across the whole service, while
  mixed-priority distinct jobs ride alongside;
* the distinct jobs' grids overlap the shared one, and the fleet
  admits them concurrently (``--max-concurrent-jobs``), so the
  cross-job dedupe counters must prove shared nodes executed once
  (``cross_job_deduped >= 1``) while every overlapping cell still
  agrees bit-for-bit;
* one queued job must be cancelled through ``DELETE /v1/jobs/{id}``
  without perturbing any surviving job's results;
* one more distinct submission beyond the queue depth must get a
  structured 429 envelope, never a hang;
* every identical job's fingerprints must be bit-identical to a
  serial CLI sweep of the same grid (``--baseline``);
* ``check_run_artifacts.py`` must pass on EVERY completed job's
  manifest + trace (per-job accounting stays exact under the fleet);
* the warm worker pool must survive every job without a rebuild.

The first-admitted identical job - the one that scheduled the shared
nodes - has its manifest and trace copied to stable names
(``shared.manifest.json`` / ``shared.trace.jsonl`` under ``--out``) so
a follow-up ``check_run_artifacts.py`` step can schema-check them.

Usage:
    PYTHONPATH=src python scripts/service_smoke.py \
        --out /tmp/service-smoke [--baseline serial-manifest.json] \
        [--jobs 2] [--identical 8] [--max-concurrent-jobs 2]
"""

import argparse
import shutil
import sys
import threading
from pathlib import Path

from repro.client import ServiceClient, ServiceClientError
from repro.observability import manifest as manifest_mod
from repro.service import ObfuscadeService, ServiceServer

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_run_artifacts  # noqa: E402 - sibling script

#: Every "identical" submission sends exactly this.
SHARED = {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}
#: Distinct jobs whose grids overlap the shared one (and each other),
#: at different priorities, so the fleet must dedupe their shared
#: nodes across job boundaries.
DISTINCT = [
    {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-z"],
     "priority": 1},
    {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y", "x-z"],
     "priority": 7},
]
#: Submitted, then DELETEd while still queued: must cancel cleanly.
DOOMED = {"seed": 7, "resolutions": ["fine"], "orientations": ["x-z"],
          "priority": 9}
#: Submitted once the queue is full: must be refused, not queued.
OVERFLOW = {"seed": 7, "resolutions": ["fine"], "orientations": ["x-y"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="working directory (cache + runs + copies)")
    parser.add_argument("--baseline", default=None,
                        help="serial CLI sweep manifest of the SHARED grid")
    parser.add_argument("--jobs", type=int, default=2,
                        help="warm worker pool size")
    parser.add_argument("--identical", type=int, default=8,
                        help="concurrent identical submissions")
    parser.add_argument("--max-concurrent-jobs", type=int, default=2,
                        help="fleet admission width")
    args = parser.parse_args(argv)

    out = Path(args.out)
    problems = []
    service = ObfuscadeService(
        cache_dir=out / "cache",
        out_dir=out / "runs",
        jobs=args.jobs,
        max_concurrent_jobs=args.max_concurrent_jobs,
        # Room for every identical, distinct and doomed job: the
        # overflow submission is the first one refused.
        queue_depth=args.identical + len(DISTINCT) + 1,
    )
    server = ServiceServer(service, port=0)
    server.start()
    # Paused dispatcher: every submission lands while nothing runs, so
    # the admission order and the queued-cancel are deterministic.
    service.start(paused=True)
    try:
        identical_ids = [None] * args.identical
        def submit(i):
            client = ServiceClient(server.url, tenant=f"tenant-{i}")
            identical_ids[i] = client.submit(**SHARED).job_id
        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(args.identical)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if len(set(identical_ids)) != args.identical:
            problems.append(
                f"{args.identical} identical submissions got "
                f"{len(set(identical_ids))} distinct job ids "
                f"(want one job each)"
            )

        distinct_ids = [
            ServiceClient(server.url, tenant=f"distinct-{i}")
            .submit(**payload).job_id
            for i, payload in enumerate(DISTINCT)
        ]

        doomed_client = ServiceClient(server.url, tenant="doomed")
        doomed = doomed_client.submit(**DOOMED)

        try:
            ServiceClient(server.url, tenant="straggler").submit(**OVERFLOW)
            problems.append("overflow submission was admitted (want 429)")
        except ServiceClientError as exc:
            if exc.status != 429 or exc.envelope.code != "queue_full":
                problems.append(
                    f"overflow got [{exc.status}] {exc.envelope.code} "
                    f"(want structured 429 queue_full)"
                )

        # DELETE while queued: the job must reach a terminal cancelled
        # state and never consume fleet work.
        cancelled = doomed_client.cancel(doomed.job_id)
        if cancelled.state != "cancelled":
            problems.append(
                f"DELETE left doomed job {cancelled.state!r} "
                f"(want cancelled)"
            )
        try:
            doomed_client.cancel(doomed.job_id)
            problems.append("second DELETE succeeded (want 409)")
        except ServiceClientError as exc:
            if exc.status != 409 or exc.envelope.code != "not_cancellable":
                problems.append(
                    f"second DELETE got [{exc.status}] {exc.envelope.code} "
                    f"(want 409 not_cancellable)"
                )

        service.resume()
        waiter = ServiceClient(server.url, tenant="waiter")
        identical_views = [waiter.wait_result(jid, timeout_s=900)
                           for jid in identical_ids]
        distinct_views = [waiter.wait_result(jid, timeout_s=900)
                          for jid in distinct_ids]
        labelled = [
            (f"identical-{i}", v) for i, v in enumerate(identical_views)
        ] + [(f"distinct-{i}", v) for i, v in enumerate(distinct_views)]
        for label, view in labelled:
            if view.state != "done":
                problems.append(f"{label} job ended {view.state}: "
                                f"{view.error}")
        if problems:
            return _report(problems)

        # The first-admitted identical job scheduled the shared nodes.
        shared_view = min(identical_views, key=lambda v: v.started_s)
        shared_fp = shared_view.result["fingerprints"]
        for i, view in enumerate(identical_views):
            if view.result["fingerprints"] != shared_fp:
                problems.append(
                    f"identical-{i} fingerprints diverge from the first "
                    f"admitted job: {view.result['fingerprints']} != "
                    f"{shared_fp}"
                )

        # Each stage computed once across the whole service: summed
        # over the identical jobs' manifests, misses equal one cold
        # run's (the baseline's; without one, a 1-cell grid's one miss
        # per stage).
        baseline = (manifest_mod.read_manifest(args.baseline)
                    if args.baseline else None)
        misses = _stage_misses(
            manifest_mod.read_manifest(v.result["manifest"])
            for v in identical_views
        )
        cold = (_stage_misses([baseline]) if baseline
                else {stage: 1 for stage in misses})
        if not misses or misses != cold:
            problems.append(
                f"identical jobs' summed per-stage cache misses are "
                f"{misses} (want one cold run's: {cold})"
            )

        merged_fp = dict(distinct_views[0].result["fingerprints"])
        merged_fp.update(shared_fp)
        both = distinct_views[1].result["fingerprints"]
        if both != merged_fp:
            problems.append(
                "distinct jobs disagree with the shared job on "
                f"overlapping cells: {both} != {merged_fp}"
            )

        if baseline and baseline.get("fingerprints") != shared_fp:
            problems.append(
                "identical jobs' fingerprints diverge from the serial "
                f"CLI baseline: {shared_fp} != {baseline.get('fingerprints')}"
            )

        # The tentpole gate: concurrently admitted overlapping jobs
        # must have deduped at least one node across job boundaries.
        cross_job = sum(
            v.result["fleet"]["cross_job_deduped"]
            for v in identical_views + distinct_views
        )
        if cross_job < 1:
            problems.append(
                "no cross-job dedupe happened (cross_job_deduped == 0 "
                "on every job; overlapping concurrent jobs should share)"
            )

        metrics = waiter.metrics()
        counters = metrics.get("counters", {})
        expect = {
            "service.jobs_submitted": args.identical + len(DISTINCT) + 1,
            "service.jobs_rejected": 1,
            "service.jobs_done": args.identical + len(DISTINCT),
            "service.jobs_cancelled": 1,
        }
        for key, want in expect.items():
            if counters.get(key) != want:
                problems.append(
                    f"counter {key} is {counters.get(key)}, want {want}"
                )
        if metrics.get("fleet", {}).get("cross_job_deduped", 0) < 1:
            problems.append(
                f"service fleet counters missed the cross-job dedupe: "
                f"{metrics.get('fleet')}"
            )
        pool = metrics.get("pool")
        if args.jobs > 1 and (not pool or pool["rebuilds"] != 0):
            problems.append(f"warm pool unhealthy: {pool}")

        manifest_doc = manifest_mod.read_manifest(
            shared_view.result["manifest"]
        )
        schema_problems = manifest_mod.validate_manifest(manifest_doc)
        problems.extend(
            f"shared manifest schema: {p}" for p in schema_problems
        )

        # Per-job accounting must stay exact under the fleet: the
        # artifact checker passes on EVERY completed job.
        for label, view in labelled:
            found = check_run_artifacts.check(
                view.result["trace"], view.result["manifest"],
                jobs=args.jobs,
            )
            problems.extend(f"{label} artifacts: {p}" for p in found)

        # Stable copies for the follow-up check_run_artifacts step.
        shutil.copy(shared_view.result["manifest"],
                    out / "shared.manifest.json")
        shutil.copy(shared_view.result["trace"],
                    out / "shared.trace.jsonl")
    finally:
        server.stop()
        service.stop()

    if problems:
        return _report(problems)
    print(
        f"SMOKE OK: {args.identical} identical submissions -> "
        f"{args.identical} jobs computing each stage once, "
        f"{len(DISTINCT)} overlapping jobs, {cross_job} nodes deduped "
        f"across jobs, 1 queued job cancelled, overflow got a "
        f"structured 429, artifacts exact on every job"
    )
    return 0


def _stage_misses(manifests) -> dict:
    """Per-stage cache misses summed over ``manifests``."""
    misses = {}
    for doc in manifests:
        for stage, row in doc["stages"].items():
            if "misses" in row:
                misses[stage] = misses.get(stage, 0) + row["misses"]
    return misses


def _report(problems) -> int:
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
