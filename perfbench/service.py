"""The ``service_mixed`` workload: a ``serve`` process under load.

One fresh ``repro-obfuscade serve --jobs 2 --max-concurrent-jobs 2``
process on an empty cache, driven through ``repro.client.ServiceClient``
from this process with two threads (a sender and a result collector,
never more than ``nproc``):

1. **Cold burst.**  Six overlapping fdm jobs from three tenants,
   together covering the 3x3 grid, are submitted at once; the makespan
   runs from the first submit to the last result.
2. **Warm reruns.**  :data:`RERUN_JOBS` warm jobs one at a time (a
   closed loop), after :data:`WARMUP_JOBS` untimed ones; each is timed
   from submit to result received.  Half of them run after phase 3.
3. **Warm open loop.**  Jobs go out on a seeded Poisson schedule at each
   rate of :data:`RATES`; each picks a weighted tenant, a random
   sub-grid, a seed from a large range and a priority, and a few are
   cancelled right after submission.  Latency runs from when a request
   was due to the server's ``finished_s`` stamp (same host clock), so a
   late generator or a stalled service both show; 429 refusals, failures
   and timeouts count as misses of :data:`LATENCY_LIMIT_S`.

Set-up time is also measured on an extra start/stop of the service
before the main one and another after it, so ``setup_s`` is a median of
three starts.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import re
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import List, Optional

import spans as spans_mod
from common import (
    MB,
    Context,
    Outcome,
    check_job_result,
    highest_supported_percentile,
    median,
    percentile,
)
from procs import Program, dir_bytes

RESOLUTIONS = ("coarse", "fine", "custom")
ORIENTATIONS = ("x-y", "x-z", "y-z")
_CELL_NAME = {"coarse": "Coarse", "fine": "Fine", "custom": "Custom"}
#: Tenants and their share of the offered load.
TENANTS = (("gold", 0.5), ("silver", 0.3), ("bronze", 0.2))
PRIORITIES = (2, 5, 5, 8)
#: Share of open-loop requests cancelled right after submission.
CANCEL_SHARE = 0.04
#: Open-loop rates, jobs/s; the first is the nominal rate.
RATES = (10.0, 20.0)
#: Closed-loop warm jobs after the burst; the first :data:`WARMUP_JOBS`
#: are not timed.  Each pool worker pays a one-off cost the first time it
#: serves a cell (disk loads, fingerprint memo), which a long-lived
#: service pays once.
RERUN_JOBS = 150
WARMUP_JOBS = 40
#: p95 latency limit of a warm job, seconds.
LATENCY_LIMIT_S = 0.5
#: Jobs per rate are never fewer than this, whatever the time budget.
MIN_JOBS_PER_RATE = 60


@dataclass
class Sent:
    """One open-loop request and what became of it."""

    due: float
    spec: dict
    tenant: str
    cancel: bool = False
    sent: float = 0.0
    job_id: Optional[str] = None
    joined: bool = False
    refused: bool = False
    view: Optional[object] = None
    observed: float = 0.0
    error: Optional[str] = None
    cancelled: bool = False
    problems: List[str] = field(default_factory=list)

    @property
    def cells(self) -> List[str]:
        return [f"{_CELL_NAME[r]}/{o}" for r in self.spec["resolutions"]
                for o in self.spec["orientations"]]

    @property
    def latency_s(self) -> float:
        """Due time to the server's completion stamp; inf on a miss."""
        if self.view is None or self.view.state != "done" or self.problems:
            return math.inf
        return self.view.finished_s - self.due


#: Job shapes (resolution count, orientation count) of the open loop,
#: dealt from a shuffled deck so every run offers the same size mix
#: (cells per job 1:4, 2:6, 3:2, 4:2, 6:2 of 16); the seed decides the
#: order and which resolutions and orientations each job names.
SHAPE_DECK = ((1, 1),) * 4 + ((1, 2), (2, 1)) * 3 + (
    (1, 3), (3, 1), (2, 2), (2, 2), (2, 3), (3, 2))


def _grid(rng: random.Random, shape) -> dict:
    n_res, n_ori = shape
    return {"resolutions": sorted(rng.sample(RESOLUTIONS, n_res),
                                  key=RESOLUTIONS.index),
            "orientations": sorted(rng.sample(ORIENTATIONS, n_ori),
                                   key=ORIENTATIONS.index)}


def _tenant(rng: random.Random) -> str:
    names, shares = zip(*TENANTS)
    return rng.choices(names, weights=shares)[0]


def burst_specs(rng: random.Random) -> List[tuple]:
    """Six overlapping (tenant, spec) jobs whose union is the 3x3 grid:
    each row (one resolution, all orientations) followed by a column
    (all resolutions, one orientation), so each cell is asked for twice
    and consecutive jobs share cells.  The tenants take turns.  Order,
    tenants and priorities are fixed, because they decide the schedule
    and so the makespan; the seed draws the jobs' model seeds."""
    jobs = []
    for i, (res, ori) in enumerate(zip(RESOLUTIONS, ORIENTATIONS)):
        for j, spec in enumerate((
            {"resolutions": [res], "orientations": list(ORIENTATIONS)},
            {"resolutions": list(RESOLUTIONS), "orientations": [ori]},
        )):
            spec.update(seed=rng.randrange(1, 10**6), machine="fdm")
            jobs.append((TENANTS[(2 * i + j) % len(TENANTS)][0], spec))
    return jobs


class Service:
    """One ``serve`` process and its per-tenant clients."""

    def __init__(self, ctx: Context, tag: str, traced: bool = False):
        from repro.client import ServiceClient

        self.root = ctx.workdir / tag
        self.root.mkdir()
        argv = [
            "serve", "--jobs", "2", "--max-concurrent-jobs", "2",
            "--port", "0", "--cache-dir", str(self.root / "cache"),
            "--out-dir", str(self.root / "runs"),
        ]
        trace_dir = self.root / "spans" if traced else None
        self.trace_dir = trace_dir
        self.program = Program(argv, ctx.workdir, tag, trace_dir)
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.program.kill()
            raise
        self.ready_s = time.monotonic() - self.program.t0
        self.clients = {name: ServiceClient(self.url, tenant=name)
                        for name, _ in TENANTS}

    def _wait_ready(self, timeout_s: float = 120.0) -> str:
        deadline = time.monotonic() + timeout_s
        url = None
        while time.monotonic() < deadline:
            if self.program.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited early:\n{self.program.output()}"
                )
            if url is None:
                m = re.search(r"listening on (http://\S+)",
                              self.program.output())
                url = m.group(1) if m else None
            if url is not None:
                try:
                    with urllib.request.urlopen(
                        f"{url}/v1/healthz", timeout=5
                    ) as resp:
                        if json.loads(resp.read()).get("status") == "ok":
                            return url
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("serve did not become healthy in time")

    def metrics(self) -> dict:
        return self.clients["gold"].metrics()

    def stop(self) -> None:
        self.program.interrupt()


def _submit(svc: Service, req: Sent) -> None:
    from repro.client import ServiceClientError

    client = svc.clients[req.tenant]
    req.sent = time.time()
    try:
        view = client.submit(**req.spec)
    except ServiceClientError as exc:
        if exc.status == 429:
            req.refused = True
        else:
            req.error = str(exc)
        return
    req.job_id = view.job_id
    req.joined = client.last_submit_joined
    # Cancelling a job another request joined would cancel theirs too.
    if req.cancel and not req.joined:
        try:
            view = client.cancel(req.job_id)
            req.cancelled = view.state == "cancelled"
        except ServiceClientError as exc:
            if exc.status != 409:  # 409: finished before the DELETE
                req.error = str(exc)


def _await(svc: Service, ctx: Context, req: Sent, timeout_s: float) -> None:
    """Wait for one submitted job and check its result."""
    from repro.client import ServiceClientError

    if req.job_id is None or req.cancelled:
        return
    try:
        req.view = svc.clients[req.tenant].wait_result(
            req.job_id, timeout_s=timeout_s
        )
        req.observed = time.time()
    except ServiceClientError as exc:
        req.error = str(exc)
        return
    if req.view.state == "done":
        req.problems = check_job_result(
            req.view.result, ctx.reference, req.cells
        )
    elif req.cancel and req.view.state == "cancelled":
        # A DELETE that reached a running job takes effect later.
        req.cancelled = True
    else:
        req.error = f"job ended {req.view.state}: {req.view.error}"


def _collect(svc: Service, ctx: Context, work: "queue.Queue",
             timeout_s: float) -> None:
    """Collector thread: waits for each submitted job in order."""
    for req in iter(work.get, None):
        _await(svc, ctx, req, timeout_s)


def drive(svc: Service, ctx: Context, requests: List[Sent],
          timeout_s: float) -> List[float]:
    """Send ``requests`` at their due times (wall clock) from this thread
    while one collector thread gathers results; returns the sender's
    lateness per request.  On a one-core machine the results are
    collected after the last send instead, keeping to one thread."""
    work: "queue.Queue" = queue.Queue()
    collector = threading.Thread(
        target=_collect, args=(svc, ctx, work, timeout_s)
    )
    threaded = (os.cpu_count() or 1) >= 2
    if threaded:
        collector.start()
    lags = []
    try:
        for req in requests:
            delay = req.due - time.time()
            if delay > 0:
                time.sleep(delay)
            lags.append(max(0.0, time.time() - req.due))
            _submit(svc, req)
            work.put(req)
    finally:
        work.put(None)
        if threaded:
            collector.join()
        else:
            _collect(svc, ctx, work, timeout_s)
    return lags


def _account(out: Outcome, requests: List[Sent], phase: str) -> dict:
    """Count each request as one operation; returns the phase tally."""
    tally = {"sent": len(requests), "succeeded": 0, "refused": 0,
             "failed": 0, "cancelled": 0, "joined": 0}
    for i, req in enumerate(requests):
        problems = list(req.problems)
        if req.error:
            problems.append(req.error)
        if req.refused:
            tally["refused"] += 1
        elif problems:
            tally["failed"] += 1
        elif req.cancelled:
            tally["cancelled"] += 1
        else:
            tally["succeeded"] += 1
        tally["joined"] += req.joined
        # A refusal is a miss of the latency limit, and an error.
        out.check(problems + (["refused (429)"] if req.refused else []),
                  f"{phase} request {i}")
    return tally


def _schedule(rng: random.Random, rate: float, n: int,
              start: float) -> List[Sent]:
    t, out, deck = start, [], []
    for _ in range(n):
        if not deck:
            deck = list(SHAPE_DECK)
            rng.shuffle(deck)
        t += rng.expovariate(rate)
        spec = _grid(rng, deck.pop())
        spec.update(seed=rng.randrange(1, 10**6), machine="fdm",
                    priority=rng.choice(PRIORITIES))
        out.append(Sent(due=t, spec=spec, tenant=_tenant(rng),
                        cancel=rng.random() < CANCEL_SHARE))
    return out


def _rate_figures(requests: List[Sent], lags: List[float]) -> dict:
    measured = [r for r in requests if not r.cancelled]
    lat = [r.latency_s for r in measured]
    ok = [x for x in lat if math.isfinite(x)]
    n = len(lat)
    # Growing backlog: the last quarter waits clearly longer than the
    # first.
    q = max(1, n // 4)
    head, tail = median(lat[:q]), median(lat[-q:])
    backlog = tail > head + LATENCY_LIMIT_S / 2
    p95 = percentile(lat, 95)
    return {
        "n": n,
        "completed": len(ok),
        "p50_s": percentile(lat, 50),
        "p95_s": p95,
        "highest_supported_percentile": highest_supported_percentile(n),
        "backlog_growing": backlog,
        "meets_limit": p95 <= LATENCY_LIMIT_S and not backlog,
        "lag_p95_s": percentile(lags, 95),
    }


def _burst(svc: Service, ctx: Context, out: Outcome, tag: str) -> float:
    """Phase 1; returns the makespan, first submit to last result."""
    now = time.time()
    rng = random.Random(f"{ctx.seed}-burst")
    burst = [Sent(due=now, spec=spec, tenant=tenant)
             for tenant, spec in burst_specs(rng)]
    drive(svc, ctx, burst, timeout_s=150.0)
    tally = _account(out, burst, tag)
    out.detail[tag] = tally
    done = [r.observed for r in burst if r.view is not None]
    return (max(done) if done else time.time()) - burst[0].sent


def _ladder(svc: Service, ctx: Context, out: Outcome, rates,
            budget_s: float) -> List[tuple]:
    """Phase 3: the open loop at each rate, equal job counts per rate."""
    rng = random.Random(f"{ctx.seed}-ladder")
    n = max(MIN_JOBS_PER_RATE, int(budget_s / sum(1.0 / r for r in rates)))
    rows = []
    for rate in rates:
        reqs = _schedule(rng, rate, n, time.time() + 0.2)
        lags = drive(svc, ctx, reqs, timeout_s=60.0)
        tally = _account(out, reqs, f"rate {rate:g}")
        rows.append((dict(_rate_figures(reqs, lags), rate=rate, **tally),
                     reqs, lags))
    return rows


def _reruns(svc: Service, ctx: Context, out: Outcome, tag: str,
            untimed: int, timed: int) -> List[float]:
    """Warm jobs one at a time from one client (a closed loop, so no
    queue forms); returns the timed round trips, submit to result
    received, of the jobs after the first ``untimed``."""
    rng = random.Random(f"{ctx.seed}-{tag}")
    reqs = _schedule(rng, 1.0, untimed + timed, 0.0)
    for req in reqs:
        req.cancel = False
        req.due = time.time()
        _submit(svc, req)
        _await(svc, ctx, req, timeout_s=60.0)
    out.detail[tag] = _account(out, reqs, tag)
    return [r.observed - r.due for r in reqs[untimed:]
            if r.view is not None and r.view.state == "done"]


def _start_stop(ctx: Context, tag: str) -> float:
    """One more set-up sample: start a service, stop it at once."""
    extra = Service(ctx, tag)
    extra.stop()
    return extra.ready_s


def _job_manifests(svc: Service) -> List[dict]:
    return [json.loads(p.read_text())
            for p in sorted((svc.root / "runs").glob("*.manifest.json"))]


def _service_layers(svc: Service, metrics: dict, reqs: List[Sent],
                    lags: List[float], manifests: List[dict],
                    out: Outcome) -> dict:
    """Per-layer figures of the service, its queue and the load generator
    at the nominal rate, from job views, ``/v1/metrics``, the files the
    service wrote and the launcher's record of the stopped process."""
    counters = metrics.get("counters", {})
    fleet = metrics.get("fleet", {})
    views = {r.job_id: r for r in reqs
             if r.view is not None and r.view.state == "done"}
    queue_wait = [r.view.started_s - r.view.created_s
                  for r in views.values() if r.view.started_s]
    run = [r.view.finished_s - r.view.started_s
           for r in views.values() if r.view.started_s]
    # The HTTP legs: request in (send -> the server's created_s) plus
    # result out (finished_s -> observed by the collector).
    http = [(r.view.created_s - r.sent) + (r.observed - r.view.finished_s)
            for r in views.values() if not r.joined]
    record = svc.program.record()
    if record["missing"]:
        out.problems.append(f"spans not installed: {record['missing']}")
    protect = [end - begin for begin, end in record["protect"]]
    return {
        "service.cross_job_deduped": fleet.get("cross_job_deduped", 0),
        "service.fanout_results": fleet.get("fanout_results", 0),
        "service.queue_wait_p50_s": median(queue_wait),
        "service.run_p50_s": median(run),
        "service.http_p50_s": median(http),
        "service.coalesced_joins": counters.get("service.joined_waiters", 0),
        "service.refused": counters.get("service.jobs_rejected", 0),
        "service.out_bytes_per_job":
            dir_bytes(svc.root / "runs") / max(len(manifests), 1),
        # The service protects one model per distinct seed, memoized.
        "service.models_memo": len(protect),
        "loadgen.lag_p95_s": percentile(lags, 95),
        "setup.import_s": record["service_init"][0][0] - svc.program.t0,
        "obfuscade.protect_s": median(protect),
    }


def service_mixed(ctx: Context) -> Outcome:
    from sweeps import chain_layers, pipeline_layers

    out = Outcome()
    setup: List[float] = []
    baseline_makespan = None
    if ctx.trace:
        # An untraced twin runs the same burst first: the traced
        # makespan minus its makespan is the tracing overhead.
        twin = Service(ctx, "twin")
        setup.append(twin.ready_s)
        try:
            baseline_makespan = _burst(twin, ctx, out, "twin_burst")
        finally:
            twin.stop()
        spans_mod.install(spans_mod.CLIENT_TARGETS)
    else:
        setup.append(_start_stop(ctx, "start0"))
    svc = Service(ctx, "main", traced=ctx.trace)
    setup.append(svc.ready_s)
    # The gated samples are split between the start and the end of the
    # run, so one slow stretch of the host does not carry a whole median.
    half = RERUN_JOBS // 2
    try:
        makespan = _burst(svc, ctx, out, "burst")
        reruns = _reruns(svc, ctx, out, "reruns1", WARMUP_JOBS, half)
        rates = RATES[:1] if ctx.trace else RATES
        tail_s = 1.5 + median(reruns) * (RERUN_JOBS - half)
        if not ctx.trace:
            tail_s += setup[0] + 1.0
        rows = _ladder(svc, ctx, out, rates,
                       ctx.deadline - time.monotonic() - tail_s)
        reruns += _reruns(svc, ctx, out, "reruns2", 0, RERUN_JOBS - half)
        metrics = svc.metrics()
    finally:
        svc.stop()
    if not ctx.trace:
        setup.append(_start_stop(ctx, "start1"))
    manifests = _job_manifests(svc)
    nominal, nominal_reqs, nominal_lags = rows[0]
    layers = _service_layers(svc, metrics, nominal_reqs, nominal_lags,
                             manifests, out)
    out.metrics.update(
        setup_s=median(setup),
        sweep_wall_s=makespan,
        rerun_wall_s=median(reruns),
        peak_rss_mb=svc.program.peak_rss_bytes / MB,
    )
    out.samples.update(setup_s=len(setup), sweep_wall_s=1,
                       rerun_wall_s=len(reruns), peak_rss_mb=1)
    ok_rates = [row["rate"] for row, _, _ in rows if row["meets_limit"]]
    out.extra.update(
        burst_makespan_s=(makespan, "s", 1),
        job_latency_p50_s=(nominal["p50_s"], "s", nominal["n"]),
        job_latency_p95_s=(nominal["p95_s"], "s", nominal["n"]),
        max_ok_rate_jobs_per_s=(max(ok_rates) if ok_rates else 0.0,
                                "jobs/s", None),
        disk_mb=(dir_bytes(svc.root) / MB, "MB", 1),
    )
    out.detail.update(
        ladder=[row for row, _, _ in rows],
        latency_limit_s=LATENCY_LIMIT_S,
        setup_samples_s=setup,
    )
    if ctx.trace:
        server_spans = spans_mod.load(svc.trace_dir)
        summary = spans_mod.summarize(server_spans)
        client = spans_mod.summarize(spans_mod.collected())
        layers.update(chain_layers(summary))
        layers.update(pipeline_layers(
            manifests, dir_bytes(svc.root / "cache")
        ))
        layers["trace.overhead_s"] = makespan - baseline_makespan
        out.metrics.update(layers)
        out.detail["span_summary"] = dict(summary, **client)
    return out
