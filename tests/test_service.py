"""Tests for the multi-tenant obfuscation job service.

Three tiers:

* pure-unit: :class:`JobSpec` validation, :class:`JobQueue` admission /
  fairness, :class:`WorkerPool` lifecycle - no sweeps run;
* admission-over-HTTP against a service whose dispatcher never starts
  (structured 400/429, never a hang);
* real end-to-end runs: one module-scoped flow where three identical
  submissions become three jobs next to a distinct one, and a
  two-tenant cancel; results/manifests/metrics are checked against a
  direct in-process sweep of the same grid.
"""

import http.client
import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from urllib.error import HTTPError
from urllib.parse import urlparse
from urllib.request import Request, urlopen

import pytest

from repro.pipeline import WorkerPool
from repro.service import (
    Job,
    JobQueue,
    JobRejected,
    JobSpec,
    JobState,
    JobValidationError,
    ObfuscadeService,
    ServiceServer,
)
from repro.service.http import MAX_BODY_BYTES

REPO = Path(__file__).resolve().parents[1]


def _http(method, url, payload=None, tenant=None, timeout=180):
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tenant"] = tenant
    data = json.dumps(payload).encode() if payload is not None else None
    req = Request(url, data=data, headers=headers, method=method)
    try:
        with urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec.from_request({})
        assert spec.seed == 7
        assert spec.resolutions == ("coarse", "fine", "custom")
        assert spec.machine == "fdm"

    def test_comma_strings_and_dedup(self):
        spec = JobSpec.from_request(
            {"resolutions": "coarse, fine, coarse", "orientations": ["x-y"]}
        )
        assert spec.resolutions == ("coarse", "fine")
        assert spec.orientations == ("x-y",)

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {"seed": "seven"},
        {"seed": True},  # bool is not an acceptable integer
        {"machine": "sls"},
        {"resolutions": []},
        {"resolutions": ["ultra"]},
        {"orientations": [42]},
        {"unexpected": 1},
    ])
    def test_bad_requests_rejected(self, payload):
        with pytest.raises(JobValidationError):
            JobSpec.from_request(payload)


def _job(jid, tenant="t"):
    return Job(jid, JobSpec(), tenant)


class TestJobQueue:
    def test_submit_queues_and_returns_the_job(self):
        q = JobQueue(max_depth=4)
        job = _job("j1")
        assert q.submit(job) is job
        assert job.state is JobState.QUEUED and q.depth() == 1

    def test_queue_full_is_structured(self):
        q = JobQueue(max_depth=2)
        q.submit(_job("j1"))
        q.submit(_job("j2"))
        with pytest.raises(JobRejected) as exc:
            q.submit(_job("j3"))
        doc = exc.value.to_dict()
        assert doc["code"] == "queue_full"
        assert doc["queue_depth"] == 2 and doc["max_depth"] == 2
        assert q.rejected == 1

    def test_identical_jobs_are_rejected_at_capacity(self):
        """Identical specs are separate jobs: they fill the queue and
        the tenant quota like any other and get the structured 429."""
        q = JobQueue(max_depth=2)
        q.submit(_job("j1", tenant="alice"))
        q.submit(_job("j2", tenant="bob"))
        with pytest.raises(JobRejected) as exc:
            q.submit(_job("j3", tenant="carol"))
        assert exc.value.code == "queue_full" and q.depth() == 2
        quota = JobQueue(max_depth=8, max_tenant_queued=1)
        quota.submit(_job("a1", tenant="alice"))
        with pytest.raises(JobRejected) as exc:
            quota.submit(_job("a2", tenant="alice"))
        assert exc.value.code == "tenant_quota" and quota.depth() == 1

    def test_tenant_quota(self):
        q = JobQueue(max_depth=8, max_tenant_queued=1)
        q.submit(_job("a1", tenant="alice"))
        with pytest.raises(JobRejected) as exc:
            q.submit(_job("a2", tenant="alice"))
        assert exc.value.code == "tenant_quota"
        assert exc.value.to_dict()["tenant"] == "alice"
        q.submit(_job("b1", tenant="bob"))  # other tenants unaffected

    def test_round_robin_fairness(self):
        q = JobQueue(max_depth=8)
        for jid, tenant in [("a1", "alice"), ("a2", "alice"),
                            ("a3", "alice"), ("b1", "bob")]:
            q.submit(_job(jid, tenant=tenant))
        order = [q.take(timeout=1).job_id for _ in range(4)]
        # One job per tenant per turn: bob's single job is not starved
        # behind alice's backlog.
        assert order == ["a1", "b1", "a2", "a3"]

    def test_take_marks_running_and_times_out(self):
        q = JobQueue(max_depth=2)
        q.submit(_job("j1"))
        job = q.take(timeout=1)
        assert job.state is JobState.RUNNING
        assert job.started_s is not None
        assert q.take(timeout=0.05) is None

    def test_take_wakes_on_submit(self):
        q = JobQueue(max_depth=2)
        got = []
        taker = threading.Thread(target=lambda: got.append(q.take(timeout=5)))
        taker.start()
        time.sleep(0.1)
        q.submit(_job("j1"))
        taker.join(timeout=5)
        assert got and got[0].job_id == "j1"


class TestWorkerPool:
    def test_lifecycle(self):
        pool = WorkerPool(2)
        first = pool.get()
        assert pool.get() is first  # one executor, many leases
        assert pool.leases == 2 and pool.rebuilds == 0
        replacement = pool.rebuild()
        assert replacement is not first and pool.rebuilds == 1
        pool.shutdown()
        revived = pool.get()  # shutdown is not the end of the handle
        assert revived is not replacement
        pool.shutdown()
        pool.shutdown()  # idempotent

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


@pytest.fixture
def make_admission(tmp_path):
    """Factory for services whose dispatcher never starts: admission
    control (and its HTTP mapping) in isolation, no sweeps run."""
    built = []

    def build(**kwargs):
        service = ObfuscadeService(cache_dir=tmp_path / "cache", **kwargs)
        server = ServiceServer(service, port=0)
        server.start()
        built.append((service, server))
        return SimpleNamespace(service=service, server=server, url=server.url)

    yield build
    for service, server in built:
        server.stop()
        service.stop()


def _raw_post(url, content_length, body=b"", tenant=None):
    """POST /v1/jobs with hand-set Content-Length (and X-Tenant) headers
    over a raw connection; a server that blocks on the body trips the
    timeout."""
    parts = urlparse(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        if tenant is not None:
            conn.putheader("X-Tenant", tenant)
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture
def admission(make_admission):
    return make_admission(queue_depth=2)


class TestAdmissionOverHttp:
    def test_fill_then_429_for_distinct_and_identical(self, admission):
        base = {"seed": 7, "resolutions": ["coarse"]}
        code, first = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="alice",
        )
        assert code == 202 and "joined" not in first
        code, _ = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-z"]}, tenant="bob",
        )
        assert code == 202
        # Depth 2 reached: a third distinct job gets a structured 429...
        code, doc = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y", "x-z"]}, tenant="carol",
        )
        assert code == 429
        assert doc["error"]["code"] == "queue_full"
        detail = doc["error"]["detail"]
        assert detail["queue_depth"] == 2 and detail["max_depth"] == 2
        # ...and so does an identical resubmission: it is a new job.
        code, doc = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="carol",
        )
        assert code == 429 and doc["error"]["code"] == "queue_full"

    def test_tenant_quota_429(self, make_admission):
        quota = make_admission(queue_depth=8, max_tenant_queued=1)
        base = {"seed": 7, "resolutions": ["coarse"]}
        code, _ = _http(
            "POST", quota.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="alice",
        )
        assert code == 202
        code, doc = _http(
            "POST", quota.url + "/v1/jobs",
            {**base, "orientations": ["x-z"]}, tenant="alice",
        )
        assert code == 429 and doc["error"]["code"] == "tenant_quota"
        # Other tenants are unaffected by alice's quota.
        code, _ = _http(
            "POST", quota.url + "/v1/jobs",
            {**base, "orientations": ["x-z"]}, tenant="bob",
        )
        assert code == 202

    @pytest.mark.parametrize("payload", [
        {"seed": "seven"},
        {"machine": "sls"},
        {"unexpected": True},
    ])
    def test_validation_maps_to_400(self, admission, payload):
        code, doc = _http("POST", admission.url + "/v1/jobs", payload)
        assert code == 400 and doc["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_bad_content_length_is_400(self, admission, length):
        code, doc = _raw_post(admission.url, length, b"{}")
        assert code == 400 and doc["error"]["code"] == "invalid_request"
        assert doc["error"]["detail"]["content_length"] == length
        assert admission.service.queue.snapshot()["queued"] == 0

    def test_oversized_body_is_413_unread(self, admission):
        code, doc = _raw_post(admission.url, str(MAX_BODY_BYTES + 1), b"{}")
        assert code == 413 and doc["error"]["code"] == "payload_too_large"
        assert doc["error"]["detail"] == {
            "content_length": MAX_BODY_BYTES + 1,
            "max_bytes": MAX_BODY_BYTES,
        }
        assert admission.service.queue.snapshot()["queued"] == 0

    @pytest.mark.parametrize("tenant", [
        "a.b",  # '.' would nest inside metric names
        "x" * 65,
        "alice bob",
        "tenant/../x",
        "\u00e9t\u00e9",
    ])
    def test_malformed_tenant_is_400_before_queueing(self, admission,
                                                     tenant):
        code, doc = _raw_post(admission.url, "2", b"{}", tenant=tenant)
        assert code == 400 and doc["error"]["code"] == "invalid_request"
        assert "X-Tenant" in doc["error"]["message"]
        snap = admission.service.queue.snapshot()
        assert snap["queued"] == 0 and snap["submitted"] == 0
        assert snap["tenants"] == {} and snap["served"] == {}

    def test_tenant_names_in_use_are_accepted(self, make_admission):
        """Every tenant name the tests, scripts and benchmark send is
        accepted; a missing or empty header means ``anon``."""
        names = ["anon", "alice", "bob", "carol", "dave", "slow", "doomed",
                 "straggler", "waiter", "tenant-0", "tenant-7",
                 "distinct-1", "gold", "silver", "bronze", "t", "A_b-9",
                 "x" * 64]
        cases = [(name, name) for name in names] + [(None, "anon"),
                                                    ("", "anon")]
        service = make_admission(queue_depth=len(cases))
        for header, tenant in cases:
            code, doc = _raw_post(service.url, "2", b"{}", tenant=header)
            assert code == 202 and doc["tenant"] == tenant

    def test_unknown_routes_404(self, admission):
        assert _http("GET", admission.url + "/v1/jobs/job-99999")[0] == 404
        assert _http("GET", admission.url + "/nope")[0] == 404
        assert _http("POST", admission.url + "/nope", {})[0] == 404

    def test_healthz_reports_queue_state(self, admission):
        admission.service.submit(
            {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}
        )
        code, doc = _http("GET", admission.url + "/v1/healthz")
        assert code == 200 and doc["status"] == "ok"
        assert doc["dispatcher"] == "stopped"
        assert doc["queue"]["queued"] == 1




GRID = {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}


@pytest.fixture(scope="module")
def direct_fingerprints(tmp_path_factory):
    """GRID run by a serial in-process simulator on a cold cache: the
    fingerprints every service job of GRID must reproduce bit for bit."""
    from repro.obfuscade.attack import CounterfeiterSimulator
    from repro.obfuscade.obfuscator import Obfuscator
    from repro.pipeline import ProcessChain
    from repro.service.jobs import MACHINES, ORIENTATIONS, RESOLUTIONS

    sim = CounterfeiterSimulator(
        resolutions=[RESOLUTIONS["coarse"]],
        orientations=[ORIENTATIONS["x-y"]],
        chain=ProcessChain(machine=MACHINES["fdm"]),
        cache_dir=str(tmp_path_factory.mktemp("direct-cache")),
    )
    result = sim.attack(Obfuscator(seed=7).protect_tensile_bar())
    return {
        f"{c.resolution}/{c.orientation}": c.fingerprint
        for c in result.report.cells
    }


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """The end-to-end flow; every test below reads from it."""
    root = tmp_path_factory.mktemp("svc-flow")
    service = ObfuscadeService(cache_dir=root / "cache", queue_depth=8)
    server = ServiceServer(service, port=0)
    server.start()
    service.start(paused=True)  # queue every job before any runs

    shared = service.submit(dict(GRID), tenant="alice")
    twin = service.submit(dict(GRID), tenant="bob")
    code, http_doc = _http(
        "POST", server.url + "/v1/jobs", GRID, tenant="carol"
    )
    distinct = service.submit(
        {**GRID, "orientations": ["x-z"]}, tenant="alice"
    )
    service.resume()
    over_http = service.get(http_doc.get("job_id"))
    for job in (shared, twin, over_http, distinct):
        assert job is not None and job.wait(timeout=600)
    yield SimpleNamespace(
        service=service,
        url=server.url,
        shared=shared,
        twins=(twin, over_http),
        distinct=distinct,
        http_code=code,
        root=root,
    )
    server.stop()
    service.stop()


class TestEndToEnd:
    def test_identical_submissions_are_separate_jobs(self, flow):
        assert flow.http_code == 202
        identical = (flow.shared,) + flow.twins
        assert len({j.job_id for j in identical}) == 3
        assert [j.tenant for j in identical] == ["alice", "bob", "carol"]
        assert flow.service.queue.submitted == 4

    def test_jobs_complete_with_distinct_results(self, flow):
        assert flow.shared.state is JobState.DONE
        assert flow.distinct.state is JobState.DONE
        fp_shared = flow.shared.result["fingerprints"]
        fp_distinct = flow.distinct.result["fingerprints"]
        assert len(fp_shared) == 1 and len(fp_distinct) == 1
        assert set(fp_shared) != set(fp_distinct)

    def test_fingerprints_match_direct_sweep(self, flow, direct_fingerprints):
        """The service is an execution plan, not a different pipeline:
        every identical job - the first cold, the others warm from the
        shared disk tier - matches a direct simulator run bit for bit."""
        for job in (flow.shared,) + flow.twins:
            assert job.state is JobState.DONE
            assert job.result["fingerprints"] == direct_fingerprints

    def test_manifest_records_service_provenance(self, flow):
        from repro.observability import manifest as manifest_mod

        for job in (flow.shared,) + flow.twins:
            doc = manifest_mod.read_manifest(job.result["manifest"])
            assert manifest_mod.validate_manifest(doc) == []
            assert doc["config"]["command"] == "serve"
            service_block = doc["service"]
            assert service_block["job_id"] == job.job_id
            assert service_block["tenant"] == job.tenant

    def test_artifact_checker_passes_on_service_output(self, flow):
        sys.path.insert(0, str(REPO / "scripts"))
        try:
            import check_run_artifacts
        finally:
            sys.path.pop(0)
        problems = check_run_artifacts.check(
            flow.shared.result["trace"],
            flow.shared.result["manifest"],
            jobs=1,
        )
        assert problems == []

    def test_status_and_result_endpoints(self, flow):
        code, doc = _http(
            "GET", flow.url + f"/v1/jobs/{flow.shared.job_id}"
        )
        assert code == 200 and doc["state"] == "done"
        code, doc = _http(
            "GET", flow.url + f"/v1/jobs/{flow.shared.job_id}/result?wait=5"
        )
        assert code == 200
        assert doc["result"]["fingerprints"]
        assert doc["result"]["cells_failed"] == 0

    def test_metrics_expose_service_counters(self, flow):
        code, doc = _http("GET", flow.url + "/v1/metrics")
        assert code == 200
        counters = doc["counters"]
        assert counters["service.jobs_submitted"] >= 4
        assert counters["service.jobs_done"] >= 4
        assert doc["queue"]["submitted"] >= 4

    def test_resubmit_after_completion_reexecutes_warm(self, flow):
        """An identical late submission runs fresh on the warm cache
        and reproduces the same fingerprints."""
        job = flow.service.submit(dict(GRID), tenant="dave")
        assert job is not flow.shared
        assert job.wait(timeout=600)
        assert job.state is JobState.DONE
        assert job.result["fingerprints"] == flow.shared.result["fingerprints"]


def test_cancel_by_one_tenant_leaves_identical_job_of_another(
        tmp_path, direct_fingerprints):
    """Alice and bob submit the same grid; bob DELETEs its own job.
    Bob's job is cancelled and stays bob's; alice's job still runs to a
    result bit-identical to a serial run."""
    service = ObfuscadeService(cache_dir=tmp_path / "cache", queue_depth=4)
    server = ServiceServer(service, port=0)
    server.start()
    service.start(paused=True)
    try:
        code, alice = _http("POST", server.url + "/v1/jobs", GRID,
                            tenant="alice")
        assert code == 202
        code, bob = _http("POST", server.url + "/v1/jobs", GRID,
                          tenant="bob")
        assert code == 202
        code, view = _http("DELETE", server.url + f"/v1/jobs/{bob['job_id']}",
                           tenant="bob")
        assert code == 200 and view["state"] == "cancelled"
        code, view = _http("GET", server.url + f"/v1/jobs/{bob['job_id']}",
                           tenant="bob")
        assert code == 200 and view["tenant"] == "bob"
        service.resume()
        assert service.get(alice["job_id"]).wait(timeout=600)
        code, view = _http(
            "GET", server.url + f"/v1/jobs/{alice['job_id']}/result",
            tenant="alice",
        )
        assert code == 200 and view["state"] == "done"
        assert view["tenant"] == "alice"
        assert view["result"]["fingerprints"] == direct_fingerprints
    finally:
        server.stop()
        service.stop()
