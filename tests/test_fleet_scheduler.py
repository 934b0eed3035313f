"""The concurrent cross-job fleet scheduler (ISSUE 10 tentpole).

The acceptance contract: jobs admitted concurrently into one
:class:`~repro.pipeline.FleetScheduler` merge their execution graphs
at ``(stage, content digest)`` granularity - shared nodes execute
exactly once fleet-wide (proved by the ``cross_job_deduped`` /
``fanout_results`` counters, not cache-hit luck) - while every job's
outcome fingerprints stay bit-identical to running that job alone
serially.  Cancellation releases only the nodes no surviving job
claims, and priorities order the fleet so an urgent job admitted
alongside a patient one finishes first.
"""

import pytest

from repro.cad import COARSE, StlResolution
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import (
    FleetJob,
    FleetScheduler,
    ParallelSweep,
    PipelineConfigError,
    ProcessChain,
)
from repro.pipeline.scheduler import ChainConfig
from repro.printer.orientation import PrintOrientation

XY, XZ, YZ = (
    PrintOrientation.XY, PrintOrientation.XZ, PrintOrientation.YZ,
)
MID = StlResolution(name="Mid", angle_deg=20.0, deviation_fraction=0.0012)

#: Overlapping grids: both jobs need the coarse/x-y cell, so coarse
#: tessellate + resolve (and the whole shared cell's chain) collide.
GRID_A = [(COARSE, XY), (COARSE, XZ)]
GRID_B = [(COARSE, XY), (COARSE, YZ)]


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def config():
    chain = ProcessChain()
    return ChainConfig(
        machine=chain.machine,
        settings=chain.base_settings,
        raster_cell_mm=chain.simulator.raster_cell_mm,
        plate_margin_mm=chain.plate_margin_mm,
    )


def _serial_fingerprints(protected, grid, cache_dir):
    """Baseline: the grid run alone, serially, on its own cold cache."""
    report = ParallelSweep(jobs=1, cache_dir=str(cache_dir)).run(
        protected.model,
        list(dict.fromkeys(r for r, _ in grid)),
        list(dict.fromkeys(o for _, o in grid)),
        assess=assess_print,
    )
    wanted = {(r.name, o.value) for r, o in grid}
    return {
        (c.resolution, c.orientation): c.fingerprint
        for c in report.cells
        if (c.resolution, c.orientation) in wanted
    }


def _fingerprints(job):
    return {
        (c.resolution, c.orientation): c.fingerprint
        for c in job.report.cells
    }


@pytest.fixture(scope="module")
def merged(protected, config, tmp_path_factory):
    """Two overlapping jobs admitted together, run to completion."""
    root = tmp_path_factory.mktemp("fleet-merged")
    fleet = FleetScheduler(cache_dir=root / "cache", jobs=1)
    completed = []
    job_a = FleetJob("job-a", protected.model, GRID_A, config,
                     assess=assess_print,
                     on_complete=lambda j: completed.append(j.job_id))
    job_b = FleetJob("job-b", protected.model, GRID_B, config,
                     assess=assess_print,
                     on_complete=lambda j: completed.append(j.job_id))
    fleet.admit(job_a)
    fleet.admit(job_b)
    fleet.run_until_idle()
    baselines = {
        "job-a": _serial_fingerprints(protected, GRID_A,
                                      root / "baseline-a"),
        "job-b": _serial_fingerprints(protected, GRID_B,
                                      root / "baseline-b"),
    }
    return {
        "fleet": fleet, "a": job_a, "b": job_b,
        "completed": completed, "baselines": baselines,
    }


class TestCrossJobMerging:
    def test_both_jobs_complete(self, merged):
        assert sorted(merged["completed"]) == ["job-a", "job-b"]
        assert merged["a"].report is not None and merged["a"].report.ok
        assert merged["b"].report is not None and merged["b"].report.ok

    def test_shared_nodes_execute_once_fleet_wide(self, merged):
        """Both jobs use one coarse tessellation; the fleet runs it
        once, attributed to exactly one job."""
        for stage in ("tessellate", "resolve"):
            executed = (
                merged["a"].counters.stage(stage).executed
                + merged["b"].counters.stage(stage).executed
            )
            assert executed == 1, f"{stage} executed {executed}x fleet-wide"

    def test_cross_job_dedupe_counters(self, merged):
        """The later-admitted job folds its shared cell onto job-a's
        nodes; the counters prove it (the ISSUE 10 acceptance gate)."""
        a, b = merged["a"].counters, merged["b"].counters
        assert a.cross_job_deduped == 0  # creator saw no other job yet
        assert b.cross_job_deduped >= 1
        assert b.fanout_results >= 1  # results delivered, not re-run
        # Dedupe is exact: every one of b's stage requests either
        # scheduled a new node or folded onto an existing one.
        totals = [c for c in b.stages.values()]
        assert all(
            c.requested == c.scheduled + c.deduped for c in totals
        )

    def test_fingerprints_bit_identical_to_serial_runs(self, merged):
        """Cross-job sharing is an execution plan, not a result change:
        each job's fingerprints match its own solo serial run."""
        assert _fingerprints(merged["a"]) == merged["baselines"]["job-a"]
        assert _fingerprints(merged["b"]) == merged["baselines"]["job-b"]

    def test_shared_cell_stage_log_is_free_for_consumer(self, merged):
        """The job that did NOT execute a shared node records it as a
        free hit - per-job accounting splits from shared execution."""
        a, b = merged["a"], merged["b"]
        # The shared coarse/x-y cell is index 0 in both grids.
        log_a = {e.name: e for e in a.report.cells[0].stage_log}
        log_b = {e.name: e for e in b.report.cells[0].stage_log}
        assert log_a["tessellate"].digest == log_b["tessellate"].digest
        consumers = [
            log for log in (log_a, log_b)
            if log["tessellate"].cache_hit
            and log["tessellate"].seconds == 0.0
        ]
        assert len(consumers) >= 1

    def test_rejects_duplicate_admission_and_empty_grid(
        self, merged, protected, config
    ):
        with pytest.raises(PipelineConfigError):
            FleetJob("job-x", protected.model, [], config)
        fleet = merged["fleet"]
        job = FleetJob("job-c", protected.model, GRID_A, config)
        fleet.admit(job)
        with pytest.raises(PipelineConfigError):
            fleet.admit(job)
        assert fleet.cancel("job-c")


class TestAbort:
    def test_keep_going_false_completes_the_victim_job(
        self, protected, config, tmp_path
    ):
        """A failed cell under keep_going=False cancels the job's other
        cells and completes the job with the error; the job must not
        stay admitted with nothing left to run."""
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        faults.install(FaultPlan((
            FaultSpec("stage.tessellate.output", "nan-vertices", times=1),
        )))
        try:
            fleet = FleetScheduler(cache_dir=tmp_path, keep_going=False)
            job = fleet.admit(
                FleetJob("abort", protected.model, GRID_A, config)
            )
            for _ in range(100):  # bounded: a stuck fleet must fail
                if not fleet.has_work():
                    break
                fleet.step()
        finally:
            faults.uninstall()
        assert not fleet.has_work()
        assert job.report is not None and job.report.cells == []
        assert [e.stage for e in job.report.errors] == ["tessellate"]


class TestCancellation:
    def test_cancel_while_queued_releases_unshared_nodes(
        self, protected, config, tmp_path
    ):
        """Cancelling before any execution: nodes only the doomed job
        claims are released (and counted); shared nodes survive and
        the surviving job's results are untouched."""
        fleet = FleetScheduler(cache_dir=tmp_path / "cache", jobs=1)
        done = []
        survivor = FleetJob("survivor", protected.model, GRID_A, config,
                            assess=assess_print,
                            on_complete=lambda j: done.append(j.job_id))
        doomed = FleetJob("doomed", protected.model, GRID_B, config,
                          assess=assess_print,
                          on_complete=lambda j: done.append(j.job_id))
        fleet.admit(survivor)
        fleet.admit(doomed)
        assert fleet.cancel("doomed") is True
        assert done == ["doomed"]
        assert doomed.cancelled and doomed.report is None
        # The coarse/y-z chain was doomed-only: released unexecuted.
        assert doomed.counters.cancelled_nodes >= 1
        fleet.run_until_idle()
        assert done == ["doomed", "survivor"]
        assert survivor.report.ok
        assert _fingerprints(survivor) == _serial_fingerprints(
            protected, GRID_A, tmp_path / "baseline"
        )
        # Unknown / already-finished jobs are not cancellable.
        assert fleet.cancel("doomed") is False
        assert fleet.cancel("survivor") is False

    def test_cancel_midway_keeps_survivor_exact(
        self, protected, config, tmp_path
    ):
        """Cancelling after execution started: work already done
        (possibly attributed to the doomed job) still serves the
        survivors, and their fingerprints stay serial-identical."""
        fleet = FleetScheduler(cache_dir=tmp_path / "cache", jobs=1)
        survivor = FleetJob("survivor", protected.model, GRID_A, config,
                            assess=assess_print)
        doomed = FleetJob("doomed", protected.model, GRID_B, config,
                          assess=assess_print)
        fleet.admit(doomed)   # admitted first: executes the shared nodes
        fleet.admit(survivor)
        # Let a few nodes (the shared tessellate among them) execute.
        for _ in range(3):
            assert fleet.step()
        assert fleet.cancel("doomed") is True
        fleet.run_until_idle()
        assert survivor.report is not None and survivor.report.ok
        assert _fingerprints(survivor) == _serial_fingerprints(
            protected, GRID_A, tmp_path / "baseline"
        )


class TestPriorities:
    def test_urgent_job_overtakes_patient_backlog(
        self, protected, config, tmp_path
    ):
        """Priority inversion check: a high-priority job admitted
        *after* a low-priority one finishes first - ready nodes rank
        by the most urgent claiming job."""
        fleet = FleetScheduler(cache_dir=tmp_path / "cache", jobs=1)
        order = []
        patient = FleetJob(
            "patient", protected.model, [(COARSE, XY), (COARSE, XZ)],
            config, assess=assess_print, priority=8,
            on_complete=lambda j: order.append(j.job_id),
        )
        urgent = FleetJob(
            "urgent", protected.model, [(MID, YZ)],
            config, assess=assess_print, priority=1,
            on_complete=lambda j: order.append(j.job_id),
        )
        fleet.admit(patient)
        fleet.admit(urgent)  # later arrival, higher urgency
        fleet.run_until_idle()
        assert order == ["urgent", "patient"]
        assert urgent.report.ok and patient.report.ok
