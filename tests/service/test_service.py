"""CampaignService end-to-end: co-scheduling acceptance, bit-identical
physics, preemption/resume, admission rejection, handles, and the
ExecutionPlan.execute() sync shim.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.api import PROPAGATORS
from repro.batch import BatchRunner, SweepSpec
from repro.campaign import Budget, CampaignSpec, ExecutionPlan, InfeasibleBudgetError, plan
from repro.service import CampaignService, NodePool
from repro.store import ResultStore


def run(coro):
    """Drive one async test body (the suite avoids an asyncio pytest plugin)."""
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Acceptance: two campaigns co-schedule on a shared pool
# ---------------------------------------------------------------------------


class TestCoScheduling:
    def test_two_campaigns_beat_serial_makespan_with_identical_physics(
        self, cutoff_campaign, dt_campaign
    ):
        """The PR's acceptance criterion: two campaigns with disjoint sweeps
        over one shared NodePool finish in strictly less modeled makespan
        than running the same plans serially, with bit-identical physics."""
        pool = NodePool("summit", n_nodes=2)
        service = CampaignService(pool)

        async def body():
            a = service.submit(cutoff_campaign, name="tenant-a")
            b = service.submit(dt_campaign, name="tenant-b")
            return await asyncio.gather(a.report(), b.report()), (a, b)

        (report_a, report_b), (handle_a, handle_b) = run(body())

        # each campaign needs one node, the pool has two: they ran side by side
        serial_sum = (
            handle_a.plan.predicted_wall_seconds + handle_b.plan.predicted_wall_seconds
        )
        co_scheduled = pool.makespan()
        assert co_scheduled < serial_sum
        assert co_scheduled == pytest.approx(
            max(
                handle_a.plan.predicted_wall_seconds,
                handle_b.plan.predicted_wall_seconds,
            )
        )
        tenants = {lease.tenant.split("/")[0] for lease in pool.history}
        assert tenants == {"tenant-a", "tenant-b"}

        # physics: bit-identical to a hand-configured BatchRunner per sweep
        assert report_a.ok and report_b.ok
        for campaign, report in [(cutoff_campaign, report_a), (dt_campaign, report_b)]:
            for name, spec in campaign.sweeps.items():
                hand = BatchRunner(spec).run()
                assert report[name].to_json(exclude_timings=True) == hand.to_json(
                    exclude_timings=True
                )
                for ours, theirs in zip(report[name], hand):
                    assert ours.job_id == theirs.job_id
                    np.testing.assert_array_equal(
                        ours.trajectory.energies, theirs.trajectory.energies
                    )

    def test_service_execution_matches_the_blocking_path(self, dt_campaign):
        """One campaign through the service == the same plan through
        ExecutionPlan.execute(), export for export."""
        execution_plan = plan(dt_campaign, machines=["summit"])
        serial_report = execution_plan.execute()

        service = CampaignService(NodePool("summit", n_nodes=1))

        async def body():
            return await service.submit(execution_plan).report()

        service_report = run(body())
        for name in serial_report.sweep_names:
            assert service_report[name].to_json(exclude_timings=True) == serial_report[
                name
            ].to_json(exclude_timings=True)


# ---------------------------------------------------------------------------
# Priorities: preemption at group boundaries, checkpointed resume
# ---------------------------------------------------------------------------


class TestPreemption:
    def test_high_priority_arrival_preempts_and_both_finish_clean(
        self, cutoff_campaign, dt_campaign
    ):
        pool = NodePool("summit", n_nodes=1)
        service = CampaignService(pool)

        async def body():
            low = service.submit(cutoff_campaign, priority=0, name="low")
            await asyncio.sleep(0)  # let the low campaign take the pool's node
            high = service.submit(dt_campaign, priority=5, name="high")
            return await asyncio.gather(low.report(), high.report()), (low, high)

        (low_report, high_report), (low, high) = run(body())

        # the low campaign really gave its lease up at a group boundary...
        progress = low.progress()
        assert progress["preemptions"] >= 1
        assert progress["sweeps"]["cutoff"]["preemptions"] >= 1
        tenants = [lease.tenant for lease in pool.history]
        assert tenants.count("low") >= 2  # split across >= 2 leases
        assert "high" in tenants
        # ...and the high-priority lease sits between the low segments
        first_low = next(lease for lease in pool.history if lease.tenant == "low")
        high_lease = next(lease for lease in pool.history if lease.tenant == "high")
        assert high_lease.start >= first_low.end

        # both campaigns finished with full, bit-identical physics
        assert low_report.ok and high_report.ok
        for campaign, report in [(cutoff_campaign, low_report), (dt_campaign, high_report)]:
            for name, spec in campaign.sweeps.items():
                hand = BatchRunner(spec).run()
                assert report[name].to_json(exclude_timings=True) == hand.to_json(
                    exclude_timings=True
                )

    def test_preempted_sweep_resumes_from_checkpoints(
        self, cutoff_campaign, dt_campaign, tmp_path, count_scf_solves
    ):
        """Preemption must never redo finished work: 4 cutoff groups + 1 dt
        group converge exactly 5 SCFs however the leases interleave."""
        service = CampaignService(NodePool("summit", n_nodes=1))
        stores = {name: ResultStore(tmp_path / name) for name in ("low", "high")}

        async def body():
            low = service.submit(cutoff_campaign, priority=0, name="low", store=stores["low"])
            await asyncio.sleep(0)
            high = service.submit(dt_campaign, priority=5, name="high", store=stores["high"])
            return await asyncio.gather(low.report(), high.report())

        run(body())
        assert len(count_scf_solves) == 5
        for name, campaign in (("low", cutoff_campaign), ("high", dt_campaign)):
            for spec in campaign.sweeps.values():
                assert all(stores[name].has(job) for job in spec.expand())


# ---------------------------------------------------------------------------
# Admission: infeasible campaigns are rejected before anything runs
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_infeasible_budget_is_rejected_synchronously(self, dt_campaign):
        service = CampaignService(NodePool("summit", n_nodes=1))

        async def body():
            with pytest.raises(InfeasibleBudgetError) as excinfo:
                # every candidate occupies 8 whole nodes: can never fit 1
                service.submit(dt_campaign, rank_options=(8,), gpus_per_group_options=(6,))
            return excinfo.value

        error = run(body())
        assert error.binding == "max_nodes"
        assert service.handles == []  # nothing was enqueued

    def test_preplanned_campaign_is_checked_against_the_pool(self, dt_campaign):
        big_plan = plan(dt_campaign.with_budget(Budget()), rank_options=(8,),
                        gpus_per_group_options=(6,), machines=["summit"])
        service = CampaignService(NodePool("summit", n_nodes=2))

        async def body():
            with pytest.raises(InfeasibleBudgetError, match="grow the pool"):
                service.submit(big_plan)

        run(body())

    def test_plan_for_another_machine_is_rejected(self, dt_campaign):
        frontier_plan = plan(dt_campaign, machines=["frontier"])
        service = CampaignService(NodePool("summit", n_nodes=2))

        async def body():
            with pytest.raises(ValueError, match="models 'summit'"):
                service.submit(frontier_plan)

        run(body())

    def test_budget_with_a_preplanned_campaign_is_rejected(self, dt_campaign):
        execution_plan = plan(dt_campaign)
        service = CampaignService(NodePool("summit", n_nodes=2))

        async def body():
            with pytest.raises(ValueError, match="already planned"):
                service.submit(execution_plan, Budget(max_ranks=2))

        run(body())

    def test_submit_requires_a_running_event_loop(self, dt_campaign):
        service = CampaignService(NodePool("summit", n_nodes=1))
        with pytest.raises(RuntimeError):
            service.submit(dt_campaign)


# ---------------------------------------------------------------------------
# Handles: status, streaming progress, partial reports, cancellation
# ---------------------------------------------------------------------------


class TestHandle:
    def test_status_progress_and_partial_report_stream_mid_flight(self, cutoff_campaign):
        service = CampaignService(NodePool("summit", n_nodes=1))
        seen = []

        async def body():
            handle = service.submit(
                cutoff_campaign, on_sweep_complete=lambda name, report: seen.append(name)
            )
            assert handle.status() == "queued"
            partial = handle.partial_report()
            assert partial.pending_sweeps == ["cutoff"] and not partial.complete
            assert "partial: 0 of 1" in partial.plan_table()
            json.dumps(handle.progress())  # the snapshot is JSON-able

            report = await handle.report()
            assert handle.status() == "done" and handle.done()
            progress = handle.progress()
            assert progress["sweeps"]["cutoff"]["state"] == "done"
            assert progress["jobs_done"] == progress["n_jobs"] == 4
            assert progress["sweeps"]["cutoff"]["groups_done"] == 4
            assert handle.partial_report().complete
            return report

        report = run(body())
        assert seen == ["cutoff"]
        assert report.ok
        # the service stamped modeled pool accounting into the execution record
        execution = report["cutoff"].execution
        assert execution["backend"] == "service"
        assert execution["pool"]["n_nodes"] == 1
        assert execution["modeled_end"] > execution["modeled_start"] >= 0.0
        assert len(execution["leases"]) >= 1

    def test_cancelled_campaign_keeps_finished_sweeps(self, cutoff_campaign, dt_campaign, tiny_config):
        service = CampaignService(NodePool("summit", n_nodes=1))
        campaign = CampaignSpec(
            dict(cutoff_campaign.sweeps, **dt_campaign.sweeps), budget=Budget(max_nodes=1)
        )

        async def body():
            handle = service.submit(
                campaign,
                on_sweep_complete=lambda name, report: handle.cancel(),  # after sweep 1
            )
            with pytest.raises(asyncio.CancelledError):
                await handle.report()
            return handle

        handle = run(body())
        assert handle.status() == "cancelled"
        partial = handle.partial_report()
        assert partial.sweep_names == ["cutoff"]  # sweep 1 survived the cancel
        assert partial.pending_sweeps == ["dt"]
        assert service.pool.active == []  # no leaked leases


# ---------------------------------------------------------------------------
# The ExecutionPlan.execute() sync shim
# ---------------------------------------------------------------------------


class TestExecuteShim:
    def test_execute_refuses_to_block_a_running_loop(self, dt_campaign):
        execution_plan = plan(dt_campaign)

        async def body():
            with pytest.raises(RuntimeError, match="CampaignService"):
                execution_plan.execute()

        run(body())

    def test_execute_calls_on_sweep_complete(self, dt_campaign):
        seen = []
        report = plan(dt_campaign).execute(
            on_sweep_complete=lambda name, rpt: seen.append((name, len(rpt)))
        )
        assert seen == [("dt", 2)]
        assert report.ok

    def test_failed_campaign_attaches_partial_report_with_timings(self, tiny_config):
        """The satellite fix: a sweep crashing under raise_on_error must not
        lose the completed sweeps' reports or the per-sweep elapsed timings."""

        def explode(hamiltonian, **params):
            raise RuntimeError("simulated mid-campaign crash")

        PROPAGATORS.register("service_exploding_prop", explode)
        try:
            campaign = CampaignSpec(
                {
                    "good": SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]}),
                    "bad": SweepSpec(
                        tiny_config, {"propagator.name": ["service_exploding_prop"]}
                    ),
                }
            )
            with pytest.raises(RuntimeError, match="mid-campaign crash") as excinfo:
                plan(campaign).execute(raise_on_error=True)
        finally:
            PROPAGATORS.unregister("service_exploding_prop")

        partial = excinfo.value.partial_report
        assert partial.sweep_names == ["good"]
        assert partial.pending_sweeps == ["bad"]
        assert partial["good"].to_json(exclude_timings=True)  # real, exportable report
        # elapsed was recorded in a finally: even the crashed sweep has one
        assert set(partial.elapsed_seconds) == {"good", "bad"}
        assert all(value >= 0.0 for value in partial.elapsed_seconds.values())
        assert "partial: 1 of 2" in partial.plan_table()

    def test_execute_honours_precision_and_batch_stepping(self, dt_campaign, tmp_path):
        """The service runs groups through the same executor as BatchRunner,
        so a screening plan (complex64, lockstep stepping) behaves the same
        through either entry point."""
        planned = plan(dt_campaign)
        settings = planned.settings.replace(precision="complex64", batch_stepping=True)
        screening = ExecutionPlan(
            planned.campaign, settings, planned.sweeps, planned.budget, planned.predicted_nodes
        )
        store = ResultStore(tmp_path / "store")
        report = screening.execute(store=store)["dt"]

        assert [r.status for r in report] == ["completed", "completed"]
        assert all(r.summary["precision"] == "complex64" for r in report)
        assert store.ledger()["result_manifests"] == 0  # the screening tier is never stored
        direct = BatchRunner(dt_campaign.sweeps["dt"], settings=settings).run()
        assert report.to_json(exclude_timings=True) == direct.to_json(exclude_timings=True)

    def test_service_and_runner_share_the_group_and_store_records(self, dt_campaign, tmp_path):
        """One record builder and one store ledger serve both entry points."""
        store = ResultStore(tmp_path / "store")
        served = plan(dt_campaign).execute(store=store)["dt"].execution
        direct = BatchRunner(dt_campaign.sweeps["dt"], store=store).run().execution
        assert served["backend"] == "service" and direct["backend"] == "serial"
        assert served["groups"][0].keys() == direct["groups"][0].keys()
        assert served["store"] == {"root": str(store.root), "hits": 0, "computed": 2, "failed": 0}
        assert direct["store"] == {"root": str(store.root), "hits": 2, "computed": 0, "failed": 0}
