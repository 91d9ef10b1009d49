"""The group executor: packed-rank equivalence, per-rank accounting, gs sharing.

Acceptance tests of the execution layer: ``BatchRunner(spec,
settings=ExecutionSettings(ranks=4))`` packs a >=4-group sweep onto four
virtual ranks, reports model-only per-rank predicted/observed seconds, and
its deterministic report export is bit-identical to the 1-rank run's at any
rank count and scheduling policy; ground states shared through the store (or
warm sessions without one) let resumed sweeps skip every SCF.
"""

import json

import numpy as np
import pytest

from repro.batch import BatchRunner, SweepSpec
from repro.exec import ExecutionSettings, Scheduler, SerialBackend
from repro.store import ResultStore


def on_ranks(ranks: int, **fields) -> ExecutionSettings:
    """Settings packing the sweep onto ``ranks`` virtual ranks."""
    return ExecutionSettings(ranks=ranks, **fields)


@pytest.fixture()
def four_group_spec(tiny_config):
    """A sweep with four distinct ground-state groups x two dts (8 jobs)."""
    return SweepSpec(
        tiny_config,
        {"basis.ecut": [1.5, 1.8, 2.0, 2.2], "run.time_step_as": [1.0, 2.0]},
    )


@pytest.fixture(scope="module")
def one_rank_exports() -> dict:
    """Deterministic 1-rank exports keyed by the sweep's job ids, computed
    once per module for the rank x policy matrix below."""
    return {}


# ---------------------------------------------------------------------------
# Acceptance: a sweep packed onto virtual ranks
# ---------------------------------------------------------------------------

#: the columns of one model-only ``per_rank`` row
RANK_ROW_KEYS = {
    "rank", "groups", "jobs", "predicted_cost", "predicted_seconds",
    "predicted_energy_j", "observed_seconds",
}


class TestPackedRanks:
    def test_packed_sweep_matches_one_rank_bit_for_bit(self, four_group_spec):
        one_rank = BatchRunner(four_group_spec).run()
        packed = BatchRunner(four_group_spec, settings=on_ranks(4)).run()

        assert [r.status for r in packed] == ["completed"] * 8
        assert packed.to_json(exclude_timings=True) == one_rank.to_json(exclude_timings=True)
        assert packed.fig6_table(include_wall=False) == one_rank.fig6_table(include_wall=False)
        for a, b in zip(one_rank, packed):
            assert a.job_id == b.job_id
            np.testing.assert_array_equal(a.trajectory.energies, b.trajectory.energies)
            np.testing.assert_array_equal(a.trajectory.dipoles, b.trajectory.dipoles)

    @pytest.mark.parametrize("schedule", ["fifo", "makespan_balanced", "energy_aware"])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_exports_identical_to_one_rank(self, four_group_spec, one_rank_exports, ranks, schedule):
        """Acceptance: the deterministic export is bit-identical to the
        1-rank export at any rank count and scheduling policy."""
        key = tuple(job.job_id for job in four_group_spec.expand())
        if key not in one_rank_exports:
            one_rank_exports[key] = BatchRunner(four_group_spec).run().to_json(exclude_timings=True)
        report = BatchRunner(four_group_spec, settings=on_ranks(ranks, schedule=schedule)).run()
        assert report.to_json(exclude_timings=True) == one_rank_exports[key]
        assert report.execution["ranks"] == ranks
        assert report.settings["ranks"] == ranks

    def test_per_rank_accounting_is_reported(self, four_group_spec):
        report = BatchRunner(four_group_spec, settings=on_ranks(4)).run()
        execution = report.execution

        assert execution["ranks"] == 4
        per_rank = execution["per_rank"]
        assert [s["rank"] for s in per_rank] == [0, 1, 2, 3]
        assert all(set(s) == RANK_ROW_KEYS for s in per_rank)
        assert sum(s["groups"] for s in per_rank) == 4
        assert sum(s["jobs"] for s in per_rank) == 8
        # fifo packs round-robin: every rank got one group, priced and timed
        assert all(s["groups"] == 1 for s in per_rank)
        for stats in per_rank:
            assert stats["predicted_seconds"] > 0
            assert stats["predicted_energy_j"] > 0
            assert stats["observed_seconds"] > 0
        # each rank's row sums the group records packed onto it
        for stats in per_rank:
            mine = [g for g in execution["groups"] if g["rank"] == stats["rank"]]
            assert stats["observed_seconds"] == pytest.approx(
                sum(g["observed_seconds"] for g in mine)
            )
        # the execution summary renders, one row per rank, makespans in the footer
        table = report.execution_table()
        assert len(table.splitlines()) == 2 + 4 + 1
        assert "observed [s]" in table.splitlines()[0]
        assert "ranks=4 predicted makespan" in table.splitlines()[-1]

    def test_execution_summary_json_exports_on_request(self, four_group_spec):
        report = BatchRunner(four_group_spec, settings=on_ranks(2)).run()
        plain = json.loads(report.to_json())
        assert "execution" not in plain
        full = json.loads(report.to_json(include_execution=True))
        assert full["execution"]["ranks"] == 2
        assert full["execution"]["schedule"] == "fifo"

    def test_execution_summary_is_strict_json(self, four_group_spec):
        report = BatchRunner(
            four_group_spec, settings=on_ranks(4, schedule="energy_aware")
        ).run()
        text = json.dumps(report.execution, allow_nan=False)
        decoded = json.loads(text)
        assert len(decoded["per_rank"]) == 4
        group = decoded["groups"][0]
        assert group["predicted_seconds"] > 0
        assert group["predicted_energy_j"] > 0

    def test_makespan_balanced_packing_assigns_ranks(self, tiny_config):
        spec = SweepSpec(
            tiny_config,
            {"xc.hybrid_mixing": [0.25, 0.0], "basis.ecut": [2.0, 1.5]},
        )
        runner = BatchRunner(spec, settings=on_ranks(2, schedule="makespan_balanced"))
        report = runner.run()
        per_rank = report.execution["per_rank"]
        assert sum(s["groups"] for s in per_rank) == 4
        assert all(s["groups"] > 0 for s in per_rank)
        # cost-aware packing: the per-rank predicted costs are closer together
        # than the single most expensive group (the LPT balance property)
        costs = [s["predicted_cost"] for s in per_rank]
        assert max(costs) > 0
        assert min(costs) > 0

    def test_single_rank_packs_every_group_on_rank_0(self, tiny_config):
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
        report = BatchRunner(spec, settings=on_ranks(1)).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert report.execution["ranks"] == 1
        assert report.execution["per_rank"][0]["groups"] == 2

    def test_invalid_ranks_raise(self, four_group_spec):
        with pytest.raises(ValueError, match="ranks"):
            BatchRunner(four_group_spec, settings=on_ranks(0))

    def test_packed_sweep_respects_the_store(self, four_group_spec, tmp_path, count_scf_solves):
        BatchRunner(four_group_spec, store=ResultStore(tmp_path), settings=on_ranks(4)).run()
        scf_first = len(count_scf_solves)
        assert scf_first == 4
        resumed = BatchRunner(four_group_spec, store=ResultStore(tmp_path), settings=on_ranks(4)).run()
        assert [r.status for r in resumed] == ["cached"] * 8
        assert len(count_scf_solves) == scf_first


# ---------------------------------------------------------------------------
# Ground-state sharing through the store
# ---------------------------------------------------------------------------


class TestGroundStateSharing:
    def test_new_sweep_over_same_systems_runs_zero_scf(self, tiny_config, tmp_path, count_scf_solves):
        """A *different* sweep over the same ground states adopts the persisted
        SCFs: zero solves, identical physics to a cold run."""
        first = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        BatchRunner(first, store=ResultStore(tmp_path)).run()
        assert len(count_scf_solves) == 1

        second = SweepSpec(tiny_config, {"run.time_step_as": [2.0, 3.0]})
        report = BatchRunner(second, store=ResultStore(tmp_path)).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert len(count_scf_solves) == 1  # both new jobs rode the stored SCF

        reference = BatchRunner(SweepSpec(tiny_config, {"run.time_step_as": [2.0, 3.0]})).run()
        for warm, cold in zip(report, reference):
            np.testing.assert_array_equal(warm.trajectory.energies, cold.trajectory.energies)
            np.testing.assert_array_equal(warm.trajectory.dipoles, cold.trajectory.dipoles)

    def test_prepare_ground_states_adopts_persisted_scf(self, tiny_config, tmp_path, count_scf_solves):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        warm = BatchRunner(spec, store=ResultStore(tmp_path))
        assert warm.prepare_ground_states() == 1
        assert len(count_scf_solves) == 1

        # a fresh runner (new process, conceptually) warms from disk instead
        resumed_spec = SweepSpec(tiny_config, {"run.time_step_as": [3.0]})
        resumed = BatchRunner(resumed_spec, store=ResultStore(tmp_path))
        assert resumed.prepare_ground_states() == 0
        assert len(count_scf_solves) == 1
        report = resumed.run()
        assert [r.status for r in report] == ["completed"]
        assert len(count_scf_solves) == 1

    def test_prepare_ground_states_survives_a_failing_store_write(
        self, tiny_config, tmp_path, monkeypatch, count_scf_solves
    ):
        """Warm-up persists through the same best-effort helper as
        execute_group: a failing ground-state write warns, never aborts."""

        def boom(self, group_key, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultStore, "save_ground_state", boom)
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        runner = BatchRunner(spec, store=ResultStore(tmp_path))
        with pytest.warns(UserWarning, match="ground-state checkpoint write failed.*No space left"):
            assert runner.prepare_ground_states() == 1
        with pytest.warns(UserWarning, match="ground-state checkpoint write failed"):
            report = runner.run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert len(count_scf_solves) == 1  # run() reused the warm session
        assert not ResultStore(tmp_path).has_ground_state(spec.expand()[0].group_key)

    def test_store_round_trips_ground_state(self, tiny_config, tmp_path):
        from repro.api import Session

        session = Session(tiny_config)
        result = session.ground_state()
        store = ResultStore(tmp_path)
        key = "some-group-key"
        assert not store.has_ground_state(key)
        store.save_ground_state(key, result)
        assert store.has_ground_state(key)

        loaded = store.load_ground_state(key, basis=session.basis)
        assert loaded.converged == result.converged
        assert loaded.total_energy == result.total_energy
        np.testing.assert_array_equal(
            loaded.wavefunction.coefficients, result.wavefunction.coefficients
        )
        # a different key does not alias onto the stored entry
        assert store.load_ground_state("another-group") is None

    def test_gs_entries_do_not_pollute_job_ids(self, tiny_config, tmp_path):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        BatchRunner(spec, store=ResultStore(tmp_path)).run()
        store = ResultStore(tmp_path)
        assert store.completed_ids() == {spec.expand()[0].job_id}
        assert store.has_ground_state(spec.expand()[0].group_key)

    def test_warm_run_does_not_rewrite_persisted_ground_state(self, tiny_config, tmp_path):
        """prepare_ground_states persists the SCF; run() must not rewrite the
        (large) orbital archive it already finds on disk."""
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        runner = BatchRunner(spec, store=ResultStore(tmp_path))
        assert runner.prepare_ground_states() == 1
        store = ResultStore(tmp_path)
        manifest = json.loads(
            store.ground_state_manifest_path(spec.expand()[0].group_key).read_text()
        )
        gs_path = store.object_path(manifest["artifact"]["sha256"])
        before = gs_path.stat().st_mtime_ns
        runner.run()
        assert gs_path.stat().st_mtime_ns == before

    def test_adopt_ground_state_validates_orbitals(self, tiny_config, tmp_path):
        from repro.api import Session

        session = Session(tiny_config)
        store = ResultStore(tmp_path)
        store.save_ground_state("k", session.ground_state())
        without_basis = store.load_ground_state("k")  # no basis: no orbitals
        fresh = Session(tiny_config)
        with pytest.raises(ValueError, match="wavefunction"):
            fresh.adopt_ground_state(without_basis)

    def test_distributed_shares_ground_states_too(self, tiny_config, tmp_path, count_scf_solves):
        """Groups packed onto two ranks share ground states through the store."""
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
        BatchRunner(spec, store=ResultStore(tmp_path), settings=on_ranks(2)).run()
        assert len(count_scf_solves) == 2
        follow_up = SweepSpec(
            tiny_config, {"basis.ecut": [1.5, 2.0], "run.time_step_as": [2.0]}
        )
        report = BatchRunner(follow_up, store=ResultStore(tmp_path), settings=on_ranks(2)).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert len(count_scf_solves) == 2  # adopted on both ranks


# ---------------------------------------------------------------------------
# Executor construction / protocol surface
# ---------------------------------------------------------------------------


class TestBackendSurface:
    def test_unknown_backend_raises_listing_choices(self, four_group_spec):
        """There is no backend setting: a stale ``backend`` key is rejected
        with the valid settings keys."""
        with pytest.raises(ValueError, match="unknown ExecutionSettings key.*'backend'.*ranks"):
            BatchRunner(four_group_spec, settings={"backend": "threads"})

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_backend_reuses_warm_sessions(self, ranks, four_group_spec, count_scf_solves):
        """Without a store, run() executes through prepare_ground_states'
        warm sessions at any rank count: one SCF per group in total."""
        runner = BatchRunner(four_group_spec, settings=on_ranks(ranks))
        assert runner.prepare_ground_states() == 4
        report = runner.run()
        assert [r.status for r in report] == ["completed"] * 8
        assert len(count_scf_solves) == 4  # run() did not reconverge anything

    def test_backends_report_their_placement(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        serial = BatchRunner(spec).run()
        assert serial.execution["backend"] == "serial"
        assert serial.execution["n_groups"] == 1
        assert serial.execution["n_jobs"] == 2
        assert serial.execution["schedule"] == "fifo"
        assert serial.execution["ranks"] == 1
        assert [s["rank"] for s in serial.execution["per_rank"]] == [0]
        assert serial.execution["groups"][0]["rank"] == 0  # packed, even on one rank
        assert "schedule=fifo ranks=1" in serial.execution_table()

    def test_unknown_costs_export_as_null_not_nan(self, tiny_config):
        """A failing cost model leaves NaN sentinels on the scheduled groups;
        the execution export must stay strict JSON (null, not NaN)."""
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        runner = BatchRunner(spec)
        scheduled = Scheduler("fifo", cost_fn=lambda configs: float("nan")).schedule(runner.groups())
        backend = SerialBackend()
        for group in scheduled:
            backend.run_group(group)
        text = json.dumps(backend.execution_summary(), allow_nan=False)  # strict
        assert json.loads(text)["groups"][0]["predicted_cost"] is None

    def test_execute_group_via_backend_matches_runner(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        runner = BatchRunner(spec)
        scheduled = Scheduler("fifo").schedule(runner.groups())
        backend = SerialBackend()
        results = [r for group in scheduled for r in backend.run_group(group)]
        reference = runner.run()
        assert [r.job_id for r in results] == [r.job_id for r in reference]
        for a, b in zip(results, reference):
            np.testing.assert_array_equal(a.trajectory.energies, b.trajectory.energies)

    def test_run_group_steps_the_drain_one_group_at_a_time(self, four_group_spec):
        """run_group is the one step every executor loop repeats: it executes
        one scheduled group, stamps its observed seconds and records only
        that group for the execution summary."""
        backend = SerialBackend()
        first = Scheduler("fifo").schedule(BatchRunner(four_group_spec).groups())[0]
        results = backend.run_group(first)
        assert [r.job_id for r in results] == [job.job_id for job in first.jobs]
        assert first.observed_seconds == sum(r.summary["wall_time"] for r in results)
        assert backend.groups == [first]
        summary = backend.execution_summary()
        assert summary["n_groups"] == 1 and summary["n_jobs"] == 2
        assert summary["groups"][0]["observed_seconds"] > 0
