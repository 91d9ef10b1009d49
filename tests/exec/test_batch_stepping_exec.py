"""Batched stepping through the execution stack: backends, settings, identity.

The flags under test — ``batch_stepping`` and ``precision`` — are threaded
from ``run.schedule`` / :class:`~repro.exec.ExecutionSettings` through the
scheduler, every backend and :func:`~repro.exec.backends.execute_group`.
Invariants:

* physics exports of a batched sweep are bit-identical to the unbatched
  sweep (``to_json(exclude_timings=True)``);
* both flags are execution-only for job identity: ``config_hash`` and group
  keys ignore them, so a warm store re-run under different batching settings
  is served 100 % from cache with zero propagation steps;
* process-pool workers cap FFT threading at 1 (the pool owns the cores);
* the scheduler's cost model amortizes batched groups.
"""

from __future__ import annotations

import os

import pytest

from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.batch.sweep import config_hash, group_jobs
from repro.exec import ExecutionSettings, Scheduler
from repro.perf.sweep_cost import BATCH_STEPPING_EFFICIENCY, predict_group_cost
from repro.store import ResultStore

BATCHED = ExecutionSettings(batch_stepping=True)


@pytest.fixture()
def dt_spec(tiny_config):
    """Four jobs, one ground-state group: a dt sweep crossed with ptcn/rk4."""
    return SweepSpec(
        tiny_config,
        {"run.time_step_as": [1.0, 2.0], "propagator.name": ["ptcn", "rk4"]},
    )


class TestBitIdentity:
    def test_batched_sweep_exports_are_bit_identical(self, dt_spec):
        solo = BatchRunner(dt_spec).run()
        batched = BatchRunner(dt_spec, settings=BATCHED).run()
        assert [r.status for r in batched.results] == ["completed"] * 4
        assert batched.to_json(exclude_timings=True) == solo.to_json(exclude_timings=True)

    def test_process_pool_batched_sweep_matches_serial(self, tiny_config):
        # two ground-state groups so the pool actually forks; inside each
        # worker the group steps in lockstep with FFT threads capped at 1
        spec = SweepSpec(
            tiny_config,
            {"system.params.box": [8.0, 8.5], "run.time_step_as": [1.0, 2.0]},
        )
        serial = BatchRunner(spec).run()
        pooled = BatchRunner(
            spec, settings=ExecutionSettings(backend="process", batch_stepping=True, max_workers=2)
        ).run()
        assert pooled.to_json(exclude_timings=True) == serial.to_json(exclude_timings=True)


class TestIdentityExclusion:
    def test_config_hash_ignores_batching_and_precision(self, tiny_config):
        flagged = tiny_config.with_overrides(
            {"run.schedule": {"batch_stepping": True, "precision": "complex64"}}
        )
        assert config_hash(flagged) == config_hash(tiny_config)

    def test_warm_store_rerun_under_batching_is_all_cache_hits(
        self, dt_spec, tmp_path, count_propagation_steps
    ):
        store = ResultStore(tmp_path / "store")
        warm = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in warm.results] == ["completed"] * 4

        steps_before_rerun = len(count_propagation_steps)
        rerun = BatchRunner(dt_spec, store=store, settings=BATCHED).run()
        assert [r.status for r in rerun.results] == ["cached"] * 4
        assert rerun.execution["store"]["hits"] == 4
        # zero propagation steps: the flip changed execution settings only,
        # so job identity (and therefore every cache key) was untouched
        assert count_propagation_steps[steps_before_rerun:] == []


class TestStoreReads:
    def test_warm_batched_sweep_loads_each_job_once(self, dt_spec, tmp_path, monkeypatch):
        """The batch pre-pass's store reads are reused by the per-job loop:
        every cached job is verified and decoded exactly once."""
        store = ResultStore(tmp_path / "store")
        BatchRunner(dt_spec, store=store).run()

        loads = []
        original = ResultStore.load

        def counting(self, job):
            loads.append(job.job_id)
            return original(self, job)

        monkeypatch.setattr(ResultStore, "load", counting)
        rerun = BatchRunner(dt_spec, store=store, settings=BATCHED).run()
        assert [r.status for r in rerun.results] == ["cached"] * 4
        assert sorted(loads) == sorted(job.job_id for job in dt_spec.expand())


class TestPoolWorkerCapping:
    def test_run_group_worker_caps_fft_threads_to_one(self, dt_spec, monkeypatch):
        from repro.exec.backends import _run_group_worker
        from repro.pw.fft import get_fft_workers, set_fft_workers

        monkeypatch.delenv("REPRO_FFT_WORKERS", raising=False)
        workers_before = get_fft_workers()
        set_fft_workers(4)
        try:
            (jobs,) = group_jobs(dt_spec).values()
            payload = (
                jobs,
                {"store": None, "raise_on_error": True, "batch_stepping": True,
                 "precision": "complex128"},
            )
            dicts = _run_group_worker(payload)
            assert get_fft_workers() == 1
            assert os.environ["REPRO_FFT_WORKERS"] == "1"
            assert [d["status"] for d in dicts] == ["completed"] * 4
        finally:
            set_fft_workers(workers_before)
            os.environ.pop("REPRO_FFT_WORKERS", None)


class TestSettingsPlumbing:
    def test_settings_validate_the_new_fields(self):
        with pytest.raises(ValueError, match="batch_stepping"):
            ExecutionSettings(batch_stepping="yes")
        with pytest.raises(ValueError, match="precision"):
            ExecutionSettings(precision="float32")

    def test_round_trip_includes_the_new_fields(self):
        settings = ExecutionSettings(batch_stepping=True, precision="complex64")
        data = settings.as_dict()
        assert data["batch_stepping"] is True and data["precision"] == "complex64"
        assert ExecutionSettings.from_dict(data) == settings

    def test_from_config_reads_run_schedule(self, tiny_config):
        config = tiny_config.with_overrides(
            {"run.schedule": {"policy": "cheapest_first", "batch_stepping": True,
                              "precision": "complex64"}}
        )
        settings = ExecutionSettings.from_config(config)
        assert settings.schedule == "cheapest_first"
        assert settings.batch_stepping is True
        assert settings.precision == "complex64"

    def test_apply_to_stamps_only_non_defaults(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        plain = ExecutionSettings().apply_to(spec)
        assert plain.base.run.schedule == {"policy": "fifo"}
        stamped = ExecutionSettings(batch_stepping=True, precision="complex64").apply_to(spec)
        assert stamped.base.run.schedule == {
            "policy": "fifo",
            "batch_stepping": True,
            "precision": "complex64",
        }
        # stamping is pure provenance: identity unchanged
        assert config_hash(stamped.base) == config_hash(tiny_config)

    def test_run_config_validates_the_new_schedule_keys(self, tiny_config):
        from repro.api.config import ConfigError

        with pytest.raises(ConfigError, match="batch_stepping"):
            tiny_config.with_overrides({"run.schedule": {"batch_stepping": "yes"}})
        with pytest.raises(ConfigError, match="precision"):
            tiny_config.with_overrides({"run.schedule": {"precision": "single"}})
        with pytest.raises(ConfigError, match="unknown key"):
            tiny_config.with_overrides({"run.schedule": {"batching": True}})
        flagged = tiny_config.with_overrides(
            {"run.schedule": {"batch_stepping": True, "precision": "complex64"}}
        )
        assert flagged.run.schedule_batch_stepping is True
        assert flagged.run.schedule_precision == "complex64"
        assert tiny_config.run.schedule_batch_stepping is False
        assert tiny_config.run.schedule_precision == "complex128"


class TestCostAmortization:
    def test_batched_groups_predict_cheaper(self, tiny_config):
        configs = [tiny_config] * 4
        solo = predict_group_cost(configs)
        batched = predict_group_cost(configs, batch_stepping=True)
        assert batched < solo
        # the shared-SCF term is unaffected and width 1 gets no discount
        assert predict_group_cost([tiny_config], batch_stepping=True) == predict_group_cost(
            [tiny_config]
        )
        assert predict_group_cost([], batch_stepping=True) == 0.0
        assert 0 < BATCH_STEPPING_EFFICIENCY < 1

    def test_scheduler_uses_the_amortized_model(self, dt_spec):
        (jobs,) = group_jobs(dt_spec).values()
        plain = Scheduler(machine=None).predict_cost(jobs)
        batched = Scheduler(machine=None, batch_stepping=True).predict_cost(jobs)
        assert batched < plain
