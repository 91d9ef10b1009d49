"""ResultStore behavior: layout, round-trips, content addressing, dedup,
cross-sweep cache hits, store roots given as directories, and concurrent
writers racing on one artifact.
"""

from __future__ import annotations

import json
import threading

from repro.batch import BatchRunner, SweepSpec
from repro.store import ResultStore, ground_state_hash


class TestLayoutAndRoundTrip:
    def test_cold_run_populates_objects_and_verified_manifests(self, warm_report, store):
        ledger = store.ledger()
        assert ledger["result_manifests"] == 2
        assert ledger["ground_state_manifests"] == 1
        assert ledger["objects"] >= 1
        # every manifest names an existing sha256 object of the recorded size
        for path in sorted(store.manifests_dir.glob("*.json")):
            manifest = json.loads(path.read_text())
            artifact = manifest["artifact"]
            obj = store.object_path(artifact["sha256"])
            assert obj.exists()
            assert obj.stat().st_size == artifact["size"]
            assert store._file_digest(obj) == artifact["sha256"]

    def test_warm_rerun_serves_every_job_without_any_compute(
        self, warm_report, dt_spec, store, count_scf_solves, count_propagation_steps
    ):
        report = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in report.results] == ["cached", "cached"]
        assert report.n_cached == 2
        assert count_scf_solves == []  # zero SCF solves
        assert count_propagation_steps == []  # zero propagation steps
        assert report.execution["store"]["hits"] == 2
        assert report.execution["store"]["computed"] == 0

    def test_warm_export_is_bit_identical_to_cold(self, warm_report, dt_spec, store):
        cold = warm_report.to_json(exclude_timings=True)
        warm = BatchRunner(dt_spec, store=store).run()
        assert warm.to_json(exclude_timings=True) == cold

    def test_ledger_counts_session_hits_and_writes(self, warm_report, dt_spec, store):
        BatchRunner(dt_spec, store=store).run()
        session = store.ledger()["session"]
        assert session["hits"] == 2
        assert session["writes"] >= 1
        assert session["quarantined"] == 0


class TestContentAddressing:
    def test_hit_crosses_sweeps_with_different_axes(self, tiny_config, store, count_propagation_steps):
        # run.time_step_as [1.0] and run.n_steps [2] both expand to the base
        # config — different sweep axes, same physics, same store key
        BatchRunner(SweepSpec(tiny_config, {"run.time_step_as": [1.0]}), store=store).run()
        steps_cold = sum(count_propagation_steps)
        assert steps_cold > 0
        report = BatchRunner(SweepSpec(tiny_config, {"run.n_steps": [2]}), store=store).run()
        assert sum(count_propagation_steps) == steps_cold  # nothing recomputed
        (result,) = report.results
        assert result.status == "cached"
        # point/config come from the *requesting* sweep, not the producer
        assert result.point == {"run.n_steps": 2}

    def test_identical_ground_states_are_stored_once(self, store, h2_ground_state):
        _, result = h2_ground_state
        store.save_ground_state("group-a", result)
        store.save_ground_state("group-b", result)
        assert store.ledger()["objects"] == 1  # content-addressed: one payload
        assert store.ledger()["ground_state_manifests"] == 2
        assert store.stats["deduplicated"] == 1
        for key in ("group-a", "group-b"):
            loaded = store.load_ground_state(key)
            assert loaded is not None
            assert float(loaded.total_energy) == float(result.total_energy)

    def test_gs_key_collision_is_not_trusted(self, store, h2_ground_state):
        _, result = h2_ground_state
        store.save_ground_state("group-a", result)
        # forge a colliding 12-char hash by renaming the manifest
        manifest_path = store.ground_state_manifest_path("group-a")
        forged = store.manifests_dir / f"gs-{ground_state_hash('group-b')}.json"
        forged.write_text(manifest_path.read_text())  # still says group_key=group-a
        assert not store.has_ground_state("group-b")
        assert store.load_ground_state("group-b") is None

    def test_diff_splits_jobs_into_hits_and_misses(self, warm_report, dt_spec, tiny_config, store):
        known = dt_spec.expand()
        fresh = SweepSpec(tiny_config, {"run.time_step_as": [3.0]}).expand()
        hits, misses = store.diff(known + fresh)
        assert [job.job_id for job in hits] == [job.job_id for job in known]
        assert [job.job_id for job in misses] == [job.job_id for job in fresh]

    def test_completed_ids_reports_recorded_job_ids(self, warm_report, dt_spec, store):
        assert store.completed_ids() == {job.job_id for job in dt_spec.expand()}


class TestStoreRoot:
    def test_store_root_and_store_object_share_results(self, dt_spec, store):
        # a sweep given the store's root directory is a warm store for a
        # sweep passed the store object, and vice versa
        BatchRunner(dt_spec, store=store.root).run()
        report = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in report.results] == ["cached", "cached"]


class TestConcurrentWriters:
    def test_two_runners_writing_the_same_artifact_is_safe(self, store, h2_ground_state):
        _, result = h2_ground_state
        barrier = threading.Barrier(2)
        errors = []

        def writer():
            try:
                mine = ResultStore(store.root)  # each runner opens its own handle
                barrier.wait()
                for _ in range(5):
                    mine.save_ground_state("shared-group", result)
            except Exception as exc:  # pragma: no cover - failure evidence
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.ledger()["objects"] == 1  # one content-named payload
        assert store.ledger()["quarantined"] == 0
        assert list(store.tmp_dir.glob("*")) == []  # no leaked in-flight files
        loaded = store.load_ground_state("shared-group")
        assert loaded is not None
        assert float(loaded.total_energy) == float(result.total_energy)
