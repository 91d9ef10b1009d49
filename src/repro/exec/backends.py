"""Execution backends: where and how the groups of a sweep actually run.

:func:`execute_group` runs one ground-state group in-process; it is the one
group executor every path goes through — the backends below and the campaign
service (:func:`repro.service.run_sweep`). :class:`ExecutionBackend` owns the
machinery around it: ``submit_group`` queues scheduled groups, ``drain`` runs
them (or :meth:`~ExecutionBackend.run_group` one at a time), every executed
group gets its ``observed_seconds`` stamped, ``poll``/``cancel`` observe the
drain and ``execution_summary`` reports how the work was placed. The
subclasses differ only in where a group runs:

* :class:`SerialBackend` — in-process, in submission order, reusing the
  runner's warm sessions (``prepare_ground_states``).
* :class:`ProcessPoolBackend` — one worker task per group on a
  :class:`~concurrent.futures.ProcessPoolExecutor`; runs serially (with a
  warning naming the original error and the fallback) when no pool can be
  created.
* :class:`DistributedBackend` — places groups onto the virtual ranks of a
  :class:`~repro.parallel.SimCommunicator`. Group dispatch and result
  collection really move serialized payloads through the communicator's
  point-to-point channel, so the per-rank communication volume of a sweep is
  logged the same way the distributed kernels log theirs — and a
  :class:`~repro.cost.NodePlacement` maps ranks onto modeled Summit nodes so
  every transfer is attributed to NVLink, X-Bus or InfiniBand with a
  predicted wall cost; the ``bench_fig7/8``-style scaling analyses extend to
  sweep traffic.

All backends run whole groups, so the one-SCF-per-group property survives any
placement, and all of them share the store and ground-state sharing
machinery of :func:`execute_group`.
"""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..api.session import Session
from ..batch.report import JobResult
from ..core.dynamics import json_default
from ..core.precision import resolve_precision
from ..cost.placement import NodePlacement
from ..parallel.comm import SimCommunicator
from ..pw.fft import configure_for_pool_worker
from .scheduler import ScheduledGroup

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "DistributedBackend",
    "execute_group",
    "group_record",
    "group_wall_seconds",
    "store_record",
]


def execute_group(
    jobs: list,
    *,
    session: Session | None = None,
    store=None,
    raise_on_error: bool = False,
    batch_stepping: bool = False,
    precision: str = "complex128",
) -> list[JobResult]:
    """Run one ground-state group of jobs through a shared session.

    ``store`` (a :class:`~repro.store.ResultStore`, or ``None`` for no
    persistence) serves every job whose config it already holds as a hit
    (status ``"cached"``) and receives every job computed here. The session is
    built lazily from the first job's config, so a fully stored group never
    touches the physics stack at all. The group's SCF is adopted from the
    store when it holds it and persisted to it otherwise, so a resumed sweep
    skips even the group SCF. With ``raise_on_error`` the first failing job
    aborts the group *after* the results of the jobs before it were stored —
    which is what makes a crashed sweep resumable.

    With ``batch_stepping`` the group's still-uncached jobs are advanced in
    lockstep through :meth:`~repro.api.Session.propagate_many` (stacked FFTs
    across jobs) before the per-job loop below serves them from the session's
    trajectory cache — store, error and ground-state semantics are the
    per-job loop's, and ``complex128`` physics is bit-identical to the
    unbatched path. ``precision="complex64"`` selects the screening tier:
    those results are stamped in their summaries and **never** loaded from or
    saved to the result store (ground-state sharing still works — the SCF is
    double precision either way).
    """
    # the store only ever holds/serves double-precision physics
    job_store = store if precision == "complex128" else None
    stored = [None if job_store is None else job_store.load(job) for job in jobs]
    pending = [job for job, hit in zip(jobs, stored) if hit is None]
    adopted = False
    if pending:
        if session is None:
            session = Session(jobs[0].config)
        if store is not None and not session.ground_state_ready:
            shared = store.load_ground_state(pending[0].group_key, basis=session.basis)
            if shared is not None:
                session.adopt_ground_state(shared)
                adopted = True  # already on disk, no need to rewrite it
    if batch_stepping and len(pending) > 1:
        try:
            session.propagate_many(
                [
                    {
                        "propagator": job.config.propagator.name,
                        "time_step_as": job.config.run.time_step_as,
                        "n_steps": job.config.run.n_steps,
                        "params": dict(job.config.propagator.params),
                    }
                    for job in pending
                ],
                precision=precision,
            )
        except Exception:
            # fall through: the per-job loop below re-runs solo, so the
            # failure is attributed to (and recorded for) the right job
            pass
    results: list[JobResult] = []
    try:
        for job, hit in zip(jobs, stored):
            if hit is not None:
                results.append(hit)
                continue
            try:
                run_cfg = job.config.run
                trajectory = session.propagate(
                    job.config.propagator.name,
                    time_step_as=run_cfg.time_step_as,
                    n_steps=run_cfg.n_steps,
                    params=dict(job.config.propagator.params),
                    precision=precision,
                )
            except Exception as exc:
                if raise_on_error:
                    raise
                results.append(JobResult.from_failure(job, exc))
                continue
            result = JobResult.from_trajectory(job, trajectory)
            if job_store is not None:
                try:
                    job_store.save(result)
                except Exception as exc:
                    # a persistence failure (full disk, unwritable dir) must
                    # not discard finished physics or abort the sweep: the job
                    # stays completed but unsaved, and a rerun recomputes it
                    result.error = f"checkpoint write failed: {type(exc).__name__}: {exc}"
                    warnings.warn(f"job {job.job_id}: {result.error}")
            results.append(result)
    finally:
        # also after a failed propagation: the SCF may have finished first,
        # and persisting it still saves the resume a full reconvergence
        if pending and store is not None and not adopted and session.ground_state_ready:
            _persist_ground_state(store, pending[0].group_key, session)
    return results


def _persist_ground_state(store, group_key: str, session: Session) -> None:
    """Best-effort save of a session's converged SCF; never aborts the sweep."""
    try:
        # already persisted (e.g. by prepare_ground_states warming the store):
        # skip rewriting the orbital archive, the largest file in the store
        if not store.has_ground_state(group_key):
            store.save_ground_state(group_key, session.ground_state())
    except Exception as exc:
        warnings.warn(f"ground-state checkpoint write failed: {type(exc).__name__}: {exc}")


def group_wall_seconds(results) -> float:
    """Summed job wall seconds of one executed group — the ``observed_seconds``
    stamped on every executed :class:`~repro.exec.ScheduledGroup`, which is
    what calibration observations (:mod:`repro.calib`) pair against the
    predicted seconds. Cached hits report ~0 and failures carry no wall time,
    so fully served groups observe nothing (and are skipped by the fit)."""
    return sum(float(r.summary.get("wall_time") or 0.0) for r in results)


def _finite(value) -> float | None:
    """The scheduler's cost-model-failure sentinel is NaN, which is not valid
    strict JSON — export it as null instead."""
    return float(value) if np.isfinite(value) else None


def group_record(group: ScheduledGroup) -> dict:
    """The JSON-able execution record of one scheduled group: its placement,
    predictions, self-describing calibration identity (:mod:`repro.calib`:
    machine preset, propagator, workload sizes) and the observed wall the
    executor stamped."""
    return {
        "index": group.index,
        "n_jobs": group.n_jobs,
        "predicted_cost": _finite(group.predicted_cost),
        "predicted_seconds": _finite(group.predicted_seconds),
        "predicted_energy_j": _finite(group.predicted_energy_j),
        "n_gpus": group.n_gpus,
        "rank": group.rank,
        "machine": group.machine,
        "propagator": group.propagator,
        "n_bands": group.n_bands,
        "n_grid": group.n_grid,
        "observed_seconds": _finite(group.observed_seconds),
        "repriced_seconds": _finite(group.repriced_seconds),
    }


def store_record(store, results) -> dict:
    """Cached-vs-computed provenance of a sweep run against ``store``
    (execution summaries are excluded from the deterministic physics export)."""
    return {
        "root": str(store.root),
        "hits": sum(1 for r in results if r.status == "cached"),
        "computed": sum(1 for r in results if r.status == "completed"),
        "failed": sum(1 for r in results if r.status == "failed"),
    }


def _run_group_worker(payload) -> list[dict]:
    """Process-pool entry point: run a group, return JSON-able result dicts.

    Results cross the process boundary in dict form (observables only) to
    avoid pickling wavefunctions and grids; results stored inside the worker
    keep the full trajectories on disk. FFT threading is capped to one worker
    first — the pool already owns the cores, and oversubscribing
    ``workers * fft_threads`` ways degrades every group.
    """
    configure_for_pool_worker()
    jobs, options = payload
    return [result.to_dict() for result in execute_group(jobs, **options)]


# ---------------------------------------------------------------------------
# The backends
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """Where the groups of a sweep run: ``submit_group`` then ``drain``.

    Parameters
    ----------
    store:
        A :class:`~repro.store.ResultStore` serving and receiving results and
        shared ground states; ``None`` disables persistence.
    raise_on_error:
        Propagate the first job failure instead of recording it.
    batch_stepping:
        Advance each group's uncached jobs in lockstep (see
        :func:`execute_group`).
    precision:
        Propagation precision tier (``"complex128"`` or ``"complex64"``,
        see :mod:`repro.core.precision`).
    """

    #: registry name of the backend (the ``ExecutionSettings(backend=...)`` string)
    name = "backend"

    def __init__(self, *, store=None, raise_on_error: bool = False,
                 batch_stepping: bool = False, precision: str = "complex128"):
        self.store = store
        self.raise_on_error = bool(raise_on_error)
        self.batch_stepping = bool(batch_stepping)
        self.precision = resolve_precision(precision)
        self.groups: list[ScheduledGroup] = []
        self._drained_groups = 0
        self._drained_jobs = 0
        self._done = False
        self._cancelled = False

    # ------------------------------------------------------------------
    def submit_group(self, group: ScheduledGroup) -> None:
        """Enqueue one scheduled ground-state group for execution."""
        self.groups.append(group)

    def _options(self) -> dict:
        """The :func:`execute_group` keywords every group runs under."""
        return {
            "store": self.store,
            "raise_on_error": self.raise_on_error,
            "batch_stepping": self.batch_stepping,
            "precision": self.precision,
        }

    def _execute(self, group: ScheduledGroup) -> list[JobResult]:
        """Run one group where this backend runs groups."""
        return execute_group(group.jobs, **self._options())

    def _finish_group(self, group: ScheduledGroup, results: list[JobResult]) -> list[JobResult]:
        """Stamp an executed group's observed wall and count it as drained."""
        group.observed_seconds = group_wall_seconds(results)
        self._drained_groups += 1
        self._drained_jobs += group.n_jobs
        return results

    def run_group(self, group: ScheduledGroup) -> list[JobResult]:
        """Execute one submitted group now and return its job results.

        This is the step :meth:`drain` repeats; callers that interleave other
        work between groups (the campaign service's leases and preemption)
        drive it one group at a time.
        """
        return self._finish_group(group, self._execute(group))

    def drain(self) -> list[JobResult]:
        """Run every submitted group (in submission order) and return all job
        results; stops at the next group boundary once cancelled."""
        results: list[JobResult] = []
        for group in self.groups:
            if self._cancelled:
                break
            results.extend(self.run_group(group))
        self._done = True
        return results

    # ------------------------------------------------------------------
    # Non-blocking observation: poll/cancel beside drain
    # ------------------------------------------------------------------
    def poll(self) -> dict:
        """Non-blocking progress snapshot of the drain, JSON-serializable.

        Meaningful mid-drain when the backend is driven from another thread
        or between a service's group boundaries; before ``drain`` it reports
        zero progress, after it ``done`` is ``True``.
        """
        return {
            "backend": self.name,
            "n_groups": len(self.groups),
            "n_jobs": sum(g.n_jobs for g in self.groups),
            "groups_done": self._drained_groups,
            "jobs_done": self._drained_jobs,
            "cancelled": self._cancelled,
            "done": self._done,
        }

    def cancel(self) -> int:
        """Ask the drain to stop at the next group boundary.

        Groups already executed keep their results (and stored entries — a
        cancelled sweep resumes like a crashed one); returns the number of
        submitted groups that had not finished when cancellation was
        requested.
        """
        self._cancelled = True
        return max(0, len(self.groups) - self._drained_groups)

    # ------------------------------------------------------------------
    def execution_summary(self) -> dict:
        """How the submitted work was (or will be) placed, JSON-serializable."""
        return {
            "backend": self.name,
            "n_groups": len(self.groups),
            "n_jobs": sum(g.n_jobs for g in self.groups),
            "groups": [group_record(g) for g in self.groups],
        }


class SerialBackend(ExecutionBackend):
    """In-process execution in submission order.

    Reuses warm :class:`~repro.api.Session`\\ s (from
    :meth:`repro.batch.BatchRunner.prepare_ground_states`): pass them as
    ``sessions``, keyed by group key.
    """

    name = "serial"

    def __init__(self, *, sessions: dict | None = None, **options):
        super().__init__(**options)
        self.sessions = {} if sessions is None else sessions

    def _execute(self, group: ScheduledGroup) -> list[JobResult]:
        return execute_group(group.jobs, session=self.sessions.get(group.key), **self._options())


class ProcessPoolBackend(SerialBackend):
    """One worker task per group on a process pool.

    Whole groups ship to workers, so the one-SCF-per-group property survives
    the pool; custom components registered at runtime are only visible to
    workers on fork-based platforms. A single-group sweep has nothing to
    parallelise and runs in-process; if no pool can be created the backend
    warns — naming the original error and the fallback — and runs serially.
    """

    name = "process"

    def __init__(self, *, max_workers: int | None = None, **options):
        super().__init__(**options)
        self.max_workers = max_workers
        self.used_fallback = False

    def drain(self) -> list[JobResult]:
        if len(self.groups) <= 1:
            return super().drain()
        workers = min(self.max_workers or os.cpu_count() or 1, len(self.groups))
        try:
            executor = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, ImportError) as exc:
            self.used_fallback = True
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                f"falling back to the '{SerialBackend.name}' execution backend"
            )
            return super().drain()
        results: list[JobResult] = []
        with executor:
            futures = []
            for group in self.groups:
                if self._cancelled:
                    break
                futures.append(
                    (group, executor.submit(_run_group_worker, (group.jobs, self._options())))
                )
            for group, future in futures:
                if self._cancelled and future.cancel():
                    continue  # never started; its jobs simply don't report
                group_results = [JobResult.from_dict(d) for d in future.result()]
                results.extend(self._finish_group(group, group_results))
        self._done = True
        return results

    def execution_summary(self) -> dict:
        summary = super().execution_summary()
        summary["max_workers"] = self.max_workers
        summary["used_fallback"] = self.used_fallback
        return summary


class DistributedBackend(ExecutionBackend):
    """Execution over the virtual ranks of a simulated MPI communicator.

    Groups are placed onto ranks by the scheduler (least-loaded packing,
    weighted by predicted seconds/joules for the machine-aware policies);
    dispatch and result traffic really flow through
    :meth:`~repro.parallel.SimCommunicator.sendrecv` as serialized payloads,
    so ``comm.stats`` / the per-rank accounting of :meth:`execution_summary`
    measure a sweep the way the distributed kernels measure an SCF. A
    :class:`~repro.cost.NodePlacement` maps the virtual ranks onto modeled
    Summit nodes (6 ranks per node, 3 per socket), so every transfer is
    additionally attributed to the wire it crosses — NVLink within a socket,
    X-Bus across sockets, InfiniBand across nodes — with a predicted wall
    cost. Results come back in dict form (observables only), exactly like
    process-pool workers — the report JSON is bit-identical to the serial
    backend's.

    Parameters
    ----------
    ranks:
        Number of virtual ranks (ignored when ``comm`` is given).
    comm:
        An existing :class:`~repro.parallel.SimCommunicator` to dispatch over
        (shares its event log / statistics with the caller).
    placement:
        The rank → node mapping used to cost transfers; defaults to a dense
        :class:`~repro.cost.NodePlacement` of the backend's ranks on Summit.
        Must cover at least as many ranks as the communicator has.
    """

    name = "distributed"

    def __init__(self, *, ranks: int = 4, comm: SimCommunicator | None = None,
                 placement: NodePlacement | None = None, **options):
        super().__init__(**options)
        if comm is None and ranks < 1:
            raise ValueError(
                f"DistributedBackend needs ranks >= 1, got {ranks}; "
                "pass the number of virtual MPI ranks to dispatch over"
            )
        self.comm = SimCommunicator(int(ranks), keep_event_log=True) if comm is None else comm
        if placement is None:
            placement = NodePlacement(n_ranks=self.comm.size)
        if placement.n_ranks < self.comm.size:
            raise ValueError(
                f"placement models {placement.n_ranks} rank(s) but the backend "
                f"dispatches over {self.comm.size}; build NodePlacement(n_ranks="
                f"{self.comm.size}) (or larger)"
            )
        self.placement = placement
        self.rank_stats = [
            {
                "rank": rank,
                "node": placement.node_of(rank),
                "socket": placement.socket_of(rank),
                "link": placement.link_between(0, rank).value,
                "groups": 0,
                "jobs": 0,
                "predicted_cost": 0.0,
                "predicted_seconds": 0.0,
                "predicted_energy_j": 0.0,
                "observed_seconds": 0.0,
                "dispatch_bytes": 0,
                "result_bytes": 0,
                "comm_seconds": 0.0,
            }
            for rank in range(self.comm.size)
        ]

    # ------------------------------------------------------------------
    @property
    def ranks(self) -> int:
        """Number of virtual ranks groups are placed onto."""
        return self.comm.size

    @staticmethod
    def _wire(payload) -> np.ndarray:
        """Serialize a JSON-able payload into a byte array for the communicator."""
        # insertion order is preserved through dumps/loads, keeping the wire
        # round-trip invisible in the report export (key order included)
        text = json.dumps(payload, default=json_default)
        return np.frombuffer(text.encode(), dtype=np.uint8)

    def _assigned_rank(self, group: ScheduledGroup) -> int:
        """The group's scheduler-assigned rank, or round-robin (by drain
        position) when unplaced."""
        if group.rank is not None and 0 <= group.rank < self.comm.size:
            return group.rank
        return self._drained_groups % self.comm.size

    def _execute(self, group: ScheduledGroup) -> list[JobResult]:
        rank = self._assigned_rank(group)
        group.rank = rank
        stats = self.rank_stats[rank]

        # dispatch: the expanded group spec travels root -> rank
        dispatch = self._wire(
            {
                "group_index": group.index,
                "job_ids": [job.job_id for job in group.jobs],
                "configs": [job.config.to_dict() for job in group.jobs],
            }
        )
        self.comm.sendrecv(dispatch, description=f"dispatch group {group.index} -> rank {rank}")
        stats["dispatch_bytes"] += int(dispatch.nbytes)
        stats["comm_seconds"] += self.placement.transfer_seconds(dispatch.nbytes, 0, rank)

        # "remote" execution on the rank (in-process, bit-identical physics)
        group_results = execute_group(group.jobs, **self._options())

        # results travel rank -> root as observables-only dicts
        wire = self._wire([result.to_dict() for result in group_results])
        received = self.comm.sendrecv(wire, description=f"results group {group.index} <- rank {rank}")
        stats["result_bytes"] += int(wire.nbytes)
        stats["comm_seconds"] += self.placement.transfer_seconds(wire.nbytes, rank, 0)
        stats["groups"] += 1
        stats["jobs"] += group.n_jobs
        if np.isfinite(group.predicted_cost):
            stats["predicted_cost"] += float(group.predicted_cost)
        if np.isfinite(group.predicted_seconds):
            stats["predicted_seconds"] += float(group.predicted_seconds)
        if np.isfinite(group.predicted_energy_j):
            stats["predicted_energy_j"] += float(group.predicted_energy_j)
        stats["observed_seconds"] += group_wall_seconds(group_results)

        decoded = json.loads(bytes(bytearray(received)).decode())
        return [JobResult.from_dict(d) for d in decoded]

    def execution_summary(self) -> dict:
        summary = super().execution_summary()
        summary["ranks"] = self.comm.size
        summary["placement"] = {
            "ranks_per_node": self.placement.ranks_per_node,
            "n_nodes": self.placement.n_nodes,
        }
        summary["per_rank"] = [dict(stats) for stats in self.rank_stats]
        summary["comm"] = {
            "calls": dict(self.comm.stats.calls),
            "bytes": dict(self.comm.stats.bytes),
            "total_bytes": self.comm.stats.total_bytes(),
        }
        return summary
