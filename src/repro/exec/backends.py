"""Execution backends: where and how the groups of a sweep actually run.

:func:`execute_group` runs one ground-state group in-process; it is the one
group executor every path goes through. :class:`SerialBackend` wraps it: its
:meth:`~SerialBackend.run_group` is the one step both
:meth:`repro.batch.BatchRunner.run` and :func:`repro.service.run_sweep` loop
over — it runs a scheduled group (through the runner's warm session from
``prepare_ground_states`` when there is one), stamps the group's
``observed_seconds`` and records the group for
:meth:`~SerialBackend.execution_summary`.

:class:`DistributedBackend` is the same in-process executor placed onto the
virtual ranks of a :class:`~repro.parallel.SimCommunicator`. Group dispatch
and result collection really move serialized payloads through the
communicator's point-to-point channel, so the per-rank communication volume
of a sweep is logged the same way the distributed kernels log theirs — and a
:class:`~repro.cost.NodePlacement` maps ranks onto modeled Summit nodes so
every transfer is attributed to NVLink, X-Bus or InfiniBand with a predicted
wall cost; the ``bench_fig7/8``-style scaling analyses extend to sweep
traffic.

Both backends run whole groups, so the one-SCF-per-group property survives
any placement, and both share the store and ground-state sharing machinery
of :func:`execute_group`.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager

import numpy as np

from ..api.session import Session
from ..batch.report import JobResult
from ..core.dynamics import json_default
from ..core.precision import resolve_precision
from ..cost.placement import NodePlacement
from ..parallel.comm import SimCommunicator
from .scheduler import ScheduledGroup

__all__ = [
    "SerialBackend",
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
    if not pending:
        return stored
    if session is None:
        session = Session(jobs[0].config)
    results: list[JobResult] = []
    with _shared_ground_state(store, pending[0].group_key, session):
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
                    # not discard finished physics or abort the sweep: the
                    # job stays completed but unsaved, and a rerun recomputes it
                    result.error = f"checkpoint write failed: {type(exc).__name__}: {exc}"
                    warnings.warn(f"job {job.job_id}: {result.error}")
            results.append(result)
    return results


@contextmanager
def _shared_ground_state(store, group_key: str, session: Session):
    """Share one group's SCF through ``store`` around the block that needs it.

    On entry a session without a converged SCF adopts the group's SCF from
    the store when the store holds it; on exit — also after a failed
    propagation, since the SCF may have finished first and persisting it
    still saves a resume a full reconvergence — an SCF converged inside the
    block is persisted, best-effort: a failing write warns and never aborts
    the sweep. ``store=None`` shares nothing. This is the one ground-state
    sequence of :func:`execute_group` and
    :meth:`repro.batch.BatchRunner.prepare_ground_states`.
    """
    adopted = False
    if store is not None and not session.ground_state_ready:
        shared = store.load_ground_state(group_key, basis=session.basis)
        if shared is not None:
            session.adopt_ground_state(shared)
            adopted = True  # already on disk, no need to rewrite it
    try:
        yield
    finally:
        if store is not None and not adopted and session.ground_state_ready:
            try:
                # already persisted (e.g. by prepare_ground_states warming the
                # store): skip rewriting the orbital archive, the largest file
                # in the store
                if not store.has_ground_state(group_key):
                    store.save_ground_state(group_key, session.ground_state())
            except Exception as exc:
                warnings.warn(
                    f"ground-state checkpoint write failed: {type(exc).__name__}: {exc}"
                )


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


# ---------------------------------------------------------------------------
# The backends
# ---------------------------------------------------------------------------


class SerialBackend:
    """In-process execution of scheduled groups, one :meth:`run_group` at a time.

    Parameters
    ----------
    sessions:
        Warm :class:`~repro.api.Session`\\ s keyed by group key (from
        :meth:`repro.batch.BatchRunner.prepare_ground_states`); a group with
        one runs through it instead of building its own.
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
    name = "serial"

    def __init__(self, *, sessions: dict | None = None, store=None,
                 raise_on_error: bool = False, batch_stepping: bool = False,
                 precision: str = "complex128"):
        self.sessions = {} if sessions is None else sessions
        self.store = store
        self.raise_on_error = bool(raise_on_error)
        self.batch_stepping = bool(batch_stepping)
        self.precision = resolve_precision(precision)
        self.groups: list[ScheduledGroup] = []

    # ------------------------------------------------------------------
    def _execute(self, group: ScheduledGroup) -> list[JobResult]:
        """Run one group's jobs through :func:`execute_group`."""
        return execute_group(
            group.jobs,
            session=self.sessions.get(group.key),
            store=self.store,
            raise_on_error=self.raise_on_error,
            batch_stepping=self.batch_stepping,
            precision=self.precision,
        )

    def run_group(self, group: ScheduledGroup) -> list[JobResult]:
        """Execute one scheduled group now and return its job results.

        Stamps the group's ``observed_seconds`` and records it for
        :meth:`execution_summary`. Callers loop over their scheduled groups;
        the campaign service interleaves its leases and preemption between
        calls.
        """
        results = self._execute(group)
        group.observed_seconds = group_wall_seconds(results)
        self.groups.append(group)
        return results

    def execution_summary(self) -> dict:
        """How the executed groups were placed, JSON-serializable."""
        return {
            "backend": self.name,
            "n_groups": len(self.groups),
            "n_jobs": sum(g.n_jobs for g in self.groups),
            "groups": [group_record(g) for g in self.groups],
        }


class DistributedBackend(SerialBackend):
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
    cost. Groups run in-process (through the runner's warm sessions like
    the serial backend) and results come back in dict form (observables
    only) — the report JSON is bit-identical to the serial backend's.

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
        """The group's scheduler-assigned rank, or round-robin (by execution
        position) when unplaced."""
        if group.rank is not None and 0 <= group.rank < self.comm.size:
            return group.rank
        return len(self.groups) % self.comm.size

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
        group_results = super()._execute(group)

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
