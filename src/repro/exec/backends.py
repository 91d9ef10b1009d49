"""The group executor: how the packed groups of a sweep actually run.

:func:`execute_group` runs one ground-state group in-process; it is the one
group executor every path goes through. :class:`SerialBackend` wraps it: its
:meth:`~SerialBackend.run_group` is the one step both
:meth:`repro.batch.BatchRunner.run` and :func:`repro.service.run_sweep` loop
over — it runs a scheduled group (through the runner's warm session from
``prepare_ground_states`` when there is one), stamps the group's
``observed_seconds`` and records the group for
:meth:`~SerialBackend.execution_summary`.

Both callers first pack the groups onto ``ExecutionSettings.ranks`` virtual
ranks (:meth:`repro.exec.Scheduler.pack`). The ranks are a model: groups
still run one after another in this process, so the physics export is
bit-identical at any rank count, and the summary's ``per_rank`` rows account
each rank's predicted and observed seconds from the groups it was given.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import numpy as np

from ..api.session import Session
from ..batch.report import JobResult
from ..core.precision import resolve_precision
from .scheduler import ScheduledGroup, rank_loads

__all__ = [
    "SerialBackend",
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
# The executor
# ---------------------------------------------------------------------------

#: the ``per_rank`` columns of :meth:`SerialBackend.execution_summary`, each
#: summed over the groups packed onto a rank
_RANK_COLUMNS = {
    "groups": lambda g: 1,
    "jobs": lambda g: g.n_jobs,
    "predicted_cost": lambda g: g.predicted_cost,
    "predicted_seconds": lambda g: g.predicted_seconds,
    "predicted_energy_j": lambda g: g.predicted_energy_j,
    "observed_seconds": lambda g: g.observed_seconds,
}


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
    def run_group(self, group: ScheduledGroup) -> list[JobResult]:
        """Execute one scheduled group now and return its job results.

        Stamps the group's ``observed_seconds`` and records it for
        :meth:`execution_summary`. Callers loop over their scheduled groups;
        the campaign service interleaves its leases and preemption between
        calls.
        """
        results = execute_group(
            group.jobs,
            session=self.sessions.get(group.key),
            store=self.store,
            raise_on_error=self.raise_on_error,
            batch_stepping=self.batch_stepping,
            precision=self.precision,
        )
        group.observed_seconds = group_wall_seconds(results)
        self.groups.append(group)
        return results

    def execution_summary(self) -> dict:
        """How the executed groups were packed, JSON-serializable.

        ``ranks`` spans the highest rank any recorded group was packed onto
        (an unpacked group counts as rank 0); ``per_rank`` has one model-only
        row per rank with its groups, jobs, predicted cost/seconds/joules and
        observed seconds summed over the groups it was given.
        """
        ranks = 1 + max((g.rank for g in self.groups if g.rank is not None), default=0)
        loads = {
            name: rank_loads(self.groups, value_of, ranks)
            for name, value_of in _RANK_COLUMNS.items()
        }
        per_rank = []
        for rank in range(ranks):
            row = {"rank": rank, **{name: loads[name][rank] for name in _RANK_COLUMNS}}
            row["groups"], row["jobs"] = int(row["groups"]), int(row["jobs"])
            per_rank.append(row)
        return {
            "backend": "serial",  # the campaign service stamps "service" over it
            "n_groups": len(self.groups),
            "n_jobs": sum(g.n_jobs for g in self.groups),
            "ranks": ranks,
            "groups": [group_record(g) for g in self.groups],
            "per_rank": per_rank,
        }
