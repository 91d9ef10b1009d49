"""The sweep orchestrator: spec → scheduler → backend → report.

:class:`BatchRunner` executes the jobs of a :class:`~repro.batch.SweepSpec`
and aggregates them into a :class:`~repro.batch.SweepReport`. Execution
policy lives in :mod:`repro.exec`; the runner only wires the pieces:

* **Settings.** Everything about *where and how* the sweep runs — backend,
  virtual rank count, scheduling policy, machine preset, GPUs per group,
  batched stepping, precision — is one frozen
  :class:`~repro.exec.ExecutionSettings` value: an explicit ``settings=``
  object (e.g. from a :class:`~repro.campaign.CampaignPlanner` plan), else the
  one the base config's ``run.schedule`` / ``run.machine`` sections describe.
* **Ground-state sharing.** Jobs are grouped by
  :func:`~repro.batch.sweep.ground_state_group_key`; each group runs through
  one caching :class:`~repro.api.Session`, so a {propagator} x {dt} sweep
  converges its SCF exactly once no matter how many propagations fan out.
  With a store the converged SCFs are persisted too, so a *resumed* sweep
  skips even the first group SCF.
* **Scheduling.** A :class:`~repro.exec.Scheduler` orders (and, for the
  distributed backend, packs) the groups by predicted wall seconds / joules —
  :mod:`repro.perf.sweep_cost` workload predictions turned machine-aware by a
  :class:`repro.cost.MachineCostModel` built from the settings — under
  ``fifo`` (default), ``cheapest_first``, ``makespan_balanced`` or
  ``energy_aware``.
* **Backends.** ``"serial"`` runs in-process; ``"process"`` dispatches one
  group per worker task to a process pool (falling back to serial with a
  warning naming the original error); ``"distributed"`` places groups onto
  virtual ranks of the simulated MPI runtime and logs per-rank
  dispatch/result communication volume into the report's execution summary.
* **Persistence.** With a ``store`` (a :class:`~repro.store.ResultStore`),
  every completed job is persisted; a rerun of the same sweep loads finished
  jobs (status ``"cached"``) instead of recomputing them — resume-after-crash
  is just "run it again". Settings never touch job identity, so rerunning
  under different settings reuses every stored result.

.. code-block:: python

    from repro.exec import ExecutionSettings
    from repro.store import ResultStore

    report = BatchRunner(
        SweepSpec(base, {"propagator.name": ["ptcn", "rk4"],
                         "run.time_step_as": [10.0, 50.0]}),
        store=ResultStore("sweep-store"),
        settings=ExecutionSettings(backend="distributed", ranks=4,
                                   schedule="makespan_balanced"),
    ).run()
    print(report.fig6_table())
    print(report.execution_table())
"""

from __future__ import annotations

from ..api.session import Session
from ..exec.settings import BACKEND_NAMES, ExecutionSettings
from ..store.store import ResultStore
from .report import SweepReport
from .sweep import SweepJob, SweepSpec, group_jobs

__all__ = ["BACKEND_NAMES", "BatchRunner"]


class BatchRunner:
    """Execute a sweep: expand, group, schedule, run, store, aggregate.

    Parameters
    ----------
    spec:
        The :class:`~repro.batch.SweepSpec` to execute.
    settings:
        The :class:`~repro.exec.ExecutionSettings` (or its ``as_dict`` form)
        describing where and how the sweep runs. ``None`` (default) takes the
        settings the base config's ``run.schedule`` / ``run.machine``
        sections describe.
    store:
        A content-addressed :class:`~repro.store.ResultStore` (or its root
        directory) serving and receiving results and shared ground states; it
        may be shared by any number of sweeps and campaigns, and any of them
        serves a hit for an already-computed config. ``None`` disables
        persistence.
    raise_on_error:
        If ``True``, the first failing job re-raises (completed jobs stay in
        the store, so the sweep is resumable). If ``False`` (default)
        failures are recorded as ``"failed"`` results and the sweep continues.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        settings: ExecutionSettings | dict | None = None,
        store=None,
        raise_on_error: bool = False,
    ):
        if settings is None:
            settings = ExecutionSettings.from_config(spec.base)
        elif isinstance(settings, dict):
            settings = ExecutionSettings.from_dict(settings)
        self.spec = spec
        self.settings = settings
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.scheduler = settings.scheduler()
        self.raise_on_error = bool(raise_on_error)
        self._sessions: dict[str, Session] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_plan(
        cls,
        plan,
        name: str | None = None,
        *,
        store=None,
        raise_on_error: bool = False,
    ) -> "BatchRunner":
        """The runner executing one sweep of a campaign :class:`~repro.campaign.ExecutionPlan`.

        ``name`` selects the sweep (optional when the plan holds exactly one);
        the runner gets the plan's chosen :class:`~repro.exec.ExecutionSettings`,
        so its report records the provenance the planner decided on while the
        physics export stays bit-identical to a hand-configured run.
        """
        names = list(plan.sweep_names)
        if name is None:
            if len(names) != 1:
                raise ValueError(
                    f"the plan holds {len(names)} sweeps {names}; "
                    "pass name= to pick the one to run"
                )
            name = names[0]
        return cls(
            plan.sweep_spec(name),
            settings=plan.settings,
            store=store,
            raise_on_error=raise_on_error,
        )

    # ------------------------------------------------------------------
    def groups(self) -> dict[str, list[SweepJob]]:
        """Expanded jobs grouped by ground-state key, in expansion order
        (see :func:`repro.batch.sweep.group_jobs`)."""
        return group_jobs(self.spec)

    def prepare_ground_states(self) -> int:
        """Converge (in-process) the shared ground state of every group that
        still has unstored jobs; returns the number of SCFs run.

        Separates the expensive warm-up from :meth:`run` — benchmarks time the
        sweep without the SCF, services can prepare caches ahead of traffic.
        Groups whose SCF is already in the store adopt it instead of
        reconverging (and count as zero SCFs); freshly converged ones are
        persisted for future sweeps, best-effort like every ground-state
        write of :func:`~repro.exec.execute_group`. Only the serial backend
        reuses these warm sessions (process/distributed workers rebuild their
        own); the one-SCF-per-group property holds either way.
        """
        from ..exec.backends import _persist_ground_state  # deferred: repro.exec imports repro.batch

        store = self.store
        count = 0
        for key, jobs in self.groups().items():
            if store is not None and all(store.has(job) for job in jobs):
                continue
            session = self._sessions.get(key)
            if session is None:
                session = Session(jobs[0].config)
                self._sessions[key] = session
            if session.ground_state_ready:
                continue
            if store is not None:
                shared = store.load_ground_state(key, basis=session.basis)
                if shared is not None:
                    session.adopt_ground_state(shared)
                    continue
            session.ground_state()
            count += 1
            if store is not None:
                _persist_ground_state(store, key, session)
        return count

    # ------------------------------------------------------------------
    def _make_backend(self):
        from ..exec import DistributedBackend, ProcessPoolBackend, SerialBackend  # deferred, as above

        options = dict(
            store=self.store,
            raise_on_error=self.raise_on_error,
            batch_stepping=self.settings.batch_stepping,
            precision=self.settings.precision,
        )
        backend = self.settings.backend
        if backend == "process":
            return ProcessPoolBackend(
                max_workers=self.settings.max_workers, sessions=self._sessions, **options
            )
        if backend == "distributed":
            return DistributedBackend(
                ranks=self.settings.ranks, placement=self.settings.placement(), **options
            )
        return SerialBackend(sessions=self._sessions, **options)

    def run(self) -> SweepReport:
        """Schedule and execute every job; return the aggregated report."""
        from ..exec.backends import store_record  # deferred, as above

        scheduled = self.scheduler.schedule(self.groups())
        backend = self._make_backend()
        if self.settings.backend == "distributed":
            self.scheduler.pack(scheduled, backend.ranks)
        for group in scheduled:
            backend.submit_group(group)
        results = backend.drain()
        execution = backend.execution_summary()
        execution["schedule"] = self.scheduler.policy
        if self.store is not None:
            execution["store"] = store_record(self.store, results)
        return SweepReport(
            results,
            axes=self.spec.axis_paths,
            execution=execution,
            settings=self.settings.as_dict(),
        )
