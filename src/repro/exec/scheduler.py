"""Machine-aware ordering and packing of sweep ground-state groups.

The unit of scheduling is the *ground-state group* (all jobs sharing one SCF,
see :func:`repro.batch.sweep.ground_state_group_key`): groups are what the
backends dispatch, so they are what the scheduler orders and places. Costs are
layered the way the paper planned its campaigns: relative FLOPs from
:mod:`repro.perf.sweep_cost` (the cheap config layers only), turned into
predicted wall seconds and joules on a parameterised Summit by a
:class:`repro.cost.MachineCostModel` — so the scheduler packs by *time on the
machine*, not by unitless work.

Policies (``run.schedule.policy`` in :class:`~repro.api.SimulationConfig`, or
``ExecutionSettings(schedule=...)``):

* ``"fifo"`` — expansion order, cost-blind (the pre-existing behaviour);
  packing onto ranks is round-robin.
* ``"cheapest_first"`` — ascending predicted wall time: short jobs surface
  early, a sweep with a wall-time budget gets the most results per hour.
* ``"makespan_balanced"`` — descending predicted wall time (LPT), so greedy
  least-loaded packing bounds the distributed makespan at ``(4/3 - 1/3m)`` of
  the optimum; packing weighs groups by predicted *seconds*.
* ``"energy_aware"`` — descending predicted energy to solution; ordering and
  packing weigh groups by predicted *joules* (watts of the occupied nodes
  times seconds), which differs from time whenever groups occupy differently
  sized machine slices (``run.machine.gpus_per_group``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api.config import SCHEDULE_POLICIES
from ..cost.model import MachineCostModel, machine_name
from ..perf.sweep_cost import predict_group_cost, workload_sizes

__all__ = ["SCHEDULE_POLICIES", "ScheduledGroup", "Scheduler"]


@dataclass
class ScheduledGroup:
    """One ground-state group as placed by the :class:`Scheduler`.

    Attributes
    ----------
    key:
        The :func:`~repro.batch.sweep.ground_state_group_key` of the group.
    index:
        Position in expansion order (stable tiebreaker across policies).
    jobs:
        The group's :class:`~repro.batch.SweepJob`\\ s, in expansion order.
    predicted_cost:
        Relative cost from :func:`~repro.perf.sweep_cost.predict_group_cost`
        (``nan`` when prediction failed, e.g. an exotic custom structure).
    predicted_seconds:
        Predicted wall-clock seconds on the modeled machine slice (``nan``
        without a machine model or when prediction failed).
    predicted_energy_j:
        Predicted energy to solution in Joules (``nan`` as above).
    n_gpus:
        Modeled GPUs the group occupies (``run.machine.gpus_per_group``).
    rank:
        Assigned virtual rank (set by :meth:`Scheduler.pack`; ``None`` for
        purely local backends).
    machine, propagator, n_bands, n_grid:
        Self-describing identity for calibration observations
        (:mod:`repro.calib`): the machine preset the prediction was priced
        on, the group's propagator (``None`` when its jobs mix propagators —
        the group key excludes them), and the workload sizes from
        :func:`~repro.perf.sweep_cost.workload_sizes`.
    observed_seconds:
        Wall seconds the group actually took, stamped by the backends after
        execution (``nan`` until then).
    repriced_seconds:
        Calibration-corrected predicted seconds, stamped by an adaptive
        re-pack (:func:`repro.service.run_sweep`); ``nan`` otherwise. Kept
        separate from :attr:`predicted_seconds` so observations always pair
        the *model's* prediction with reality — re-priced accounting never
        feeds back into the next fit.
    """

    key: str
    index: int
    jobs: list = field(repr=False)
    predicted_cost: float = float("nan")
    predicted_seconds: float = float("nan")
    predicted_energy_j: float = float("nan")
    n_gpus: int = 1
    rank: int | None = None
    machine: str | None = None
    propagator: str | None = None
    n_bands: int | None = None
    n_grid: int | None = None
    observed_seconds: float = float("nan")
    repriced_seconds: float = float("nan")

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the group."""
        return len(self.jobs)

    @property
    def weight(self) -> float:
        """Best-effort load of this group alone: predicted seconds on the
        machine, falling back to the relative FLOPs, then to 1.0. Packing
        never mixes these units across groups — see
        :meth:`Scheduler._weight_metric`."""
        for value in (self.predicted_seconds, self.predicted_cost):
            if np.isfinite(value) and value > 0:
                return float(value)
        return 1.0

    @property
    def planned_seconds(self) -> float:
        """The group's best current time estimate for pool/segment accounting:
        calibration-repriced seconds when an adaptive re-pack stamped them,
        else the model's prediction, else the generic :attr:`weight`."""
        for value in (self.repriced_seconds, self.predicted_seconds):
            if np.isfinite(value) and value > 0:
                return float(value)
        return self.weight

    def metric_value(self, metric: str) -> float:
        """The group's load in one named unit (``Scheduler._weight_metric``)."""
        if metric == "energy":
            return float(self.predicted_energy_j)
        if metric == "seconds":
            return float(self.predicted_seconds)
        if metric == "cost":
            return float(self.predicted_cost)
        return 1.0


class Scheduler:
    """Order and pack ground-state groups by predicted time and energy.

    Parameters
    ----------
    policy:
        One of :data:`SCHEDULE_POLICIES`.
    cost_fn:
        Override for the workload model: a callable taking the list of
        expanded :class:`~repro.api.SimulationConfig`\\ s of one group and
        returning a relative cost. Defaults to
        :func:`repro.perf.sweep_cost.predict_group_cost`. The machine model
        converts whatever this returns into seconds, so a custom workload
        model keeps machine-aware packing.
    machine:
        The :class:`repro.cost.MachineCostModel` turning relative costs into
        predicted seconds and joules. Defaults to the Summit model; pass
        ``None`` to schedule on relative FLOPs only (no wall-clock
        predictions).
    batch_stepping:
        Predict group costs with the lockstep-stepping amortization of
        :func:`~repro.perf.sweep_cost.predict_group_cost` applied — matches
        how the backends will actually run when batched stepping is enabled.
        Ignored by a custom ``cost_fn``.
    calibration:
        A fitted :class:`~repro.calib.CalibrationModel`: the machine model is
        replaced by its :meth:`~repro.cost.MachineCostModel.calibrated` copy,
        so every prediction (and therefore every ordering and packing) uses
        observed-corrected seconds. Equivalent to passing an already
        calibrated model as ``machine=``.
    """

    def __init__(
        self, policy: str = "fifo", cost_fn=None,
        machine: MachineCostModel | None = MachineCostModel(),  # frozen: safe to share
        batch_stepping: bool = False, calibration=None,
    ):
        if policy not in SCHEDULE_POLICIES:
            raise ValueError(
                f"schedule policy must be one of {list(SCHEDULE_POLICIES)}, got {policy!r}"
            )
        self.policy = policy
        self.batch_stepping = bool(batch_stepping)
        if cost_fn is None:
            def cost_fn(configs, _batched=self.batch_stepping):
                return predict_group_cost(configs, batch_stepping=_batched)
        self.cost_fn = cost_fn
        self.machine = machine
        if calibration is not None and self.machine is not None:
            self.machine = self.machine.calibrated(calibration)

    # ------------------------------------------------------------------
    def predict_cost(self, jobs) -> float:
        """Predicted relative cost of one group (``nan`` if prediction fails).

        A failing cost model must never fail the sweep — scheduling degrades
        to expansion order, the physics still runs.
        """
        try:
            return float(self.cost_fn([job.config for job in jobs]))
        except Exception:
            return float("nan")

    def _annotate(self, group: ScheduledGroup) -> None:
        """Attach the machine-model predictions to one group (best-effort).

        The machine only converts the workload prediction already on the
        group; when that prediction failed (``nan``) the wall-clock fields
        stay ``nan`` too, so a deliberately disabled cost model degrades every
        policy to expansion order instead of resurrecting a default.
        """
        self._stamp_identity(group)
        if self.machine is None or not np.isfinite(group.predicted_cost):
            return
        try:
            estimate = self.machine.group_estimate(
                [job.config for job in group.jobs], flops=group.predicted_cost
            )
        except Exception:
            return
        group.predicted_seconds = float(estimate.seconds)
        group.predicted_energy_j = float(estimate.energy_joules)
        group.n_gpus = int(estimate.n_gpus)

    def _stamp_identity(self, group: ScheduledGroup) -> None:
        """Make the group's execution record self-describing (best-effort).

        Machine preset, propagator and workload sizes are what a calibration
        observation (:mod:`repro.calib`) needs to bucket the group without
        re-expanding configs; a group whose jobs mix propagators (the group
        key excludes them) is stamped ``propagator=None`` and only informs
        the machine-wide bucket. Stamping failures leave fields ``None`` —
        identity is provenance, never load-bearing for execution.
        """
        if self.machine is not None:
            group.machine = machine_name(self.machine.system)
        if not group.jobs:
            return
        names = {job.config.propagator.name for job in group.jobs}
        group.propagator = names.pop() if len(names) == 1 else None
        try:
            n_bands, n_grid = workload_sizes(group.jobs[0].config)
            group.n_bands, group.n_grid = int(n_bands), int(n_grid)
        except Exception:
            pass

    def _order_metric(self, group: ScheduledGroup) -> float:
        """What the cost-ordered policies sort by (energy for energy-aware,
        else predicted seconds, falling back to relative FLOPs)."""
        candidates = (
            (group.predicted_energy_j,) if self.policy == "energy_aware" else ()
        ) + (group.predicted_seconds, group.predicted_cost)
        for value in candidates:
            if np.isfinite(value):
                return float(value)
        return float("nan")

    def schedule(self, grouped: dict[str, list]) -> list[ScheduledGroup]:
        """Annotate and order the groups of a sweep according to the policy.

        ``grouped`` maps group key to job list in expansion order (the shape
        :meth:`repro.batch.BatchRunner.groups` returns). The returned order is
        the submission order; unpredictable (``nan``-cost) groups keep their
        expansion position at the end of cost-ordered policies.
        """
        groups = [
            ScheduledGroup(key=key, index=index, jobs=list(jobs), predicted_cost=self.predict_cost(jobs))
            for index, (key, jobs) in enumerate(grouped.items())
        ]
        for group in groups:
            self._annotate(group)
        if self.policy == "cheapest_first":
            groups.sort(key=lambda g: (not np.isfinite(self._order_metric(g)), self._order_metric(g), g.index))
        elif self.policy in ("makespan_balanced", "energy_aware"):
            groups.sort(key=lambda g: (not np.isfinite(self._order_metric(g)), -self._order_metric(g), g.index))
        return groups

    def _weight_metric(self, groups: list[ScheduledGroup]) -> str:
        """The one unit every group of a packing is weighed in.

        The richest metric *available on every group* wins: joules (energy
        policy only), then seconds, then relative FLOPs, then uniform 1.0.
        Choosing per packing rather than per group means a single failed
        machine estimate degrades the whole packing one level instead of
        mixing seconds with FLOPs (units ~15 orders of magnitude apart, which
        would pin one rank); all-unknown costs degrade to round-robin.
        """
        if self.policy == "fifo":
            return "uniform"
        candidates = (("energy",) if self.policy == "energy_aware" else ()) + ("seconds", "cost")
        for metric in candidates:
            values = [group.metric_value(metric) for group in groups]
            if all(np.isfinite(v) and v > 0 for v in values):
                return metric
        return "uniform"

    def pack(self, groups: list[ScheduledGroup], n_ranks: int) -> list[list[ScheduledGroup]]:
        """Place ordered groups onto ``n_ranks`` virtual ranks.

        Greedy least-loaded assignment in the given order. The load unit
        matches the policy (see :meth:`_weight_metric`): predicted seconds
        for the time-aware policies, predicted joules for ``"energy_aware"``;
        under ``"fifo"`` every group weighs 1, which makes the greedy
        equivalent to round-robin. Sets each group's
        :attr:`~ScheduledGroup.rank` and returns the per-rank lists.
        """
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        metric = self._weight_metric(groups)
        loads = [0.0] * n_ranks
        bins: list[list[ScheduledGroup]] = [[] for _ in range(n_ranks)]
        for group in groups:
            rank = min(range(n_ranks), key=lambda r: (loads[r], r))
            group.rank = rank
            bins[rank].append(group)
            loads[rank] += group.metric_value(metric)
        return bins

    def makespan(self, bins: list[list[ScheduledGroup]]) -> float:
        """Predicted makespan of a packing: the heaviest rank's total load,
        in the same unit :meth:`pack` balanced — predicted seconds for the
        time-aware policies, predicted joules under ``"energy_aware"``."""
        if not bins:
            return 0.0
        metric = self._weight_metric([group for rank_groups in bins for group in rank_groups])
        return max(
            sum(g.metric_value(metric) for g in rank_groups) for rank_groups in bins
        )
