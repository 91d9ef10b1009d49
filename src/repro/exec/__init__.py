"""Execution layer for config sweeps: scheduler + in-process group executor.

The paper's headline is dispatching PT-CN rt-TDDFT across thousands of Summit
GPUs under a communication cost model; this package is the sweep-level
analogue. It separates *what* a sweep computes (:mod:`repro.batch`) from
*when and where* each ground-state group runs:

* a :class:`Scheduler` orders and packs groups using predicted wall seconds
  and joules — :mod:`repro.perf.sweep_cost` workload predictions converted by
  the :class:`repro.cost.MachineCostModel` machine model (``fifo`` /
  ``cheapest_first`` / ``makespan_balanced`` / ``energy_aware``, selectable
  via ``run.schedule`` in :class:`~repro.api.SimulationConfig`);
* :class:`SerialBackend` runs them, in-process, one group at a time through
  :func:`execute_group`, and reports a model-only ``per_rank`` account of the
  packing (predicted vs observed seconds per virtual rank) — the rank count
  is ``ExecutionSettings.ranks`` and never changes the physics.

:class:`~repro.batch.BatchRunner` is the thin orchestrator on top:
spec → schedule → pack → execute → report. Everything the runner needs to know
about *where and how* to run is one frozen, JSON-round-trippable
:class:`ExecutionSettings` value — the object a
:class:`~repro.campaign.CampaignPlanner` emits for a machine budget and
``BatchRunner(spec, settings=...)`` consumes.
"""

from .settings import ExecutionSettings  # noqa: I001  (first: no batch deps)
from .backends import SerialBackend, execute_group
from .scheduler import SCHEDULE_POLICIES, ScheduledGroup, Scheduler

__all__ = [
    "ExecutionSettings",
    "SCHEDULE_POLICIES",
    "ScheduledGroup",
    "Scheduler",
    "SerialBackend",
    "execute_group",
]
