"""Execution layer for config sweeps: scheduler + in-process backends.

The paper's headline is dispatching PT-CN rt-TDDFT across thousands of Summit
GPUs under a communication cost model; this package is the sweep-level
analogue. It separates *what* a sweep computes (:mod:`repro.batch`) from
*when and where* each ground-state group runs:

* a :class:`Scheduler` orders and packs groups using predicted wall seconds
  and joules — :mod:`repro.perf.sweep_cost` workload predictions converted by
  the :class:`repro.cost.MachineCostModel` machine model (``fifo`` /
  ``cheapest_first`` / ``makespan_balanced`` / ``energy_aware``, selectable
  via ``run.schedule`` in :class:`~repro.api.SimulationConfig`);
* a backend runs them, in-process, one group at a time through
  :func:`execute_group` — :class:`SerialBackend` as is, and
  :class:`DistributedBackend` placed onto the virtual ranks of the simulated
  MPI runtime (:class:`~repro.parallel.SimCommunicator`), with
  dispatch/result communication volume logged per rank and every transfer
  attributed to a modeled Summit link (NVLink / X-Bus / InfiniBand) by a
  :class:`repro.cost.NodePlacement`.

:class:`~repro.batch.BatchRunner` is the thin orchestrator on top:
spec → scheduler → backend → report. Everything the runner needs to know
about *where and how* to run is one frozen, JSON-round-trippable
:class:`ExecutionSettings` value — the object a
:class:`~repro.campaign.CampaignPlanner` emits for a machine budget and
``BatchRunner(spec, settings=...)`` consumes.
"""

from .settings import BACKEND_NAMES, ExecutionSettings  # noqa: I001  (first: no batch deps)
from .backends import DistributedBackend, SerialBackend, execute_group
from .scheduler import SCHEDULE_POLICIES, ScheduledGroup, Scheduler

__all__ = [
    "BACKEND_NAMES",
    "ExecutionSettings",
    "SCHEDULE_POLICIES",
    "ScheduledGroup",
    "Scheduler",
    "SerialBackend",
    "DistributedBackend",
    "execute_group",
]
