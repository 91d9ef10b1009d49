"""Machine-aware cost stack: workload → machine → wall-clock time and energy.

The layer that makes :mod:`repro.machine` load-bearing for execution. It joins
the relative-FLOP workload predictions of :mod:`repro.perf.sweep_cost` with
the hardware model (GPU roofline throughput, NVLink / X-Bus / InfiniBand link
speeds, whole-node power) so the sweep scheduler can pack ground-state groups
by predicted *seconds* and reports can show predicted vs observed wall time
and energy per virtual rank — the paper's Section 5/6 campaign-planning
arithmetic, applied to our own sweeps.
"""

from .model import (
    MACHINES,
    CalibratedCostModel,
    CostEstimate,
    MachineCostModel,
    machine_name,
    resolve_machine,
    sweep_execution_point,
)

__all__ = [
    "MACHINES",
    "CalibratedCostModel",
    "CostEstimate",
    "MachineCostModel",
    "machine_name",
    "resolve_machine",
    "sweep_execution_point",
]
