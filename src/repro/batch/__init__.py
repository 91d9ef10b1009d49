"""Config-driven batch sweeps over the declarative simulation API.

The batch layer turns the hand-written comparison loops of the examples and
benchmarks into one declarative call: a :class:`SweepSpec` expands a base
:class:`~repro.api.SimulationConfig` over axes (time step, propagator,
supercell size, pulse, ...), a :class:`BatchRunner` executes the job list —
sharing one ground-state SCF per compatible group, scheduling and placing
groups through the :mod:`repro.exec` layer (serial or simulated-MPI
distributed, both in-process), storing every completed job *and* every
converged SCF in a :class:`~repro.store.ResultStore` for resume-after-crash —
and a :class:`SweepReport` aggregates the results into the paper's tables
(Fig. 6-style cost comparison, dt-vs-accuracy, propagator-x-dt pivots) plus
the per-rank execution summary.

.. code-block:: python

    from repro.api import SimulationConfig
    from repro.batch import BatchRunner, SweepSpec
    from repro.store import ResultStore

    spec = SweepSpec(
        SimulationConfig.from_dict({"system": {"structure": "hydrogen_molecule"}}),
        axes={
            "propagator.name": ["ptcn", "rk4"],
            "run": [{"time_step_as": 10.0, "n_steps": 6},
                    {"time_step_as": 20.0, "n_steps": 3}],
        },
    )
    report = BatchRunner(spec, store=ResultStore("sweep-store")).run()
    print(report.fig6_table())
    print(report.accuracy_table())
"""

from .report import JobResult, SweepReport
from .runner import BatchRunner
from .sweep import SweepJob, SweepSpec, config_hash, ground_state_group_key

__all__ = [
    "BatchRunner",
    "JobResult",
    "SweepJob",
    "SweepReport",
    "SweepSpec",
    "config_hash",
    "ground_state_group_key",
]
