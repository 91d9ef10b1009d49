"""Fig. 8: weak scaling from 48 to 1536 silicon atoms with GPUs = atoms / 2.

Two levels: the paper's own weak scaling (the component model vs the quoted
per-50-as times), and the *sweep-level* analogue — one equal-cost ground-state
group per virtual rank, so the workload grows with the rank count and the
machine-predicted makespan from ``SweepReport.execution`` should stay flat.
"""

import pytest

from repro.analysis import PAPER_SCALARS, format_table
from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.cost import sweep_execution_point
from repro.exec import ExecutionSettings
from repro.perf import weak_scaling


def test_fig8_weak_scaling(benchmark, report_writer):
    points = benchmark(weak_scaling)

    rows = [
        [p.natoms, p.n_gpus, p.time_per_50as, p.ideal_time_per_50as]
        for p in points
    ]
    table = format_table(
        ["atoms", "#GPUs", "model time per 50 as [s]", "ideal O(N^2) [s]"], rows
    )
    report_writer("fig8_weak_scaling", table)

    by_atoms = {p.natoms: p for p in points}
    # paper quotes ~16 s per 50 as for Si192 on 96 GPUs and ~260 s for Si1536 on 768
    assert by_atoms[192].time_per_50as == pytest.approx(
        PAPER_SCALARS["si192_seconds_per_50as_96gpu"], rel=1.0
    )
    assert by_atoms[1536].time_per_50as == pytest.approx(
        PAPER_SCALARS["seconds_per_ptcn_step_768gpu"], rel=0.25
    )
    # monotone growth, staying at or below the N^2 line anchored at 48 atoms
    times = [p.time_per_50as for p in points]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert by_atoms[1536].time_per_50as <= by_atoms[1536].ideal_time_per_50as


#: equal-cost ground-state groups (same structure/basis, different bond
#: lengths) — the unit tile of the sweep-level weak-scaling series
_WEAK_BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}
_BOND_LENGTHS = [1.3, 1.4, 1.5, 1.6]


def test_fig8_sweep_weak_scaling(benchmark, report_writer):
    """Sweep-level weak scaling: one equal-cost group per virtual rank.

    Groups share structure type, basis and grid (only the bond length moves),
    so each rank receives the same predicted work at every scale and the
    machine-predicted makespan built from the per-rank ``SweepReport.execution``
    accounting stays flat — the sweep analogue of the paper's Fig. 8 curve.
    """
    rank_counts = (1, 2, 4)

    def run_all():
        points = {}
        for ranks in rank_counts:
            spec = SweepSpec(
                SimulationConfig.from_dict(_WEAK_BASE),
                {"system.params.bond_length": _BOND_LENGTHS[:ranks]},
            )
            report = BatchRunner(
                spec,
                settings=ExecutionSettings(ranks=ranks, schedule="makespan_balanced"),
            ).run()
            points[ranks] = sweep_execution_point(report.execution)
        return points

    points = benchmark(run_all)

    base = points[rank_counts[0]]
    rows = [
        [
            ranks,
            p["n_groups"],
            p["predicted_makespan_s"],
            p["predicted_makespan_s"] / base["predicted_makespan_s"],
            p["predicted_energy_j"],
        ]
        for ranks, p in points.items()
    ]
    report_writer(
        "fig8_sweep_weak_scaling",
        format_table(
            ["ranks", "groups", "predicted makespan [s]", "vs 1 rank", "energy [J]"],
            rows,
        ),
    )

    # one group per rank at every scale
    assert all(p["n_groups"] == ranks for ranks, p in points.items())
    # weak scaling: the predicted makespan stays flat (equal-cost tiles), while
    # the total predicted energy grows with the number of occupied nodes' work
    makespans = [points[r]["predicted_makespan_s"] for r in rank_counts]
    assert max(makespans) <= 1.2 * min(makespans)
    energies = [points[r]["predicted_energy_j"] for r in rank_counts]
    assert all(b > a for a, b in zip(energies, energies[1:]))
