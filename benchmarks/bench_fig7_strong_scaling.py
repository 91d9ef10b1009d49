"""Fig. 7: strong scaling of the total time and of the individual components.

Two levels: the paper's own per-SCF-step strong scaling (the component model
vs Table 1), and the *sweep-level* analogue — the same fixed workload of
ground-state groups packed onto a growing number of virtual ranks, with the
makespan predicted by the machine-aware cost stack from the per-rank
accounting ``SweepReport.execution`` records.
"""

import pytest

from repro.analysis import TABLE1, TABLE1_GPU_COUNTS, format_table
from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.cost import sweep_execution_point
from repro.exec import ExecutionSettings
from repro.perf import parallel_efficiency, strong_scaling


def test_fig7_strong_scaling(benchmark, report_writer):
    points = benchmark(strong_scaling, 1536, TABLE1_GPU_COUNTS)

    rows = []
    for i, p in enumerate(points):
        rows.append(
            [
                p.n_gpus,
                TABLE1["total_step_time"][i],
                p.total_step_time,
                TABLE1["hpsi_total"][i],
                p.components["hpsi_total"],
                p.components["residual_total"],
                p.components["anderson_total"],
                p.components["others"],
            ]
        )
    table = format_table(
        [
            "#GPUs",
            "paper total [s]",
            "model total [s]",
            "paper HPsi [s/SCF]",
            "model HPsi [s/SCF]",
            "residual [s/SCF]",
            "Anderson [s/SCF]",
            "others [s/SCF]",
        ],
        rows,
    )
    report_writer("fig7_strong_scaling", table)

    # near-ideal scaling below 384 GPUs, saturation beyond 768 (paper Section 6)
    efficiency = parallel_efficiency(points)
    assert efficiency[list(TABLE1_GPU_COUNTS).index(288)] > 0.7
    assert points[-1].total_step_time > 0.8 * points[-3].total_step_time
    # speedup over CPU peaks around 34x
    best = max(p.speedup_vs_cpu for p in points)
    assert best == pytest.approx(34.0, rel=0.3)


#: a fixed 4-group x 2-dt sweep on the tiny semi-local H2 system, the
#: sweep-level strong-scaling workload (same groups, more ranks)
_SWEEP_BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}
_SWEEP_AXES = {"basis.ecut": [1.5, 1.7, 2.0, 2.2], "run.time_step_as": [1.0, 2.0]}


def test_fig7_sweep_strong_scaling(benchmark, report_writer):
    """Sweep-level strong scaling: fixed groups, growing virtual rank count.

    Each point packs the same sweep onto more ranks with makespan balancing;
    the curve is built from the per-rank predicted wall seconds of
    ``SweepReport.execution``.
    """
    rank_counts = (1, 2, 4)

    def run_all():
        points = {}
        for ranks in rank_counts:
            report = BatchRunner(
                SweepSpec(SimulationConfig.from_dict(_SWEEP_BASE), _SWEEP_AXES),
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
            base["predicted_makespan_s"] / p["predicted_makespan_s"],
            p["observed_makespan_s"],
        ]
        for ranks, p in points.items()
    ]
    report_writer(
        "fig7_sweep_strong_scaling",
        format_table(
            ["ranks", "groups", "predicted makespan [s]", "speedup", "observed makespan [s]"],
            rows,
        ),
    )

    # the same jobs ran at every rank count
    assert len({p["n_jobs"] for p in points.values()}) == 1
    # strong scaling: predicted makespan falls monotonically with rank count,
    # and the speedup at 4 ranks is real (> 2x over one rank for 4 groups)
    makespans = [points[r]["predicted_makespan_s"] for r in rank_counts]
    assert all(b < a for a, b in zip(makespans, makespans[1:]))
    assert makespans[0] / makespans[-1] > 2.0
    assert all(p["ranks"] == ranks for ranks, p in points.items())
