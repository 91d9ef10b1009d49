"""Sweep packing onto virtual ranks: scheduling + per-rank accounting.

The paper's scaling figures (7, 8, 10) account for one distributed SCF; the
sweep layer packs whole ground-state groups onto ``ExecutionSettings.ranks``
virtual ranks and accounts each rank's predicted and observed seconds. This
benchmark measures a small real sweep at several rank counts, renders the
per-rank table, and checks the two properties the scheduler guarantees:
cost-aware packing balances the predicted per-rank makespan, and the physics
export is rank-count-invariant.
"""

import json

from repro.analysis import format_table
from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.cost import sweep_execution_point
from repro.exec import ExecutionSettings, Scheduler

#: a 4-group x 2-dt sweep on the tiny semi-local H2 system — large enough to
#: exercise packing onto 4 ranks, small enough to run in seconds
_BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}
_AXES = {"basis.ecut": [1.5, 1.7, 2.0, 2.2], "run.time_step_as": [1.0, 2.0]}


def _spec() -> SweepSpec:
    return SweepSpec(SimulationConfig.from_dict(_BASE), _AXES)


def test_packed_sweep_accounting(benchmark, report_writer):
    """A sweep packed onto 4 virtual ranks with makespan balancing."""

    def run():
        return BatchRunner(
            _spec(), settings=ExecutionSettings(ranks=4, schedule="makespan_balanced")
        ).run()

    report = benchmark(run)
    report_writer("sweep_packed_ranks", report.execution_table())

    per_rank = report.execution["per_rank"]
    assert sum(s["jobs"] for s in per_rank) == 8
    assert all(s["groups"] >= 1 for s in per_rank)
    assert all(s["observed_seconds"] > 0 for s in per_rank)

    one_rank = BatchRunner(_spec()).run()
    assert report.to_json(exclude_timings=True) == one_rank.to_json(exclude_timings=True)


def test_scheduler_policies_rank_groups_consistently(benchmark, report_writer):
    """Cost predictions order the policies' submission sequences as documented."""
    runner = BatchRunner(_spec())
    grouped = runner.groups()

    def schedule_all():
        return {
            policy: Scheduler(policy).schedule(grouped)
            for policy in ("fifo", "cheapest_first", "makespan_balanced")
        }

    schedules = benchmark(schedule_all)

    cheapest = [g.predicted_cost for g in schedules["cheapest_first"]]
    largest = [g.predicted_cost for g in schedules["makespan_balanced"]]
    assert cheapest == sorted(cheapest)
    assert largest == sorted(largest, reverse=True)
    assert [g.index for g in schedules["fifo"]] == list(range(len(grouped)))

    rows = [
        [policy, " ".join(str(g.index) for g in order), f"{sum(g.predicted_cost for g in order):.3g}"]
        for policy, order in schedules.items()
    ]
    report_writer(
        "sweep_scheduler_policies",
        format_table(["policy", "group order", "total predicted cost"], rows),
    )


def test_exports_are_identical_across_ranks(benchmark, report_writer):
    """The deterministic report export is invariant across rank counts."""

    def run_all():
        return {
            ranks: BatchRunner(_spec(), settings=ExecutionSettings(ranks=ranks)).run()
            for ranks in (1, 4)
        }

    reports = benchmark(run_all)
    exports = {ranks: r.to_json(exclude_timings=True) for ranks, r in reports.items()}
    assert exports[1] == exports[4]

    summary = json.loads(exports[1])
    report_writer(
        "sweep_rank_equivalence",
        format_table(
            ["ranks", "jobs", "completed", "export bytes"],
            [[ranks, summary["n_jobs"], summary["n_completed"], len(text)] for ranks, text in exports.items()],
        ),
    )


def _makespan_row(report, policy: str, ranks: int) -> dict:
    """One ``BENCH_sweep.json`` row: predicted vs observed makespan of a run,
    reduced from the per-rank accounting by
    :func:`repro.cost.sweep_execution_point` (the busiest rank)."""
    point = sweep_execution_point(report.execution)
    return {
        "policy": policy,
        "ranks": ranks,
        "predicted_makespan_s": point["predicted_makespan_s"],
        "observed_makespan_s": point["observed_makespan_s"],
    }


def test_bench_sweep_artifact(benchmark, results_dir, report_writer):
    """Emit the ``BENCH_sweep.json`` perf artifact (uploaded by CI).

    Schema: ``{"schema": "bench_sweep/2", "rows": [{policy, ranks,
    predicted_makespan_s, observed_makespan_s}, ...]}`` — the
    ranks-x-policy makespan matrix that seeds the performance trajectory.
    """
    matrix = [
        ("fifo", 1),
        ("makespan_balanced", 4),
        ("energy_aware", 4),
    ]

    def run_all():
        rows = []
        for policy, ranks in matrix:
            settings = ExecutionSettings(ranks=ranks, schedule=policy)
            report = BatchRunner(_spec(), settings=settings).run()
            rows.append(_makespan_row(report, policy, ranks))
        return rows

    rows = benchmark(run_all)

    artifact = {"schema": "bench_sweep/2", "rows": rows}
    path = results_dir / "BENCH_sweep.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"\n[BENCH_sweep] wrote {path}")

    report_writer(
        "sweep_rank_makespans",
        format_table(
            ["policy", "ranks", "predicted makespan [s]", "observed makespan [s]"],
            [
                [r["policy"], r["ranks"], r["predicted_makespan_s"], r["observed_makespan_s"]]
                for r in rows
            ],
        ),
    )

    assert all(r["predicted_makespan_s"] > 0 for r in rows)
    assert all(r["observed_makespan_s"] > 0 for r in rows)
    # balancing over 4 ranks must beat the 1-rank whole-sweep makespan
    by_key = {(r["policy"], r["ranks"]): r for r in rows}
    assert (
        by_key[("makespan_balanced", 4)]["predicted_makespan_s"]
        < by_key[("fifo", 1)]["predicted_makespan_s"]
    )
