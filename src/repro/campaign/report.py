"""Aggregated campaign results: per-sweep reports plus the plan they ran under.

A :class:`CampaignReport` is what :meth:`repro.campaign.ExecutionPlan.execute`
returns: the :class:`~repro.batch.SweepReport` of every named sweep, the
plan's JSON record (chosen settings, budget, per-sweep predictions), and the
elapsed wall time of each sweep. :meth:`plan_table` renders the campaign's
accounting — predicted vs observed wall time and predicted energy per sweep —
the way the paper's Table 1 / Fig. 7 compare modeled and measured times; the
JSON export round-trips through :meth:`from_json`.
"""

from __future__ import annotations

import copy
import json

from ..analysis import format_table
from ..batch.report import SweepReport
from ..core.dynamics import json_default
from ..exec.backends import group_wall_seconds

__all__ = ["CampaignReport"]


def _observed_wall_seconds(report: SweepReport) -> float:
    """The sweep's observed makespan: the busiest simulated rank's in-process
    wall time when per-rank accounting exists, else the summed job wall
    times (serial/process backends run one group after another).

    Per-rank entries are tolerated missing or malformed — a crashed rank may
    never have reported its stats dict — in which case the makespan degrades
    to the summed-job rule instead of raising on a partial report.
    """
    per_rank = [
        stats for stats in (report.execution.get("per_rank") or [])
        if isinstance(stats, dict)
    ]
    if per_rank:
        return max(float(stats.get("observed_seconds") or 0.0) for stats in per_rank)
    return group_wall_seconds(report.results)


def _drift(predicted, observed) -> str:
    """The per-sweep drift cell: ``observed / predicted`` as the calibration
    layer measures it (``"-"`` without a usable prediction). Large values are
    expected here — predictions are modeled-machine seconds, observations
    in-process wall time — the *spread across sweeps* is what flags a
    miscalibrated bucket."""
    try:
        predicted = float(predicted)
        observed = float(observed)
    except (TypeError, ValueError):
        return "-"
    if not (predicted > 0.0) or observed < 0.0:
        return "-"
    return f"{observed / predicted:.3g}x"


class CampaignReport:
    """The results of one executed campaign, in plan order.

    Parameters
    ----------
    plan:
        The :meth:`repro.campaign.ExecutionPlan.as_dict` record the campaign
        ran under (an :class:`~repro.campaign.ExecutionPlan` is accepted and
        converted).
    reports:
        Mapping of sweep name → :class:`~repro.batch.SweepReport`.
    elapsed_seconds:
        Optional mapping of sweep name → in-process elapsed seconds measured
        around each sweep (recorded by ``execute``; derived observed times
        come from the reports themselves, so loaded campaigns work without
        it).
    """

    def __init__(self, plan, reports: dict[str, SweepReport], elapsed_seconds: dict | None = None):
        if hasattr(plan, "as_dict"):
            plan = plan.as_dict()
        if not isinstance(plan, dict):
            raise ValueError(f"plan must be an ExecutionPlan or its dict form, got {type(plan).__name__}")
        self.plan = copy.deepcopy(plan)
        self.reports: dict[str, SweepReport] = dict(reports)
        self.elapsed_seconds = dict(elapsed_seconds or {})

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.reports)

    def __getitem__(self, name: str) -> SweepReport:
        try:
            return self.reports[name]
        except KeyError:
            raise KeyError(
                f"unknown sweep {name!r}; campaign sweeps: {list(self.reports)}"
            ) from None

    @property
    def sweep_names(self) -> list[str]:
        """The executed sweeps, in campaign order."""
        return list(self.reports)

    @property
    def settings(self) -> dict:
        """The chosen :meth:`~repro.exec.ExecutionSettings.as_dict` record."""
        return dict(self.plan.get("settings", {}))

    @property
    def n_jobs(self) -> int:
        """Total jobs across every sweep."""
        return sum(len(report) for report in self.reports.values())

    @property
    def n_failed(self) -> int:
        """Total failed jobs across every sweep."""
        return sum(len(report.failed) for report in self.reports.values())

    @property
    def n_cached(self) -> int:
        """Total store-served jobs across every sweep — the campaign's
        incremental-execution metric (0 on a cold store, ``n_jobs`` on a
        fully warm re-run)."""
        return sum(report.n_cached for report in self.reports.values())

    @property
    def ok(self) -> bool:
        """Whether every job of every sweep produced a usable trajectory."""
        return self.n_failed == 0

    # ------------------------------------------------------------------
    # Partial / in-flight views (service handles build these mid-campaign)
    # ------------------------------------------------------------------
    @property
    def planned_sweeps(self) -> list[str]:
        """Every sweep the plan named, in plan order (reported or not)."""
        return list(self.plan.get("sweeps", {}))

    @property
    def pending_sweeps(self) -> list[str]:
        """Planned sweeps with no report yet — non-empty for the partial
        reports a :class:`repro.service.CampaignHandle` (or the
        ``partial_report`` attribute of a failed ``execute``) exposes
        mid-campaign."""
        return [name for name in self.planned_sweeps if name not in self.reports]

    @property
    def complete(self) -> bool:
        """Whether every planned sweep has reported."""
        return not self.pending_sweeps

    def observed_wall_seconds(self, name: str) -> float:
        """One sweep's observed makespan (see module docstring for the rule)."""
        return _observed_wall_seconds(self[name])

    # ------------------------------------------------------------------
    # The campaign accounting table
    # ------------------------------------------------------------------
    def plan_table(self) -> str:
        """Predicted-vs-observed accounting, one row per sweep.

        Predictions are modeled-machine seconds/joules from the plan; the
        observed column is the in-process wall time of this (laptop-scale)
        reproduction — the point of the table is the *shape* of the
        comparison, exactly like the paper's predicted-vs-measured tables.
        """
        planned = self.plan.get("sweeps", {})
        headers = [
            "sweep", "jobs", "failed", "cached",
            "predicted wall [s]", "observed wall [s]", "drift", "predicted energy [J]",
        ]
        rows = []
        for name, report in self.reports.items():
            prediction = planned.get(name, {})
            observed = _observed_wall_seconds(report)
            rows.append(
                [
                    name,
                    len(report),
                    len(report.failed),
                    report.n_cached,
                    prediction.get("predicted_wall_seconds", "-"),
                    observed,
                    _drift(prediction.get("predicted_wall_seconds"), observed),
                    prediction.get("predicted_energy_joules", "-"),
                ]
            )
        for name in self.pending_sweeps:
            # in-flight campaigns: render unreported sweeps prediction-only
            prediction = planned.get(name, {})
            rows.append(
                [
                    name,
                    prediction.get("n_jobs", "-"),
                    "-",
                    "-",
                    prediction.get("predicted_wall_seconds", "-"),
                    "-",
                    "-",
                    prediction.get("predicted_energy_joules", "-"),
                ]
            )
        settings = self.settings
        calibration = self.plan.get("calibration")
        if isinstance(calibration, dict) and calibration.get("factors"):
            provenance = (
                f"calibrated from {calibration.get('n_observations', 0)} obs / "
                f"{len(calibration['factors'])} bucket(s)"
            )
        else:
            provenance = "uncalibrated"
        footer = (
            f"machine={settings.get('machine', '?')} backend={settings.get('backend', '?')} "
            f"ranks={settings.get('ranks', '?')} schedule={settings.get('schedule', '?')} "
            f"gpus_per_group={settings.get('gpus_per_group', '?')} | "
            f"campaign predicted wall = {self.plan.get('predicted_wall_seconds', float('nan')):.3g} s, "
            f"energy = {self.plan.get('predicted_energy_joules', float('nan')):.3g} J"
            f" | {provenance}"
        )
        if not self.complete:
            footer += (
                f" | partial: {len(self.reports)} of {len(self.planned_sweeps)} "
                "sweeps reported"
            )
        return f"{format_table(headers, rows)}\n{footer}"

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able form: the plan record plus every sweep's full export
        (execution summaries included, so observed times survive)."""
        return {
            "plan": copy.deepcopy(self.plan),
            "elapsed_seconds": copy.deepcopy(self.elapsed_seconds),
            "sweeps": {
                name: {**report.to_dict(), "execution": copy.deepcopy(report.execution)}
                for name, report in self.reports.items()
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, default=json_default)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        """Inverse of :meth:`to_dict` (sweeps rebuilt through
        :meth:`repro.batch.SweepReport.from_dict`)."""
        if not isinstance(data, dict) or "sweeps" not in data:
            raise ValueError(
                "campaign data must be a dict with a 'sweeps' key; expected the "
                "export of CampaignReport.to_dict()/to_json()"
            )
        return cls(
            data.get("plan", {}),
            {name: SweepReport.from_dict(sweep) for name, sweep in data["sweeps"].items()},
            elapsed_seconds=data.get("elapsed_seconds"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
