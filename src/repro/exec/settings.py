"""One frozen object describing *how* a sweep executes: ``ExecutionSettings``.

It collapses everything about *where and how* a sweep runs — backend, ranks,
scheduling policy, machine preset, GPUs per group, batched stepping,
precision — into a single frozen, JSON-round-trippable value: the thing a
:class:`~repro.campaign.CampaignPlanner` emits and a
:class:`~repro.batch.BatchRunner` consumes:

.. code-block:: python

    settings = ExecutionSettings(backend="distributed", ranks=4,
                                 schedule="makespan_balanced",
                                 machine="frontier", gpus_per_group=8)
    report = BatchRunner(spec, settings=settings).run()

Everything in a settings object is *execution-only*: like the config sections
it mirrors, it never affects job identity — group keys, ``config_hash`` and
store keys are computed with ``run.schedule`` / ``run.machine`` excluded,
so the same sweep re-run under any settings reuses its stored results
bit-for-bit.

Without an explicit ``settings=`` object, a
:class:`~repro.batch.BatchRunner` takes :meth:`ExecutionSettings.from_config`
of its base config — the ``run.schedule`` / ``run.machine`` sections over the
defaults (serial backend, 4 ranks, ``fifo``, Summit, 1 GPU/group).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..api.config import SCHEDULE_POLICIES
from ..core.precision import resolve_precision
from ..cost.model import MachineCostModel, resolve_machine
from ..cost.placement import NodePlacement

__all__ = ["BACKEND_NAMES", "ExecutionSettings"]

#: the ``backend=`` names accepted by :class:`ExecutionSettings` /
#: :class:`~repro.batch.BatchRunner`
BACKEND_NAMES = ("serial", "process", "distributed")


@dataclass(frozen=True)
class ExecutionSettings:
    """Where and how a sweep runs, as one frozen value.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"process"`` or ``"distributed"`` (see
        :mod:`repro.exec.backends`).
    ranks:
        Virtual MPI ranks of the distributed backend (ignored by the others).
    schedule:
        Scheduling policy, one of :data:`repro.api.SCHEDULE_POLICIES`.
    machine:
        A :data:`repro.cost.MACHINES` preset name; ``None`` disables the
        machine model entirely (relative-FLOP scheduling, no wall-clock or
        energy predictions).
    gpus_per_group:
        Modeled GPUs each ground-state group occupies on the machine.
    max_workers:
        Process-pool size (process backend only; ``None`` = CPU count).
    batch_stepping:
        Advance the jobs of a ground-state group in lockstep through the
        batched ``step_many`` engine (stacked FFTs across jobs) instead of
        one job at a time. Execution-only: ``complex128`` physics is
        bit-identical either way.
    precision:
        Propagation precision tier, ``"complex128"`` (default) or the
        opt-in ``"complex64"`` screening tier (see
        :mod:`repro.core.precision`). Unlike every other field this changes
        the numbers — complex64 results are stamped in provenance and never
        written to or served from the result store.
    """

    backend: str = "serial"
    ranks: int = 4
    schedule: str = "fifo"
    machine: str | None = "summit"
    gpus_per_group: int = 1
    max_workers: int | None = None
    batch_stepping: bool = False
    precision: str = "complex128"

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {list(BACKEND_NAMES)} "
                f"('serial', 'process' or 'distributed'), got {self.backend!r}"
            )
        # integral floats are coerced (JSON-sourced settings dicts may carry
        # ranks=4.0)
        for name in ("ranks", "gpus_per_group"):
            value = getattr(self, name)
            try:
                is_integral = not isinstance(value, bool) and value == int(value)
            except (TypeError, ValueError):
                is_integral = False
            if not is_integral:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
            if int(value) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.schedule not in SCHEDULE_POLICIES:
            raise ValueError(
                f"schedule policy must be one of {list(SCHEDULE_POLICIES)}, got {self.schedule!r}"
            )
        if self.machine is not None:
            resolve_machine(self.machine)  # raises listing the presets
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1 or None, got {self.max_workers}")
        if not isinstance(self.batch_stepping, bool):
            raise ValueError(f"batch_stepping must be a bool, got {self.batch_stepping!r}")
        object.__setattr__(self, "precision", resolve_precision(self.precision))

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config, **overrides) -> "ExecutionSettings":
        """The settings a config's ``run.schedule`` / ``run.machine`` sections
        describe, with any keyword overrides applied on top (a ``None``
        override means "not specified" and falls through)."""
        machine = dict(getattr(config.run, "machine", {}) or {})
        schedule = dict(getattr(config.run, "schedule", {}) or {})
        resolved = {
            "schedule": config.run.schedule_policy,
            "machine": machine.get("name", "summit"),
            "gpus_per_group": int(machine.get("gpus_per_group", 1)),
            "batch_stepping": bool(schedule.get("batch_stepping", False)),
            "precision": schedule.get("precision", "complex128"),
        }
        resolved.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**resolved)

    # ------------------------------------------------------------------
    # The objects the settings describe
    # ------------------------------------------------------------------
    def machine_model(self) -> MachineCostModel | None:
        """The :class:`~repro.cost.MachineCostModel` these settings select
        (``None`` when the machine model is disabled)."""
        if self.machine is None:
            return None
        return MachineCostModel(
            system=resolve_machine(self.machine), gpus_per_group=self.gpus_per_group
        )

    def placement(self) -> NodePlacement | None:
        """A dense :class:`~repro.cost.NodePlacement` of ``ranks`` on the
        machine (``None`` without a machine model or for local backends)."""
        if self.machine is None or self.backend != "distributed":
            return None
        return NodePlacement(n_ranks=self.ranks, system=resolve_machine(self.machine))

    def scheduler(self):
        """The :class:`~repro.exec.Scheduler` these settings describe."""
        from .scheduler import Scheduler  # deferred: scheduler imports this module's peers

        return Scheduler(
            self.schedule, machine=self.machine_model(), batch_stepping=self.batch_stepping
        )

    # ------------------------------------------------------------------
    # Provenance: stamping the chosen settings back into configs
    # ------------------------------------------------------------------
    def apply_to(self, spec):
        """A copy of a :class:`~repro.batch.SweepSpec` whose base config
        carries these settings in its ``run.schedule`` / ``run.machine``
        sections.

        Both sections are excluded from group keys and ``config_hash``, so
        stamping is pure provenance: every job id, group key and store key of
        the spec is unchanged — reports become self-describing without
        touching identity.
        """
        from ..batch.sweep import SweepSpec  # deferred: batch imports this module

        schedule_section = {"policy": self.schedule}
        if self.batch_stepping:
            schedule_section["batch_stepping"] = True
        if self.precision != "complex128":
            schedule_section["precision"] = self.precision
        overrides = {"run.schedule": schedule_section}
        if self.machine is not None:
            overrides["run.machine"] = {
                "name": self.machine,
                "gpus_per_group": self.gpus_per_group,
            }
        return SweepSpec(spec.base.with_overrides(overrides), axes=spec.axes, mode=spec.mode)

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able record (reports and campaign plans embed it)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionSettings":
        """Inverse of :meth:`as_dict` (unknown keys rejected with the valid set)."""
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValueError(
                f"unknown ExecutionSettings key(s) {unknown}; valid keys: {sorted(valid)}"
            )
        return cls(**data)

    def replace(self, **changes) -> "ExecutionSettings":
        """A copy with the given fields replaced (validated like any other)."""
        data = self.as_dict()
        data.update(changes)
        return ExecutionSettings(**data)
