"""Declarative, registry-backed facade over the whole simulation stack.

This is the stable entry point for config-driven workloads: describe a run as
a plain dict (or JSON), build a :class:`SimulationConfig`, and either drive it
step by step through a caching :class:`Session` or use the one-call
conveniences:

.. code-block:: python

    import repro

    trajectory = repro.api.run_tddft(repro.api.SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_molecule"},
        "laser": {"pulse": "gaussian",
                  "params": {"amplitude": 0.005, "omega": 0.35,
                             "t0_as": 150.0, "sigma_as": 60.0}},
    }))

New structures, pulses and propagators plug in through the registries
(:func:`register_structure`, :func:`register_pulse`,
:func:`register_propagator`) without touching the driver.

Budget-driven *campaigns* get the same one-call treatment through the lazily
re-exported :mod:`repro.campaign` layer:

.. code-block:: python

    execution_plan = repro.api.plan(
        {"dt-scan": spec}, budget=repro.api.Budget(max_wall_seconds=3600.0)
    )
    report = execution_plan.execute(store="store")  # or repro.api.run(...) in one go

``plan``/``run``, :class:`~repro.campaign.CampaignSpec`,
:class:`~repro.campaign.CampaignPlanner`, :class:`~repro.campaign.Budget`,
:class:`~repro.campaign.ExecutionPlan`, :class:`~repro.campaign.CampaignReport`,
:class:`~repro.campaign.InfeasibleBudgetError` and the frozen
:class:`~repro.exec.ExecutionSettings` all resolve on first attribute access
(PEP 562), keeping ``import repro.api`` cheap and cycle-free.
"""

from .config import (
    SCHEDULE_POLICIES,
    BasisConfig,
    ConfigError,
    LaserConfig,
    PropagatorConfig,
    RunConfig,
    SimulationConfig,
    SystemConfig,
    XCConfig,
)
from .registry import (
    PROPAGATORS,
    PULSES,
    STRUCTURES,
    DuplicateNameError,
    Registry,
    UnknownNameError,
    register_propagator,
    register_pulse,
    register_structure,
)
from .session import Session, compare_propagators, run_tddft

#: names resolved lazily from :mod:`repro.campaign` (PEP 562) — the campaign
#: layer sits *above* the api/batch/exec stack, so importing it eagerly here
#: would be circular
_CAMPAIGN_EXPORTS = (
    "Budget",
    "CampaignPlanner",
    "CampaignReport",
    "CampaignSpec",
    "ExecutionPlan",
    "InfeasibleBudgetError",
    "plan",
    "run",
)


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS:
        import importlib

        value = getattr(importlib.import_module(".campaign", "repro"), name)
        globals()[name] = value  # cache: __getattr__ runs once per name
        return value
    if name == "ExecutionSettings":
        from ..exec.settings import ExecutionSettings

        globals()[name] = ExecutionSettings
        return ExecutionSettings
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "SCHEDULE_POLICIES",
    "BasisConfig",
    "ConfigError",
    "LaserConfig",
    "PropagatorConfig",
    "RunConfig",
    "SimulationConfig",
    "SystemConfig",
    "XCConfig",
    "PROPAGATORS",
    "PULSES",
    "STRUCTURES",
    "DuplicateNameError",
    "Registry",
    "UnknownNameError",
    "register_propagator",
    "register_pulse",
    "register_structure",
    "Session",
    "compare_propagators",
    "run_tddft",
    # campaign layer (lazy, PEP 562)
    "Budget",
    "CampaignPlanner",
    "CampaignReport",
    "CampaignSpec",
    "ExecutionPlan",
    "ExecutionSettings",
    "InfeasibleBudgetError",
    "plan",
    "run",
]
