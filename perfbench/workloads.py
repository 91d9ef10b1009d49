"""The benchmark's three workloads, generated from a seed.

Each workload has a *set-up* (timed as ``setup_s``), one or more timed
*units* (each timed into ``wall_s``) and untimed correctness checks:

``si8-hse-job``
    Set-up builds a :class:`repro.api.Session` for 8-atom diamond Si (nonlocal
    pseudopotentials, ecut 2.5) up to its Hamiltonian. The unit is the rest
    of the job: the semi-local ground state with the default SCF settings,
    then HSE PT-CN propagation at 50 as under the paper's 380 nm pulse. The
    seed picks the pulse polarisation among the six cubic axis directions,
    which are equivalent for the cubic cell, so the cost does not depend on
    the seed.
``si8-dt-sweep``
    Set-up converges the same Si8 ground state into a fresh
    :class:`repro.store.ResultStore` through ``BatchRunner.prepare_ground_states``.
    The unit is a fresh ``BatchRunner`` sweep of the HSE PT-CN job at three
    time steps that cover the same 200 as window; it reads the ground state
    back from the store and writes its results into it.
``spectra-warm-queries``
    Set-up computes six (material, pump-probe pulse, fluence) scenarios over
    the h2, h4 and n2 assets into a fresh store through a long-lived
    :class:`repro.service.CampaignService`. A unit is one closed-loop round:
    every scenario queried once, in a seeded order, each a one-scenario
    campaign submitted to that service and awaited before the next is sent.
    The seed draws the two fluences and the query order.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import time

import numpy as np

# imported before anything is timed: module import is not workload set-up
from repro.api import Session, SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.batch.sweep import group_jobs
from repro.campaign import Budget, CampaignSpec
from repro.core.dynamics import TDDFTSimulation
from repro.pw.ground_state import GroundStateSolver
from repro.pw.orthogonalization import orthonormality_error
from repro.service import CampaignService, NodePool
from repro.store import ResultStore
from tracer import Tracer

#: 8-atom diamond Si, semi-local ground state with the default SCF settings
#: (tolerance 1e-6, at most 60 iterations), HSE (alpha 0.25, mu 0.106) PT-CN
#: propagation at 50 as under the paper's 380 nm pulse
SI8_HSE = {
    "system": {"structure": "diamond_silicon", "params": {"include_nonlocal": True}},
    "basis": {"ecut": 2.5, "grid_factor": 1.0},
    "xc": {
        "hybrid_mixing": 0.25,
        "screening_length": 0.106,
        "include_nonlocal": True,
        "gs_hybrid_mixing": 0.0,
    },
    "laser": {"pulse": "paper", "params": {}},
    "propagator": {"name": "ptcn"},
    "run": {"time_step_as": 50.0, "n_steps": 4},
}

#: (time step in as, steps) of the sweep: all <= 50 as, all 200 as long.
#: Steps above 50 as hit the 30-iteration inner-SCF cap, so none is used.
SWEEP_STEPS = ((50.0, 4), (40.0, 5), (25.0, 8))

SPECTRA_MATERIALS = (
    "asset:structure/h2-box@1",
    "asset:structure/h4-chain@1",
    "asset:structure/n2-box@1",
)
SPECTRA_PULSE = "asset:pulse/pump-probe-380+760@1"
#: every scenario: semi-local ground state, HSE PT-CN, two 1 as steps
SPECTRA_BASE = {
    "system": {"structure": SPECTRA_MATERIALS[0]},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.25, "screening_length": 0.106, "gs_hybrid_mixing": 0.0},
    "laser": {"pulse": SPECTRA_PULSE, "params": {"fluence": 1.0e-7, "duration_fs": 0.005}},
    "run": {"time_step_as": 1.0, "n_steps": 2},
}
SPECTRA_FLUENCES_PER_MATERIAL = 2

#: the final PT-CN orbitals must be orthonormal to this (max |S - I|)
ORTHONORMALITY_TOLERANCE = 1e-8

AS_PER_FS = 1000.0

SI8_DEFECT = (
    "the Si8 semi-local ground state stalls at a density error near 1.2e-2 after "
    "60 SCF iterations (tolerance 1e-6), so every si8 job counts as failed"
)


def _polarization(rng: np.random.Generator) -> list[float]:
    """One of the six cubic axis directions (+-x, +-y, +-z)."""
    vector = [0.0, 0.0, 0.0]
    vector[int(rng.integers(3))] = 1.0 if rng.integers(2) else -1.0
    return vector


def _si8_config(rng: np.random.Generator) -> dict:
    config = json.loads(json.dumps(SI8_HSE))
    config["laser"]["params"]["polarization"] = _polarization(rng)
    return config


def trajectory_digest(trajectory, summary: dict | None = None) -> str:
    """sha256 of a trajectory's recorded arrays (and of the physics fields of
    a job summary): bit-identical physics gives the same digest."""
    h = hashlib.sha256()
    for name in (
        "times",
        "energies",
        "dipoles",
        "electron_numbers",
        "scf_iterations",
        "hamiltonian_applications",
        "density_errors",
    ):
        array = np.ascontiguousarray(getattr(trajectory, name))
        h.update(name.encode())
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    if summary is not None:
        physics = {k: v for k, v in summary.items() if k != "wall_time"}
        h.update(json.dumps(physics, sort_keys=True, default=float).encode())
    return h.hexdigest()


def _unconverged_steps(trajectory) -> int:
    return sum(1 for stats in trajectory.step_statistics if not stats.converged)


def _orthonormality_error(trajectory) -> float:
    return float(orthonormality_error(trajectory.final_wavefunction))


class Unit(dict):
    """What one timed unit did: counts, propagation seconds, digests."""

    def __init__(self, **values):
        super().__init__(
            attempted=0,
            failed=0,
            jobs=0,
            prop_s=0.0,
            sim_fs=0.0,
            steps=0,
            unconverged_steps=0,
            latencies=[],
            digest="",
        )
        self.update(values)


class Workload:
    """Base class: ``setup`` -> ``unit`` (one or many, each followed by
    ``verify``) -> ``teardown``."""

    name = ""
    #: set-ups per run, each from the same seed-generated inputs
    setups = 2
    #: True when a set-up serves any number of units (a time-boxed loop);
    #: False when every unit needs its own set-up
    repeatable = False
    #: propagation workloads report s_per_fs / unconverged_step_frac
    propagates = False
    #: query workloads report query_p50_s / query_p90_s
    queries = False
    #: the program defect behind this workload's failed jobs, printed with them
    known_defect = ""

    def __init__(self, work_dir: pathlib.Path):
        self.work_dir = work_dir
        self.checks: list[tuple[str, bool, str]] = []
        self.stores = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def new_store(self, label: str):
        store = ResultStore(self.work_dir / f"{label}-{len(self.stores)}")
        self.stores.append(store)
        return store

    def quarantined(self) -> int:
        """Quarantined store entries across every store this workload made."""
        return sum(
            sum(1 for _ in store.quarantine_dir.iterdir())
            for store in self.stores
            if store.quarantine_dir.is_dir()
        )

    def setup(self, rng):  # pragma: no cover - interface
        raise NotImplementedError

    def unit(self, state, rng) -> Unit:  # pragma: no cover - interface
        raise NotImplementedError

    def verify(self, state, unit: Unit) -> None:
        """Untimed correctness checks of one unit (default: none)."""

    def teardown(self, state) -> None:
        """Release what ``setup`` made (default: nothing)."""


# ---------------------------------------------------------------------------
class Si8HSEJob(Workload):
    name = "si8-hse-job"
    #: the job is a single ~10 s unit, so a third set-up buys the median a
    #: third sample; the sweep's set-up is a full SCF and stays at two
    setups = 3
    propagates = True
    known_defect = SI8_DEFECT

    def setup(self, rng):
        session = Session(SimulationConfig.from_dict(_si8_config(rng)))
        session.hamiltonian  # config -> structure -> grid -> basis -> Hamiltonian
        return session

    def unit(self, session, rng) -> Unit:
        gs = session.ground_state()
        trajectory = session.propagate()
        unconverged = _unconverged_steps(trajectory)
        run = session.config.run
        return Unit(
            attempted=1,
            failed=int((not gs.converged) or unconverged > 0),
            jobs=1,
            prop_s=trajectory.wall_time,
            sim_fs=run.n_steps * run.time_step_as / AS_PER_FS,
            steps=trajectory.n_steps,
            unconverged_steps=unconverged,
            digest=hashlib.sha256(
                (trajectory_digest(trajectory) + repr(float(gs.total_energy))).encode()
            ).hexdigest(),
            trajectory=trajectory,
        )

    def verify(self, session, unit: Unit) -> None:
        error = _orthonormality_error(unit.pop("trajectory"))
        self.check(
            "final PT-CN orbitals orthonormal",
            error < ORTHONORMALITY_TOLERANCE,
            f"max |S - I| = {error:.2e} (tolerance {ORTHONORMALITY_TOLERANCE:g})",
        )


# ---------------------------------------------------------------------------
class Si8DtSweep(Workload):
    name = "si8-dt-sweep"
    propagates = True
    known_defect = SI8_DEFECT

    def _spec(self, rng):
        order = rng.permutation(len(SWEEP_STEPS))
        steps = [SWEEP_STEPS[i] for i in order]
        return SweepSpec(
            SimulationConfig.from_dict(_si8_config(rng)),
            {
                "run.time_step_as": [dt for dt, _ in steps],
                "run.n_steps": [n for _, n in steps],
            },
            mode="zip",
        )

    def setup(self, rng):
        spec = self._spec(rng)
        store = self.new_store("sweep-store")
        BatchRunner(spec, store=store).prepare_ground_states()
        return spec, store

    def unit(self, state, rng) -> Unit:
        spec, store = state
        report = BatchRunner(spec, store=store).run()
        return Unit(report=report)

    def verify(self, state, unit: Unit) -> None:
        spec, store = state
        report = unit.pop("report")
        (group_key,) = group_jobs(spec)
        manifest = json.loads(store.ground_state_manifest_path(group_key).read_text())
        gs_converged = bool(manifest["converged"])
        readback_ok = True
        for result in report.results:
            unit["attempted"] += 1
            if result.status != "completed":
                unit["failed"] += 1
                continue
            trajectory = result.trajectory
            unconverged = _unconverged_steps(trajectory)
            unit["jobs"] += 1
            unit["failed"] += int((not gs_converged) or unconverged > 0)
            unit["prop_s"] += trajectory.wall_time
            unit["sim_fs"] += result.summary["n_steps"] * result.summary["time_step_as"] / AS_PER_FS
            unit["steps"] += trajectory.n_steps
            unit["unconverged_steps"] += unconverged
            error = _orthonormality_error(trajectory)
            self.check(
                f"final PT-CN orbitals orthonormal (dt {result.summary['time_step_as']:g} as)",
                error < ORTHONORMALITY_TOLERANCE,
                f"max |S - I| = {error:.2e}",
            )
        for job in spec.expand():
            stored = store.load(job)
            computed = next(r for r in report.results if r.job_id == job.job_id)
            readback_ok &= stored is not None and trajectory_digest(
                stored.trajectory, stored.summary
            ) == trajectory_digest(computed.trajectory, computed.summary)
        self.check("sweep results read back from the store equal the computed ones", readback_ok)
        unit["digest"] = hashlib.sha256(report.to_json(exclude_timings=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
class SpectraWarmQueries(Workload):
    name = "spectra-warm-queries"
    repeatable = True
    queries = True
    known_defect = (
        "the h4-chain ground state does not reach the 1e-6 SCF tolerance in 60 "
        "iterations, so every query served from it counts as failed"
    )

    def _scenarios(self, rng) -> list[tuple[str, float]]:
        fluences = sorted(
            float(f"{10 ** rng.uniform(-7.0, -6.0):.3g}")
            for _ in range(SPECTRA_FLUENCES_PER_MATERIAL)
        )
        return [(m, f) for m in SPECTRA_MATERIALS for f in fluences]

    @staticmethod
    def _config(material: str, fluence: float):
        return SimulationConfig.from_dict(SPECTRA_BASE).with_overrides(
            {"system.structure": material, "laser.params.fluence": fluence}
        )

    def setup(self, rng):
        scenarios = self._scenarios(rng)
        store = self.new_store("spectra-store")
        loop = asyncio.new_event_loop()
        service = CampaignService(NodePool("summit", n_nodes=1), store=store)
        sweeps = {}
        for material in SPECTRA_MATERIALS:
            fluences = [f for m, f in scenarios if m == material]
            label = material.split("/")[-1].split("@")[0]
            sweeps[f"setup-{label}"] = SweepSpec(
                self._config(material, fluences[0]), {"laser.params.fluence": fluences}
            )
        campaign = CampaignSpec(sweeps, budget=Budget(max_nodes=1))

        async def cold():
            return await service.submit(campaign, name="setup").report()

        report = loop.run_until_complete(cold())
        expected, ok = {}, {}
        for name in report.sweep_names:
            for result in report[name].results:
                key = (result.config["system"]["structure"], result.config["laser"]["params"]["fluence"])
                expected[key] = trajectory_digest(result.trajectory, result.summary)
                (group_key,) = group_jobs(SweepSpec(self._config(*key)))
                manifest = json.loads(store.ground_state_manifest_path(group_key).read_text())
                ok[key] = (
                    result.status == "completed"
                    and bool(manifest["converged"])
                    and _unconverged_steps(result.trajectory) == 0
                )
        return {
            "loop": loop,
            "service": service,
            "scenarios": scenarios,
            "expected": expected,
            "ok": ok,
            "queries": 0,
            # installed after the set-up pass, so only query-time work counts
            "guard": _compute_guard(),
        }

    def unit(self, state, rng) -> Unit:
        loop, service = state["loop"], state["service"]
        unit = Unit()
        latencies, served = [], []
        for index in rng.permutation(len(state["scenarios"])):
            key = state["scenarios"][index]
            spec = CampaignSpec({"query": SweepSpec(self._config(*key))}, budget=Budget(max_nodes=1))
            state["queries"] += 1
            name = f"query-{state['queries']}"
            start = time.perf_counter()
            try:
                report = loop.run_until_complete(_submit_and_wait(service, spec, name))
            except Exception:  # a query that raised counts as failed
                report = None
            latencies.append(time.perf_counter() - start)
            served.append((key, None if report is None else report["query"].results[0]))
        unit["latencies"] = latencies
        unit["served"] = served
        unit["attempted"] = len(served)
        return unit

    def verify(self, state, unit: Unit) -> None:
        hits, identical, failed, served = 0, 0, 0, 0
        for key, result in unit.pop("served"):
            hit = result is not None and result.status == "cached"
            same = hit and trajectory_digest(result.trajectory, result.summary) == state["expected"][key]
            hits += hit
            identical += same
            failed += int(not (hit and state["ok"][key]))
            served += result is not None
        unit["failed"] = failed
        unit["jobs"] = served
        unit["hits"] = hits
        unit["identical"] = identical
        unit["digest"] = hashlib.sha256("".join(sorted(state["expected"].values())).encode()).hexdigest()

    def teardown(self, state) -> None:
        guard = state["guard"]
        guard.restore()
        table = guard.table()
        solves = len(table.spans("guard.scf_solve"))
        steps = int(table.attr_sum(table.spans("guard.propagation"), "steps"))
        queries = state["queries"]
        self.check(
            "warm queries ran zero SCF solves and zero propagation steps",
            solves == 0 and steps == 0,
            f"{solves} SCF solves, {steps} propagation steps over {queries} queries",
        )
        state["loop"].close()


async def _submit_and_wait(service, spec, name):
    return await service.submit(spec, name=name).report()


def _compute_guard() -> Tracer:
    """Count SCF solves and propagation steps while queries are served (a
    warm store must serve every query without either)."""
    guard = Tracer()
    guard.wrap_method(GroundStateSolver, "solve", "guard.scf_solve")
    guard.wrap_method(
        TDDFTSimulation, "run", "guard.propagation", lambda r, a, k: {"steps": r.n_steps}
    )
    return guard


WORKLOADS = {cls.name: cls for cls in (Si8HSEJob, Si8DtSweep, SpectraWarmQueries)}


def summarize_checks(workload: Workload, units: list[Unit]) -> None:
    """Cross-unit checks: repeats agree, and warm queries were all hits."""
    digests = {u["digest"] for u in units}
    workload.check(
        "every repeat gives the same physics digest",
        len(digests) == 1 and "" not in digests,
        f"{len(units)} units, {len(digests)} distinct digest(s)",
    )
    if workload.queries:
        attempted = sum(u["attempted"] for u in units)
        hits = sum(u["hits"] for u in units)
        identical = sum(u["identical"] for u in units)
        workload.check("warm queries were 100% store hits", hits == attempted, f"{hits}/{attempted}")
        workload.check(
            "warm query exports bit-identical to the set-up pass",
            identical == attempted,
            f"{identical}/{attempted}",
        )

