"""The config-driven simulation driver: build once, compute on demand.

:class:`Session` turns a :class:`~repro.api.config.SimulationConfig` into the
live object graph (structure → grid → basis → pulse → Hamiltonian) lazily and
caches every intermediate result, so a batch driver can ask for the ground
state once and then fan out propagation runs, or request a performance report
without recomputing physics. The one-call conveniences :func:`run_tddft` and
:func:`compare_propagators` cover the two workflows every example and
benchmark in this repository used to hand-wire.
"""

from __future__ import annotations

from .. import __version__ as _repro_version
from ..analysis import format_table
from ..constants import attoseconds_to_au
from ..core.dynamics import BatchedRun, TDDFTSimulation, Trajectory, run_batched
from ..core.precision import DEFAULT_PRECISION, precision_dtype, resolve_precision
from ..pw.basis import Wavefunction
from ..pw.grid import FFTGrid, PlaneWaveBasis, choose_grid_shape
from ..pw.ground_state import GroundStateResult, GroundStateSolver
from ..pw.hamiltonian import Hamiltonian
from ..pw.laser import DeltaKick
from .config import SimulationConfig
from .registry import PROPAGATORS, PULSES, STRUCTURES

__all__ = ["Session", "run_tddft", "compare_propagators"]


class Session:
    """A lazily-built, caching simulation driven by a :class:`SimulationConfig`.

    All heavy objects (grid, basis, Hamiltonian, ground state, trajectories)
    are built on first access and reused afterwards; calling
    :meth:`ground_state` twice runs one SCF, and every :meth:`propagate` call
    with the same arguments returns the cached trajectory.

    Parameters
    ----------
    config:
        The declarative simulation description; validated on construction.
    """

    def __init__(self, config: SimulationConfig):
        self.config = config.validate()
        self._structure = None
        self._grid: FFTGrid | None = None
        self._basis: PlaneWaveBasis | None = None
        self._pulse = None
        self._pulse_built = False
        self._hamiltonian: Hamiltonian | None = None
        self._ground_state: GroundStateResult | None = None
        self._initial_wavefunction: Wavefunction | None = None
        self._trajectories: dict[tuple, Trajectory] = {}
        self._trajectory_labels: dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # Lazily-built object graph
    # ------------------------------------------------------------------
    @property
    def structure(self):
        """The atomic :class:`~repro.pw.structures.Structure`."""
        if self._structure is None:
            cfg = self.config.system
            self._structure = STRUCTURES.create(cfg.structure, **cfg.params)
        return self._structure

    @property
    def grid(self) -> FFTGrid:
        """The FFT grid chosen for the configured cutoff."""
        if self._grid is None:
            cfg = self.config.basis
            cell = self.structure.cell
            self._grid = FFTGrid(cell, choose_grid_shape(cell, cfg.ecut, factor=cfg.grid_factor))
        return self._grid

    @property
    def basis(self) -> PlaneWaveBasis:
        """The plane-wave sphere on :attr:`grid`."""
        if self._basis is None:
            self._basis = PlaneWaveBasis(self.grid, self.config.basis.ecut)
        return self._basis

    @property
    def pulse(self):
        """The configured pulse object (``None`` for field-free runs)."""
        if not self._pulse_built:
            cfg = self.config.laser
            self._pulse = PULSES.create(cfg.pulse, **cfg.params)
            self._pulse_built = True
        return self._pulse

    @property
    def hamiltonian(self) -> Hamiltonian:
        """The propagation Hamiltonian (shared with the default ground state)."""
        if self._hamiltonian is None:
            xc = self.config.xc
            pulse = self.pulse
            external = None
            if pulse is not None and hasattr(pulse, "potential_factory"):
                external = pulse.potential_factory(self.grid)
            self._hamiltonian = Hamiltonian(
                self.basis,
                self.structure,
                hybrid_mixing=xc.hybrid_mixing,
                screening_length=xc.screening_length,
                external_field=external,
                include_nonlocal=xc.include_nonlocal,
            )
        return self._hamiltonian

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def ground_state(self) -> GroundStateResult:
        """Converge (once) and return the ground state.

        Uses the propagation Hamiltonian unless ``xc.gs_hybrid_mixing`` is
        set, in which case a separate field-free Hamiltonian with that mixing
        prepares the initial state (the paper's silicon workflow: semi-local
        ground state, hybrid propagation).
        """
        if self._ground_state is None:
            xc = self.config.xc
            run = self.config.run
            if xc.gs_hybrid_mixing is None:
                ham = self.hamiltonian
            else:
                ham = Hamiltonian(
                    self.basis,
                    self.structure,
                    hybrid_mixing=xc.gs_hybrid_mixing,
                    screening_length=xc.screening_length,
                    include_nonlocal=xc.include_nonlocal,
                )
            solver = GroundStateSolver(
                ham,
                scf_tolerance=run.gs_scf_tolerance,
                max_scf_iterations=run.gs_max_scf_iterations,
            )
            self._ground_state = solver.solve()
        return self._ground_state

    @property
    def ground_state_ready(self) -> bool:
        """Whether a ground state is already available (converged or adopted)
        — probing this never triggers an SCF."""
        return self._ground_state is not None

    def adopt_ground_state(self, result: GroundStateResult) -> None:
        """Inject a precomputed ground state instead of converging one.

        This is the session-reuse hook the execution backends rely on: a
        stored SCF (:meth:`~repro.pw.ground_state.GroundStateResult.save_npz`
        round-tripped through a :class:`~repro.store.ResultStore`) is
        adopted bit-for-bit, so a propagation from it is identical to one from
        an in-session SCF — the propagator re-synchronises the Hamiltonian
        potential from the initial orbitals in its ``prepare`` hook.

        Raises :class:`ValueError` if the result carries no orbitals (loaded
        without a basis) or its orbitals do not match this session's basis.
        """
        if result.wavefunction is None:
            raise ValueError(
                "cannot adopt ground state: result has no wavefunction "
                "(load it with the session's basis)"
            )
        npw = result.wavefunction.coefficients.shape[1]
        if npw != self.basis.npw:
            raise ValueError(
                f"cannot adopt ground state: orbitals have {npw} plane-wave "
                f"coefficients but this session's basis has {self.basis.npw}"
            )
        self._ground_state = result
        self._initial_wavefunction = None

    def initial_wavefunction(self) -> Wavefunction:
        """The propagation starting state: the ground state, kicked if the
        configured pulse is a :class:`~repro.pw.laser.DeltaKick`."""
        if self._initial_wavefunction is None:
            wavefunction = self.ground_state().wavefunction
            pulse = self.pulse
            if isinstance(pulse, DeltaKick):
                kicked = pulse.apply(self.grid, wavefunction.to_real_space())
                wavefunction = Wavefunction.from_real_space(
                    self.basis, kicked, wavefunction.occupations
                )
            self._initial_wavefunction = wavefunction
        return self._initial_wavefunction

    # ------------------------------------------------------------------
    def _resolve_propagation(
        self,
        propagator: str | None = None,
        time_step_as: float | None = None,
        n_steps: int | None = None,
        params: dict | None = None,
        precision: str | None = None,
    ) -> dict:
        """Resolve one propagation request against the config: registry
        factory, effective params/step settings and the cache key."""
        cfg = self.config
        name = cfg.propagator.name if propagator is None else propagator
        factory = PROPAGATORS.get(name)
        if params is None:
            # compare resolved factories, not strings, so registry aliases
            # (e.g. "pt-cn" for "ptcn") pick up the configured params too
            configured = factory is PROPAGATORS.get(cfg.propagator.name)
            params = dict(cfg.propagator.params) if configured else {}
        dt_as = cfg.run.time_step_as if time_step_as is None else float(time_step_as)
        steps = cfg.run.n_steps if n_steps is None else int(n_steps)
        precision = resolve_precision(precision)
        # keyed by factory identity so aliases share one cache entry
        key = (
            factory,
            dt_as,
            steps,
            tuple(sorted((k, repr(v)) for k, v in params.items())),
            precision,
        )
        return {
            "name": name,
            "factory": factory,
            "params": params,
            "dt_as": dt_as,
            "steps": steps,
            "precision": precision,
            "key": key,
        }

    def _run_metadata(self, request: dict, scheme) -> dict:
        """Provenance stamped on a trajectory: the *effective* config of the
        run (overrides folded in), not the session's base config, so archived
        trajectories can be reproduced from their own metadata even when a
        batch driver ran many variants through one shared session."""
        effective = self.config.with_overrides(
            {
                "propagator": {"name": request["name"], "params": dict(request["params"])},
                "run": {"time_step_as": request["dt_as"], "n_steps": request["steps"]},
            }
        )
        metadata = {
            "propagator": request["name"],
            "integrator": scheme.name,
            "propagator_params": dict(request["params"]),
            "time_step_as": request["dt_as"],
            "n_steps": request["steps"],
            "config": effective.to_dict(),
            "repro_version": _repro_version,
        }
        if request["precision"] != DEFAULT_PRECISION:
            # stamped only off the default tier: complex128 provenance stays
            # byte-identical to what stores and goldens already hold
            metadata["precision"] = request["precision"]
        assets = self._asset_provenance()
        if assets:
            # asset-driven configs carry id -> content digest, so archived
            # trajectories pin exactly which payload versions produced them
            metadata["assets"] = assets
        return metadata

    def _asset_provenance(self) -> dict:
        """``asset:`` reference -> sha256 for every asset this config names
        (``{}`` for registry-only configs, keeping their metadata unchanged)."""
        refs = [self.config.system.structure, self.config.laser.pulse]
        provenance = {}
        for name in refs:
            if not isinstance(name, str) or not name.startswith("asset:"):
                continue
            from ..assets import default_library

            provenance[name] = default_library().digest(name[len("asset:"):])
        return provenance

    def _store_trajectory(self, request: dict, scheme, trajectory: Trajectory) -> None:
        self._trajectories[request["key"]] = trajectory
        base = f"{scheme.name} @ {request['dt_as']:g} as"
        if request["precision"] != DEFAULT_PRECISION:
            base += f" ({request['precision']})"
        label, suffix = base, 2
        while label in self._trajectory_labels.values():
            label = f"{base} #{suffix}"
            suffix += 1
        self._trajectory_labels[request["key"]] = label

    def _initial_state_at(self, precision: str) -> Wavefunction:
        wavefunction = self.initial_wavefunction()
        return wavefunction.astype(precision_dtype(precision))

    def propagate(
        self,
        propagator: str | None = None,
        *,
        time_step_as: float | None = None,
        n_steps: int | None = None,
        params: dict | None = None,
        precision: str | None = None,
    ) -> Trajectory:
        """Run (or return the cached) propagation.

        Parameters
        ----------
        propagator:
            Registry name of the integrator; defaults to the configured one.
            When the configured name is used, the configured propagator params
            apply as well (explicit ``params`` always win).
        time_step_as, n_steps:
            Optional overrides of the configured run parameters — useful for
            comparing integrators at their own natural step sizes.
        params:
            Optional propagator keyword arguments overriding the configured
            ones.
        precision:
            Precision tier of the orbital algebra: ``"complex128"`` (default)
            or the opt-in ``"complex64"`` screening tier (see
            :mod:`repro.core.precision`). Tiers cache separately.
        """
        cfg = self.config
        request = self._resolve_propagation(propagator, time_step_as, n_steps, params, precision)
        if request["key"] not in self._trajectories:
            ham = self.hamiltonian
            scheme = request["factory"](ham, **request["params"])
            simulation = TDDFTSimulation(
                ham,
                scheme,
                record_energy=cfg.run.record_energy,
                record_dipole=cfg.run.record_dipole,
            )
            trajectory = simulation.run(
                self._initial_state_at(request["precision"]),
                attoseconds_to_au(request["dt_as"]),
                request["steps"],
                metadata=self._run_metadata(request, scheme),
            )
            self._store_trajectory(request, scheme, trajectory)
        return self._trajectories[request["key"]]

    def propagate_many(
        self,
        requests: list[dict],
        *,
        precision: str | None = None,
    ) -> list[Trajectory]:
        """Run several propagations of this session's system in lockstep.

        Parameters
        ----------
        requests:
            One dict per job with any of the keys ``propagator``,
            ``time_step_as``, ``n_steps``, ``params``, ``precision`` — the
            same arguments (and defaulting) as :meth:`propagate`.
        precision:
            Default precision tier for requests that don't carry their own.

        All jobs share this session's ground state and basis; each gets its
        own Hamiltonian clone and propagator so per-job time-dependent state
        never interferes. Jobs advance through the batched
        ``step_many``/:func:`~repro.core.dynamics.run_batched` engine —
        stacked FFTs across jobs — and every resulting trajectory is
        bit-identical (``complex128``) to what :meth:`propagate` produces for
        the same request, cached under the same key. Returns the
        trajectories in request order.
        """
        resolved = [
            self._resolve_propagation(
                request.get("propagator"),
                request.get("time_step_as"),
                request.get("n_steps"),
                request.get("params"),
                request.get("precision", precision),
            )
            for request in requests
        ]
        pending: dict[tuple, dict] = {}
        for request in resolved:
            if request["key"] not in self._trajectories and request["key"] not in pending:
                pending[request["key"]] = request
        if pending:
            runs = []
            schemes = []
            for request in pending.values():
                ham = self.hamiltonian.clone()
                scheme = request["factory"](ham, **request["params"])
                schemes.append(scheme)
                simulation = TDDFTSimulation(
                    ham,
                    scheme,
                    record_energy=self.config.run.record_energy,
                    record_dipole=self.config.run.record_dipole,
                )
                runs.append(
                    BatchedRun(
                        simulation=simulation,
                        initial_state=self._initial_state_at(request["precision"]),
                        time_step=attoseconds_to_au(request["dt_as"]),
                        n_steps=request["steps"],
                        metadata=self._run_metadata(request, scheme),
                    )
                )
            trajectories = run_batched(runs)
            for request, scheme, trajectory in zip(pending.values(), schemes, trajectories):
                self._store_trajectory(request, scheme, trajectory)
        return [self._trajectories[request["key"]] for request in resolved]

    @property
    def trajectories(self) -> dict[str, Trajectory]:
        """All propagations run so far, keyed by a human-readable label."""
        return {
            self._trajectory_labels[key]: traj for key, traj in self._trajectories.items()
        }

    # ------------------------------------------------------------------
    def performance_report(self) -> str:
        """A plain-text table summarising every propagation of this session.

        Runs the configured default propagation first if nothing has been
        propagated yet, so the one-liner
        ``Session(config).performance_report()`` works.
        """
        if not self._trajectories:
            self.propagate()
        headers = [
            "integrator",
            "steps",
            "dt [as]",
            "Fock applies",
            "avg SCF/step",
            "energy drift [Ha]",
            "wall [s]",
        ]
        rows = []
        for key, trajectory in self._trajectories.items():
            rows.append(
                [
                    self._trajectory_labels[key],
                    trajectory.n_steps,
                    key[1],
                    trajectory.total_hamiltonian_applications,
                    trajectory.average_scf_iterations,
                    trajectory.energy_drift,
                    trajectory.wall_time,
                ]
            )
        gs = self._ground_state
        lines = [format_table(headers, rows)]
        if gs is not None:
            lines.append(
                f"ground state: E = {gs.total_energy:.8f} Ha, "
                f"{gs.scf_iterations} SCF iterations, converged={gs.converged}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# One-call conveniences
# ---------------------------------------------------------------------------


def run_tddft(config: SimulationConfig) -> Trajectory:
    """Ground state + propagation in one call, per the config. Returns the
    :class:`~repro.core.dynamics.Trajectory`."""
    return Session(config).propagate()


def compare_propagators(config: SimulationConfig, names: list[str]) -> dict[str, Trajectory]:
    """Propagate the same system/ground state with several integrators.

    The ground state and Hamiltonian are shared across all runs (one SCF
    total); every integrator uses the config's run parameters. Returns a
    mapping from registry name to trajectory, in the order given.
    """
    session = Session(config)
    return {name: session.propagate(name) for name in names}
