"""Which ``repro`` calls the traced run wraps, and the per-layer metrics.

:func:`instrument` wraps the public functions and methods at each layer
boundary with spans named ``<layer>.<function>``; :func:`layer_metrics`
turns the recorded spans into the per-layer metrics, each with its unit.
Counts come from what the wrapped calls took and returned (rows of a block,
iterations of a solve, bytes of an archive), measured at the boundary where
the work happens.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import SpanTable, Tracer, percentile

#: the spans that make up the H·Psi local part (sphere <-> real-space
#: transforms issued directly by Hamiltonian.apply)
_LOCAL = ("pw.basis.to_real_space", "pw.basis.from_real_space")
_FFT = ("pw.fft.fftn", "pw.fft.ifftn")
_DENSITY = ("pw.density.compute_density", "pw.density.compute_density_many")
_XC = ("pw.xc.evaluate", "pw.xc.evaluate_many")
_ORTHO = (
    "pw.orthogonalization.cholesky",
    "pw.orthogonalization.lowdin",
    "pw.orthogonalization.gram_schmidt",
)
_SESSION = (
    "api.session.init",
    "api.session.structure",
    "api.session.grid",
    "api.session.basis",
    "api.session.hamiltonian",
)
_STORE_SAVES = ("store.save", "store.save_ground_state")
_ARCHIVE_WRITES = ("core.trajectory.save_npz", "pw.ground_state.save_npz")
_ARCHIVE_READS = ("core.trajectory.load_npz", "pw.ground_state.load_npz")


def _rows(block) -> int:
    shape = np.shape(block)
    return int(shape[0]) if len(shape) == 2 else 1


def _batch(array) -> int:
    """3-D grids in an array whose trailing three axes are the grid."""
    return int(np.prod(np.shape(array)[:-3], dtype=np.int64))


def _archive_bytes(path) -> int:
    path = os.fspath(path)
    for candidate in (path, path + ".npz"):
        if os.path.exists(candidate):
            return os.path.getsize(candidate)
    return 0


def instrument(tracer: Tracer) -> None:
    """Install every layer wrapper on ``tracer`` (undo with ``tracer.restore()``)."""
    from repro.api.session import Session
    from repro.assets.library import AssetLibrary
    from repro.batch.runner import BatchRunner
    from repro.campaign.planner import CampaignPlanner
    from repro.core.anderson import AndersonMixer
    from repro.core.dynamics import TDDFTSimulation, Trajectory
    from repro.core.propagators.base import Propagator
    from repro.exec import backends as exec_backends
    from repro.exec.scheduler import Scheduler
    from repro.perf import sweep_cost
    from repro.pw import density, eigensolver, orthogonalization, poisson
    from repro.pw.exchange import ExchangeOperator
    from repro.pw.fft import FFTPlan
    from repro.pw.grid import PlaneWaveBasis
    from repro.pw.ground_state import GroundStateResult, GroundStateSolver
    from repro.pw.hamiltonian import Hamiltonian
    from repro.pw.pseudopotential import NonlocalPotential
    from repro.pw.xc import LDAFunctional
    from repro.service import runner as service_runner
    from repro.service.service import CampaignService
    from repro.store.store import ResultStore

    # api: building the object graph a config describes
    tracer.wrap_method(Session, "__init__", "api.session.init")
    for prop in ("structure", "grid", "basis", "hamiltonian"):
        tracer.wrap_method(Session, prop, f"api.session.{prop}")

    # ground state and eigensolver
    tracer.wrap_method(
        GroundStateSolver,
        "solve",
        "pw.ground_state.solve",
        lambda r, a, k: {
            "iterations": r.scf_iterations,
            "final_error": float(r.density_errors[-1]) if r.density_errors else float("nan"),
            "converged": bool(r.converged),
        },
    )
    tracer.wrap_function(
        eigensolver.block_davidson,
        "pw.eigensolver.block_davidson",
        lambda r, a, k: {"iterations": r.iterations},
    )

    # H·Psi and its kernels
    tracer.wrap_method(Hamiltonian, "apply", "pw.hamiltonian.apply", lambda r, a, k: {"rows": _rows(a[1])})
    tracer.wrap_method(PlaneWaveBasis, "to_real_space", "pw.basis.to_real_space")
    tracer.wrap_method(PlaneWaveBasis, "from_real_space", "pw.basis.from_real_space")
    tracer.wrap_method(NonlocalPotential, "apply", "pw.nonlocal.apply")
    for method in ("fftn", "ifftn"):
        tracer.wrap_method(
            FFTPlan,
            method,
            f"pw.fft.{method}",
            lambda r, a, k: {"transforms": _batch(r), "bytes": int(np.asarray(a[1]).nbytes + r.nbytes)},
        )
    tracer.wrap_function(density.compute_density, "pw.density.compute_density")
    tracer.wrap_function(density.compute_density_many, "pw.density.compute_density_many")
    tracer.wrap_function(poisson.hartree_potential, "pw.poisson.hartree_potential")
    tracer.wrap_method(
        poisson.CoulombKernel,
        "apply_to_density",
        "pw.poisson.kernel_apply",
        lambda r, a, k: {"solves": _batch(r)},
    )
    tracer.wrap_method(LDAFunctional, "evaluate", "pw.xc.evaluate")
    tracer.wrap_method(LDAFunctional, "evaluate_many", "pw.xc.evaluate_many")
    tracer.wrap_function(orthogonalization.cholesky_orthonormalize, "pw.orthogonalization.cholesky")
    tracer.wrap_function(orthogonalization.lowdin_orthonormalize, "pw.orthogonalization.lowdin")
    tracer.wrap_function(
        orthogonalization.gram_schmidt_orthonormalize, "pw.orthogonalization.gram_schmidt"
    )
    tracer.wrap_method(ExchangeOperator, "apply", "pw.exchange.apply")

    # propagation
    step_stats = lambda r, a, k: {  # noqa: E731
        "inner_iterations": r[1].scf_iterations,
        "h_applies": r[1].hamiltonian_applications,
        "converged": bool(r[1].converged),
    }
    pending = list(Propagator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "step" in cls.__dict__:
            tracer.wrap_method(cls, "step", "core.propagators.step", step_stats)
    tracer.wrap_method(AndersonMixer, "update", "core.anderson.update")
    tracer.wrap_method(TDDFTSimulation, "run", "core.dynamics.run")

    # execution
    tracer.wrap_method(BatchRunner, "run", "batch.runner.run")
    tracer.wrap_method(Scheduler, "schedule", "exec.scheduler.schedule")
    tracer.wrap_method(Scheduler, "pack", "exec.scheduler.pack")
    tracer.wrap_function(exec_backends.execute_group, "exec.execute_group")

    # store
    tracer.wrap_method(ResultStore, "save", "store.save")
    tracer.wrap_method(ResultStore, "save_ground_state", "store.save_ground_state")
    tracer.wrap_method(ResultStore, "load", "store.load", lambda r, a, k: {"hit": r is not None})
    tracer.wrap_method(
        ResultStore, "load_ground_state", "store.load_ground_state", lambda r, a, k: {"hit": r is not None}
    )
    tracer.wrap_method(
        Trajectory, "save_npz", "core.trajectory.save_npz", lambda r, a, k: {"bytes": _archive_bytes(a[1])}
    )
    tracer.wrap_method(
        GroundStateResult,
        "save_npz",
        "pw.ground_state.save_npz",
        lambda r, a, k: {"bytes": _archive_bytes(a[1])},
    )
    # load_npz is a classmethod: args[0] is the class, args[1] the path
    tracer.wrap_method(
        Trajectory, "load_npz", "core.trajectory.load_npz", lambda r, a, k: {"bytes": _archive_bytes(a[1])}
    )
    tracer.wrap_method(
        GroundStateResult,
        "load_npz",
        "pw.ground_state.load_npz",
        lambda r, a, k: {"bytes": _archive_bytes(a[1])},
    )

    # service, planning, cost model, assets
    tracer.wrap_method(CampaignService, "submit", "service.submit")
    tracer.wrap_function(service_runner.run_sweep, "service.run_sweep")
    tracer.wrap_method(CampaignPlanner, "plan", "campaign.planner.plan")
    tracer.wrap_method(CampaignPlanner, "forecast", "campaign.planner.forecast")
    tracer.wrap_function(sweep_cost.workload_sizes, "perf.workload_sizes")
    tracer.wrap_method(AssetLibrary, "build", "assets.build")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("nan")


#: every per-layer metric: name -> unit (the order the report prints them)
UNITS = {
    "api.session_build_s": "s",
    "pw.ground_state.solve_s": "s",
    "pw.ground_state.scf_iterations": "count",
    "pw.ground_state.final_density_error": "1",
    "pw.eigensolver.calls": "count",
    "pw.eigensolver.s": "s",
    "pw.eigensolver.iterations": "count",
    "pw.eigensolver.rows_per_apply": "rows",
    "pw.hamiltonian.apply_calls": "count",
    "pw.hamiltonian.apply_rows": "rows",
    "pw.hamiltonian.apply_self_s": "s",
    "pw.hamiltonian.local_s": "s",
    "pw.hamiltonian.nonlocal_s": "s",
    "pw.fft.transforms": "count",
    "pw.fft.s": "s",
    "pw.fft.bytes_computed": "B",
    "pw.density.calls": "count",
    "pw.density.s": "s",
    "pw.poisson.hartree_s": "s",
    "pw.xc.s": "s",
    "pw.orthogonalization.s": "s",
    "pw.exchange.apply_calls": "count",
    "pw.exchange.apply_s": "s",
    "pw.exchange.poisson_solves": "count",
    "core.propagators.steps": "count",
    "core.propagators.step_s_p50": "s",
    "core.propagators.inner_iters_per_step": "count",
    "core.propagators.h_applies_per_step": "count",
    "core.anderson.calls": "count",
    "core.anderson.update_s": "s",
    "core.dynamics.record_s": "s",
    "batch.runner_overhead_s": "s",
    "exec.schedule_s": "s",
    "exec.execute_group_s": "s",
    "store.save_calls": "count",
    "store.save_s": "s",
    "store.bytes_written": "B",
    "store.gs_load_s": "s",
    "store.load_calls": "count",
    "store.load_s": "s",
    "store.bytes_read": "B",
    "store.hit_ratio": "ratio",
    "store.quarantined": "count",
    "service.admit_s": "s",
    "campaign.plan_s": "s",
    "campaign.forecast_calls": "count",
    "service.run_sweep_s": "s",
    "perf.workload_sizes_calls": "count",
    "perf.workload_sizes_s": "s",
    "assets.build_calls": "count",
    "assets.build_s": "s",
    "trace.overhead_frac": "ratio",
}


#: seconds and ratios that stay 0 or undefined on a workload that never calls
#: the layer (the si8 job uses no store, batch runner or service; the sweep no
#: service or assets; the queries no batch runner). They are printed and
#: written to the trace file, but kept out of the result line, which every
#: workload must fill with measured numbers.
_NOT_ON_EVERY_WORKLOAD = {
    "batch.runner_overhead_s",
    "exec.schedule_s",
    "exec.execute_group_s",
    "store.save_s",
    "store.gs_load_s",
    "store.load_s",
    "store.hit_ratio",
    "service.admit_s",
    "campaign.plan_s",
    "service.run_sweep_s",
    "perf.workload_sizes_s",
    "assets.build_s",
}

#: the per-layer metrics of a traced run's result line
RESULT_LINE = tuple(name for name in UNITS if name not in _NOT_ON_EVERY_WORKLOAD)


def layer_metrics(t: SpanTable, quarantined: int, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric (see :data:`UNITS`) from one traced pass.

    A layer the workload never called reports 0 for counts and seconds;
    ratios over zero attempts are NaN.
    """
    solves = t.spans("pw.ground_state.solve")
    davidson = t.spans("pw.eigensolver.block_davidson")
    applies = t.spans("pw.hamiltonian.apply")
    davidson_applies = t.within("pw.hamiltonian.apply", "pw.eigensolver.block_davidson")
    fft = t.spans(_FFT)
    exchange = t.spans("pw.exchange.apply")
    steps = t.spans("core.propagators.step")
    anderson = t.spans("core.anderson.update")
    loads = t.spans("store.load")
    final_errors = [t.attrs[i]["final_error"] for i in solves if i in t.attrs]
    return {
        "api.session_build_s": t.inclusive(_SESSION),
        "pw.ground_state.solve_s": t.total(solves),
        "pw.ground_state.scf_iterations": t.attr_sum(solves, "iterations"),
        # the worst final density error over the pass's solves
        "pw.ground_state.final_density_error": max(final_errors) if final_errors else float("nan"),
        "pw.eigensolver.calls": len(davidson),
        "pw.eigensolver.s": t.total(davidson),
        "pw.eigensolver.iterations": t.attr_sum(davidson, "iterations"),
        "pw.eigensolver.rows_per_apply": _ratio(
            t.attr_sum(davidson_applies, "rows"), len(davidson_applies)
        ),
        "pw.hamiltonian.apply_calls": len(applies),
        "pw.hamiltonian.apply_rows": t.attr_sum(applies, "rows"),
        "pw.hamiltonian.apply_self_s": sum(t.self_time(i) for i in applies),
        "pw.hamiltonian.local_s": t.total(t.direct(_LOCAL, "pw.hamiltonian.apply")),
        "pw.hamiltonian.nonlocal_s": t.total(t.direct("pw.nonlocal.apply", "pw.hamiltonian.apply")),
        "pw.fft.transforms": t.attr_sum(fft, "transforms"),
        "pw.fft.s": t.total(fft),
        "pw.fft.bytes_computed": t.attr_sum(fft, "bytes"),
        "pw.density.calls": len(t.spans(_DENSITY)),
        "pw.density.s": t.inclusive(_DENSITY),
        "pw.poisson.hartree_s": t.inclusive("pw.poisson.hartree_potential"),
        "pw.xc.s": t.inclusive(_XC),
        "pw.orthogonalization.s": t.inclusive(_ORTHO),
        "pw.exchange.apply_calls": len(exchange),
        "pw.exchange.apply_s": t.total(exchange),
        "pw.exchange.poisson_solves": t.attr_sum(
            t.within("pw.poisson.kernel_apply", "pw.exchange.apply"), "solves"
        ),
        "core.propagators.steps": len(steps),
        "core.propagators.step_s_p50": percentile([t.duration(i) for i in steps], 50) if steps else 0.0,
        "core.propagators.inner_iters_per_step": _ratio(t.attr_sum(steps, "inner_iterations"), len(steps)),
        "core.propagators.h_applies_per_step": _ratio(t.attr_sum(steps, "h_applies"), len(steps)),
        "core.anderson.calls": len(anderson),
        "core.anderson.update_s": t.total(anderson),
        "core.dynamics.record_s": t.inclusive("core.dynamics.run")
        - t.total(t.within("core.propagators.step", "core.dynamics.run")),
        "batch.runner_overhead_s": t.inclusive("batch.runner.run")
        - t.total(t.within("exec.execute_group", "batch.runner.run")),
        "exec.schedule_s": t.inclusive(("exec.scheduler.schedule", "exec.scheduler.pack")),
        "exec.execute_group_s": t.inclusive("exec.execute_group"),
        "store.save_calls": len(t.spans(_STORE_SAVES)),
        "store.save_s": t.inclusive(_STORE_SAVES),
        "store.bytes_written": t.attr_sum(t.within(_ARCHIVE_WRITES, _STORE_SAVES), "bytes"),
        "store.gs_load_s": t.inclusive("store.load_ground_state"),
        "store.load_calls": len(loads),
        "store.load_s": t.total(loads),
        "store.bytes_read": t.attr_sum(
            t.within(_ARCHIVE_READS, ("store.load", "store.load_ground_state")), "bytes"
        ),
        "store.hit_ratio": _ratio(t.attr_sum(loads, "hit"), len(loads)),
        "store.quarantined": quarantined,
        "service.admit_s": t.inclusive("service.submit"),
        "campaign.plan_s": t.inclusive("campaign.planner.plan"),
        "campaign.forecast_calls": len(t.spans("campaign.planner.forecast")),
        "service.run_sweep_s": t.inclusive("service.run_sweep"),
        "perf.workload_sizes_calls": len(t.spans("perf.workload_sizes")),
        "perf.workload_sizes_s": t.inclusive("perf.workload_sizes"),
        "assets.build_calls": len(t.spans("assets.build")),
        "assets.build_s": t.inclusive("assets.build"),
        "trace.overhead_frac": overhead_frac,
    }


_STEP = {"core.propagators.step"}


def _in_steps(t: SpanTable, names, parents=None) -> float:
    """Wall time of spans named ``names`` that run inside a PT-CN step
    (optionally only those whose parent is named in ``parents``), nested
    same-name spans counted once."""
    names = set([names] if isinstance(names, str) else names)
    return sum(
        t.duration(i)
        for i in t.spans(names)
        if t.has_ancestor(i, _STEP)
        and not t.has_ancestor(i, names)
        and (parents is None or (t.parents[i] >= 0 and t.names[t.parents[i]] in parents))
    )


#: measured kernels of the shares table -> their seconds inside PT-CN steps
_MEASURED_KERNELS = {
    "local H·Psi": lambda t: _in_steps(t, _LOCAL, {"pw.hamiltonian.apply"}),
    "nonlocal H·Psi": lambda t: _in_steps(t, "pw.nonlocal.apply", {"pw.hamiltonian.apply"}),
    "exchange H·Psi": lambda t: _in_steps(t, "pw.exchange.apply"),
    "density": lambda t: _in_steps(t, _DENSITY),
    "Anderson": lambda t: _in_steps(t, "core.anderson.update"),
    "orthogonalisation": lambda t: _in_steps(t, _ORTHO),
}


def shares_table(t: SpanTable) -> list[str]:
    """Measured per-kernel shares of the PT-CN steps in a traced pass beside
    the modelled per-step shares of :class:`repro.perf.PWDFTPerformanceModel`
    for the 8-atom Si workload. Each column is normalised over its own rows;
    the two columns are never summed or mixed."""
    from repro.perf import PWDFTPerformanceModel, SiliconWorkload

    measured = {name: fn(t) for name, fn in _MEASURED_KERNELS.items()}
    model = PWDFTPerformanceModel(SiliconWorkload.from_atom_count(8))
    scf = model.scf_component_times(1)
    n_scf = model.n_scf_iterations
    n_fock = n_scf + model.extra_fock_applications
    modelled = {
        "local H·Psi": n_fock * scf.local_semilocal,  # local and nonlocal together
        "nonlocal H·Psi": None,
        "exchange H·Psi": n_fock * scf.fock_total,
        "density": n_scf * scf.density_total,
        "Anderson": n_scf * scf.anderson_total,
        "orthogonalisation": model.cholesky_time(),
    }
    measured_total = sum(measured.values()) or float("nan")
    modelled_total = sum(v for v in modelled.values() if v is not None)
    lines = [
        "kernel shares inside the PT-CN steps of the traced pass (each column over its own rows)",
        f"{'kernel':<18} {'measured local-CPU s':>21} {'share':>7}   {'modelled Summit s':>18} {'share':>7}",
    ]
    for name in _MEASURED_KERNELS:
        m, s = measured[name], modelled[name]
        right = f"{'(in local)':>18} {'':>7}" if s is None else f"{s:>18.3e} {s / modelled_total:>7.1%}"
        lines.append(f"{name:<18} {m:>21.4f} {m / measured_total:>7.1%}   {right}")
    lines.append(
        "modelled Summit s: PWDFTPerformanceModel(Si8).scf_component_times(1 GPU), "
        f"{n_scf} inner SCF iterations + {model.extra_fock_applications} extra Fock "
        "applications per step; local H·Psi includes nonlocal"
    )
    return lines
