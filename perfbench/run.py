#!/usr/bin/env python3
"""End-to-end benchmark of the repro rt-TDDFT stack, with a traced per-layer pass.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload si8-hse-job --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``si8-hse-job``, ``si8-dt-sweep`` and
``spectra-warm-queries``. Everything runs in this one process, with no
process pool and the OpenMP/OpenBLAS/MKL thread caps pinned to one thread
(at most the CPUs this process may use).

Protocol. A run sets its workload up several times (three for the si8 job,
two otherwise), each time from the same seed-generated inputs. After each
set-up it times the workload's units: one job (or one sweep) per set-up for
the si8 workloads, and closed-loop query rounds for ``--seconds`` divided by
the set-up count for the query workload. ``setup_s`` and ``wall_s`` are
medians over set-ups and units. After every unit, untimed
checks verify the outputs; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the last set-up and its units run with every layer
wrapper installed (``layers.instrument``): spans stay in memory and are
written to ``.perfbench/trace-<workload>-seed<seed>.json`` when the run ends.
The untraced set-ups before it give the end-to-end numbers and the base of
``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

#: CPUs this process may run on (``nproc``)
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: native threads per pool. One thread, below the nproc cap: on the 8-atom
#: cell BLAS calls are small, two threads ran the Si8 SCF slower (10.5 s
#: against 8.9 s on a 2-CPU Xeon) and oversubscribe the CPUs as soon as
#: anything else runs beside the benchmark.
BLAS_THREADS = 1


def _pin_threads() -> None:
    """Pin native thread pools (before numpy loads its BLAS)."""
    for var in THREAD_CAPS:
        os.environ[var] = str(min(BLAS_THREADS, NPROC))


HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end metrics every workload reports in the result line
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "jobs_per_s": "1/s"}


def _environment() -> dict:
    import numpy
    import scipy

    from repro.pw.fft import get_fft_workers

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "cpu": cpu,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "fft_workers": get_fft_workers(),
        "commit": commit,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_threads()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import layers
    from tracer import Tracer, percentile, tail_percentile
    from workloads import WORKLOADS, summarize_checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work_dir)
    order_rng = np.random.default_rng([args.seed, 1])
    setups, units, walls, traced_walls = [], [], [], []
    tracer = None
    try:
        for repeat in range(workload.setups):
            traced = bool(args.trace) and repeat == workload.setups - 1
            if traced:
                tracer = Tracer()
                layers.instrument(tracer)
            start = time.perf_counter()
            state = workload.setup(np.random.default_rng(args.seed))
            setups.append(time.perf_counter() - start)
            box_start = time.perf_counter()
            while True:
                start = time.perf_counter()
                unit = workload.unit(state, order_rng)
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
                workload.verify(state, unit)
                if tracer is not None:
                    tracer.enabled = True
                unit["traced"] = traced
                units.append(unit)
                (traced_walls if traced else walls).append(wall)
                elapsed = time.perf_counter() - box_start
                if not workload.repeatable or elapsed >= args.seconds / workload.setups:
                    break
            if tracer is not None:
                tracer.enabled = False
            workload.teardown(state)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    summarize_checks(workload, units)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    # end-to-end numbers come from untraced units only
    total = lambda key: sum(u[key] for u in units if not u["traced"])  # noqa: E731
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs_per_s": total("jobs") / sum(walls),
        "failed_frac": total("failed") / total("attempted"),
    }
    units_of = dict(END_TO_END, failed_frac="ratio")
    if workload.propagates:
        metrics["s_per_fs"] = total("prop_s") / total("sim_fs")
        metrics["unconverged_step_frac"] = total("unconverged_steps") / total("steps")
        units_of.update(s_per_fs="s/fs", unconverged_step_frac="ratio")
    if workload.queries:
        latencies = [x for u in units if not u["traced"] for x in u["latencies"]]
        metrics["query_p50_s"] = percentile(latencies, 50)
        metrics["query_p90_s"] = tail_percentile(latencies, 90)
        units_of.update(query_p50_s="s", query_p90_s="s")

    env = _environment()
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"protocol: {workload.setups} set-ups, {len(units)} timed units "
        f"({len(traced_walls)} traced), {attempted} jobs or queries attempted"
    )
    print("set-up seconds: " + " ".join(f"{x:.3f}" for x in setups))
    if not workload.repeatable:
        print("unit seconds: " + " ".join(f"{x:.3f}" for x in walls + traced_walls))
    label = "end-to-end (untraced set-ups only)" if args.trace else "end-to-end"
    print(f"{label}:")
    for name, value in metrics.items():
        note = ""
        if name == "query_p90_s" and value is None:
            note = "  (fewer than 10 samples above p90)"
        print(f"  {name:<24} {_fmt(value):>12} {units_of[name]}{note}")
    if failed:
        print(f"  known defect ({failed} of {attempted} failed): {workload.known_defect}")
    print("checks:")
    for name, ok, detail in workload.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    correct = all(ok for _, ok, _ in workload.checks)

    if args.trace:
        table = tracer.table()
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        per_layer = layers.layer_metrics(table, workload.quarantined(), overhead)
        print(f"per-layer (traced set-up and units, {len(table)} spans):")
        for name, value in per_layer.items():
            print(f"  {name:<40} {_fmt(value):>14} {layers.UNITS[name]}")
        if workload.propagates:
            print("\n".join(layers.shares_table(table)))
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": workload.name, "seed": args.seed, "environment": env,
                                 "per_layer": per_layer})
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        result_metrics = {
            name: {"value": per_layer[name], "unit": layers.UNITS[name]} for name in layers.RESULT_LINE
        }
    else:
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
