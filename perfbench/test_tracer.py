"""Tests of the benchmark's tracer and per-layer metrics.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import NAME_PATTERN, SpanTable, Tracer, percentile, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _nested_table() -> SpanTable:
    tracer = Tracer(clock=FakeClock())
    root = tracer.open("a.root")
    for _ in range(3):
        child = tracer.open("a.child")
        leaf = tracer.open("a.leaf")
        tracer.close(leaf)
        tracer.close(child)
    tracer.close(root)
    return tracer.table()


def test_children_fit_inside_their_parent():
    table = _nested_table()
    for index in range(len(table)):
        children = table.children[index]
        assert sum(table.duration(c) for c in children) <= table.duration(index)
        for child in children:
            assert table.starts[index] <= table.starts[child] <= table.ends[child] <= table.ends[index]
        assert 0.0 <= table.self_time(index) <= table.duration(index)


def test_self_time_is_duration_minus_children():
    table = _nested_table()
    (root,) = table.spans("a.root")
    covered = sum(table.duration(c) for c in table.children[root])
    assert table.self_time(root) == table.duration(root) - covered
    assert table.inclusive(["a.root", "a.child"]) == table.duration(root)
    assert len(table.within("a.leaf", "a.root")) == 3
    assert len(table.direct("a.leaf", "a.root")) == 0


def test_traced_layers_record_nested_spans_and_restore_every_wrapper():
    """Wrap the real package, run a tiny SCF, check the spans, then restore."""
    from repro.api import Session, SimulationConfig
    from repro.pw import eigensolver, ground_state

    originals = {
        "ground_state.block_davidson": ground_state.block_davidson,
        "eigensolver.block_davidson": eigensolver.block_davidson,
        "GroundStateSolver.solve": ground_state.GroundStateSolver.__dict__["solve"],
        "Session.hamiltonian": Session.__dict__["hamiltonian"],
    }
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        # the name-imported eigensolver is wrapped where the SCF resolves it
        assert ground_state.block_davidson is not originals["ground_state.block_davidson"]
        config = SimulationConfig.from_dict(
            {
                "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0}},
                "basis": {"ecut": 2.0},
                "xc": {"hybrid_mixing": 0.0},
                "run": {"time_step_as": 10.0, "n_steps": 1, "gs_max_scf_iterations": 3},
            }
        )
        Session(config).propagate()
    finally:
        tracer.restore()

    assert ground_state.block_davidson is originals["ground_state.block_davidson"]
    assert eigensolver.block_davidson is originals["eigensolver.block_davidson"]
    assert ground_state.GroundStateSolver.__dict__["solve"] is originals["GroundStateSolver.solve"]
    assert Session.__dict__["hamiltonian"] is originals["Session.hamiltonian"]

    table = tracer.table()
    assert table.spans("pw.ground_state.solve")
    assert table.within("pw.eigensolver.block_davidson", "pw.ground_state.solve")
    assert table.within("pw.hamiltonian.apply", "pw.eigensolver.block_davidson")
    assert table.spans("core.propagators.step")
    for index in range(len(table)):
        assert NAME_PATTERN.match(table.names[index])
        assert sum(table.duration(c) for c in table.children[index]) <= table.duration(index)

    metrics = layers.layer_metrics(table, quarantined=0, overhead_frac=0.0)
    assert set(metrics) == set(layers.UNITS)
    assert metrics["pw.ground_state.scf_iterations"] == 3
    assert metrics["core.propagators.steps"] == 1
    assert metrics["pw.eigensolver.rows_per_apply"] > 0


def test_metric_and_benchmark_names_follow_the_grammar():
    for name in layers.UNITS:
        assert NAME_PATTERN.match(name), name
    assert set(layers.RESULT_LINE) <= set(layers.UNITS)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.RESULT_LINE)
    for metric in spec["per_layer"]:
        assert metric["unit"] == layers.UNITS[metric["name"]]
    for name in ("bad", "Pw.fft", "pw..fft", "pw.fft-s", "pw.fft."):
        assert not NAME_PATTERN.match(name)


def test_p90_needs_ten_samples_above_it():
    assert tail_percentile(list(range(1, 100)), 90) is None  # 9 samples above 90
    assert tail_percentile(list(range(1, 101)), 90) == 90  # 91..100 lie above
    assert tail_percentile([], 90) is None
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
