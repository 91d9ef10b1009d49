"""MachineCostModel: fig7/8 calibration pins, monotonicity, energy accounting.

The calibration tests pin the cost stack's wall-clock predictions against the
established :mod:`repro.perf.scaling` reference curves (the model behind the
paper's Fig. 7 / Fig. 8 tables): absolute per-step time at the smallest
configuration, and predicted *speedups* across the whole GPU range. The
property tests check the two monotonicities every scheduler decision relies
on: more work never takes less time, and a faster network never makes
anything slower.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.paper_data import TABLE1_GPU_COUNTS
from repro.api import SimulationConfig
from repro.cost import MachineCostModel, resolve_machine, sweep_execution_point
from repro.machine import SUMMIT, SummitSystem
from repro.perf import strong_scaling, weak_scaling


@pytest.fixture(scope="module")
def model() -> MachineCostModel:
    return MachineCostModel()


def tiny_config(**overrides) -> SimulationConfig:
    base = {
        "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
        "basis": {"ecut": 2.0},
        "xc": {"hybrid_mixing": 0.0},
        "run": {"time_step_as": 1.0, "n_steps": 2},
    }
    return SimulationConfig.from_dict(base).with_overrides(overrides)


# ---------------------------------------------------------------------------
# Calibration against the fig7/8 reference curves
# ---------------------------------------------------------------------------


class TestFig7Calibration:
    def test_absolute_step_time_at_smallest_configuration(self, model):
        """The 36-GPU per-step prediction lands on the reference model's
        (which reproduces the paper's 2400 s Table-1 column)."""
        reference = strong_scaling(1536, (36,))[0].total_step_time
        predicted = model.silicon_step_estimate(1536, 36).seconds
        assert predicted == pytest.approx(reference, rel=0.15)

    def test_speedups_track_the_reference_curve(self, model):
        """Predicted strong-scaling speedups stay within tolerance of the
        component model's across the full Table-1 GPU range."""
        reference = strong_scaling(1536, TABLE1_GPU_COUNTS)
        estimates = model.silicon_scaling(1536, TABLE1_GPU_COUNTS)
        ref_base = reference[0].total_step_time
        est_base = estimates[0].seconds
        for ref_point, estimate in zip(reference, estimates):
            ref_speedup = ref_base / ref_point.total_step_time
            est_speedup = est_base / estimate.seconds
            assert est_speedup == pytest.approx(ref_speedup, rel=0.35), (
                f"speedup diverges at {ref_point.n_gpus} GPUs"
            )

    def test_both_curves_saturate_at_the_top(self, model):
        """Past the paper's 768-GPU knee the broadcast dominates and adding
        GPUs buys (almost) nothing, in the reference and in the cost model."""
        top = model.silicon_step_estimate(1536, 3072).seconds
        knee = model.silicon_step_estimate(1536, 768).seconds
        assert top == pytest.approx(knee, rel=0.05)


class TestFig8Calibration:
    def test_largest_system_time_matches_reference(self, model):
        """Si1536 on 768 GPUs — the paper's production point — within 30 %."""
        reference = {p.natoms: p for p in weak_scaling()}
        predicted = model.silicon_step_estimate(1536, 768).seconds
        assert predicted == pytest.approx(reference[1536].time_per_50as, rel=0.30)

    def test_weak_scaling_grows_monotonically(self, model):
        """Per-step time grows with system size along the paper's GPUs =
        atoms/2 series (the N^2-per-GPU law)."""
        times = [
            model.silicon_step_estimate(p.natoms, p.n_gpus).seconds for p in weak_scaling()
        ]
        assert all(b > a for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Monotonicity properties
# ---------------------------------------------------------------------------


class TestMonotonicity:
    @given(
        flops=st.floats(min_value=1e3, max_value=1e18),
        extra=st.floats(min_value=1e3, max_value=1e18),
        n_gpus=st.integers(min_value=1, max_value=3072),
    )
    @settings(max_examples=50, deadline=None)
    def test_more_work_never_takes_less_time(self, flops, extra, n_gpus):
        model = MachineCostModel()
        assert model.compute_seconds(flops + extra, n_gpus) > model.compute_seconds(flops, n_gpus)

    @given(factor=st.floats(min_value=1.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_faster_network_never_slows_a_step(self, factor):
        """Scaling every network bandwidth up can only shrink the predicted
        step time (the paper's closing 'scale further with improved network
        bandwidth' expectation)."""
        slow = MachineCostModel()
        fast_system = dataclasses.replace(
            SUMMIT,
            bcast_rank_bandwidth_gbs=factor * SUMMIT.bcast_rank_bandwidth_gbs,
            allreduce_rank_bandwidth_gbs=factor * SUMMIT.allreduce_rank_bandwidth_gbs,
        )
        fast = MachineCostModel(system=fast_system)
        # deep in the saturated regime, where the broadcast is the bottleneck
        assert fast.silicon_step_estimate(1536, 1536).seconds <= slow.silicon_step_estimate(1536, 1536).seconds
        assert fast.silicon_step_estimate(1536, 72).seconds <= slow.silicon_step_estimate(1536, 72).seconds

    def test_time_monotone_in_workload_size(self, model):
        """Bigger sweep workloads (more steps, larger basis) predict strictly
        more seconds."""
        seconds = [
            model.job_estimate(tiny_config(**{"run.n_steps": n})).seconds for n in (2, 4, 8)
        ]
        assert all(b > a for a, b in zip(seconds, seconds[1:]))
        # cutoffs chosen to actually enlarge the FFT grid at each step
        by_ecut = [
            model.job_estimate(tiny_config(**{"basis.ecut": e})).seconds for e in (1.5, 2.5, 4.0)
        ]
        assert all(b > a for a, b in zip(by_ecut, by_ecut[1:]))

    def test_more_gpus_never_slow_the_compute_conversion(self, model):
        flops = 1e15
        times = [model.compute_seconds(flops, n) for n in (1, 2, 6, 12, 96)]
        assert all(b < a for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Config plumbing and energy accounting
# ---------------------------------------------------------------------------


class TestEstimates:
    def test_energy_is_power_times_seconds_of_whole_nodes(self, model):
        estimate = model.group_estimate([tiny_config()])
        assert estimate.n_gpus == 1
        assert estimate.nodes == 1
        assert estimate.power_watts == SUMMIT.node.power_full_watts
        assert estimate.energy_joules == pytest.approx(estimate.power_watts * estimate.seconds)
        assert estimate.energy_kwh == pytest.approx(estimate.energy_joules / 3.6e6)

    def test_run_machine_gpus_override_flows_through(self, model):
        config = tiny_config(**{"run.machine": {"gpus_per_group": 6}})
        estimate = model.group_estimate([config])
        assert estimate.n_gpus == 6
        baseline = model.group_estimate([tiny_config()])
        assert estimate.seconds == pytest.approx(baseline.seconds / 6)
        # one node either way: same power, so 6 GPUs also win on energy
        assert estimate.energy_joules < baseline.energy_joules

    def test_from_config_reads_the_machine_section(self):
        config = tiny_config(**{"run.machine": {"name": "summit", "gpus_per_group": 3}})
        model = MachineCostModel.from_config(config)
        assert model.system is SUMMIT
        assert model.gpus_per_group == 3

    def test_group_estimate_reuses_caller_flops(self, model):
        given_flops = 1e12
        estimate = model.group_estimate([tiny_config()], flops=given_flops)
        assert estimate.flops == pytest.approx(model.step_flop_multiplier * given_flops)
        assert estimate.seconds == pytest.approx(
            model.compute_seconds(model.step_flop_multiplier * given_flops, 1)
        )

    def test_empty_group_costs_nothing(self, model):
        assert model.group_estimate([]).seconds == 0.0

    def test_as_dict_is_json_shaped(self, model):
        record = model.job_estimate(tiny_config()).as_dict()
        assert set(record) == {
            "flops", "seconds", "n_gpus", "nodes", "power_watts", "energy_joules",
        }

    def test_invalid_inputs_rejected(self, model):
        with pytest.raises(ValueError, match="flops"):
            model.compute_seconds(-1.0)
        with pytest.raises(ValueError, match="n_gpus"):
            model.compute_seconds(1.0, 0)
        with pytest.raises(ValueError, match="gpus_per_group"):
            MachineCostModel(gpus_per_group=0)

    def test_unknown_machine_lists_the_presets(self):
        with pytest.raises(ValueError, match="frontier.*summit"):
            resolve_machine("perlmutter")
        assert resolve_machine("summit") is SUMMIT
        from repro.machine import FRONTIER

        assert resolve_machine("frontier") is FRONTIER

    def test_oversubscribed_machine_rejected(self):
        small = MachineCostModel(system=SummitSystem(n_nodes=1))
        with pytest.raises(ValueError, match="GPUs"):
            small.compute_seconds(1e12, 7)


class TestSweepExecutionPoint:
    def test_reduces_per_rank_accounting(self):
        execution = {
            "ranks": 2,
            "n_groups": 3,
            "n_jobs": 6,
            "per_rank": [
                {"rank": 0, "predicted_seconds": 2.0, "observed_seconds": 0.4,
                 "predicted_energy_j": 10.0},
                {"rank": 1, "predicted_seconds": 3.0, "observed_seconds": 0.2,
                 "predicted_energy_j": 20.0},
            ],
        }
        point = sweep_execution_point(execution)
        assert point == {
            "ranks": 2,
            "n_groups": 3,
            "n_jobs": 6,
            "predicted_makespan_s": 3.0,
            "observed_makespan_s": 0.4,
            "predicted_energy_j": 30.0,
        }

    def test_requires_per_rank_accounting(self):
        with pytest.raises(ValueError, match="per-rank"):
            sweep_execution_point({"backend": "serial"})
        with pytest.raises(ValueError, match="per-rank"):
            sweep_execution_point({"per_rank": [None, "not-a-dict"]})
        # a 1-rank sweep carries one row and reduces like any other
        one_rank = {"ranks": 1, "per_rank": [{"rank": 0, "predicted_seconds": 2.0}]}
        assert sweep_execution_point(one_rank)["predicted_makespan_s"] == 2.0
