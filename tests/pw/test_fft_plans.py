"""The FFT plan cache: key contracts, backends, workers and workspaces.

The plan cache (:mod:`repro.pw.fft`) is keyed on ``(FFTGrid, dtype)``, so its
safety rests entirely on the value semantics of ``FFTGrid.__eq__`` /
``__hash__`` (shape + cell) and ``Cell.__eq__`` / ``__hash__`` (lattice
vectors). These tests pin that contract, the scipy/numpy backend behaviour
the batched stepping engine relies on (leading-axis batches bit-identical to
per-slice transforms), the dtype tiers, and the worker-count validation.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.pw import FFTGrid, PlaneWaveBasis, choose_grid_shape, hydrogen_molecule
from repro.pw import fft as fft_mod
from repro.pw.fft import (
    clear_plan_cache,
    get_fft_workers,
    get_plan,
    plan_cache_info,
    plan_dtype,
    scipy_fft_available,
    set_fft_workers,
)
from repro.pw.lattice import Cell


@pytest.fixture(autouse=True)
def _restore_fft_config():
    """Restore the module-wide worker count and env var after every test."""
    workers = get_fft_workers()
    env = os.environ.get("REPRO_FFT_WORKERS")
    yield
    set_fft_workers(workers)
    if env is None:
        os.environ.pop("REPRO_FFT_WORKERS", None)
    else:
        os.environ["REPRO_FFT_WORKERS"] = env


def _grid(box: float = 6.0, ecut: float = 2.0) -> FFTGrid:
    structure = hydrogen_molecule(box=box, bond_length=1.4)
    return FFTGrid(structure.cell, choose_grid_shape(structure.cell, ecut, factor=1.0))


class TestPlanCacheKeyContract:
    def test_cell_equality_is_by_value(self):
        assert Cell(np.eye(3) * 6.0) == Cell(np.eye(3) * 6)
        assert hash(Cell(np.eye(3) * 6.0)) == hash(Cell(np.eye(3) * 6))
        assert Cell(np.eye(3) * 6.0) != Cell(np.eye(3) * 7.0)

    def test_grid_equality_is_shape_plus_cell(self):
        a, b = _grid(), _grid()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != _grid(box=7.0)  # different cell
        assert a != FFTGrid(a.cell, tuple(n + 2 for n in a.shape))  # different shape

    def test_equal_grids_share_one_plan(self):
        a, b = _grid(), _grid()
        assert get_plan(a) is get_plan(b)
        assert get_plan(a) is not get_plan(_grid(box=7.0))

    def test_dtype_tiers_get_distinct_plans(self):
        grid = _grid()
        p128 = get_plan(grid, np.complex128)
        p64 = get_plan(grid, np.complex64)
        assert p128 is not p64
        assert p64.dtype == np.dtype(np.complex64)

    def test_plan_dtype_mapping(self):
        assert plan_dtype(np.complex64) == np.dtype(np.complex64)
        assert plan_dtype(np.float32) == np.dtype(np.complex64)
        assert plan_dtype(np.complex128) == np.dtype(np.complex128)
        assert plan_dtype(np.float64) == np.dtype(np.complex128)

    def test_cache_info_and_clear(self):
        clear_plan_cache()
        grid = _grid()
        get_plan(grid)
        info = plan_cache_info()
        assert info["n_plans"] == 1
        assert info["keys"] == [(grid.shape, "complex128")]
        assert info["backend"] in ("scipy", "numpy")
        assert info["workers"] == get_fft_workers()
        clear_plan_cache()
        assert plan_cache_info()["n_plans"] == 0


class TestTransforms:
    def test_round_trip(self, rng):
        grid = _grid()
        plan = get_plan(grid)
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        np.testing.assert_allclose(plan.ifftn(plan.fftn(values)), values, atol=1e-12)

    def test_batched_transform_is_bit_identical_per_slice(self, rng):
        # the property the whole batched stepping engine rests on
        grid = _grid()
        plan = get_plan(grid)
        stack = rng.standard_normal((4, 2) + grid.shape) + 1j * rng.standard_normal(
            (4, 2) + grid.shape
        )
        forward = plan.fftn(stack)
        backward = plan.ifftn(stack)
        for i in range(4):
            for j in range(2):
                assert np.array_equal(forward[i, j], plan.fftn(stack[i, j]))
                assert np.array_equal(backward[i, j], plan.ifftn(stack[i, j]))

    def test_worker_count_does_not_change_the_bits(self, rng):
        if not scipy_fft_available():
            pytest.skip("workers are a scipy-backend feature")
        grid = _grid()
        plan = get_plan(grid)
        values = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal(
            (3,) + grid.shape
        )
        set_fft_workers(1)
        single = plan.fftn(values)
        set_fft_workers(2)
        assert np.array_equal(plan.fftn(values), single)

    def test_numpy_fallback_matches_scipy(self, rng, monkeypatch):
        grid = _grid()
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        reference = get_plan(grid).fftn(values)
        monkeypatch.setattr(fft_mod, "_scipy_fft", None)
        assert not scipy_fft_available()
        assert plan_cache_info()["backend"] == "numpy"
        np.testing.assert_allclose(get_plan(grid).fftn(values), reference, atol=1e-10)

    def test_numpy_fallback_keeps_complex64(self, rng, monkeypatch):
        grid = _grid()
        values = (
            rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        ).astype(np.complex64)
        monkeypatch.setattr(fft_mod, "_scipy_fft", None)
        plan = get_plan(grid, np.complex64)
        assert plan.fftn(values).dtype == np.complex64
        assert plan.ifftn(values).dtype == np.complex64

    def test_grid_transforms_preserve_dtype(self, rng):
        grid = _grid()
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        assert grid.to_fourier(grid.to_real(values)).dtype == np.complex128
        single = values.astype(np.complex64)
        assert grid.to_real(single).dtype == np.complex64
        assert grid.to_fourier(single).dtype == np.complex64
        np.testing.assert_allclose(grid.to_fourier(grid.to_real(values)), values, atol=1e-10)


class TestWorkers:
    def test_set_fft_workers_validates(self):
        with pytest.raises(ValueError, match="workers"):
            set_fft_workers(0)


class TestWorkspace:
    def test_workspace_is_reused_per_lead_shape(self):
        grid = _grid()
        plan = get_plan(grid)
        indices = np.arange(3)
        first = plan.workspace((2, 3), fill_indices=indices)
        assert first.shape == (2, 3, grid.size)
        assert plan.workspace((2, 3), fill_indices=indices) is first
        assert plan.workspace((4,), fill_indices=indices) is not first

    def test_scatter_reuse_is_sound_across_calls(self, h2_basis, rng):
        # repeated transforms through the shared scratch buffer must keep
        # every off-sphere mesh position zero — different coefficients, same
        # results as a fresh allocation every time
        reference_grid = _grid()  # force plan creation elsewhere is irrelevant
        assert reference_grid is not None
        for _ in range(3):
            coeffs = rng.standard_normal((2, h2_basis.npw)) + 1j * rng.standard_normal(
                (2, h2_basis.npw)
            )
            via_workspace = h2_basis.to_real_space(coeffs)
            fresh = h2_basis.grid.to_real(h2_basis.to_grid(coeffs))
            assert np.array_equal(via_workspace, fresh)

    def test_batched_to_real_space_matches_per_band(self, h2_basis, rng):
        coeffs = rng.standard_normal((3, 2, h2_basis.npw)) + 1j * rng.standard_normal(
            (3, 2, h2_basis.npw)
        )
        stacked = h2_basis.to_real_space(coeffs)
        for j in range(3):
            assert np.array_equal(stacked[j], h2_basis.to_real_space(coeffs[j]))


def test_plane_wave_basis_rejects_wrong_npw(h2_basis):
    with pytest.raises(ValueError, match="npw"):
        h2_basis.to_real_space(np.zeros((2, h2_basis.npw + 1), dtype=complex))
