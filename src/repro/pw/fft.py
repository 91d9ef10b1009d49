"""Cached FFT plans and worker configuration for the plane-wave transforms.

Every hot path of the physics engine — orbital transforms, density
accumulation, Poisson solves, Fock exchange — funnels through the same few
3-D FFTs on the same few grids. Production plane-wave codes plan those
transforms once per (grid, dtype) and reuse the plan for every band, step and
job (cf. ``fft_plans()`` in GPAW's ``core/plane_waves.py``); this module is
that cache for the pure-Python engine:

* :func:`get_plan` returns the process-wide :class:`FFTPlan` for an
  :class:`~repro.pw.grid.FFTGrid` and dtype. Plans are keyed by the grid's
  value semantics (``FFTGrid.__eq__`` / ``__hash__``: shape + cell), so equal
  grids share one plan and unequal grids never do.
* Transforms run through :mod:`scipy.fft` (pocketfft) with a configurable
  ``workers`` count, falling back to :mod:`numpy.fft` when scipy is
  unavailable. pocketfft computes every transform of a batch independently,
  so stacking jobs/bands along leading axes is bit-identical to transforming
  each slice alone — the property the batched stepping engine relies on.
* :func:`set_fft_workers` / :func:`get_fft_workers` control the
  intra-transform thread count (``REPRO_FFT_WORKERS`` sets it at import;
  default 1).
"""

from __future__ import annotations

import os

import numpy as np

try:  # scipy is a hard dependency of the package, but the fallback keeps
    from scipy import fft as _scipy_fft  # the pw layer importable without it
except ImportError:  # pragma: no cover - exercised via _set_backend in tests
    _scipy_fft = None

__all__ = [
    "FFTPlan",
    "get_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "set_fft_workers",
    "get_fft_workers",
    "scipy_fft_available",
    "plan_dtype",
]

#: the transform axes of every plan: the trailing grid axes, so any number of
#: leading (job, band) axes batch through a single call
_AXES = (-3, -2, -1)


def _initial_workers() -> int:
    raw = os.environ.get("REPRO_FFT_WORKERS", "").strip()
    try:
        value = int(raw) if raw else 1
    except ValueError:
        value = 1
    return max(1, value)


_workers = _initial_workers()


def set_fft_workers(n: int) -> None:
    """Set the thread count every plan uses (scipy backend only)."""
    if int(n) < 1:
        raise ValueError(f"fft workers must be >= 1, got {n}")
    global _workers
    _workers = int(n)


def get_fft_workers() -> int:
    """The current per-transform thread count."""
    return _workers


def scipy_fft_available() -> bool:
    """Whether the scipy pocketfft backend is in use (else numpy fallback)."""
    return _scipy_fft is not None


def plan_dtype(dtype) -> np.dtype:
    """The plan dtype serving arrays of ``dtype``: single-precision inputs
    keep the ``complex64`` tier, everything else is ``complex128``."""
    dtype = np.dtype(dtype)
    if dtype in (np.dtype(np.complex64), np.dtype(np.float32)):
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)


class FFTPlan:
    """The reusable transform + workspace bundle of one ``(grid, dtype)``.

    A plan is cheap state — the grid, the dtype tier, and a workspace table
    for callers that scatter sphere coefficients onto the full mesh — but
    caching it process-wide is what lets every step of every job share the
    same backend configuration.

    Obtain plans through :func:`get_plan`; constructing them directly
    bypasses the cache.
    """

    __slots__ = ("grid", "dtype", "_workspaces")

    def __init__(self, grid, dtype=np.complex128):
        self.grid = grid
        self.dtype = np.dtype(dtype)
        self._workspaces: dict = {}

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Threads the next transform will use (module-wide setting)."""
        return _workers

    def fftn(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Forward transform over the trailing grid axes (batches leading).

        ``overwrite=True`` lets the backend reuse ``values`` as scratch — only
        pass it for arrays the caller discards (the transform result is
        bit-identical either way; pocketfft runs the same butterflies whether
        or not the output aliases the input).
        """
        values = np.asarray(values)
        if _scipy_fft is not None:
            return _scipy_fft.fftn(values, axes=_AXES, workers=_workers, overwrite_x=overwrite)
        out = np.fft.fftn(values, axes=_AXES)
        if self.dtype == np.complex64 and out.dtype != np.complex64:
            out = out.astype(np.complex64)  # older numpy upcasts single precision
        return out

    def ifftn(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Inverse transform over the trailing grid axes (batches leading)."""
        values = np.asarray(values)
        if _scipy_fft is not None:
            return _scipy_fft.ifftn(values, axes=_AXES, workers=_workers, overwrite_x=overwrite)
        out = np.fft.ifftn(values, axes=_AXES)
        if self.dtype == np.complex64 and out.dtype != np.complex64:
            out = out.astype(np.complex64)
        return out

    # ------------------------------------------------------------------
    def workspace(self, lead_shape: tuple, fill_indices=None) -> np.ndarray:
        """A reusable zeroed mesh buffer with the given leading axes.

        The buffer is owned by the plan and handed out again on the next call
        with the same ``lead_shape`` — callers must treat it as scratch whose
        contents are only valid until their next plan call (the scatter/FFT
        hot path copies out of it immediately). ``fill_indices`` documents the
        contract that makes reuse sound: a caller that only ever writes the
        same flat mesh positions finds every *other* position still zero from
        the initial allocation, so no re-zeroing is needed between calls.
        """
        key = (tuple(lead_shape), None if fill_indices is None else id(fill_indices))
        entry = self._workspaces.get(key)
        if entry is None:
            buffer = np.zeros(tuple(lead_shape) + (self.grid.size,), dtype=self.dtype)
            # pin fill_indices alive: the key uses its id(), which could be
            # recycled for a different index set if the array were collected
            entry = (buffer, fill_indices)
            self._workspaces[key] = entry
        return entry[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FFTPlan(shape={self.grid.shape}, dtype={self.dtype}, workers={_workers})"


_PLANS: dict = {}


def get_plan(grid, dtype=np.complex128) -> FFTPlan:
    """The process-wide plan for ``(grid, dtype)``.

    Keys use the grid's value equality (shape + cell), so two equal
    :class:`~repro.pw.grid.FFTGrid` instances — e.g. the wavefunction grids
    of every job in a sweep group — resolve to one shared plan, while grids
    differing in shape or cell always get distinct plans.
    """
    key = (grid, np.dtype(dtype))
    plan = _PLANS.get(key)
    if plan is None:
        plan = FFTPlan(grid, dtype)
        _PLANS[key] = plan
    return plan


def plan_cache_info() -> dict:
    """Snapshot of the plan cache (for tests and diagnostics)."""
    return {
        "n_plans": len(_PLANS),
        "keys": [(grid.shape, str(dtype)) for grid, dtype in _PLANS],
        "backend": "scipy" if _scipy_fft is not None else "numpy",
        "workers": _workers,
    }


def clear_plan_cache() -> None:
    """Drop every cached plan (frees workspaces; used by tests)."""
    _PLANS.clear()
