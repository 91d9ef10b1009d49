"""Precision tiers for propagation (production double vs screening single).

The propagation engine runs in ``complex128`` by default — that is the tier
all golden fixtures, store objects and rank-count-invariant bit-identity guarantees
refer to. An opt-in ``complex64`` tier halves the memory traffic of the
FFT-bound stepping hot path for *screening* sweeps, where one only needs to
rank candidate (dt, propagator, laser) points before re-running the keepers
in double.

Contract of the ``complex64`` tier
----------------------------------
* Orbitals, stage algebra and FFTs run in single precision; densities,
  potentials and recorded observables stay ``float64`` (accumulated from
  single-precision orbitals).
* Results are stamped ``precision: complex64`` in trajectory metadata and
  sweep-report summaries, and are **never** written to or served from the
  result store — a warm store can only ever return double-precision physics.
* Accuracy is tolerance-bounded, not bit-reproducible: deviations from the
  ``complex128`` reference stay within the documented bounds below for the
  tiny reference configs the test suite pins (short runs, well-conditioned
  steps). They are screening bounds, not error guarantees for arbitrary
  configs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PRECISIONS",
    "DEFAULT_PRECISION",
    "COMPLEX64_NORM_TOL",
    "COMPLEX64_ENERGY_TOL",
    "COMPLEX64_DIPOLE_TOL",
    "resolve_precision",
    "precision_dtype",
]

#: the supported precision tiers, default first
PRECISIONS: tuple[str, ...] = ("complex128", "complex64")

DEFAULT_PRECISION = "complex128"

#: max deviation of per-band norms / electron number (relative) from the
#: complex128 reference over a short screening run
COMPLEX64_NORM_TOL = 1e-5

#: max absolute deviation of total energies (Ha) from the complex128
#: reference over a short screening run of the tiny test configs
COMPLEX64_ENERGY_TOL = 1e-4

#: max absolute deviation of dipole components (a.u.) from the complex128
#: reference over a short screening run of the tiny test configs
COMPLEX64_DIPOLE_TOL = 1e-4


def resolve_precision(name: str | None) -> str:
    """Validate a precision-tier name, defaulting to ``complex128``."""
    if name is None:
        return DEFAULT_PRECISION
    name = str(name)
    if name not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, got {name!r}")
    return name


def precision_dtype(name: str | None) -> np.dtype:
    """The coefficient dtype of a precision tier."""
    return np.dtype(resolve_precision(name))
