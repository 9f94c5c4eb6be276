"""Canonical diagonal systems used throughout the analyses.

* ``heat-dirichlet`` -- the 1-D heat equation on (0, 1) with the boundary
  value prescribed at xi = 1, expanded in the sine eigenbasis.  The
  boundary datum enters through the harmonic lift ``xi``, whose
  coefficients against ``sqrt(2) sin(n pi xi)`` are
  ``sqrt(2) (-1)^(n+1) / (n pi)``; multiplying by the eigenvalue
  ``(n pi)^2`` gives the input column ``b_n = sqrt(2) n pi (-1)^(n+1)``.

* ``heat-neumann`` -- the same rod with a prescribed flux at xi = 1 and a
  clamped end at xi = 0.  Eigenfunctions ``sqrt(2) sin((n - 1/2) pi xi)``
  feed the flux through their boundary trace, so ``b_n = sqrt(2) (-1)^(n+1)``
  with eigenvalues ``((n - 1/2) pi)^2``.

* ``counterexample`` -- the dyadic family ``lam_n = 2^n``, ``b_n = 2^(n/2)``
  (n >= 1): its half-power extrapolation norm is exactly sqrt(N) and
  diverges, yet the empirical square-integrable admissibility constant
  stays bounded.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .systems import SpectralSystem

__all__ = [
    "MODEL_NAMES",
    "build_model",
    "counterexample_system",
    "heat_system",
]

# Guard for the dyadic family: keep lam_n^2 and the pairwise products
# 2^((n+m)/2) well inside double range.
COUNTEREXAMPLE_MAX_MODES = 300


def heat_system(boundary: str, modes: int) -> SpectralSystem:
    """Modal truncation of the heated rod with boundary input at xi = 1."""
    if modes < 1:
        raise ValueError("modes must be at least 1")
    n = np.arange(1, modes + 1, dtype=float)
    signs = np.where(np.arange(1, modes + 1) % 2 == 1, 1.0, -1.0)
    if boundary == "dirichlet":
        lam = (n * np.pi) ** 2
        coeffs = np.sqrt(2.0) * n * np.pi * signs
        label = "heat-dirichlet"
    elif boundary == "neumann":
        lam = ((n - 0.5) * np.pi) ** 2
        coeffs = np.sqrt(2.0) * signs
        label = "heat-neumann"
    else:
        raise ValueError(f"unknown boundary kind {boundary!r}")
    return SpectralSystem(lam, coeffs, label=label)


def counterexample_system(modes: int) -> SpectralSystem:
    """The dyadic family lam_n = 2^n, b_n = 2^(n/2), indexed from n = 1."""
    if modes < 1:
        raise ValueError("modes must be at least 1")
    if modes > COUNTEREXAMPLE_MAX_MODES:
        raise ValueError(
            f"refusing {modes} dyadic modes; beyond {COUNTEREXAMPLE_MAX_MODES} the "
            "squared entries leave the safely representable range"
        )
    n = np.arange(1, modes + 1, dtype=float)
    return SpectralSystem(2.0**n, 2.0 ** (n / 2.0), label="counterexample")


_REGISTRY = {
    "heat-dirichlet": partial(heat_system, "dirichlet"),
    "heat-neumann": partial(heat_system, "neumann"),
    "counterexample": counterexample_system,
}

MODEL_NAMES = tuple(sorted(_REGISTRY))


def build_model(name: str, modes: int) -> SpectralSystem:
    """Instantiate a registered model at the requested truncation size."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}"
        ) from None
    return factory(modes)

