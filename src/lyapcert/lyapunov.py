"""Quadratic Lyapunov candidates V(x) = <Px, x> and their coercivity data.

The constructors realize the square-function integrals

    V(x)   = int_0^inf ||(-A)^(1/2) T(t) x||^2 dt        (coercive route)
    W_q(x) = int_0^inf ||(-A)^q     T(t) x||^2 dt        (0 <= q <= 1/2)

which for a diagonal generator collapse to explicit per-mode weights
``lam^(2q-1) / 2``.  Dense systems go through a continuous Lyapunov solve
instead, one per system and exponent; the system supplies the operator
(``square_function_form``).  The half squared norm does not depend on the
generator: it is weight 1/2 per coordinate on every realization, and on a
diagonal system it equals V_half.  V_half's solve must pass a refinement
check that bounds its error over every unit state.  The quadrature of the
defining integral, the orbit energy ``dissipation._orbit_energy``, serves
only the three-term decomposition there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .systems import ConditioningError, DimensionMismatchError, _real_array

__all__ = [
    "ContractionReport",
    "GainEnvelope",
    "IndefiniteFormError",
    "QuadraticForm",
    "build_half_norm",
    "build_v_half",
    "build_w_plain",
    "build_w_q",
    "contraction_similarity",
]

_PSD_TOL = 1e-10


class IndefiniteFormError(ValueError):
    """A candidate form is numerically indefinite beyond tolerance."""


@dataclass(frozen=True)
class QuadraticForm:
    """A positive quadratic functional, stored as diagonal weights or a dense P.

    The coercivity envelope ``a1 ||x||^2 <= V(x) <= a2 ||x||^2`` holds
    exactly by construction with ``a1``/``a2`` the extremal weights or
    eigenvalues.  ``generator_power`` records the exponent q when the form
    came from a square-function integral; it is needed to decompose
    perturbed values along trajectories.
    """

    weights: np.ndarray | None = None
    p_matrix: np.ndarray | None = None
    provenance: str = "custom"
    generator_power: float | None = None
    a1: float = field(init=False, default=0.0)
    a2: float = field(init=False, default=0.0)

    def __post_init__(self):
        if (self.weights is None) == (self.p_matrix is None):
            raise ValueError("provide exactly one of weights or p_matrix")
        name = "weights" if self.p_matrix is None else "p_matrix"
        data = _real_array(getattr(self, name), name)
        if data.size < 1 or not np.all(np.isfinite(data)):
            raise ValueError(f"{name} must be a non-empty finite sequence")
        if self.weights is not None:
            w = data.reshape(-1).copy()
            if np.any(w <= 0.0):
                raise IndefiniteFormError("diagonal weights must be strictly positive")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
            lo, hi = float(w.min()), float(w.max())
        else:
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError("p_matrix must be square")
            scale = max(float(np.abs(data).max()), 1.0)
            if np.abs(data - data.T).max() > 1e-10 * scale:
                raise ValueError("p_matrix must be symmetric")
            p = (data + data.T) / 2.0
            eigs = np.linalg.eigvalsh(p)
            if eigs[0] < -_PSD_TOL * scale:
                raise IndefiniteFormError(
                    f"p_matrix has eigenvalue {eigs[0]:.3g} below tolerance"
                )
            p.setflags(write=False)
            object.__setattr__(self, "p_matrix", p)
            lo, hi = float(eigs[0]), float(eigs[-1])
        object.__setattr__(self, "a1", lo)
        object.__setattr__(self, "a2", hi)

    @property
    def dimension(self) -> int:
        if self.weights is not None:
            return int(self.weights.size)
        return int(self.p_matrix.shape[0])

    def values(self, states, overwrite=False) -> np.ndarray:
        """V of each row of a stack of states, bit-identical to ``value``.

        The states go through :func:`_real_array`, as by ``as_state``, which
        hands a float64 stack back as itself.  With ``overwrite`` a diagonal
        form squares a float64 ``states`` in place, which must then be
        writable, and leaves it holding the weighted squares; the values keep
        their bits.  A dense ``P`` ignores it.
        """
        states = np.atleast_2d(_real_array(states, "states"))
        if states.shape[1] != self.dimension:
            raise DimensionMismatchError("state length does not match the form")
        if self.weights is not None:
            squares = np.multiply(states, states, out=states if overwrite else None)
            return np.sum(np.multiply(squares, self.weights, out=squares), axis=-1)
        return (states[:, None, :] @ (self.p_matrix @ states[..., None]))[:, 0, 0]

    def value(self, x) -> float:
        """Evaluate V(x)."""
        return float(self.values(np.reshape(x, (1, -1)))[0])

    def p_apply(self, x) -> np.ndarray:
        """Apply the representing operator P to a state."""
        x = _real_array(x, "states").reshape(-1)
        if self.weights is not None:
            return self.weights * x
        return self.p_matrix @ x

    def to_config(self) -> dict:
        if self.weights is not None:
            doc = {"kind": "diagonal", "weights": [float(v) for v in self.weights]}
        else:
            doc = {"kind": "dense", "p": self.p_matrix.tolist()}
        doc["provenance"] = self.provenance
        return doc


def build_v_half(sys) -> QuadraticForm:
    """The coercive square-function form with exponent one half.

    Diagonal systems collapse to the constant weight 1/2 for every mode,
    i.e. half the squared norm.  Dense systems solve the Lyapunov equation
    A^T P + P A = -S^T S with S = (-A)^(1/2); the error bound ``||E||_2`` of
    ``sys.square_function_error`` must stay within ``1e-6 max(1, |V(p)|)``
    at the unit probe ``p = 1/sqrt(n)``, or :class:`ConditioningError` is raised.
    """
    provenance = "square-function integral, exponent one half"
    form = QuadraticForm(**sys.square_function_form(0.5, provenance))
    probe = np.ones(sys.dimension) / np.sqrt(sys.dimension)
    error = sys.square_function_error(0.5)
    if not error <= 1e-6 * max(1.0, abs(form.value(probe))):
        raise ConditioningError(f"Lyapunov solve fails its refinement check: ||E||_2 = {error:.6g}")
    return form


def build_w_q(sys, q) -> QuadraticForm:
    """The square-function family W_q; non-coercive in the limit for q < 1/2.

    Diagonal weights are ``lam^(2q-1)/2``: the lower coercivity constant of
    an N-mode truncation is ``lam_N^(2q-1)/2`` and drifts to zero with
    growing N whenever q < 1/2 and the spectrum is unbounded.
    """
    q = _real_array(q, "q").tolist()
    if not 0.0 <= q <= 0.5 + 1e-12:
        raise ValueError("q must lie in [0, 1/2]")
    q = min(q, 0.5)
    return QuadraticForm(**sys.square_function_form(q, f"square-function integral, exponent {q:g}"))


def build_w_plain(sys) -> QuadraticForm:
    """The plain orbit-energy form int ||T(t)x||^2 dt, W_q at q = 0."""
    return QuadraticForm(**sys.square_function_form(0.0, "orbit energy integral (exponent zero)"))


def build_half_norm(sys) -> QuadraticForm:
    """Half the squared state norm, weight 1/2 per coordinate on every realization."""
    return QuadraticForm(weights=np.full(sys.dimension, 0.5), provenance="half squared norm")


@dataclass(frozen=True)
class ContractionReport:
    """Diagnostics of the similarity scalar product <x,y>_new = <Px, y>."""

    condition_number: float
    dissipativity_margin: float
    decay_rate: float
    satisfied: bool


def contraction_similarity(sys):
    """Take P with A^T P + P A = -I and verify dissipativity in <Px, x>.

    Returns ``(form, report)``.  P is the operator of W_0 from
    :func:`build_w_q`: weights 1/(2 lam) for diagonal generators, the
    system's cached Lyapunov solve otherwise.  In the new scalar product
    <Ax, Px> = -1/2 ||x||^2, so the margin, the exact sup of
    <Ax, Px> / ||x||^2, must be nonpositive up to 1e-10.
    ``condition_number`` a2/a1 of P measures how far the similarity
    transform P^(1/2) distorts the original norm; its growth across
    truncations is the quantity worth tracking.  ``decay_rate`` is the
    certified rate a = 1 / (2 a2) of W(x) = ||P^(1/2) x||.
    """
    form = build_w_q(sys, 0.0)
    half = -sys.dissipation_operator(form) / 2.0  # (PA + A^T P)/2
    margin = float(np.max(half) if half.ndim == 1 else np.linalg.eigvalsh(half)[-1])
    if form.a1 <= 0:
        raise ConditioningError("Lyapunov solve returned a non-positive operator")
    report = ContractionReport(
        condition_number=float(form.a2 / form.a1),
        dissipativity_margin=margin,
        decay_rate=float(1.0 / (2.0 * form.a2)),
        satisfied=bool(margin <= 1e-10),
    )
    return form, report


@dataclass(frozen=True)
class GainEnvelope:
    """Exponential transient bound M e^(-omega t) r plus linear input gain g r."""

    overshoot: float
    rate: float
    gain: float

    def __post_init__(self):
        if self.overshoot < 1.0:
            raise ValueError("overshoot must be at least 1")
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        if self.gain < 0.0:
            raise ValueError("gain must be nonnegative")

    def bound(self, r, t, input_norm):
        return self.overshoot * np.exp(-self.rate * np.asarray(t)) * r + self.gain * input_norm
