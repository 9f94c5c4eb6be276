"""Mild solutions, Dini derivatives and dissipation certificates.

Trajectories follow the variation-of-constants formula
``x(t) = T(t) x0 + int_0^t T(t-s) B u(s) ds``.  For diagonal systems with
piecewise-constant inputs every step is evaluated in closed form

    x_n(t+h) = exp(-lam_n h) x_n(t) + b_n u (1 - exp(-lam_n h)) / lam_n,

so simulation introduces no discretization error beyond round-off; matrix
systems use an exponential integrator on each constant-input segment.  An
input is split into pieces once per grid (:meth:`InputSignal.pieces`): a
trajectory is one walk through them, and its input energies one cumsum.

Dini derivatives of V come from one table: each input level and step size
takes one exact step of a stack of states (:func:`_dini_quotients`).
States, levels, breakpoints, times and that table pass the ``systems`` door.
The certificate fit reads one (states x input levels) table of samples,
with array expressions for its cap, a4 and residuals; a non-finite sample,
or a forced one whose a4 slope overflows, is a violation and never a bound.
:func:`exact_certificate` simulates nothing: it reads (a3, a4) off the
form's operator, with a rounding enclosure.
The three integrals of :func:`proof_decomposition` are orbit energies,
quadratures of the square-function integral (:func:`_orbit_energy`).
An ISS envelope is falsified node by node on the runs of
:func:`gain_ensemble` (:func:`envelope_excess`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lyapunov import QuadraticForm, GainEnvelope
from .systems import DimensionMismatchError, _readonly, _real_array, as_state, semigroup_apply

__all__ = [
    "DecompositionReport",
    "DiniEstimate",
    "DissipationReport",
    "ExactCertificate",
    "InputSignal",
    "ScalingReport",
    "Trajectory",
    "default_sample_cloud",
    "dini_derivative",
    "envelope_excess",
    "exact_certificate",
    "fit_dissipation",
    "gain_ensemble",
    "input_scaling_check",
    "proof_decomposition",
    "simulate_mild",
]


@dataclass(frozen=True)
class InputSignal:
    """A right-continuous piecewise-constant real scalar input.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])`` and the
    last value extends to infinity.  Sinusoids enter as sampled holds, so
    every supported signal has an exactly integrable restriction to any
    interval.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _real_array(self.breakpoints, "breakpoints").reshape(-1).copy()
        vals = _real_array(self.values, "input levels").reshape(-1).copy()
        if bp.size != vals.size or bp.size < 1:
            raise ValueError("breakpoints and values must have equal positive length")
        if bp[0] != 0.0:
            raise ValueError("the first breakpoint must be 0")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("breakpoints and values must be finite")
        object.__setattr__(self, "breakpoints", _readonly(bp))
        object.__setattr__(self, "values", _readonly(vals))

    @classmethod
    def zero(cls):
        return cls(np.array([0.0]), np.array([0.0]))

    @classmethod
    def constant(cls, level):
        return cls([0.0], [level])

    @classmethod
    def sampled_sinusoid(cls, amplitude, frequency, t_end, samples=64):
        if t_end <= 0 or samples < 1:
            raise ValueError("t_end must be positive and samples at least 1")
        bp = np.linspace(0.0, t_end, samples + 1)[:-1]
        vals = amplitude * np.sin(2.0 * np.pi * frequency * bp)
        return cls(bp, vals)

    @property
    def value0(self) -> float:
        return float(self.values[0])

    def value_at(self, t):
        """The level at each time of ``t``, an array or a scalar; the first level before 0."""
        return self.values[np.maximum(np.searchsorted(self.breakpoints, t, side="right") - 1, 0)]

    def pieces(self, times):
        """The increasing ``times`` merged with the earlier breakpoints, and each piece's level."""
        nodes = np.sort(np.concatenate([times, self.breakpoints[self.breakpoints < times[-1]]]))
        nodes = nodes[np.diff(nodes, prepend=-np.inf) > 0.0]  # union1d's hashing grows RSS
        return nodes, self.value_at(nodes[:-1])

    def energy(self, times) -> np.ndarray:
        """``int_0^t u^2`` at each of the increasing ``times``, exact for the holds."""
        times = _real_array(times, "times")
        nodes, levels = self.pieces(times[-1:])  # the holds of [0, times[-1]]
        done = np.concatenate([[0.0], np.cumsum(np.diff(nodes) * levels * levels)])
        last = np.maximum(np.searchsorted(nodes, times) - 1, 0)  # t in (nodes[last], nodes[last+1]]
        level = self.value_at(nodes[last])
        # Whole holds left to right, then t's own part: the bytes of sum((b - a) * v * v).
        return np.where(times > 0.0, done[last] + (times - nodes[last]) * level * level, 0.0)

    def scaled(self, c) -> "InputSignal":
        return InputSignal(self.breakpoints, self.values * _real_array(c, "input levels"))


def _coerce_input(u) -> InputSignal:
    if isinstance(u, InputSignal):
        return u
    if np.ndim(u) == 0:
        return InputSignal.constant(u)
    raise TypeError("inputs must be InputSignal instances or scalar levels")


@dataclass(frozen=True)
class Trajectory:
    """Time grid, state snapshots, and the driving input of a mild solution."""

    times: np.ndarray
    states: np.ndarray
    input: InputSignal

    def __post_init__(self):
        times = _real_array(self.times, "times")
        if times.ndim != 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValueError("times must increase strictly from 0")
        if self.states.shape[0] != times.size:
            raise ValueError("one state snapshot per time node is required")
        object.__setattr__(self, "times", times)

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def simulate_mild(sys, x0, u, grid) -> Trajectory:
    """Mild solution on a grid from 0, exact per constant-input segment.

    One walk steps through the input's pieces on the grid (its nodes and the
    breakpoints inside it) and keeps the state at each grid node, so the
    snapshots carry no discretization error for the supported input family.
    """
    u = _coerce_input(u)
    grid = _real_array(grid, "time grid").reshape(-1)
    if grid.size < 1 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must increase strictly from 0")
    nodes, levels = u.pieces(grid)
    states = [as_state(sys, x0)]
    for h, level in zip(np.diff(nodes).tolist(), levels.tolist()):
        states.append(sys.step(states[-1], level, h))
    at_grid = np.searchsorted(nodes, grid)
    return Trajectory(times=grid.copy(), states=np.vstack([states[i] for i in at_grid]), input=u)


def _stiff_h_sequence(sys, u: InputSignal | None = None):
    # Difference quotients only see a mode once lam * h <= O(1); stiff
    # truncations therefore need the whole sequence pulled below the
    # fastest relaxation time.  The floor keeps the quotient above the
    # round-off of V when the spectrum spans too many decades to resolve.
    # ``u=None`` stands for a constant input, which never switches.
    h0 = min(1e-2, 0.25 / sys.fastest_rate)
    h0 = max(h0, 1e-10)
    if u is not None and u.breakpoints.size > 1:  # breakpoints[1] is the first switch
        h0 = min(h0, float(u.breakpoints[1]) / 2.0)
    return h0 * 2.0 ** (-np.arange(7))


def _neville_limit(hs, values):
    # Polynomial extrapolation of (h, D(h)) to h = 0 along the last axis;
    # returns the limits and the spread of the last two diagonal entries.
    # Every caller passes at least four step sizes.
    current = _real_array(values, "difference quotients")
    diagonal = [current[..., -1]]
    for level in range(1, current.shape[-1]):
        num = current[..., 1:] * hs[:-level] - current[..., :-1] * hs[level:]
        current = num / (hs[:-level] - hs[level:])
        diagonal.append(current[..., -1])
    return diagonal[-1], np.abs(diagonal[-1] - diagonal[-2])


@np.errstate(over="ignore", invalid="ignore")  # a non-finite table is the caller's to read
def _dini_quotients(form: QuadraticForm, sys, states, levels, hs):
    """Dini estimates of a stack of states per input level.

    Each level is held constant over every step, so ``x(h)`` is one exact
    :meth:`step` of the whole stack per level and step size.  Returns the
    extrapolated derivatives of the quotients ``(V(x(h)) - V(x))/h`` and
    their error bars, each of shape (states, levels).  The table allocates
    one work array of the stack's size: each cell steps into it and ``V``
    squares in place there, with the bytes of a fresh step and ``V``.
    """
    v0 = form.values(states)
    quotients = np.empty((len(states), len(levels), len(hs)))
    work = None
    for j, h in enumerate(hs):
        for i, level in enumerate(levels):
            work = sys.step(states, level, h, out=work)
            quotients[:, i, j] = (form.values(work, overwrite=True) - v0) / h
    del work  # freed before the extrapolation's temporaries
    value, bar = _neville_limit(hs, quotients)
    # Round-off floor: the difference quotient carries eps*|V|/h of noise,
    # amplified by the extrapolation weights.
    noise = 32.0 * np.finfo(float).eps * (
        np.abs(v0)[:, None] / hs[-1] + np.abs(quotients).max(axis=-1)
    )
    return value, 4.0 * np.where(noise > bar, noise, bar)


@dataclass(frozen=True)
class DiniEstimate:
    """Forward-difference derivative estimate with an extrapolation error bar."""

    value: float
    error_bar: float


def dini_derivative(form: QuadraticForm, sys, x, u) -> DiniEstimate:
    """Right derivative of t -> V(x(t)) at t = 0 along the mild solution.

    Forward quotients (V(x(h)) - V(x))/h over a decreasing step sequence
    are extrapolated to h = 0; along the supported trajectories the map is
    smooth, so the raw limsup is reached polynomially fast.  The error bar
    is the spread of the last two extrapolants, floored at the round-off
    level of the difference quotient, with a safety factor of four.
    The steps stay inside the first input segment.
    """
    u = _coerce_input(u)
    x = as_state(sys, x)
    hs = _stiff_h_sequence(sys, u)
    value, bar = _dini_quotients(form, sys, x[None, :], [u.value0], hs)
    return DiniEstimate(value=float(value[0, 0]), error_bar=float(bar[0, 0]))


def default_sample_cloud(sys, form: QuadraticForm, count=200, seed=0) -> np.ndarray:
    """States probing a dissipation certificate, one per row of a read-only array.

    The unit-norm Gaussian draws come first, then deterministic probes:
    coordinate directions pin the extremal decay rates, and input-aligned
    states ``(M - theta)^(-1) w b`` at sub-unit scales, where ``M = 2 w lam``
    is diagonal, expose the input coefficient a4 that the inequality needs
    -- an isotropic unit cloud systematically misses both.
    """
    n = sys.dimension
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((count, n))
    norms = np.linalg.norm(gauss, axis=1)
    rows = [gauss[norms > 0] / norms[norms > 0, None]]
    # Rows of np.eye(1, n, k) are the unit vectors e_k, built in O(n).
    rows += [np.eye(1, n, k) for k in ([0, 1, n - 1] if n > 1 else [0])]
    b = sys.input_coeffs
    if np.linalg.norm(b) > 0:
        rows.append(b / np.linalg.norm(b))
        wl = sys.dissipation_operator(form)
        if wl.ndim == 1:
            aligned, floor = form.weights * b, float(wl.min())
            rows += [aligned / (wl - t * floor) * s for t in (0.5, 0.9) for s in (0.25, 0.5)]
    return _readonly(np.vstack(rows))


@dataclass(frozen=True, eq=False)
class DissipationReport:
    """Certified pair (a3, a4) for V' <= -a3 ||x||^2 + a4 u(0)^2 on a sample cloud.

    ``samples`` is one read-only table with a row (||x||^2, u(0)^2, dini
    value) per (state, input level) pair, state-major; ``violations`` holds
    the rows the certified inequality does not cover (empty for a valid
    certificate).  A row whose dini value or ||x||^2 is not finite is always
    a violation and never bounds a3, a4 or the tolerance; a forced row whose
    a4 slope overflows is a violation and never bounds a4.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    violations: tuple
    samples: np.ndarray
    infeasible_reason: str = ""
    worst_residual: float = 0.0
    tolerance: float = 0.0

    @property
    def infeasible(self) -> bool:
        return bool(self.infeasible_reason)

    def to_config(self) -> dict:
        return {
            "a1": self.a1,
            "a2": self.a2,
            "a3": self.a3,
            "a4": self.a4,
            "violations": list(self.violations),
            "infeasible_reason": self.infeasible_reason,
        }


# The constant input levels of the certificate fit.
SAMPLE_LEVELS = (0.0, 0.5, -0.5, 1.0, -1.0)


@np.errstate(over="ignore", invalid="ignore")  # non-finite samples are violations
def fit_dissipation(
    form: QuadraticForm,
    sys,
    sample_states,
    sample_inputs=SAMPLE_LEVELS,
) -> DissipationReport:
    """Largest decay coefficient a3 certifiable on the sample cloud.

    The inequality is universally quantified, so the fit is a certificate,
    not a regression: a3 is the cap min(-V'/||x||^2) imposed by the unforced
    samples, and a4 the smallest value the forced samples then imply.  Both,
    and the tolerance, are taken over the finite samples only, so every
    finite residual at that pair is nonpositive up to rounding by
    construction.  A non-finite sample, or a forced one whose a4 slope
    overflows, is a violation and makes the fit infeasible, wherever it sits
    in the cloud.  ``sample_inputs`` are scalar input levels, each held
    constant, so every level shares one step sequence.  ``sample_states`` is
    a stack of states, an array or a list of rows; both enter through
    :func:`_real_array`, the states once.
    """
    states = _real_array(sample_states, "sample states")
    states = states.reshape(len(states), -1)
    if states.shape[1] != sys.dimension:
        raise DimensionMismatchError(
            f"state length {states.shape[1]} does not match system dimension {sys.dimension}"
        )
    levels = _real_array(list(sample_inputs), "input levels").tolist()
    dini = _dini_quotients(form, sys, states, levels, _stiff_h_sequence(sys))[0]
    norms_sq = (states[:, None, :] @ states[..., None])[:, 0, 0]
    levels_sq = [level**2 for level in levels]
    samples = np.column_stack(
        [np.repeat(norms_sq, len(levels)), np.tile(levels_sq, len(states)), dini.ravel()]
    )
    samples.setflags(write=False)
    xx, uu, v = samples.T
    finite = np.isfinite(xx) & np.isfinite(v)
    tol = 1e-7 * max(1.0, float(np.abs(samples[finite]).max(initial=0.0)))

    unforced = finite & (uu == 0.0) & (xx > 0.0)
    if not unforced.any():
        raise ValueError("the sample cloud must pair a nonzero state with a zero input level")
    cap = float(np.min(-v[unforced] / xx[unforced]))
    if cap > 0.0:
        forced = finite & (uu > 0.0)
        slopes = (v[forced] + cap * xx[forced]) / uu[forced]
        finite[forced] = np.isfinite(slopes)  # an overflowed slope is a violation, never a bound
        a4 = max(0.0, float(slopes[finite[forced]].max(initial=0.0)))
        res = v + cap * xx - a4 * uu
        violated = ~(finite & (res <= tol))
        worst = float(res[finite].max())
        reason = "non-finite derivative estimates in the cloud" if violated.any() else ""
    else:
        cap = a4 = 0.0
        violated = ~finite
        worst = float(v[unforced].max())
        reason = "no positive decay coefficient is feasible on the unforced samples"
    return DissipationReport(
        a1=form.a1,
        a2=form.a2,
        a3=cap,
        a4=a4,
        violations=tuple(int(i) for i in np.flatnonzero(violated)),
        samples=samples,
        infeasible_reason=reason,
        worst_residual=worst,
        tolerance=tol,
    )


@dataclass(frozen=True, eq=False)
class ExactCertificate:
    """The exact pair (a3, a4) for V' <= -a3 ||x||^2 + a4 u^2 on a truncation.

    With ``V = <Px, x>`` and ``M = -(PA + A^T P)``, the derivative along the
    flow is ``-<Mx, x> + 2 <Px, bu>``, so ``a3max = lambda_min(M)`` is the
    largest decay coefficient, and at ``a3 = a3max / 2`` the least input
    coefficient is ``a4 = b^T P (M - a3 I)^-1 P b`` (the Schur complement).
    The exact pair of the stored form and system, at this ``a3``, lies within
    ``a3max_radius`` and ``a4_radius`` of it.  ``violations`` is always empty.
    """

    a1: float
    a2: float
    a3max: float
    a3: float
    a4: float
    a3max_radius: float
    a4_radius: float
    infeasible_reason: str = ""
    violations: tuple = ()

    # Read like a fitted certificate; the slot document has the same keys.
    infeasible, to_config = DissipationReport.infeasible, DissipationReport.to_config


def _gamma(k):  # Higham's gamma_k = k u / (1 - k u), the error of k roundings
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _dense_enclosure(form, sys, m):
    """``(a3max, radius, slack)`` for ``m = fl(M)``, where ``slack >= ||M - m||_2``.

    ``lambda_min(M)`` lies below the Rayleigh quotient of the ``eigh`` vector and above
    a shift ``s`` where a float Cholesky ``R`` of ``m - s I`` exists, less its backward
    error ``gamma_(n+2) ||R||_F^2`` (Rump, BIT 46, 2006); both move by ``slack``.
    """
    import scipy.linalg  # dense only: kept out of ``import lyapcert``
    n, gamma = len(m), _gamma(len(m) + 2)
    abs_p = np.abs(np.diag(form.weights) if form.p_matrix is None else form.p_matrix)
    abs_a = np.abs(sys.neg_power(1.0))  # exactly -A: lam per mode, or the dense matrix
    pa = abs_p * abs_a if abs_a.ndim == 1 else abs_p @ abs_a
    slack = float(np.linalg.norm(gamma * (pa + pa.T + np.abs(m))))  # n-term dots, one sum
    lowest, vectors = scipy.linalg.eigh(m, subset_by_index=[0, 0])
    a3max, v = float(lowest[0]), vectors[:, 0]
    shift = a3max - 2.0 * (slack + gamma * float(np.trace(np.abs(m)) + n * abs(a3max)))
    try:
        r = np.linalg.cholesky(m - shift * np.eye(n))
    except np.linalg.LinAlgError:  # no lower bound: unresolved
        return a3max, np.inf, slack
    quotient = float(np.vdot(v, m @ v) / np.vdot(v, v))
    below = (a3max - shift) + gamma * float(np.vdot(r, r)) + slack
    above = quotient - a3max + gamma * abs(quotient) + 2.0 * slack
    return a3max, (1.0 + _gamma(4)) * max(below, above), slack  # and the radius's rounding


def exact_certificate(form: QuadraticForm, sys) -> ExactCertificate:
    """The exact dissipation certificate of ``form`` on ``sys`` at ``a3 = a3max / 2``.

    ``M`` comes from the form's own ``P``, so the residual of the Lyapunov solve behind
    ``P`` is accounted for.  Diagonal radii are a priori and O(N): ``M = 2 w lam`` carries
    one rounding, each term of ``a4 = sum (w b)^2 / (M - a3)`` a few plus ``M``'s twice
    (``M - a3 >= M / 2``), the sum ``N - 1``.  Dense ones come from :func:`_dense_enclosure` and
    ``a4``'s solve residual over ``lambda_min(M - a3 I)``.  Infeasible means the enclosure
    proves ``a3max <= 0``; unresolved, that it proves neither that nor ``M - a3 I > 0``.
    """
    n = sys.dimension
    if form.dimension != n:
        raise DimensionMismatchError(
            f"form dimension {form.dimension} does not match system dimension {n}"
        )
    pb, m = form.p_apply(sys.input_coeffs), sys.dissipation_operator(form)
    if m.ndim == 1:
        a3max = float(m.min())
        a3max_radius = _gamma(2) * a3max  # fl(2 w lam), and the radius's own rounding
    else:
        a3max, a3max_radius, slack = _dense_enclosure(form, sys, m)
    if not 0.5 * a3max > a3max_radius:  # then lambda_min(M - a3 I) > 0
        reason = f"unresolved: lambda_min(M) = {a3max!r} within {a3max_radius!r}"
        if a3max <= -a3max_radius:
            reason = f"no positive decay coefficient: lambda_min(M) = {a3max!r}"
        return ExactCertificate(form.a1, form.a2, a3max, 0.0, 0.0, a3max_radius, np.inf, reason)
    a3 = 0.5 * a3max
    maximizer = pb / (m - a3) if m.ndim == 1 else np.linalg.solve(m - a3 * np.eye(n), pb)
    a4 = float(np.vdot(pb, maximizer))
    if m.ndim == 1:
        a4_radius = _gamma(n + 8) * a4
    else:  # P b's rounding and the dot's, then the residual against the exact M - a3 I
        gamma, x_norm, pb_norm = _gamma(n + 2), np.linalg.norm(maximizer), np.linalg.norm(pb)
        p_norm = np.linalg.norm(form.weights if form.p_matrix is None else form.p_matrix)
        pb_error = gamma * (p_norm * np.linalg.norm(sys.input_coeffs) + pb_norm)
        residual = np.linalg.norm(pb - (m - a3 * np.eye(n)) @ maximizer) + pb_error
        residual += 2.0 * (slack + gamma * a3) * x_norm
        a4_radius = float((1.0 + _gamma(4)) * (pb_error * x_norm + (pb_norm + pb_error) * residual
                          / (0.5 * a3max - a3max_radius)))  # <= lambda_min(M - a3 I)
    reason = "" if np.isfinite(a4_radius) else f"unresolved: a4 = {a4!r} within {a4_radius!r}"
    return ExactCertificate(form.a1, form.a2, a3max, a3, a4, a3max_radius, a4_radius, reason)


@dataclass(frozen=True)
class ScalingReport:
    factors: tuple
    measured: tuple
    relative_errors: tuple
    max_relative_error: float
    passed: bool


def input_scaling_check(form: QuadraticForm, sys, u, c_list) -> ScalingReport:
    """Verify V(phi(h, 0, c u)) = c^2 V(phi(h, 0, u)) for each factor c, h = 1e-3.

    Quadratic forms force exactly quadratic input scaling at the origin;
    any other homogeneity would contradict linearity of the flow in u.
    """
    u = _coerce_input(u)
    zero = np.zeros(sys.dimension)
    grid = np.array([0.0, 1e-3])
    base = form.value(simulate_mild(sys, zero, u, grid).states[-1])
    measured = [form.value(simulate_mild(sys, zero, u.scaled(c), grid).states[-1]) for c in c_list]
    # Relative to c^2 V(phi(h, 0, u)), absolute where that is 0.
    errors = [abs(v - c * c * base) / (abs(c * c * base) or 1.0) for c, v in zip(c_list, measured)]
    worst = max(errors, default=0.0)
    return ScalingReport(
        factors=tuple(float(c) for c in c_list),
        measured=tuple(measured),
        relative_errors=tuple(errors),
        max_relative_error=float(worst),
        passed=bool(worst <= 1e-10),
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Split of V(phi(h, x, u)) into free, cross, and forced energy terms."""

    i1: float
    i2: float
    i3: float
    total: float
    direct_value: float
    reconstruction_error: float
    i1_check_error: float
    k2_constant: float
    input_energy: float
    i3_bound_holds: bool


def _orbit_energy(sys, q, a, b) -> float:
    # Quadrature of int_0^{25/gap} <(-A)^q T(t) a, (-A)^q T(t) b> dt.  The
    # truncated mass is below exp(-50) of the total.  When ``b is a`` the
    # semigroup is evaluated once per node.  scipy.integrate is imported
    # here, its only library use, to keep it out of ``import lyapcert``.
    import scipy.integrate

    def orbit(t, x):
        return sys.neg_power_apply(q, semigroup_apply(sys, t, x))

    def integrand(t):
        oa = orbit(t, a)
        ob = oa if b is a else orbit(t, b)
        return float(np.vdot(oa, ob))

    value, _ = scipy.integrate.quad(
        integrand, 0.0, 25.0 / sys.spectral_gap, epsabs=1e-13, epsrel=1e-11, limit=500
    )
    return value


def proof_decomposition(form: QuadraticForm, sys, x, u, h) -> DecompositionReport:
    """Decompose the perturbed Lyapunov value at time h into three integrals.

    With S the generator power behind the form and z the forced state,

        I1 = int ||S T(t) T(h)x||^2 dt                (= V(T(h)x)),
        I2 = 2 int <S T(t) T(h)x, S T(t) z> dt        (signed cross term),
        I3 = int ||S T(t) z||^2 dt                    (= V(z)),

    each evaluated by quadrature of its defining integral (I2 as its own
    cross-term integral, not by polarization), so that I1 + I2 + I3
    reconstructing V(phi(h, x, u)) and I1 matching the closed-form V(T(h)x)
    are genuine consistency checks.  I3 is certified against the
    admissibility bound a2 * K(h)^2 * int_0^h u^2.
    """
    if form.generator_power is None:
        raise ValueError("the form does not carry a square-function exponent")
    if not 0.0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    u = _coerce_input(u)
    x = as_state(sys, x)
    q = form.generator_power
    grid = np.array([0.0, h])
    z = simulate_mild(sys, np.zeros(sys.dimension), u, grid).states[-1]
    phi = simulate_mild(sys, x, u, grid).states[-1]

    free = semigroup_apply(sys, h, x)
    i1 = _orbit_energy(sys, q, free, free)
    i2 = 2.0 * _orbit_energy(sys, q, free, z)
    i3 = _orbit_energy(sys, q, z, z)

    total = i1 + i2 + i3
    direct = form.value(phi)
    scale = max(1.0, abs(direct))
    i1_check = abs(i1 - form.value(free)) / scale

    k2 = form.a2 * sys.l2_input_constants([h])[0] ** 2
    energy = u.energy([h])[0]
    bound_ok = bool(i3 <= k2 * energy * (1.0 + 1e-9) + 1e-300)
    return DecompositionReport(
        i1=i1,
        i2=i2,
        i3=i3,
        total=float(total),
        direct_value=float(direct),
        reconstruction_error=float(abs(total - direct) / scale),
        i1_check_error=float(i1_check),
        k2_constant=float(k2),
        input_energy=float(energy),
        i3_bound_holds=bound_ok,
    )


# Relative rounding allowance of the envelope falsifier: a node above its
# bound by more than this is a counterexample to the envelope.
ENVELOPE_RTOL = 1e-12


def gain_ensemble(sys, seed) -> list:
    """Six runs on one 201-node grid over ``[0, max(2, 6/gap)]`` that falsify an ISS envelope.

    Unforced runs from ``e_1`` and from two unit Gaussian states, zero-state
    runs under a unit step and under a sampled sinusoid, and a unit Gaussian
    state under the constant input 0.5; ``seed`` fixes the Gaussian draws.
    """
    t_end = max(2.0, 6.0 / sys.spectral_gap)
    grid = np.linspace(0.0, t_end, 201)
    n = sys.dimension
    draws = np.random.default_rng(seed).standard_normal((3, n))
    first, second, third = (v / np.linalg.norm(v) for v in draws)
    zero_state = np.zeros(n)
    return [
        simulate_mild(sys, np.eye(1, n, 0)[0], InputSignal.zero(), grid),
        simulate_mild(sys, first, InputSignal.zero(), grid),
        simulate_mild(sys, second, InputSignal.zero(), grid),
        simulate_mild(sys, zero_state, InputSignal.constant(1.0), grid),
        simulate_mild(sys, zero_state, InputSignal.sampled_sinusoid(1.0, 0.5, t_end, 32), grid),
        simulate_mild(sys, third, InputSignal.constant(0.5), grid),
    ]


def envelope_excess(envelope: GainEnvelope, trajectories) -> np.ndarray:
    """Relative excess of ||x(t)|| over the envelope at every node, one row per run.

    The bound at a node is ``M e^(-omega t)||x0|| + g ||u||_{L2(0,t)}`` with
    the exact energy of the input holds; where it is 0 the entry is the norm
    itself.  The runs must share one time grid.  An entry above
    ``ENVELOPE_RTOL`` is a node the envelope does not cover.
    """
    rows = []
    for tr in trajectories:
        energy = tr.input.energy(tr.times)
        bound = envelope.bound(np.linalg.norm(tr.x0), tr.times, np.sqrt(energy))
        norms = tr.norms()
        positive = bound > 0.0
        rows.append(np.where(positive, (norms - bound) / np.where(positive, bound, 1.0), norms))
    return np.array(rows)
