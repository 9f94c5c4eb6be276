"""Generators, semigroups, fractional powers, and extrapolation norms.

Two realizations of an exponentially stable linear system ``x' = Ax + bu``
with a scalar input ``u`` are supported: :class:`SpectralSystem` (diagonal
generator, the workhorse) and :class:`MatrixSystem` (dense Hurwitz matrix).
Every diagonal-or-dense choice is a method that both implement, so callers
never branch on the realization:

* ``input_coeffs``, the input column ``b`` as a read-only 1-D array;
* ``dimension``, ``spectral_gap`` and ``fastest_rate`` (the largest
  eigenvalue modulus, computed once per instance);
* ``truncations(sizes)``, the family that a sweep over mode counts analyzes;
* ``step(x, u, h, out=None)``, the exact state after ``h`` under the
  constant real input ``u`` (``u=None`` is the free flow ``T(h) x``) of one
  state or of each row of a stack, written into ``out`` if given, the
  forcing added in place; a dense forced step is ``T(h) x + u g(h)``, one
  ``expm`` per step size whatever the level;
* ``neg_power(alpha)`` and ``neg_power_apply(alpha, x)``, the operator
  ``(-A)^alpha`` (per-mode factors for diagonal systems), cached per
  instance and exponent as read-only arrays;
* ``square_function_form(q, provenance)``, the ``QuadraticForm`` arguments
  of W_q; dense W_q operators are one cached Lyapunov solve per exponent,
  whose error ``square_function_error(q)`` bounds (the half squared norm
  does not depend on the generator, so no realization builds it);
* ``dissipation_operator(form)``, ``M = -(PA + A^T P)`` of a form's ``P``,
  1-D when form and system are both diagonal;
* ``decay_prefactors(powers, delta)``, per power ``r`` the smallest ``M``
  with ``||(-A)^r T(t)|| <= M t^-r e^(-delta t)``: in closed form on
  diagonal systems, a grid maximum on dense ones;
* ``l2_input_constants(horizons)``, per horizon T the exact L2 input-map
  constant ``sqrt(lambda_max(W_T))`` of the input Gramian
  ``W_T = int_0^T T(tau) b b^T T(tau)^T dtau``: a pivoted Cholesky factor
  on diagonal systems, one Lyapunov solve and one ``expm`` per horizon on
  dense ones;
* ``lq_input_constants(q, horizons, rate)``, the q = 1 and q = inf
  constants: closed forms on diagonal systems, which ignore ``rate``; dense
  ones sample a graded time grid of ``GRID_SEGMENTS`` segments that
  resolves the relaxation time ``1/rate``.

Every array and scalar parameter enters through one door,
:func:`_real_array`, as float64: complex, text, bytes or ``None`` data raise
``TypeError`` there, so no path past it handles a complex number.  States are
1-D arrays whose length helpers here check against the owning system.  Every
dense ``e^(At)`` but the forced step's is one ``MatrixSystem._semigroup``,
refused unless finite.  Each dense function imports ``scipy.linalg`` itself,
keeping scipy out of ``import lyapcert`` and of diagonal runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rules import evaluate_rule

__all__ = [
    "ConditioningError",
    "DecayBound",
    "DimensionMismatchError",
    "MatrixSystem",
    "SpectralSystem",
    "as_state",
    "decay_bound_estimate",
    "extrapolation_norm",
    "fractional_power_apply",
    "semigroup_apply",
    "system_from_config",
]

# Relative slack by which a node's decay-bound ceiling may fall short of a
# power's running maximum and the node still be evaluated; far above the
# ~1e-13 rounding of expm and the SVD.
CEILING_MARGIN = 1e-9

# A pivoted Cholesky factor of a diagonal input Gramian stops once every
# residual diagonal entry is at most this fraction of the Gramian's trace.
CHOLESKY_STOP = 1e-15

# A dense system keeps at most this many bytes of augmented step
# propagators in its per-instance memo.
STEP_MEMO_BYTES = 2**23

# Segments of the graded grid that samples the dense q = 1 and q = inf constants.
GRID_SEGMENTS = 512

# The keys that each type of system document reads; any other key is refused.
SYSTEM_KEYS = {
    "spectral": ("type", "label", "eigenvalues", "eigenvalue_rule", "input_coeffs", "coeff_rule"),
    "matrix": ("type", "label", "a", "b"),
}


class DimensionMismatchError(ValueError):
    """State or input dimensions inconsistent with the owning system."""


class ConditioningError(RuntimeError):
    """A matrix-function result would be numerically untrustworthy."""


def _real_array(values, what) -> np.ndarray:
    # The one door for arrays and scalars: float64, a float64 array itself, never a copy.
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise TypeError(f"{what} must be real numbers, not {values.dtype}")
    return values.astype(float, copy=False)


def _readonly(array):
    array.setflags(write=False)
    return array


def _matvec(matrix, x, out):
    # ``matrix @ x`` per row of a stack, written into ``out`` if given.
    if out is None:
        return (matrix @ x[..., None])[..., 0]
    np.matmul(matrix, x[..., None], out=out[..., None])
    return out


def _input_column(b):
    # ``b`` read-only, refused where its squared norm b^T b overflows double precision.
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.vdot(b, b)
    if not np.isfinite(energy):
        raise ValueError("the input column's squared norm overflows double precision")
    return _readonly(b)


def _sqrt_top_eigenvalue(gram):
    # sqrt(lambda_max) of a symmetric positive semidefinite matrix; 0 if empty.
    top = np.linalg.eigvalsh(gram)[-1] if gram.size else 0.0
    return float(np.sqrt(max(top, 0.0)))


def _solve_lyapunov(a, rhs):
    """X with ``a X + X a^T = rhs``, refused where LAPACK had to perturb the problem.

    ``scipy.linalg.solve_continuous_lyapunov`` perturbs eigenvalue sums it
    deems near zero (rates spread beyond about 2^52) and then only warns;
    that solution can be wrong in every digit, so it raises
    :class:`ConditioningError` instead.
    """
    import scipy.linalg
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "(?s).*perturbing the coefficients", RuntimeWarning)
        try:
            return scipy.linalg.solve_continuous_lyapunov(a, rhs)
        except RuntimeWarning as exc:
            raise ConditioningError(f"Lyapunov solve refused: {exc}") from None


def _gramian_factor(lam, b, horizon):
    """Pivoted Cholesky factor of the diagonal input Gramian at one horizon.

    ``W_nm = b_n b_m (1 - e^(-(lam_n + lam_m) T)) / (lam_n + lam_m)`` is built
    one pivot column at a time in three length-N work vectors that every
    pivot reuses, never as an N x N matrix, with the bytes of a loop that
    allocates fresh arrays.  Returns ``(factor, residual)``: the r x N factor
    ``F`` with ``W ~ F^T F`` and the diagonal of ``W - F^T F``, every entry
    at most ``CHOLESKY_STOP`` times ``trace(W)``.  ``W - F^T F`` is positive
    semidefinite, so
    ``lambda_max(F F^T) <= lambda_max(W) <= lambda_max(F F^T) + trace(residual)``.
    A rate times the horizon that overflows is inf, whose ``expm1`` is the limit -1.
    """
    n = lam.size
    column, update, square = np.empty(n), np.empty(n), np.empty(n)
    with np.errstate(over="ignore"):  # entered once: a pivot loop pays for each entry
        residual = b * (b * (-np.expm1(-2.0 * lam * horizon) / (2.0 * lam)))
        stop = CHOLESKY_STOP * residual.sum()
        factor = np.empty((min(n, 16), n))
        rank = 0
        while rank < n:
            j = int(residual.argmax())
            pivot = residual[j]
            if pivot <= stop:
                break
            total = np.add(lam, lam[j], out=square)  # square is free until the row is squared
            np.expm1(np.multiply(total, -horizon, out=column), out=column)
            column /= total
            column *= -b[j]
            column *= b
            column -= np.matmul(factor[:rank, j], factor[:rank], out=update)
            if rank == len(factor):  # double the row buffer in place, never past N rows
                factor.resize((min(2 * rank, n), n), refcheck=False)  # no view of it is alive
            np.divide(column, math.sqrt(pivot), out=factor[rank])
            residual -= np.square(factor[rank], out=square)
            residual[j] = 0.0
            rank += 1
    return factor[:rank], residual


def _graded_backward_grid(fastest_rate, horizon):
    # Backward-time nodes 0 = tau_0 < ... < tau_m = horizon.  A geometric
    # layout resolves every modal boundary layer 1/lam_n with a bounded
    # number of segments per e-fold, which a uniform grid cannot afford
    # for stiff spectra.
    tau_min = min(horizon / GRID_SEGMENTS, 0.25 / fastest_rate)
    nodes = np.geomspace(tau_min, horizon, GRID_SEGMENTS)
    return np.concatenate([[0.0], nodes])


def _cached(sys, slot, exponent, compute):
    # Per-instance cache ``slot`` of read-only arrays keyed by the exponent as the
    # door reads it; a functools cache cannot key on the frozen, unhashable instance.
    cache = sys.__dict__.setdefault(slot, {})
    key = _real_array(exponent, "exponents").tolist()
    if key not in cache:
        cache[key] = _readonly(compute(key))
    return cache[key]


@dataclass(frozen=True)
class SpectralSystem:
    """Diagonal generator A = -diag(lam_n) with a rank-one input column.

    ``T(t)`` acts per mode as ``exp(-lam_n * t)``.  All ``lam_n`` are
    strictly positive and sorted ascending, so every truncation is
    exponentially stable by construction.  The input operator maps a
    scalar ``u`` to the vector ``b * u``.
    """

    eigenvalues: np.ndarray
    input_coeffs: np.ndarray
    label: str = "spectral"

    def __post_init__(self):
        lam = _real_array(self.eigenvalues, "eigenvalues").reshape(-1).copy()
        b = _real_array(self.input_coeffs, "input coefficients").reshape(-1).copy()
        if lam.size < 1:
            raise ValueError("at least one mode is required")
        if lam.size != b.size:
            raise DimensionMismatchError(
                f"{lam.size} eigenvalues but {b.size} input coefficients"
            )
        if not np.all(np.isfinite(lam)) or not np.all(np.isfinite(b)):
            raise ValueError("eigenvalues and input coefficients must be finite")
        if not np.all(lam > 0.0):
            raise ValueError("all eigenvalues must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", _readonly(lam))
        object.__setattr__(self, "input_coeffs", _input_column(b))

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def spectral_gap(self) -> float:
        """Smallest eigenvalue; ||T(t)x|| <= exp(-gap*t)||x|| holds exactly."""
        return float(self.eigenvalues[0])

    @property
    def fastest_rate(self) -> float:
        """Largest eigenvalue, the inverse of the shortest relaxation time."""
        return float(self.eigenvalues[-1])

    def truncations(self, sizes) -> list:
        """The leading sections with each of ``sizes`` modes that fits, in that order."""
        lam, b = self.eigenvalues, self.input_coeffs
        return [SpectralSystem(lam[:n], b[:n], label=self.label) for n in sizes if n <= lam.size]

    def step(self, x, u, h, out=None) -> np.ndarray:
        """Exact state after h under the constant real input u (None: free flow).

        Per mode ``exp(-lam h) x + b u (1 - exp(-lam h)) / lam``, the forcing added
        in place.  ``out``, an array of the result's shape and dtype that does
        not overlap ``x``, receives the state and is returned, with the bytes of
        a fresh step.  Nothing is checked: every caller hands in door-checked
        float64 states.
        """
        lam = self.eigenvalues
        state = np.multiply(np.exp(-lam * h), x, out=out)
        if u is None:
            return state
        # 1 - exp(-lam h) through expm1 to keep small lam*h exact.
        return np.add(state, self.input_coeffs * (u * (-np.expm1(-lam * h) / lam)), out=state)

    def neg_power(self, alpha) -> np.ndarray:
        """Per-mode factors lam_n^alpha of (-A)^alpha."""
        return _cached(self, "_neg_powers", alpha, lambda a: self.eigenvalues ** a)

    def neg_power_apply(self, alpha, x) -> np.ndarray:
        return self.neg_power(alpha) * x

    def square_function_form(self, q, provenance) -> dict:
        """W_q's weights ``int_0^inf lam^(2q) e^(-2 lam t) dt = lam^(2q-1)/2`` per mode."""
        weights = self.eigenvalues ** (2.0 * q - 1.0) / 2.0
        return {"weights": weights, "provenance": provenance, "generator_power": q}

    def square_function_error(self, q) -> float:
        """0: the square-function weights are closed forms, with no solve to refine."""
        return 0.0

    def dissipation_operator(self, form) -> np.ndarray:
        """``M = -(PA + A^T P)``: ``2 w lam`` for diagonal weights w, else a dense matrix."""
        if form.weights is not None:
            return 2.0 * form.weights * self.eigenvalues
        pa = form.p_matrix * -self.eigenvalues  # P A scales the columns of P
        return -(pa + pa.T)

    def decay_prefactors(self, powers, delta) -> list:
        """sup over t > 0 of t^r ||(-A)^r T(t)|| e^(delta t) per power r, in closed form.

        Per mode ``(lam t)^r e^(-(lam - delta) t)`` peaks at
        ``t* = r/(lam - delta)`` with the value ``(r lam / (e (lam - delta)))^r``.
        ``lam/(lam - delta)`` falls as ``lam`` grows, so the slowest mode
        binds; ``r = 0`` gives 1.
        """
        lam = self.spectral_gap
        return [(r * lam / (np.e * (lam - delta))) ** r for r in powers]

    def l2_input_constants(self, horizons) -> list:
        """sqrt(lambda_max(W_T)) per horizon T, from a pivoted Cholesky factor of W_T.

        The top eigenvalue of ``F F^T`` (r x r) is that of ``F^T F``; see
        :func:`_gramian_factor` for the enclosure of the exact value.
        """
        constants = []
        for horizon in horizons:
            factor, _ = _gramian_factor(self.eigenvalues, self.input_coeffs, horizon)
            constants.append(_sqrt_top_eigenvalue(factor @ factor.T))
        return constants

    def lq_input_constants(self, q, horizons, rate) -> list:
        """The q = 1 or q = inf constant per horizon in closed form; ``rate`` is unused.

        Every mode's kernel ``b e^(-lam tau)`` peaks at ``tau = 0``, and with
        a scalar input every mode's response shares the sign of its b, so
        the aligned sign input is worst and the integral telescopes.  A
        product ``lam * t`` that overflows is inf, whose ``expm1`` is the limit -1.
        """
        lam, b = self.eigenvalues, self.input_coeffs
        if q == 1.0:
            return [float(np.linalg.norm(b))] * len(horizons)
        with np.errstate(over="ignore"):
            gains = [-np.expm1(-lam * t) / lam for t in horizons]
        return [float(np.linalg.norm(np.abs(b) * gain)) for gain in gains]


@dataclass(frozen=True)
class MatrixSystem:
    """Dense system with Hurwitz ``a_matrix`` and one input column ``input_coeffs``.

    Every eigenvalue of ``a_matrix`` must have strictly negative real part
    (checked at construction); invertibility follows.  ``input_coeffs`` may
    be given as a length-n vector or an n x 1 column and is stored 1-D; any
    other shape is refused, since every analysis takes a scalar input.
    """

    a_matrix: np.ndarray
    input_coeffs: np.ndarray
    label: str = "matrix"

    def __post_init__(self):
        a = np.array(_real_array(self.a_matrix, "a_matrix"))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a_matrix must be square")
        b = np.array(_real_array(self.input_coeffs, "input coefficients"))
        if b.ndim == 2 and b.shape[1] == 1:
            b = b.reshape(-1)
        if b.ndim != 1:
            raise ValueError(
                "analyses support scalar-input systems only: "
                f"b of shape {b.shape} is not one scalar input column"
            )
        if b.size != a.shape[0]:
            raise DimensionMismatchError(
                f"input column length {b.size} does not match state dimension {a.shape[0]}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("matrices must be finite")
        spectrum = np.linalg.eigvals(a)
        if spectrum.real.max() >= 0.0:
            raise ValueError(
                f"a_matrix is not Hurwitz (spectral abscissa {spectrum.real.max():.6g})"
            )
        object.__setattr__(self, "a_matrix", _readonly(a))
        object.__setattr__(self, "input_coeffs", _input_column(b))
        object.__setattr__(self, "_abscissa", float(spectrum.real.max()))
        object.__setattr__(self, "_fastest", float(np.abs(spectrum).max()))
        object.__setattr__(self, "_log_norm", float(np.linalg.eigvalsh((a + a.T) / 2.0)[-1]))

    @property
    def dimension(self) -> int:
        return int(self.a_matrix.shape[0])

    @property
    def spectral_gap(self) -> float:
        """Distance of the spectrum from the imaginary axis."""
        return -self._abscissa

    @property
    def fastest_rate(self) -> float:
        """Largest eigenvalue modulus, from the construction-time spectrum."""
        return self._fastest

    @property
    def log_norm(self) -> float:
        """Largest eigenvalue of (A + A^T)/2, from construction; may be positive."""
        return self._log_norm

    def truncations(self, sizes) -> list:
        """``[self]``: a dense system is its own only truncation, whatever the sizes."""
        return [self]

    def step(self, x, u, h, out=None) -> np.ndarray:
        """Exact state after h under the constant real scalar input u (None: free flow).

        By superposition the forced step is ``E x + u g``, with ``E = e^(Ah)``
        and ``g = int_0^h e^(As) b ds`` read off ``expm([[A h, b h], [0, 0]])``;
        the free flow takes its own ``e^(Ah)``.  Stacked matrix-vector products
        keep each row of a stack bit-identical to its own step; ``x @ E.T``
        would not.  Propagators are memoized per instance on the exact ``h``,
        whatever the level, at most ``STEP_MEMO_BYTES`` bytes of them, oldest
        dropped first; a memo hit holds the bytes of a fresh ``expm``.  ``u g``
        is added in place.  ``out``, an array of the result's shape and dtype
        that does not overlap ``x``, receives the state and is returned, with
        the bytes of a fresh step.  Nothing is checked, as on diagonal systems.
        """
        if u is None:
            return _matvec(self._semigroup(h), x, out)
        import scipy.linalg
        n = self.dimension
        memo = self.__dict__.setdefault("_propagators", {})
        propagator = memo.get(h)
        if propagator is None:
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = self.a_matrix * h
            aug[:n, n] = self.input_coeffs * h
            propagator = _readonly(scipy.linalg.expm(aug))
            memo[h] = propagator
            while len(memo) * propagator.nbytes > STEP_MEMO_BYTES:
                del memo[next(iter(memo))]
        state = _matvec(propagator[:n, :n], x, out)
        return np.add(state, propagator[:n, n] * u, out=state)

    def neg_power(self, alpha) -> np.ndarray:
        """The matrix (-A)^alpha; see :func:`matrix_neg_power`."""
        return _cached(self, "_neg_powers", alpha, lambda a: matrix_neg_power(self, a))

    def neg_power_apply(self, alpha, x) -> np.ndarray:
        return self.neg_power(alpha) @ x

    def _square_function_operator(self, q) -> np.ndarray:
        # P with A^T P + P A = -S^T S, S = (-A)^q, so that
        # <P x, x> = int ||S exp(At) x||^2 dt; one solve per exponent.
        def solve(q):
            s = self.neg_power(q)
            p = _solve_lyapunov(self.a_matrix.T, -(s.T @ s))
            return (p + p.T) / 2.0

        return _cached(self, "_square_functions", q, solve)

    def square_function_form(self, q, provenance) -> dict:
        """W_q's operator, the Lyapunov solve P cached per exponent."""
        p = self._square_function_operator(q)
        return {"p_matrix": p, "provenance": provenance + " (Lyapunov solve)", "generator_power": q}

    def square_function_error(self, q) -> float:
        """``||E||_2`` of the error ``E = P - P_exact`` of the cached W_q operator P.

        One refinement solve: E solves ``A^T E + E A = R`` with P's residual
        ``R = A^T P + P A + S^T S`` (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 16); ``|<Ex, x>| <= ||E||_2`` at unit x.
        """
        p, s = self._square_function_operator(q), self.neg_power(q)
        a_t = self.a_matrix.T
        error = _solve_lyapunov(a_t, a_t @ p + p @ self.a_matrix + s.T @ s)
        return float(np.linalg.norm(error, 2))

    def dissipation_operator(self, form) -> np.ndarray:
        """``M = -(PA + A^T P)`` of a form's operator P, a dense matrix."""
        pa = (np.diag(form.weights) if form.p_matrix is None else form.p_matrix) @ self.a_matrix
        return -(pa + pa.T)

    def _semigroup(self, t) -> np.ndarray:
        """``T(t) = e^(At)`` from one expm; :class:`ConditioningError` unless finite."""
        import scipy.linalg
        semigroup = scipy.linalg.expm(self.a_matrix * t)
        if not np.all(np.isfinite(semigroup)):
            raise ConditioningError(f"the semigroup is not finite at t = {t:g}")
        return semigroup

    def power_semigroup_norms(self, powers, t) -> list:
        """||(-A)^r T(t)|| per power r in the 2-norm from one :meth:`_semigroup`."""
        semigroup = self._semigroup(t)
        return [float(np.linalg.norm(self.neg_power(r) @ semigroup, 2)) for r in powers]

    def decay_prefactors(self, powers, delta) -> list:
        """Per power r the maximum of ||(-A)^r T(t)|| t^r e^(delta t) over a fixed grid.

        A grid maximum, not a bound between nodes: ``t = 0`` (only ``r = 0``
        contributes there) and a logarithmic sweep to ``60/delta``.  With the
        log-norm ``mu``, ``||T(tau)|| <= e^(mu tau)``, so a node ``s < t``
        evaluated for power r caps the value at t by the ceiling
        ``||(-A)^r T(s)|| e^(mu (t - s)) t^r e^(delta t)``.  A power is
        evaluated at a node only if its ceiling times ``1 + CEILING_MARGIN``
        reaches its running maximum: from ``s = 0`` in a coarse pass over every
        16th sweep node, far end first, then from its latest evaluated node in
        one ascending pass over the rest.  Skipped values lie below the maximum
        and evaluated ones are the full grid's floats: bit for bit its maximum.
        """
        sweep = np.geomspace(1e-4 / self.fastest_rate, 60.0 / delta, 600)
        mu = self.log_norm

        def value(norm, r, t):
            return norm * t**r * np.exp(delta * t)

        near = [(0.0, norm) for norm in self.power_semigroup_norms(powers, 0.0)]
        best = [value(norm, r, 0.0) for r, (_, norm) in zip(powers, near)]

        def visit(t, near):
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN means "evaluate"
                ceiling = [value(n, r, t) * np.exp(mu * (t - s)) for r, (s, n) in zip(powers, near)]
            live = [i for i, top in enumerate(best) if not ceiling[i] * (1 + CEILING_MARGIN) < top]
            try:
                norms = self.power_semigroup_norms([powers[i] for i in live], t) if live else []
            except ConditioningError as exc:
                where = f"on the decay sweep to 60/delta, delta = {delta:g}"
                raise ConditioningError(f"{exc} {where}") from None
            for i, norm in zip(live, norms):
                best[i] = max(best[i], value(norm, powers[i], t))
            return dict(zip(live, norms))

        coarse = {j: visit(sweep[j], near) for j in range(0, sweep.size, 16)[::-1]}
        for j, t in enumerate(sweep):
            found = coarse[j] if j in coarse else visit(t, near)
            near = [(t, found[i]) if i in found else a for i, a in enumerate(near)]
        return best

    def l2_input_constants(self, horizons) -> list:
        """sqrt(lambda_max(W_T)) per horizon T, from one Lyapunov solve and one expm each.

        ``A W + W A^T = -b b^T`` gives the infinite-horizon Gramian ``W``, and
        ``W_T = W - E W E^T`` with ``E = e^(AT)`` from :meth:`_semigroup`; an
        infinite horizon takes ``W`` itself.
        """
        b = self.input_coeffs[:, None]
        steady = _solve_lyapunov(self.a_matrix, -b @ b.T)
        constants = []
        for horizon in horizons:
            gram = steady
            if horizon < np.inf:
                semigroup = self._semigroup(horizon)
                gram = steady - semigroup @ steady @ semigroup.T
            constants.append(_sqrt_top_eigenvalue((gram + gram.T) / 2.0))
        return constants

    def lq_input_constants(self, q, horizons, rate) -> list:
        """The q = 1 or q = inf constant per horizon T, sampled on one graded grid up to T.

        The grid has ``GRID_SEGMENTS`` segments up to the largest horizon,
        resolves the relaxation time ``1/rate``, and holds every horizon as
        a node.  A sweep passes its fastest rate, so that all its systems
        sample one grid.  Each node is an exact free :meth:`step`, of b at
        q = 1, whose constant is the largest norm ``||T(tau) B||``, and of
        ``A^-1 B`` at q = inf, whose consecutive differences are the exact
        integrals of ``T(tau) B`` over the segments; their aligned-sign sum is
        the worst bounded input when every segment shares the per-mode sign.
        Each horizon reduces its own prefix of the nodes.  Norms (q = 1) or
        vectors (q = inf) that overflow under a finite semigroup are refused
        with :class:`ConditioningError`.
        """
        master = np.unique(np.concatenate([_graded_backward_grid(rate, max(horizons)), horizons]))
        start = self.input_coeffs if q == 1.0 else np.linalg.solve(self.a_matrix, self.input_coeffs)
        orbit = [self.step(start, None, tau) for tau in master]
        values = np.array([np.linalg.norm(v) for v in orbit]) if q == 1.0 else np.stack(orbit, 1)
        if not np.all(np.isfinite(values)):
            raise ConditioningError(f"the input orbit is not finite up to t = {master[-1]:g}")
        constants = []
        for t in horizons:
            prefix = values[..., :np.count_nonzero(master <= t * (1.0 + 1e-12))]
            if q == 1.0:
                constants.append(float(max(prefix)))
            else:
                constants.append(float(np.linalg.norm(np.sum(np.abs(np.diff(prefix)), axis=1))))
        return constants


def as_state(sys, x) -> np.ndarray:
    """``x`` through :func:`_real_array` as a 1-D float64 state of the system's length."""
    arr = _real_array(x, "states").reshape(-1)
    if arr.size != sys.dimension:
        raise DimensionMismatchError(
            f"state length {arr.size} does not match system dimension {sys.dimension}"
        )
    return arr


def semigroup_apply(sys, t, x) -> np.ndarray:
    """Apply the semigroup operator T(t) = exp(tA) to a state.

    Diagonal systems multiply per mode by ``exp(-lam_n t)``; matrix systems
    use the scaling-and-squaring matrix exponential.  ``t = 0`` returns the
    state unchanged.
    """
    t = _real_array(t, "times").tolist()
    if t < 0:
        raise ValueError("time must be nonnegative")
    x = as_state(sys, x)
    return x.copy() if t == 0 else sys.step(x, None, t)


def _dyadic_matrix_power(matrix, k, m):
    # (matrix)^(k/2^m) for integer k through m nested Schur square roots;
    # valid for defective spectra as long as the spectrum avoids (-inf, 0].
    import scipy.linalg
    base = matrix if k >= 0 else np.linalg.inv(matrix)
    j, denominator = abs(k), 2**m
    out = np.linalg.matrix_power(base, j // denominator)
    if j % denominator:
        root = base
        for _ in range(m):
            # sqrtm only warns on an ill-conditioned root; refuse it instead.
            with warnings.catch_warnings():
                warnings.filterwarnings("error", category=scipy.linalg.LinAlgWarning)
                try:
                    root = scipy.linalg.sqrtm(root)
                except scipy.linalg.LinAlgWarning as exc:
                    raise ConditioningError(f"matrix square root refused: {exc}") from None
            if np.iscomplexobj(root):
                if np.abs(root.imag).max() > 1e-10 * max(np.abs(root.real).max(), 1.0):
                    raise ConditioningError("matrix square root is not real")
                root = root.real
        out = out @ np.linalg.matrix_power(root, j % denominator)
    return out


def matrix_neg_power(sys: MatrixSystem, alpha):
    """The operator (-A)^alpha for a matrix system, exact for defective spectra.

    Exponents k/2^m with m <= 2 (denominator 1, 2 or 4), the fast path, go
    through nested Schur square roots; every other one through Higham and
    Lin's Schur-Pade algorithm (SIAM J. Matrix Anal. Appl. 32, 2011).  Neither
    uses eigenvectors; a power that is not finite or not real raises ConditioningError.
    """
    neg_a = -sys.a_matrix
    for m in range(3):
        scaled = alpha * 2**m
        k = round(scaled)
        if abs(scaled - k) <= 1e-12:
            powered = _dyadic_matrix_power(neg_a, int(k), m)
            break
    else:
        import scipy.linalg
        powered = scipy.linalg.fractional_matrix_power(neg_a, alpha)
        if np.iscomplexobj(powered) and np.all(np.isfinite(powered)):  # else refused below
            if np.abs(powered.imag).max() > 1e-12 * max(np.abs(powered.real).max(), 1.0):
                raise ConditioningError(f"matrix power {alpha} is not real")
            powered = powered.real
    if not np.all(np.isfinite(powered)):
        raise ConditioningError(f"matrix power {alpha} produced non-finite entries")
    return powered


def fractional_power_apply(sys, alpha, x) -> np.ndarray:
    """Apply (-A)^alpha to a state; exact per mode for diagonal systems."""
    return sys.neg_power_apply(alpha, as_state(sys, x))


def extrapolation_norm(sys, gamma, v) -> float:
    """The weakened norm ||(-A)^{-gamma} v|| indexing the spaces X_{-gamma}.

    ``gamma = 0`` recovers the state norm; larger ``gamma`` discounts fast
    modes more strongly and hosts rougher input columns.
    """
    gamma = _real_array(gamma, "exponents").tolist()
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return float(np.linalg.norm(fractional_power_apply(sys, -gamma, v)))


@dataclass(frozen=True)
class DecayBound:
    """Records ||(-A)^r T(t)|| <= prefactor * t^(-power) * exp(-rate*t)."""

    prefactor: float
    rate: float
    power: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.prefactor, self.rate, self.power)):
            raise ValueError("prefactor, rate and power must be finite")
        if self.prefactor <= 0 or self.rate <= 0:
            raise ValueError("prefactor and rate must be positive")
        if self.power < 0:
            raise ValueError("power must be nonnegative")

    def evaluate(self, t):
        t = _real_array(t, "times")
        return self.prefactor * t ** (-self.power) * np.exp(-self.rate * t)


def decay_bound_estimate(sys, powers, delta=None) -> list:
    """Fit per power r the smallest M with ||(-A)^r T(t)|| <= M t^-r e^(-delta t).

    Returns one :class:`DecayBound` per power.  ``delta`` must lie strictly
    inside the spectral gap, where M is finite for every power r < 1; at the
    gap ``t^r ||(-A)^r T(t)|| e^(delta t)`` grows without bound for r > 0.
    It defaults to half the gap.  M comes from ``sys.decay_prefactors``: the
    exact supremum ``(r lam_1 / (e (lam_1 - delta)))^r`` on diagonal systems,
    and on dense ones the maximum over a fixed 601-node grid, not a bound
    between nodes (see :meth:`MatrixSystem.decay_prefactors`).
    """
    powers = _real_array(powers, "powers").tolist()
    if not all(np.isfinite(r) for r in powers):
        raise ValueError("power r must be finite")
    if any(r < 0 for r in powers):
        raise ValueError("power r must be nonnegative")
    gap = sys.spectral_gap
    delta = gap / 2.0 if delta is None else _real_array(delta, "delta").tolist()
    if not 0 < delta < gap:
        raise ValueError(f"delta must lie strictly inside the spectral gap (0, {gap:.6g})")
    tops = sys.decay_prefactors(powers, delta)
    return [DecayBound(prefactor=float(top), rate=delta, power=r) for r, top in zip(powers, tops)]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_array(doc, key, flat=False):
    # Bools and numeric strings would pass a float conversion; refuse them.
    entries = np.array(doc[key], dtype=object)
    if not all(_is_number(v) for v in entries.flat):
        raise ValueError(f"'{key}' entries must be numbers")
    if flat and entries.ndim != 1:
        raise ValueError(f"'{key}' must be a flat list of numbers")
    return entries.astype(float)


def _list_or_rule(doc, key, rule_key, modes, other):
    # The numbers under ``key``, or the rule under ``rule_key`` at n = 1 .. modes,
    # or at n = 1 .. the length of the other sequence's list ``other``.
    if key in doc and rule_key in doc:
        raise ValueError(f"spectral config gives both '{key}' and '{rule_key}'")
    if key in doc:
        return _number_array(doc, key, flat=True)
    if rule_key not in doc:
        raise ValueError(f"spectral config needs '{key}' or '{rule_key}'")
    if modes is None:
        raise ValueError(f"{rule_key} requires 'modes'")
    size = _number_array(doc, other, flat=True).size if other in doc else int(modes)
    return evaluate_rule(doc[rule_key], size)


def system_from_config(doc: dict, modes=None):
    """Build a system from its JSON document, refusing by name any key its type does not read.

    ``SYSTEM_KEYS`` lists the keys of each ``type``; ``label`` must be a
    string.  Spectral documents give each sequence as an explicit list
    (``eigenvalues``, ``input_coeffs``) or as a rule (``eigenvalue_rule``,
    ``coeff_rule``), not both, a rule evaluated at n = 1 .. ``modes`` or
    at the other list's length; with a rule the label defaults to "custom".
    Matrix documents carry a dense ``a`` and one input column ``b``, a flat
    list or an n x 1 nested list.  Explicit entries must be numbers.
    """
    if not isinstance(doc, dict):
        raise ValueError("system config must be a JSON object")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in SYSTEM_KEYS:
        raise ValueError(f"unknown system type {kind!r}")
    unknown = sorted(set(doc) - set(SYSTEM_KEYS[kind]))
    if unknown:
        raise ValueError(f"unknown {kind} system keys: {', '.join(unknown)}")
    label = doc.get("label", "custom" if {"eigenvalue_rule", "coeff_rule"} & doc.keys() else kind)
    if not isinstance(label, str):
        raise ValueError("system 'label' must be a string")
    if kind == "spectral":
        eigenvalues = _list_or_rule(doc, "eigenvalues", "eigenvalue_rule", modes, "input_coeffs")
        coeffs = _list_or_rule(doc, "input_coeffs", "coeff_rule", modes, "eigenvalues")
        return SpectralSystem(eigenvalues, coeffs, label=label)
    if "a" not in doc or "b" not in doc:
        raise ValueError("matrix config needs 'a' and 'b'")
    return MatrixSystem(_number_array(doc, "a"), _number_array(doc, "b"), label=label)
