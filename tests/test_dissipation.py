import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_nonnormal
from lyapcert.admissibility import (
    AdmissibilityEstimate,
    OperatorClassReport,
    admissibility_constant,
    admissibility_trend,
    classify_trend,
)
from lyapcert.dissipation import (
    ENVELOPE_RTOL,
    InputSignal,
    SAMPLE_LEVELS,
    Trajectory,
    _dini_quotients,
    _neville_limit,
    _stiff_h_sequence,
    default_sample_cloud,
    dini_derivative,
    exact_certificate,
    fit_dissipation,
    envelope_excess,
    gain_ensemble,
    input_scaling_check,
    proof_decomposition,
    simulate_mild,
)
from lyapcert.lyapunov import (
    GainEnvelope,
    QuadraticForm,
    build_half_norm,
    build_v_half,
    build_w_plain,
    build_w_q,
)
from lyapcert.models import build_model, heat_system
from lyapcert.systems import (
    DecayBound,
    DimensionMismatchError,
    MatrixSystem,
    SpectralSystem,
    _real_array,
    as_state,
    decay_bound_estimate,
    extrapolation_norm,
    fractional_power_apply,
    semigroup_apply,
)
from test_systems import REALIZATION_RTOL


SCALAR = SpectralSystem([1.0], [1.0])


def _random_system(seed, n=6, hi=20.0):
    rng = np.random.default_rng(seed)
    return SpectralSystem(np.sort(rng.uniform(0.1, hi, n)), rng.normal(size=n)), rng


# ---------------------------------------------------------------- signals


def test_input_signal_kinds():
    assert np.all(InputSignal.zero().values == 0.0)
    const = InputSignal.constant(2.0)
    assert const.value0 == 2.0 and const.value_at(10.0) == 2.0
    pw = InputSignal([0.0, 1.0], [1.0, -1.0])
    assert pw.value_at(0.5) == 1.0
    assert pw.value_at(1.0) == -1.0  # right-continuous at the breakpoint
    times = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    assert pw.value_at(times).tolist() == [1.0, 1.0, 1.0, -1.0, -1.0]  # the first level before 0
    sine = InputSignal.sampled_sinusoid(2.0, 0.25, 4.0, samples=8)
    assert sine.value0 == 0.0


def test_input_signal_validation():
    with pytest.raises(ValueError):
        InputSignal([0.5, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        InputSignal([0.0, 0.0], [1.0, 2.0])


def test_input_signal_l2():
    pw = InputSignal([0.0, 1.0], [2.0, 1.0])
    assert pw.energy([3.0])[0] == pytest.approx(4.0 + 2.0)
    assert np.diff(pw.energy([0.5, 1.5]))[0] == pytest.approx(2.0 + 0.5)


# ------------------------------------------------------------- simulation


def _per_cell_walk(sys, x0, u, grid):
    """States of one exact step per piece of each grid cell, and per-node energies.

    Each cell is split at the breakpoints inside it; the energy at a node is
    ``sum((b - a) * v * v)`` over ``[0, t]`` split at the breakpoints.
    """
    bp = u.breakpoints

    def split(t0, t1):
        edges = [t0, *bp[(bp > t0) & (bp < t1)], t1]
        return [(a, b, u.values[bp <= a][-1]) for a, b in zip(edges[:-1], edges[1:])]

    x = np.asarray(x0, dtype=float)
    states = [x]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        for a, b, v in split(t0, t1):
            x = sys.step(x, v, b - a)
        states.append(x)
    energies = [sum((b - a) * v * v for a, b, v in split(0.0, t)) if t > 0 else 0.0 for t in grid]
    return np.vstack(states), np.array(energies, dtype=float)


WALK_CASES = {
    "sinusoid-inside-cells": (InputSignal.sampled_sinusoid(1.5, 0.7, 3.0, 32), np.linspace(0, 3, 21)),
    "breakpoint-on-a-node": (InputSignal([0.0, 0.5, 1.25], [1.0, -2.0, 0.5]),
                             np.array([0.0, 0.5, 1.0, 1.5])),
    "breakpoints-past-the-end": (InputSignal([0.0, 0.3, 2.0, 5.0], [0.4, 1.0, -1.0, 3.0]),
                                 np.linspace(0.0, 1.0, 5)),
    "one-node-grid": (InputSignal([0.0, 0.2], [1.0, -1.0]), np.array([0.0])),
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_one_walk_matches_the_per_cell_split(kind, case):
    # The pieces table gives the bytes of a per-cell split: the same (a, b)
    # floats, levels and step order, and each energy the same left-to-right sum.
    sys = _random_system(8, n=8)[0] if kind == "diagonal" else MatrixSystem(*dense_nonnormal(7, 8))
    u, grid = WALK_CASES[case]
    x0 = np.random.default_rng(3).normal(size=8)
    states, energies = _per_cell_walk(sys, x0, u, grid)
    assert simulate_mild(sys, x0, u, grid).states.tobytes() == states.tobytes()
    assert u.energy(grid).tobytes() == energies.tobytes()


def test_unforced_trajectory_matches_semigroup():
    sys, rng = _random_system(0)
    x0 = rng.normal(size=6)
    grid = np.linspace(0.0, 2.0, 9)
    traj = simulate_mild(sys, x0, InputSignal.zero(), grid)
    for t, state in zip(traj.times, traj.states):
        assert np.allclose(state, semigroup_apply(sys, t, x0), rtol=1e-13, atol=0)


def test_scalar_step_response():
    # Variation of constants: x(1) = 1 - e^(-1) for lam = b = u = 1, x0 = 0.
    traj = simulate_mild(SCALAR, [0.0], InputSignal.constant(1.0), np.array([0.0, 1.0]))
    assert traj.states[-1][0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_superposition():
    sys, rng = _random_system(1)
    x0 = rng.normal(size=6)
    u = InputSignal([0.0, 0.3, 0.9], [1.0, -0.5, 0.25])
    grid = np.linspace(0.0, 1.5, 7)
    full = simulate_mild(sys, x0, u, grid)
    free = simulate_mild(sys, x0, InputSignal.zero(), grid)
    forced = simulate_mild(sys, np.zeros(6), u, grid)
    assert np.allclose(full.states, free.states + forced.states, rtol=1e-12, atol=1e-300)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), c=st.floats(-4.0, 4.0))
def test_linearity_in_initial_state_and_input(seed, c):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    sys = SpectralSystem(np.sort(rng.uniform(0.1, 10.0, n)), rng.normal(size=n))
    x0 = rng.normal(size=n)
    u = InputSignal.constant(0.8)
    grid = np.array([0.0, 0.5, 1.0])
    base = simulate_mild(sys, x0, u, grid)
    scaled = simulate_mild(sys, c * x0, u.scaled(c), grid)
    assert np.allclose(scaled.states, c * base.states, rtol=1e-10, atol=1e-12)


def test_matrix_exponential_integrator():
    a = np.array([[-1.0, 10.0], [0.0, -2.0]])
    sys = MatrixSystem(a, np.array([[1.0], [1.0]]))
    grid = np.array([0.0, 0.7])
    traj = simulate_mild(sys, [1.0, -1.0], InputSignal.constant(0.5), grid)
    # Oracle: closed form x(h) = e^{Ah}x0 + A^{-1}(e^{Ah} - I) B u.
    import scipy.linalg

    e = scipy.linalg.expm(a * 0.7)
    expected = e @ np.array([1.0, -1.0]) + np.linalg.solve(a, (e - np.eye(2)) @ np.array([0.5, 0.5]))
    assert np.allclose(traj.states[-1], expected, rtol=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        simulate_mild(SCALAR, [1.0], InputSignal.zero(), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        simulate_mild(SCALAR, [1.0], InputSignal.zero(), np.array([0.0, 0.0]))


# ---------------------------------------------------------------- dini


def test_dini_unforced_scalar():
    form = build_half_norm(SCALAR)
    est = dini_derivative(form, SCALAR, [1.0], 0.0)
    assert est.value == pytest.approx(-1.0, abs=1e-10)
    assert abs(est.value + 1.0) <= est.error_bar


def test_dini_equilibrium_input():
    # At x = 1 with u = 1 the drift -x + u vanishes, so V' = 0.
    form = build_half_norm(SCALAR)
    est = dini_derivative(form, SCALAR, [1.0], 1.0)
    assert est.value == pytest.approx(0.0, abs=1e-10)


def test_dini_zero_state():
    form = build_half_norm(SCALAR)
    est = dini_derivative(form, SCALAR, [0.0], 0.0)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_dini_matches_analytic_on_random_samples():
    worst = 0.0
    for seed in range(100):
        sys, rng = _random_system(seed, n=8)
        form = build_w_q(sys, float(rng.choice([0.0, 0.25, 0.5])))
        x = rng.normal(size=8)
        level = float(rng.choice([0.0, 0.5, -1.0]))
        est = dini_derivative(form, sys, x, level)
        drift = -sys.eigenvalues * x + sys.input_coeffs * level
        analytic = float(2.0 * np.sum(form.weights * x * drift))
        assert abs(est.value - analytic) <= est.error_bar
        worst = max(worst, est.error_bar / max(abs(analytic), 1.0))
    assert worst <= 1e-6


def test_dini_steps_must_stay_in_the_first_input_segment():
    # Each quotient holds u(0) over [0, h], so the default steps stop
    # short of the first breakpoint rather than ignore the input switch.
    form = build_half_norm(SCALAR)
    u = InputSignal([0.0, 0.01], [1.0, -1.0])
    est = dini_derivative(form, SCALAR, [1.0], u)
    assert est.value == pytest.approx(0.0, abs=1e-10)


def test_a_dini_estimate_near_overflow_raises_no_warning():
    # |V|/h of the noise floor overflows at this state; the estimate keeps
    # its values and raised "overflow encountered in divide" under -W error.
    sys = SpectralSystem([1.0, 2.0, 3.0], [1e154, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = dini_derivative(build_half_norm(sys), sys, np.array([1e154, 1.0, 1.0]), 0.0)
    assert (est.value, est.error_bar) == (-9.999999999988253e307, math.inf)


# ------------------------------------------------------------ certificates


def test_fit_scalar_young_split():
    # -x^2 + xu <= -x^2/2 + u^2/2, so (1/2, 1/2) certifies every sample.
    form = build_half_norm(SCALAR)
    states = [np.array([1.0]), np.array([0.5]), np.array([-1.0])]
    report = fit_dissipation(form, SCALAR, states)
    assert not report.infeasible and not report.violations
    for xx, uu, vdot in report.samples:
        assert vdot + 0.5 * xx - 0.5 * uu <= report.tolerance


def test_fit_unforced_reaches_spectral_bound():
    form = build_half_norm(SCALAR)
    report = fit_dissipation(form, SCALAR, [np.array([1.0])], sample_inputs=(0.0,))
    assert report.a3 == pytest.approx(1.0, rel=1e-8)
    assert report.a4 == 0.0


def test_fit_neumann_stable_across_modes():
    values = []
    for n in (8, 16, 32):
        sys = heat_system("neumann", n)
        form = build_half_norm(sys)
        cloud = default_sample_cloud(sys, form, count=48, seed=0)
        report = fit_dissipation(form, sys, cloud)
        assert not report.infeasible
        # a3 is the cap of the unforced samples, and it certifies every sample.
        unforced = [-v / xx for xx, uu, v in report.samples if uu == 0.0 and xx > 0.0]
        assert report.a3 == min(unforced)
        assert report.worst_residual <= report.tolerance
        values.append((report.a3, report.a4))
    a3s = [a for a, _ in values]
    assert max(a3s) / min(a3s) <= 1.001
    assert a3s[0] == pytest.approx((math.pi / 2.0) ** 2, rel=1e-6)


def _dense_system(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    shift = np.abs(np.linalg.eigvals(raw).real).max() + 0.5
    return MatrixSystem(raw - shift * np.eye(n), rng.normal(size=(n, 1)))


@pytest.mark.parametrize("kind", ["heat-neumann", "dense"])
def test_fit_samples_equal_single_state_dini(kind):
    # The batched table is the per-sample Dini estimate, bit for bit.
    sys = heat_system("neumann", 64) if kind == "heat-neumann" else _dense_system(6, 5)
    form = build_v_half(sys)
    cloud = default_sample_cloud(sys, form, count=12, seed=0)
    levels = (0.0, 0.5, -0.5, 1.0, -1.0)
    report = fit_dissipation(form, sys, cloud, sample_inputs=levels)
    expected = [dini_derivative(form, sys, x, u).value for x in cloud for u in levels]
    assert [v for _, _, v in report.samples] == expected


def test_dense_fit_exponentiates_once_per_level_and_step(monkeypatch):
    import scipy.linalg

    sys = _dense_system(6, 7)
    form = build_v_half(sys)
    cloud = default_sample_cloud(sys, form, count=20, seed=0)
    calls = []
    original = scipy.linalg.expm

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    levels = (0.0, 0.5, -0.5, 1.0, -1.0)
    fit_dissipation(form, sys, cloud, sample_inputs=levels)
    assert len(calls) == 7  # one per step size, whatever the level


def test_sample_cloud_memory_is_linear_in_the_dimension():
    # Coordinate probes are single rows; an n x n identity would take
    # 128 MB at n = 4096.
    import tracemalloc

    n = 4096
    sys = heat_system("neumann", n)
    form = build_half_norm(sys)
    tracemalloc.start()
    try:
        cloud = default_sample_cloud(sys, form, count=4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for probe, k in zip(cloud[4:7], (0, 1, n - 1)):
        assert probe[k] == 1.0 and np.count_nonzero(probe) == 1


def test_sample_cloud_is_one_read_only_stack_in_order():
    # Gaussian rows, then e_0, e_1, e_(n-1), the input direction and the
    # four input-aligned probes (theta = 0.5, 0.9 of the floor; scales 1/4, 1/2).
    n = 6
    sys = heat_system("neumann", n)
    form = build_half_norm(sys)
    cloud = default_sample_cloud(sys, form, count=5, seed=2)
    assert cloud.shape == (5 + 3 + 1 + 4, n) and cloud.dtype == float
    assert not cloud.flags.writeable
    gauss = np.random.default_rng(2).standard_normal((5, n))
    assert np.array_equal(cloud[:5], gauss / np.linalg.norm(gauss, axis=1)[:, None])
    assert np.array_equal(cloud[5:8], np.eye(n)[[0, 1, n - 1]])
    b = sys.input_coeffs
    assert np.array_equal(cloud[8], b / np.linalg.norm(b))
    wl = 2.0 * form.weights * sys.eigenvalues
    floor = wl.min()
    aligned = [
        (form.weights * b) / (wl - theta) * scale
        for theta in (0.5 * floor, 0.9 * floor)
        for scale in (0.25, 0.5)
    ]
    assert np.array_equal(cloud[9:], aligned)


@pytest.mark.parametrize("kind", ["heat-neumann", "dense"])
def test_fit_reads_an_array_and_a_list_of_rows_alike(kind):
    sys = heat_system("neumann", 16) if kind == "heat-neumann" else _dense_system(6, 5)
    form = build_v_half(sys)
    cloud = default_sample_cloud(sys, form, count=12, seed=0)
    as_array = fit_dissipation(form, sys, cloud)
    as_rows = fit_dissipation(form, sys, list(cloud))
    assert as_array.samples.shape == as_rows.samples.shape
    assert (as_array.samples == as_rows.samples).all()
    assert (as_array.a3, as_array.a4) == (as_rows.a3, as_rows.a4)


@pytest.mark.parametrize("kind", ["heat-neumann", "dense"])
def test_fit_norms_equal_the_per_row_vdot(kind):
    # ||x||^2 of the stacked product is the per-row np.vdot, bit for bit.
    sys = heat_system("neumann", 9) if kind == "heat-neumann" else _dense_system(5, 3)
    states = np.random.default_rng(11).normal(size=(7, sys.dimension))
    report = fit_dissipation(build_w_plain(sys), sys, states, sample_inputs=(0.0,))
    assert list(report.samples[:, 0]) == [np.vdot(x, x) for x in states]


def test_fit_refuses_a_wrong_width_stack():
    sys = heat_system("neumann", 8)
    with pytest.raises(
        DimensionMismatchError, match="state length 7 does not match system dimension 8"
    ):
        fit_dissipation(build_half_norm(sys), sys, np.ones((3, 7)))


def test_fit_dirichlet_input_coefficient_grows():
    a4s = []
    for n in (8, 32, 128):
        sys = heat_system("dirichlet", n)
        form = build_half_norm(sys)
        cloud = default_sample_cloud(sys, form, count=48, seed=0)
        report = fit_dissipation(form, sys, cloud)
        a4s.append(report.a4)
    assert a4s[1] >= 1.2 * a4s[0]
    assert a4s[2] >= 1.2 * a4s[1]


def test_fit_requires_nonzero_state():
    form = build_half_norm(SCALAR)
    with pytest.raises(ValueError):
        fit_dissipation(form, SCALAR, [np.array([0.0])])


def test_fit_infeasible_on_non_dissipative_direction():
    # For A = [[-1, 10], [0, -1]] the plain scalar product is not
    # dissipative at (1, 1)/sqrt(2), so half the squared norm admits no
    # positive decay coefficient on a cloud containing that direction.
    sys = MatrixSystem(np.array([[-1.0, 10.0], [0.0, -1.0]]), np.ones((2, 1)))
    form = build_half_norm(sys)
    bad = np.array([1.0, 1.0]) / math.sqrt(2.0)
    report = fit_dissipation(form, sys, [bad, np.array([1.0, 0.0])])
    assert report.infeasible
    assert report.worst_residual > 0.0
    assert "no positive decay coefficient" in report.infeasible_reason
    doc = report.to_config()
    assert set(doc) == {"a1", "a2", "a3", "a4", "violations", "infeasible_reason"}


@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize(
    "bad", [np.full(8, np.nan), np.eye(1, 8, 0)[0] * 1e200], ids=["nan", "overflow"]
)
def test_non_finite_sample_is_a_violation_wherever_it_sits(bad, position):
    # A non-finite Dini value or ||x||^2 must not move the cap, a4 or the
    # tolerance; only that state's rows are flagged.
    sys = heat_system("neumann", 8)
    form = build_half_norm(sys)
    cloud = default_sample_cloud(sys, form, count=16, seed=3)
    clean = fit_dissipation(form, sys, cloud)
    states = np.vstack([bad, cloud] if position == "first" else [cloud, bad])
    with np.errstate(all="ignore"):
        report = fit_dissipation(form, sys, states)
    first_row = 0 if position == "first" else 5 * len(cloud)
    assert (report.a3, report.a4) == (clean.a3, clean.a4)
    assert report.tolerance == clean.tolerance and math.isfinite(report.tolerance)
    assert report.violations == tuple(range(first_row, first_row + 5))
    assert report.infeasible
    assert report.infeasible_reason == "non-finite derivative estimates in the cloud"


@pytest.mark.parametrize("kind", ["heat-neumann", "dense"])
def test_fit_evaluates_v_of_the_states_once(kind, monkeypatch):
    from lyapcert.lyapunov import QuadraticForm

    sys = heat_system("neumann", 16) if kind == "heat-neumann" else _dense_system(6, 5)
    form = build_v_half(sys)
    cloud = default_sample_cloud(sys, form, count=12, seed=0)
    calls = []
    original = QuadraticForm.values

    def counted(self, states, **kwargs):
        calls.append(np.shape(states))
        return original(self, states, **kwargs)

    monkeypatch.setattr(QuadraticForm, "values", counted)
    levels = (0.0, 0.5, -0.5, 1.0, -1.0)
    fit_dissipation(form, sys, cloud, sample_inputs=levels)
    # V of the states once, then V after each of the 7 steps per level.
    assert len(calls) == 1 + 7 * len(levels)


def test_scaling_check():
    sys, _ = _random_system(3)
    form = build_v_half(sys)
    report = input_scaling_check(form, sys, 1.0, (0.0, 0.5, 1.0, 2.0, 10.0))
    assert report.passed
    assert report.max_relative_error <= 1e-10
    base = report.measured[report.factors.index(1.0)]
    assert report.measured[report.factors.index(2.0)] == pytest.approx(4.0 * base, rel=1e-12)
    assert report.measured[report.factors.index(0.0)] == 0.0


# ------------------------------------------------------ exact certificates


def _resolvable_family(seed, octaves):
    # Ascending rates whose slowest mode lies in [0.5, 2], so the Dini steps
    # resolve the lambda_min(M) direction of W_0; the others spread over
    # 2^0 .. 2^octaves.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    spread = 2.0 ** rng.uniform(0.0, octaves, n - 1) if octaves else rng.uniform(0.5, 30.0, n - 1)
    lam = np.sort(np.concatenate([[rng.uniform(0.5, 2.0)], spread]))
    return lam, rng.normal(size=n)


def _dense_seed7():
    """The dense n = 64 benchmark system of seed 7: non-normal, spectral gap 0.5."""
    rng = np.random.default_rng([7, 64])
    r = rng.standard_normal((64, 64)) / np.sqrt(64)
    a = r - (np.linalg.eigvals(r).real.max() + 0.5) * np.eye(64)
    b = rng.standard_normal(64)
    return MatrixSystem(a, b / np.linalg.norm(b))


EXACT_CASES = st.sampled_from([(0.0, 0), (0.25, 0), (0.5, 0), (0.0, 40)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), case=EXACT_CASES)
def test_exact_certificate_is_realization_independent(seed, case):
    # The O(N) closed form against eigh and a solve on the dense embedding;
    # beyond W_0 the spread stays small, since lambda_min(M) of W_q is then
    # only normwise accurate.  Both certify, at a 2^40 spread too.
    q, octaves = case
    lam, b = _resolvable_family(seed, octaves)
    diagonal, dense = SpectralSystem(lam, b), MatrixSystem(np.diag(-lam), b)
    ref = exact_certificate(build_w_q(diagonal, q), diagonal)
    got = exact_certificate(build_w_q(dense, q), dense)
    assert not ref.infeasible and not got.infeasible
    for name in ("a3max", "a3", "a4"):
        assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=REALIZATION_RTOL)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), octaves=st.sampled_from([0, 300]),
       dense=st.booleans(), c=st.floats(-1e3, 1e3).filter(lambda c: abs(c) >= 1e-3))
def test_exact_certificate_scales_with_the_input_column(seed, octaves, dense, c):
    lam, b = _resolvable_family(seed, octaves)
    if dense:  # a non-normal 4 x 4 system with rates in [0.5, 5]
        rng = np.random.default_rng(seed)
        a = np.diag(-rng.uniform(0.5, 5.0, 4)) + np.triu(rng.normal(size=(4, 4)), 1)
        b = rng.normal(size=4)
        base, scaled = MatrixSystem(a, b), MatrixSystem(a, c * b)
    else:
        base, scaled = SpectralSystem(lam, b), SpectralSystem(lam, c * b)
    ref = exact_certificate(build_w_plain(base), base)
    got = exact_certificate(build_w_plain(scaled), scaled)
    assert not ref.infeasible and not got.infeasible
    assert (got.a3max, got.a3) == (ref.a3max, ref.a3)
    assert got.a4 == pytest.approx(c * c * ref.a4, rel=1e-12)


def _binding_states(form, sys, cert):
    # The lambda_min(M) direction and the maximizer (M - a3 I)^-1 P b of a
    # certificate, where its inequality holds with equality.
    m, pb = sys.dissipation_operator(form), form.p_apply(sys.input_coeffs)
    if m.ndim == 1:
        return np.eye(1, m.size, int(np.argmin(m)))[0], pb / (m - cert.a3)
    bottom = np.linalg.eigh(m)[1][:, 0]
    return bottom, np.linalg.solve(m - cert.a3 * np.eye(len(m)), pb)


README_SWEEPS = [(model, n) for model, sizes in (("heat-neumann", (16, 64, 256)),
                 ("heat-dirichlet", (16, 64, 256)), ("counterexample", (64, 128, 256)))
                 for n in sizes]


@pytest.mark.parametrize("model, n", README_SWEEPS + [("dense-seed-7", 64)])
def test_w0_binding_states_lie_within_their_dini_error_bars(model, n):
    # A check of the exact W_0 certificate against the dynamics: the Dini
    # derivative at each binding state meets the certified inequality with
    # equality, unforced against a3max and at input level 1 against (a3, a4).
    sys = _dense_seed7() if model == "dense-seed-7" else build_model(model, n)
    form = build_w_plain(sys)
    cert = exact_certificate(form, sys)
    assert not cert.infeasible
    bottom, maximizer = _binding_states(form, sys, cert)
    for x, level, decay in ((bottom, 0.0, cert.a3max), (maximizer, 1.0, cert.a3)):
        dini = dini_derivative(form, sys, x, level)
        residual = dini.value + decay * float(np.vdot(x, x)) - cert.a4 * level**2
        assert np.isfinite(dini.error_bar)  # an infinite bar would hold vacuously
        assert abs(residual) <= dini.error_bar


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(["heat-neumann", "heat-dirichlet", "counterexample", "random"]),
       n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_diagonal_dini_quotients_are_homogeneous_of_degree_two(model, n, seed):
    # V is quadratic and the flow linear, so the Dini table at (l x, l u) is
    # l^2 times the one at (x, u), bit for bit on diagonal systems at every
    # level the fit samples: the falsifier's level 1 stands for the others.
    rng = np.random.default_rng(seed)
    if model == "random":
        sys = SpectralSystem(np.sort(rng.uniform(0.1, 1e4, n)), rng.normal(size=n))
    else:
        sys = build_model(model, n)
    states, hs = rng.standard_normal((3, n)), _stiff_h_sequence(sys)
    for form in (build_w_plain(sys), build_v_half(sys), build_w_q(sys, 0.25)):
        value, bar = _dini_quotients(form, sys, states, [1.0], hs)
        for level in SAMPLE_LEVELS:
            scaled, scaled_bar = _dini_quotients(form, sys, level * states, [level], hs)
            assert np.array_equal(scaled, level**2 * value)
            assert np.array_equal(scaled_bar, level**2 * bar)


def _fresh_array_dini_quotients(form, sys, states, levels, hs):
    # The table with a fresh state and fresh squares per cell.
    v0 = form.values(states)
    quotients = np.empty((len(states), len(levels), len(hs)))
    for j, h in enumerate(hs):
        for i, level in enumerate(levels):
            quotients[:, i, j] = (form.values(sys.step(states, level, h)) - v0) / h
    value, bar = _neville_limit(hs, quotients)
    noise = 32.0 * np.finfo(float).eps * (
        np.abs(v0)[:, None] / hs[-1] + np.abs(quotients).max(axis=-1)
    )
    return value, 4.0 * np.where(noise > bar, noise, bar)


@pytest.mark.parametrize("kind", ["heat-neumann", "dense"])
def test_dini_table_in_one_work_array_holds_the_fresh_array_bytes(kind):
    if kind == "heat-neumann":
        sys = heat_system("neumann", 256)
    else:
        sys = MatrixSystem(*dense_nonnormal(7, 8))
    form = build_v_half(sys)
    states = default_sample_cloud(sys, form)
    hs = _stiff_h_sequence(sys)
    value, bar = _dini_quotients(form, sys, states, SAMPLE_LEVELS, hs)
    expected_value, expected_bar = _fresh_array_dini_quotients(form, sys, states, SAMPLE_LEVELS, hs)
    assert value.tobytes() == expected_value.tobytes()
    assert bar.tobytes() == expected_bar.tobytes()


def test_dini_table_allocates_one_state_stack():
    # One work array for all 35 cells; a fresh state and fresh squares per
    # cell would peak at about three stacks.
    import tracemalloc

    sys = heat_system("neumann", 4096)
    form = build_v_half(sys)
    states = default_sample_cloud(sys, form)
    hs = _stiff_h_sequence(sys)
    tracemalloc.start()
    try:
        _dini_quotients(form, sys, states, SAMPLE_LEVELS, hs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * states.nbytes


def test_exact_certificate_steps_only_its_two_binding_levels(monkeypatch):
    # The certificate once stepped its two binding levels (u = 0 and u = 1)
    # to falsify itself by simulation. It now encloses its own rounding, so
    # it steps neither: no step and no Dini table, on either realization or
    # form kind.
    import lyapcert.dissipation as dissipation

    def refuse(*args, **kwargs):
        raise AssertionError("exact_certificate stepped")

    diagonal, dense = heat_system("neumann", 16), _dense_system(5, 6)
    forms = [(build_w_plain(diagonal), diagonal), (QuadraticForm(p_matrix=np.eye(16)), diagonal),
             (build_half_norm(dense), dense), (build_w_plain(dense), dense)]
    for target, name in ((SpectralSystem, "step"), (MatrixSystem, "step"),
                         (dissipation, "_dini_quotients")):
        monkeypatch.setattr(target, name, refuse)
    for form, sys in forms:
        assert exact_certificate(form, sys).violations == ()


def test_dense_falsifier_reuses_the_fit_propagators(monkeypatch):
    # The coercive fit exponentiates once per step size. The W_0 certificate
    # whose Dini falsifier once reused those propagators has no falsifier
    # left, so it needs no matrix exponential, before the fit or after it.
    import scipy.linalg

    rng = np.random.default_rng(8)
    raw = rng.normal(size=(6, 6))
    sys = MatrixSystem(raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(6), rng.normal(size=6))
    form, w0 = build_v_half(sys), build_w_plain(sys)
    calls = []
    original = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or original(a))
    assert not exact_certificate(w0, sys).infeasible
    assert calls == []
    fit_dissipation(form, sys, default_sample_cloud(sys, form, count=8))
    assert calls == [(7, 7)] * 7
    calls.clear()
    assert not exact_certificate(w0, sys).infeasible
    assert calls == []


def test_w0_certificate_on_the_dense_benchmark_system():
    sys = _dense_seed7()
    cert = exact_certificate(build_w_plain(sys), sys)
    assert not cert.infeasible and cert.violations == ()
    assert 0.0 < cert.a3max_radius <= 1e-10 * cert.a3max
    assert 0.0 < cert.a4_radius <= 1e-10 * cert.a4
    assert cert.a3max == pytest.approx(1.0, abs=1e-12)
    assert cert.a4 == pytest.approx(1.25799375, rel=1e-8)


def test_model_w0_certificates_are_the_closed_forms():
    # a3max = 2 w lam = 1 and a4 = sum (w b)^2 / (1 - a3) = sum b^2 / (2 lam^2).
    for model, n in (("heat-neumann", 16), ("heat-dirichlet", 256), ("counterexample", 128)):
        sys = build_model(model, n)
        cert = exact_certificate(build_w_plain(sys), sys)
        lam, b = sys.eigenvalues, sys.input_coeffs
        assert cert.a3max == pytest.approx(1.0, rel=1e-15) and cert.a3 == 0.5 * cert.a3max
        assert cert.a4 == pytest.approx(np.sum(b * b / (2.0 * lam * lam)), rel=1e-13)
    assert exact_certificate(build_w_plain(sys), sys).a4 == pytest.approx(0.5, rel=1e-15)


def test_exact_certificate_refuses_a_form_without_decay():
    sys = SpectralSystem([1.0, 2.0], [1.0, 1.0])
    form = QuadraticForm(p_matrix=np.array([[1.0, 0.0], [0.0, 1e-9]]))
    growing = MatrixSystem(np.array([[-1.0, 50.0], [0.0, -1.0]]), np.array([1.0, 1.0]))
    cert = exact_certificate(QuadraticForm(p_matrix=np.eye(2)), growing)
    assert cert.infeasible and cert.a3max < 0.0 and (cert.a3, cert.a4) == (0.0, 0.0)
    assert "no positive decay coefficient" in cert.to_config()["infeasible_reason"]
    assert not exact_certificate(form, sys).infeasible
    with pytest.raises(DimensionMismatchError):
        exact_certificate(build_w_plain(SCALAR), sys)


def test_exact_certificate_document_has_the_fitted_keys():
    sys = heat_system("neumann", 8)
    fitted = fit_dissipation(build_w_plain(sys), sys, default_sample_cloud(sys, build_w_plain(sys), 4))
    exact = exact_certificate(build_w_plain(sys), sys)
    assert exact.to_config().keys() == fitted.to_config().keys()
    assert exact.to_config()["violations"] == []


def _exact_pivots(k):
    # The LDL^T pivots of a symmetric rational matrix, up to the first
    # non-positive one: k is positive definite iff they are all positive.
    k, pivots = [row[:] for row in k], []
    for i in range(len(k)):
        pivots.append(k[i][i])
        if pivots[-1] <= 0:
            break
        for r in range(i + 1, len(k)):
            f = k[r][i] / k[i][i]
            k[r][i:] = [x - f * y for x, y in zip(k[r][i:], k[i][i:])]
    return pivots


def _exact_solve(k, rhs):
    # Gaussian elimination on a rational positive definite k.
    a = [row[:] + [v] for row, v in zip(k, rhs)]
    n = len(a)
    for i in range(n):
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r][i:] = [x - f * y for x, y in zip(a[r][i:], a[i][i:])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][c] * x[c] for c in range(i + 1, n))) / a[i][i]
    return x


def _assert_encloses_the_exact_pair(form, sys):
    # The exact M = -(P A + A^T P) and a4 = b^T P (M - a3 I)^-1 P b of the
    # stored floats, in rational arithmetic, against the reported radii.
    cert = exact_certificate(form, sys)
    assert not cert.infeasible, cert.infeasible_reason
    exact = np.vectorize(Fraction, otypes=[object])
    b, a3 = exact(sys.input_coeffs), Fraction(cert.a3)
    lo = Fraction(cert.a3max) - Fraction(cert.a3max_radius)
    hi = Fraction(cert.a3max) + Fraction(cert.a3max_radius)
    if form.weights is not None and isinstance(sys, SpectralSystem):
        pb, m = exact(form.weights) * b, 2 * exact(form.weights) * exact(sys.eigenvalues)
        assert lo < min(m) <= hi  # the pivots of a diagonal M
        a4 = sum(pb * pb / (m - a3))
    else:
        p = exact(np.diag(form.weights) if form.p_matrix is None else form.p_matrix)
        a = exact(np.diag(-sys.eigenvalues) if isinstance(sys, SpectralSystem) else sys.a_matrix)
        m, pb = -(p.dot(a) + a.T.dot(p)), p.dot(b)
        eye = np.eye(len(m), dtype=int)
        assert all(v > 0 for v in _exact_pivots((m - lo * eye).tolist()))
        assert not all(v > 0 for v in _exact_pivots((m - hi * eye).tolist()))
        a4 = sum(pb * _exact_solve((m - a3 * eye).tolist(), list(pb)))
    assert abs(a4 - Fraction(cert.a4)) <= Fraction(cert.a4_radius)


@pytest.mark.parametrize("n", [1, 17, 300])
@pytest.mark.parametrize("model", ["heat-neumann", "heat-dirichlet", "counterexample"])
def test_exact_certificate_encloses_the_rational_pair_on_the_models(model, n):
    sys = build_model(model, n)
    for form in (build_w_plain(sys), build_w_q(sys, 0.25), build_v_half(sys)):
        _assert_encloses_the_exact_pair(form, sys)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_exact_certificate_encloses_the_rational_pair_on_dense_forms(seed, n):
    # Non-normal dense systems with their W_0 and V_half, and a dense
    # positive definite P on a diagonal system with rates in [1, 2].
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n)) + 3.0 * np.triu(rng.normal(size=(n, n)), 1)
    dense = MatrixSystem(raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(n),
                         rng.normal(size=n))
    for form in (build_w_plain(dense), build_v_half(dense)):
        _assert_encloses_the_exact_pair(form, dense)
    q = rng.normal(size=(n, n)) * 0.1
    diagonal = SpectralSystem(np.sort(rng.uniform(1.0, 2.0, n)), rng.normal(size=n))
    _assert_encloses_the_exact_pair(QuadraticForm(p_matrix=np.eye(n) + q @ q.T), diagonal)


def test_stiff_w0_certificate_needs_no_resolvable_mode():
    # Every mode is too stiff for any Dini step; the closed form is exact.
    sys = SpectralSystem(2.0 ** np.array([200.0, 201.0, 230.0]), [1.0, 1.0, 1.0])
    cert = exact_certificate(build_w_plain(sys), sys)
    assert not cert.infeasible and cert.a3max == 1.0
    assert cert.a4 == pytest.approx(np.sum(0.5 / sys.eigenvalues**2), rel=1e-15)
    dense = MatrixSystem(np.diag(-(2.0 ** np.arange(41.0))), np.ones(41))
    cert = exact_certificate(build_w_plain(dense), dense)
    assert not cert.infeasible and cert.a3max == pytest.approx(1.0, rel=1e-10)


def test_extreme_columns_and_slow_modes_get_finite_enclosures():
    # Where the Dini error bar overflows or cannot see a slow mode, the
    # enclosure stays finite.
    big = SpectralSystem([1.0, 2.0, 3.0], [1e154, 1.0, 1.0])
    slow = SpectralSystem([1e-15, 1.0, 2.0], [1.0, 1.0, 1.0])
    for sys, a3max, a4 in ((big, 1.0, 5e307), (slow, 1e-15, 5e14)):
        cert = exact_certificate(build_v_half(sys), sys)
        assert not cert.infeasible and cert.a3max == a3max
        assert cert.a4 == pytest.approx(a4, rel=1e-14)
        assert np.isfinite(cert.a3max_radius) and np.isfinite(cert.a4_radius)
    assert not exact_certificate(build_w_plain(big), big).infeasible


def test_an_enclosure_that_holds_zero_is_unresolved():
    # M = -(A + A^T) = [[2, -2], [-2, 2]] has lambda_min exactly 0.
    sys = MatrixSystem(np.array([[-1.0, 2.0], [0.0, -1.0]]), np.array([1.0, 1.0]))
    cert = exact_certificate(QuadraticForm(p_matrix=np.eye(2)), sys)
    assert abs(cert.a3max) <= cert.a3max_radius < 1e-12
    assert cert.infeasible and cert.infeasible_reason.startswith("unresolved: lambda_min(M)")
    assert (cert.a3, cert.a4) == (0.0, 0.0)


# --------------------------------------------------------- decomposition


def test_decomposition_unforced():
    sys, rng = _random_system(4)
    form = build_v_half(sys)
    x = rng.normal(size=6)
    report = proof_decomposition(form, sys, x, 0.0, h=0.1)
    assert report.i2 == pytest.approx(0.0, abs=1e-14)
    assert report.i3 == pytest.approx(0.0, abs=1e-14)
    assert report.i1 == pytest.approx(form.value(semigroup_apply(sys, 0.1, x)), rel=1e-12)


def test_decomposition_scalar_reconstruction():
    form = build_v_half(SCALAR)
    report = proof_decomposition(form, SCALAR, [1.0], 1.0, h=0.1)
    # x = u = 1 is the equilibrium, so V(phi(h, x, u)) = 1/2 exactly.
    assert report.direct_value == pytest.approx(0.5, rel=1e-14)
    assert report.reconstruction_error <= 1e-8
    assert report.i1_check_error <= 1e-8
    assert report.i3_bound_holds


def test_decomposition_w_zero_form():
    sys, rng = _random_system(5)
    form = build_w_plain(sys)
    x = rng.normal(size=6)
    report = proof_decomposition(form, sys, x, 0.7, h=0.05)
    assert report.reconstruction_error <= 1e-8
    assert report.i3_bound_holds


def test_decomposition_dense_nonnormal():
    rng = np.random.default_rng(12)
    a = np.array([[-1.0, 6.0, 0.0], [0.0, -2.0, 4.0], [0.0, 0.0, -3.0]])
    sys = MatrixSystem(a, np.array([[1.0], [-0.5], [2.0]]))
    x = rng.normal(size=3)
    for form in (build_v_half(sys), build_w_q(sys, 0.25)):
        report = proof_decomposition(form, sys, x, 0.8, h=0.05)
        assert report.reconstruction_error <= 1e-8
        assert report.i1_check_error <= 1e-8
        assert report.i3_bound_holds


def test_decomposition_agrees_across_realizations():
    rng = np.random.default_rng(13)
    lam = np.sort(rng.uniform(0.5, 15.0, 5))
    b = rng.normal(size=5)
    diagonal = SpectralSystem(lam, b)
    dense = MatrixSystem(np.diag(-lam), b.reshape(-1, 1))
    x = rng.normal(size=5)
    for q in (0.0, 0.25, 0.5):
        ref = proof_decomposition(build_w_q(diagonal, q), diagonal, x, -0.6, h=0.1)
        got = proof_decomposition(build_w_q(dense, q), dense, x, -0.6, h=0.1)
        for name in ("i1", "i2", "i3"):
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=REALIZATION_RTOL)


def test_dense_sample_cloud_probes_the_input_direction():
    a = np.array([[-1.0, 6.0, 0.0], [0.0, -2.0, 4.0], [0.0, 0.0, -3.0]])
    b = np.array([1.0, -0.5, 2.0])
    sys = MatrixSystem(a, b)
    cloud = default_sample_cloud(sys, build_v_half(sys), count=4, seed=0)
    direction = b / np.linalg.norm(b)
    assert any(np.array_equal(state, direction) for state in cloud)


def test_decomposition_bounds_i3_by_the_gramian_constant():
    # K2(h) is the same float admissibility_constant(sys, 2, h) reports.
    from lyapcert.admissibility import admissibility_constant

    a = np.array([[-1.0, 6.0, 0.0], [0.0, -2.0, 4.0], [0.0, 0.0, -3.0]])
    for sys in (_random_system(6)[0], MatrixSystem(a, np.array([1.0, -0.5, 2.0]))):
        form = build_v_half(sys)
        report = proof_decomposition(form, sys, np.ones(sys.dimension), 0.3, h=0.2)
        k2 = admissibility_constant(sys, 2, 0.2).constant
        assert report.k2_constant == form.a2 * k2**2


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_decomposition_refuses_a_nonpositive_or_nonfinite_h(h):
    with pytest.raises(ValueError, match="h must be positive and finite"):
        proof_decomposition(build_v_half(SCALAR), SCALAR, [1.0], 0.0, h=h)


def test_decomposition_requires_square_function_form():
    from lyapcert.lyapunov import QuadraticForm

    form = QuadraticForm(weights=np.array([1.0]))
    with pytest.raises(ValueError):
        proof_decomposition(form, SCALAR, [1.0], 0.0, h=0.1)


# --------------------------------------------------------- gain envelope


def _ensemble(sys, rng, t_end=6.0):
    grid = np.linspace(0.0, t_end, 121)
    n = sys.dimension
    zero = np.zeros(n)
    runs = [
        simulate_mild(sys, np.eye(n)[0], InputSignal.zero(), grid),
        simulate_mild(sys, rng.normal(size=n), InputSignal.zero(), grid),
        simulate_mild(sys, zero, InputSignal.constant(1.0), grid),
        simulate_mild(sys, zero, InputSignal.sampled_sinusoid(1.0, 0.5, t_end, 16), grid),
    ]
    return runs


def test_gain_fit_scalar_exact():
    # x' = -x + u: ||T(t)|| = e^(-t) and K2(inf) = 1/sqrt(2), so the envelope
    # covers every node and the unforced runs attain it.
    rng = np.random.default_rng(6)
    envelope = GainEnvelope(overshoot=1.0, rate=1.0, gain=SCALAR.l2_input_constants([math.inf])[0])
    assert envelope.gain == pytest.approx(math.sqrt(0.5), rel=1e-15)
    excess = envelope_excess(envelope, _ensemble(SCALAR, rng))
    assert excess.max() <= ENVELOPE_RTOL
    assert np.abs(excess[:2]).max() <= 1e-12


def test_gain_fit_zero_input_ensemble():
    grid = np.linspace(0.0, 5.0, 60)
    runs = [
        simulate_mild(SCALAR, [1.0], InputSignal.zero(), grid),
        simulate_mild(SCALAR, [0.0], InputSignal.zero(), grid),
    ]
    excess = envelope_excess(GainEnvelope(overshoot=1.0, rate=1.0, gain=0.0), runs)
    assert excess.shape == (2, 60)
    assert excess.max() <= ENVELOPE_RTOL
    assert np.all(excess[1] == 0.0)  # a zero bound reports the zero norm


def test_gain_fit_heat_neumann_ensemble():
    sys = heat_system("neumann", 64)
    rng = np.random.default_rng(7)
    runs = _ensemble(sys, rng, t_end=4.0)
    grid = np.linspace(0.0, 4.0, 121)
    runs.append(simulate_mild(sys, rng.normal(size=64), InputSignal.constant(0.5), grid))
    decay = decay_bound_estimate(sys, [0.0])[0]
    envelope = GainEnvelope(decay.prefactor, decay.rate, sys.l2_input_constants([math.inf])[0])
    assert envelope_excess(envelope, runs).max() <= ENVELOPE_RTOL


def test_gain_fit_flags_non_decaying_run():
    # A run that does not decay falsifies every envelope after t = 0.
    from lyapcert.dissipation import Trajectory

    grid = np.linspace(0.0, 2.0, 5)
    stuck = Trajectory(
        times=grid, states=np.ones((5, 1)), input=InputSignal.zero()
    )
    forced = simulate_mild(SCALAR, [0.0], InputSignal.constant(1.0), grid)
    excess = envelope_excess(GainEnvelope(overshoot=1.0, rate=1.0, gain=1.0), [stuck, forced])
    assert excess[0, 0] == 0.0
    assert np.all(excess[0, 1:] > ENVELOPE_RTOL)
    assert excess[1].max() <= ENVELOPE_RTOL


_DOOR_SYSTEM = heat_system("neumann", 8)
_DOOR_STATE = np.eye(1, 8, 0)[0]
_DOOR_FORM = build_half_norm(_DOOR_SYSTEM)


def _fresh_dense():
    # A new non-normal system per call, so its exponent caches start empty.
    return MatrixSystem([[-1.0, 1.0], [0.0, -2.0]], [1.0, 1.0])


# Every entry through which an array, a scalar input level, a scalar
# parameter or a trend record reaches the library, each with a valid
# float64 argument (a flat list, a nested list or a scalar) exact in int64
# and float32.  A third item marks the refusals that are not TypeError, per
# type of the bad value: None is delta's default, and q keeps ValueError for
# text and None, which the config reports as exit 2.
_DOOR_ENTRIES = {
    "SpectralSystem eigenvalues": (lambda a: SpectralSystem(a, [1.0, 1.0]), [1.0, 1.0]),
    "SpectralSystem input_coeffs": (lambda a: SpectralSystem([1.0, 2.0], a), [1.0, 0.0]),
    "MatrixSystem a_matrix": (lambda a: MatrixSystem(a, [1.0, 1.0]), [[-1.0, 0.0], [0.0, -2.0]]),
    "MatrixSystem b": (lambda a: MatrixSystem(np.diag([-1.0, -2.0]), a), [1.0, 0.0]),
    "QuadraticForm weights": (lambda a: QuadraticForm(weights=a), [1.0, 1.0]),
    "QuadraticForm p_matrix": (lambda a: QuadraticForm(p_matrix=a), [[1.0, 0.0], [0.0, 1.0]]),
    "QuadraticForm.values": (lambda a: _DOOR_FORM.values(a), [list(_DOOR_STATE)] * 2),
    "QuadraticForm.value": (lambda a: _DOOR_FORM.value(a), list(_DOOR_STATE)),
    "as_state": (lambda a: as_state(_DOOR_SYSTEM, a), list(_DOOR_STATE)),
    "simulate_mild state": (
        lambda a: simulate_mild(_DOOR_SYSTEM, a, 0.5, [0.0, 0.5]), list(_DOOR_STATE)
    ),
    "simulate_mild grid": (lambda a: simulate_mild(_DOOR_SYSTEM, _DOOR_STATE, 0.5, a), [0.0, 1.0]),
    "semigroup_apply": (lambda a: semigroup_apply(_DOOR_SYSTEM, 0.5, a), list(_DOOR_STATE)),
    "fractional_power_apply": (
        lambda a: fractional_power_apply(_DOOR_SYSTEM, 0.5, a), list(_DOOR_STATE)
    ),
    "extrapolation_norm": (lambda a: extrapolation_norm(_DOOR_SYSTEM, 0.5, a), list(_DOOR_STATE)),
    "dini_derivative state": (
        lambda a: dini_derivative(_DOOR_FORM, _DOOR_SYSTEM, a, 0.5), list(_DOOR_STATE)
    ),
    "proof_decomposition state": (
        lambda a: proof_decomposition(build_v_half(_DOOR_SYSTEM), _DOOR_SYSTEM, a, 0.5, 0.1),
        list(_DOOR_STATE),
    ),
    "fit_dissipation states": (
        lambda a: fit_dissipation(_DOOR_FORM, _DOOR_SYSTEM, a, sample_inputs=(0.0, 1.0)),
        [list(_DOOR_STATE)] * 2,
    ),
    "InputSignal breakpoints": (lambda a: InputSignal(a, [0.0, 1.0]), [0.0, 1.0]),
    "InputSignal.energy times": (lambda a: InputSignal.constant(1.0).energy(a), [0.0, 1.0]),
    "Trajectory times": (
        lambda a: Trajectory(a, np.zeros((2, 8)), InputSignal.zero()), [0.0, 1.0]
    ),
    "DecayBound.evaluate times": (lambda a: DecayBound(1.0, 1.0, 0.0).evaluate(a), [0.0, 1.0]),
    "InputSignal values": (lambda a: InputSignal([0.0, 1.0], a), [0.0, 1.0]),
    "InputSignal.constant": (lambda u: InputSignal.constant(u), 1.0),
    "InputSignal.sampled_sinusoid": (lambda u: InputSignal.sampled_sinusoid(u, 0.5, 2.0), 1.0),
    "InputSignal.scaled": (lambda u: InputSignal.constant(1.0).scaled(u), 1.0),
    "simulate_mild level": (
        lambda u: simulate_mild(_DOOR_SYSTEM, _DOOR_STATE, u, [0.0, 0.5]), 1.0
    ),
    "dini_derivative level": (
        lambda u: dini_derivative(_DOOR_FORM, _DOOR_SYSTEM, _DOOR_STATE, u), 1.0
    ),
    "input_scaling_check factors": (
        lambda a: input_scaling_check(_DOOR_FORM, _DOOR_SYSTEM, 1.0, a), [1.0, 1.0]
    ),
    "fit_dissipation levels": (
        lambda a: fit_dissipation(_DOOR_FORM, _DOOR_SYSTEM, [_DOOR_STATE], sample_inputs=a),
        [0.0, 1.0],
    ),
    "SpectralSystem.neg_power exponent": (lambda a: heat_system("neumann", 8).neg_power(a), 1.0),
    "MatrixSystem.neg_power exponent": (lambda a: _fresh_dense().neg_power(a), 1.0),
    "neg_power_apply exponent": (lambda a: _fresh_dense().neg_power_apply(a, [1.0, 0.0]), 1.0),
    "fractional_power_apply exponent": (
        lambda a: fractional_power_apply(heat_system("neumann", 8), a, _DOOR_STATE), 1.0
    ),
    "extrapolation_norm gamma": (
        lambda a: extrapolation_norm(heat_system("neumann", 8), a, _DOOR_STATE), 1.0
    ),
    "dense W_q solve exponent": (
        lambda a: _fresh_dense().square_function_form(a, "W_q")["p_matrix"], 1.0
    ),
    "semigroup_apply time": (lambda a: semigroup_apply(_DOOR_SYSTEM, a, _DOOR_STATE), 1.0),
    "build_w_q q": (lambda a: build_w_q(_fresh_dense(), a), 0.0),
    "decay_bound_estimate powers": (lambda a: decay_bound_estimate(_DOOR_SYSTEM, a), [0.0, 1.0]),
    "decay_bound_estimate delta": (
        lambda a: decay_bound_estimate(SpectralSystem([2.0, 3.0], [1.0, 1.0]), [0.0], delta=a),
        1.0,
        {type(None): None},
    ),
    "admissibility q": (
        lambda a: admissibility_constant(_DOOR_SYSTEM, a, 1.0),
        2.0,
        {str: ValueError, type(None): ValueError},
    ),
    "admissibility_constant horizon": (lambda a: admissibility_constant(_DOOR_SYSTEM, 2, a), 1.0),
    "admissibility_trend horizons": (
        lambda a: admissibility_trend([_DOOR_SYSTEM], 2, a), [1.0, 2.0]
    ),
    "classify_trend sizes": (lambda a: classify_trend(a, [1.0, 2.0]), [1.0, 2.0]),
    "classify_trend values": (lambda a: classify_trend([1.0, 2.0], a), [1.0, 1.0]),
    "OperatorClassReport norms": (
        lambda a: OperatorClassReport(0.0, (1, 2), a, "bounded", 0.0), [1.0, 1.0]
    ),
    "AdmissibilityEstimate constants": (
        lambda a: AdmissibilityEstimate(2.0, (1.0,), (1, 2), a), [[1.0, 1.0]]
    ),
    "_neville_limit table": (
        lambda a: _neville_limit(np.array([1.0, 0.5, 0.25, 0.125]), a), [1.0, 0.0, 1.0, 0.0]
    ),
}


def _with_last_entry(value, last):
    # ``value`` with its last scalar replaced by ``last``; a scalar is replaced whole.
    if not isinstance(value, list):
        return last
    return value[:-1] + [_with_last_entry(value[-1], last)]


def _fingerprint(result):
    # Everything a result holds, arrays by dtype, shape and bytes.
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return tuple(_fingerprint(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (list, tuple)):
        return tuple(_fingerprint(v) for v in result)
    if isinstance(result, (int, float, np.number)):  # the value, whatever its scalar type
        return float(result)
    return repr(result)


@pytest.mark.parametrize(
    "bad", [1j, np.complex128(2j), "0.5", b"0.5", None],
    ids=["complex", "numpy-complex128", "str", "bytes", "None"],
)
@pytest.mark.parametrize("entry", list(_DOOR_ENTRIES))
def test_every_entry_refuses_non_real_data(entry, bad):
    # Every array and input level enters through one door.  A complex number
    # was cut to its real part with only a ComplexWarning (input levels,
    # SpectralSystem) or kept (MatrixSystem, QuadraticForm, states), a numeric
    # string was parsed, as the config door does not allow, and None read as nan.
    # Scalar parameters and trend records went through float(), which parsed
    # text, cut a numpy complex to its real part and, in arrays, read None as nan.
    call, valid, *marks = _DOOR_ENTRIES[entry]
    refusal = marks[0].get(type(bad), TypeError) if marks else TypeError
    call(valid)
    if refusal is None:  # the parameter's default
        call(_with_last_entry(valid, bad))
        return
    with pytest.raises(refusal):
        call(_with_last_entry(valid, bad))


@pytest.mark.parametrize("entry", list(_DOOR_ENTRIES))
def test_real_data_of_any_real_type_reads_as_float64(entry):
    # int, bool and float32 arrays of the same values give the bytes of the
    # float64 run, wherever they enter; a bool variant where every value is 0 or 1.
    call, valid, *_ = _DOOR_ENTRIES[entry]
    expected = _fingerprint(call(np.array(valid)))
    dtypes = [np.int64, np.float32] + ([bool] if set(np.ravel(valid)) <= {0.0, 1.0} else [])
    for dtype in dtypes:
        assert _fingerprint(call(np.array(valid).astype(dtype))) == expected, dtype
        assert _fingerprint(call(np.array(valid).astype(dtype).tolist())) == expected, dtype


def test_real_levels_of_any_real_type_pass_the_door():
    # Python and numpy scalars read as float64 levels; arrays of each real
    # type are checked at every entry above.
    for level in (2, np.float32(0.5), np.int64(-3), True):
        assert InputSignal.constant(level).values.tolist() == [float(level)]
    # A 0-d real array is a scalar level, with the bytes of its float.
    grid = [0.0, 0.5, 1.0]
    zero_d = simulate_mild(_DOOR_SYSTEM, _DOOR_STATE, np.array(0.5), grid)
    level = simulate_mild(_DOOR_SYSTEM, _DOOR_STATE, 0.5, grid)
    assert zero_d.states.tobytes() == level.states.tobytes()
    assert zero_d.input.values.tobytes() == level.input.values.tobytes()
    # None and sequences are no scalar level; bools still are.
    for other in (None, [0.5], np.array([0.5]), np.array(None)):
        with pytest.raises(TypeError):
            simulate_mild(_DOOR_SYSTEM, _DOOR_STATE, other, grid)
    assert simulate_mild(_DOOR_SYSTEM, _DOOR_STATE, True, grid).input.values.tolist() == [1.0]


def test_the_door_hands_float64_back_without_a_copy():
    # A float64 array passes the door as itself, so ``values(..., overwrite=True)``
    # squares the caller's stack in place; as_state is a view of a float64 state.
    states = np.random.default_rng(3).normal(size=(4, 8))
    assert _real_array(states, "states") is states
    assert np.shares_memory(as_state(_DOOR_SYSTEM, states[0]), states)
    squares = states * states
    _DOOR_FORM.values(states, overwrite=True)
    assert np.array_equal(states, squares * 0.5)


def test_simulate_exponentiates_once_per_step_size_across_its_runs(monkeypatch):
    # The six runs of simulate share the system's propagator memo: each
    # distinct step size of any run costs one augmented expm, on the dense
    # n = 64 family of the benchmark, whatever the run and the level.
    import scipy.linalg

    sys = MatrixSystem(*dense_nonnormal(7, 64))
    calls = []
    original = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or original(a))
    runs = gain_ensemble(sys, 7)
    steps = {h for run in runs for h in np.diff(run.input.pieces(run.times)[0]).tolist()}
    assert len(steps) > 1
    assert calls == [(65, 65)] * len(steps)
