import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_nonnormal, quadrature_form_value, quadrature_matrix_form_value
from lyapcert.lyapunov import (
    GainEnvelope,
    IndefiniteFormError,
    QuadraticForm,
    build_half_norm,
    build_v_half,
    build_w_plain,
    build_w_q,
    contraction_similarity,
)
from lyapcert.systems import DimensionMismatchError, MatrixSystem, SpectralSystem


def _random_system(seed, n=6, hi=50.0):
    rng = np.random.default_rng(seed)
    return SpectralSystem(np.sort(rng.uniform(0.1, hi, n)), rng.normal(size=n)), rng


def test_v_half_weights_are_one_half():
    sys, _ = _random_system(0)
    form = build_v_half(sys)
    assert np.array_equal(form.weights, np.full(6, 0.5))
    assert form.generator_power == 0.5


def test_v_half_value():
    sys = SpectralSystem([1.0, 2.0], [1.0, 1.0])
    form = build_v_half(sys)
    assert form.value([3.0, 4.0]) == pytest.approx(12.5, rel=1e-15)
    assert form.value([0.0, 0.0]) == 0.0


def test_v_half_matches_quadrature_oracle():
    for seed in range(10):
        sys, rng = _random_system(seed)
        x = rng.normal(size=6)
        form = build_v_half(sys)
        oracle = quadrature_form_value(sys.eigenvalues, sys.input_coeffs, x, 0.5)
        assert form.value(x) == pytest.approx(oracle, rel=1e-8)


def test_v_half_matrix_against_quadrature():
    a = np.array([[-1.0, 10.0], [0.0, -1.0]])
    sys = MatrixSystem(a, np.ones((2, 1)))
    form = build_v_half(sys)
    rng = np.random.default_rng(42)
    for _ in range(3):
        x = rng.normal(size=2)
        oracle = quadrature_matrix_form_value(a, x)
        assert form.value(x) == pytest.approx(oracle, rel=1e-8)


def _dense_seed7():
    """The dense n = 64 benchmark system of seed 7: non-normal, spectral gap 0.5."""
    return MatrixSystem(*dense_nonnormal(7, 64))


def _perturb_first_solve(monkeypatch, perturb):
    # The first Lyapunov solve on a fresh system is V_half's own; later
    # solves (a refinement, say) are left exact.
    import scipy.linalg

    solve, calls = scipy.linalg.solve_continuous_lyapunov, []

    def perturbed(a, rhs):
        calls.append(rhs.shape)
        p = solve(a, rhs)
        return perturb(p) if len(calls) == 1 else p

    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", perturbed)


PROBE = np.ones(64) / 8.0  # the unit state at which the check's tolerance is set


@pytest.mark.parametrize("perturb", [
    lambda p: p * (1.0 + 1e-5),
    lambda p: p + 1e-5 * np.linalg.norm(p, 2) * np.outer(PROBE, PROBE),
], ids=["scaled", "rank-one"])
def test_v_half_refuses_a_perturbed_solve(monkeypatch, perturb):
    # At 1e-5 the disagreement at the probe is about 6e-6, against a
    # tolerance of 1e-6.
    _perturb_first_solve(monkeypatch, perturb)
    with pytest.raises(RuntimeError):
        build_v_half(_dense_seed7())


def test_v_half_refuses_an_error_away_from_the_probe(monkeypatch):
    # A rank-one error orthogonal to the probe leaves V(probe) exact; the
    # refinement bound ||E||_2 covers every unit state.
    v = np.zeros(64)
    v[:2] = [1.0, -1.0]
    v /= np.linalg.norm(v)
    _perturb_first_solve(monkeypatch, lambda p: p + 1e-5 * np.linalg.norm(p, 2) * np.outer(v, v))
    with pytest.raises(RuntimeError):
        build_v_half(_dense_seed7())


def test_v_half_accepts_exact_solves_of_stiff_systems():
    rng = np.random.default_rng(6)
    lam = 2.0 ** np.linspace(0.0, 40.0, 12)
    rates = np.geomspace(1.0, 1e6, 8)
    skewed = np.diag(-rates) + np.triu(rng.normal(size=(8, 8)) * rates[None, :], 1)
    for sys in (MatrixSystem(np.diag(-lam), np.ones(12)), MatrixSystem(skewed, np.ones(8))):
        form = build_v_half(sys)
        assert form.a1 > 0.0


def test_dense_square_function_operator_is_solved_once_per_exponent(monkeypatch):
    import scipy.linalg

    sys = _dense_seed7()
    solve, rhs_seen = scipy.linalg.solve_continuous_lyapunov, []

    def counted(a, rhs):
        rhs_seen.append(rhs.copy())
        return solve(a, rhs)

    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", counted)
    w0 = build_w_plain(sys)
    form, _ = contraction_similarity(sys)
    assert build_w_q(sys, 0.0).provenance == form.provenance
    assert len(rhs_seen) == 1 and np.array_equal(rhs_seen[0], -np.eye(64))
    assert np.array_equal(w0.p_matrix, form.p_matrix)
    assert not sys.square_function_form(0.0, "")["p_matrix"].flags.writeable


def test_w_q_at_half_equals_v_half():
    sys, _ = _random_system(1)
    assert np.array_equal(build_w_q(sys, 0.5).weights, build_v_half(sys).weights)


def test_w_zero_values():
    sys = SpectralSystem([1.0, 4.0, 9.0], [1.0, 1.0, 1.0])
    form = build_w_q(sys, 0.0)
    assert form.value([1.0, 0.0, 0.0]) == pytest.approx(0.5, rel=1e-15)
    assert form.value([0.0, 1.0, 0.0]) == pytest.approx(0.125, rel=1e-15)


def test_w_quarter_value_and_oracle():
    sys = SpectralSystem([1.0, 2.0], [1.0, 1.0])
    form = build_w_q(sys, 0.25)
    expected = 0.5 + 2.0 ** (-0.5) / 2.0
    assert form.value([1.0, 1.0]) == pytest.approx(expected, rel=1e-14)
    oracle = quadrature_form_value([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], 0.25)
    assert form.value([1.0, 1.0]) == pytest.approx(oracle, rel=1e-9)


def test_w_q_range_validation():
    sys, _ = _random_system(2)
    with pytest.raises(ValueError):
        build_w_q(sys, 0.75)
    with pytest.raises(ValueError):
        build_w_q(sys, -0.1)


def test_w_plain_is_w_zero():
    sys, _ = _random_system(3)
    assert np.array_equal(build_w_plain(sys).weights, build_w_q(sys, 0.0).weights)


def test_inverse_generator_identity():
    sys, _ = _random_system(4)
    assert np.allclose(build_w_q(sys, 0.0).weights, 0.5 / sys.eigenvalues, rtol=1e-15)


def test_half_norm_matches_v_half():
    sys, _ = _random_system(5, n=10, hi=1000.0)
    assert np.abs(build_half_norm(sys).weights - build_v_half(sys).weights).max() <= 1e-12
    assert build_half_norm(sys).value([1.0] * 10) == pytest.approx(5.0)


def test_dense_half_norm_is_weight_one_half_per_coordinate():
    # The half squared norm does not depend on the generator, dense or diagonal.
    form = build_half_norm(_dense_seed7())
    assert form.p_matrix is None and np.array_equal(form.weights, np.full(64, 0.5))
    assert form.to_config()["kind"] == "diagonal"
    assert (form.a1, form.a2, form.generator_power) == (0.5, 0.5, None)


@pytest.mark.parametrize("kind", ["diagonal real", "dense"])
def test_values_overwrite_keeps_the_bits(kind):
    # Squaring in place changes where the squares live, not their bits.
    # Without ``overwrite`` the states are left as they were.
    rng = np.random.default_rng(11)
    if kind == "dense":
        form = build_v_half(MatrixSystem(*dense_nonnormal(7, 8)))
    else:
        form = build_w_plain(_random_system(4, n=8)[0])
    states = rng.normal(size=(9, 8))
    original = states.copy()
    expected = form.values(states)
    assert states.tobytes() == original.tobytes()
    assert form.values(states, overwrite=True).tobytes() == expected.tobytes()
    if kind == "diagonal real":
        assert not np.array_equal(states, original)
    else:
        assert states.tobytes() == original.tobytes()


def test_w_plain_checks_its_form_once(monkeypatch):
    # W_0 is built with its own provenance, not rebuilt to rename it: one
    # __post_init__, the symmetry check and eigvalsh of a dense P, per form.
    post_init, checked = QuadraticForm.__post_init__, []

    def counted(form):
        checked.append(form.provenance)
        post_init(form)

    monkeypatch.setattr(QuadraticForm, "__post_init__", counted)
    dense, diagonal = build_w_plain(_dense_seed7()), build_w_plain(_random_system(3)[0])
    assert checked == [dense.provenance, diagonal.provenance]
    assert dense.provenance == "orbit energy integral (exponent zero) (Lyapunov solve)"
    assert diagonal.provenance == "orbit energy integral (exponent zero)"


def test_coercivity_bounds_constant_weights():
    form = QuadraticForm(weights=np.full(4, 0.5))
    assert (form.a1, form.a2) == (0.5, 0.5)


def test_coercivity_bounds_w_zero_quartic():
    sys = SpectralSystem([1.0, 4.0, 9.0, 16.0], [1.0] * 4, label="n-squared")
    form = build_w_q(sys, 0.0)
    assert (form.a1, form.a2) == pytest.approx((1.0 / 32.0, 0.5), rel=1e-15)


def test_coercivity_bounds_dense():
    form = QuadraticForm(p_matrix=np.diag([1.0, 3.0]))
    assert (form.a1, form.a2) == pytest.approx((1.0, 3.0))


def test_coercivity_bounds_sandwich_rayleigh():
    # Randomized Rayleigh quotients stay inside [a1, a2] on 10^3 samples.
    sys, rng = _random_system(13, n=8, hi=200.0)
    for form in (build_w_q(sys, 0.0), build_w_q(sys, 0.25)):
        a1, a2 = form.a1, form.a2
        for _ in range(1000):
            x = rng.normal(size=8)
            quotient = form.value(x) / float(x @ x)
            assert a1 * (1 - 1e-12) <= quotient <= a2 * (1 + 1e-12)


def test_coercivity_trend_exact_scaling():
    # a1(N) = (N^2)^(2q-1)/2, so doubling N multiplies a1 by 2^(2(2q-1)).
    for q in (0.0, 0.25, 0.5):
        expected_ratio = 2.0 ** (2.0 * (2.0 * q - 1.0))
        lower = []
        for n in (8, 16, 32, 64):
            modes = np.arange(1.0, n + 1.0)
            sys = SpectralSystem(modes**2, np.ones(n))
            lower.append(build_w_q(sys, q).a1)
        for a, b in zip(lower, lower[1:]):
            assert b / a == pytest.approx(expected_ratio, rel=1e-14)


def test_indefinite_rejected():
    with pytest.raises(IndefiniteFormError):
        QuadraticForm(p_matrix=np.diag([1.0, -1.0]))
    with pytest.raises(IndefiniteFormError):
        QuadraticForm(weights=np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "p_matrix",
    [[[np.nan]], [[np.inf]], [[2.0, np.nan], [np.nan, 2.0]]],
    ids=["nan", "inf", "off-diagonal-nan"],
)
def test_a_p_matrix_that_is_not_finite_is_refused(p_matrix):
    # It was accepted, with a1 = a2 = nan or inf; the weights' message refuses it.
    with pytest.raises(ValueError, match="p_matrix must be a non-empty finite sequence"):
        QuadraticForm(p_matrix=p_matrix)
    with pytest.raises(ValueError, match="weights must be a non-empty finite sequence"):
        QuadraticForm(weights=np.ravel(p_matrix))


@settings(max_examples=40, deadline=None)
@given(power=st.integers(-8, 8), seed=st.integers(0, 2**31 - 1))
def test_homogeneity_exact_for_binary_scales(power, seed):
    # Scaling by powers of two is exact in floating point, so the quadratic
    # homogeneity V(cx) = c^2 V(x) holds bitwise.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    sys = SpectralSystem(np.sort(rng.uniform(0.1, 50.0, n)), rng.normal(size=n))
    form = build_w_q(sys, float(rng.choice([0.0, 0.25, 0.5])))
    x = rng.normal(size=n)
    c = 2.0**power
    assert form.value(c * x) == c * c * form.value(x)


def test_homogeneity_general_scale():
    sys, rng = _random_system(9)
    form = build_v_half(sys)
    x = rng.normal(size=6)
    c = 3.7
    assert form.value(c * x) == pytest.approx(c * c * form.value(x), rel=1e-13)


def test_contraction_similarity_diagonal_example():
    sys = MatrixSystem(np.diag([-1.0, -2.0]), np.ones((2, 1)))
    form, report = contraction_similarity(sys)
    assert np.allclose(form.p_matrix, np.diag([0.5, 0.25]), atol=1e-12)
    assert report.satisfied
    assert report.dissipativity_margin == pytest.approx(-0.5, rel=1e-9)


def test_contraction_similarity_restores_dissipativity():
    a = np.array([[-1.0, 10.0], [0.0, -1.0]])
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    # In the plain scalar product the generator is not dissipative here.
    assert float(x @ a @ x) == pytest.approx(4.0, rel=1e-12)
    sys = MatrixSystem(a, np.ones((2, 1)))
    form, report = contraction_similarity(sys)
    assert report.satisfied
    assert float(np.real(np.vdot(form.p_apply(x), a @ x))) <= 1e-10


def test_contraction_similarity_self_adjoint_condition():
    sys = SpectralSystem([1.0, 2.0, 8.0], [1.0, 1.0, 1.0])
    form, report = contraction_similarity(sys)
    p = np.column_stack([form.p_apply(e) for e in np.eye(3)])
    a = np.diag(-sys.eigenvalues)
    assert np.allclose(p @ a, a @ p, atol=1e-12)
    assert report.condition_number == pytest.approx(8.0, rel=1e-12)


def test_diagonal_contraction_similarity_is_linear_in_memory():
    # The W_0 weights P = 1/(2 lam) need no N x N array; np.diag at
    # N = 2048 would take 32 MB.
    import tracemalloc

    sys = SpectralSystem(np.arange(1.0, 2049.0) ** 2, np.ones(2048))
    tracemalloc.start()
    try:
        form, report = contraction_similarity(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.array_equal(form.weights, 1.0 / (2.0 * sys.eigenvalues))
    assert report.condition_number == 2048.0**2
    assert report.dissipativity_margin == pytest.approx(-0.5, rel=1e-15)
    assert report.satisfied


def test_values_rows_equal_single_values():
    rng = np.random.default_rng(4)
    sys, _ = _random_system(4)
    stack = rng.normal(size=(5, 6))
    for form in (build_w_q(sys, 0.25), QuadraticForm(p_matrix=np.diag(np.arange(1.0, 7.0)))):
        assert form.values(stack).tolist() == [form.value(x) for x in stack]
        with pytest.raises(ValueError):
            form.values(np.ones((2, 5)))


def test_a_state_of_the_wrong_length_is_a_dimension_mismatch():
    # The same error as as_state, fit_dissipation and exact_certificate raise.
    sys, _ = _random_system(4)
    for form in (build_w_q(sys, 0.25), QuadraticForm(p_matrix=np.diag(np.arange(1.0, 7.0)))):
        with pytest.raises(DimensionMismatchError, match="state length does not match"):
            form.values(np.ones((2, 5)))
        with pytest.raises(DimensionMismatchError):
            form.value(np.ones(7))


@pytest.mark.parametrize("rows", [1, 7, 120])
def test_dense_values_equal_the_per_row_vdot(rows):
    # Oracle independent of ``value`` (which calls ``values``): the per-row
    # <x, P x> through np.vdot, compared with ==.
    rng = np.random.default_rng(rows)
    for n in (1, 5, 40):
        m = rng.normal(size=(n, n))
        stack = rng.normal(size=(rows, n))
        form = QuadraticForm(p_matrix=m @ m.T + np.eye(n))
        oracle = [np.vdot(x, form.p_matrix @ x) for x in stack]
        assert form.values(stack).tolist() == oracle
        assert form.values(stack[0]).tolist() == oracle[:1]


def test_contraction_decay_rate_certificate():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(4, 4))
    shift = np.abs(np.linalg.eigvals(raw).real).max() + 0.5
    sys = MatrixSystem(raw - shift * np.eye(4), np.ones((4, 1)))
    form, report = contraction_similarity(sys)
    lam_max = np.linalg.eigvalsh(form.p_matrix)[-1]
    assert report.decay_rate == pytest.approx(1.0 / (2.0 * lam_max), rel=1e-12)


def test_gain_envelope_validation():
    with pytest.raises(ValueError):
        GainEnvelope(overshoot=0.5, rate=1.0, gain=0.0)
    with pytest.raises(ValueError):
        GainEnvelope(overshoot=1.0, rate=0.0, gain=0.0)
    with pytest.raises(ValueError):
        GainEnvelope(overshoot=1.0, rate=1.0, gain=-1.0)


def test_form_serialization():
    sys, _ = _random_system(12)
    doc = build_v_half(sys).to_config()
    assert doc["kind"] == "diagonal"
    assert doc["weights"] == [0.5] * 6
    assert "provenance" in doc
    dense = QuadraticForm(p_matrix=np.diag([1.0, 2.0])).to_config()
    assert dense["kind"] == "dense"
    assert dense["p"] == [[1.0, 0.0], [0.0, 2.0]]


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_values_of_ints_and_float32_equal_the_float64_values(kind):
    # The states are converted to float64 once, before any product: an int
    # list and float32 states give the bits of their float64 copies (float32
    # squares once rounded to single precision on a diagonal form).
    rng = np.random.default_rng(5)
    if kind == "dense":
        form = build_v_half(MatrixSystem(*dense_nonnormal(7, 8)))
    else:
        form = build_w_plain(_random_system(4, n=8)[0])
    ints = rng.integers(-9, 10, size=(3, 8))
    singles = rng.normal(size=(3, 8)).astype(np.float32)
    assert form.values(ints.tolist()).tobytes() == form.values(ints.astype(float)).tobytes()
    assert form.value(ints[0].tolist()) == form.value(ints[0].astype(float))
    assert form.values(singles).tobytes() == form.values(singles.astype(float)).tobytes()
    assert form.values(singles, overwrite=True).tobytes() == form.values(singles.astype(float)).tobytes()
