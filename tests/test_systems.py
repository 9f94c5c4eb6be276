import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_nonnormal
from lyapcert.admissibility import admissibility_constant
from lyapcert.models import build_model, counterexample_system
from lyapcert.systems import (
    ConditioningError,
    DecayBound,
    DimensionMismatchError,
    MatrixSystem,
    SpectralSystem,
    decay_bound_estimate,
    extrapolation_norm,
    fractional_power_apply,
    matrix_neg_power,
    semigroup_apply,
    system_from_config,
)


@pytest.fixture
def two_mode():
    return SpectralSystem([1.0, 2.0], [1.0, 1.0])


def test_constructor_validation():
    with pytest.raises(ValueError):
        SpectralSystem([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SpectralSystem([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        SpectralSystem([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        MatrixSystem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones((2, 1)))


@pytest.mark.parametrize(
    "a, b",
    [
        (np.diag([-1.0, -2.0]), [1.0, complex(1.0, np.nan)]),
        (np.array([[-1.0, complex(0.0, np.inf)], [0.0, -2.0]]), [1.0, 1.0]),
    ],
    ids=["nan-imaginary-b", "inf-imaginary-a"],
)
def test_matrix_system_refuses_non_finite_imaginary_parts(a, b):
    # Complex data is refused where it enters, whatever its imaginary part.
    with pytest.raises(TypeError, match="must be real numbers, not complex128"):
        MatrixSystem(a, b)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"input_coeffs": [1.0]}, "spectral config needs 'eigenvalues' or 'eigenvalue_rule'"),
        ({"eigenvalue_rule": "n", "input_coeffs": [1.0]}, "eigenvalue_rule requires 'modes'"),
        ({"eigenvalues": [1.0]}, "spectral config needs 'input_coeffs' or 'coeff_rule'"),
        ({"eigenvalues": [1.0], "coeff_rule": "n"}, "coeff_rule requires 'modes'"),
    ],
)
def test_spectral_config_names_the_missing_list_or_rule(doc, message):
    with pytest.raises(ValueError) as info:
        system_from_config(dict(doc, type="spectral"))
    assert str(info.value) == message


def test_semigroup_identity_at_zero(two_mode):
    x = np.array([3.0, -4.0])
    assert np.array_equal(semigroup_apply(two_mode, 0.0, x), x)


def test_semigroup_scalar_exponentials(two_mode):
    # lam = (1, 2), t = ln 2: per-mode factors are exactly 1/2 and 1/4.
    out = semigroup_apply(two_mode, math.log(2.0), np.array([1.0, 1.0]))
    assert out == pytest.approx([0.5, 0.25], rel=1e-15)


def test_negative_time_rejected(two_mode):
    with pytest.raises(ValueError):
        semigroup_apply(two_mode, -0.1, [1.0, 1.0])


def test_dimension_mismatch(two_mode):
    with pytest.raises(DimensionMismatchError):
        semigroup_apply(two_mode, 1.0, [1.0, 2.0, 3.0])


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.0, 3.0),
    t=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_semigroup_law(s, t, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    sys = SpectralSystem(np.sort(rng.uniform(0.05, 40.0, n)), rng.normal(size=n))
    x = rng.normal(size=n)
    once = semigroup_apply(sys, s, semigroup_apply(sys, t, x))
    joint = semigroup_apply(sys, s + t, x)
    assert np.allclose(once, joint, rtol=1e-12, atol=1e-300)


def test_matrix_semigroup_law():
    sys = MatrixSystem(np.array([[-1.0, 10.0], [0.0, -2.0]]), np.ones((2, 1)))
    x = np.array([1.0, -1.0])
    once = semigroup_apply(sys, 0.4, semigroup_apply(sys, 1.1, x))
    joint = semigroup_apply(sys, 1.5, x)
    assert np.allclose(once, joint, rtol=1e-9)


def test_exponential_stability_per_mode():
    sys = SpectralSystem([0.5, 3.0, 7.0], [1.0, -1.0, 2.0])
    x = np.array([1.0, 1.0, 1.0])
    for t in (0.1, 1.0, 4.0):
        assert np.linalg.norm(semigroup_apply(sys, t, x)) <= math.exp(-0.5 * t) * np.linalg.norm(x)


def test_fractional_power_zero_is_identity(two_mode):
    x = np.array([2.0, -3.0])
    assert np.array_equal(fractional_power_apply(two_mode, 0.0, x), x)


def test_fractional_power_half():
    sys = SpectralSystem([4.0, 9.0], [1.0, 1.0])
    out = fractional_power_apply(sys, 0.5, np.array([1.0, 1.0]))
    assert out == pytest.approx([2.0, 3.0], rel=1e-15)


def test_fractional_power_inverse():
    sys = SpectralSystem([2.0], [1.0])
    assert fractional_power_apply(sys, -1.0, np.array([1.0])) == pytest.approx([0.5])


def test_fractional_power_composition():
    rng = np.random.default_rng(5)
    sys = SpectralSystem(np.sort(rng.uniform(0.1, 30.0, 6)), rng.normal(size=6))
    x = rng.normal(size=6)
    a, b = 0.3, -0.8
    left = fractional_power_apply(sys, a, fractional_power_apply(sys, b, x))
    right = fractional_power_apply(sys, a + b, x)
    assert np.allclose(left, right, rtol=1e-10)


def test_fractional_commutes_with_semigroup():
    rng = np.random.default_rng(6)
    sys = SpectralSystem(np.sort(rng.uniform(0.1, 30.0, 6)), rng.normal(size=6))
    x = rng.normal(size=6)
    left = fractional_power_apply(sys, 0.5, semigroup_apply(sys, 0.7, x))
    right = semigroup_apply(sys, 0.7, fractional_power_apply(sys, 0.5, x))
    assert np.allclose(left, right, rtol=1e-12)


def test_matrix_half_power_defective():
    # Jordan-block spectrum: the eigendecomposition route is unusable, the
    # Schur square root stays exact: sqrt([[1,-10],[0,1]]) = [[1,-5],[0,1]].
    sys = MatrixSystem(np.array([[-1.0, 10.0], [0.0, -1.0]]), np.ones((2, 1)))
    root = fractional_power_apply(sys, 0.5, np.array([1.0, 0.0]))
    assert root == pytest.approx([1.0, 0.0], abs=1e-12)
    root2 = fractional_power_apply(sys, 0.5, np.array([0.0, 1.0]))
    assert root2 == pytest.approx([-5.0, 1.0], abs=1e-12)


def test_matrix_quarter_power_defective():
    # Two nested Schur square roots: ([[1,-10],[0,1]])^(1/4) = [[1,-2.5],[0,1]].
    sys = MatrixSystem(np.array([[-1.0, 10.0], [0.0, -1.0]]), np.ones((2, 1)))
    assert np.allclose(sys.neg_power(0.25), [[1.0, -2.5], [0.0, 1.0]], rtol=0.0, atol=1e-12)


def test_matrix_quarter_power_fourth_power_is_the_generator():
    sys = _nonnormal_dense()
    fourth = np.linalg.matrix_power(sys.neg_power(0.25), 4)
    neg_a = -sys.a_matrix
    assert np.linalg.norm(fourth - neg_a) <= 1e-12 * np.linalg.norm(neg_a)


def test_matrix_quarter_power_is_byte_stable():
    sys = _nonnormal_dense()
    first = matrix_neg_power(sys, 0.25).tobytes()
    assert all(matrix_neg_power(sys, 0.25).tobytes() == first for _ in range(19))


def test_matrix_generic_power_well_conditioned():
    a = np.array([[-2.0, 1.0], [1.0, -3.0]])
    sys = MatrixSystem(a, np.ones((2, 1)))
    x = np.array([1.0, 2.0])
    once = fractional_power_apply(sys, 0.3, fractional_power_apply(sys, 0.7, x))
    direct = fractional_power_apply(sys, 1.0, x)
    assert np.allclose(once, direct, rtol=1e-10)
    assert np.allclose(direct, -a @ x, rtol=1e-12)


@pytest.mark.parametrize("p", [0.3, -0.3, 0.7])
def test_matrix_generic_power_of_a_jordan_block_is_its_closed_form(p):
    # -A = I + N with N = [[0, -10], [0, 0]] nilpotent, so (-A)^p = I + p N
    # exactly; an eigenvector basis of this defective block does not exist.
    sys = MatrixSystem(np.array([[-1.0, 10.0], [0.0, -1.0]]), np.ones((2, 1)))
    closed = np.array([[1.0, -10.0 * p], [0.0, 1.0]])
    assert np.allclose(matrix_neg_power(sys, p), closed, rtol=0.0, atol=1e-14)
    x = np.array([1.0, 1.0])
    assert np.allclose(fractional_power_apply(sys, p, x), closed @ x, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("imag", [1e-6, 1e-14], ids=["not-real", "real-within-rounding"])
def test_the_schur_pade_path_refuses_a_power_that_is_not_real(monkeypatch, imag):
    # A real generator has a real power: an imaginary part above 1e-12 of the
    # largest real entry is refused, as the dyadic path refuses a complex square
    # root, and one below it is dropped.
    import scipy.linalg

    power = scipy.linalg.fractional_matrix_power
    monkeypatch.setattr(scipy.linalg, "fractional_matrix_power",
                        lambda m, p: power(m, p) + 1j * imag * np.eye(len(m)))
    sys = MatrixSystem(np.array([[-2.0, 1.0], [1.0, -3.0]]), np.ones(2))
    if imag > 1e-12:
        with pytest.raises(ConditioningError, match="^matrix power 0.3 is not real$"):
            matrix_neg_power(sys, 0.3)
    else:
        assert np.array_equal(matrix_neg_power(sys, 0.3), power(-sys.a_matrix, 0.3).real)


@pytest.mark.parametrize("seed", range(12))
def test_matrix_generic_powers_compose_and_commute_on_nonnormal_generators(seed):
    # A skewed non-normal Hurwitz A (as in the selftest's log-norm check) at
    # a power p that is not a multiple of 1/4: (-A)^p (-A)^(1-p) = -A, and
    # (-A)^p commutes with A.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    raw = rng.normal(size=(n, n)) + 3.0 * np.triu(rng.normal(size=(n, n)), 1)
    a = raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(n)
    sys = MatrixSystem(a, np.ones(n))
    p = float(rng.uniform(0.01, 0.99))
    if abs(4 * p - round(4 * p)) < 1e-6:
        p += 0.01
    power, rest = matrix_neg_power(sys, p), matrix_neg_power(sys, 1.0 - p)
    scale = np.linalg.norm(a)
    assert np.linalg.norm(power @ rest + a) <= 1e-12 * scale
    assert np.linalg.norm(power @ a - a @ power) <= 1e-12 * np.linalg.norm(power) * scale


def test_extrapolation_norm_gamma_zero(two_mode):
    v = np.array([3.0, 4.0])
    assert extrapolation_norm(two_mode, 0.0, v) == pytest.approx(5.0, rel=1e-15)


def test_extrapolation_norm_half_power():
    sys = SpectralSystem([1.0, 4.0], [1.0, 1.0])
    assert extrapolation_norm(sys, 0.5, np.array([0.0, 2.0])) == pytest.approx(1.0, rel=1e-14)


def test_extrapolation_norm_counterexample_column():
    # (-A)^(-1/2) b = (1, ..., 1), so the norm is exactly sqrt(N).
    sys = counterexample_system(16)
    value = extrapolation_norm(sys, 0.5, sys.input_coeffs)
    assert value == pytest.approx(4.0, rel=1e-13)


def test_extrapolation_monotone_in_gamma_for_gap_above_one():
    rng = np.random.default_rng(2)
    sys = SpectralSystem(np.sort(rng.uniform(1.0, 50.0, 8)), rng.normal(size=8))
    v = rng.normal(size=8)
    values = [extrapolation_norm(sys, g, v) for g in (0.0, 0.25, 0.5, 1.0)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_decay_bound_r_zero():
    sys = SpectralSystem([1.0, 5.0], [1.0, 1.0])
    (bound,) = decay_bound_estimate(sys, [0.0])
    assert bound.prefactor == pytest.approx(1.0, rel=1e-12)
    assert bound.rate == pytest.approx(0.5)


def test_decay_bound_half_power_scalar():
    # Oracle: max of t^(1/2) e^(-t/2) over t > 0 sits at t = 1 with value
    # e^(-1/2); a fine-grid search confirms the calculus maximum.
    grid = np.linspace(1e-6, 20.0, 2_000_001)
    oracle = float(np.max(np.sqrt(grid) * np.exp(-grid / 2.0)))
    assert oracle == pytest.approx(math.exp(-0.5), rel=1e-9)
    sys = SpectralSystem([1.0], [1.0])
    (bound,) = decay_bound_estimate(sys, [0.5])
    assert bound.prefactor == pytest.approx(math.exp(-0.5), rel=1e-4)
    assert bound.power == 0.5


def test_decay_bound_validates_on_grid():
    rng = np.random.default_rng(3)
    sys = SpectralSystem(np.sort(rng.uniform(0.3, 20.0, 5)), rng.normal(size=5))
    for r, bound in zip((0.0, 0.25, 0.5), decay_bound_estimate(sys, (0.0, 0.25, 0.5))):
        for t in np.geomspace(1e-3, 10.0, 50):
            norm = float(np.max(sys.eigenvalues**r * np.exp(-sys.eigenvalues * t)))
            assert norm <= bound.evaluate(t) * (1 + 1e-9)


def test_square_function_tail_integrable_only_below_half():
    # Oracle: trapezoid integration of ||(-A)^r T(t)||^2; for r = 1/2 - eps
    # the truncation integrals saturate in N, at r = 1/2 they keep growing.
    grid = np.geomspace(1e-7, 40.0, 6000)

    def integral(r, n):
        lam = (np.arange(1, n + 1) * math.pi) ** 2
        norms = np.max(lam[:, None] ** r * np.exp(-lam[:, None] * grid[None, :]), axis=0)
        return float(np.trapezoid(norms**2, grid))

    saturating = [integral(0.4, n) for n in (8, 16, 32, 64)]
    growing = [integral(0.5, n) for n in (8, 16, 32, 64)]
    # Increments shrink like N^(2(2r-1)): factor 2^(-0.8) ~ 0.57 per doubling
    # at r = 0.4, flat (log divergence) at r = 1/2.
    assert saturating[-1] - saturating[-2] < 0.7 * (saturating[1] - saturating[0])
    assert growing[-1] - growing[-2] > 0.85 * (growing[1] - growing[0])


def test_matrix_input_column_shapes_and_round_trip():
    a = np.array([[-1.0, 3.0], [0.0, -2.0]])
    flat = MatrixSystem(a, np.array([1.0, -2.0]), label="demo")
    column = MatrixSystem(a, np.array([[1.0], [-2.0]]))
    assert flat.input_coeffs.shape == (2,)
    assert not flat.input_coeffs.flags.writeable
    assert np.array_equal(flat.input_coeffs, column.input_coeffs)
    doc = {"type": "matrix", "a": a.tolist(), "b": [[1.0], [-2.0]], "label": "demo"}
    clone = system_from_config(doc)
    assert np.array_equal(clone.a_matrix, a)
    assert np.array_equal(clone.input_coeffs, flat.input_coeffs)
    assert clone.label == "demo"
    with pytest.raises(DimensionMismatchError):
        MatrixSystem(a, np.ones(3))


def test_config_rules():
    doc = {
        "type": "spectral",
        "eigenvalue_rule": "(n*pi)^2",
        "coeff_rule": "sqrt(2)*n*pi*(-1)^(n+1)",
    }
    sys = system_from_config(doc, modes=3)
    assert sys.eigenvalues == pytest.approx([(n * math.pi) ** 2 for n in (1, 2, 3)])


def test_config_matrix():
    doc = {"type": "matrix", "a": [[-1.0, 0.0], [0.0, -2.0]], "b": [[1.0], [0.5]]}
    sys = system_from_config(doc)
    assert isinstance(sys, MatrixSystem)
    assert sys.dimension == 2


def test_config_errors():
    with pytest.raises(ValueError):
        system_from_config({"type": "unknown"})
    with pytest.raises(ValueError):
        system_from_config({"type": "spectral", "eigenvalue_rule": "n"})
    with pytest.raises(ValueError, match="^unknown spectral system keys: lable, modes$"):
        system_from_config({"type": "spectral", "eigenvalues": [1.0], "input_coeffs": [1.0],
                            "modes": 1, "lable": "x"})
    with pytest.raises(ValueError, match="^unknown system type \\['spectral'\\]$"):
        system_from_config({"type": ["spectral"]})


def test_decay_bound_delta_at_the_gap_is_refused():
    # At delta = gap, t^r ||(-A)^r T(t)|| e^(delta t) >= (lam_1 t)^r is unbounded.
    sys = SpectralSystem([2.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly inside"):
        decay_bound_estimate(sys, [0.0], delta=sys.spectral_gap)


def test_decay_bound_type_validation():
    with pytest.raises(ValueError):
        DecayBound(prefactor=0.0, rate=1.0, power=0.0)
    with pytest.raises(ValueError):
        DecayBound(prefactor=1.0, rate=-1.0, power=0.0)


@pytest.mark.parametrize("field", ["prefactor", "rate", "power"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decay_bound_refuses_non_finite_fields(field, bad):
    fields = {"prefactor": 1.0, "rate": 1.0, "power": 0.0, field: bad}
    with pytest.raises(ValueError, match="finite"):
        DecayBound(**fields)


@pytest.mark.parametrize("kind", ["spectral", "matrix"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decay_bound_estimate_refuses_non_finite_powers(kind, bad):
    # A NaN ceiling compares False and would silently skip nodes.
    if kind == "spectral":
        sys = SpectralSystem([1.0, 5.0], [1.0, 1.0])
    else:
        sys = MatrixSystem(np.array([[-1.0, 3.0], [0.0, -2.0]]), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        decay_bound_estimate(sys, [0.25, bad])


# ------------------------------------------------- the realization surface

# Tolerance of the existing matrix-realization checks (selftest semigroup-law,
# test_matrix_realization_matches_diagonal).
REALIZATION_RTOL = 1e-9


def _norm_close(dense, diagonal):
    scale = max(float(np.linalg.norm(diagonal)), np.finfo(float).tiny)
    return float(np.linalg.norm(np.asarray(dense) - diagonal)) <= REALIZATION_RTOL * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_surface_agrees_across_realizations(seed, n):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.2, 30.0, n))
    b = rng.normal(size=n)
    diagonal = SpectralSystem(lam, b)
    dense = MatrixSystem(np.diag(-lam), b.reshape(-1, 1))
    assert dense.fastest_rate == pytest.approx(diagonal.fastest_rate, rel=1e-12)
    assert np.array_equal(dense.input_coeffs, diagonal.input_coeffs)
    x = rng.normal(size=n)
    for h in (1e-3, 0.1, 1.0):
        for u in (None, 0.0, -0.7):
            assert _norm_close(dense.step(x, u, h), diagonal.step(x, u, h))
    for alpha in (-0.5, 0.25, 0.5, 1.0):
        assert _norm_close(dense.neg_power_apply(alpha, x), diagonal.neg_power_apply(alpha, x))
    # The dense grid maximum never exceeds the diagonal supremum, and falls
    # short of it by at most the grid resolution: between log-spaced nodes a
    # ratio rho apart, log((lam t)^r e^(-(lam - delta) t)) drops from its peak
    # by at most r (e^h - 1 - h) with h = log(rho)/2.
    powers = (0.0, 0.25, 0.5)
    for delta in (diagonal.spectral_gap / 2.0, 0.1 * diagonal.spectral_gap):
        rho = (60.0 / delta / (1e-4 / diagonal.fastest_rate)) ** (1.0 / 599)
        h = math.log(rho) / 2.0
        exact = diagonal.decay_prefactors(powers, delta)
        for r, swept, top in zip(powers, dense.decay_prefactors(powers, delta), exact):
            assert swept <= top * (1 + 1e-12)
            assert swept >= top * math.exp(-r * math.expm1(h) + r * h) * (1 - 1e-12)
    for q in (1, 2, math.inf):
        assert admissibility_constant(dense, q, 3.0).constant == pytest.approx(
            admissibility_constant(diagonal, q, 3.0).constant, rel=REALIZATION_RTOL
        )


def test_decay_bound_computes_each_dense_power_once(monkeypatch):
    import lyapcert.systems as systems

    calls = []
    original = systems.matrix_neg_power

    def counted(sys, alpha, *args, **kwargs):
        calls.append(alpha)
        return original(sys, alpha, *args, **kwargs)

    monkeypatch.setattr(systems, "matrix_neg_power", counted)
    sys = MatrixSystem(np.array([[-1.0, 3.0], [0.0, -2.0]]), np.ones((2, 1)))
    decay_bound_estimate(sys, (0.0, 0.25, 0.5))
    assert sorted(calls) == [0.0, 0.25, 0.5]
    decay_bound_estimate(sys, [0.25])
    assert len(calls) == 3
    assert not sys.neg_power(0.25).flags.writeable


def _nonnormal_dense(n=5, seed=8, skew=3.0):
    # Hurwitz with gap 0.5 and upper-triangular coupling of scale ``skew``,
    # so the log-norm ranges from -gap to well above zero.
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n)) + skew * np.triu(rng.normal(size=(n, n)), 1)
    shift = np.linalg.eigvals(raw).real.max() + 0.5
    return MatrixSystem(raw - shift * np.eye(n), rng.normal(size=(n, 1)))


def test_dense_decay_bounds_share_one_expm_per_node(monkeypatch):
    import scipy.linalg

    calls = []
    original = scipy.linalg.expm

    def counted(a):
        calls.append(a.tobytes())
        return original(a)

    sys = _nonnormal_dense()
    monkeypatch.setattr(scipy.linalg, "expm", counted)
    decay_bound_estimate(sys, (0.0, 0.25, 0.5))
    # At most one expm per node of the 601-node grid, and the log-norm
    # ceiling skips the nodes that cannot hold a power's maximum.
    assert len(set(calls)) == len(calls) <= 601
    assert len(calls) < 601


def test_dense_decay_bounds_equal_the_per_power_maximum():
    # Oracle: the maximum over each power's own grid of
    # ||(-A)^r expm(At)||_2 t^r e^(delta t), evaluated one power at a time.
    import scipy.linalg

    sys = _nonnormal_dense()
    delta = sys.spectral_gap / 2.0
    sweep = np.geomspace(1e-4 / sys.fastest_rate, 60.0 / delta, 600)
    bounds = decay_bound_estimate(sys, (0.0, 0.25, 0.5))
    for r, bound in zip((0.0, 0.25, 0.5), bounds):
        grid = np.concatenate([[0.0], sweep]) if r == 0 else sweep
        values = [
            float(np.linalg.norm(sys.neg_power(r) @ scipy.linalg.expm(sys.a_matrix * t), 2))
            * t**r
            * np.exp(delta * t)
            for t in grid
        ]
        assert bound.power == r
        assert bound.prefactor == max(values)


@pytest.mark.parametrize("kind", ["spectral", "matrix"])
def test_step_on_a_stack_equals_each_row(kind):
    rng = np.random.default_rng(3)
    n = 9
    if kind == "spectral":
        sys = SpectralSystem(np.sort(rng.uniform(0.1, 40.0, n)), rng.normal(size=n))
    else:
        raw = rng.normal(size=(n, n))
        shift = np.abs(np.linalg.eigvals(raw).real).max() + 0.5
        sys = MatrixSystem(raw - shift * np.eye(n), rng.normal(size=(n, 1)))
    stack = rng.normal(size=(11, n))
    for u in (None, 0.0, -0.7):
        for h in (1e-4, 0.03):
            stepped = sys.step(stack, u, h)
            assert stepped.shape == stack.shape
            assert np.array_equal(stepped, np.array([sys.step(x, u, h) for x in stack]))


@pytest.mark.parametrize("kind", ["spectral", "matrix"])
def test_step_into_out_holds_the_bytes_of_a_fresh_step(kind):
    # ``out`` is written and returned; whatever it held before (here the
    # previous cell's state) does not reach the result.
    rng = np.random.default_rng(8)
    n = 7
    if kind == "spectral":
        sys = SpectralSystem(np.sort(rng.uniform(0.1, 40.0, n)), rng.normal(size=n))
    else:
        sys = MatrixSystem(*dense_nonnormal(5, n))
    stack = rng.normal(size=(6, n))
    for x in (stack, stack[2]):
        buf = np.empty_like(x)
        for u in (None, 0.0, -0.0, -0.5, 1.0):
            for h in (1e-3, 0.07):
                fresh = sys.step(x, u, h)
                stepped = sys.step(x, u, h, out=buf)
                assert stepped is buf
                assert stepped.tobytes() == fresh.tobytes()


def _dense_system(seed, n=5):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    return MatrixSystem(raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(n),
                        rng.normal(size=n)), rng


def test_memoized_step_holds_the_bytes_of_a_fresh_expm():
    # The unit-column propagator gives E x + u g at every level.
    import scipy.linalg

    sys, rng = _dense_system(4)
    stack = rng.normal(size=(3, 5))
    aug = np.zeros((6, 6))
    aug[:5, :5] = sys.a_matrix * 0.01
    aug[:5, 5] = sys.input_coeffs * 0.01
    fresh = scipy.linalg.expm(aug)
    expected = (fresh[:5, :5] @ stack[..., None])[..., 0] + fresh[:5, 5] * -0.5
    first = sys.step(stack, -0.5, 0.01)
    assert len(sys._propagators) == 1
    hit = sys.step(stack, -0.5, 0.01)
    assert len(sys._propagators) == 1
    assert first.tobytes() == hit.tobytes() == expected.tobytes()
    assert np.array_equal(sys._propagators[0.01], fresh)


def test_step_memo_keys_on_the_exact_level_and_step():
    sys, rng = _dense_system(5)
    x = rng.normal(size=5)
    for u in (0.0, -0.0, 1, 1.0):  # every level shares the step's propagator
        sys.step(x, u, 0.1)
    assert list(sys._propagators) == [0.1]
    assert not np.iscomplexobj(sys.step(x, 1, 0.1))
    sys.step(x, 1.0, np.nextafter(0.1, 1.0))
    sys.step(x, None, 0.1)  # the free flow is not memoized
    assert len(sys._propagators) == 2


def test_step_memo_stays_bounded(monkeypatch):
    import lyapcert.systems as systems

    entries = 12  # 6 x 6 propagators of 8-byte floats
    monkeypatch.setattr(systems, "STEP_MEMO_BYTES", entries * 6 * 6 * 8)
    sys, rng = _dense_system(6)
    x = rng.normal(size=5)
    for k in range(3 * entries):
        sys.step(x, 1.0, 0.01 * (k + 1))
        assert len(sys._propagators) <= entries
    assert len(sys._propagators) == entries
    # The oldest entries go first; the newest stay.
    assert list(sys._propagators) == [0.01 * (k + 1) for k in range(2 * entries, 3 * entries)]


def test_step_memo_stays_within_its_byte_budget(monkeypatch):
    import lyapcert.systems as systems

    sys, rng = _dense_system(7)
    monkeypatch.setattr(systems, "STEP_MEMO_BYTES", 3 * 6 * 6 * 8 + 1)
    for k in range(10):
        sys.step(rng.normal(size=5), 0.5, 0.1 * (k + 1))
    assert len(sys._propagators) == 3
    monkeypatch.setattr(systems, "STEP_MEMO_BYTES", 6 * 6 * 8 - 1)
    fresh, _ = _dense_system(7)
    fresh.step(rng.normal(size=5), 0.5, 0.1)
    assert fresh._propagators == {}


def _step_system(kind):
    if kind == "diagonal":
        return SpectralSystem([0.5, 1.0, 3.0, 8.0, 20.0], [1.0, -2.0, 0.5, 1.0, 3.0])
    return _dense_system(3)[0]


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_step_refuses_a_complex_level_on_a_real_state(kind):
    # The forcing is added in place, and a real state's dtype cannot hold a
    # complex level: numpy's same-kind casting refuses it.
    sys = _step_system(kind)
    x = np.linspace(-1.0, 1.0, 5)
    for level in (1j, np.complex128(2j), 1 + 0j):
        with pytest.raises(TypeError):
            sys.step(x, level, 0.1)
        with pytest.raises(TypeError):
            sys.step(np.stack([x, -x]), level, 0.1, out=np.empty((2, 5)))


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_step_of_a_complex_state_under_a_real_level_keeps_its_bytes(kind):
    # A complex state takes a real level in place, with the bits of the fresh
    # expression, and ``out`` comes back as given.
    import scipy.linalg

    sys = _step_system(kind)
    rng = np.random.default_rng(2)
    stack = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    h, u = 0.05, -0.75
    if kind == "diagonal":
        lam, b = sys.eigenvalues, sys.input_coeffs
        expected = np.exp(-lam * h) * stack + b * (u * (-np.expm1(-lam * h) / lam))
    else:
        aug = np.zeros((6, 6))
        aug[:5, :5] = sys.a_matrix * h
        aug[:5, 5] = sys.input_coeffs * h
        fresh = scipy.linalg.expm(aug)
        expected = (fresh[:5, :5] @ stack[..., None])[..., 0] + fresh[:5, 5] * u
    assert sys.step(stack, u, h).tobytes() == expected.tobytes()
    out = np.empty_like(stack)
    assert sys.step(stack, u, h, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert sys.step(stack[0], u, h).tobytes() == expected[0].tobytes()


def test_dense_step_exponentiates_once_per_step_size(monkeypatch):
    # Superposition: every input level reads E x + u g off one propagator,
    # within rounding of the level's own augmented exponential.
    import scipy.linalg
    from lyapcert.dissipation import SAMPLE_LEVELS

    sys, rng = _dense_system(9)
    x = rng.normal(size=5)
    calls = []
    original = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or original(a))
    for level in SAMPLE_LEVELS:
        aug = np.zeros((6, 6))
        aug[:5, :5] = sys.a_matrix * 0.01
        aug[:5, 5] = sys.input_coeffs * level * 0.01
        own = original(aug)
        expected = own[:5, :5] @ x + own[:5, 5]
        assert sys.step(x, level, 0.01) == pytest.approx(expected, rel=1e-14, abs=1e-16)
    assert calls == [(6, 6)]


def test_perturbed_lyapunov_solve_is_refused():
    # Rates spread over 2^0 .. 2^300: LAPACK perturbs the eigenvalue sums it
    # deems near zero and only warns.  The Gramian constant of this system
    # came back as 1.4e-39 against the diagonal realization's 0.7071.
    from lyapcert.lyapunov import build_w_plain

    lam = 2.0 ** np.linspace(0.0, 300.0, 8)
    dense = MatrixSystem(np.diag(-lam), np.ones(8))
    with pytest.raises(ConditioningError, match="perturbing the coefficients"):
        dense.l2_input_constants([10.0])
    with pytest.raises(ConditioningError):
        build_w_plain(dense)
    assert SpectralSystem(lam, np.ones(8)).l2_input_constants([10.0])[0] == pytest.approx(
        0.70710678, rel=1e-8
    )


def test_an_ill_conditioned_matrix_square_root_is_refused():
    # scipy's sqrtm only warns on this spread of rates; V_half's (-A)^(1/2)
    # refuses it rather than go on with a root that may be inaccurate.
    from lyapcert.lyapunov import build_v_half

    dense = MatrixSystem(np.diag(-(2.0 ** np.linspace(0.0, 300.0, 8))), np.ones(8))
    with pytest.raises(ConditioningError, match="matrix square root refused"):
        build_v_half(dense)


def test_a_semigroup_that_is_not_finite_is_refused():
    # expm(A t) of this non-normal system is NaN from about t = 1e38 on, which
    # a q = 1 maximum would skip and which would make the other constants NaN.
    # Every dense e^(At) is refused in one place, with one message: the L2
    # constant and the free step at the horizon, the decay norms at t, and the
    # graded grids of q = 1 and q = inf at their first node past that.
    sys = MatrixSystem(*dense_nonnormal(7, 8))
    refused = "^the semigroup is not finite at t = "
    for call in (
        lambda: sys.step(np.ones(8), None, 1e100),
        lambda: sys.power_semigroup_norms([0.0], 1e100),
        lambda: sys.l2_input_constants([1e100]),
        lambda: sys.lq_input_constants(1.0, [1e100], sys.fastest_rate),
        lambda: sys.lq_input_constants(math.inf, [1e100], sys.fastest_rate),
    ):
        with pytest.raises(ConditioningError, match=refused):
            call()
    with pytest.raises(ConditioningError, match=f"{refused}1e\\+100$"):
        sys.l2_input_constants([1e100])
    for q in (1.0, math.inf):
        assert math.isfinite(sys.lq_input_constants(q, [1e20], sys.fastest_rate)[0])
    assert math.isfinite(sys.l2_input_constants([1e20])[0])


@pytest.mark.parametrize("a, b, q", [
    (np.array([[-1.0, 1e200], [0.0, -1.0]]), np.array([0.0, 1e150]), 1.0),
    (np.array([[-1e-300, 0.0], [0.0, -1.0]]), np.array([1e10, 0.0]), math.inf),
])
def test_an_input_orbit_that_is_not_finite_under_a_finite_semigroup_is_refused(a, b, q):
    # Every e^(At) here is finite, but T(t) b overflows (q = 1), or A^-1 b
    # does (q = inf): the constant would be inf or NaN, so it is refused.
    sys = MatrixSystem(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(sys._semigroup(10.0)))
        with pytest.raises(ConditioningError, match="^the input orbit is not finite up to t = 10$"):
            sys.lq_input_constants(q, [10.0], sys.fastest_rate)


@pytest.mark.parametrize("kind", ["spectral", "matrix"])
def test_an_input_column_whose_square_overflows_is_refused(kind):
    # b . b = inf made the diagonal Gramian factor rank 0, so K2 read 0.0,
    # and the q = 1 and q = inf constants inf, which JSON cannot hold.
    def build(b):
        if kind == "spectral":
            return SpectralSystem([1.0, 2.0, 3.0], b)
        return MatrixSystem(np.diag([-1.0, -2.0, -3.0]), b)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e300, -1e155):
            with pytest.raises(ValueError, match="squared norm overflows"):
                build([big, 1.0, 1.0])
        assert build([1e154, 1.0, 1.0]).input_coeffs[0] == 1e154
    with pytest.raises(ValueError, match="squared norm overflows"):
        system_from_config({"type": "spectral", "eigenvalues": [1, 2, 3],
                            "input_coeffs": [1e300, 1, 1]})


def test_huge_diagonal_horizons_take_the_infinite_limit_without_warning():
    # lam * T overflows to inf at T = 1e300, and expm1(-inf) = -1 is the limit.
    sys = SpectralSystem([0.5, 3.0, 1e10, 1e300], [1.0, -2.0, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for horizon in (1e300, 1e306):
            assert sys.l2_input_constants([horizon]) == sys.l2_input_constants([math.inf])
            assert sys.lq_input_constants(math.inf, [horizon], None) == (
                sys.lq_input_constants(math.inf, [math.inf], None)
            )


# ------------------------------------ decay prefactors: closed form and grid


def _exhaustive_prefactors(sys, powers, delta):
    # Oracle: every node of the grid evaluated, the maximum per power.
    grid = np.concatenate([[0.0], np.geomspace(1e-4 / sys.fastest_rate, 60.0 / delta, 600)])
    rows = []
    for t in grid:
        norms = sys.power_semigroup_norms(powers, t)
        rows.append([norm * t**r * np.exp(delta * t) for r, norm in zip(powers, norms)])
    return [float(column.max()) for column in np.array(rows).T]


POWER_SETS = [(0.0, 0.25, 0.5), (0.25,), (0.5, 0.0)]
DELTA_FRACTIONS = [None, 0.1, 0.99]


def _assert_pruned_equals_exhaustive(sys, powers, fraction):
    delta = None if fraction is None else fraction * sys.spectral_gap
    bounds = decay_bound_estimate(sys, powers, delta=delta)
    oracle = _exhaustive_prefactors(sys, powers, sys.spectral_gap / 2.0 if delta is None else delta)
    assert [b.power for b in bounds] == list(powers)
    assert [b.prefactor for b in bounds] == oracle


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    skew=st.sampled_from([0.0, 1.0, 3.0]),
    powers=st.sampled_from(POWER_SETS),
    fraction=st.sampled_from(DELTA_FRACTIONS),
)
def test_pruned_dense_decay_bounds_equal_the_full_grid(seed, n, skew, powers, fraction):
    _assert_pruned_equals_exhaustive(_nonnormal_dense(n, seed, skew), powers, fraction)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(9, 24),
    skew=st.sampled_from([0.0, 1.0, 3.0]),
    powers=st.sampled_from(POWER_SETS),
    fraction=st.sampled_from(DELTA_FRACTIONS),
)
def test_pruned_dense_decay_bounds_equal_the_full_grid_up_to_n_24(seed, n, skew, powers, fraction):
    _assert_pruned_equals_exhaustive(_nonnormal_dense(n, seed, skew), powers, fraction)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    skew=st.sampled_from([0.0, 1.0, 3.0]),
    times=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2, unique=True),
)
def test_log_norm_step_from_an_earlier_node_bounds_the_power_semigroup(seed, n, skew, times):
    # The pruning premise: (-A)^r T(t) = (-A)^r T(s) T(t - s) and
    # ||T(tau)|| <= e^(mu tau), so the node s caps every later node t.
    sys = _nonnormal_dense(n, seed, skew)
    s, t = sorted(times)
    powers = (0.0, 0.25, 0.5)
    later, earlier = sys.power_semigroup_norms(powers, t), sys.power_semigroup_norms(powers, s)
    for late, early in zip(later, earlier):
        assert late <= early * np.exp(sys.log_norm * (t - s)) * (1 + 1e-12)


def _benchmark_dense(seed, n):
    # The dense benchmark matrix: A = R/sqrt(n) - (alpha(R/sqrt(n)) + 0.5) I
    # for a Gaussian R drawn from [seed, n], so the spectral gap is 0.5.
    rng = np.random.default_rng([seed, n])
    r = rng.standard_normal((n, n)) / np.sqrt(n)
    a = r - (np.linalg.eigvals(r).real.max() + 0.5) * np.eye(n)
    return MatrixSystem(a, rng.standard_normal(n))


@pytest.mark.parametrize("n, delta", [(64, None), (8, 1e-3)], ids=["n64", "n8-delta-1e-3"])
def test_nearest_node_ceiling_prunes_the_dense_sweep(monkeypatch, n, delta):
    # At n = 64 with every ceiling taken from t = 0 this request made 235 node
    # evaluations and 681 2-norms; the exhaustive grid makes 601 and 1,803.
    # At delta = 1e-3 the sweep runs to t = 6e4, where semigroup norms
    # underflow to 0 and a ceiling 0 * e^(mu (t - s)) is 0 * inf: not a
    # number, which must mean "evaluate", without a warning.
    warnings.simplefilter("error")  # pytest restores the filters after the test
    sys = _benchmark_dense(7, n)
    nodes, two_norms = [], []
    evaluate, norm = MatrixSystem.power_semigroup_norms, np.linalg.norm

    def counted_nodes(self, powers, t):
        nodes.append(t)
        return evaluate(self, powers, t)

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            two_norms.append(x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(MatrixSystem, "power_semigroup_norms", counted_nodes)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    bounds = decay_bound_estimate(sys, (0.0, 0.25, 0.5), delta=delta)
    monkeypatch.undo()
    assert len(set(nodes)) == len(nodes) <= 110
    assert len(two_norms) <= 250
    assert [b.prefactor for b in bounds] == _exhaustive_prefactors(
        sys, (0.0, 0.25, 0.5), sys.spectral_gap / 2.0 if delta is None else delta
    )


@pytest.mark.parametrize("delta, t", [(1e-40, "1.74126e+41"), (1e-60, "1.01658e+61")])
def test_a_decay_sweep_whose_semigroup_is_not_finite_is_refused(delta, t):
    # The sweep ends at 60/delta, and expm(A t) of this system is NaN from
    # about t = 1e39 on; its 2-norm failed as "SVD did not converge".
    sys = MatrixSystem(*dense_nonnormal(7, 8))
    refused = f"not finite at t = {t} on the decay sweep to 60/delta, delta = {delta:g}$"
    with pytest.raises(ConditioningError, match=refused.replace("+", "\\+")):
        decay_bound_estimate(sys, [0.0, 0.25, 0.5], delta=delta)
    with pytest.raises(ConditioningError, match="not finite at t = 6e\\+61$"):
        sys.power_semigroup_norms([0.0], 6e61)


def _diagonal_grid_maximum(sys, powers, delta):
    # Oracle: the 601-node grid the diagonal prefactors used to be sampled
    # on, every node evaluated per mode.
    grid = np.concatenate([[0.0], np.geomspace(1e-4 / sys.fastest_rate, 60.0 / delta, 600)])
    lam = sys.eigenvalues[:, None]
    decay = np.exp(-lam * grid)
    return [
        float(np.max(np.max(lam**r * decay, axis=0) * grid**r * np.exp(delta * grid)))
        for r in powers
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 64),
    powers=st.sampled_from(POWER_SETS),
    fraction=st.sampled_from(DELTA_FRACTIONS),
)
def test_diagonal_decay_prefactors_are_the_closed_form_supremum(seed, n, powers, fraction):
    rng = np.random.default_rng(seed)
    sys = SpectralSystem(np.sort(10.0 ** rng.uniform(-1.0, 4.0, n)), rng.normal(size=n))
    gap = sys.spectral_gap
    delta = gap / 2.0 if fraction is None else fraction * gap
    bounds = decay_bound_estimate(sys, powers, delta=None if fraction is None else delta)
    assert [b.power for b in bounds] == list(powers)
    # No node of the full grid beats the supremum (1e-12: float rounding).
    for bound, sampled in zip(bounds, _diagonal_grid_maximum(sys, powers, delta)):
        assert bound.prefactor * (1 + 1e-12) >= sampled
    # The slowest mode attains it at t* = r/(lam_1 - delta).
    for r, bound in zip(powers, bounds):
        t_star = r / (gap - delta)
        attained = gap**r * t_star**r * math.exp(-(gap - delta) * t_star)
        assert bound.prefactor == pytest.approx(attained, rel=1e-12)


def test_decay_prefactor_near_the_gap_is_not_cut_off_by_the_grid():
    # At delta = 0.999 gap the maximizer t* = 500/lam_1 lies past the old
    # grid end 60/delta, where the sampled r = 1/2 prefactor read 7.30; the
    # supremum is (r lam_1 / (e (lam_1 - delta)))^r = sqrt(500/e) = 13.5624...
    sys = build_model("heat-neumann", 64)
    delta = 0.999 * sys.spectral_gap
    (bound,) = decay_bound_estimate(sys, [0.5], delta=delta)
    assert bound.prefactor == pytest.approx(math.sqrt(500.0 / math.e), rel=1e-12)
    assert bound.prefactor == pytest.approx(13.5624, abs=1e-4)
    assert _diagonal_grid_maximum(sys, [0.5], delta)[0] == pytest.approx(7.30, abs=5e-3)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), skew=st.sampled_from([0.0, 1.0, 3.0]))
def test_log_norm_bounds_the_dense_semigroup(seed, n, skew):
    import scipy.linalg

    sys = _nonnormal_dense(n, seed, skew)
    for t in (0.0, 1e-3, 0.1, 1.0, 5.0):
        norm = float(np.linalg.norm(scipy.linalg.expm(sys.a_matrix * t), 2))
        assert norm <= np.exp(sys.log_norm * t) * (1 + 1e-12)
