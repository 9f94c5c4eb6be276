import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gram_constant
from test_systems import REALIZATION_RTOL
from lyapcert.admissibility import (
    AdmissibilityEstimate,
    admissibility_constant,
    admissibility_trend,
    classify_trend,
    l2_iss_verdict,
    operator_class_scan,
)
from lyapcert.models import counterexample_system, heat_system
from lyapcert.systems import (
    CHOLESKY_STOP,
    GRID_SEGMENTS,
    MatrixSystem,
    SpectralSystem,
    _graded_backward_grid,
    _gramian_factor,
)


def test_classify_trend_basic():
    assert classify_trend([4, 16, 64], [2.0, 4.0, 8.0])[0] == "diverging"
    assert classify_trend([4, 16, 64], [1.0, 1.0, 1.0])[0] == "bounded"
    assert classify_trend([4, 16, 64], [0.0, 0.0, 0.0]) == ("bounded", 0.0)


@pytest.mark.parametrize(
    "values", [[1.0, 1.0, math.nan], [1.0, 1.0, math.inf], [math.nan] * 3, [1.0, -1.0, 1.0]],
    ids=["nan", "inf", "all-nan", "negative"],
)
def test_classify_trend_refuses_a_value_that_is_not_finite_and_nonnegative(values):
    # A NaN or infinite value read as ("inconclusive", nan), a slope the
    # report's allow_nan=False writer refuses; all NaN raised numpy's
    # zero-size reduction error.  No value that cannot be ordered is a trend.
    with pytest.raises(ValueError, match="trend values must be finite and nonnegative"):
        classify_trend([4, 16, 64], values)


def test_counterexample_half_power_scan():
    family = [counterexample_system(n) for n in (4, 16, 64)]
    scan = operator_class_scan(family, 0.5)
    # sum over modes of lam^-1 b^2 = 1 per mode, so the norms are sqrt(N).
    assert scan.norms == pytest.approx((2.0, 4.0, 8.0), rel=1e-12)
    assert scan.verdict == "diverging"
    assert scan.growth_exponent == pytest.approx(0.5, abs=1e-9)


def test_counterexample_three_quarter_scan():
    family = [counterexample_system(n) for n in (10, 20, 40)]
    scan = operator_class_scan(family, 0.75)
    # Oracle: geometric series sum_{n>=1} 2^(-n/2) = 1/(sqrt(2)-1).
    limit = math.sqrt(1.0 / (math.sqrt(2.0) - 1.0))
    assert scan.verdict == "bounded"
    assert scan.norms[-1] == pytest.approx(limit, abs=1e-3)


def test_heat_neumann_half_power_scan_bounded():
    family = [heat_system("neumann", n) for n in (16, 64, 256)]
    scan = operator_class_scan(family, 0.5)
    assert scan.verdict == "bounded"
    # Oracle: sum 2/((n-1/2) pi)^2 -> 1, by direct partial summation.
    n = np.arange(1, 200_001)
    oracle = float(np.sqrt(np.sum(2.0 / ((n - 0.5) * np.pi) ** 2)))
    assert oracle == pytest.approx(1.0, abs=1e-5)
    assert scan.norms[-1] == pytest.approx(oracle, abs=2e-3)


def test_heat_dirichlet_scan_threshold():
    # Oracle: sum (n pi)^(2 - 4 gamma) is a p-series converging iff
    # 4 gamma - 2 > 1, i.e. gamma > 3/4.
    family = [heat_system("dirichlet", n) for n in (16, 64, 256)]
    for gamma in (0.25, 0.5, 0.75):
        assert operator_class_scan(family, gamma).verdict == "diverging"
    deep = [heat_system("dirichlet", n) for n in (1024, 4096, 16384)]
    assert operator_class_scan(deep, 1.0).verdict == "bounded"


def test_scan_needs_three_points():
    with pytest.raises(ValueError):
        operator_class_scan([counterexample_system(4), counterexample_system(8)], 0.5)


def test_scalar_l2_constant_reaches_closed_form():
    # Oracle: the extremal input is proportional to exp(-(T-s)); the
    # constant converges to sqrt(int_0^inf e^(-2 tau) d tau) = 1/sqrt(2).
    sys = SpectralSystem([1.0], [1.0])
    est = admissibility_constant(sys, 2, horizon=20.0)
    assert est.constant == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_l2_constant_matches_gram_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(2, 8))
        sys = SpectralSystem(np.sort(rng.uniform(0.2, 20.0, n)), rng.normal(size=n))
        est = admissibility_constant(sys, 2, horizon=8.0)
        oracle = gram_constant(sys.eigenvalues, sys.input_coeffs, 8.0)
        assert est.constant == pytest.approx(oracle, rel=1e-12)


def test_zero_input_operator():
    sys = SpectralSystem([1.0, 2.0], [0.0, 0.0])
    for q in (1, 2, math.inf):
        assert admissibility_constant(sys, q, horizon=5.0).constant == 0.0


def test_matrix_realization_matches_diagonal():
    from lyapcert.systems import MatrixSystem

    lam = np.array([0.7, 2.5, 6.0])
    b = np.array([1.0, -0.5, 2.0])
    diagonal = SpectralSystem(lam, b)
    dense = MatrixSystem(np.diag(-lam), b.reshape(-1, 1))
    k_diag = admissibility_constant(diagonal, 2, horizon=6.0).constant
    k_dense = admissibility_constant(dense, 2, horizon=6.0).constant
    assert k_dense == pytest.approx(k_diag, rel=1e-9)


@pytest.mark.parametrize("segments", [8, 64])
def test_dense_l2_constant_makes_one_expm_per_horizon(monkeypatch, segments):
    # The Gramian needs one Lyapunov solve per system and one expm per
    # (system, horizon); no time grid is built, whatever its resolution.
    import scipy.linalg

    from lyapcert import systems

    calls, solves = [], []
    original, solve = scipy.linalg.expm, scipy.linalg.solve_continuous_lyapunov

    def counted(a):
        calls.append(a.shape)
        return original(a)

    def counted_solve(a, q):
        solves.append(a.shape)
        return solve(a, q)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", counted_solve)
    monkeypatch.setattr(systems, "GRID_SEGMENTS", segments)
    # The 3-state system drives its third state from the first two, so the
    # 2-state system is its leading section and the constants grow with N.
    systems = [
        MatrixSystem(np.array([[-1.0, 4.0], [0.0, -3.0]]), np.array([[1.0], [-2.0]])),
        MatrixSystem(
            np.array([[-1.0, 4.0, 0.0], [0.0, -3.0, 0.0], [1.0, 2.0, -5.0]]),
            np.array([1.0, -2.0, 0.5]),
        ),
    ]
    admissibility_trend(systems, 2, [1.0, 5.0, 10.0])
    assert calls == [(2, 2)] * 3 + [(3, 3)] * 3
    assert solves == [(2, 2), (3, 3)]


@pytest.mark.parametrize("segments", [8, 64, GRID_SEGMENTS])
def test_dense_q_one_constant_makes_one_expm_per_node(monkeypatch, segments):
    # The kernel norms are exact free steps of b; no input-map column is built.
    import scipy.linalg

    from lyapcert import systems

    calls = []
    original = scipy.linalg.expm

    def counted(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    monkeypatch.setattr(systems, "GRID_SEGMENTS", segments)
    sys = MatrixSystem(np.array([[-1.0, 4.0], [0.0, -3.0]]), np.array([[1.0], [-2.0]]))
    admissibility_constant(sys, 1, horizon=5.0)
    assert calls == [(2, 2)] * (segments + 1)


def _per_horizon_constants(sys, q, horizons):
    # Oracle: every horizon evaluates its own nodes of the sweep's grid afresh.
    import scipy.linalg

    grid = _graded_backward_grid(sys.fastest_rate, max(horizons))
    master = np.unique(np.concatenate([grid, horizons]))
    b, constants = sys.input_coeffs, []
    for t in horizons:
        nodes = master[master <= t * (1.0 + 1e-12)]
        if q == 1:
            constants.append(float(max(np.linalg.norm(sys.step(b, None, tau)) for tau in nodes)))
            continue
        inv_b = np.linalg.solve(sys.a_matrix, b)
        orbit = np.stack([scipy.linalg.expm(sys.a_matrix * s) @ inv_b for s in nodes], 1)
        segments = np.abs(orbit[:, 1:] - orbit[:, :-1])
        constants.append(float(np.linalg.norm(np.sum(segments, axis=1))))
    return constants


@pytest.mark.parametrize("q", [1, math.inf])
def test_a_dense_horizon_sweep_evaluates_each_grid_node_once(monkeypatch, q):
    # 513 grid nodes plus the horizons 1 and 2: evaluating every horizon's
    # nodes afresh made 1,336 expm calls.  The constants stay bit-identical.
    import scipy.linalg

    calls = []
    original = scipy.linalg.expm

    def counted(a):
        calls.append(a.shape)
        return original(a)

    sys = MatrixSystem([[-1.0, 5.0], [0.0, -3.0]], [1.0, 1.0])
    horizons = [1.0, 2.0, 5.0]
    monkeypatch.setattr(scipy.linalg, "expm", counted)
    estimate = admissibility_trend([sys], q, horizons)
    monkeypatch.undo()
    assert calls == [(2, 2)] * 515
    assert estimate.horizons == tuple(horizons)
    assert estimate.constants[:, 0].tolist() == _per_horizon_constants(sys, q, horizons)


def test_trend_refuses_what_the_constant_refuses():
    sys = SpectralSystem([1.0], [1.0])
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        admissibility_constant(sys, 2, 0.0)
    for horizons in ([0.0], [0.0, 5.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            admissibility_trend([sys], 2, horizons)


def test_multi_input_matrix_rejected():
    from lyapcert.systems import MatrixSystem

    with pytest.raises(ValueError, match="scalar input"):
        MatrixSystem(np.diag([-1.0, -2.0]), np.eye(2))


def test_q_inf_constant_exact():
    sys = SpectralSystem([1.0], [1.0])
    est = admissibility_constant(sys, math.inf, horizon=3.0)
    assert est.constant == pytest.approx(1.0 - math.exp(-3.0), rel=1e-9)


def test_q_one_constant_is_peak_kernel_norm():
    sys = SpectralSystem([1.0, 4.0], [1.0, -2.0])
    est = admissibility_constant(sys, 1, horizon=5.0)
    assert est.constant == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_unsupported_q():
    sys = SpectralSystem([1.0], [1.0])
    with pytest.raises(ValueError):
        admissibility_constant(sys, 3, horizon=1.0)
    with pytest.raises(ValueError):
        admissibility_constant(sys, 2, horizon=0.0)


def test_counterexample_constant_bounded_despite_diverging_scan():
    family = [counterexample_system(n) for n in (64, 128, 256)]
    est = admissibility_trend(family, 2, [10.0])
    k = est.constants[-1]
    assert np.all(k[1:] / k[:-1] <= 1.02)
    # Cross-check the plateau against the exact Gram oracle.
    oracle = gram_constant(family[-1].eigenvalues, family[-1].input_coeffs, 10.0)
    assert k[-1] == pytest.approx(oracle, rel=1e-12)


def test_trend_monotone_in_horizon_and_modes():
    family = [counterexample_system(n) for n in (4, 8, 16)]
    k = admissibility_trend(family, 2, [2.0, 5.0, 10.0]).constants
    assert k.shape == (3, 3)
    for table in (k, k.T):  # along the horizons, then along the mode counts
        assert np.all(table[1:] >= table[:-1] * (1 - 1e-12))


@pytest.mark.parametrize("horizons, mode_counts, constants, message", [
    pytest.param((1.0,), (4, 8), [[2.0, 1.0]], "nondecreasing", id="decrease-in-modes"),
    pytest.param((1.0, 2.0), (4,), [[2.0], [1.0]], "nondecreasing", id="decrease-in-horizon"),
    pytest.param((1.0, 2.0), (4,), [[1.0, 2.0]], "one row per horizon", id="wrong-shape"),
    pytest.param((1.0, 1.0), (4,), [[1.0], [1.0]], "horizons must be strictly increasing",
                 id="repeated-horizon"),
    pytest.param((1.0,), (4, 4), [[1.0, 1.0]], "mode counts must be strictly increasing",
                 id="repeated-mode-count"),
])
def test_estimate_monotonicity_validation(horizons, mode_counts, constants, message):
    with pytest.raises(ValueError, match=message):
        AdmissibilityEstimate(2.0, horizons, mode_counts, constants)


def test_trend_refuses_a_sweep_that_repeats_a_horizon_or_a_mode_count():
    # Repeated horizons duplicated every mode-trend row; two dense 2-state
    # systems were classified by a polyfit over equal sizes at one horizon,
    # and over two horizons were refused as decreasing.
    sys = heat_system("neumann", 4)
    with pytest.raises(ValueError, match="horizons must be strictly increasing"):
        admissibility_trend([sys], 2, [5.0, 5.0])
    pair = [MatrixSystem(np.diag([-1.0, -2.0]), [1.0, 1.0]),
            MatrixSystem(np.diag([-1.0, -3.0]), [1.0, 0.5])]
    for horizons in ([5.0], [1.0, 5.0]):
        with pytest.raises(ValueError, match="mode counts must be strictly increasing"):
            admissibility_trend(pair, 2, horizons)
    with pytest.raises(ValueError, match="mode counts must be strictly increasing"):
        admissibility_trend([sys, heat_system("neumann", 4)], 1, [5.0])


def test_estimate_table_is_read_only_and_ends_in_the_constant():
    family = [counterexample_system(n) for n in (4, 8)]
    est = admissibility_trend(family, 2, [1.0, 5.0])
    assert est.constants.dtype == np.float64 and not est.constants.flags.writeable
    assert est.constant == est.constants[-1, -1]
    rows, verdict, slope = est.mode_trend()
    assert rows == [(4, est.constants[1, 0]), (8, est.constants[1, 1])]
    assert (verdict, slope) == classify_trend([4, 8], est.constants[-1])


@settings(max_examples=25, deadline=None)
@given(power=st.integers(-4, 4), seed=st.integers(0, 2**31 - 1))
def test_scaling_covariance(power, seed):
    # Multiplying the input column by c multiplies every constant and scan
    # norm by |c|; binary scales keep the identity exact.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    lam = np.sort(rng.uniform(0.2, 30.0, n))
    b = rng.normal(size=n)
    c = 2.0**power
    base = SpectralSystem(lam, b)
    scaled = SpectralSystem(lam, c * b)
    k_base = admissibility_constant(base, 2, horizon=4.0).constant
    k_scaled = admissibility_constant(scaled, 2, horizon=4.0).constant
    assert k_scaled == abs(c) * k_base


def test_verdicts():
    neumann = [heat_system("neumann", n) for n in (16, 64, 256)]
    est = admissibility_trend(neumann, 2, [10.0])
    assert l2_iss_verdict(neumann[-1], est).verdict == "ISS"

    dirichlet = [heat_system("dirichlet", n) for n in (16, 64, 256)]
    est = admissibility_trend(dirichlet, 2, [10.0])
    verdict = l2_iss_verdict(dirichlet[-1], est)
    assert verdict.verdict == "not-ISS"
    assert any("grows" in r for r in verdict.reasons)

    silent = SpectralSystem([1.0, 2.0], [0.0, 0.0])
    est = admissibility_trend([silent], 2, [5.0])
    assert l2_iss_verdict(silent, est).verdict == "ISS"


def test_zero_input_verdict_is_realization_independent():
    # A zero input column makes any exponentially stable system ISS, even
    # with a single truncation and hence no constant trend.
    for silent in (
        SpectralSystem([1.0, 2.0], [0.0, 0.0]),
        MatrixSystem(np.array([[-1.0, 2.0], [0.0, -3.0]]), np.zeros((2, 1))),
    ):
        est = admissibility_trend([silent], 2, [5.0])
        verdict = l2_iss_verdict(silent, est)
        assert verdict.verdict == "ISS"
        assert "zero input operator" in verdict.reasons


def _diagonal_family(seed, octaves):
    # Ascending rates: within (0.2, 30) at octaves = 0, else spread over
    # 2^0 .. 2^octaves (the dyadic model spans 2^1 .. 2^300) with
    # coefficients up to sqrt(lam) in size.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    if octaves:
        lam = np.sort(2.0 ** rng.uniform(0.0, octaves, n))
        b = rng.normal(size=n) * lam ** rng.uniform(0.0, 0.5, n)
    else:
        lam = np.sort(rng.uniform(0.2, 30.0, n))
        b = rng.normal(size=n)
    return lam, b, float(rng.uniform(0.1, 20.0))


SEEDS = st.integers(0, 2**31 - 1)
FAMILIES = given(seed=SEEDS, octaves=st.sampled_from([0, 300]))


@settings(max_examples=60, deadline=None)
@FAMILIES
def test_gramian_constant_matches_gram_oracle(seed, octaves):
    lam, b, horizon = _diagonal_family(seed, octaves)
    est = admissibility_constant(SpectralSystem(lam, b), 2, horizon)
    assert est.constant == pytest.approx(gram_constant(lam, b, horizon), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    octaves=st.sampled_from([0, 300]),
    q=st.sampled_from([1, 2, math.inf]),
    horizons=st.lists(st.floats(0.05, 40.0), min_size=1, max_size=3, unique=True),
)
def test_each_table_entry_has_the_bytes_of_its_systems_own_constant(seed, octaves, q, horizons):
    # constants[i, j] is family[j]'s own constant at the i-th ascending horizon.
    lam, b, _ = _diagonal_family(seed, octaves)
    family = [SpectralSystem(lam[:n], b[:n]) for n in range(1, lam.size + 1)]
    est = admissibility_trend(family, q, horizons)
    horizons = sorted(horizons)
    assert est.horizons == tuple(horizons)
    assert est.mode_counts == tuple(range(1, lam.size + 1))
    assert est.constants.shape == (len(horizons), lam.size)
    rate = family[-1].fastest_rate
    for j, sys in enumerate(family):
        if q == 2:
            own = sys.l2_input_constants(horizons)
        else:
            own = sys.lq_input_constants(q, horizons, rate)
        for i, value in enumerate(own):
            assert est.constants[i, j].tobytes() == np.float64(value).tobytes()


@settings(max_examples=60, deadline=None)
@FAMILIES
def test_cholesky_factor_encloses_the_top_eigenvalue(seed, octaves):
    # W - F^T F is positive semidefinite with the returned residual diagonal,
    # so lambda_max(F F^T) <= lambda_max(W) <= lambda_max(F F^T) + its trace.
    lam, b, horizon = _diagonal_family(seed, octaves)
    factor, residual = _gramian_factor(lam, b, horizon)
    lower = np.linalg.eigvalsh(factor @ factor.T)[-1] if factor.size else 0.0
    upper = lower + np.clip(residual, 0.0, None).sum()
    exact = gram_constant(lam, b, horizon) ** 2
    assert lower <= exact * (1 + 1e-12)
    assert exact <= upper * (1 + 1e-12)
    total = np.sum(b * b * -np.expm1(-2.0 * lam * horizon) / (2.0 * lam))
    assert residual.max() <= CHOLESKY_STOP * total


def _fresh_array_gramian_factor(lam, b, horizon):
    # Reference: the pivot loop as it was before it reused work vectors,
    # allocating fresh arrays at every pivot.
    n = lam.size
    with np.errstate(over="ignore"):  # entered once: a pivot loop pays for each entry
        residual = b * (b * (-np.expm1(-2.0 * lam * horizon) / (2.0 * lam)))
        stop = CHOLESKY_STOP * residual.sum()
        factor = np.empty((min(n, 16), n))
        rank = 0
        while rank < n:
            j = int(np.argmax(residual))
            pivot = residual[j]
            if pivot <= stop:
                break
            total = lam + lam[j]
            column = b * (b[j] * (-np.expm1(-total * horizon) / total))
            column -= factor[:rank, j] @ factor[:rank]
            if rank == len(factor):  # grow the row buffer by doubling
                factor = np.concatenate([factor, np.empty_like(factor)])[:n]
            factor[rank] = column / np.sqrt(pivot)
            residual -= factor[rank] ** 2
            residual[j] = 0.0
            rank += 1
    return factor[:rank], residual


def _assert_same_factor_bytes(lam, b, horizon):
    factor, residual = _gramian_factor(lam, b, horizon)
    ref_factor, ref_residual = _fresh_array_gramian_factor(lam, b, horizon)
    assert factor.shape == ref_factor.shape
    assert factor.tobytes() == ref_factor.tobytes()
    assert residual.tobytes() == ref_residual.tobytes()
    return factor


# The README sizes of the three registered models, counterexample N = 300
# (full rank past a power of two), and heat-neumann N = 4096, whose rank 43
# grows the row buffer 16 -> 32 -> 64.
_FACTOR_SYSTEMS = (
    [heat_system("neumann", n) for n in (16, 64, 256, 4096)]
    + [heat_system("dirichlet", n) for n in (16, 64, 256)]
    + [counterexample_system(n) for n in (64, 128, 256, 300)]
)


@pytest.mark.parametrize("horizon", [0.5, 1.0, 10.0, math.inf])
@pytest.mark.parametrize("sys", _FACTOR_SYSTEMS, ids=lambda s: f"{s.label}-{s.dimension}")
def test_gramian_factor_has_the_bytes_of_the_fresh_array_loop(sys, horizon):
    factor = _assert_same_factor_bytes(sys.eigenvalues, sys.input_coeffs, horizon)
    if sys.dimension == 4096 and horizon == 10.0:
        assert len(factor.base) == 64 and 32 < len(factor) <= 64


@settings(max_examples=60, deadline=None)
@FAMILIES
def test_gramian_factor_has_the_bytes_of_the_fresh_array_loop_on_random_families(seed, octaves):
    _assert_same_factor_bytes(*_diagonal_family(seed, octaves))


def test_gramian_factor_allocates_its_row_buffer_and_a_few_vectors():
    # The row buffer grows in place and never past N rows (counterexample
    # N = 300 at full rank grows 256 -> 300, not to 512).  Everything else
    # alive at once is a few length-N vectors.
    import tracemalloc

    for n in (256, 300):
        sys = counterexample_system(n)
        lam, b = sys.eigenvalues, sys.input_coeffs
        _gramian_factor(lam, b, 10.0)  # warm numpy's caches outside the trace
        tracemalloc.start()
        try:
            factor, _ = _gramian_factor(lam, b, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor.shape == factor.base.shape == (n, n)
        assert peak <= factor.base.nbytes + 6 * n * 8


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, octaves=st.sampled_from([0, 40]))
def test_gramian_constant_is_realization_independent(seed, octaves):
    # The dense Lyapunov solve is accurate in norm only: beyond about 2^52
    # between the rates, LAPACK perturbs eigenvalue sums below eps * max lam.
    lam, b, horizon = _diagonal_family(seed, octaves)
    diagonal = admissibility_constant(SpectralSystem(lam, b), 2, horizon).constant
    dense = admissibility_constant(MatrixSystem(np.diag(-lam), b), 2, horizon).constant
    assert dense == pytest.approx(diagonal, rel=REALIZATION_RTOL)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, octaves=st.sampled_from([0, 40]))
def test_infinite_horizon_gramian_constant_is_realization_independent(seed, octaves):
    # K2(inf) comes from the steady Gramian W on both realizations, and no
    # finite horizon's constant exceeds it.
    lam, b, horizon = _diagonal_family(seed, octaves)
    horizons = [horizon / 4.0, horizon, math.inf]
    diagonal = SpectralSystem(lam, b).l2_input_constants(horizons)
    dense = MatrixSystem(np.diag(-lam), b).l2_input_constants(horizons)
    assert dense[-1] == pytest.approx(diagonal[-1], rel=REALIZATION_RTOL)
    for constants in (diagonal, dense):
        assert all(k <= constants[-1] * (1 + 1e-12) for k in constants[:-1])


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, octaves=st.sampled_from([0, 300]),
       c=st.floats(-1e3, 1e3).filter(lambda c: abs(c) >= 1e-3))
def test_gramian_constant_scales_with_the_input_column(seed, octaves, c):
    lam, b, horizon = _diagonal_family(seed, octaves)
    base = admissibility_constant(SpectralSystem(lam, b), 2, horizon).constant
    scaled = admissibility_constant(SpectralSystem(lam, c * b), 2, horizon).constant
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


@settings(max_examples=40, deadline=None)
@FAMILIES
def test_gramian_constant_never_decreases_in_modes_or_horizon(seed, octaves):
    lam, b, horizon = _diagonal_family(seed, octaves)
    family = [SpectralSystem(lam[:n], b[:n]) for n in range(1, lam.size + 1)]
    est = admissibility_trend(family, 2, [horizon / 4.0, horizon / 2.0, horizon])
    for table in (est.constants, est.constants.T):  # along the horizons, then the mode counts
        assert np.all(table[1:] >= table[:-1] * (1 - 1e-12))


@pytest.mark.parametrize("q", [1, math.inf])
def test_every_dense_system_of_a_sweep_samples_the_fastest_rates_grid(monkeypatch, q):
    # The 3-state system adds a rate-100 state to the 2-state one, stiffer
    # than 0.25 * GRID_SEGMENTS / T, so the two systems' own grids differ.
    # One shared grid keeps growing N from shrinking a sampled constant.
    import lyapcert.systems as systems

    built = []
    original = systems._graded_backward_grid

    def recorded(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(systems, "_graded_backward_grid", recorded)
    small = MatrixSystem(np.array([[-1.0, 4.0], [0.0, -3.0]]), np.array([1.0, -2.0]))
    stiff = MatrixSystem(
        np.array([[-1.0, 4.0, 0.0], [0.0, -3.0, 0.0], [1.0, 2.0, -100.0]]),
        np.array([1.0, -2.0, 0.5]),
    )
    horizon = 5.0
    assert small.fastest_rate < 0.25 * GRID_SEGMENTS / horizon < stiff.fastest_rate
    assert not np.array_equal(
        original(small.fastest_rate, horizon), original(stiff.fastest_rate, horizon)
    )
    estimate = admissibility_trend([stiff, small], q, [1.0, horizon])
    assert built == [(stiff.fastest_rate, horizon)] * 2
    assert estimate.mode_counts == (2, 3)
    shared = estimate.constants[:, 0].tolist()
    assert shared == small.lq_input_constants(q, [1.0, horizon], stiff.fastest_rate)


def test_graded_grid_is_built_only_for_dense_q_one_and_inf(monkeypatch):
    import lyapcert.systems as systems

    built = []
    original = systems._graded_backward_grid

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(systems, "_graded_backward_grid", counted)
    diagonal = heat_system("neumann", 8)
    dense = MatrixSystem(np.array([[-1.0, 4.0], [0.0, -3.0]]), np.array([1.0, -2.0]))
    for q in (1, 2, math.inf):
        admissibility_trend([diagonal], q, [1.0, 5.0])
    admissibility_trend([dense], 2, [1.0, 5.0])
    assert built == []
    for q in (1, math.inf):
        admissibility_trend([dense], q, [1.0, 5.0])
    assert built == [(dense.fastest_rate, 5.0)] * 2
