"""Release-gate invariant suite, runnable from the CLI.

Each check exercises one module-level invariant with deterministic inputs
and returns a named pass/fail line.  The checks are analytic, so the
pass/fail pattern must not depend on the seed.  ``fault`` injects a
deliberate corruption into one check, used to exercise the failure path
itself.  Only the checks in ``FAULT_TARGETS`` implement a corruption, and
only they can be named.  A defect that is not finite fails its check: each
running worst case is ``np.maximum``, which keeps a NaN that ``max`` drops.
"""

from __future__ import annotations

import numpy as np

from .admissibility import (
    BOUNDED_RATIO, admissibility_constant, admissibility_trend, operator_class_scan
)
from .dissipation import (
    ENVELOPE_RTOL,
    InputSignal,
    default_sample_cloud,
    dini_derivative,
    envelope_excess,
    exact_certificate,
    fit_dissipation,
    gain_ensemble,
    simulate_mild,
)
from .lyapunov import (
    GainEnvelope,
    QuadraticForm,
    build_half_norm,
    build_v_half,
    build_w_plain,
    build_w_q,
    contraction_similarity,
)
from .models import counterexample_system, heat_system
from .systems import (
    MatrixSystem,
    SpectralSystem,
    decay_bound_estimate,
    extrapolation_norm,
    fractional_power_apply,
    semigroup_apply,
)

__all__ = ["FAULT_TARGETS", "run_selftest"]


def _random_system(rng, max_modes=12, lam_range=(0.1, 50.0)):
    n = int(rng.integers(1, max_modes + 1))
    lam = np.sort(rng.uniform(*lam_range, size=n))
    coeffs = rng.normal(size=n)
    return SpectralSystem(lam, coeffs)


def _check_semigroup_law(rng):
    worst = 0.0
    for _ in range(25):
        sys = _random_system(rng)
        x = rng.normal(size=sys.dimension)
        s, t = rng.uniform(0.0, 2.0, size=2)
        once = semigroup_apply(sys, s, semigroup_apply(sys, t, x))
        joint = semigroup_apply(sys, s + t, x)
        scale = max(np.linalg.norm(joint), 1e-300)
        worst = np.maximum(worst, np.linalg.norm(once - joint) / scale)
    a = np.array([[-1.0, 10.0], [0.0, -2.0]])
    sys_m = MatrixSystem(a, np.array([[1.0], [1.0]]))
    x = np.array([1.0, -0.5])
    once = semigroup_apply(sys_m, 0.3, semigroup_apply(sys_m, 0.7, x))
    joint = semigroup_apply(sys_m, 1.0, x)
    worst_m = np.linalg.norm(once - joint) / np.linalg.norm(joint)
    ok = worst <= 1e-12 and worst_m <= 1e-9
    return ok, f"diagonal defect {worst:.2e}, matrix defect {worst_m:.2e}"


def _check_fractional_commutation(rng):
    worst = 0.0
    for _ in range(25):
        sys = _random_system(rng)
        x = rng.normal(size=sys.dimension)
        alpha = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.0, 1.0)
        left = fractional_power_apply(sys, alpha, semigroup_apply(sys, t, x))
        right = semigroup_apply(sys, t, fractional_power_apply(sys, alpha, x))
        scale = max(np.linalg.norm(right), 1e-300)
        worst = np.maximum(worst, np.linalg.norm(left - right) / scale)
    return worst <= 1e-12, f"worst commutation defect {worst:.2e}"


def _check_exponential_stability(rng):
    worst = -np.inf
    for _ in range(25):
        sys = _random_system(rng)
        x = rng.normal(size=sys.dimension)
        t = rng.uniform(0.0, 3.0)
        lhs = np.linalg.norm(semigroup_apply(sys, t, x))
        rhs = np.exp(-sys.spectral_gap * t) * np.linalg.norm(x)
        worst = np.maximum(worst, lhs - rhs * (1.0 + 1e-12))
    return worst <= 0.0, f"worst bound excess {worst:.2e}"


def _check_extrapolation_gamma_zero(rng):
    worst = 0.0
    for _ in range(25):
        sys = _random_system(rng)
        v = rng.normal(size=sys.dimension)
        worst = np.maximum(worst, abs(extrapolation_norm(sys, 0.0, v) - np.linalg.norm(v)))
    return worst <= 1e-13, f"worst gamma=0 defect {worst:.2e}"


def _check_self_adjoint_identity(rng, fault=False):
    worst = 0.0
    for _ in range(50):
        sys = _random_system(rng, lam_range=(0.1, 1000.0))
        weights = np.array(build_v_half(sys).weights)
        if fault:
            weights[0] *= 1.0 + 1e-6
        reference = build_half_norm(sys).weights
        worst = np.maximum(worst, np.abs(weights - reference).max())
    return worst <= 1e-12, f"worst weight deviation {worst:.2e}"


def _check_jmp20_identity(rng):
    worst = 0.0
    for _ in range(50):
        sys = _random_system(rng, lam_range=(0.1, 1000.0))
        weights = build_w_q(sys, 0.0).weights
        reference = 0.5 / sys.eigenvalues
        worst = np.maximum(worst, np.abs(weights / reference - 1.0).max())
    return worst <= 1e-12, f"worst relative deviation {worst:.2e}"


def _check_quadrature_consistency(rng):
    import scipy.integrate

    worst = 0.0
    for _ in range(20):
        sys = _random_system(rng, max_modes=8, lam_range=(0.2, 30.0))
        q = rng.choice([0.0, 0.25, 0.5])
        x = rng.normal(size=sys.dimension)
        form = build_w_q(sys, q)
        lam = sys.eigenvalues
        horizon = 20.0 / sys.spectral_gap

        def integrand(t):
            return float(np.sum(lam ** (2 * q) * np.exp(-2 * lam * t) * x**2))

        value, _ = scipy.integrate.quad(integrand, 0.0, horizon, epsabs=1e-13, epsrel=1e-11, limit=400)
        value += float(np.sum(lam ** (2 * q - 1) / 2 * np.exp(-2 * lam * horizon) * x**2))
        worst = np.maximum(worst, abs(value - form.value(x)) / max(1.0, abs(value)))
    return worst <= 1e-8, f"worst quadrature mismatch {worst:.2e}"


def _check_coercivity_transition(rng):
    counts = (8, 16, 32, 64)
    ok = True
    details = []
    for q in (0.0, 0.25, 0.5):
        lower = []
        for n in counts:
            modes = np.arange(1.0, n + 1.0)
            sys = SpectralSystem(modes**2, np.ones(n))
            lower.append(build_w_q(sys, q).a1)
        expected = 2.0 ** (2.0 * (2.0 * q - 1.0))
        ratios = [b / a for a, b in zip(lower, lower[1:])]
        ok = ok and all(abs(r - expected) <= 1e-12 * expected for r in ratios)
        details.append(f"q={q:g}: ratios {ratios[0]:.6g}")
    return ok, "; ".join(details)


def _check_homogeneity(rng):
    worst = 0.0
    for _ in range(25):
        sys = _random_system(rng)
        form = build_w_q(sys, float(rng.uniform(0.0, 0.5)))
        x = rng.normal(size=sys.dimension)
        c = float(rng.uniform(0.1, 10.0))
        v_scaled = form.value(c * x)
        expected = c * c * form.value(x)
        worst = np.maximum(worst, abs(v_scaled - expected) / max(expected, 1e-300))
    return worst <= 1e-13, f"worst homogeneity defect {worst:.2e}"


def _check_constant_monotonicity(rng):
    family = [counterexample_system(n) for n in (4, 8, 16, 32)]
    table = admissibility_trend(family, 2, [2.5, 5.0, 10.0]).constants
    ok = all(np.all(k[1:] >= k[:-1] * (1 - 1e-12)) for k in (table, table.T))
    return ok, f"{table.size} sweep entries monotone"


def _check_lemma_bridge(rng):
    ok = True
    details = []
    for name, family in (
        ("heat-neumann", [heat_system("neumann", n) for n in (64, 256, 1024)]),
        ("heat-dirichlet", [heat_system("dirichlet", n) for n in (64, 256, 1024)]),
        ("counterexample", [counterexample_system(n) for n in (16, 32, 64)]),
    ):
        bounded_below_half = any(
            operator_class_scan(family, g).verdict == "bounded" for g in (0.3, 0.375, 0.45)
        )
        if bounded_below_half:
            k = admissibility_trend(family, 2, [5.0]).constants[-1]
            ratios = (k[1:] / k[:-1]).tolist()
            bounded = all(r <= BOUNDED_RATIO for r in ratios)
            ok = ok and bounded
            details.append(f"{name}: scan bounded, constants bounded={bounded}")
        else:
            details.append(f"{name}: no bounded scan below one half (vacuous)")
    return ok, "; ".join(details)


def _check_neumann_gamma_window(rng):
    # p-series tails near the exponent-1/4 boundary decay like N^(0.5-2*gamma),
    # so the window needs deep truncations before the ratios settle.
    family = [heat_system("neumann", n) for n in (4096, 16384, 65536)]
    verdicts = {g: operator_class_scan(family, g).verdict for g in (0.3, 0.375, 0.45)}
    ok = all(v == "bounded" for v in verdicts.values())
    return ok, f"window verdicts {verdicts}"


def _check_scaling_covariance(rng):
    sys = heat_system("neumann", 16)
    scaled = SpectralSystem(sys.eigenvalues, 2.0 * sys.input_coeffs)
    base_norm = extrapolation_norm(sys, 0.5, sys.input_coeffs)
    scaled_norm = extrapolation_norm(scaled, 0.5, scaled.input_coeffs)
    base_k = admissibility_constant(sys, 2, 5.0).constant
    scaled_k = admissibility_constant(scaled, 2, 5.0).constant
    ok = abs(scaled_norm - 2.0 * base_norm) <= 1e-12 * base_norm
    ok = ok and abs(scaled_k - 2.0 * base_k) <= 1e-12 * base_k
    return ok, f"norm ratio {scaled_norm / base_norm:.15g}, K ratio {scaled_k / base_k:.15g}"


def _check_simulation_exactness(rng):
    worst = 0.0
    for _ in range(10):
        sys = _random_system(rng, max_modes=6)
        x = x0 = rng.normal(size=sys.dimension)
        breakpoints, values = np.array([0.0, 0.4, 1.1]), rng.normal(size=3)
        grid = np.array([0.0, 0.25, 0.4, 0.8, 1.5])
        traj = simulate_mild(sys, x0, InputSignal(breakpoints, values), grid)
        for k, (t0, t1) in enumerate(zip(grid[:-1], grid[1:]), 1):
            edges = [t0, *breakpoints[(breakpoints > t0) & (breakpoints < t1)], t1]
            for a, b in zip(edges[:-1], edges[1:]):
                decay = np.exp(-sys.eigenvalues * (b - a))
                value = values[breakpoints <= a][-1]  # the hold in force from a
                x = decay * x + sys.input_coeffs * value * (1 - decay) / sys.eigenvalues
            worst = np.maximum(worst, np.abs(x - traj.states[k]).max())
    return worst <= 1e-12, f"worst per-mode residual {worst:.2e}"


def _check_dini_consistency(rng):
    worst = 0.0
    for _ in range(100):
        sys = _random_system(rng, max_modes=10, lam_range=(0.1, 20.0))
        form = build_w_q(sys, float(rng.choice([0.0, 0.25, 0.5])))
        x = rng.normal(size=sys.dimension)
        level = float(rng.choice([0.0, 0.5, -1.0]))
        est = dini_derivative(form, sys, x, level)
        drift = -sys.eigenvalues * x + sys.input_coeffs * level
        analytic = float(2.0 * np.sum(form.weights * x * drift))
        bar = est.error_bar if np.isfinite(est.error_bar) else np.nan  # blind: never holds
        worst = np.maximum(worst, abs(est.value - analytic) - bar)
    return worst <= 0.0, f"worst excess over error bar {worst:.2e}"


def _check_homogeneous_decay(rng):
    sys = heat_system("neumann", 12)
    form = build_half_norm(sys)
    report = fit_dissipation(form, sys, [np.eye(12)[0], np.eye(12)[5]], sample_inputs=(0.0,))
    grid = np.linspace(0.0, 3.0, 40)
    traj = simulate_mild(sys, np.ones(12) / np.sqrt(12.0), InputSignal.zero(), grid)
    values = [form.value(s) for s in traj.states]
    ok = report.a3 > 0.0 and all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))
    return ok, f"a3 {report.a3:.6g}; V along the unforced flow decays over {len(values)} nodes"


def _check_norm_candidate_decay(rng):
    sys = heat_system("neumann", 8)
    form = build_half_norm(sys)
    cloud = default_sample_cloud(sys, form, count=32, seed=7)
    report = fit_dissipation(form, sys, cloud)
    rate = report.a3 / (2.0 * report.a2)
    grid = np.linspace(0.0, 2.0, 30)
    traj = simulate_mild(sys, np.ones(8) / np.sqrt(8.0), InputSignal.zero(), grid)
    values = np.array([np.sqrt(form.value(s)) for s in traj.states])
    steps = np.diff(grid)
    ok = all(
        later <= earlier * np.exp(-rate * h) * (1 + 1e-9)
        for earlier, later, h in zip(values[:-1], values[1:], steps)
    )
    return ok, f"certified norm decay rate {rate:.6g}"


def _check_verdict_scaling_invariance(rng):
    sys = heat_system("neumann", 8)
    form = build_half_norm(sys)
    x = rng.normal(size=8)
    u = InputSignal.constant(0.7)
    grid = np.linspace(0.0, 1.0, 9)
    base = simulate_mild(sys, x, u, grid)
    scaled = simulate_mild(sys, 3.0 * x, u.scaled(3.0), grid)
    values = np.array([form.value(s) for s in base.states])
    values_scaled = np.array([form.value(s) for s in scaled.states])
    worst = np.abs(values_scaled - 9.0 * values).max() / max(values.max(), 1e-300)
    return worst <= 1e-10, f"worst quadratic-rescaling defect {worst:.2e}"


def _check_counterexample_trichotomy(rng):
    family = [counterexample_system(n) for n in (4, 16, 64)]
    half = operator_class_scan(family, 0.5)
    threequarter = operator_class_scan([counterexample_system(n) for n in (10, 20, 40)], 0.75)
    # The top eigenvector of the input Gramian delocalizes slowly; the
    # doubling ratios only settle below the threshold from N = 64 on.
    deep = [counterexample_system(n) for n in (64, 128, 256)]
    k = admissibility_trend(deep, 2, [10.0]).constants[-1]
    ratios = (k[1:] / k[:-1]).tolist()
    ok = half.verdict == "diverging" and threequarter.verdict == "bounded"
    ok = ok and all(r <= BOUNDED_RATIO for r in ratios)
    return ok, (
        f"half-power {half.verdict}, three-quarter {threequarter.verdict}, "
        f"constant ratios {[f'{r:.4f}' for r in ratios]}"
    )


def _check_dirichlet_scan_divergence(rng):
    family = [heat_system("dirichlet", n) for n in (16, 64, 256)]
    ok = True
    slopes = {}
    for gamma in (0.25, 0.5, 0.75):
        scan = operator_class_scan(family, gamma)
        slopes[gamma] = round(scan.growth_exponent, 4)
        ok = ok and scan.growth_exponent > 0.0 and scan.verdict != "bounded"
    return ok, f"growth exponents {slopes}"


def _check_neumann_membership(rng):
    # sum b_n^2 / lam_n = sum 2 / ((n - 1/2) pi)^2 converges to 1; the flux
    # input column lives in the half-power extrapolation space.
    sys = heat_system("neumann", 10_000)
    terms = sys.input_coeffs**2 / sys.eigenvalues
    partial = float(np.sum(terms))
    ok = terms[-1] <= 1e-6 and abs(partial - 1.0) <= 1e-3
    for n in (8, 32):
        small = heat_system("neumann", n)
        form = build_half_norm(small)
        cloud = default_sample_cloud(small, form, count=24, seed=3)
        report = fit_dissipation(form, small, cloud)
        ok = ok and not report.infeasible and not report.violations
    return ok, (
        f"membership sum {partial:.6f} (last increment {terms[-1]:.2e}), certificates clean"
    )


def _check_contraction_margin(rng):
    ok = True
    worst = -np.inf
    for _ in range(5):
        n = int(rng.integers(2, 6))
        raw = rng.normal(size=(n, n))
        shift = np.abs(np.linalg.eigvals(raw).real).max() + 1.0
        sys = MatrixSystem(raw - shift * np.eye(n), np.ones((n, 1)))
        _, report = contraction_similarity(sys)
        ok = ok and report.satisfied
        worst = np.maximum(worst, report.dissipativity_margin)
    return ok, f"worst dissipativity margin {worst:.2e}"


def _check_log_norm_step(rng, fault=False):
    # ||(-A)^r T(t)|| <= ||(-A)^r T(s)|| e^(mu (t - s)) for s < t, the dense decay
    # sweep's ceiling; the fault's rate -gap holds only for normal generators.
    worst, norms = -np.inf, MatrixSystem.power_semigroup_norms
    for n in range(2, 10):
        raw = rng.normal(size=(n, n)) + 3.0 * np.triu(rng.normal(size=(n, n)), 1)
        sys = MatrixSystem(raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(n), np.ones(n))
        rate = -sys.spectral_gap if fault else sys.log_norm
        s, t = np.sort(rng.uniform(0.0, 2.0, size=2))
        for s in (0.0, s):
            ratio = np.divide(norms(sys, (0.0, 0.25, 0.5), t), norms(sys, (0.0, 0.25, 0.5), s))
            worst = np.maximum(worst, ratio.max() / np.exp(rate * (t - s)) - 1.0)
    return worst <= 1e-12, f"worst excess over the log-norm step {worst:.2e}"


def _check_w0_exact_certificate(rng, fault=False):
    # W_0 solves A^T P + P A = -I, so M = -(PA + A^T P) = I + E with the solve
    # residual r = ||E|| (plus rounding): |a3max - 1| <= r, and a4 = ||Pb||^2 /
    # (1 - a3) within ||Pb||^2 r / ((1 - a3)(1 - a3 - r)).  Both ratios to their
    # bound must stay at most 1; the fault certifies a P off by one part in a million.
    worst = 0.0
    for n in range(2, 10):
        raw = rng.normal(size=(n, n)) + 3.0 * np.triu(rng.normal(size=(n, n)), 1)
        a = raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(n)
        sys = MatrixSystem(a, rng.normal(size=n))
        p = build_w_plain(sys).p_matrix
        pa = p @ a
        r = np.linalg.norm(pa + pa.T + np.eye(n), 2) + 16.0 * n * np.finfo(float).eps
        form = QuadraticForm(p_matrix=p * (1.0 + 1e-6)) if fault else build_w_plain(sys)
        cert = exact_certificate(form, sys)
        pb_sq, gap = float(np.sum((p @ sys.input_coeffs) ** 2)), 1.0 - cert.a3
        worst = np.max([
            worst,
            abs(cert.a3max - 1.0) / r,
            abs(cert.a4 - pb_sq / gap) / (pb_sq * r / (gap * (gap - r))),
        ])
    return worst <= 1.0, f"worst deviation {worst:.3g} of the solve-residual bound"


def _check_exact_gain_envelope(rng, fault=False):
    # simulate's envelope ||x(t)|| <= M e^(-delta t)||x0|| + K2(inf)||u||, delta = gap/2.
    # The fault puts M below ||T(0)|| = 1 on the diagonal system, past the
    # refusal of such an M in GainEnvelope itself, so the t = 0 node trips.
    raw = np.random.default_rng(8).normal(size=(6, 6)) / np.sqrt(6.0)
    dense = MatrixSystem(raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(6), np.ones(6))
    worst, where = -np.inf, ""
    for name, sys in (("diagonal", heat_system("neumann", 8)), ("dense", dense)):
        decay = decay_bound_estimate(sys, [0.0])[0]
        envelope = GainEnvelope(decay.prefactor, decay.rate, sys.l2_input_constants([np.inf])[0])
        if fault:
            object.__setattr__(envelope, "overshoot", envelope.overshoot * (1.0 - 1e-6))
        runs = gain_ensemble(sys, int(rng.integers(2**31)))
        excess = envelope_excess(envelope, runs)
        run, node = np.unravel_index(np.argmax(excess), excess.shape)
        if not excess[run, node] <= worst:
            worst, where = excess[run, node], f"{name} run {run} at t = {runs[run].times[node]:g}"
    return worst <= ENVELOPE_RTOL, f"worst relative excess {worst:.2e} ({where})"


_CHECKS = (
    ("semigroup-law", _check_semigroup_law),
    ("fractional-power-commutation", _check_fractional_commutation),
    ("exponential-stability-bound", _check_exponential_stability),
    ("extrapolation-gamma-zero", _check_extrapolation_gamma_zero),
    ("self-adjoint-identity", _check_self_adjoint_identity),
    ("inverse-generator-identity", _check_jmp20_identity),
    ("quadrature-consistency", _check_quadrature_consistency),
    ("coercivity-transition", _check_coercivity_transition),
    ("form-homogeneity", _check_homogeneity),
    ("constant-monotonicity", _check_constant_monotonicity),
    ("bounded-scan-implies-bounded-constant", _check_lemma_bridge),
    ("neumann-gamma-window", _check_neumann_gamma_window),
    ("input-scaling-covariance", _check_scaling_covariance),
    ("diagonal-simulation-exactness", _check_simulation_exactness),
    ("dini-analytic-consistency", _check_dini_consistency),
    ("homogeneous-value-decay", _check_homogeneous_decay),
    ("norm-candidate-decay", _check_norm_candidate_decay),
    ("verdict-scaling-invariance", _check_verdict_scaling_invariance),
    ("counterexample-trichotomy", _check_counterexample_trichotomy),
    ("dirichlet-scan-divergence", _check_dirichlet_scan_divergence),
    ("neumann-membership", _check_neumann_membership),
    ("contraction-margin", _check_contraction_margin),
    ("log-norm-semigroup-step", _check_log_norm_step),
    ("w0-exact-certificate", _check_w0_exact_certificate),
    ("exact-gain-envelope", _check_exact_gain_envelope),
)


# The checks that take ``fault=True`` and then must fail.
FAULT_TARGETS = ("self-adjoint-identity", "log-norm-semigroup-step", "w0-exact-certificate",
                 "exact-gain-envelope")


def run_selftest(seed=0, fault=None, emit=print):
    """Run every invariant check; returns True when all pass.

    ``fault`` names a single check of ``FAULT_TARGETS`` to corrupt
    deliberately, proving that the gate actually trips.  Lines are emitted
    one per invariant.
    """
    if fault is not None and fault not in FAULT_TARGETS:
        raise ValueError(
            f"no corruption implemented for {fault!r}; fault targets: {', '.join(FAULT_TARGETS)}"
        )
    all_ok = True
    for name, check in _CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = check(rng, fault=True) if fault == name else check(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {exc}"
        all_ok = all_ok and ok
        emit(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
