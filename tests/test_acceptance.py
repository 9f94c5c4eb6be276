"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one pass line per criterion (run with ``pytest -s`` or
read the captured output)."""

import json
import math
import time

import numpy as np
import pytest

from conftest import quadrature_form_value
from lyapcert.admissibility import admissibility_trend, classify_trend, operator_class_scan
from lyapcert.analysis import AnalysisConfig, run_analyze
from lyapcert.dissipation import (
    InputSignal,
    default_sample_cloud,
    dini_derivative,
    fit_dissipation,
    input_scaling_check,
    proof_decomposition,
    simulate_mild,
)
from lyapcert.lyapunov import (
    build_half_norm,
    build_v_half,
    build_w_q,
    contraction_similarity,
)
from lyapcert.models import counterexample_system, heat_system
from lyapcert.systems import MatrixSystem, SpectralSystem


def _report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def _random_diagonal(rng, max_modes=128, lam_lo=0.1, lam_hi=1e3):
    n = int(rng.integers(1, max_modes + 1))
    lam = np.sort(np.exp(rng.uniform(math.log(lam_lo), math.log(lam_hi), n)))
    return SpectralSystem(lam, rng.normal(size=n))


def test_criterion_01_self_adjoint_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(50):
        sys = _random_diagonal(rng)
        form = build_v_half(sys)
        assert np.abs(form.weights - 0.5).max() <= 1e-12
        x = rng.normal(size=sys.dimension)
        oracle = quadrature_form_value(sys.eigenvalues, sys.input_coeffs, x, 0.5)
        assert form.value(x) == pytest.approx(oracle, rel=1e-8)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"50 ensembles, weights exactly 1/2, quadrature to 1e-8 ({elapsed:.1f}s)")


def test_criterion_02_inverse_generator_identity():
    rng = np.random.default_rng(101)
    for _ in range(50):
        sys = _random_diagonal(rng)
        weights = build_w_q(sys, 0.0).weights
        reference = 0.5 / sys.eigenvalues
        assert np.abs(weights / reference - 1.0).max() <= 1e-12
    _report(2, "W_0 weights equal (1/2) lam^-1 to 1e-12 on the same ensemble")


def test_criterion_03_counterexample_trichotomy():
    start = time.monotonic()
    scan = operator_class_scan([counterexample_system(n) for n in (4, 16, 64)], 0.5)
    for n, value in zip(scan.mode_counts, scan.norms):
        assert value == pytest.approx(math.sqrt(n), rel=1e-12)
    assert scan.verdict == "diverging"

    limit = math.sqrt(1.0 / (math.sqrt(2.0) - 1.0))
    deep = operator_class_scan([counterexample_system(n) for n in (10, 20, 40)], 0.75)
    assert deep.verdict == "bounded"
    assert abs(deep.norms[-1] - limit) <= 1e-3

    estimate = admissibility_trend(
        [counterexample_system(n) for n in (64, 128)], 2, [10.0]
    )
    k = estimate.constants[-1]
    assert k[1] / k[0] <= 1.02
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"sqrt(N) scan, 1.5538 limit, K(128)/K(64) <= 1.02 ({elapsed:.1f}s)")


def test_criterion_04_heat_dichotomy():
    start = time.monotonic()
    neumann_a3, neumann_a4 = [], []
    for n in (16, 64, 256):
        sys = heat_system("neumann", n)
        form = build_half_norm(sys)
        cloud = default_sample_cloud(sys, form, count=200, seed=4)
        report = fit_dissipation(form, sys, cloud)
        assert not report.infeasible and not report.violations
        neumann_a3.append(report.a3)
        neumann_a4.append(report.a4)
    assert max(neumann_a3) / min(neumann_a3) <= 1.10
    assert max(neumann_a4) / min(neumann_a4) <= 1.5

    dirichlet_a4 = []
    for n in (16, 64, 256):
        sys = heat_system("dirichlet", n)
        form = build_half_norm(sys)
        cloud = default_sample_cloud(sys, form, count=200, seed=4)
        report = fit_dissipation(form, sys, cloud)
        dirichlet_a4.append(report.a4)
    assert dirichlet_a4[0] < dirichlet_a4[1] < dirichlet_a4[2]
    assert dirichlet_a4[1] >= 1.2 * dirichlet_a4[0]
    assert dirichlet_a4[2] >= 1.2 * dirichlet_a4[1]

    est = admissibility_trend([heat_system("dirichlet", n) for n in (16, 64, 256)], 2, [10.0])
    verdict, _ = classify_trend(est.mode_counts, est.constants[-1])
    assert verdict == "diverging"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        4,
        f"Neumann a3 spread {max(neumann_a3)/min(neumann_a3)-1:.2e}, bounded a4; "
        f"Dirichlet a4 x{dirichlet_a4[2]/dirichlet_a4[0]:.1f}, K diverging ({elapsed:.1f}s)",
    )


def test_criterion_05_dini_matches_analytic():
    rng = np.random.default_rng(505)
    worst_rel_bar = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        sys = SpectralSystem(np.sort(rng.uniform(0.1, 20.0, n)), rng.normal(size=n))
        form = build_w_q(sys, float(rng.choice([0.0, 0.25, 0.5])))
        x = rng.normal(size=n)
        level = float(rng.choice([0.0, 0.5, -0.5, 1.0]))
        est = dini_derivative(form, sys, x, level)
        drift = -sys.eigenvalues * x + sys.input_coeffs * level
        analytic = float(2.0 * np.sum(form.weights * x * drift))
        assert abs(est.value - analytic) <= est.error_bar
        worst_rel_bar = max(worst_rel_bar, est.error_bar / max(abs(analytic), 1.0))
    assert worst_rel_bar <= 1e-6
    _report(5, f"100 samples inside the error bar, worst relative bar {worst_rel_bar:.2e}")


def test_criterion_06_quadratic_scaling_law():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 13))
        sys = SpectralSystem(np.sort(rng.uniform(0.1, 50.0, n)), rng.normal(size=n))
        form = build_v_half(sys)
        report = input_scaling_check(form, sys, 1.0, (0.0, 0.5, 1.0, 2.0, 10.0))
        assert report.passed
        worst = max(worst, report.max_relative_error)
    assert worst <= 1e-10
    _report(6, f"c in {{0, 1/2, 1, 2, 10}} on 20 systems, worst error {worst:.2e}")


def test_criterion_07_coercivity_transition():
    for q in (0.0, 0.25, 0.5):
        lower = []
        for n in (8, 16, 32, 64):
            modes = np.arange(1.0, n + 1.0)
            sys = SpectralSystem(modes**2, np.ones(n))
            lower.append(build_w_q(sys, q).a1)
        if q == 0.5:
            assert all(v == 0.5 for v in lower)
        else:
            expected = 2.0 ** (2.0 * (2.0 * q - 1.0))
            for a, b in zip(lower, lower[1:]):
                assert b / a == pytest.approx(expected, rel=1e-14)
    _report(7, "a1 scales exactly as N^(2(2q-1)) for q in {0, 1/4}, constant at 1/2")


def test_criterion_08_contraction_similarity():
    rng = np.random.default_rng(808)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        raw = rng.normal(size=(n, n))
        shift = np.abs(np.linalg.eigvals(raw).real).max() + rng.uniform(0.2, 1.0)
        sys = MatrixSystem(raw - shift * np.eye(n), np.ones((n, 1)))
        form, report = contraction_similarity(sys)
        assert np.linalg.eigvalsh(form.p_matrix)[0] > 0.0
        assert report.dissipativity_margin <= 1e-10

        grid = np.linspace(0.0, 3.0 / sys.spectral_gap, 40)
        x0 = rng.normal(size=n)
        traj = simulate_mild(sys, x0, InputSignal.zero(), grid)
        w_values = np.array(
            [
                math.sqrt(max(float(np.real(np.vdot(s, form.p_apply(s)))), 0.0))
                for s in traj.states
            ]
        )
        rate = report.decay_rate
        for earlier, later, h in zip(w_values[:-1], w_values[1:], np.diff(grid)):
            assert later <= earlier * math.exp(-rate * h) * (1.0 + 1e-9)
    _report(8, "20 Hurwitz draws: P > 0, margin <= 1e-10, W decay at the certified rate")


def test_criterion_09_proof_decomposition():
    rng = np.random.default_rng(909)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        sys = SpectralSystem(np.sort(rng.uniform(0.2, 20.0, n)), rng.normal(size=n))
        form = build_v_half(sys) if rng.uniform() < 0.5 else build_w_q(sys, 0.25)
        x = rng.normal(size=n)
        level = float(rng.choice([0.5, 1.0, -1.0]))
        for h in (0.1, 0.01):
            report = proof_decomposition(form, sys, x, level, h=h)
            assert report.reconstruction_error <= 1e-8
            assert report.i1_check_error <= 1e-8
            assert report.i3_bound_holds
    _report(9, "three-term reconstruction to 1e-8 with certified forced-energy bound")


def test_criterion_10_implication_report(tmp_path):
    cases = {
        "heat-neumann": (16, 64, 256),
        "heat-dirichlet": (16, 64, 256),
        "counterexample": (64, 128, 256),
    }
    reports = {}
    for model, modes in cases.items():
        config = AnalysisConfig(
            model=model, modes=modes, seed=11, sample_count=48,
            out_dir=str(tmp_path / model),
        )
        reports[model], _ = run_analyze(config)

    slots = reports["heat-neumann"]["slots"]
    assert slots["exponentially_stable"]["value"] is True
    assert slots["two_admissibility"]["value"] == "bounded"
    assert slots["gamma_scans"]["value"]["0.5"]["verdict"] == "bounded"
    assert slots["coercive_quadratic_l2"]["value"] == "certified"
    assert slots["l2_iss"]["value"] == "ISS"

    slots = reports["heat-dirichlet"]["slots"]
    assert slots["two_admissibility"]["value"] == "diverging"
    assert slots["coercive_quadratic_l2"]["value"] == "input-coefficient-diverging"
    assert slots["noncoercive_w0"]["value"] == "certified"
    assert slots["l2_iss"]["value"] == "not-ISS"

    slots = reports["counterexample"]["slots"]
    assert slots["two_admissibility"]["value"] == "bounded"
    assert slots["gamma_scans"]["value"]["0.5"]["verdict"] == "diverging"
    edges = {e["id"]: e for e in reports["counterexample"]["edges"]}
    assert edges["bounded-input-constant-does-not-imply-half-power-class"]["status"] == "witnessed"
    similarity_edge = edges[
        "stability-plus-bounded-input-constant-does-not-imply-contraction-similarity"
    ]
    assert similarity_edge["status"] == "not-checkable-at-finite-truncation"
    conds = reports["counterexample"]["slots"]["contraction_similarity"]["condition_numbers"]
    assert len(conds) == 3 and conds[-1][1] > conds[0][1]

    for model in reports:
        statuses = {e["status"] for e in reports[model]["edges"]}
        assert "violated" not in statuses

    # Determinism: a second run under the same seed is byte-identical.
    config = AnalysisConfig(
        model="counterexample", modes=cases["counterexample"], seed=11,
        sample_count=48, out_dir=str(tmp_path / "repeat"),
    )
    run_analyze(config)
    first = (tmp_path / "counterexample" / "report.json").read_bytes()
    second = (tmp_path / "repeat" / "report.json").read_bytes()
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == "1"
    _report(10, "zoo patterns match the relationship graph; crossed edges verified; deterministic")
