import math

import numpy as np
import pytest
import scipy.integrate

from lyapcert.models import (
    MODEL_NAMES,
    build_model,
    counterexample_system,
    heat_system,
)
from lyapcert.rules import RuleError
from lyapcert.systems import fractional_power_apply, system_from_config


def _rule_system(eigenvalue_rule, coeff_rule, modes):
    return system_from_config(
        {"type": "spectral", "eigenvalue_rule": eigenvalue_rule, "coeff_rule": coeff_rule},
        modes=modes,
    )


def test_dirichlet_first_mode():
    sys = heat_system("dirichlet", 1)
    assert sys.eigenvalues[0] == pytest.approx(math.pi**2, rel=1e-15)
    assert sys.input_coeffs[0] == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-15)


def test_dirichlet_coefficients_match_lift_integral():
    # Oracle: b_n = lam_n * int_0^1 xi sqrt(2) sin(n pi xi) d xi, the modal
    # coefficient of the harmonic lift of the boundary value.
    sys = heat_system("dirichlet", 5)
    for n in range(1, 6):
        integral, _ = scipy.integrate.quad(
            lambda xi: xi * math.sqrt(2.0) * math.sin(n * math.pi * xi), 0.0, 1.0
        )
        expected = (n * math.pi) ** 2 * integral
        assert sys.input_coeffs[n - 1] == pytest.approx(expected, rel=1e-10)


def test_neumann_first_mode():
    sys = heat_system("neumann", 1)
    assert sys.eigenvalues[0] == pytest.approx((math.pi / 2.0) ** 2, rel=1e-15)
    assert sys.input_coeffs[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_neumann_coefficients_are_boundary_traces():
    # Oracle: the flux input couples through the eigenfunction trace
    # sqrt(2) sin((n - 1/2) pi) = sqrt(2) (-1)^(n+1).
    sys = heat_system("neumann", 6)
    for n in range(1, 7):
        trace = math.sqrt(2.0) * math.sin((n - 0.5) * math.pi)
        assert sys.input_coeffs[n - 1] == pytest.approx(trace, rel=1e-12)


def test_heat_boundary_validation():
    with pytest.raises(ValueError):
        heat_system("robin", 4)
    with pytest.raises(ValueError):
        heat_system("dirichlet", 0)


def test_counterexample_small():
    sys = counterexample_system(3)
    assert np.array_equal(sys.eigenvalues, [2.0, 4.0, 8.0])
    assert sys.input_coeffs == pytest.approx(
        [math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0)], rel=1e-15
    )


def test_counterexample_half_power_column_is_ones():
    sys = counterexample_system(3)
    column = fractional_power_apply(sys, -0.5, sys.input_coeffs)
    assert column == pytest.approx([1.0, 1.0, 1.0], rel=1e-14)


def test_counterexample_three_quarter_norm_limit():
    # Oracle: sum_{n>=1} 2^(-n/2) = 1/(sqrt(2)-1), summed directly.
    direct = sum(2.0 ** (-n / 2.0) for n in range(1, 200))
    assert direct == pytest.approx(1.0 / (math.sqrt(2.0) - 1.0), rel=1e-12)
    sys = counterexample_system(40)
    column = fractional_power_apply(sys, -0.75, sys.input_coeffs)
    assert np.linalg.norm(column) == pytest.approx(math.sqrt(direct), abs=1e-6)


def test_counterexample_guard():
    counterexample_system(256)
    with pytest.raises(ValueError, match="refusing"):
        counterexample_system(301)


def test_custom_rule_simple():
    sys = _rule_system("n^2", "1", 3)
    assert np.array_equal(sys.eigenvalues, [1.0, 4.0, 9.0])
    assert np.array_equal(sys.input_coeffs, [1.0, 1.0, 1.0])


def test_custom_rule_reproduces_dirichlet():
    sys = _rule_system("(n*pi)^2", "sqrt(2)*n*pi*(-1)^(n+1)", 6)
    ref = heat_system("dirichlet", 6)
    assert np.allclose(sys.eigenvalues, ref.eigenvalues, rtol=1e-15)
    assert np.allclose(sys.input_coeffs, ref.input_coeffs, rtol=1e-15)


def test_custom_rule_overflow_guard():
    _rule_system("2^n", "1", 40)
    with pytest.raises(RuleError, match="ceiling"):
        _rule_system("2^n", "1", 50)


def test_custom_rule_nonpositive_eigenvalue():
    with pytest.raises(ValueError, match="strictly positive"):
        _rule_system("n-2", "1", 3)


def test_registry():
    assert set(MODEL_NAMES) == {"counterexample", "heat-dirichlet", "heat-neumann"}
    for name in MODEL_NAMES:
        sys = build_model(name, 4)
        assert sys.dimension == 4
        assert sys.label == name
    with pytest.raises(ValueError, match="unknown model"):
        build_model("wave", 4)
