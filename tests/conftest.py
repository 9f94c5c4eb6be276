"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: quadrature goes
through scipy on explicitly written integrands, series limits through
partial sums, and input-map constants through the exact Gram matrix of
the continuous kernel.  ``dense_nonnormal`` draws the dense test systems.
"""

import numpy as np
import scipy.integrate
import scipy.linalg


def quadrature_form_value(eigenvalues, coeffs_q, x, q):
    """Oracle for int_0^inf ||(-A)^q T(t) x||^2 dt on a diagonal system."""
    lam = np.asarray(eigenvalues, dtype=float)
    x = np.asarray(x, dtype=float)
    horizon = 20.0 / lam.min()

    def integrand(t):
        return float(np.sum(lam ** (2 * q) * np.exp(-2 * lam * t) * x**2))

    value, _ = scipy.integrate.quad(
        integrand, 0.0, horizon, epsabs=1e-13, epsrel=1e-11, limit=500
    )
    tail = float(np.sum(lam ** (2 * q - 1) / 2 * np.exp(-2 * lam * horizon) * x**2))
    return value + tail


def quadrature_matrix_form_value(a, x, q=0.5):
    """Oracle for the dense square-function integral via expm quadrature."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    s = scipy.linalg.fractional_matrix_power(-a, q)
    s = s.real if np.iscomplexobj(s) and np.abs(s.imag).max() < 1e-12 else s
    gap = -np.linalg.eigvals(a).real.max()
    horizon = 40.0 / gap

    def integrand(t):
        vec = s @ scipy.linalg.expm(a * t) @ x
        return float(np.real(np.vdot(vec, vec)))

    value, _ = scipy.integrate.quad(
        integrand, 0.0, horizon, epsabs=1e-13, epsrel=1e-11, limit=500
    )
    return value


def gram_constant(eigenvalues, coeffs, horizon):
    """Oracle for the exact L2 input-map norm via the kernel Gram matrix.

    The squared constant is the top eigenvalue of
    M[n,m] = b_n b_m (1 - exp(-(lam_n+lam_m) T)) / (lam_n + lam_m).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    b = np.asarray(coeffs, dtype=float)
    log_b = np.log(np.abs(b) + (b == 0.0))
    sign = np.sign(b)
    total = lam[:, None] + lam[None, :]
    # b_n b_m / (lam_n + lam_m) in log space to survive huge spectra.
    magnitude = np.exp(log_b[:, None] + log_b[None, :] - np.log(total))
    gram = sign[:, None] * sign[None, :] * magnitude * -np.expm1(-total * horizon)
    gram = gram * (b[:, None] != 0.0) * (b[None, :] != 0.0)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def dense_nonnormal(seed, n):
    """``(A, b)`` of the dense-nonnormal benchmark system: spectral gap 0.5, unit ``b``.

    ``A = R/sqrt(n) - (alpha(R/sqrt(n)) + 0.5) I`` for a Gaussian ``R`` drawn
    from ``[seed, n]``, with ``alpha`` the spectral abscissa.
    """
    rng = np.random.default_rng([seed, n])
    r = rng.standard_normal((n, n)) / np.sqrt(n)
    a = r - (np.linalg.eigvals(r).real.max() + 0.5) * np.eye(n)
    b = rng.standard_normal(n)
    return a, b / np.linalg.norm(b)
