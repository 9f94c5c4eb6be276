"""Input-operator classification and admissibility constants.

Two complementary probes of an input column ``b``:

* an extrapolation-space scan: how ``||(-A)^(-gamma) b||`` grows as modes
  are added, classifying whether ``B`` lands in the weakened space of
  exponent ``gamma``;
* an admissibility constant: the best bound ``K`` with
  ``||int_0^T T(T-s) B u(s) ds|| <= K ||u||_{L^q(0,T)}``.  At q = 2 it is
  exact on both realizations, the square root of the top eigenvalue of the
  input Gramian; so are q = 1 and q = inf on diagonal systems, while dense
  systems sample those two on a graded time grid that ``systems`` builds.
  :func:`admissibility_trend` computes every constant of a sweep into one
  table, ``constants[i, j]`` at the i-th horizon of the j-th system, with
  horizons and mode counts ascending; its last row is the trend over modes.
  :func:`admissibility_constant` is the one-system, one-horizon case.

The two need not agree -- a bounded constant with a diverging scan is the
interesting regime -- and the trend classifier below keeps its thresholds
explicit as the module constants ``BOUNDED_RATIO`` and ``DIVERGING_SLOPE``.
Horizons, the exponent q (which also reads the text ``"inf"``) and every
trend record enter through the float64 door of ``systems``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import _readonly, _real_array, extrapolation_norm

__all__ = [
    "AdmissibilityEstimate",
    "IssVerdict",
    "OperatorClassReport",
    "admissibility_constant",
    "admissibility_trend",
    "classify_trend",
    "l2_iss_verdict",
    "operator_class_scan",
]


# Artifact thresholds separating bounded from diverging sequences: the
# largest final successive ratio of a bounded sweep, and the log-log slope
# against the sweep size above which a sweep diverges.
BOUNDED_RATIO = 1.02
DIVERGING_SLOPE = 0.05


def classify_trend(sizes, values):
    """Classify a positive sequence sampled at increasing sizes.

    Returns ``(verdict, slope)`` with verdict in {"bounded", "diverging",
    "inconclusive"}.  Boundedness is judged where it matters, at the end
    of the sweep: the final successive ratio must have come within the
    ratio threshold and the overall log-log slope must sit below the
    divergence threshold.  A sweep that is still growing at its end with
    a supercritical slope is diverging; anything else stays inconclusive.
    """
    sizes, values = _real_array(sizes, "trend sizes"), _real_array(values, "trend values")
    if sizes.size != values.size or sizes.size < 2:
        raise ValueError("need at least two sweep points")
    if not np.all((values >= 0.0) & (values < math.inf)):
        raise ValueError("trend values must be finite and nonnegative")
    if np.all(values == 0.0):
        return "bounded", 0.0
    floor = values[values > 0].min() * 1e-300 + 1e-300
    slope = float(np.polyfit(np.log(sizes), np.log(np.maximum(values, floor)), 1)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = values[1:] / np.maximum(values[:-1], floor)
    final_ratio = float(ratios[-1])
    if final_ratio <= BOUNDED_RATIO and slope <= DIVERGING_SLOPE:
        return "bounded", slope
    if final_ratio > BOUNDED_RATIO and slope > DIVERGING_SLOPE:
        return "diverging", slope
    return "inconclusive", slope


@dataclass(frozen=True)
class OperatorClassReport:
    """Result of sweeping ||(-A)^(-gamma) B|| over truncation sizes."""

    gamma: float
    mode_counts: tuple
    norms: tuple
    verdict: str
    growth_exponent: float

    def __post_init__(self):
        norms = _real_array(self.norms, "scan norms")
        if np.any(np.diff(norms) < -1e-9 * max(norms.max(), 1.0)):
            raise ValueError("scan norms must be nondecreasing in the mode count")
        object.__setattr__(self, "norms", tuple(norms.tolist()))


def operator_class_scan(systems, gamma) -> OperatorClassReport:
    """Scan ||(-A)^(-gamma) B|| over a family of truncations of one system.

    ``systems`` must contain at least three diagonal truncations with
    strictly increasing mode counts.  Adding modes adds nonnegative terms,
    so the norms are nondecreasing; the verdict reflects whether they
    level off or keep growing.  A norm that overflows raises ``OverflowError``.
    """
    systems = list(systems)
    if len(systems) < 3:
        raise ValueError("a class scan needs at least three sweep points")
    counts = [s.dimension for s in systems]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("mode counts must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [extrapolation_norm(s, gamma, s.input_coeffs) for s in systems]
    if not all(math.isfinite(v) for v in norms):
        raise OverflowError(f"the class scan at gamma = {gamma:g} overflows double precision")
    verdict, slope = classify_trend(counts, norms)
    return OperatorClassReport(
        gamma=float(gamma),
        mode_counts=tuple(counts),
        norms=norms,
        verdict=verdict,
        growth_exponent=slope,
    )


@dataclass(frozen=True)
class AdmissibilityEstimate:
    """Input-map constants K(T, N) of one sweep, for one integrability exponent.

    ``constants[i, j]`` is the constant at ``horizons[i]`` of the sweep's
    ``j``-th system, whose mode count is ``mode_counts[j]``: a read-only
    float64 table with one row per horizon and one column per system.  Both
    tuples must increase strictly, and the table must be nondecreasing
    along each axis.
    """

    q: float
    horizons: tuple
    mode_counts: tuple
    constants: np.ndarray

    def __post_init__(self):
        table = _readonly(np.array(_real_array(self.constants, "admissibility constants")))
        if table.shape != (len(self.horizons), len(self.mode_counts)):
            raise ValueError("constants need one row per horizon and one column per system")
        for name, axis in (("horizons", self.horizons), ("mode counts", self.mode_counts)):
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        for k in (table, table.T):
            if np.any(k[1:] < k[:-1] * (1.0 - 1e-9)):
                raise ValueError("admissibility constants must be nondecreasing")
        object.__setattr__(self, "constants", table)

    @property
    def constant(self) -> float:
        """The constant of the largest system at the largest horizon."""
        return float(self.constants[-1, -1])

    def mode_trend(self):
        """The (mode count, constant) rows at the largest horizon, with their verdict.

        Returns ``(rows, verdict, slope)`` from :func:`classify_trend`, or
        ``(rows, "inconclusive", 0.0)`` when fewer than two truncations
        were swept.
        """
        rows = list(zip(self.mode_counts, self.constants[-1].tolist()))
        if len(rows) < 2:
            return rows, "inconclusive", 0.0
        verdict, slope = classify_trend(self.mode_counts, self.constants[-1])
        return rows, verdict, slope


def _normalize_q(q):
    if isinstance(q, str) and q.lower() == "inf":
        return math.inf
    value = None if isinstance(q, (bool, str)) or q is None else _real_array(q, "q").tolist()
    if value not in (1, 2, math.inf):
        raise ValueError(f"unsupported integrability exponent {q!r}; use 1, 2 or inf")
    return value


def admissibility_constant(sys, q, horizon) -> AdmissibilityEstimate:
    """The q-admissibility constant of the input map at one horizon.

    The one-system, one-horizon case of :func:`admissibility_trend`.
    """
    return admissibility_trend([sys], q, [horizon])


def admissibility_trend(systems, q, horizons) -> AdmissibilityEstimate:
    """Constants over a (horizon, mode count) sweep.

    The input space is scalar.  For q = 2 the constant is exact:
    ``sqrt(lambda_max(W_T))`` of the input Gramian, from each system's
    ``l2_input_constants``.  q = 1 and q = inf come from its
    ``lq_input_constants``: closed forms on diagonal systems, and on dense
    ones samples on a graded time grid up to the largest horizon, with the
    smaller horizons snapped onto its nodes.  Every system is passed the
    sweep's fastest rate, so the dense systems of a sweep share one grid.

    Monotonicity in T and N is exact for the Gramian: a larger T increases
    ``W_T`` in the Loewner order, and a leading truncation's Gramian is a
    leading principal block, so Cauchy interlacing orders the top
    eigenvalues.  On the grid, growing T appends columns.  The estimate
    refuses a sweep that repeats a horizon or a mode count.
    """
    q = _normalize_q(q)
    systems = sorted(systems, key=lambda s: s.dimension)
    horizons = sorted(_real_array(horizons, "horizons").tolist())
    if not systems or not horizons:
        raise ValueError("need at least one system and one horizon")
    if not all(0.0 < t < math.inf for t in horizons):
        raise ValueError("horizon must be positive and finite")
    rate = max(s.fastest_rate for s in systems)
    columns = [
        sys.l2_input_constants(horizons) if q == 2.0 else sys.lq_input_constants(q, horizons, rate)
        for sys in systems
    ]
    counts = tuple(s.dimension for s in systems)
    return AdmissibilityEstimate(q, tuple(horizons), counts, np.column_stack(columns))


@dataclass(frozen=True)
class IssVerdict:
    verdict: str
    reasons: tuple


def l2_iss_verdict(sys, estimate: AdmissibilityEstimate) -> IssVerdict:
    """Combine exponential stability with the constant trend over modes.

    Stability plus a bounded input-map constant at the estimate's exponent
    q is the criterion for ISS with L^q inputs (square-integrable ones at
    q = 2); a constant that keeps growing as modes are added signals its
    failure.
    """
    # Both constructors refuse a nonpositive spectral gap.
    reasons = [f"exponentially stable with spectral gap {sys.spectral_gap:.6g}"]
    if not np.any(sys.input_coeffs):
        reasons.append("zero input operator")
        return IssVerdict(verdict="ISS", reasons=tuple(reasons))
    rows, verdict, slope = estimate.mode_trend()
    if len(rows) < 2:
        reasons.append("single truncation only; no trend available")
        return IssVerdict(verdict="inconclusive", reasons=tuple(reasons))
    if verdict == "bounded":
        reasons.append(
            f"input-map constant levels off across modes (slope {slope:.3g}); "
            "stability plus bounded admissibility constant"
        )
        return IssVerdict(verdict="ISS", reasons=tuple(reasons))
    if verdict == "diverging":
        reasons.append(
            f"input-map constant grows with the truncation (slope {slope:.3g}); "
            "admissibility fails in the limit"
        )
        return IssVerdict(verdict="not-ISS", reasons=tuple(reasons))
    reasons.append(f"constant trend inconclusive (slope {slope:.3g})")
    return IssVerdict(verdict="inconclusive", reasons=tuple(reasons))
