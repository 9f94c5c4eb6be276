"""Quadratic Lyapunov certificates and admissibility diagnostics.

The package studies exponentially stable linear systems x' = Ax + Bu at
spectral-truncation scale: it constructs the square-function family of
quadratic Lyapunov candidates, classifies input operators through
extrapolation-space scans and empirical admissibility constants, fits
dissipation inequalities along exactly simulated mild solutions, and
renders the relationships between these properties as machine-checkable
implication reports.
"""

from .admissibility import (
    AdmissibilityEstimate,
    IssVerdict,
    OperatorClassReport,
    admissibility_constant,
    admissibility_trend,
    classify_trend,
    l2_iss_verdict,
    operator_class_scan,
)
from .analysis import AnalysisConfig, ConfigError, InvariantViolationError, run_analyze, run_simulate
from .dissipation import (
    DecompositionReport,
    DiniEstimate,
    DissipationReport,
    ExactCertificate,
    InputSignal,
    Trajectory,
    default_sample_cloud,
    dini_derivative,
    envelope_excess,
    exact_certificate,
    fit_dissipation,
    gain_ensemble,
    input_scaling_check,
    proof_decomposition,
    simulate_mild,
)
from .lyapunov import (
    ContractionReport,
    GainEnvelope,
    IndefiniteFormError,
    QuadraticForm,
    build_half_norm,
    build_v_half,
    build_w_plain,
    build_w_q,
    contraction_similarity,
)
from .models import (
    MODEL_NAMES,
    build_model,
    counterexample_system,
    heat_system,
)
from .rules import RuleError, RuleParseError, compile_rule, evaluate_rule
from .systems import (
    ConditioningError,
    DecayBound,
    DimensionMismatchError,
    MatrixSystem,
    SpectralSystem,
    decay_bound_estimate,
    extrapolation_norm,
    fractional_power_apply,
    semigroup_apply,
    system_from_config,
)

__version__ = "0.1.0"
