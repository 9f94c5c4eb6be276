"""Orchestration: full-system analyses and the implication report.

``run_analyze`` sweeps one system family over truncation sizes, collects
extrapolation-space scans, empirical admissibility constants, Lyapunov
certificates and the contraction-similarity diagnostics, and renders the
result as a machine-checkable report: verdict slots plus a list of
implication edges.  Edges that are theorems must never come out violated;
a violation aborts the run.  Diverging certificates are not errors but
findings, reported with their trends.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import models
from .admissibility import (
    _normalize_q,
    admissibility_trend,
    classify_trend,
    l2_iss_verdict,
    operator_class_scan,
)
from .dissipation import (
    ENVELOPE_RTOL,
    default_sample_cloud,
    envelope_excess,
    exact_certificate,
    fit_dissipation,
    gain_ensemble,
    simulate_mild,
)
from .lyapunov import (
    GainEnvelope,
    build_half_norm,  # not called here; benchmarks/tracing.py wraps this binding
    build_v_half,
    build_w_plain,
    build_w_q,
    contraction_similarity,
)
from .systems import _is_number, decay_bound_estimate, system_from_config

__all__ = [
    "AnalysisConfig",
    "ConfigError",
    "InvariantViolationError",
    "admissibility_stages",
    "run_analyze",
    "run_simulate",
]

SCHEMA_VERSION = "1"

# W_q exponents whose lower constants (lam_N^(2q-1)/2 on diagonal systems) a
# sweep tabulates; a family of one has no lower-constant trend to show.
COERCIVITY_POWERS = (0.0, 0.25, 0.5)

# What each exponent's admissibility constant is, per input exponent q.
CONSTANT_PROVENANCE = {
    2.0: "square root of the largest eigenvalue of the input Gramian at the horizon",
    1.0: "peak kernel norm ||T(tau) b|| over the horizon: ||b|| on diagonal systems, "
    "a graded-grid maximum on dense ones",
    math.inf: "aligned-sign worst bounded input || int |T(tau) b| dtau ||: closed form "
    "on diagonal systems, graded-grid segments on dense ones",
}


# What each term of the ISS envelope ``M e^(-delta t)||x0|| + g ||u||_{L2(0,t)}`` is.
ENVELOPE_PROVENANCE = {
    "overshoot": "r = 0 decay prefactor: exactly 1 on diagonal systems, a grid maximum on dense ones",
    "rate": "decay rate delta: the delta override, by default half the spectral gap",
    "gain": "K2(inf) = sqrt(lambda_max(W_inf)) of the infinite-horizon input Gramian",
    "certified": f"no ensemble node exceeds the envelope by more than a relative {ENVELOPE_RTOL:g}",
}


class ConfigError(ValueError):
    """The analysis configuration cannot be used."""


class InvariantViolationError(RuntimeError):
    """A theorem edge came out violated; the run must fail."""


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AnalysisConfig:
    """Inputs of one analysis run, read from a JSON config file and CLI flags.

    Every field is a config key.  ``system`` and ``sample_count`` have no
    flag; every other field is a flag of the subcommands that read it
    (``cli.COMMAND_FLAGS``), while every subcommand checks a config file
    whole.  The dense grid size, the sample input levels and the trend
    thresholds are module constants.

    Construction is the one check of the fields, so a config from a file,
    from CLI overrides or from library code is refused the same way, with
    :class:`ConfigError`.  ``modes`` and ``gammas`` become tuples, a
    repeated gamma is kept once, at its first place, an integral float mode
    becomes an int, and ``q`` becomes the float 1.0, 2.0 or inf however it
    was given.  Bools are refused wherever a number is required.  Naming
    neither a model nor a system is allowed here, since CLI flags may still
    supply one; the stages refuse it.
    """

    model: str | None = None
    system: dict | None = None
    modes: tuple = (8, 16, 32, 64)
    gammas: tuple = (0.25, 0.375, 0.5, 0.75)
    q: float = 2.0
    horizon: float = 10.0
    seed: int = 0
    delta_override: float | None = None
    sample_count: int = 200
    out_dir: str | None = None

    def __post_init__(self):
        if self.model is not None and not isinstance(self.model, str):
            raise ConfigError("model must be a model name")
        if self.system is not None and not isinstance(self.system, dict):
            raise ConfigError("system must be a JSON object")
        if self.model is not None and self.system is not None:
            raise ConfigError("give either a model name or an inline system, not both")
        for key in ("modes", "gammas"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ConfigError(f"{key} must be a list")
        if not self.modes or not all(
            (_is_count(n) or isinstance(n, float) and n.is_integer()) and n >= 1
            for n in self.modes
        ):
            raise ConfigError("modes must be positive integers")
        object.__setattr__(self, "modes", tuple(int(n) for n in self.modes))
        if not all(_is_number(g) and 0 <= g < math.inf for g in self.gammas):
            raise ConfigError("gammas must be finite and nonnegative")
        object.__setattr__(self, "gammas", tuple(dict.fromkeys(self.gammas)))
        try:
            object.__setattr__(self, "q", _normalize_q(self.q))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if not _is_number(self.horizon) or not 0 < self.horizon < math.inf:
            raise ConfigError("horizon must be finite and positive")
        if not _is_count(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.delta_override is not None and not _is_number(self.delta_override):
            raise ConfigError("delta_override must be a number")
        if not _is_count(self.sample_count) or self.sample_count < 1:
            raise ConfigError("sample_count must be a positive integer")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a path")

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(doc)


def _family(config: AnalysisConfig):
    """The swept truncations described by the config, smallest first.

    The largest truncation is built once: from a registered model, or from
    the inline system document, whose rules are evaluated at the largest
    size.  Its ``truncations`` are the family: leading sections of it, so
    nested by construction, or, for a matrix document, the one dense system.
    """
    modes = sorted(set(config.modes))
    if config.model is None and config.system is None:
        raise ConfigError("config needs a model name or an inline system")
    try:
        if config.model is not None:
            largest = models.build_model(config.model, modes[-1])
        else:
            largest = system_from_config(config.system, modes=modes[-1])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    family = largest.truncations(modes)
    if not family:
        raise ConfigError(
            f"the explicit sequences provide only {largest.dimension} modes; "
            "no requested truncation size fits"
        )
    return largest.label, family


def _write_artifacts(out_dir, artifacts):
    """Write ``{kind: (file name, content)}`` into ``out_dir``; returns ``{kind: path}``.

    A dict is written as indented JSON with sorted keys and a trailing LF,
    a ``(header, rows)`` pair as CSV, where floats keep their ``repr`` and
    ``None`` is an empty field.  Rows given as a float64 array are joined
    from the ``repr`` of each entry, the CSV writer's bytes without its
    per-field work; a field is formatted only where its bits differ from the
    field above it.  A NaN or infinity in a dict (JSON has no such token) is
    refused before any file is opened.  Without ``out_dir`` nothing is written.
    """
    if not out_dir:
        return {}
    documents = {kind: json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
                 for kind, (_, content) in artifacts.items() if isinstance(content, dict)}
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for kind, (name, content) in artifacts.items():
        paths[kind] = os.path.join(out_dir, name)
        with open(paths[kind], "w", encoding="utf-8", newline="") as handle:
            if kind in documents:
                handle.write(documents[kind])
            else:
                header, rows = content
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                if isinstance(rows, np.ndarray):
                    if rows.dtype != np.float64:  # the bit view below is float64's
                        raise TypeError(f"numeric rows must be float64, not {rows.dtype}")
                    bits, fields = rows.view(np.uint64), [""] * rows.shape[1]
                    for i, row in enumerate(bits):
                        changed = np.flatnonzero(row != bits[i - 1]) if i else np.arange(row.size)
                        for k, value in zip(changed.tolist(), rows[i, changed].tolist()):
                            fields[k] = repr(value)
                        handle.write(",".join(fields) + "\n")
                else:
                    writer.writerows(rows)
    return paths


def _certificate_trend(label, family, builder, certify, rows):
    """Certify ``builder(sys)`` across the family with ``certify(form, sys)``; returns the slot."""
    a3_values, a4_values, feasible = [], [], True
    for sys in family:
        form = builder(sys)
        report = certify(form, sys)
        provenance = form.provenance
        if report.infeasible:
            feasible = False
            a3_values.append(0.0)
            a4_values.append(None)
            continue
        a3_values.append(report.a3)
        a4_values.append(report.a4)
        rows.append((label, provenance, "certificate_a3", "", sys.dimension, None, report.a3))
        rows.append((label, provenance, "certificate_a4", "", sys.dimension, None, report.a4))
    counts = [s.dimension for s in family]
    if not feasible:
        status = "infeasible"
    elif len(family) >= 2:
        verdict, _ = classify_trend(counts, a4_values)
        status = "certified" if verdict == "bounded" else f"input-coefficient-{verdict}"
    else:
        status = "certified-single-truncation"
    return {
        "value": status,
        "a3": [[n, v] for n, v in zip(counts, a3_values)],
        "a4": [[n, v] for n, v in zip(counts, a4_values)],
        "certificate": report.to_config(),
        "provenance": f"dissipation certificate for the {provenance}",
    }


def _bridge(scans, config):
    """``(g_star, bridged, threshold)`` of the exponent bridge at input exponent ``config.q``.

    ``g_star`` is the smallest scan exponent whose verdict is bounded (or
    None), ``bridged`` the :func:`_scan_premise` of the requested gammas
    strictly below ``1 - 1/q``, and ``threshold`` names that bound in words.
    """
    g_star = min((float(g) for g, e in scans.items() if e["verdict"] == "bounded"), default=None)
    limit = 1.0 - 1.0 / config.q
    threshold = "one half" if config.q == 2 else f"1 - 1/q = {limit:g}"
    return g_star, _scan_premise(scans, [g for g in config.gammas if g < limit]), threshold


def _tri(value, yes):
    """Slot value as True (starts with ``yes``), None (inconclusive) or False."""
    return True if value.startswith(yes) else None if "inconclusive" in value else False


def _scan_premise(scans, gammas):
    # True if the scan at one of ``gammas`` is bounded; else None (unknown)
    # if one is inconclusive or did not run, else False.
    verdicts = {scans.get(f"{g:g}", {}).get("verdict") for g in gammas}
    return True if "bounded" in verdicts else None if verdicts - {"diverging"} else False


def _theorem(premise, conclusion, iff):
    """Status of a theorem edge from a tri-state premise and conclusion."""
    if premise is False and not iff:
        return "vacuous"
    if premise is None or conclusion is None:
        return "inconclusive"
    return "holds" if premise == conclusion else "violated"


def _check_edges(slots, config):
    """Evaluate the six implication edges against the filled slots, one row each.

    Three theorems, through :func:`_theorem`: the admissibility criterion
    (an iff, at q = 2), the exponent bridge at input exponent ``config.q``
    (a bounded scan at some gamma < 1 - 1/q implies bounded q-constants) and
    the half-power construction; a violated one aborts the run, and a scan
    premise that no scan decides is unknown.  The orbit-energy edge is an
    observation, the crossed edge is witnessed or not, and the similarity
    obstruction is not checkable at finite N.
    """
    stable, scans = slots["exponentially_stable"]["value"], slots["gamma_scans"]["value"]
    adm, iss = slots["two_admissibility"]["value"], slots["l2_iss"]["value"]
    coercive = slots["coercive_quadratic_l2"]["value"]
    noncoercive = slots["noncoercive_w0"]["value"]
    adm_q = slots.get("q_admissibility", slots["two_admissibility"])["value"]
    g_star, bridged, threshold = _bridge(scans, config)
    half_premise = _scan_premise(scans, [g for g in config.gammas if f"{g:g}" == "0.5"])
    half = scans["0.5"]["verdict"] if "0.5" in scans else None
    unknown = "a scan there is inconclusive" if scans else "a scan needs three truncations"
    witnessed = adm == "bounded" and half == "diverging"
    rows = [
        ("stability-plus-bounded-input-constant-iff-l2-iss",
         _theorem(_tri(adm, "bounded") and stable, _tri(iss, "ISS"), iff=True),
         f"stable={stable}, constants {adm}, verdict {iss}",
         "admissibility criterion for square-integrable inputs"),
        ("weakened-class-below-half-implies-bounded-input-constant",
         _theorem(bridged, _tri(adm_q, "bounded"), iff=False),
         f"bounded scan at gamma={g_star} and constants {adm_q}" if bridged else
         f"no bounded scan strictly below {threshold} at these truncations" if bridged is False
         else f"no bounded scan strictly below {threshold}: {unknown}",
         "sufficient admissibility exponent bridge q > 2/(1+2p)"),
        ("half-power-class-implies-coercive-certificate",
         _theorem(half_premise, _tri(coercive, "certified"), iff=False),
         f"half-power scan bounded and coercive certificate {coercive}" if half_premise else
         f"half-power scan {half}; the hypothesis fails" if half_premise is False and half else
         "no scan at gamma = 1/2 requested" if half_premise is False else
         f"no bounded scan at gamma = 1/2: {unknown}",
         "self-adjoint coercive construction from the half squared norm"),
        ("noncoercive-orbit-energy-certificate",
         "holds" if _tri(noncoercive, "certified") else "not-observed",
         f"orbit-energy certificate {noncoercive}",
         "non-coercive family from the plain orbit energy"),
        ("bounded-input-constant-does-not-imply-half-power-class",
         "witnessed" if witnessed else "not-witnessed-here",
         "bounded empirical constants with a diverging half-power scan" if witnessed else
         "this family does not witness the non-implication",
         "dyadic counterexample: the implication arrow is crossed out"),
        ("stability-plus-bounded-input-constant-does-not-imply-contraction-similarity",
         "not-checkable-at-finite-truncation",
         "every truncation admits a similarity scalar product; its distortion trend is "
         f"{slots['contraction_similarity']['condition_numbers']}",
         "obstruction lives only in the infinite-dimensional limit"),
    ]
    edges = [dict(zip(("id", "status", "detail", "provenance"), row)) for row in rows]
    violated = [e["id"] for e in edges if e["status"] == "violated"]
    if violated:
        raise InvariantViolationError(f"theorem edge(s) reported violated: {', '.join(violated)}")
    return edges


def admissibility_stages(config: AnalysisConfig):
    """The stability, scan, input-constant and ISS stages of one family.

    Returns ``(label, family, slots, rows, findings)``: the slots
    ``exponentially_stable``, ``gamma_scans``, ``two_admissibility`` and
    ``l2_iss``, their ``trends.csv`` rows, and one finding per not-ISS
    verdict.  The last two slots are always at q = 2; at ``config.q`` of 1
    or inf the slot ``q_admissibility`` adds that exponent's constants,
    verdict and ``lq_iss`` verdict.  ``run_analyze`` builds on them;
    ``admissibility-scan`` reports them alone.
    """
    label, family = _family(config)
    rows = []

    slots = {}
    gap = min(sys.spectral_gap for sys in family)
    if config.delta_override is not None and not 0.0 < config.delta_override < gap:
        raise ConfigError(
            f"delta override must lie strictly inside the spectral gap (0, {gap:.6g})"
        )
    slots["exponentially_stable"] = {
        "value": bool(gap > 0.0),
        "spectral_gap": gap,
        "provenance": "positive spectral gap of the generator",
    }

    scans = {}
    if len(family) >= 3:
        for gamma in config.gammas:
            try:
                scan = operator_class_scan(family, gamma)
            except OverflowError as exc:
                raise ConfigError(str(exc)) from None
            scans[f"{gamma:g}"] = {
                "verdict": scan.verdict,
                "exponent": scan.growth_exponent,
                "norms": [[n, v] for n, v in zip(scan.mode_counts, scan.norms)],
            }
            for n, v in zip(scan.mode_counts, scan.norms):
                rows.append((label, "extrapolation", "class_scan_norm", f"{gamma:g}", n, None, v))
    g_star, bridged, threshold = _bridge(scans, config)
    if bridged:
        bridge = (
            f"membership at exponent {g_star:g} implies admissibility for every "
            f"input-integrability exponent above {1.0 / (1.0 - g_star):.6g} "
            f"(bridge 2/(1+2p) with p = 1/2 - {g_star:g})"
        )
    elif g_star is not None:
        bridge = (
            f"weakened-class membership observed from exponent {g_star:g} on; "
            f"the sufficient bridge needs an exponent strictly below {threshold}"
        )
    else:
        bridge = "no bounded scan at these truncations; bridge not applicable"
    slots["gamma_scans"] = {
        "value": scans,
        "exponent_bridge": bridge,
        "provenance": "extrapolation norms of the input column across truncations",
    }

    findings = []
    for q in dict.fromkeys((2.0, config.q)):
        estimate = admissibility_trend(family, q, [config.horizon])
        trend_rows, adm_verdict, adm_slope = estimate.mode_trend()
        constants = {
            "value": adm_verdict,
            "slope": adm_slope,
            "constants": [[n, v] for n, v in trend_rows],
            "provenance": CONSTANT_PROVENANCE[q],
        }
        for n, v in trend_rows:
            rows.append((label, "input-map", "admissibility_constant", f"{q:g}", n, config.horizon, v))
        verdict = l2_iss_verdict(family[-1], estimate)
        iss = {"value": verdict.verdict, "reasons": list(verdict.reasons)}
        if q == 2.0:
            slots["two_admissibility"] = constants
            slots["l2_iss"] = dict(iss, provenance="stability combined with the constant trend")
        else:
            slots["q_admissibility"] = dict(constants, q=f"{q:g}", lq_iss=iss)
        if verdict.verdict == "not-ISS":
            prefix = "" if q == 2.0 else f"q={q:g} "
            findings.append(f"{prefix}input-map constants diverge across truncations")
    return label, family, slots, rows, findings


def run_analyze(config: AnalysisConfig):
    """Full analysis of one family; returns (report dict, artifact paths)."""
    label, family, slots, rows, findings = admissibility_stages(config)
    largest = family[-1]

    def fitted(form, sys):  # the sampled fit on the default cloud
        cloud = default_sample_cloud(sys, form, count=config.sample_count, seed=config.seed)
        return fit_dissipation(form, sys, cloud)

    slots["coercive_quadratic_l2"] = _certificate_trend(label, family, build_v_half, fitted, rows)
    slots["noncoercive_w0"] = _certificate_trend(
        label, family, build_w_plain, exact_certificate, rows
    )

    condition_numbers = []
    for sys in family:
        _, similarity = contraction_similarity(sys)
        condition_numbers.append([sys.dimension, similarity.condition_number])
    slots["contraction_similarity"] = {
        "value": "not checkable at finite N",
        "condition_numbers": condition_numbers,
        "provenance": "similarity scalar product exists for every truncation; "
        "only its distortion trend is informative",
    }

    edges = _check_edges(slots, config)

    for slot_name in ("coercive_quadratic_l2", "noncoercive_w0"):
        status = slots[slot_name]["value"]
        if not status.startswith("certified"):
            findings.append(f"{slot_name}: {status}")

    report = {
        "schema": SCHEMA_VERSION,
        "system": label,
        "modes": [sys.dimension for sys in family],
        "seed": config.seed,
        "horizon": config.horizon,
        "slots": slots,
        "edges": edges,
        "findings": findings,
    }

    header = ["system", "label", "quantity", "gamma_or_q", "N", "T", "value"]
    files = {"report": ("report.json", report), "trends": ("trends.csv", (header, rows))}
    if config.out_dir:  # these rows and the step response are computed only to be written
        for q_power in COERCIVITY_POWERS if len(family) >= 2 else ():
            for sys in family:
                form = build_w_q(sys, q_power)
                rows.append(
                    (label, form.provenance, "coercivity_lower", f"{q_power:g}",
                     sys.dimension, None, form.a1)
                )
        for bound in decay_bound_estimate(largest, (0.0, 0.25, 0.5), delta=config.delta_override):
            rows.append(
                (label, f"decay rate {bound.rate:g}", "decay_prefactor", f"{bound.power:g}",
                 largest.dimension, None, bound.prefactor)
            )
        rows.extend(
            (label, "similarity", "condition_number", "", n, None, value)
            for n, value in condition_numbers
        )
        t_end = min(config.horizon, max(1.0, 4.0 / largest.spectral_gap))
        grid = np.linspace(0.0, t_end, 101)
        response = simulate_mild(largest, np.zeros(largest.dimension), 1.0, grid)
        files["trajectories"] = ("trajectories.csv", _trajectory_table(response))
    return report, _write_artifacts(config.out_dir, files)


def _trajectory_table(traj):
    """CSV header and rows of a trajectory: the time, every state coordinate, the input."""
    header = ["t"] + [f"mode_{k}" for k in range(1, traj.states.shape[1] + 1)] + ["u"]
    return header, np.column_stack([traj.times, traj.states, traj.input.value_at(traj.times)])


def run_simulate(config: AnalysisConfig):
    """The exact ISS envelope of the largest truncation, falsified on :func:`gain_ensemble`.

    ``||x(t)|| <= M e^(-delta t)||x0|| + g ||u||_{L2(0,t)}`` with ``delta``
    the decay rate (``delta_override``, by default half the gap), ``M`` the
    r = 0 decay prefactor at ``delta`` and ``g = K2(inf)``.  ``certified``
    says that no ensemble node exceeds the envelope beyond rounding.
    """
    label, family = _family(config)
    sys = family[-1]
    try:
        decay = decay_bound_estimate(sys, [0.0], delta=config.delta_override)[0]
    except ValueError as exc:  # a delta outside the spectral gap
        raise ConfigError(str(exc)) from None
    envelope = GainEnvelope(decay.prefactor, decay.rate, sys.l2_input_constants([math.inf])[0])
    ensemble = gain_ensemble(sys, config.seed)
    worst = float(envelope_excess(envelope, ensemble).max())
    doc = {
        "schema": SCHEMA_VERSION,
        "system": label,
        "modes": sys.dimension,
        "seed": config.seed,
        "certified": worst <= ENVELOPE_RTOL,
        "max_violation": worst,
        "envelope": dataclasses.asdict(envelope),
        "provenance": ENVELOPE_PROVENANCE,
    }
    files = {"gainfit": ("gainfit.json", doc)}
    if config.out_dir:  # the trajectory tables are built only to be written
        for index, traj in enumerate(ensemble):
            kind = f"trajectory_{index:02d}"
            files[kind] = (f"{kind}.csv", _trajectory_table(traj))
    return doc, _write_artifacts(config.out_dir, files)
