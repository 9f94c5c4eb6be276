"""Command-line front end.

Subcommands: ``analyze``, ``simulate``, ``admissibility-scan``,
``lyapunov-eval``, ``selftest``; each takes only the flags it reads
(``COMMAND_FLAGS``), through a parser that ``main`` builds once per
process.  ``--seed`` is accepted everywhere so that one command line can
fix every output, although ``admissibility-scan`` and ``lyapunov-eval``
draw nothing at random.  Exit codes: 0 success, 2 configuration or usage
error, or a system or horizon refused as ill-conditioned
(``ConditioningError``), 3 an infeasibility finding (a result, not an
error), 4 invariant violation.
All numeric output is full double precision with '.' decimal separators
and LF line endings; a fixed seed makes outputs byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys as _sys

from . import models
from .analysis import (
    SCHEMA_VERSION,
    AnalysisConfig,
    ConfigError,
    InvariantViolationError,
    _family,
    _write_artifacts,
    admissibility_stages,
    run_analyze,
    run_simulate,
)
from .lyapunov import build_half_norm, build_v_half, build_w_plain, build_w_q
from .selftest import FAULT_TARGETS, run_selftest
from .systems import ConditioningError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FINDING = 3
EXIT_INVARIANT = 4


def _list_parser(kind, noun):
    """An argparse type for a comma-separated list of ``kind`` values."""

    def parse(text):
        try:
            return tuple(kind(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}")

    return parse


# Every subcommand flag and its argparse options.
FLAGS = {
    "--model": dict(choices=models.MODEL_NAMES, help="registered model name"),
    "--config": dict(metavar="PATH", help="JSON config file"),
    "--modes": dict(type=_list_parser(int, "integer"), help="comma list of truncation sizes"),
    "--gamma": dict(dest="gammas", metavar="GAMMA", type=_list_parser(float, "float"),
                    help="comma list of scan exponents"),
    "--q": dict(type=float, help="input integrability exponent: 1, 2 or inf"),
    "--horizon": dict(type=float, help="admissibility horizon T"),
    "--seed": dict(type=int, help="random seed (fixes all outputs)"),
    "--out": dict(dest="out_dir", metavar="DIR", help="output directory"),
    "--delta-override": dict(type=float, help="decay-rate override inside the spectral gap"),
}

# The flags each subcommand reads; every one takes the first five.
COMMON_FLAGS = ("--model", "--config", "--modes", "--seed", "--out")
COMMAND_FLAGS = {
    "analyze": COMMON_FLAGS + ("--gamma", "--q", "--horizon", "--delta-override"),
    "simulate": COMMON_FLAGS + ("--delta-override",),
    "admissibility-scan": COMMON_FLAGS + ("--gamma", "--q", "--horizon"),
    "lyapunov-eval": COMMON_FLAGS,
}


def _build_config(args) -> AnalysisConfig:
    config = AnalysisConfig.from_file(args.config) if args.config else AnalysisConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(AnalysisConfig)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(config, **overrides)


def _cmd_analyze(args) -> int:
    config = _build_config(args)
    report, artifacts = run_analyze(config)
    print(f"system: {report['system']}  modes: {report['modes']}")
    for name, slot in sorted(report["slots"].items()):
        value = slot.get("value")
        if isinstance(value, dict):
            value = {k: v.get("verdict") for k, v in value.items()}
        print(f"  slot {name}: {value}")
    for edge in report["edges"]:
        print(f"  edge {edge['id']}: {edge['status']}")
    for finding in report["findings"]:
        print(f"  finding: {finding}")
    for kind, path in artifacts.items():
        print(f"wrote {kind}: {path}")
    return EXIT_FINDING if report["findings"] else EXIT_OK


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    doc, artifacts = run_simulate(config)
    envelope = doc["envelope"]
    print(
        f"gain envelope: overshoot {envelope['overshoot']!r}, rate {envelope['rate']!r}, "
        f"gain {envelope['gain']!r}, certified {doc['certified']}"
    )
    for kind, path in sorted(artifacts.items()):
        print(f"wrote {kind}: {path}")
    if not doc["certified"]:
        raise InvariantViolationError(
            f"an ensemble node exceeds the exact envelope by a relative {doc['max_violation']!r}"
        )
    return EXIT_OK


def _cmd_admissibility_scan(args) -> int:
    config = _build_config(args)
    label, _, slots, _, findings = admissibility_stages(config)
    scans = slots["gamma_scans"]["value"]
    adm, q_slot = slots["two_admissibility"], slots.get("q_admissibility")
    verdict_doc = {
        "schema": SCHEMA_VERSION,
        "system": label,
        "q": f"{config.q:g}",
        "scans": scans,
        "constants": adm["constants"],
        "constant_verdict": adm["value"],
        "l2_iss": slots["l2_iss"],
    }
    if q_slot:
        verdict_doc["q_admissibility"] = q_slot
    artifacts = _write_artifacts(config.out_dir, {"verdicts": ("admissibility.json", verdict_doc)})
    for kind, path in artifacts.items():
        print(f"wrote {kind}: {path}")
    for gamma, entry in sorted(scans.items(), key=lambda kv: float(kv[0])):
        print(f"  gamma={gamma}: {entry['verdict']} (exponent {entry['exponent']:.4g})")
    print(f"  q=2.0: {adm['value']}")
    print(f"  verdict: {slots['l2_iss']['value']}")
    if q_slot:
        print(f"  q={config.q}: {q_slot['value']}")
        print(f"  verdict at q={config.q}: {q_slot['lq_iss']['value']}")
    return EXIT_FINDING if findings else EXIT_OK


def _cmd_lyapunov_eval(args) -> int:
    config = _build_config(args)
    label, family = _family(config)
    sys = family[-1]
    forms = {
        "v_half": build_v_half(sys),
        "half_norm": build_half_norm(sys),
        "w_quarter": build_w_q(sys, 0.25),
        "w_plain": build_w_plain(sys),
    }
    doc = {
        "schema": SCHEMA_VERSION,
        "system": label,
        "modes": sys.dimension,
        "forms": {
            name: dict(form.to_config(), a1=form.a1, a2=form.a2)
            for name, form in forms.items()
        },
    }
    artifacts = _write_artifacts(config.out_dir, {"forms": ("forms.json", doc)})
    for kind, path in artifacts.items():
        print(f"wrote {kind}: {path}")
    if not artifacts:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    ok = run_selftest(seed=args.seed, fault=args.fault)
    print("selftest: all invariants hold" if ok else "selftest: FAILURES above")
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapcert",
        description=(
            "Quadratic Lyapunov certificates and admissibility diagnostics for "
            "stable linear systems at spectral-truncation scale."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "analyze": (_cmd_analyze, "full analysis with implication report"),
        "simulate": (_cmd_simulate, "exact ISS gain envelope, falsified on a trajectory ensemble"),
        "admissibility-scan": (
            _cmd_admissibility_scan, "extrapolation scans and empirical constants"
        ),
        "lyapunov-eval": (_cmd_lyapunov_eval, "construct and serialize the candidate forms"),
    }
    for name, (func, text) in commands.items():
        command = sub.add_parser(name, help=text)
        for flag in COMMAND_FLAGS[name]:
            command.add_argument(flag, **FLAGS[flag])
        command.set_defaults(func=func)

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument(
        "--fault", choices=FAULT_TARGETS, help="deliberately corrupt one check"
    )
    p_self.set_defaults(func=_cmd_selftest)
    return parser


_parser = functools.cache(build_parser)  # main's, built once: parsing leaves no state in it


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConditioningError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=_sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
