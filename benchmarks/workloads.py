"""Workload definitions: the requests each workload sends and the checks on them.

A workload is a list of jobs.  One pass of a workload runs every job once,
and one job is one ``lyapcert.cli.main(argv)`` call (one request).  Inputs
depend only on the benchmark seed; the program receives the generated argv
and, for the dense workload, a generated config file.

Every expectation pinned here is one that ROADMAP item 3 (certificates that
say what they certify) will not alter: exit codes, no violated edge, the
zoo slot values of acceptance criterion 10, and the headline verdicts of
the other workloads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Full sizes are the README sweeps; tiny sizes keep the harness tests fast.
# The counterexample's verdicts settle only at its README sweep, so its tiny
# size keeps those modes and cuts only the sample count.
SIZES = {
    "full": {"zoo": {"heat-neumann": "16,64,256", "heat-dirichlet": "16,64,256",
                     "counterexample": "64,128,256"},
             "wide": "256,1024,4096", "dense_n": 64, "scan": "64,128,256",
             "sample_count": None},
    "tiny": {"zoo": {"heat-neumann": "8,16,32", "heat-dirichlet": "8,16,32",
                     "counterexample": "64,128,256"},
             "wide": "8,16,32", "dense_n": 4, "scan": "64,128,256",
             "sample_count": 16},
}

WHY = {
    "zoo-certify": (
        "flagship verdict pipeline on the three registered models; ~95% of the time is "
        "many tiny dissipation calls (Dini quotients, mild steps) at N <= 256"
    ),
    "wide-diagonal": (
        "same pipeline at N up to 4096: dense N x N contraction similarity, long-vector "
        "dissipation calls, a 9 MB trajectory CSV and the peak memory"
    ),
    "dense-nonnormal": (
        "only workload on the dense realization: decay bounds with repeated "
        "matrix_neg_power and dense Dini steps through expm"
    ),
    "scan-only": (
        "admissibility-scan, the one command whose cost should shrink to the scan and "
        "constant stages; measures the admissibility layer and stage selection"
    ),
}

NAMES = tuple(WHY)


@dataclass
class Job:
    """One request: the argv passed to ``cli.main`` and what its output must show.

    ``expect`` maps a key path into the JSON document ``document`` (an
    artifact in the output directory) to its pinned value.  For
    ``report.json`` the ``edges`` list is indexed by edge id first.
    """

    name: str
    argv: list
    exit_code: int
    expect: dict
    modes: str
    document: str = "report.json"
    increasing_condition_numbers: bool = False


def dense_nonnormal_system(seed, n):
    """Non-normal Hurwitz matrix system with a scalar input, drawn from ``seed``.

    ``A = R/sqrt(n) - (alpha(R/sqrt(n)) + 0.5) I`` for a Gaussian ``R``,
    where ``alpha`` is the spectral abscissa, so the spectral gap is 0.5;
    ``b`` is a unit Gaussian column.
    """
    rng = np.random.default_rng([seed, n])
    r = rng.standard_normal((n, n)) / np.sqrt(n)
    a = r - (np.linalg.eigvals(r).real.max() + 0.5) * np.eye(n)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    return {"type": "matrix", "a": a.tolist(), "b": [[v] for v in b.tolist()],
            "label": "dense-nonnormal"}


def _write_config(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def _slot(name):
    return ("slots", name, "value")


def _scan(gamma):
    return ("slots", "gamma_scans", "value", gamma, "verdict")


def _edge(edge_id):
    return ("edges", edge_id)


NEUMANN = {_slot("exponentially_stable"): True, _slot("two_admissibility"): "bounded",
           _scan("0.5"): "bounded", _slot("coercive_quadratic_l2"): "certified",
           _slot("l2_iss"): "ISS"}
DIRICHLET = {_slot("two_admissibility"): "diverging",
             _slot("coercive_quadratic_l2"): "input-coefficient-diverging",
             _slot("noncoercive_w0"): "certified", _slot("l2_iss"): "not-ISS"}
COUNTEREXAMPLE = {
    _slot("two_admissibility"): "bounded",
    _scan("0.5"): "diverging",
    _edge("bounded-input-constant-does-not-imply-half-power-class"): "witnessed",
    _edge("stability-plus-bounded-input-constant-does-not-imply-contraction-similarity"):
        "not-checkable-at-finite-truncation",
}


def build_jobs(workload, seed, workdir, size="full"):
    """The jobs of one pass of ``workload``; writes any input files into ``workdir``."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    sizes = SIZES[size]
    seed = seed % 2**32  # numpy seeds must be nonnegative
    seed_args = ["--seed", str(seed)]
    sampling = []
    if sizes["sample_count"] is not None:
        sampling = ["--config", _write_config(os.path.join(workdir, "sampling.json"),
                                              {"sample_count": sizes["sample_count"]})]

    def model_job(name, command, model, modes, exit_code, expect, **extra):
        argv = [command, "--model", model, "--modes", modes] + seed_args + sampling
        return Job(name, argv, exit_code, expect, modes, **extra)

    if workload == "zoo-certify":
        zoo = sizes["zoo"]
        return [
            model_job("heat-neumann", "analyze", "heat-neumann", zoo["heat-neumann"], 0,
                      NEUMANN),
            model_job("heat-dirichlet", "analyze", "heat-dirichlet", zoo["heat-dirichlet"],
                      3, DIRICHLET),
            model_job("counterexample", "analyze", "counterexample", zoo["counterexample"],
                      0, COUNTEREXAMPLE, increasing_condition_numbers=True),
        ]
    if workload == "wide-diagonal":
        return [model_job("heat-neumann-wide", "analyze", "heat-neumann", sizes["wide"], 0,
                          {_slot("two_admissibility"): "bounded", _slot("l2_iss"): "ISS"})]
    if workload == "dense-nonnormal":
        n = sizes["dense_n"]
        doc = {"system": dense_nonnormal_system(seed, n)}
        if sizes["sample_count"] is not None:
            doc["sample_count"] = sizes["sample_count"]
        config = _write_config(os.path.join(workdir, "dense-nonnormal.json"), doc)
        return [Job("dense-nonnormal", ["analyze", "--config", config] + seed_args, 0,
                    {_slot("exponentially_stable"): True}, str(n))]
    return [model_job("counterexample-scan", "admissibility-scan", "counterexample",
                      sizes["scan"], 0,
                      {("constant_verdict",): "bounded", ("scans", "0.5", "verdict"): "diverging"},
                      document="admissibility.json")]


def _walk(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def check_job(job, exit_code, out_dir):
    """Reasons why the request's output misses its expectations (empty if none)."""
    reasons = []
    if exit_code != job.exit_code:
        reasons.append(f"exit code {exit_code}, expected {job.exit_code}")
    try:
        with open(os.path.join(out_dir, job.document), encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return reasons + [f"unreadable {job.document}: {exc}"]
    if isinstance(doc.get("edges"), list):
        doc["edges"] = {e["id"]: e["status"] for e in doc["edges"]}
        violated = sorted(k for k, v in doc["edges"].items() if v == "violated")
        if violated:
            reasons.append(f"violated edges: {', '.join(violated)}")
    for path, want in job.expect.items():
        try:
            got = _walk(doc, path)
        except (KeyError, TypeError):
            got = "<missing>"
        if got != want:
            reasons.append(f"{'.'.join(path)}={got!r}, expected {want!r}")
    if job.increasing_condition_numbers:
        try:
            conds = _walk(doc, ("slots", "contraction_similarity", "condition_numbers"))
        except (KeyError, TypeError):
            conds = []
        if not (len(conds) == len(job.modes.split(",")) and conds[-1][1] > conds[0][1]):
            reasons.append(f"condition numbers do not grow: {conds}")
    return reasons
