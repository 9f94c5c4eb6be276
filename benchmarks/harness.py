"""Closed-loop benchmark of the lyapcert CLI.

One client in one process calls ``lyapcert.cli.main(argv)`` in-process and
sends the next request only after the previous one returned.  A run repeats
rounds of whole passes over its workload's jobs (see ``workloads.py``) and
starts another round only while the run, extended by one more round of the
last round's length, stays within the requested seconds; every run makes at
least one round.

Every request writes its artifacts under a temporary directory inside the
benchmark's own directory, is checked against the workload's pinned
expectations, fingerprinted (sha256 of stdout and of every artifact) and
compared with the first request of the same job in the run, then deleted.

Untraced runs report the end-to-end metrics.  Traced runs (``trace=True``)
alternate untraced passes with passes that run with span wrappers installed
at the call sites of every layer, and report the per-layer metrics and the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import workloads
from tracing import CALL_SITES, LAYERS, ROOT, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no lyapcert sources)."""


def import_cli():
    """Import ``lyapcert.cli`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "lyapcert", "__init__.py")):
        raise SetupError(f"no lyapcert sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from lyapcert import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"lyapcert imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Request:
    job: str
    seconds: float
    exit_code: object
    reasons: list
    fingerprint: dict
    artifact_bytes: int
    traced: bool = False

    @property
    def failed(self):
        return bool(self.reasons)


@dataclass
class Loop:
    """Requests of one closed loop and the loop's wall time."""

    requests: list = field(default_factory=list)
    wall_s: float = 0.0
    rounds: int = 0

    def times(self, traced=False):
        return [r.seconds for r in self.requests if r.traced == traced]


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _fingerprint(out_dir, stdout):
    prints = {"stdout": _digest(stdout.encode("utf-8"))}
    total = 0
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        prints[name] = _digest(data)
        total += len(data)
    return prints, total


def run_request(main, job, out_dir, first_prints):
    """Send one request, check its output and fingerprint it; removes ``out_dir``."""
    argv = job.argv + ["--out", out_dir]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            exit_code = main(argv)
    except SystemExit as exc:
        exit_code = exc.code
    except Exception:  # a raising request is a failed request, not a harness crash
        exit_code = None
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    try:
        if error is not None:
            reasons = [f"raised: {error.strip().splitlines()[-1]}"]
        else:
            reasons = workloads.check_job(job, exit_code, out_dir)
        prints, size = _fingerprint(out_dir, stdout.getvalue())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    reference = first_prints.setdefault(job.name, prints)
    if prints != reference:
        changed = sorted(k for k in set(prints) | set(reference)
                         if prints.get(k) != reference.get(k))
        reasons.append(f"not byte-identical to the first request: {', '.join(changed)}")
    return Request(job.name, seconds, exit_code, reasons, prints, size)


def _one_pass(main, jobs, workdir, first_prints, loop, tracer=None):
    for job in jobs:
        if tracer is not None:
            tracer.request = len(loop.requests)
        request = run_request(main, job, os.path.join(workdir, "out"), first_prints)
        request.traced = tracer is not None
        loop.requests.append(request)


def closed_loop(main, jobs, seconds, workdir, first_prints, tracer=None):
    """Repeat rounds over ``jobs`` for about ``seconds``; at least one round.

    A round is one untraced pass; with a tracer it is followed by one traced
    pass, so that both halves see the same drift of the machine's speed.
    """
    loop = Loop()
    traced_main = tracer.wrap(ROOT, main) if tracer is not None else None
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        _one_pass(main, jobs, workdir, first_prints, loop)
        if tracer is not None:
            with tracer.installed():
                _one_pass(traced_main, jobs, workdir, first_prints, loop, tracer)
        loop.rounds += 1
        now = time.perf_counter()
        if (now - begin) + (now - round_start) > seconds:
            break
    loop.wall_s = time.perf_counter() - begin
    return loop


def tail(values):
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it, or None.

    With n sorted samples the value at rank n - 10 has ten samples beyond it;
    it sits at percentile 100 * (n - 10) / n.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def measure_setup(workload, seed, size):
    """Median wall time of a fresh interpreter importing lyapcert and building inputs."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, str(seed), size], check=True,
                       cwd=CHECKOUT, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(loop, setup):
    times = loop.times()
    failed = sum(r.failed for r in loop.requests)
    tail_stat = tail(times)
    if tail_stat is None:
        tail_metric = {"value": None, "unit": "s", "samples": len(times),
                       "note": f"too few samples: needs more than {TAIL_BEYOND}, "
                               f"have {len(times)}"}
    else:
        tail_metric = _metric(tail_stat[0], "s", len(times))
        tail_metric.update(percentile=tail_stat[1], beyond=TAIL_BEYOND)
    return {
        "request_s.p50": _metric(statistics.median(times), "s", len(times)),
        "request_s.tail": tail_metric,
        "requests_per_min": _metric(
            (len(times) - failed) * 60.0 / loop.wall_s, "1/min", len(times)),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "failed_ratio": _metric(failed / len(times), "ratio", len(times)),
        "setup_s": _metric(setup[0], "s", len(setup[1])),
    }


def per_layer(loop, tracer):
    """Per-request layer metrics of the traced passes, plus the tracing overhead."""
    traced_times = loop.times(traced=True)
    requests = len(traced_times)
    summary = tracer.summary(requests)
    metrics = {}
    for name, entry in summary["functions"].items():
        metrics[f"{name}.calls"] = _metric(entry["calls"], "count", requests)
        metrics[f"{name}.total_s"] = _metric(entry["total_s"], "s", requests)
    metrics["analysis.run_analyze.self_s"] = _metric(
        summary["functions"]["analysis.run_analyze"]["self_s"], "s", requests)
    metrics["admissibility.svd.elements"] = _metric(summary["svd_elements"], "count",
                                                    requests)
    metrics["analysis.artifact_bytes"] = _metric(
        statistics.mean(r.artifact_bytes for r in loop.requests if r.traced), "B", requests)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = _metric(summary["layer_self_s"][layer], "s",
                                                   requests)
    traced_p50 = statistics.median(traced_times)
    metrics["trace.request_s.p50"] = _metric(traced_p50, "s", requests)
    metrics["trace.overhead_ratio"] = _metric(
        traced_p50 / statistics.median(loop.times()), "ratio", requests)
    # Self times partition the root spans, so they account for the request time
    # up to the harness's own work around each cli.main call.
    metrics["trace.self_coverage"] = _metric(
        sum(summary["layer_self_s"].values()) * requests / sum(traced_times), "ratio",
        requests)
    return metrics, summary


def git_commit(root):
    """The commit a git checkout at ``root`` is on, read from ``.git``; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _proc_field(path, key):
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        return None
    return None


def environment(workload, seed, size, jobs):
    import numpy
    import scipy
    from lyapcert.analysis import AnalysisConfig

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sample_count = workloads.SIZES[size]["sample_count"] or AnalysisConfig().sample_count
    return {
        "git_commit": git_commit(CHECKOUT),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "client": "closed loop, 1 client, in-process cli.main",
        "workload": {
            "name": workload,
            "why": workloads.WHY[workload],
            "size": size,
            "sample_count": sample_count,
            "jobs": [{"name": j.name, "argv": j.argv, "modes": j.modes,
                      "exit_code": j.exit_code} for j in jobs],
        },
    }


def run(workload, seed, seconds, trace, size="full", results_dir=RESULTS_DIR,
        mutate_jobs=None):
    """One benchmark run; returns the results document.

    ``mutate_jobs`` lets a test corrupt an expectation to prove the checks trip.
    """
    cli = import_cli()
    setup = None if trace else measure_setup(workload, seed, size)
    tracer = Tracer() if trace else None
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        jobs = workloads.build_jobs(workload, seed, workdir, size)
        if mutate_jobs is not None:
            mutate_jobs(jobs)
        doc = {"environment": environment(workload, seed, size, jobs), "trace": bool(trace)}
        loop = closed_loop(cli.main, jobs, seconds, workdir, {}, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        doc["metrics"], summary = per_layer(loop, tracer)
        doc["call_sites"] = tracer.call_sites(len(loop.times(traced=True)))
        doc["wrapped"] = [list(site) for site in CALL_SITES]
        doc["spans"] = summary["spans"]
    else:
        doc["metrics"] = end_to_end(loop, setup)
        doc["setup_samples_s"] = setup[1]
    doc.update(
        attempted=len(loop.requests),
        failed=sum(r.failed for r in loop.requests),
        rounds=loop.rounds,
        loop_wall_s=loop.wall_s,
        requests=[{"job": r.job, "seconds": r.seconds, "exit_code": r.exit_code,
                   "traced": r.traced, "failed": r.failed, "reasons": r.reasons,
                   "artifact_bytes": r.artifact_bytes, "sha256": r.fingerprint}
                  for r in loop.requests],
    )
    if results_dir is not None:
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir, f"{workload}-seed{seed}" + ("-trace" if trace else ""))
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        if trace:
            tracer.save(stem + "-spans.npz")
        doc["results_file"] = stem + ".json"
    return doc


def format_metric(name, metric):
    value = metric["value"]
    if value is None:
        return f"{name} = n/a {metric['unit']} ({metric['note']})"
    extra = f", p{metric['percentile']:.4g}" if "percentile" in metric else ""
    shown = f"{value:.6g}" if isinstance(value, float) and math.isfinite(value) else value
    return f"{name} = {shown} {metric['unit']} (n={metric['samples']}{extra})"
