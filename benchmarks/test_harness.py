"""Tests of the benchmark harness at tiny sizes.

Run with ``python3 -m pytest benchmarks -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import workloads
from tracing import Tracer

RUN = os.path.join(harness.BENCH_DIR, "run.py")
TINY_SAMPLES = workloads.SIZES["tiny"]["sample_count"]


def _spec():
    with open(os.path.join(harness.CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run_cli(*args, cwd=harness.CHECKOUT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _run_cli("--workload", "scan-only", "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in spec}
    for entry in spec:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert any(line.startswith(f"{entry['name']} = ") and f" {entry['unit']} " in line
                   for line in lines[:-1]), entry["name"]
    if not trace:
        for name, unit in (("request_s.tail", "s"), ("failed_ratio", "ratio")):
            assert any(line.startswith(f"{name} = ") and f" {unit} " in line
                       for line in lines), name


def _counts(doc, name):
    return doc["metrics"][f"{name}.calls"]["value"]


def test_traced_counts_follow_the_structural_formula(tmp_path):
    doc = harness.run("zoo-certify", seed=3, seconds=1, trace=True, size="tiny",
                      results_dir=str(tmp_path))
    assert doc["failed"] == 0
    # Two forms (coercive, orbit energy) per truncation, three truncations.
    fits = 2 * 3
    # Sample states: the Gaussian cloud plus three coordinate probes, the
    # input direction and four input-aligned probes; five input levels each.
    dini = fits * 5 * (TINY_SAMPLES + 8)
    assert _counts(doc, "dissipation.fit_dissipation") == fits
    assert _counts(doc, "dissipation.dini_derivative") == dini
    # Seven step sizes per Dini quotient.
    assert _counts(doc, "dissipation.simulate_mild") == 7 * dini
    assert _counts(doc, "cli.main") == 1
    coverage = doc["metrics"]["trace.self_coverage"]["value"]
    assert 0.95 < coverage <= 1.0
    assert doc["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert os.path.isfile(str(tmp_path / "zoo-certify-seed3-trace-spans.npz"))


def test_dense_counts_follow_the_structural_formula(tmp_path):
    doc = harness.run("dense-nonnormal", seed=3, seconds=1, trace=True, size="tiny",
                      results_dir=str(tmp_path))
    assert doc["failed"] == 0
    # One system, two forms; three coordinate probes plus the input direction.
    dini = 2 * 5 * (TINY_SAMPLES + 4)
    assert _counts(doc, "dissipation.dini_derivative") == dini
    # Decay bounds at r = 0, 1/4, 1/2 on a 600-point grid, plus t = 0 for r = 0.
    assert _counts(doc, "systems.matrix_neg_power") == 3 * 600 + 1
    # One augmented expm per dense mild step, one per decay-bound grid point,
    # two per admissibility segment, one per trajectory-CSV step, plus one per
    # integrand evaluation of build_v_half's adaptive quadrature cross-check.
    quadrature = doc["call_sites"]["lyapunov.build_v_half -> systems.expm"]
    assert quadrature > 0
    assert _counts(doc, "systems.expm") == 7 * dini + (3 * 600 + 1) + 2 * 512 + 100 + quadrature


def test_tracer_self_times_partition_the_root_across_rewrapping():
    tracer = Tracer()
    for _ in range(2):  # every traced pass installs fresh wrappers
        inner = tracer.wrap("dissipation.inner", lambda: sum(range(20000)))
        outer = tracer.wrap("analysis.outer", lambda: inner() + inner())
        outer()
    summary = tracer.summary(requests=2)
    assert summary["functions"]["dissipation.inner"]["calls"] == 2
    assert summary["functions"]["analysis.outer"]["calls"] == 1
    assert tracer.call_sites(2) == {"harness -> analysis.outer": 1,
                                    "analysis.outer -> dissipation.inner": 2}
    assert sum(summary["layer_self_s"].values()) == pytest.approx(summary["root_s"])
    assert summary["layer_self_s"]["dissipation"] == pytest.approx(
        summary["functions"]["dissipation.inner"]["total_s"])


def test_wrong_expectation_is_counted_as_failed(tmp_path):
    def corrupt(jobs):
        jobs[0].exit_code = 4

    doc = harness.run("zoo-certify", seed=3, seconds=1, trace=False, size="tiny",
                      results_dir=str(tmp_path), mutate_jobs=corrupt)
    failed = [r for r in doc["requests"] if r["failed"]]
    assert doc["failed"] == len(failed) >= 1
    assert {r["job"] for r in failed} == {"heat-neumann"}
    assert "exit code 0, expected 4" in failed[0]["reasons"]
    assert doc["metrics"]["failed_ratio"]["value"] == doc["failed"] / doc["attempted"]


def test_same_seed_requests_are_byte_identical(tmp_path):
    doc = harness.run("wide-diagonal", seed=5, seconds=1, trace=True, size="tiny",
                      results_dir=str(tmp_path))
    prints = [r["sha256"] for r in doc["requests"]]
    assert len(prints) >= 2 and all(p == prints[0] for p in prints)
    assert set(prints[0]) == {"stdout", "report.json", "trends.csv", "trajectories.csv"}


def test_benchmark_spec_names_harness_workloads():
    for entry in _spec()["workloads"]:
        assert entry["why"] == workloads.WHY[entry["name"]]


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail([1.0] * 10) is None
    assert harness.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(harness.CHECKOUT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "scan-only",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
