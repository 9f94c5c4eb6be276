"""Benchmark of the lyapcert CLI: one command, every metric, checked outputs.

    python3 benchmarks/run.py --workload zoo-certify --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced loop.  Every metric is printed with its unit;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics ``BENCHMARK.json`` lists for that mode.  Full results (the
environment stamp, every request's timing, check outcome and artifact
sha256) go to ``benchmarks/results/``.  ``--workload all`` runs each
workload in its own fresh process.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must precede numpy's import."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def contract_metrics(doc, trace):
    """The metrics ``BENCHMARK.json`` names for this mode, as value and unit only."""
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for entry in wanted:
        metric = doc["metrics"][entry["name"]]
        if metric["unit"] != entry["unit"] or metric["value"] is None:
            raise RuntimeError(f"metric {entry['name']} does not match BENCHMARK.json")
        out[entry["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return out


def run_all(args, names):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {workload} exited with {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    # Turn SIGTERM into SystemExit so the temporary output directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cap_blas_threads()
    import harness  # numpy is imported from here on

    names = harness.workloads.NAMES
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(harness.workloads.SIZES), default="full",
                        help="tiny sizes exist for the harness's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    try:
        doc = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size)
    except harness.SetupError as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  rounds {doc['rounds']}  "
          f"results {os.path.relpath(doc['results_file'], CHECKOUT)}")
    for name, metric in sorted(doc["metrics"].items()):
        print(harness.format_metric(name, metric))
    for record in doc["requests"]:
        if record["failed"]:
            print(f"FAILED {record['job']}: {'; '.join(record['reasons'])}")
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": contract_metrics(doc, args.trace),
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
