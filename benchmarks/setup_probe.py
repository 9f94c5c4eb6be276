"""Set-up cost of one CLI invocation, timed from outside by the harness.

Imports lyapcert (with numpy and scipy) in this fresh interpreter and builds
the workload's inputs, then exits.  Usage:

    python3 benchmarks/setup_probe.py WORKLOAD SEED SIZE
"""

import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main(workload, seed, size):
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
    import lyapcert.cli  # noqa: F401  (the import is the cost being measured)
    import workloads

    work = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=work)
    try:
        workloads.build_jobs(workload, int(seed), workdir, size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(*sys.argv[1:4])
