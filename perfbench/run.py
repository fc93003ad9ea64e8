"""Run one workload of the logchol benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload calls-m5 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout.  The last line of
standard output is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it holds the run's details: the
environment, derived paper ratios, sample counts, failures by kind and a
fingerprint of the inputs and outputs.  Exit code 0 on success, 2 when the
benchmark cannot run.
"""
import os
import sys

# BLAS threading changes timings several-fold on small machines; pin it
# before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")
                if k in deps}
    except (TypeError, KeyError):
        blas = {}
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def parse_args(argv=None):
    import bench

    p = argparse.ArgumentParser(description="logchol benchmark")
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "logchol" / "__init__.py").is_file():
        print(f"perfbench: no logchol package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (imported before set-up timing starts)
    import scipy.linalg  # noqa: F401
    import scipy.linalg.lapack  # noqa: F401

    import bench

    try:
        details, result = bench.run(
            src, args.workload, args.seed, args.seconds, bool(args.trace),
            ROOT / ".bench_build",
        )
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    details["environment"] = environment()
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
