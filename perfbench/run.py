"""End-to-end benchmark of the Megh reproduction.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload megh-planetlab --seed 0 \\
        --seconds 40 --trace 0

Workloads: ``megh-planetlab``, ``mmt-planetlab`` and ``megh-churn`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the result as one JSON object, the line before it
the run's metadata.  ``--smoke`` shrinks every fleet for a quick check.
The exit code is 0 only when every step ran and passed the output check.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Workload names, in the order BENCHMARK.json lists them.
WORKLOAD_NAMES = ("megh-planetlab", "mmt-planetlab", "megh-churn")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: scenarios.DEFAULT_SEED)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="host seconds to measure, set-ups included",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny fleets, for the tests"
    )
    return parser.parse_args(argv)


def configure_environment() -> None:
    """Fix what ``repro`` and NumPy read from the environment at import."""
    os.environ["REPRO_CONTRACTS"] = "0"
    # One BLAS thread: at most nproc, and no pool competing with the run.
    for variable in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
    ):
        os.environ[variable] = "1"
    # The compiled kernel is cached, and compiled, inside the checkout.
    build_dir = os.path.join(ROOT, ".bench_build")
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(build_dir, "repro-kern")
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    configure_environment()
    sys.path.insert(0, SRC)
    import measure

    return measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )


if __name__ == "__main__":
    raise SystemExit(main())
