"""Command-line experiment driver.

Usage::

    logchol <interpolate|mean|bench-transport|stability|mean-gap>
            [--metric NAME] [--m INT] [--steps INT] [--reps INT]
            [--trials INT] [--seed INT] [--input PATH] [--out PATH]
            [--format json|csv] ...

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys

from . import experiments as ex
from .baselines import METRIC_NAMES
from .report import ExperimentReport, GlyphRecord
from .sampling import random_spd
from .tri import LogCholError, load_matrices

EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logchol", description="SPD geometry experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="report output format",
        )

    p = sub.add_parser("interpolate", help="geodesic interpolation determinant study")
    p.add_argument("--metric", choices=METRIC_NAMES, default="log-cholesky")
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--input", help="fixture file with the two endpoint matrices")
    add_io(p)

    p = sub.add_parser("mean", help="mean determinant identity study")
    p.add_argument("--metric", choices=METRIC_NAMES, default="log-cholesky")
    p.add_argument("--input", help="fixture file with the input matrices")
    p.add_argument("--n", type=int, default=20, help="random inputs when no fixture")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_io(p)

    p = sub.add_parser("bench-transport", help="parallel transport timing comparison")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add_io(p)

    p = sub.add_parser("stability", help="ill-conditioning stability study")
    p.add_argument("--kappa", type=float, default=1e10)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_io(p)

    p = sub.add_parser("mean-gap", help="Log-Cholesky vs affine-invariant mean gap")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_io(p)

    return parser


def _emit(report: ExperimentReport, args, glyphs: list[GlyphRecord] | None = None):
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
        if glyphs is not None:
            with open(args.out + ".glyphs.jsonl", "w", encoding="utf-8") as fh:
                for g in glyphs:
                    fh.write(g.to_json() + "\n")
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))
        if glyphs is not None:
            for g in glyphs:
                sys.stdout.write(g.to_json() + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "interpolate":
            endpoints = None
            fixture = "builtin"
            if args.input:
                mats = load_matrices(args.input)
                if len(mats) != 2:
                    parser.error("--input fixture must contain exactly two matrices")
                endpoints = (mats[0], mats[1])
                fixture = args.input
            report, glyphs = ex.run_interpolate(
                args.metric, args.steps, endpoints, fixture
            )
            _emit(report, args, glyphs)
        elif args.command == "mean":
            if args.input:
                mats = load_matrices(args.input)
                if not mats:
                    parser.error("--input fixture contains no matrices")
                inputs = {"fixture": args.input}
            else:
                if args.n < 1 or args.m < 1:
                    parser.error("--n and --m must be >= 1")
                rng = ex.seeded_rng(args.seed)
                mats = [random_spd(rng, args.m) for _ in range(args.n)]
                inputs = {
                    "seed": args.seed,
                    "spd_law": "A A^T + 1e-3 I, A standard normal",
                }
            report = ex.run_mean(args.metric, mats, inputs)
            _emit(report, args)
        elif args.command == "bench-transport":
            _emit(ex.run_bench_transport(args.m, args.reps, args.seed), args)
        elif args.command == "stability":
            _emit(ex.run_stability(args.kappa, args.m, args.seed), args)
        elif args.command == "mean-gap":
            _emit(ex.run_mean_gap(args.n, args.m, args.trials, args.seed), args)
    except ex.ParameterError as exc:
        parser.error(str(exc))
    except LogCholError as exc:
        print(f"logchol: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
