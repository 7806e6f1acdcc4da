"""Command-line interface: analyze, simulate, selftest.

Exit codes: 0 ok, 1 usage error (including an output path that cannot be
written), 2 corpus error, 3 selftest failure. Only ``selftest`` loads the
verification suite.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .corpus import CorpusError
from .report import DEFAULT_METHODS, RunConfig, run_analyze, run_simulate
from .simulation import DEFAULT_EXPONENTS

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# A grid of more points than this is rejected before any point is built.
_MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    """start:stop:step, inclusive of stop (within 1e-9 of a step); every
    point is rounded to 10 decimals, and the rounded points must be
    distinct and no greater than stop, with none non-zero before rounding
    and 0 after it (a zero exponent is another model)."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:step, got {text!r}"
        ) from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(
            f"grid start, stop and step must be finite, got {text!r}"
        )
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    steps = (stop - start) / step + 1e-9
    if steps >= _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has more than {_MAX_GRID_POINTS} points"
        )
    points = [start + k * step for k in range(int(steps) + 1)]
    values = [round(point, 10) for point in points]
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(
            f"grid {text!r} repeats points when rounded to 10 decimals"
        )
    if values[-1] > stop:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} passes its stop when rounded to 10 decimals"
        )
    zeroed = [point for point, value in zip(points, values) if point and not value]
    if zeroed:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} rounds its point {zeroed[0]!r} to 0 at 10 decimals"
        )
    return values


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers, none empty and none repeated."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"{text!r} repeats a value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entangletext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # analyze flags default to absent, so RunConfig holds every default
    analyze = sub.add_parser(
        "analyze", help="run the corpus analysis end to end", argument_default=argparse.SUPPRESS
    )
    analyze.add_argument("manifest", type=Path, help="corpus manifest JSON")
    analyze.add_argument(
        "--out", type=Path, required=True, dest="out_dir", metavar="OUT", help="output directory"
    )
    analyze.add_argument(
        "--window",
        type=int,
        action="append",
        dest="window_sizes",
        metavar="W",
        help=f"window size; repeatable (default: {' '.join(map(str, RunConfig.window_sizes))})",
    )
    analyze.add_argument(
        "--relevance",
        choices=DEFAULT_METHODS,
        action="append",
        dest="methods",
        help="relevance method; repeatable (default: all)",
    )
    analyze.add_argument(
        "--stoplist", type=Path, dest="stoplist_path", metavar="STOPLIST", help="custom stoplist file"
    )
    analyze.add_argument(
        "--no-stem", action="store_false", dest="stemming", help="disable Porter stemming"
    )
    analyze.add_argument(
        "--top-violations",
        type=int,
        help=f"violating subset pairs kept per result JSON (default {RunConfig.top_violations})",
    )
    analyze.add_argument(
        "--k",
        type=int,
        dest="concept_size",
        metavar="K",
        help=f"terms per concept, at least 4 (default {RunConfig.concept_size})",
    )

    simulate = sub.add_parser("simulate", help="Monte-Carlo violation-probability curves")
    simulate.add_argument(
        "--kind", choices=("zipf", "homogeneous", "poisson"), default="zipf"
    )
    simulate.add_argument(
        "--lambda-grid",
        type=_parse_grid,
        metavar="A:B:STEP",
        help="zipf exponent grid, --kind zipf only "
        f"(default {DEFAULT_EXPONENTS[0]}, {DEFAULT_EXPONENTS[1]}, ..., {DEFAULT_EXPONENTS[-1]})",
    )
    simulate.add_argument(
        "--mu-grid",
        type=_parse_grid,
        metavar="A:B:STEP",
        help="poisson mean grid, --kind poisson only (default: B/10 per bound)",
    )
    simulate.add_argument(
        "--B",
        type=_parse_int_list,
        default=[10, 50, 100, 500],
        dest="bounds",
        metavar="B1,B2,...",
        help="support bounds (default 10,50,100,500)",
    )
    simulate.add_argument("--samples", type=int, default=10_000)
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--out", type=Path, required=True, help="curve CSV path")

    sub.add_parser("selftest", help="run the embedded verification suite")
    return parser


def _run(args) -> str:
    """Run analyze or simulate; returns the line that reports the result."""
    if args.command == "analyze":
        options = vars(args)
        del options["command"]
        config = RunConfig(**options)
        reports = run_analyze(config)
        return f"analyzed {len(reports)} topics -> {config.out_dir}"
    grids = {"zipf": args.lambda_grid, "poisson": args.mu_grid}
    for kind, flag in (("zipf", "--lambda-grid"), ("poisson", "--mu-grid")):
        if grids[kind] is not None and args.kind != kind:
            raise ValueError(f"{flag} applies only to --kind {kind}")
    curves = run_simulate(
        args.kind, grids.get(args.kind), args.bounds, args.samples, args.seed, args.out
    )
    return f"wrote {len(curves.estimates)} grid points -> {args.out}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_selftest

        results = run_selftest()
        return 0 if all(r.passed for r in results) else 3
    try:
        summary = _run(args)
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's MemoryError names the failed allocation; Python's own is blank
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
