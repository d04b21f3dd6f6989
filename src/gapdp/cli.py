"""Command-line entry point: ``gapdp <experiment> [options]``.

Exit codes: 0 on success, 1 on configuration errors, 2 on data errors
(unreadable/malformed dataset, unwritable output path).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .audit import AuditError
from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, emit, run_experiment
from .queries import ParseError

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


def _parse_int_range(text: str) -> tuple[int, ...]:
    """Parse 'N', 'N..M' (inclusive) or 'N,M,...' into a tuple of ints."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.strip().split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gapdp",
        description="Run gap-releasing differential-privacy experiments.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    data = parser.add_mutually_exclusive_group()
    data.add_argument("--dataset", help="transaction file (one item-ID list per line)")
    data.add_argument(
        "--synthetic",
        default="",
        help="synthetic query spec, e.g. n=200,step=100,base=1000,order=shuffle,mono=1",
    )
    parser.add_argument("--eps", default="0.7", help="privacy budget(s), e.g. 0.7 or 0.3,0.7,1.5")
    parser.add_argument("--k", default="10", help="k value(s): N, N..M or comma list")
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", default="laplace", choices=["laplace", "exp", "geo"])
    parser.add_argument("--theta", type=float, default=None,
                        help="budget split override (default: optimal for the setting)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json"])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it found it.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = ExperimentConfig(
            experiment=args.experiment,
            eps=_parse_float_list(args.eps),
            k=_parse_int_range(args.k),
            trials=args.trials,
            seed=args.seed,
            noise=args.noise,
            dataset=args.dataset,
            synthetic=args.synthetic,
            theta=args.theta,
        )
    except (ConfigError, ValueError) as exc:
        print(f"gapdp: config error: {exc}", file=sys.stderr)
        return 1
    try:
        results = run_experiment(cfg)
    except (ConfigError, AuditError) as exc:
        print(f"gapdp: config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"gapdp: data error: {exc}", file=sys.stderr)
        return 2
    try:
        text = emit(results, args.fmt, args.out)
    except OSError as exc:
        print(f"gapdp: data error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
