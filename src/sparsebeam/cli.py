"""Command-line entry point.

    sparsebeam solve        --config run.ini --out results/
    sparsebeam sweep        --config run.ini --out results/
    sparsebeam locking      --config run.ini --out results/ [--jobs 1]
    sparsebeam convergence  --config run.ini --out results/ [--jobs 1]

Exit codes: 0 success, 1 usage or configuration error, 2 non-convergence.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import (
    COLUMNS,
    provenance_lines,
    run_convergence,
    run_locking,
    run_solve,
    run_sweep,
    write_csv,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 like a config error: argparse's 2 means non-convergence here
        raise ConfigError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsebeam",
        description="Sparse box-constrained optimal control of a static "
                    "Timoshenko beam (locking-free FEM + semismooth Newton).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "single solve; writes u/w/theta/p/q fields and a summary"),
        ("sweep", "warm-started solves over the [study] etas list"),
        ("locking", "error grid over (scheme, thickness, n)"),
        ("convergence", "errors and fitted rates against a fine reference"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("locking", "convergence"):
            # no effect: kept only because the benchmark harness passes --jobs 1
            p.add_argument("--jobs", type=int, default=1, choices=[1],
                           help="accepted only as 1, which the benchmark harness passes")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config)
        out = Path(args.out)
        try:  # before any solve, so a bad --out costs no study
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc

        if args.command == "solve":
            res = run_solve(cfg, out)
            return 0 if res.converged else 2

        if args.command == "sweep":
            rows = run_sweep(cfg)
        elif args.command == "locking":
            rows = run_locking(cfg)
        else:
            rows, slopes = run_convergence(cfg)
            write_csv(out / "convergence_slopes.csv", ["quantity", "slope"],
                      sorted(slopes.items()), provenance_lines(cfg))
        columns = COLUMNS[args.command]
        write_csv(out / f"{args.command}.csv", columns, [[r[c] for c in columns] for r in rows],
                  provenance_lines(cfg))
        return 0 if all(r["converged"] for r in rows) else 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
