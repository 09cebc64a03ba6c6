"""Command-line entry point.

    cmcheck program.imp [--config NAME | --pipeline FILE]
            [--condition K=V ...] [--input-automaton F]
            [--out-dir D] [--emit json]

Exit codes: 0 = TRUE, 1 = FALSE, 2 = CONDITION, 3 = usage or input error,
4 = internal error (a crash, which must not read as a verdict).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import driver, lang
from .assumptions import AutomatonMismatch

EXIT_CODES = {"TRUE": 0, "FALSE": 1, "CONDITION": 2}
EXIT_USAGE = 3
EXIT_INTERNAL_ERROR = 4


def load_program(path: str) -> lang.Cfa:
    text = Path(path).read_text()
    try:
        if path.endswith(".cfa"):
            return lang.parse_cfa(text)
        return lang.parse_program(text)
    except lang.ParseError as exc:
        raise lang.ParseError(exc.message, exc.line, exc.col, path) from None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which would read as CONDITION."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="cmcheck",
        description="Conditional model checker: always reports a condition "
                    "under which the program is safe.")
    p.add_argument("program", help="program file (.imp mini-language or .cfa)")
    p.add_argument("--config", help="named configuration (default: predicate)")
    p.add_argument("--pipeline", help="JSON pipeline file")
    p.add_argument("--condition", action="append", default=[], metavar="K=V",
                   help="condition threshold, e.g. path-length=7, repeat-loc=3, "
                        "assume-edges=20, busy-edge=1000, reached-size=50000, "
                        "soft-time=15s, fuel=100000, pf-atoms=4096")
    p.add_argument("--input-automaton", metavar="F",
                   help="assumption automaton restricting this run")
    p.add_argument("--order", choices=["dfs", "bfs"], help="waitlist order")
    p.add_argument("--overflow", action="store_true",
                   help="enable the overflow-monitoring analysis")
    p.add_argument("--out-dir", metavar="D", help="directory for result files")
    p.add_argument("--emit", action="append", default=[], choices=["json"],
                   help="also write stats.jsonl")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        print(f"cmcheck: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


def _run(args) -> int:
    try:
        cfa = load_program(args.program)
        overrides = {}
        if args.input_automaton:
            overrides["input_automaton"] = args.input_automaton
        if args.order:
            overrides["order"] = args.order
        if args.overflow:
            overrides["overflow"] = True
        pipeline = driver.parse_config(
            config_name=args.config,
            pipeline_file=args.pipeline,
            condition_flags=args.condition,
            overrides=overrides,
        )
        final = driver.run_pipeline(cfa, pipeline)
        if args.out_dir:
            driver.emit_report(final, args.out_dir, json_stats="json" in args.emit)
    except AutomatonMismatch as exc:
        print(f"cmcheck: error: automaton {args.input_automaton!r} does not "
              f"belong to program {args.program!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (lang.ParseError, ValueError, OSError) as exc:
        print(f"cmcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(final.verdict)
    last = final.last_report
    if last is not None:
        if final.verdict == "FALSE" and last.error_description:
            print(f"violated: {last.error_description}")
        for stage in final.stages:
            print(f"  stage {stage.name}: {stage.verdict} ({stage.seconds:.3f}s)")
    return EXIT_CODES.get(final.verdict, 3)


if __name__ == "__main__":
    sys.exit(main())
