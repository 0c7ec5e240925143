"""Command line interface.

    acdterm run -p FILE (-g TERM | -G FILE) [--max-steps N] [--trace]
                [--trace-out FILE] [--print-ids] [--format text|json-lines]
    acdterm check -p FILE
    acdterm oracle -p FILE (-g TERM | -G FILE) [--depth N] [--width N]

Exit codes: 0 normal form reached (or check passed), 2 step budget exhausted,
1 parse or usage error (a term nested too deeply for the recursive parser,
engine or printer, and a --max-steps, --depth or --width that is not a positive
integer included) or, for `oracle`, a goal beyond the oracle's size bounds.
Program and goal files are read as UTF-8, with or without a byte-order mark.
The final goal is printed to stdout; the trace goes to stderr or to
--trace-out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import oracle as oracle_mod
from .engine import BUDGET_EXHAUSTED, DEFAULT_MAX_STEPS, format_step, run, step_record
from .parser import ParseError, parse_program, parse_term
from .pretty import pretty
from .terms import canonical, strip


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8 ({exc.reason} at byte {exc.start})"
    raise SystemExit(f"acdterm: cannot read {path}: {reason}")


def _load_program(path: str):
    try:
        return parse_program(_read(path))
    except ParseError as exc:
        raise SystemExit(f"{path}:{exc}") from exc


def _load_goal(args):
    if args.goal is not None:
        source, origin = args.goal, "<goal>"
    else:
        source, origin = _read(args.goal_file), args.goal_file
    try:
        return parse_term(source)
    except ParseError as exc:
        raise SystemExit(f"{origin}:{exc}") from exc


def _positive(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _default_max_steps() -> int:
    env = os.environ.get("ACDTERM_MAX_STEPS")
    if env is not None:
        try:
            return _positive(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"acdterm: ignoring invalid ACDTERM_MAX_STEPS={env!r}", file=sys.stderr)
    return DEFAULT_MAX_STEPS


def _add_goal_options(sub):
    sub.add_argument("-p", "--program", required=True, metavar="FILE")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-g", "--goal", metavar="TERM")
    group.add_argument("-G", "--goal-file", metavar="FILE")


def _cmd_run(args) -> int:
    if args.max_steps is None:
        args.max_steps = _default_max_steps()
    program = _load_program(args.program)
    goal = _load_goal(args)
    out = sys.stderr
    if args.trace_out:
        try:
            out = open(args.trace_out, "w", encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"acdterm: cannot write {args.trace_out}: {exc.strerror}") from exc
    try:
        result = run(program, goal, max_steps=args.max_steps)
        if args.trace or args.trace_out:
            for ts in result.trace:
                if args.format == "json-lines":
                    print(json.dumps(step_record(ts)), file=out)
                else:
                    print(format_step(ts), file=out)
    finally:
        if args.trace_out:
            out.close()
    final = canonical(strip(result.final.goal))
    if args.print_ids:
        print(pretty(result.final.goal, print_ids=True))
    else:
        print(pretty(final))
    return 2 if result.status == BUDGET_EXHAUSTED else 0


def _cmd_check(args) -> int:
    program = _load_program(args.program)
    print(f"{args.program}: {len(program)} rules ok")
    return 0


def _cmd_oracle(args) -> int:
    program = _load_program(args.program)
    goal = _load_goal(args)
    try:
        result = oracle_mod.search_normal_forms(
            program, goal, depth=args.depth, width=args.width
        )
    except oracle_mod.OracleSizeError as exc:
        raise SystemExit(f"acdterm: oracle refused: {exc}")
    for nf in sorted(pretty(t) for t in result.normal_forms):
        print(nf)
    print(
        f"% explored {result.explored} states, truncated={str(result.truncated).lower()}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="acdterm",
        description="AC term rewriting with conjunctive-context and propagation rules",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="rewrite a goal to normal form")
    _add_goal_options(p_run)
    p_run.add_argument("--max-steps", type=_positive, default=None, metavar="N")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--trace-out", metavar="FILE")
    p_run.add_argument("--print-ids", action="store_true")
    p_run.add_argument("--format", choices=["text", "json-lines"], default="text")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="parse and validate a program")
    p_check.add_argument("-p", "--program", required=True, metavar="FILE")
    p_check.set_defaults(fn=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="exhaustive normal-form search (debugging)")
    _add_goal_options(p_oracle)
    p_oracle.add_argument("--depth", type=_positive, default=oracle_mod.DEFAULT_DEPTH, metavar="N")
    p_oracle.add_argument("--width", type=_positive, default=oracle_mod.DEFAULT_WIDTH, metavar="N")
    p_oracle.set_defaults(fn=_cmd_oracle)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error and exits 2, which here means
        # an exhausted step budget; -h exits 0
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except RecursionError:
        print("acdterm: term nested too deeply", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
