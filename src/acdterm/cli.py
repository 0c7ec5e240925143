"""Command line interface.

    acdterm run -p FILE (-g TERM | -G FILE) [--max-steps N] [--trace]
                [--trace-out FILE] [--print-ids] [--format text|json-lines]
    acdterm check -p FILE
    acdterm oracle -p FILE (-g TERM | -G FILE) [--depth N] [--width N]

Exit codes: 0 normal form reached (or check passed), 2 step budget exhausted,
1 parse or usage error (a term nested too deeply for the recursive parser,
engine or printer, and a --max-steps, --depth or --width that is not a positive
integer included), for `oracle` a goal beyond the oracle's size bounds, or a
trace, result, usage or help text that cannot be written (a full disk, a closed
pipe or stream).
Program and goal files are read as UTF-8, with or without a byte-order mark.
The final goal is printed to stdout; the trace goes to stderr or to
--trace-out. A failed write prints `acdterm: cannot write TARGET: REASON` to
stderr, if stderr can still take it.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
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


def _emit(target: str, out, lines) -> None:
    """Print lines to out and flush it; a failed write exits 1 naming target.

    A standard stream that failed is pointed at os.devnull, so that the
    interpreter's last flush of what it still holds succeeds; a file that
    failed is closed, dropping what it holds.
    """
    try:
        if out is None:  # the stream was closed when the program started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        for line in lines:
            print(line, file=out)
        out.flush()
    except OSError as exc:
        if out is sys.stdout or out is sys.stderr:
            if out is not None:
                with open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), out.fileno())
        else:
            with contextlib.suppress(OSError):
                out.close()
        raise SystemExit(f"acdterm: cannot write {target}: {exc.strerror}") from None


def _warn(message: str) -> None:
    """One line to stderr, dropped if stderr cannot take it."""
    with contextlib.suppress(SystemExit):
        _emit("<stderr>", sys.stderr, [message])


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
            _warn(f"acdterm: ignoring invalid ACDTERM_MAX_STEPS={env!r}")
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
    target, out = "<stderr>", sys.stderr
    if args.trace_out:
        target = args.trace_out
        try:
            out = open(target, "w", encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"acdterm: cannot write {target}: {exc.strerror}") from exc
    try:
        result = run(program, goal, max_steps=args.max_steps)
        if args.trace or args.trace_out:
            render = format_step
            if args.format == "json-lines":
                render = lambda ts: json.dumps(step_record(ts))
            _emit(target, out, map(render, result.trace))
    finally:
        if args.trace_out:
            out.close()
    if args.print_ids:
        final = pretty(result.final.goal, print_ids=True)
    else:
        final = pretty(canonical(strip(result.final.goal)))
    _emit("<stdout>", sys.stdout, [final])
    return 2 if result.status == BUDGET_EXHAUSTED else 0


def _cmd_check(args) -> int:
    program = _load_program(args.program)
    _emit("<stdout>", sys.stdout, [f"{args.program}: {len(program)} rules ok"])
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
    _emit("<stdout>", sys.stdout, sorted(pretty(t) for t in result.normal_forms))
    summary = f"% explored {result.explored} states, truncated={str(result.truncated).lower()}"
    _emit("<stderr>", sys.stderr, [summary])
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage, help and errors are written by `_emit`."""

    def _print_message(self, message, file=None):
        if message:
            out = file or sys.stderr
            target = "<stdout>" if out is sys.stdout else "<stderr>"
            _emit(target, out, [message.removesuffix("\n")])


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
        return args.fn(args)
    except RecursionError:
        _warn("acdterm: term nested too deeply")
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            _warn(exc.code)
            return 1
        # argparse has printed the usage error and exits 2, which here means
        # an exhausted step budget; -h exits 0
        return 1 if exc.code else 0


if __name__ == "__main__":
    sys.exit(main())
