import errno
import json
import os
import pathlib
import subprocess
import sys

import pytest

from acdterm import ac_equal, cli, engine, parse_term
from acdterm.cli import main

PROGRAMS = pathlib.Path(__file__).parent / "programs"
LEQ_GOAL = "leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"


def prog(name):
    return str(PROGRAMS / name)


def cli_process(argv, stdout, **options):
    """Run the command line in a fresh interpreter with stdout on the given
    descriptor; returns (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "acdterm.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
        **options,
    )
    return proc.returncode, proc.stderr.decode()


def test_run_leq_prints_false(capsys):
    code = main(
        ["run", "-p", prog("leq.acd"), "-g", "leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "false"


def test_run_unify_reaches_solved_form(capsys):
    code = main(
        ["run", "-p", prog("unify.acd"), "-g", "X = Y /\\ f(f(X)) = X /\\ Y = f(f(f(Y)))"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert ac_equal(parse_term(out), parse_term("X = Y /\\ Y = f(Y) /\\ true"))


def test_run_empty_program_echoes_goal(capsys):
    code = main(["run", "-p", prog("empty.acd"), "-g", "a"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "a"


def test_run_goal_file(tmp_path, capsys):
    goal_file = tmp_path / "goal.term"
    goal_file.write_text("not_one(A) /\\ one(A)\n", encoding="utf-8")
    code = main(["run", "-p", prog("one_subst.acd"), "-G", str(goal_file)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert ac_equal(parse_term(out), parse_term("(A = 1) /\\ false"))


def test_budget_exhaustion_exit_code(capsys):
    code = main(["run", "-p", prog("loop.acd"), "-g", "f(a)", "--max-steps", "5"])
    assert code == 2
    assert capsys.readouterr().out.strip() == "f(a)"


def test_env_var_max_steps(monkeypatch, capsys):
    monkeypatch.setenv("ACDTERM_MAX_STEPS", "3")
    code = main(["run", "-p", prog("loop.acd"), "-g", "f(a)", "--trace"])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.strip().splitlines()) == 3


def test_invalid_env_var_max_steps_falls_back(monkeypatch, capsys):
    budgets = []

    def recording(program, goal, max_steps):
        budgets.append(max_steps)
        return engine.run(program, goal, max_steps)

    monkeypatch.setattr(cli, "run", recording)
    monkeypatch.setenv("ACDTERM_MAX_STEPS", "abc")
    assert main(["run", "-p", prog("empty.acd"), "-g", "a"]) == 0
    assert budgets == [engine.DEFAULT_MAX_STEPS]
    assert "ignoring invalid ACDTERM_MAX_STEPS='abc'" in capsys.readouterr().err


def test_parse_error_exit_code_and_location(tmp_path, capsys):
    bad = tmp_path / "bad.acd"
    bad.write_text("rule @ f(X <=> a.\n", encoding="utf-8")
    code = main(["run", "-p", str(bad), "-g", "a"])
    captured = capsys.readouterr()
    assert code == 1
    assert "bad.acd:1:" in captured.err


def test_goal_parse_error(capsys):
    code = main(["run", "-p", prog("empty.acd"), "-g", "f(a"])
    assert code == 1
    assert "<goal>" in capsys.readouterr().err


def test_trace_text_to_stderr(capsys):
    code = main(
        ["run", "-p", prog("leq.acd"), "-g", "leq(a,a)", "--trace"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "#1 simplify reflexivity" in captured.err


def test_trace_json_lines_round_trip(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    code = main(
        [
            "run",
            "-p",
            prog("leq.acd"),
            "-g",
            "leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)",
            "--trace-out",
            str(trace_file),
            "--format",
            "json-lines",
        ]
    )
    assert code == 0
    lines = trace_file.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 6
    for n, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert set(rec) == {"n", "kind", "rule", "path", "ids", "goal"}
        assert rec["n"] == n
        assert isinstance(rec["path"], list)
        parse_term(rec["goal"])  # goal field must be re-parseable


def test_print_ids(capsys):
    code = main(["run", "-p", prog("empty.acd"), "-g", "f(a,b)", "--print-ids"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "f(a#1,b#2)#3"


def test_check_subcommand(capsys):
    assert main(["check", "-p", prog("leq.acd")]) == 0
    assert "8 rules" in capsys.readouterr().out


def test_check_rejects_bad_program(tmp_path, capsys):
    bad = tmp_path / "bad.acd"
    bad.write_text("f(X) <=> var(Y) | X.\n", encoding="utf-8")
    assert main(["check", "-p", str(bad)]) == 1
    assert "Y" in capsys.readouterr().err


def test_oracle_subcommand(capsys):
    code = main(
        ["oracle", "-p", prog("one_subst.acd"), "-g", "not_one(A) /\\ one(A)"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert ac_equal(parse_term(captured.out.strip()), parse_term("(A = 1) /\\ false"))
    assert "truncated=false" in captured.err


def test_oracle_refuses_oversized_goal(capsys):
    goal = " /\\ ".join(f"leq({x},{y})" for x, y in zip("abcdefghi", "bcdefghij"))
    assert main(["oracle", "-p", prog("leq.acd"), "-g", goal]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "acdterm: oracle refused: goal size 35 exceeds bound 28"


def test_missing_program_file(capsys):
    assert main(["run", "-p", "no_such.acd", "-g", "a"]) == 1
    assert "no_such.acd" in capsys.readouterr().err


def test_unwritable_trace_out(tmp_path, capsys):
    target = tmp_path / "missing" / "t"
    code = main(["run", "-p", prog("empty.acd"), "-g", "a", "--trace-out", str(target)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"acdterm: cannot write {target}:" in err
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_trace_out_write_failure():
    argv = ["run", "-p", prog("leq.acd"), "-g", LEQ_GOAL, "--trace-out", "/dev/full"]
    code, err = cli_process(argv, subprocess.DEVNULL)
    assert code == 1
    assert err.splitlines() == [f"acdterm: cannot write /dev/full: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.parametrize(
    "argv, target",
    [
        (["run", "-p", prog("leq.acd"), "-g", LEQ_GOAL], "<stdout>"),
        (["run", "-p", prog("leq.acd"), "-g", LEQ_GOAL, "--trace-out", "/dev/stdout"], "/dev/stdout"),
        (["oracle", "-p", prog("leq.acd"), "-g", LEQ_GOAL], "<stdout>"),
        (["-h"], "<stdout>"),
        (["run", "-h"], "<stdout>"),
    ],
    ids=["run", "trace_out_stdout", "oracle", "help", "run_help"],
)
def test_closed_stdout(argv, target):
    # a pipe whose reader has gone: every write to it fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = cli_process(argv, write_end)
    finally:
        os.close(write_end)
    assert code == 1
    assert err.splitlines() == [f"acdterm: cannot write {target}: {os.strerror(errno.EPIPE)}"]


def test_stdout_closed_at_start():
    # the interpreter starts without a descriptor 1, so it has no sys.stdout
    argv = ["run", "-p", prog("leq.acd"), "-g", LEQ_GOAL]
    code, err = cli_process(argv, None, preexec_fn=lambda: os.close(1))
    assert code == 1
    assert err.splitlines() == [f"acdterm: cannot write <stdout>: {os.strerror(errno.EBADF)}"]


def test_deeply_nested_goal(tmp_path, capsys):
    goal_file = tmp_path / "deep.goal"
    goal_file.write_text("f(" * 600 + "a" + ")" * 600 + "\n", encoding="utf-8")
    code = main(["run", "-p", prog("empty.acd"), "-G", str(goal_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_invalid_max_steps(capsys):
    code = main(["run", "-p", prog("empty.acd"), "-g", "a", "--max-steps", "0"])
    assert code == 1
    for option, value in (("--depth", "-1"), ("--width", "0")):
        code = main(["oracle", "-p", prog("empty.acd"), "-g", "a", option, value])
        assert code == 1
        assert f"argument {option}: must be a positive integer" in capsys.readouterr().err


def test_byte_order_mark_files(tmp_path, capsys):
    program = tmp_path / "bom.acd"
    program.write_bytes(b"\xef\xbb\xbfr @ a <=> b.\n")
    goal = tmp_path / "bom.goal"
    goal.write_bytes(b"\xef\xbb\xbfa\n")
    assert main(["run", "-p", str(program), "-g", "a"]) == 0
    assert capsys.readouterr().out.strip() == "b"
    assert main(["run", "-p", prog("empty.acd"), "-G", str(goal)]) == 0
    assert capsys.readouterr().out.strip() == "a"


def test_unreadable_utf8_files(tmp_path, capsys):
    bad = tmp_path / "bad.acd"
    bad.write_bytes(b"\xff\xfe r @ a <=> b.\n")
    for argv in (
        ["run", "-p", str(bad), "-g", "a"],
        ["run", "-p", prog("empty.acd"), "-G", str(bad)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"acdterm: cannot read {bad}: not valid UTF-8" in err
        assert "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    # 2 is the exit code of an exhausted step budget
    assert main(["run", "-g", "a"]) == 1
    assert main(["run", "-p", prog("empty.acd"), "-g", "a", "--max-steps", "x"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main(["-h"]) == 0
    assert "usage:" in capsys.readouterr().out
