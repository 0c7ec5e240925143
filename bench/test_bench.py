"""Tests of the benchmark itself: python3 -m pytest bench"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import acdterm.engine
import run
import speed
import tracer
import workloads
from acdterm.terms import App, Var


def goals_of(name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name]()
    return workload, workload.setup(seed, workdir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_goals(name, tmp_path):
    _, first = goals_of(name, 7, tmp_path / "a")
    _, again = goals_of(name, 7, tmp_path / "b")
    _, other = goals_of(name, 8, tmp_path / "c")
    assert [g.src for g in first] == [g.src for g in again]
    assert [g.src for g in first] != [g.src for g in other]


def answer_of(workload, goal):
    outcome = workload.run_goal(goal, run.Timer())
    assert outcome.finished
    return outcome.answer


def test_leq_check_rejects_corrupted_normal_form(tmp_path):
    workload, goals = goals_of("leq_cycle", 3, tmp_path)
    goal = goals[0]
    answer = answer_of(workload, goal)
    assert workload.check(goal, answer)
    x = sorted(goal.expect)
    self_loop = App("/\\", answer.args + (App("leq", (Var(x[0]), Var(x[0]))),))
    leqs = [a for a in answer.args if a.functor == "leq"]
    flipped = App("leq", tuple(reversed(leqs[0].args)))
    symmetric = App("/\\", answer.args + (flipped,))
    no_equations = App("/\\", tuple(a for a in answer.args if a.functor != "="))
    for corrupted in (self_loop, symmetric, no_equations):
        assert not workload.check(goal, corrupted)


def test_unify_check_rejects_corrupted_normal_form(tmp_path):
    workload, goals = goals_of("unify_chain", 3, tmp_path)
    goal = goals[0]
    answer = answer_of(workload, goal)
    assert workload.check(goal, answer)
    anchor = workloads.UNIFY_ANCHOR
    assert not workload.check(goal, answer.replace(anchor, "f(a)"))
    first, rest = answer.split(" /\\ ", 1)
    assert not workload.check(goal, rest)
    lhs = first.split(" = ")[0]
    assert not workload.check(goal, f"{lhs} = {lhs} /\\ {rest}")
    assert not workload.check(goal, answer + " /\\ ")


def test_bool_check_rejects_corrupted_normal_form(tmp_path):
    workload, goals = goals_of("bool_width", 3, tmp_path)
    goal = next(g for g in goals if g.expect[0] == "/\\")
    answer = answer_of(workload, goal)
    assert workload.check(goal, answer)
    assert not workload.check(goal, App("true"))
    assert not workload.check(goal, App("/\\", answer.args + (App("a0"),)))
    assert not workload.check(goal, App("/\\", answer.args[1:] + (App("zz"),)))


def test_oracle_check_rejects_corrupted_normal_form(tmp_path):
    workload, goals = goals_of("oracle_check", 3, tmp_path)
    goal = next(g for g in goals if g.program == "one_subst")
    normal_form, verified, found = answer_of(workload, goal)
    assert workload.check(goal, (normal_form, verified, found))
    assert not workload.check(goal, (App("wrong"), verified, found))
    assert not workload.check(goal, (normal_form, False, found))


def test_bool_expected_evaluates_clauses():
    clauses = [["a1", "false", "~true"], ["~a2", "true", "false"], ["~a0", "~false", "a0"]]
    assert workloads.bool_expected(clauses) == ("a1", ())
    assert workloads.bool_expected([["a1", "false"], ["a2", "a3"]]) == (
        "/\\",
        (("\\/", (("a2", ()), ("a3", ()))), ("a1", ())),
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_digests_agree(name, tmp_path):
    workload, goals = goals_of(name, 5, tmp_path)
    goals = goals[:3]
    original = acdterm.engine.step
    plain = run.run_pass(workload, goals, keep=True)
    with tracer.Tracer(span_cap=1000) as t:
        assert acdterm.engine.step is not original
        traced = run.run_pass(workload, goals, keep=True, tracer=t)
    assert acdterm.engine.step is original
    assert plain.failed == traced.failed == 0
    assert t.calls["goal"] == len(goals)
    assert workloads.trace_digest(plain.outcomes) == workloads.trace_digest(traced.outcomes)


def test_self_times_add_up_to_goal_time(tmp_path):
    workload, goals = goals_of("leq_cycle", 5, tmp_path)
    with tracer.Tracer() as t:
        run.run_pass(workload, goals[:3], keep=False, tracer=t)
    total = sum(t.self_s.values())
    assert total == pytest.approx(t.wall_s, rel=1e-6)


def test_goal_times_scale_by_the_nearest_references():
    fast, slow = speed.NOMINAL_S, 2 * speed.NOMINAL_S
    done = run.Pass(times=[0.1, 0.1], references=[fast] * 3 + [slow] * 3, slots=[1, 6])
    assert done.scaled_times() == pytest.approx([0.1, 0.05])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.BENCH), tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "leq_cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
