"""The benchmark tracer wraps acdterm names by (module, name); a rename that
drops one of them, or a change that stops calling one, would only show when
the benchmark runs."""

import importlib.util
import pathlib

from conftest import count_calls

import acdterm.cli
import acdterm.oracle
from acdterm import parse_program, parse_term, run

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PROGRAMS = pathlib.Path(__file__).parent / "programs"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_tracer_wrapped_names_resolve():
    wrapped = _wrapped()
    assert wrapped
    for module, name, *_ in wrapped:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_tracer_wrapped_names_are_called(monkeypatch, capsys):
    counters = {
        f"{module.__name__}.{name}": count_calls(monkeypatch, module, name)
        for module, name, *_ in _wrapped()
    }
    leq = str(PROGRAMS / "leq.acd")
    unify = str(PROGRAMS / "unify.acd")
    goal = "leq(A,A) /\\ leq(X,Y) /\\ leq(Y,Z)"
    assert acdterm.cli.main(["run", "-p", leq, "-g", goal, "--trace"]) == 0
    assert acdterm.cli.main(["run", "-p", unify, "-g", "X = Y /\\ f(X) = Y", "--trace"]) == 0
    assert acdterm.cli.main(["oracle", "-p", leq, "-g", "leq(a,b) /\\ leq(b,c)"]) == 0
    program = parse_program((PROGRAMS / "leq.acd").read_text(encoding="utf-8"))
    trace = run(program, parse_term(goal)).trace
    assert acdterm.oracle.verify_trace(program, parse_term(goal), trace)
    capsys.readouterr()
    uncalled = sorted(name for name, counter in counters.items() if not counter.calls)
    assert not uncalled
