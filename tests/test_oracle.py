import itertools

import pytest

from acdterm import (
    App,
    OracleSizeError,
    ac_equal,
    canonical,
    enumerate_transitions,
    first_divergence,
    initial_state,
    parse_program,
    parse_term,
    pretty,
    run,
    search_normal_forms,
    step,
    verify_trace,
)
from acdterm.engine import TraceStep
from acdterm.oracle import _relabel

P = parse_term


def test_enumerate_empty_program():
    assert enumerate_transitions(initial_state(App("a")), parse_program("")) == []


def test_enumerate_example_initial_successor_is_unique(one_subst_program):
    state = initial_state(P("not_one(A) /\\ one(A)"))
    succs = enumerate_transitions(state, one_subst_program)
    assert len(succs) == 1
    _, ts = succs[0]
    assert ts.rule == "one_def"
    assert ac_equal(ts.goal_after, P("not_one(A) /\\ (A = 1)"))


def test_enumerate_includes_first_propagation(leq_program):
    state = initial_state(P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"))
    succs = enumerate_transitions(state, leq_program)
    target = canonical(P("leq(X,Y) /\\ leq(Y,Z) /\\ leq(X,Z) /\\ ~leq(X,Z)"))
    assert any(
        ts.rule == "transitivity" and canonical(ts.goal_after) == target
        for _, ts in succs
    )


def test_enumerate_refuses_oversized_goal(leq_program):
    big = " /\\ ".join(f"leq(a{i},b{i})" for i in range(12))
    with pytest.raises(OracleSizeError):
        enumerate_transitions(initial_state(P(big)), leq_program)


def test_enumerate_commuted_propagations_are_distinct():
    prog = parse_program(
        "trans @ leq(X,Y) /\\ leq(Y,Z) ==> X !== Y /\\ Y !== Z | leq(X,Z)."
    )
    state = initial_state(P("leq(A,B) /\\ leq(B,A)"))
    succs = enumerate_transitions(state, prog)
    entries = {ts.entry for _, ts in succs}
    assert len(entries) == 2  # the direct and the commuted matching


def test_search_cc_change_program(one_subst_program):
    result = search_normal_forms(one_subst_program, P("not_one(A) /\\ one(A)"))
    assert not result.truncated
    assert result.normal_forms == frozenset({canonical(P("(A = 1) /\\ false"))})


def test_search_leq_reaches_false(leq_program):
    result = search_normal_forms(
        leq_program, P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"), width=2000
    )
    assert canonical(App("false")) in result.normal_forms


def test_search_empty_program_returns_goal():
    result = search_normal_forms(parse_program(""), P("f(a)"))
    assert result.normal_forms == frozenset({canonical(P("f(a)"))})
    assert not result.truncated


def test_verify_engine_trace(leq_program):
    goal = P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)")
    res = run(leq_program, goal)
    assert verify_trace(leq_program, goal, res.trace)


def test_verify_empty_trace(leq_program):
    assert verify_trace(leq_program, P("leq(a,b)"), [])


def test_verify_rejects_forged_step(leq_program):
    goal = P("leq(a,b)")
    forged = [
        TraceStep(
            index=1,
            rule="not_a_rule",
            kind="simplify",
            path=(),
            entry=None,
            goal_after=App("false"),
        )
    ]
    assert not verify_trace(leq_program, goal, forged)
    assert first_divergence(leq_program, goal, forged) == 1


def test_verify_rejects_wrong_result(leq_program):
    goal = P("leq(A,A)")
    res = run(leq_program, goal)
    assert len(res.trace) == 1
    bad = [
        TraceStep(
            index=1,
            rule="reflexivity",
            kind="simplify",
            path=(),
            entry=None,
            goal_after=App("false"),
        )
    ]
    assert first_divergence(leq_program, goal, bad) == 1


def test_engine_successor_is_an_oracle_successor(
    leq_program, unify_program, one_subst_program
):
    # goal and history of each engine step, up to identifier relabelling,
    # must be among the oracle's successors of the same state; the leq cycle
    # and dup rename history entries
    dup = parse_program(
        """
        mark @ a /\\ b ==> m.
        dup  @ f(X) <=> X /\\ q(X).
        """
    )
    cases = [
        (leq_program, "leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"),
        (leq_program, "leq(a,b) /\\ leq(b,c) /\\ leq(c,a)"),
        (unify_program, "X = Y /\\ f(f(X)) = X /\\ Y = f(f(f(Y)))"),
        (one_subst_program, "not_one(A) /\\ one(A)"),
        (dup, "f(a /\\ b)"),
    ]
    checked = 0
    for prog, src in cases:
        state = initial_state(P(src))
        for _ in range(50):
            nxt = step(state, prog)
            if nxt is None:
                break
            mine = _relabel(nxt[0])
            theirs = {
                (r.goal, r.history)
                for r in (_relabel(s) for s, _ in enumerate_transitions(state, prog))
            }
            assert (mine.goal, mine.history) in theirs, (src, nxt[1].rule)
            state = nxt[0]
            checked += 1
    assert checked == 26


# --- meta-oracle spot check -------------------------------------------------------
#
# On tiny goals the focus/submultiset enumeration must agree with an even more
# naive scheme that rearranges the *whole* goal into every binary tree and
# tries every position of each rearrangement.


def _flat(term, functor):
    if isinstance(term, App) and term.functor == functor:
        return list(term.args)
    return [term]


def _binary_trees(items, functor):
    if len(items) == 1:
        return [items[0]]
    out = []
    for k in range(1, len(items)):
        for left in _binary_trees(items[:k], functor):
            for right in _binary_trees(items[k:], functor):
                out.append(App(functor, (left, right)))
    return out


def _all_rearrangements(term):
    if not isinstance(term, App) or not term.args:
        return [term]
    child_options = [_all_rearrangements(a) for a in term.args]
    out = []
    for combo in itertools.product(*child_options):
        if term.functor in ("/\\", "\\/", "+", "*"):
            for perm in itertools.permutations(combo):
                out.extend(_binary_trees(list(perm), term.functor))
        else:
            out.append(App(term.functor, tuple(combo)))
    return out


def _naive_simplification_results(rules, goal):
    """All goals reachable in one simplification step, canonical, by global
    rearrangement and plain syntactic matching (guards are not interpreted,
    so only guard-free rules may be passed in)."""
    from acdterm import replace_at, positions as term_positions, subterm_at, app as mk

    results = set()
    for g in _all_rearrangements(goal):
        for path in term_positions(g):
            focus = subterm_at(g, path)
            for lhs, rhs in rules:
                for lhs_arr in _all_rearrangements(lhs):
                    binding = _syntactic_match(lhs_arr, focus, {})
                    if binding is None:
                        continue
                    body = _apply_binding(rhs, binding)
                    results.add(canonical(replace_at(g, body, path)))
    return results


def _syntactic_match(pattern, subject, binding):
    from acdterm import Var, Num

    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding if binding[pattern.name] == subject else None
        return {**binding, pattern.name: subject}
    if isinstance(pattern, Num):
        return binding if pattern == subject else None
    if not isinstance(subject, App) or subject.functor != pattern.functor:
        return None
    if len(subject.args) != len(pattern.args):
        return None
    for pa, sa in zip(pattern.args, subject.args):
        binding = _syntactic_match(pa, sa, binding)
        if binding is None:
            return None
    return binding


def _apply_binding(body, binding):
    from acdterm import Var, Num, app as mk

    if isinstance(body, Var):
        return binding.get(body.name, body)
    if isinstance(body, Num):
        return body
    return mk(body.functor, tuple(_apply_binding(a, binding) for a in body.args))


def test_meta_oracle_agreement():
    prog = parse_program(
        """
        and_true @ true /\\ X <=> X.
        collapse @ p(X) /\\ q(X) <=> r(X).
        """
    )
    rules = [(r.head, r.body) for r in prog.rules]
    goals = [
        P("true /\\ p(a) /\\ q(a)"),
        P("p(a) /\\ q(b) /\\ q(a)"),
        P("true /\\ true"),
        P("f(true /\\ p(a))"),
    ]
    for goal in goals:
        naive = _naive_simplification_results(rules, goal)
        succs = enumerate_transitions(initial_state(goal), prog)
        mine = {canonical(ts.goal_after) for _, ts in succs}
        assert mine == naive, pretty(goal)
