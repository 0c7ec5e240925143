import random

import pytest
from conftest import count_calls

from acdterm import (
    AApp,
    App,
    AVar,
    Var,
    ac_equal,
    annotate,
    entry_of,
    ids_of,
    initial_state,
    parse_program,
    parse_term,
    run,
    step,
    strip,
    subterms,
    update_history,
)
from acdterm import engine, matching
from acdterm.engine import (
    BUDGET_EXHAUSTED,
    NORMAL_FORM,
    HistoryEntry,
    _splice,
    format_step,
    step_record,
)
from acdterm.terms import annotate_from

P = parse_term
AND = "/\\"


# --- entry computation ----------------------------------------------------------


def example_instance():
    a1, b2 = AApp("a", (), 1), AApp("b", (), 2)
    return AApp("f", (AApp(AND, (a1, b2), 3),), 4), AApp("f", (AApp(AND, (b2, a1), 3),), 4)


def test_entry_skips_ac_nodes_and_orders_by_match():
    direct, commuted = example_instance()
    assert entry_of("r", direct) == HistoryEntry("r", (4, 1, 2))
    assert entry_of("r", commuted) == HistoryEntry("r", (4, 2, 1))


def test_entry_two_conjunct_head():
    lq1 = AApp("leq", (AVar("A", 1), AVar("B", 2)), 3)
    lq2 = AApp("leq", (AVar("B", 5), AVar("A", 6)), 7)
    assert entry_of("trans", AApp(AND, (lq1, lq2), 4)).ids == (3, 1, 2, 7, 5, 6)
    assert entry_of("trans", AApp(AND, (lq2, lq1), 4)).ids == (7, 5, 6, 3, 1, 2)


def test_entry_leaf():
    assert entry_of("r", AVar("X", 9)).ids == (9,)


# --- history update ----------------------------------------------------------------


def test_update_history_duplicates_entries_for_copied_variables():
    head, body = P("f(X)"), P("g(X,X)")
    head_inst, _ = example_instance()
    body_inst = annotate({1, 2, 3, 4}, P("g(a /\\ b, a /\\ b)"))
    h0 = frozenset({HistoryEntry("r", (1, 2))})
    h1 = update_history(head, head_inst, body, body_inst, h0)
    assert h1 == frozenset(
        {HistoryEntry("r", (1, 2)), HistoryEntry("r", (5, 6)), HistoryEntry("r", (8, 9))}
    )


def test_update_history_idempotence_renaming():
    # merging two conjuncts copies the surviving ids into matching entries
    head, body = P("X /\\ X"), P("X")
    lhs = AApp("leq", (AVar("A", 5), AVar("A", 6)), 7)
    rhs = AApp("leq", (AVar("A", 9), AVar("A", 10)), 11)
    head_inst = AApp(AND, (lhs, rhs), 8)
    body_inst = AApp("leq", (AVar("A", 16), AVar("A", 17)), 18)
    h0 = frozenset({HistoryEntry("trans", (3, 1, 2, 7, 5, 6))})
    h1 = update_history(head, head_inst, body, body_inst, h0)
    assert h1 == h0 | {HistoryEntry("trans", (3, 1, 2, 18, 16, 17))}


def test_update_history_no_shared_variables():
    h0 = frozenset({HistoryEntry("r", (1,))})
    head_inst = annotate(0, P("f(a)"))
    body_inst = annotate(ids_of(head_inst), P("b"))
    assert update_history(P("f(a)"), head_inst, P("b"), body_inst, h0) == h0


def test_update_history_accepts_an_annotated_head_view():
    # the oracle passes its annotated view of the head; both X occurrences
    # must rename onto both copies as they do for the plain head
    head, body = P("f(X, g(X))"), P("h(X) /\\ k(X)")
    head_inst = annotate(1, P("f(p(a), g(p(a)))"))
    body_inst = annotate(7, P("h(p(a)) /\\ k(p(a))"))
    h0 = frozenset({HistoryEntry("r", (2, 1))})
    plain = update_history(head, head_inst, body, body_inst, h0)
    assert plain == h0 | {HistoryEntry("r", (8, 7)), HistoryEntry("r", (11, 10))}
    view = annotate_from(head, 0)[0]
    assert update_history(view, head_inst, body, body_inst, h0) == plain


# --- step ------------------------------------------------------------------------------


def test_step_first_transition_is_the_propagation(leq_program):
    state = initial_state(P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"))
    nxt = step(state, leq_program)
    assert nxt is not None
    new_state, ts = nxt
    assert ts.rule == "transitivity" and ts.kind == "propagate"
    assert any(e.rule == "transitivity" for e in new_state.history)
    assert ac_equal(
        ts.goal_after, P("leq(X,Y) /\\ leq(Y,Z) /\\ leq(X,Z) /\\ ~leq(X,Z)")
    )


def test_step_antisymmetry_simpagation(leq_program):
    state = initial_state(P("leq(A,B) /\\ leq(B,A)"))
    nxt = step(state, leq_program)
    assert nxt is not None
    _, ts = nxt
    assert ts.rule == "antisymmetry" and ts.kind == "simpagate"
    variants = [P("leq(A,B) /\\ (A = B)"), P("(B = A) /\\ leq(B,A)")]
    assert any(ac_equal(ts.goal_after, v) for v in variants)


def test_step_fires_at_first_preorder_path():
    # preorder takes f(f(a)) before its argument and both before f(a);
    # postorder or breadth-first order would give another trace
    prog = parse_program("r @ f(X) <=> g(X).")
    res = run(prog, P("f(f(a)) /\\ f(a)"))
    assert [ts.path for ts in res.trace] == [(1,), (1, 1), (2,)]


def test_step_none_when_final():
    state = initial_state(App("a"))
    assert step(state, parse_program("")) is None


def test_step_fresh_identifiers(leq_program):
    state = initial_state(P("leq(X,Y) /\\ leq(Y,Z)"))
    nxt = step(state, leq_program)
    assert nxt is not None
    new_state, _ = nxt
    new_ids = ids_of(new_state.goal) - ids_of(state.goal)
    assert new_ids and min(new_ids) >= state.next_id


def test_splice_selection_at_conjunction():
    a, b, c, d = (AApp(x, (), i) for i, x in enumerate("abcd", start=1))
    node = AApp(AND, (a, b, c, d), 5)
    r = AApp("r", (), 6)
    assert _splice(node, (2, 4), r) == AApp(AND, (a, r, c), 5)
    assert _splice(node, (1, 3), r) == AApp(AND, (r, b, d), 5)
    x, y = AApp("x", (), 7), AApp("y", (), 8)
    assert _splice(node, (2, 3), AApp(AND, (x, y), 9)) == AApp(AND, (a, x, y, d), 5)


# --- run -------------------------------------------------------------------------------


def test_run_trivial_goal_empty_program():
    res = run(parse_program(""), App("a"))
    assert res.status == NORMAL_FORM
    assert res.trace == ()
    assert strip(res.final.goal) == App("a")


def test_run_budget_exhaustion():
    prog = parse_program("spin @ f(X) <=> f(X).")
    res = run(prog, P("f(a)"), max_steps=7)
    assert res.status == BUDGET_EXHAUSTED
    assert len(res.trace) == 7
    assert strip(res.final.goal) == P("f(a)")


def test_run_exactly_at_budget_is_normal_form():
    prog = parse_program("once @ a <=> b.")
    res = run(prog, App("a"), max_steps=1)
    assert res.status == NORMAL_FORM
    assert strip(res.final.goal) == App("b")


def test_run_no_propagation_entry_fires_twice(leq_program):
    res = run(leq_program, P("leq(X,Y) /\\ leq(Y,Z) /\\ leq(Z,W)"))
    fired = [ts.entry for ts in res.trace if ts.kind == "propagate"]
    assert len(fired) == len(set(fired))
    assert res.status == NORMAL_FORM


def test_run_variable_conservation(unify_program):
    from acdterm import vars_of

    goal = P("X = Y /\\ f(f(X)) = X")
    res = run(unify_program, goal)
    final_vars = vars_of(strip(res.final.goal))
    fresh = {v for v in final_vars if v.startswith("_")}
    assert final_vars - fresh <= vars_of(goal)


def test_disequality_guard_is_modulo_ac():
    prog = parse_program("r @ p(X,Y) <=> X !== Y | q.")
    assert run(prog, P("p(a /\\ b, b /\\ a)")).trace == ()
    assert len(run(prog, P("p(a /\\ b, b /\\ c)")).trace) == 1


def test_trace_formats():
    prog = parse_program("once @ a <=> b.")
    res = run(prog, App("a"))
    (ts,) = res.trace
    assert format_step(ts) == "#1 simplify once @ [] : b"
    rec = step_record(ts)
    assert rec == {"n": 1, "kind": "simplify", "rule": "once", "path": [], "ids": [], "goal": "b"}
    assert parse_term(rec["goal"]) == App("b")


# --- body-only variables -------------------------------------------------------------------


def test_body_only_variables_become_fresh():
    prog = parse_program("intro @ p(X) <=> q(X, Fresh).")
    res = run(prog, P("p(a) /\\ p(b)"))
    final = strip(res.final.goal)
    names = sorted(
        a.args[1].name for a in (final.args if isinstance(final, App) and final.functor == AND else [final])
    )
    assert len(names) == 2 and len(set(names)) == 2
    assert all(n.startswith("_") for n in names)


def test_fresh_variables_avoid_goal_names():
    prog = parse_program("intro @ p(X) <=> q(Fresh).")
    res = run(prog, P("p(_Fresh1)"))
    final = strip(res.final.goal)
    assert final.functor == "q"
    assert final.args[0] != Var("_Fresh1")


def test_whole_node_propagation_blocks_refire():
    prog = parse_program("p @ f(X) ==> g(X).")
    res = run(prog, P("f(a)"))
    assert res.status == NORMAL_FORM
    assert len(res.trace) == 1
    assert ac_equal(strip(res.final.goal), P("f(a) /\\ g(a)"))


def test_propagation_body_conjunction_flattens():
    prog = parse_program("p @ a /\\ b ==> c /\\ d.")
    res = run(prog, P("a /\\ b /\\ e"))
    assert res.status == NORMAL_FORM
    assert len(res.trace) == 1
    assert ac_equal(strip(res.final.goal), P("a /\\ b /\\ c /\\ d /\\ e"))


def test_propagation_under_non_conjunctive_ac_operator():
    # the body is conjoined with the matched group *inside* the AC node,
    # never spliced in as an extra operand
    prog = parse_program("p @ X + Y ==> q(X).")
    res = run(prog, P("a + b + c"), max_steps=1)
    assert ac_equal(strip(res.final.goal), P("((a + b) /\\ q(a)) + c"))
    res2 = run(prog, P("a + b"), max_steps=1)
    assert ac_equal(strip(res2.final.goal), P("(a + b) /\\ q(a)"))
    # a whole-node match that binds the group b + c to Y
    group = run(parse_program("p @ a + Y ==> size(Y) > 1 | q(Y)."), P("a + b + c"))
    assert ac_equal(strip(group.final.goal), P("(a + b + c) /\\ q(b + c)"))
    # the selected a + b is a node of its own, and the group is flattened
    # into its + node, so no identifier occurs twice
    for g in (res.final.goal, res2.final.goal, group.final.goal):
        assert len(ids_of(g)) == len(subterms(g))


def test_selection_residual_outside_conjunction_is_not_context():
    # at a + node the unselected operands are not conjuncts, so the
    # context head must not match them
    prog = parse_program("r @ c \\ a + b <=> d.")
    stuck = run(prog, P("a + b + c"))
    assert stuck.trace == ()
    fires = run(prog, P("(a + b + c) /\\ c"))
    assert len(fires.trace) == 1
    assert ac_equal(strip(fires.final.goal), P("(d + c) /\\ c"))


def test_simpagation_with_conjunctive_context_head():
    prog = parse_program("fold @ q(X) /\\ r(X) \\ p(X) <=> s(X).")
    res = run(prog, P("p(a) /\\ q(a) /\\ r(a)"))
    assert ac_equal(strip(res.final.goal), P("s(a) /\\ q(a) /\\ r(a)"))
    assert run(prog, P("p(a) /\\ q(a) /\\ r(b)")).trace == ()


def test_history_copies_survive_body_flattening():
    # dup's body splices X's conjuncts into the body conjunction; the history
    # renaming must still map the copied identifiers, so mark cannot refire
    # on either copy of a /\ b
    prog = parse_program(
        """
        mark @ a /\\ b ==> m.
        dup  @ f(X) <=> X /\\ q(X).
        """
    )
    res = run(prog, P("f(a /\\ b)"), max_steps=50)
    assert res.status == NORMAL_FORM
    marks = [ts for ts in res.trace if ts.rule == "mark"]
    assert len(marks) == 1
    from acdterm import verify_trace

    assert verify_trace(prog, P("f(a /\\ b)"), res.trace)


def test_commutative_refire_random_property(leq_program):
    rng = random.Random(41)
    consts = ["a", "b", "c"]
    for _ in range(20):
        n = rng.randrange(2, 4)
        conjuncts = [
            f"leq({rng.choice(consts)},{rng.choice(consts)})" for _ in range(n)
        ]
        goal = P(" /\\ ".join(conjuncts))
        res = run(leq_program, goal, max_steps=400)
        assert res.status == NORMAL_FORM
        fired = [ts.entry for ts in res.trace if ts.kind == "propagate"]
        assert len(fired) == len(set(fired))


# --- AC matching work bounds ----------------------------------------------------

CONSTANTS_40 = " /\\ ".join(f"c{i}" for i in range(40))


@pytest.mark.parametrize(
    "rule, goal",
    [
        ("r @ X /\\ false <=> false.", CONSTANTS_40),
        ("r @ X /\\ Y /\\ false <=> false.", CONSTANTS_40),
        ("r @ X /\\ f(Y) /\\ g(Y) <=> false.", CONSTANTS_40 + " /\\ f(a) /\\ g(b)"),
        ("r @ X /\\ f(Y) /\\ f(Z) <=> false.", CONSTANTS_40 + " /\\ f(a)"),
    ],
    ids=["var_false", "two_vars_false", "shared_var_siblings", "distinct_siblings"],
)
def test_failing_ac_match_is_not_exponential(monkeypatch, rule, goal):
    # enumerating the groups of X before the failing siblings costs 2^40;
    # the bound is linear in the 40-43 goal positions
    calls = count_calls(monkeypatch, matching, "_match_node", limit=200)
    res = run(parse_program(rule), P(goal))
    assert res.status == NORMAL_FORM
    assert res.trace == ()
    assert calls.calls > 0


def test_leq_corpus_reaches_normal_form_on_five_cycle(monkeypatch, leq_program):
    # the full corpus program, conj_false/conj_true included
    calls = count_calls(monkeypatch, matching, "_match_node", limit=100_000)
    walks = count_calls(monkeypatch, engine, "subterms")
    goal = P(" /\\ ".join(f"leq(X{i},X{(i + 1) % 5})" for i in range(5)))
    res = run(leq_program, goal)
    assert res.status == NORMAL_FORM
    assert calls.calls > 0
    # one walk of the goal per step, the last one finding no redex
    assert walks.calls == len(res.trace) + 1
    answer = strip(res.final.goal)
    atoms = answer.args if isinstance(answer, App) and answer.functor == AND else (answer,)
    parent = {f"X{i}": f"X{i}" for i in range(5)}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for atom in atoms:
        assert isinstance(atom, App) and atom.functor in ("leq", "="), atom
        left, right = atom.args
        assert isinstance(left, Var) and isinstance(right, Var), atom
        if atom.functor == "leq":
            assert left != right, atom
        else:
            parent[find(left.name)] = find(right.name)
    assert len({find(v) for v in parent}) == 1
