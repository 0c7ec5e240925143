import random

import pytest
from conftest import count_calls, load_program, no_cyclic_garbage
from test_terms import random_term

from acdterm import (
    App,
    Var,
    ac_equal,
    annotate,
    canonical,
    entry_of,
    ids_of,
    initial_state,
    parse_program,
    parse_term,
    pretty,
    run,
    search_normal_forms,
    step,
    strip,
    subterms,
    update_history,
    verify_trace,
)
from acdterm import engine, enumerate_transitions, first_divergence, matching
from acdterm.engine import (
    BUDGET_EXHAUSTED,
    NORMAL_FORM,
    HistoryEntry,
    _splice,
    format_step,
    step_record,
)
from acdterm.rules import Program
from acdterm.terms import AC_FUNCTORS, ac_key, annotate_from

P = parse_term
AND = "/\\"


# --- entry computation ----------------------------------------------------------


def example_instance():
    a1, b2 = App("a", (), 1), App("b", (), 2)
    return App("f", (App(AND, (a1, b2), 3),), 4), App("f", (App(AND, (b2, a1), 3),), 4)


def test_entry_skips_ac_nodes_and_orders_by_match():
    direct, commuted = example_instance()
    assert entry_of("r", direct) == HistoryEntry("r", (4, 1, 2))
    assert entry_of("r", commuted) == HistoryEntry("r", (4, 2, 1))


def test_entry_two_conjunct_head():
    lq1 = App("leq", (Var("A", 1), Var("B", 2)), 3)
    lq2 = App("leq", (Var("B", 5), Var("A", 6)), 7)
    assert entry_of("trans", App(AND, (lq1, lq2), 4)).ids == (3, 1, 2, 7, 5, 6)
    assert entry_of("trans", App(AND, (lq2, lq1), 4)).ids == (7, 5, 6, 3, 1, 2)


def test_entry_leaf():
    assert entry_of("r", Var("X", 9)).ids == (9,)


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
    lhs = App("leq", (Var("A", 5), Var("A", 6)), 7)
    rhs = App("leq", (Var("A", 9), Var("A", 10)), 11)
    head_inst = App(AND, (lhs, rhs), 8)
    body_inst = App("leq", (Var("A", 16), Var("A", 17)), 18)
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


def _shuffled(t, rng):
    """t with the children of each AC node in a random order."""
    if not isinstance(t, App):
        return t
    args = [_shuffled(a, rng) for a in t.args]
    if t.functor in AC_FUNCTORS:
        rng.shuffle(args)
    return App(t.functor, tuple(args))


def test_update_history_pairs_ac_children_by_key():
    # the second X of f(X, X) lists the AC children of the binding in another
    # order; every identifier it names must be renamed onto the copy node of
    # the same AC class
    rng = random.Random(22)
    for _ in range(200):
        t = random_term(rng, depth=4)
        first = annotate(1, t)
        second = annotate(ids_of(first), _shuffled(t, rng))
        head_inst = App("f", (first, second), 10_000)
        body_inst = annotate(10_001, App("g", (t,)))
        names = {n.id: n for _, n in subterms(second)}
        h0 = frozenset(HistoryEntry(str(i), (i,)) for i in names)
        h1 = update_history(P("f(X, X)"), head_inst, P("g(X)"), body_inst, h0)
        copies = {n.id: n for _, n in subterms(body_inst)}
        renamed = {e.rule: e.ids[0] for e in h1 - h0}
        assert set(renamed) == {str(i) for i in names}
        for i, node in names.items():
            assert ac_key(copies[renamed[str(i)]]) == ac_key(node), pretty(t)


# the second occurrence of X lists its AC children in another order than the
# binding; the propagation t fired on its b must stay blocked on the body's
# copy of that b
RENAMED_OCCURRENCE = """
t  @ b ==> c.
mk @ k <=> b /\\ c.
"""


@pytest.mark.parametrize(
    "rule, goal, expected",
    [
        ("r @ f(X, X) <=> g(X).", "f(k + a, a + b)", "g((b /\\ c) + a)"),
        ("r @ f(X, X) <=> g(X, X).", "f(k + a, a + b)", "g((b /\\ c) + a,(b /\\ c) + a)"),
        ("r @ X /\\ X <=> g(X).", "h(k + a) /\\ h(a + b)", "g(h((b /\\ c) + a))"),
    ],
    ids=["body_one_copy", "body_two_copies", "conjunction"],
)
def test_history_follows_an_occurrence_in_another_order(rule, goal, expected):
    prog = parse_program(rule + RENAMED_OCCURRENCE)
    res = run(prog, P(goal))
    assert res.status == NORMAL_FORM
    final = canonical(strip(res.final.goal))
    assert pretty(final) == expected
    assert verify_trace(prog, P(goal), res.trace)
    found = search_normal_forms(prog, P(goal))
    assert not found.truncated
    assert final in found.normal_forms


# --- step ------------------------------------------------------------------------------


def test_step_first_transition_is_the_propagation(leq_program):
    state = initial_state(P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"))
    nxt = step(state, leq_program)
    assert nxt is not None
    new_state, ts = nxt
    assert ts.rule == "transitivity" and ts.kind == "propagate"
    assert any(e.rule == "transitivity" for e in new_state.history)
    assert ac_equal(
        ts.goal, P("leq(X,Y) /\\ leq(Y,Z) /\\ leq(X,Z) /\\ ~leq(X,Z)")
    )


def test_step_antisymmetry_simpagation(leq_program):
    state = initial_state(P("leq(A,B) /\\ leq(B,A)"))
    nxt = step(state, leq_program)
    assert nxt is not None
    _, ts = nxt
    assert ts.rule == "antisymmetry" and ts.kind == "simpagate"
    variants = [P("leq(A,B) /\\ (A = B)"), P("(B = A) /\\ leq(B,A)")]
    assert any(ac_equal(ts.goal, v) for v in variants)


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
    a, b, c, d = (App(x, (), i) for i, x in enumerate("abcd", start=1))
    node = App(AND, (a, b, c, d), 5)
    r = App("r", (), 6)
    assert _splice(node, (2, 4), r) == App(AND, (a, r, c), 5)
    assert _splice(node, (1, 3), r) == App(AND, (r, b, d), 5)
    x, y = App("x", (), 7), App("y", (), 8)
    assert _splice(node, (2, 3), App(AND, (x, y), 9)) == App(AND, (a, x, y, d), 5)


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


def test_integer_disequality_guard():
    prog = parse_program("r @ f(N) <=> N != 0 | g(N).")
    assert [ts.rule for ts in run(prog, P("f(1)")).trace] == ["r"]
    assert [ts.rule for ts in run(prog, P("f(1 + 1)")).trace] == ["r"]
    assert run(prog, P("f(0)")).trace == ()
    # as with `=`, a side that is not an integer expression does not hold
    assert run(prog, P("f(a)")).trace == ()


def test_arithmetic_guard_with_a_non_integer_operand():
    prog = parse_program("r @ f(X) <=> X + 1 <= 3 | g(X). s @ h(X) <=> X * 2 >= 0 | g(X).")
    assert [ts.rule for ts in run(prog, P("f(2)")).trace] == ["r"]
    assert [ts.rule for ts in run(prog, P("h(2)")).trace] == ["s"]
    # `a + 1` and `a * 2` are no integers, so neither guard holds
    assert run(prog, P("f(a)")).trace == ()
    assert run(prog, P("h(a)")).trace == ()


def test_trace_formats():
    prog = parse_program("once @ a <=> b.")
    res = run(prog, App("a"))
    (ts,) = res.trace
    assert format_step(ts) == "#1 simplify once @ [] : b"
    rec = step_record(ts)
    assert rec == {"n": 1, "kind": "simplify", "rule": "once", "path": [], "ids": [], "goal": "b"}
    assert parse_term(rec["goal"]) == App("b")


def test_goals_are_stripped_only_when_a_record_is_read(monkeypatch, leq_program):
    # a trace record keeps the annotated goal: `run` strips nothing, each
    # rendering strips its record's goal once, and the oracle's replay
    # compares the annotated goals of its successors
    strips = count_calls(monkeypatch, engine, "strip")
    goal = P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)")
    trace = run(leq_program, goal).trace
    assert len(trace) > 1 and strips.calls == 0
    assert first_divergence(leq_program, goal, trace) is None
    assert strips.calls == 0
    records = [step_record(ts) for ts in trace]
    assert strips.calls == len(trace)
    lines = [format_step(ts) for ts in trace]
    assert strips.calls == 2 * len(trace)
    assert [r["goal"] for r in records] == [line.split(" : ")[1] for line in lines]


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


def test_goal_names_are_read_only_for_rules_with_fresh_variables(
    monkeypatch, leq_program
):
    fresh = parse_program("r @ q(Y) \\ p(X) <=> s(X, Y, Z).")
    assert fresh.rules[0].fresh_vars == {"Z"}
    assert all(not r.fresh_vars for r in leq_program.rules)
    names = count_calls(monkeypatch, engine, "vars_of")
    run(leq_program, P("leq(X,Y) /\\ leq(Y,Z) /\\ leq(Z,X)"))
    assert names.calls == 0
    run(fresh, P("q(a) /\\ p(b) /\\ p(c)"))
    assert names.calls == 2


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


def test_propagation_keeps_the_nodes_it_matched(leq_program):
    # r1 binds X to a + b; had its instance gone back as b + a, r2 would
    # fire again on the same nodes with an entry in the other order
    prog = parse_program("r0 @ f(X, X) ==> q.  r1 @ f(X, Y) ==> m.  r2 @ f(X + Y, Z) ==> m.")
    goal = P("f(a + b, b)")
    res = run(prog, goal)
    assert res.status == NORMAL_FORM
    assert pretty(strip(res.final.goal)) == "f(a + b,b) /\\ m /\\ m /\\ m"
    assert verify_trace(prog, goal, res.trace)
    found = search_normal_forms(prog, goal)
    assert not found.truncated
    assert canonical(strip(res.final.goal)) in found.normal_forms
    # the first step takes the selection a + b, a node of its own; the next
    # matches the whole + node, which stays the same object
    plus = parse_program("p @ X + Y ==> q(X).")
    first, _ts = step(initial_state(P("a + b + c")), plus)
    after, ts = step(first, plus)
    assert ts.path == () and after.goal.functor == AND
    assert after.goal.args[0] is first.goal
    # transitivity's first head atom takes the later conjunct; both stay
    # the same objects, in goal order
    before = initial_state(P("leq(b,c) /\\ leq(a,b) /\\ p"))
    after, ts = step(before, leq_program)
    assert ts.rule == "transitivity" and ts.path == ()
    assert pretty(strip(after.goal)) == "leq(b,c) /\\ leq(a,b) /\\ leq(a,c) /\\ p"
    assert all(after.goal.args[i] is before.goal.args[i] for i in (0, 1))


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


# --- history garbage collection ---------------------------------------------------


def leq_cycle(n):
    return P(" /\\ ".join(f"leq(X{i},X{(i + 1) % n})" for i in range(n)))


def assert_history_live(state):
    live = ids_of(state.goal)
    for e in state.history:
        assert live.issuperset(e.ids), e


def test_history_holds_only_live_identifiers_after_every_step(leq_program):
    state = initial_state(leq_cycle(5))
    peak = 0
    while (nxt := step(state, leq_program)) is not None:
        state = nxt[0]
        assert_history_live(state)
        peak = max(peak, len(state.history))
    assert peak > 0


def test_oracle_successors_hold_only_live_identifiers(leq_program):
    # two levels of every interleaving: transitivity records entries over
    # leq(a,b) and leq(b,a), and antisymmetry or idempotence then removes one
    frontier = [initial_state(P("leq(a,b) /\\ leq(b,a) /\\ leq(b,c)"))]
    checked = 0
    for _ in range(2):
        reached = []
        for state in frontier:
            for succ, _ts in enumerate_transitions(state, leq_program):
                assert_history_live(succ)
                checked += 1
                reached.append(succ)
        frontier = reached
    assert checked > 10
    assert any(s.history for s in frontier)


def test_history_of_seven_cycle_stays_small():
    # the run records 8,837 entries; all but these name a removed node
    leq4 = Program(load_program("leq.acd").rules[:4])
    res = run(leq4, leq_cycle(7), max_steps=100_000)
    assert res.status == NORMAL_FORM
    assert len(res.trace) == 104
    assert len(res.final.history) == 180


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
    # the bound is linear in the 40-43 goal positions; the rule visits only
    # the conjunction, so var_false and two_vars_false make no _match_node
    # call at all, and the liveness check counts the redex search instead
    calls = count_calls(monkeypatch, matching, "_match_node", limit=200)
    searches = count_calls(monkeypatch, engine, "redexes_at")
    res = run(parse_program(rule), P(goal))
    assert res.status == NORMAL_FORM
    assert res.trace == ()
    assert searches.calls > 0


def test_bound_variable_conjunct_tries_only_equal_context_elements(monkeypatch):
    # X is bound by the head before the context is matched, so the context
    # index offers only the elements AC-equal to b, not all 202 of them
    program = parse_program("r @ X \\ q(X) <=> z.")
    goal = P(" /\\ ".join(["q(b)"] + [f"c{i}" for i in range(200)] + ["b"]))
    calls = count_calls(monkeypatch, matching, "_match_node")
    res = run(program, goal)
    assert res.status == NORMAL_FORM and len(res.trace) == 1
    assert calls.calls <= 10, calls.calls


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


def test_run_leaves_no_cyclic_garbage(leq_program, unify_program):
    # the matcher's recursions are module-level functions: a nested function
    # that calls itself would leave a reference cycle after every call
    cases = [
        (leq_program, P("leq(A,B) /\\ leq(B,C) /\\ leq(C,A)")),
        (unify_program, P("X = f(Y) /\\ Y = f(Z) /\\ W = X /\\ Z = a /\\ f(W) = f(f(f(a)))")),
    ]
    for program, goal in cases:
        first = run(program, goal)
        with no_cyclic_garbage():
            again = run(program, goal)
        assert again.trace == first.trace and first.status == NORMAL_FORM
