import itertools
import random

import pytest
from conftest import count_calls, no_cyclic_garbage
from sweep_ac_bindings import sweep
from test_golden_trace import NUMBERS
from test_semi_naive import _random_goal, _random_program
from test_terms import random_term

from acdterm import (
    App,
    Num,
    OracleSizeError,
    Var,
    ac_equal,
    annotate,
    canonical,
    entry_of,
    enumerate_transitions,
    first_divergence,
    initial_state,
    parse_program,
    parse_term,
    pretty,
    run,
    search_normal_forms,
    step,
    strip,
    subterms,
    verify_trace,
)
from acdterm.engine import (
    NORMAL_FORM,
    EngineState,
    HistoryEntry,
    TraceStep,
    _flatten_annotated,
)
from acdterm.oracle import MAX_GOAL_SIZE, _arrangements, _match_b, _relabel
from acdterm.terms import AC_FUNCTORS, ac_key, size

P = parse_term


def test_enumerate_empty_program():
    assert enumerate_transitions(initial_state(App("a")), parse_program("")) == []


def test_enumerate_example_initial_successor_is_unique(one_subst_program):
    state = initial_state(P("not_one(A) /\\ one(A)"))
    succs = enumerate_transitions(state, one_subst_program)
    assert len(succs) == 1
    _, ts = succs[0]
    assert ts.rule == "one_def"
    assert ac_equal(ts.goal, P("not_one(A) /\\ (A = 1)"))


def test_enumerate_includes_first_propagation(leq_program):
    state = initial_state(P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"))
    succs = enumerate_transitions(state, leq_program)
    target = canonical(P("leq(X,Y) /\\ leq(Y,Z) /\\ leq(X,Z) /\\ ~leq(X,Z)"))
    assert any(
        ts.rule == "transitivity" and canonical(ts.goal) == target
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


def test_propagation_fires_once_per_assignment():
    # {Y -> a} is one assignment of the head b + Y; permuting the head as
    # well as the goal gave it a second entry, so the oracle fired again
    # where the engine had stopped
    prog = parse_program("r0 @ b + Y ==> q(b).")
    goal = P("a + b")
    res = run(prog, goal)
    assert res.status == NORMAL_FORM and len(res.trace) == 1
    assert enumerate_transitions(res.final, prog) == []
    result = search_normal_forms(prog, goal)
    assert not result.truncated
    assert canonical(strip(res.final.goal)) in result.normal_forms


@pytest.mark.parametrize(
    "source, goal, expected",
    [
        ("p @ f(X) ==> q.", "f(a + b)", "f(a + b) /\\ q"),
        ("p @ f(X, X) ==> q.", "f(a + b, a + b)", "f(a + b,a + b) /\\ q"),
        ("p @ f(X, X) ==> q.", "f(a + c + a, c + a + a)", "f(a + a + c,a + a + c) /\\ q"),
    ],
    ids=["one_occurrence", "two_occurrences", "equal_children"],
)
def test_propagation_fires_once_per_binding(source, goal, expected):
    # X binds a + b, whose binary views list a and b in either order; only
    # the goal's order fires, since the other would fire again on the same
    # nodes with an entry of its own. The second X may list equal children
    # (the two a's) in either order too; only their goal order fires
    prog = parse_program(source)
    result = search_normal_forms(prog, P(goal))
    assert not result.truncated
    assert {pretty(t) for t in result.normal_forms} == {expected}
    assert pretty(canonical(strip(run(prog, P(goal)).final.goal))) == expected


def test_rule_views_are_fetched_once_per_call(monkeypatch):
    # one call fetches the views of each rule head (4) and each context
    # conjunct (2) once, not once per head match: 4,680 fetches when every
    # match fetched its context head's views again
    from acdterm import oracle

    views = count_calls(monkeypatch, oracle, "_pattern_views")
    state = initial_state(P("2 /\\ big(0) /\\ big(2) /\\ 2 /\\ big(1 + 1)"))
    assert len(enumerate_transitions(state, NUMBERS)) == 13
    assert views.calls <= 6, views.calls


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
            goal=annotate(0, App("false")),
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
            goal=annotate(0, App("false")),
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
        # propagations on a selection of a non-conjunctive AC node, and on a
        # whole + node with a group bound to Y
        (parse_program("m @ a \\/ b ==> m."), "a \\/ b \\/ c"),
        (parse_program("p @ X + Y ==> q(X)."), "a + b + c"),
        (parse_program("p @ a + Y ==> size(Y) > 1 | q(Y)."), "a + b + c"),
        # a guard and a body over a group binding, which the oracle's views
        # keep nested
        (parse_program("r @ X + Y <=> X !== Y | s(X) /\\ s(Y)."), "a + b + c"),
        # propagations that must leave the + node in goal order, or r2
        # fires again on the same nodes
        (
            parse_program("r0 @ f(X, X) ==> q.  r1 @ f(X, Y) ==> m.  r2 @ f(X + Y, Z) ==> m."),
            "f(a + b, b)",
        ),
    ]
    checked = 0
    for prog, src in cases:
        state = initial_state(P(src))
        for _ in range(50):
            nxt = step(state, prog)
            # the X + Y propagation grows its goal past the oracle's bound
            if nxt is None or size(state.goal) > MAX_GOAL_SIZE:
                break
            mine = _relabel(nxt[0])
            theirs = {
                (r.goal, r.history)
                for r in (_relabel(s) for s, _ in enumerate_transitions(state, prog))
            }
            assert (mine.goal, mine.history) in theirs, (src, nxt[1].rule)
            state = nxt[0]
            checked += 1
    assert checked == 38


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
    from acdterm import replace_at, subterms

    results = set()
    for g in _all_rearrangements(goal):
        for path, focus in subterms(g):
            for lhs, rhs in rules:
                for lhs_arr in _all_rearrangements(lhs):
                    binding = _syntactic_match(lhs_arr, focus, {})
                    if binding is None:
                        continue
                    body = _apply_binding(rhs, binding)
                    results.add(canonical(replace_at(g, body, path)))
    return results


def _syntactic_match(pattern, subject, binding):
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
    from acdterm import app as mk

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
        mine = {canonical(ts.goal) for _, ts in succs}
        assert mine == naive, pretty(goal)


# --- conjunctive contexts: engine against oracle ---------------------------------


@pytest.mark.parametrize(
    "source, goal",
    [
        # the context's trailing true is taken by `true` in the context head
        ("r @ true \\ f(X) <=> g(X).", "f(a) /\\ b"),
        ("r @ b /\\ true \\ f(X) <=> g(X).", "f(a) /\\ b /\\ c"),
        # a variable context head needs a non-empty residual
        ("r @ V \\ f(X) <=> g(X, V).", "f(a)"),
        ("r @ V \\ f(X) <=> g(X, V).", "f(a) /\\ h(b)"),
        # a conjunction as context head
        ("fold @ q(X) /\\ r(X) \\ p(X) <=> s(X).", "p(a) /\\ q(a) /\\ r(a)"),
        ("fold @ q(X) /\\ r(X) \\ p(X) <=> s(X).", "p(a) /\\ q(a) /\\ r(b)"),
    ],
)
def test_engine_context_matching_agrees_with_oracle(source, goal):
    prog = parse_program(source)
    res = run(prog, P(goal))
    assert verify_trace(prog, P(goal), res.trace)
    found = search_normal_forms(prog, P(goal))
    assert not found.truncated
    assert canonical(res.final.goal) in found.normal_forms


def test_engine_traces_of_random_programs_are_legal():
    # the random programs of test_semi_naive, three goals each; a case whose
    # goal passes size 20 at any step is skipped, as the referee's work grows
    # exponentially with the goal. A run that ends in a normal form with
    # every goal within size 16 must end in one of the search's normal forms
    checked = compared = 0
    for seed in range(60):
        rng = random.Random(seed)
        src = _random_program(rng)
        program = parse_program(src)
        for _ in range(3):
            goal = P(_random_goal(rng))
            res = run(program, goal, 12)
            largest = max([size(goal)] + [size(ts.goal) for ts in res.trace])
            if largest > 20:
                continue
            where = f"seed {seed}: {src!r} on {goal}"
            assert verify_trace(program, goal, res.trace), where
            checked += 1
            if res.status == NORMAL_FORM and largest <= 16:
                found = search_normal_forms(program, goal, depth=12, width=100)
                if not found.truncated:
                    assert canonical(strip(res.final.goal)) in found.normal_forms, where
                    compared += 1
    assert checked > 120 and compared > 90, (checked, compared)


def test_ac_binding_sweep_agrees_with_the_referee():
    # the first hundred seeds of the AC-binding sweep; in seed 30 a
    # propagation must leave the + node it matched in goal order, or a
    # later propagation fires again on the same nodes
    _cases, compared, rejected, missing, _skipped = sweep(100)
    assert (rejected, missing) == (0, 0)
    assert compared >= 70


# --- search bounds ------------------------------------------------------------------


def test_search_refuses_oversized_goal(leq_program):
    big = " /\\ ".join(f"leq({x},{y})" for x, y in zip("abcdefghi", "bcdefghij"))
    with pytest.raises(OracleSizeError, match="goal size 35 exceeds bound 28"):
        search_normal_forms(leq_program, P(big))


def test_search_truncates_at_depth():
    # every state has one successor, one symbol larger
    prog = parse_program("grow @ g(X) <=> g(s(X)).")
    result = search_normal_forms(prog, P("g(a)"), depth=3)
    assert result.truncated
    assert result.explored == 3
    assert result.normal_forms == frozenset()


def test_search_truncates_oversized_successors():
    prog = parse_program("grow @ g(X) <=> g(s(X)).")
    result = search_normal_forms(prog, P("g(a)"), depth=40)
    assert result.truncated
    assert result.explored == 28  # g(s^26(a)), of size 28, is the last within the bound


def test_search_truncates_at_width(leq_program):
    # 11 states untruncated, so width 3 must cut the search short
    goal = P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)")
    full = search_normal_forms(leq_program, goal)
    assert not full.truncated
    narrow = search_normal_forms(leq_program, goal, width=3)
    assert narrow.truncated
    assert narrow.explored < full.explored


# --- arrangement cap ---------------------------------------------------------------


@pytest.mark.parametrize(
    "source, largest_refused",
    [
        # 3 leaves, 3 free nodes with one tree each, 3! orders of 2 shapes
        ("p(a) /\\ q(b) /\\ r(c)", 17),
        # 4 leaves, 4 free nodes, 4! orders of 5 shapes
        ("p(a) /\\ q(b) /\\ r(c) /\\ s(d)", 127),
    ],
)
def test_arrangement_cap_boundary(source, largest_refused):
    term = annotate(0, P(source))
    with pytest.raises(OracleSizeError):
        _arrangements(term, largest_refused)
    assert len(_arrangements(term, largest_refused + 1)) == len(_arrangements(term, 10**6))


def test_arrangement_cap_refuses_before_building_a_node(monkeypatch):
    # 8! orders of 429 shapes each: the cap must stop the first few orders
    from acdterm import oracle

    shapes = count_calls(monkeypatch, oracle, "_shapes", limit=20_000)
    term = annotate(0, P(" /\\ ".join("abcdefgh")))
    with pytest.raises(OracleSizeError):
        _arrangements(term, 1_000)
    assert shapes.calls < 20_000


# --- binary views ------------------------------------------------------------------


def _nodes(t):
    return [n for _, n in subterms(t)]


def _leaves(t):
    return sorted(id(n) for n in _nodes(t) if not isinstance(n, App) or not n.args)


def test_arrangements_are_binary_views_of_the_term():
    # every view is an annotated term with binary AC nodes, AC-equal to the
    # term, built on the term's own leaves; its entry holds the term's entry
    # ids in some order, and flattened it carries exactly the term's ids
    rng = random.Random(11)
    checked = 0
    for _ in range(150):
        t = annotate(1, random_term(rng, depth=2))
        leaves = _leaves(t)
        entry = sorted(entry_of("r", t).ids)
        ids = sorted(n.id for n in _nodes(t))
        for view in _arrangements(t, 10**5):
            nodes = _nodes(view)
            assert all(isinstance(n.id, int) for n in nodes)
            assert all(
                len(n.args) == 2 for n in nodes if isinstance(n, App) and n.functor in AC_FUNCTORS
            )
            assert ac_key(view) == ac_key(t)
            assert _leaves(view) == leaves
            assert sorted(entry_of("r", view).ids) == entry
            assert sorted(n.id for n in _nodes(_flatten_annotated(view))) == ids
            checked += 1
    assert checked > 500, checked


def test_repeated_variable_bindings_compare_as_plain_trees():
    # the two bindings of X in f(X, X) must be the same tree once the
    # identifiers are dropped: no AC reordering or flattening, so `a + b`
    # does not repeat `b + a`
    pattern = App("f", (Var("X", 1), Var("X", 2)), 3)

    def repeats(a, b):
        subject = App("f", (annotate(1, a), annotate(100, b)), 500)
        return _match_b(pattern, subject, {}) is not None

    for a, b, expected in [
        ("a + b", "a + b", True),
        ("a + b", "b + a", False),
        ("f(X)", "f(Y)", False),
        ("f(1)", "f(1)", True),
        ("f(1)", "f(X)", False),
        ("g(a, b)", "g(a)", False),
    ]:
        assert repeats(P(a), P(b)) == expected, (a, b)
    rng = random.Random(5)
    same = 0
    for _ in range(300):
        a = random_term(rng, depth=2)
        b = a if rng.random() < 0.4 else random_term(rng, depth=2)
        assert repeats(a, b) == (a == b)
        same += a == b
    assert same > 50


# --- relabeling against the previous three-pass definition --------------------------


def _ref_sorted_goal(t):
    if not isinstance(t, App):
        return t
    args = tuple(_ref_sorted_goal(a) for a in t.args)
    if t.functor in AC_FUNCTORS:
        args = tuple(sorted(args, key=lambda a: (ac_key(a), a.id)))
    return App(t.functor, args, t.id)


def _ref_map_ids(t, rho):
    if isinstance(t, Var):
        return Var(t.name, rho[t.id])
    if isinstance(t, Num):
        return Num(t.value, rho[t.id])
    return App(t.functor, tuple(_ref_map_ids(a, rho) for a in t.args), rho[t.id])


def _ref_relabel(state):
    g = _ref_sorted_goal(state.goal)
    order = []
    stack = [g]
    while stack:
        n = stack.pop()
        order.append(n.id)
        if isinstance(n, App):
            stack.extend(reversed(n.args))
    rho = {old: i for i, old in enumerate(order, start=1)}
    extra = sorted({i for e in state.history for i in e.ids} - set(rho))
    for j, old in enumerate(extra, start=len(rho) + 1):
        rho[old] = j
    goal2 = _ref_map_ids(g, rho)
    hist2 = frozenset(
        HistoryEntry(e.rule, tuple(rho[i] for i in e.ids)) for e in state.history
    )
    return EngineState(goal2, hist2, len(rho) + 1)


def test_relabel_matches_reference(
    leq_program, unify_program, one_subst_program, golfers_program
):
    cases = [
        (leq_program, "leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"),
        (leq_program, "leq(a,b) /\\ leq(b,c) /\\ leq(c,a)"),
        (leq_program, "leq(A,A) /\\ ~true /\\ leq(B,A)"),
        (unify_program, "X = Y /\\ f(f(X)) = X /\\ Y = f(f(f(Y)))"),
        (unify_program, "f(X) = f(a) /\\ X = Y"),
        (one_subst_program, "not_one(A) /\\ one(A) /\\ one(B)"),
        (golfers_program, "maxOverlap(g1,g2,0) /\\ maxOverlap(g1,g2,1) /\\ holds(true)"),
        (leq_program, "leq(a,b) /\\ leq(b,a)"),
        (leq_program, "leq(a,b) /\\ leq(b,c) /\\ leq(c,d)"),
    ]
    checked = 0
    for prog, src in cases:
        frontier = [initial_state(P(src))]
        for _ in range(3):
            reached = []
            for state in frontier:
                assert _relabel(state) == _ref_relabel(state), src
                checked += 1
                reached.extend(s for s, _ in enumerate_transitions(state, prog))
            frontier = reached
        for state in frontier:
            assert _relabel(state) == _ref_relabel(state), src
            checked += 1
    assert checked > 300, checked


def test_referee_leaves_no_cyclic_garbage(leq_program, unify_program):
    # the oracle's recursions are module-level functions, as the matcher's
    # are: a nested function that calls itself leaves a reference cycle
    # after every call
    cases = [
        (leq_program, P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)")),
        (unify_program, P("f(X) = Y /\\ Y = f(a) /\\ X = Z")),
    ]
    for program, goal in cases:
        trace = run(program, goal).trace
        first = search_normal_forms(program, goal)
        with no_cyclic_garbage():
            verified = verify_trace(program, goal, trace)
            again = search_normal_forms(program, goal)
        assert verified and again == first and not first.truncated


def test_oracle_imports_nothing_from_the_matcher():
    # the referee keeps its own matcher, so that the engine's matching code
    # cannot vouch for itself (README, Decisions)
    import ast
    import pathlib

    from acdterm import oracle

    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not [n for n in names if "matching" in n.split(".")], names
