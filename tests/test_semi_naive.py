"""`run` keeps one memo of failed attempts for the whole run and retries only
the matches that involve a new object; `step` without a memo tries every
match. The two must agree step for step: same trace records, same final goal
with its identifiers, same history.

The random programs mix rules of every kind over `p/1`, `q/1`, `r/2`,
constants, `/\\`, `\\/` and `+`, with `!==` guards and context heads that
include a bare variable, `true` and `Y /\\ true`. Run this file as a script
for a longer sweep:
`PYTHONPATH=src python3 tests/test_semi_naive.py [cases] [first seed]`.
"""

import pathlib
import random
import sys

from conftest import count_calls

from acdterm import engine, enumerate_transitions, parse_program, parse_term
from acdterm.engine import initial_state, run, step
from acdterm.rules import Program
from acdterm.terms import ids_of, size, subterms

_ATOMS = ["p(X)", "p(a)", "q(X)", "q(Y)", "q(b)", "r(X,Y)", "r(X,X)", "r(a,Y)", "g(X)"]
_HEADS = _ATOMS + [
    "p(X) /\\ q(X)", "p(X) /\\ q(Y)", "X /\\ p(a)", "p(X) \\/ Y", "X + a", "q(X) /\\ Y",
    "X", "true", "a",
]
_CONTEXTS = ["Y", "true", "Y /\\ true", "p(Y)", "q(X)", "r(Y,X)", "p(Y) /\\ q(Y)", "X /\\ p(Y)"]
_GUARDS = ["", "", "X !== Y | ", "X !== a | ", "Y !== b | "]
_BODIES = ["true", "q(X)", "p(a)", "r(X,b)", "p(a) /\\ q(X)", "X \\/ a", "g(q(Y))", "t1", "Y + b"]
_GOAL_PARTS = [
    "p(a)", "p(b)", "q(a)", "q(b)", "r(a,b)", "r(b,b)", "g(p(a))", "t1", "true", "a",
    "(p(a) \\/ q(b))", "(a + b)", "f(p(a) /\\ q(b))", "g(V)", "p(V)",
]
BENCH_PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "programs"
# a case stops once its goal's size passes this, or once its memo-less walk
# has enumerated this many redexes
_CAP = 120
_REDEX_CAP = 20_000
# a fixed 16-link unify.acd chain of 76 steps
CHAIN = (
    "f(f(V16)) = f(f(V1)) /\\ V5 = V10 /\\ V7 = V12 /\\ f(V13) = f(V8) /\\ "
    "f(f(f(V11))) = f(f(f(V6))) /\\ f(V8) = f(V0) /\\ f(V2) = f(V16) /\\ "
    "f(f(V12)) = f(f(V11)) /\\ V10 = f(f(a)) /\\ f(f(f(V15))) = f(f(f(V5))) /\\ "
    "f(V0) = f(V9) /\\ f(f(f(V6))) = f(f(f(V3))) /\\ f(f(f(V9))) = f(f(f(V14))) /\\ "
    "f(f(V1)) = f(f(V7)) /\\ V3 = V13 /\\ f(f(V4)) = f(f(V2)) /\\ V14 = V15"
)
# a leq cycle of 5 atoms, 39 steps under leq.acd rules 1-4
LEQ_CYCLE_5 = " /\\ ".join(f"leq(X{i},X{(i + 1) % 5})" for i in range(5))


def _random_program(rng):
    """1-4 rules, each of any kind; guards mention only head variables."""
    rules = []
    for k in range(rng.randrange(1, 5)):
        head = rng.choice(_HEADS)
        kind = rng.choice(["<=>", "==>", "\\"])
        context = rng.choice(_CONTEXTS) if kind == "\\" else ""
        scope = head + " " + context
        guard = rng.choice([g for g in _GUARDS if all(v in scope for v in "XY" if v in g)])
        body = rng.choice(_BODIES)
        if kind == "\\":
            rules.append(f"r{k} @ {context} \\ {head} <=> {guard}{body}.")
        else:
            rules.append(f"r{k} @ {head} {kind} {guard}{body}.")
    return "\n".join(rules)


def _random_goal(rng):
    return " /\\ ".join(rng.choices(_GOAL_PARTS, k=rng.randrange(1, 6)))


def _stepped(program, goal, max_steps, cap, check=None):
    """`run` by iterated memo-less `step`: (final state, trace, status, capped).

    Once the goal's size passes cap, or the walk has enumerated more than
    _REDEX_CAP redexes, the walk stops as if max_steps were the number of
    steps taken and counts as capped. So a goal that doubles every step stays
    small, and a head whose variable group ranges over a growing conjunction
    that its context then refuses stays cheap. `check(before, after)` is
    called with the states around every step.
    """
    redexes = [0]
    original = engine.redexes_at

    def counted(node, head):
        for redex in original(node, head):
            redexes[0] += 1
            yield redex

    engine.redexes_at = counted
    try:
        state = initial_state(goal)
        trace = []
        capped = False
        for k in range(max_steps):
            fired = step(state, program)
            if fired is None:
                return state, trace, engine.NORMAL_FORM, False
            if check is not None:
                check(state, fired[0])
            state, ts = fired
            trace.append(ts._replace(index=k + 1))
            capped = size(state.goal) > cap or redexes[0] > _REDEX_CAP
            if capped:
                break
        status = engine.NORMAL_FORM if step(state, program) is None else engine.BUDGET_EXHAUSTED
    finally:
        engine.redexes_at = original
    return state, trace, status, capped


def _agrees(program, goal, max_steps, cap=_CAP):
    """(steps taken, whether a cap stopped the walk); `run` is given as many
    steps as the memo-less walk took."""
    state, trace, status, capped = _stepped(program, goal, max_steps, cap)
    result = run(program, goal, len(trace))
    assert [engine.step_record(ts) for ts in result.trace] == [
        engine.step_record(ts) for ts in trace
    ]
    assert result.final.goal == state.goal
    assert result.final.history == state.history
    assert (result.final.next_id, result.status) == (state.next_id, status)
    return len(trace), capped


def _sweep(cases, first_seed=0, max_steps=25):
    """(cases checked, steps taken, cases stopped by a cap)."""
    checked = steps = capped = 0
    for seed in range(first_seed, first_seed + cases):
        rng = random.Random(seed)
        src = _random_program(rng)
        program = parse_program(src)
        for _ in range(3):
            goal = parse_term(_random_goal(rng))
            try:
                taken, over = _agrees(program, goal, max_steps)
            except AssertionError as e:
                raise AssertionError(f"seed {seed}: {src!r} on {goal}") from e
            checked += 1
            steps += taken
            capped += over
    return checked, steps, capped


def test_run_with_memo_equals_memoless_steps_on_random_programs():
    # a variable-headed propagation whose body copies its match doubles the
    # goal every step, which the size cap cuts short
    checked, steps, capped = _sweep(150)
    assert checked == 450 and capped <= 30, capped
    # the cases fire rules, most of them more than once
    assert steps > 5 * checked, steps


def test_implicit_true_counts_as_new():
    # r0 fails at p(a) while the context is t1 alone: `Y /\ true` would
    # leave no residual. Once r1 adds t2 the match Y = t1 with `true` fits,
    # though t1 is an old element; counting `true` as old would fire Y = t2
    program = parse_program("r0 @ Y /\\ true \\ p(a) <=> q(Y).  r1 @ g(X) ==> t2.")
    goal = parse_term("t1 /\\ g(p(a))")
    _agrees(program, goal, 10)
    trace = run(program, goal, max_steps=2).trace
    assert [ts.rule for ts in trace] == ["r1", "r0"]
    assert engine.pretty(trace[-1].goal_after) == "t1 /\\ g(q(t1)) /\\ t2"


def test_rebuilt_ac_node_is_tried_again():
    # r0 fails at a /\ node first; r1 then rebuilds that node under the same
    # identifier with q(a) among its children, and r0 must fire on it: as a
    # simplification, as a simpagation whose head takes the new child, one
    # whose context holds it, and one whose head takes the whole node
    for program, goal in [
        ("r0 @ p(X) /\\ q(X) <=> s(X).  r1 @ t ==> q(a).", "p(a) /\\ t /\\ p(b)"),
        ("r0 @ t \\ p(X) /\\ q(X) <=> s(X).  r1 @ t ==> q(a).", "p(a) /\\ t /\\ p(b)"),
        ("r0 @ q(X) \\ p(X) /\\ t <=> s(X).  r1 @ t ==> q(a).", "p(a) /\\ t /\\ p(b)"),
        ("r0 @ t \\ p(X) /\\ q(X) <=> s(X).  r1 @ r <=> q(a).", "f(p(a) /\\ r) /\\ t"),
    ]:
        program, goal = parse_program(program), parse_term(goal)
        _agrees(program, goal, 10)
        assert [ts.rule for ts in run(program, goal).trace] == ["r1", "r0"]


def test_one_node_draws_on_two_frames():
    # at p(a) /\ q /\ r, r0's selections take their contexts from that
    # conjunction's own frame, the whole node from the root's; both fail
    # until r1 adds t, and then one of them must fire whichever frame the
    # memo kept
    goal = parse_term("f(p(a) /\\ q /\\ r) /\\ go")
    for guard, after in [
        ("Y !== q /\\ Y !== r", "f(s(a,q /\\ r)) /\\ go /\\ t"),
        ("Y !== q /\\ Y !== (q /\\ r)", "f(s(a,r) /\\ q) /\\ go /\\ t"),
    ]:
        program = parse_program(f"r0 @ t \\ p(X) /\\ Y <=> {guard} | s(X,Y).  r1 @ go ==> t.")
        _agrees(program, goal, 10)
        trace = run(program, goal).trace
        assert [ts.rule for ts in trace] == ["r1", "r0"]
        assert engine.pretty(trace[-1].goal_after) == after


def test_memo_skips_refused_guards(monkeypatch, unify_program):
    # stepping without a memo re-checks at every step of the chain the
    # guards refused at every unchanged node (1,214 calls);
    # with the memo only matches with something new reach the guard (161)
    guards = count_calls(monkeypatch, engine, "guard_holds")
    result = run(unify_program, parse_term(CHAIN))
    assert (len(result.trace), result.status) == (76, engine.NORMAL_FORM)
    assert guards.calls <= 400, guards.calls


def test_memo_skips_contexts_with_nothing_new(monkeypatch, unify_program):
    # vsubs and tsubs have no context conjunct that can take the implicit
    # `true`, so an old redex whose context holds no new element calls no
    # `match_cc`: 950 calls on this chain, against 1,002 when every old
    # redex called it; the trace is that of memo-less steps
    goal = parse_term(CHAIN)
    match_ccs = count_calls(monkeypatch, engine, "match_cc")
    result = run(unify_program, goal)
    assert (len(result.trace), result.status) == (76, engine.NORMAL_FORM)
    assert match_ccs.calls <= 960, match_ccs.calls
    _agrees(unify_program, goal, 100)


def test_step_upkeep_follows_what_changed(monkeypatch, leq_program, unify_program):
    # on the leq cycle: a simpagation's attempt that fired nothing keeps its
    # head redexes, so at the same node object a later step enumerates none
    # (97 `redexes_at` calls, against 621 when every attempt enumerated
    # them); antisymmetry's and idempotence's context `leq(X,Y)` can take no
    # new `X = Y` or `true` (294 `match_cc` calls, against 571 when any new
    # element counted); and only a step that removes nodes collects the
    # history, over its removed subtrees (20 `ids_of` calls, against 42 when
    # every firing walked the goal). On the chain 458 `redexes_at` calls,
    # against 1,233
    searches, match_ccs, walks = (
        count_calls(monkeypatch, engine, name) for name in ("redexes_at", "match_cc", "ids_of")
    )
    result = run(Program(leq_program.rules[:4]), parse_term(LEQ_CYCLE_5))
    assert (len(result.trace), result.status) == (39, engine.NORMAL_FORM)
    calls = searches.calls, match_ccs.calls, walks.calls
    assert calls[0] <= 200 and calls[1] <= 400 and calls[2] <= 25, calls
    searches.calls = 0
    result = run(unify_program, parse_term(CHAIN))
    assert (len(result.trace), result.status) == (76, engine.NORMAL_FORM)
    assert searches.calls <= 600, searches.calls


def _assert_collected(before, after):
    """`after` holds only entries whose identifiers are all in its goal, and
    every entry of `before` whose identifiers all still are. Every node of
    its goal has an integer identifier of its own."""
    ids = [node.id for _path, node in subterms(after.goal)]
    assert all(isinstance(i, int) for i in ids), ids
    assert len(set(ids)) == len(ids), ids
    live = ids_of(after.goal)
    for e in after.history:
        assert live.issuperset(e.ids), e
    for e in before.history:
        assert e in after.history or not live.issuperset(e.ids), e


def test_history_drops_exactly_the_dead_entries(leq_program):
    # after every step of the 5-cycle, of a removal of two selected children
    # and of the random programs' walks, and for every oracle successor of
    # two levels from a goal whose transitivity entries antisymmetry or
    # idempotence can then cut
    steps = []

    def check(before, after):
        _assert_collected(before, after)
        steps.append(after)

    _stepped(Program(leq_program.rules[:4]), parse_term(LEQ_CYCLE_5), 100, _CAP, check)
    # rm removes two selected children, and mk's entry names the second
    two = parse_program("mk @ q(X) ==> m.  rm @ m \\ p(X) /\\ q(X) <=> r.")
    assert _stepped(two, parse_term("p(a) /\\ q(a) /\\ t"), 10, _CAP, check)[1][-1].rule == "rm"
    for seed in range(60):
        rng = random.Random(seed)
        program = parse_program(_random_program(rng))
        for _ in range(3):
            _stepped(program, parse_term(_random_goal(rng)), 25, _CAP, check)
    assert len(steps) > 1000 and sum(bool(s.history) for s in steps) > 500
    frontier = [initial_state(parse_term("leq(a,b) /\\ leq(b,a) /\\ leq(b,c)"))]
    checked = 0
    for _ in range(2):
        reached = []
        for state in frontier:
            for succ, _ts in enumerate_transitions(state, leq_program):
                _assert_collected(state, succ)
                checked += 1
                reached.append(succ)
        frontier = reached
    assert checked > 10 and any(s.history for s in frontier)


def test_rules_without_context_search_a_node_object_once(monkeypatch, leq_program):
    # a simplification or propagation that fired nothing at a node object
    # finds nothing new there later, so the memo skips it: over a run no
    # such rule searches the same node object twice (a simpagation may,
    # against contexts that gained an element)
    bool_program = parse_program((BENCH_PROGRAMS / "bool.acd").read_text(encoding="utf-8"))
    searched = []  # keeps every node alive, so its id stays its own
    original = engine.redexes_at

    def recording(node, head):
        searched.append((head, node))
        return original(node, head)

    monkeypatch.setattr(engine, "redexes_at", recording)
    for program, goal in [
        (leq_program, "leq(A,B) /\\ leq(B,C) /\\ leq(C,D) /\\ leq(D,A)"),
        (bool_program, "(a \\/ ~true \\/ b) /\\ (c \\/ ~false) /\\ (d \\/ false) /\\ (e \\/ f)"),
    ]:
        searched.clear()
        result = run(program, parse_term(goal))
        assert result.status == engine.NORMAL_FORM and result.trace
        rule_of = {id(rule.head): r for r, rule in enumerate(program.rules) if rule.cc is None}
        tries = [(rule_of[id(h)], id(n)) for h, n in searched if id(h) in rule_of]
        assert tries and len(tries) == len(set(tries))


def test_memo_drops_entries_of_removed_nodes(monkeypatch):
    # spin replaces p(a) and p(b) by fresh nodes every step; chk fails at
    # each of them against `big`, so without pruning the memo would keep
    # every replaced node and its frame
    program = parse_program("chk @ big \\ p(X) <=> X !== X | z.  spin @ p(X) <=> p(X).")
    memos = []
    stepped = step

    def keep_memo(state, program, memo=None):
        memos[:] = [(memo, state)]
        return stepped(state, program, memo)

    monkeypatch.setattr(engine, "step", keep_memo)
    result = run(program, parse_term("big /\\ p(a) /\\ p(b)"), max_steps=2_000)
    assert result.status == engine.BUDGET_EXHAUSTED
    memo, state = memos[-1]
    live = ids_of(state.goal)
    assert len(memo) <= 4 * len(live) * len(program.rules)
    assert sum(key[1] not in live for key in memo) <= 2 * len(live) * len(program.rules)


if __name__ == "__main__":
    cases = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1_000
    print("checked %d, steps %d, stopped by a cap %d" % _sweep(cases, first))
