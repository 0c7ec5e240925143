"""The indexed searches enumerate in the order of the exhaustive ones.

`engine.step` visits a rule's candidate nodes through a head-key table and
`matching.match_cc` tries a conjunct's candidate elements through a head and
bound-argument index, over one frame per conjunction with the focus masked.
With a memo of the attempts that fired nothing, a step also skips the
matches that use only objects of such an attempt. All of these are meant to
drop only what could not match, could not fire or is not in the context, in
the same order. The references here try everything: every
element of `conjunctive_context` in context order with the implicit `true`
last, and every rule at every preorder position.
"""

import itertools
import random

from conftest import load_program
from test_acceptance import _random_goals

from acdterm import engine, parse_program, parse_term
from acdterm.engine import initial_state, step
from acdterm.matching import ContextIndex, ContextPattern, _match_node, match_cc, redexes_at
from acdterm.rules import SIMPAGATION
from acdterm.terms import (
    AC_FUNCTORS,
    AND,
    App,
    _CONTEXT_END,
    annotate_from,
    conjunctive_context,
    subterms,
)

P = parse_term


def _ref_match_cc(cc_pattern, elements, theta0, fresh=0):
    """Every assignment of conjuncts to distinct elements, elements tried in
    context order and the implicit `true` last; the residual, `true`
    included, stays non-empty. A nonzero `fresh` keeps the assignments
    that take one of the positions it names."""
    if isinstance(cc_pattern, App) and cc_pattern.functor == AND:
        conjuncts = cc_pattern.args
    else:
        conjuncts = (cc_pattern,)
    pool = list(elements) + [_CONTEXT_END]

    def assign(i, used, th):
        if i == len(conjuncts):
            if len(used) < len(pool) and (not fresh or any(fresh >> j & 1 for j in used)):
                yield th
            return
        for j, el in enumerate(pool):
            if j not in used:
                for th2, _inst in _match_node(conjuncts[i], el, th):
                    yield from assign(i + 1, used | {j}, th2)

    yield from assign(0, frozenset(), dict(theta0))


_ELEMENTS = [
    "p(a)", "p(b)", "p(X)", "p(a + b)", "q(a)", "q(b + a)", "r(a,b)", "r(b,a)",
    "r(a,a)", "r(X,X)", "r(a + b,c)", "r(b + a,c)", "a + b", "b \\/ c", "1", "2",
    "true", "X", "a", "f(g(a))", "r(1,a)",
]
_CONJUNCTS = [
    "p(X)", "p(Y)", "q(X)", "r(X,Y)", "r(Y,X)", "r(X,X)", "r(X + Y,Z)", "r(a,Y)",
    "r(1,X)", "X", "Y", "true", "1", "a + X", "b \\/ Y", "f(X)", "a",
]
_BINDINGS = ["a", "b", "c", "1", "a + b", "b + a", "X", "g(a)"]


def _annotated(src, next_id):
    return annotate_from(P(src), next_id)


def test_match_cc_keeps_the_reference_order():
    rng = random.Random(7)
    # a frame with the focus masked enumerates as the context without it;
    # the masks come from a stream of their own
    masks = random.Random(11)
    fresh_masks = random.Random(17)
    checked = matched = matched_masked = narrowed = 0
    for _ in range(400):
        next_id = 1
        elements = []
        for src in rng.choices(_ELEMENTS, k=rng.randrange(0, 7)):
            el, next_id = _annotated(src, next_id)
            elements.append(el)
        theta0 = {}
        for name in ("X", "Y", "Z"):
            if rng.random() < 0.4:
                theta0[name], next_id = _annotated(rng.choice(_BINDINGS), next_id)
        index = ContextIndex(elements)
        # several patterns against one index, as rules share it within a step
        for _ in range(3):
            pattern = P(" /\\ ".join(rng.choices(_CONJUNCTS, k=rng.randrange(1, 4))))
            cc = ContextPattern(pattern)
            expected = list(_ref_match_cc(pattern, elements, theta0))
            assert list(match_cc(cc, index, theta0)) == expected, (pattern, elements)
            fresh = fresh_masks.getrandbits(len(elements) + 1)
            in_fresh = list(_ref_match_cc(pattern, elements, theta0, fresh))
            assert list(match_cc(cc, index, theta0, 0, fresh)) == in_fresh, (pattern, fresh)
            narrowed += 0 < len(in_fresh) < len(expected)
            checked += 1
            matched += bool(expected)
            mask = masks.getrandbits(len(elements))
            rest = [el for j, el in enumerate(elements) if not mask >> j & 1]
            in_rest = list(_ref_match_cc(pattern, rest, theta0))
            assert list(match_cc(cc, index, theta0, mask)) == in_rest, (pattern, rest)
            matched_masked += bool(in_rest) and mask != 0
    assert matched > checked // 10
    assert matched_masked > checked // 20
    assert narrowed > checked // 50, narrowed


def _ref_step(state, program):
    """Every rule at every preorder position, each context matched by the
    reference above."""
    for rule in program.rules:
        for path, node in subterms(state.goal):
            for selected, theta0, matched in redexes_at(node, rule.head):
                if rule.kind == SIMPAGATION:
                    context = conjunctive_context(state.goal, path, selected)
                    thetas = _ref_match_cc(rule.cc_head, context, theta0)
                else:
                    thetas = [theta0]
                for theta in thetas:
                    fired = engine._successor(
                        rule, state, path, node, selected, rule.head, matched, theta
                    )
                    if fired is not None:
                        return fired
    return None


def _walk_agrees(program, goal, max_steps):
    """Each step, with the walk's memo and without one, fires as the
    reference."""
    state = initial_state(goal)
    memo = {}
    for _ in range(max_steps):
        fired = step(state, program, memo)
        assert fired == step(state, program), goal
        assert fired == _ref_step(state, program), goal
        if fired is None:
            return
        state = fired[0]


def test_step_fires_as_the_exhaustive_loop():
    for seed, name in enumerate(("leq", "unify", "one_subst", "golfers"), start=300):
        program = load_program(f"{name}.acd")
        for goal in _random_goals(seed, name)[:25]:
            _walk_agrees(program, goal, max_steps=30)


def test_step_fires_as_the_exhaustive_loop_on_cycles_and_chains():
    leq = load_program("leq.acd")
    unify = load_program("unify.acd")
    cycle = " /\\ ".join(f"leq(X{i},X{(i + 1) % 4})" for i in range(4))
    _walk_agrees(leq, P(cycle), max_steps=40)
    chain = "X = f(Y) /\\ Y = f(Z) /\\ W = X /\\ Z = a /\\ f(W) = f(f(f(a)))"
    _walk_agrees(unify, P(chain), max_steps=40)


def test_step_fires_as_the_exhaustive_loop_on_ac_heads():
    # selections of one conjunction have different contexts, the
    # propagation reorders AC children, and `n` has a number head
    program = parse_program(
        """
        sel  @ p(X) \\ q(X) /\\ s(Y) <=> t(X,Y).
        both @ t(X,Y) /\\ t(Y,X) ==> u(X + Y).
        drop @ u(Z) \\ u(Z) <=> true.
        n    @ 2 <=> 1 + 1.
        any  @ g(X) \\ a \\/ X <=> a.
        """
    )
    for src in [
        "q(a) /\\ s(b) /\\ p(b) /\\ q(b) /\\ s(a) /\\ p(a)",
        "s(c) /\\ q(b) /\\ q(a) /\\ p(a) /\\ s(d) /\\ p(b) /\\ 2",
        "g(b) /\\ (a \\/ b \\/ c) /\\ g(c) /\\ h(2, a \\/ c)",
    ]:
        _walk_agrees(program, P(src), max_steps=30)
    # r1 indexes the root's context for one selection and fails; r2 fires at
    # the root only in the context of its own selection
    shared = parse_program(
        """
        r1 @ zz \\ q(X) /\\ s(X) <=> t1.
        r2 @ q(a) \\ w(b) /\\ s(a) <=> t2.
        """
    )
    _walk_agrees(shared, P("q(a) /\\ s(a) /\\ w(b) /\\ w(c)"), max_steps=5)


def test_step_fires_as_the_exhaustive_loop_in_nested_frames():
    # conjunctions under `\/`, under `f/1` inside a conjunction, and an
    # AC-headed simpagation whose selection lies in an inner conjunction:
    # contexts that only frames below the root reach
    program = parse_program(
        """
        sel  @ p(X) \\ q(X) /\\ s(Y) <=> t(X,Y).
        drop @ u(Z) \\ u(Z) <=> true.
        deep @ t(X,Y) \\ h(s(X)) <=> t(Y,X).
        """
    )
    for src in [
        "p(a) /\\ f(q(a) /\\ s(b) /\\ p(b)) /\\ (q(b) \\/ (s(a) /\\ p(a)))",
        "f(q(b) /\\ s(a) /\\ p(b)) /\\ p(a) /\\ g(q(a) /\\ s(a), p(a) /\\ f(q(a) /\\ s(b)))",
        "u(a) /\\ f(u(a) /\\ u(b)) /\\ (u(b) \\/ (u(a) /\\ u(b) /\\ f(u(b))))",
        "p(a) /\\ (q(a) /\\ s(b) \\/ q(b) /\\ s(a)) /\\ h(s(a)) /\\ f(h(s(b)) /\\ p(b)) /\\ t(b,a)",
    ]:
        _walk_agrees(program, P(src), max_steps=30)


_LEAVES = ["p(a)", "p(b)", "q(a)", "s(b)", "u(a)", "a", "X"]


def _nested_goal(rng, depth, parent=None):
    """A goal with conjunctions nested under conjunctions, `\\/` and
    non-AC functors; an AC node is never the child of its own functor, which
    would flatten it away."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    kind = rng.choice([k for k in ("/\\", "/\\", "\\/", "f", "g") if k != parent])
    if kind == "f":
        return f"f({_nested_goal(rng, depth - 1)})"
    if kind == "g":
        return f"g({_nested_goal(rng, depth - 1)}, {_nested_goal(rng, depth - 1)})"
    parts = [_nested_goal(rng, depth - 1, kind) for _ in range(rng.randrange(2, 5))]
    return "(" + f" {kind} ".join(parts) + ")"


def _foci(goal):
    """Every (path, node, selected) a redex can have: each node whole, and
    each non-empty proper subset of an AC node's children."""
    for path, node in subterms(goal):
        yield path, node, None
        if isinstance(node, App) and node.functor in AC_FUNCTORS:
            n = len(node.args)
            for k in range(1, n):
                for selected in itertools.combinations(range(1, n + 1), k):
                    yield path, node, selected


def test_frame_minus_mask_is_the_conjunctive_context():
    rng = random.Random(13)
    checked = masked_inner = 0
    for _ in range(150):
        goal, _next = annotate_from(P(_nested_goal(rng, 4)), 1)
        context_of = engine._focus_contexts(goal)
        indexes = set()
        for path, node, selected in _foci(goal):
            index, mask = context_of(path, node, selected)
            indexes.add(id(index))
            *frame, end = index.elements
            assert end is _CONTEXT_END and not mask >> len(frame)
            rest = [el for j, el in enumerate(frame) if not mask >> j & 1]
            assert rest == list(conjunctive_context(goal, path, selected)), (goal, path, selected)
            checked += 1
            masked_inner += bool(mask) and len(path) > 1
        # one index per conjunction, and one for the empty context
        conjunctions = sum(
            isinstance(node, App) and node.functor == AND for _path, node in subterms(goal)
        )
        assert len(indexes) <= conjunctions + 1
    assert checked > 2000 and masked_inner > 500
