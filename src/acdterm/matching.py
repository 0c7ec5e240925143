"""One-sided matching modulo AC, conjunctive-context matching, guards.

Pattern variables bind annotated goal subterms; goal variables are treated as
constants. At an AC node a pattern with the same AC functor may match any
submultiset of the flattened children: non-variable pattern children consume
exactly one subject child each, variable pattern children consume a non-empty
group. Enumeration is deterministic: pattern children left to right, subject
children in node order, groups by ascending size then index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .terms import (
    AC_FUNCTORS,
    AND,
    AApp,
    ANum,
    App,
    ATerm,
    Num,
    Position,
    Term,
    Var,
    ac_equal,
    canonical,
    positions,
    size,
    strip,
    subterm_at,
)

Subst = dict[str, ATerm]


@dataclass(frozen=True)
class Redex:
    """A rule-head occurrence in a goal.

    `path` addresses a goal node. For a match against a submultiset of an AC
    node's children, `selected` holds the consumed child indices (1-based,
    ascending) and `residual` the remaining children; for a whole-node match
    `selected` is None. `matched` is the head instance, aligned node-for-node
    with the pattern (AC groups bound to one variable stay nested), so entry
    and history computations can traverse it in matched order.
    """

    path: Position
    selected: tuple[int, ...] | None
    theta: Subst
    matched: ATerm
    residual: tuple[ATerm, ...] = ()


def _group_term(functor: str, members: tuple[ATerm, ...], node_id: int) -> ATerm:
    if len(members) == 1:
        return members[0]
    return AApp(functor, members, node_id)


def _match_node(pattern: Term, subject: ATerm, theta: Subst) -> Iterator[tuple[Subst, ATerm]]:
    """Yield (theta', matched-instance) for pattern against the whole subject."""
    if isinstance(pattern, Var):
        bound = theta.get(pattern.name)
        if bound is not None:
            if ac_equal(bound, subject):
                yield theta, subject
        else:
            yield {**theta, pattern.name: subject}, subject
        return
    if isinstance(pattern, Num):
        if isinstance(subject, ANum) and subject.value == pattern.value:
            yield theta, subject
        return
    if not isinstance(subject, AApp) or subject.functor != pattern.functor:
        return
    if pattern.functor in AC_FUNCTORS:
        for theta2, inst, _unused in _match_ac(pattern, subject, theta, full=True):
            yield theta2, inst
        return
    if len(subject.args) != len(pattern.args):
        return

    def walk(i, th, insts):
        if i == len(pattern.args):
            yield th, AApp(subject.functor, tuple(insts), subject.id)
            return
        for th2, inst in _match_node(pattern.args[i], subject.args[i], th):
            yield from walk(i + 1, th2, insts + [inst])

    yield from walk(0, theta, [])


def _match_ac(pattern: App, subject: AApp, theta: Subst, full: bool):
    """Assign subject children to pattern children at a shared AC functor.

    Yields (theta', instance, used-indices). With full=True every subject
    child must be consumed (plain matching); otherwise the leftover children
    form the redex residual.
    """
    pat_children = pattern.args
    sub_children = subject.args
    n = len(sub_children)

    def assign(i, unused: tuple[int, ...], th, insts):
        if i == len(pat_children):
            if full and unused:
                return
            yield th, AApp(subject.functor, tuple(insts), subject.id), unused
            return
        p = pat_children[i]
        if isinstance(p, Var):
            bound = th.get(p.name)
            for k in range(1, len(unused) + 1):
                for combo in combinations(unused, k):
                    members = tuple(sub_children[j] for j in combo)
                    inst = _group_term(subject.functor, members, subject.id)
                    if bound is not None:
                        if not ac_equal(bound, inst):
                            continue
                        th2 = th
                    else:
                        th2 = {**th, p.name: inst}
                    rest = tuple(j for j in unused if j not in combo)
                    yield from assign(i + 1, rest, th2, insts + [inst])
        else:
            for j in unused:
                for th2, inst in _match_node(p, sub_children[j], th):
                    rest = tuple(x for x in unused if x != j)
                    yield from assign(i + 1, rest, th2, insts + [inst])

    yield from assign(0, tuple(range(n)), theta, [])


def match(pattern: Term, subject: ATerm) -> Iterator[Subst]:
    """All substitutions theta with theta(pattern) AC-equal to the subject."""
    for theta, _inst in _match_node(pattern, subject, {}):
        yield theta


def redexes_at(node: ATerm, head: Term) -> Iterator[Redex]:
    """Redexes anchored at this node (path is relative, always ())."""
    if (
        isinstance(head, App)
        and head.functor in AC_FUNCTORS
        and isinstance(node, AApp)
        and node.functor == head.functor
    ):
        for theta, inst, unused in _match_ac(head, node, {}, full=False):
            if unused:
                used = tuple(
                    i + 1 for i in range(len(node.args)) if i not in unused
                )
                residual = tuple(node.args[i] for i in unused)
                yield Redex((), used, theta, inst, residual)
            else:
                yield Redex((), None, theta, inst, ())
        return
    for theta, inst in _match_node(head, node, {}):
        yield Redex((), None, theta, inst, ())


def find_redexes(goal: ATerm, head: Term) -> Iterator[Redex]:
    """All redexes of a head in a goal, in preorder position order."""
    for path in positions(goal):
        node = subterm_at(goal, path)
        for r in redexes_at(node, head):
            yield Redex(path, r.selected, r.theta, r.matched, r.residual)


def match_cc(cc_pattern: Term, cc, theta0: Subst) -> Iterator[Subst]:
    """Extend theta0 so the pattern's conjuncts match distinct cc elements.

    The pattern is split on the top-level conjunction; each conjunct must
    match one element of the context multiset (the unmatched rest is the
    unconstrained residual).
    """
    if isinstance(cc_pattern, App) and cc_pattern.functor == AND:
        conjuncts = cc_pattern.args
    else:
        conjuncts = (cc_pattern,)
    elements = tuple(cc)

    def assign(i, used: frozenset[int], th):
        if i == len(conjuncts):
            yield th
            return
        for j, el in enumerate(elements):
            if j in used:
                continue
            for th2, _inst in _match_node(conjuncts[i], el, th):
                yield from assign(i + 1, used | {j}, th2)

    yield from assign(0, frozenset(), dict(theta0))


def _instantiate(term: Term, theta: Subst, taken: frozenset[str]) -> Term:
    """theta applied to a term, as a plain term.

    Unbound variables become fresh goal variables, with names chosen
    deterministically and disjoint from the names in `taken`. AC nodes are
    not re-flattened, so a rule body's positions stay valid on its instance
    (required for aligning the history renaming).
    """
    return _instantiate_with(term, theta, taken, {})


def _instantiate_with(
    t: Term, theta: Subst, taken: frozenset[str], fresh: dict[str, Var]
) -> Term:
    # a recursive function rather than a closure: guards call _instantiate
    # once per variable, where building a closure would double its cost
    if isinstance(t, Var):
        bound = theta.get(t.name)
        if bound is not None:
            return strip(bound)
        if t.name not in fresh:
            chosen = {v.name for v in fresh.values()}
            k = 1
            while f"_{t.name}{k}" in taken or f"_{t.name}{k}" in chosen:
                k += 1
            fresh[t.name] = Var(f"_{t.name}{k}")
        return fresh[t.name]
    if isinstance(t, Num):
        return t
    return App(t.functor, tuple(_instantiate_with(a, theta, taken, fresh) for a in t.args))


# --- guards ------------------------------------------------------------------

_COMPARISONS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
}


def _arith(t: Term) -> int | None:
    if isinstance(t, Num):
        return t.value
    if isinstance(t, App) and t.functor == "+":
        total = 0
        for a in t.args:
            v = _arith(a)
            if v is None:
                return None
            total += v
        return total
    if isinstance(t, App) and t.functor == "*":
        total = 1
        for a in t.args:
            v = _arith(a)
            if v is None:
                return None
            total *= v
        return total
    if isinstance(t, App) and t.functor == "size" and len(t.args) == 1:
        return size(t.args[0])
    return None


def guard_holds(guard: Term, theta: Subst) -> bool:
    """Whether a guard term holds under theta.

    The recognised guards: true, false, conjunction, var/1, nonvar/1,
    disequality modulo AC !==, and comparisons (=, <=, <, >=, >) over
    arithmetic expressions built from integers, +, * and size/1. Any other
    term simply does not hold.
    """
    if isinstance(guard, App):
        f, n = guard.functor, len(guard.args)
        if f == "true" and n == 0:
            return True
        if f == "false" and n == 0:
            return False
        if f == AND:
            return all(guard_holds(a, theta) for a in guard.args)
        if f == "var" and n == 1:
            return isinstance(_instantiate(guard.args[0], theta, frozenset()), Var)
        if f == "nonvar" and n == 1:
            return not isinstance(_instantiate(guard.args[0], theta, frozenset()), Var)
        if f == "!==" and n == 2:
            lhs = _instantiate(guard.args[0], theta, frozenset())
            rhs = _instantiate(guard.args[1], theta, frozenset())
            return canonical(lhs) != canonical(rhs)
        if f in _COMPARISONS and n == 2:
            lhs = _arith(_instantiate(guard.args[0], theta, frozenset()))
            rhs = _arith(_instantiate(guard.args[1], theta, frozenset()))
            if lhs is None or rhs is None:
                return False
            return _COMPARISONS[f](lhs, rhs)
    return False
