"""One-sided matching modulo AC, conjunctive-context matching, guards.

Pattern variables bind annotated goal subterms; goal variables are treated as
constants. At an AC node a pattern with the same AC functor may match any
submultiset of the flattened children: non-variable pattern children consume
exactly one subject child each, variable pattern children consume a non-empty
group. Enumeration is deterministic: pattern children left to right, subject
children in node order, groups by ascending size then index order.

The AC matcher cuts branches that cannot yield a match, in the manner of
Eker's AC matching (Computer Journal 38(5), 1995), without changing that
order. Once per AC node it tables the subject children whose head symbol
(functor and arity, number value) fits each non-variable pattern child. It
stops as soon as a remaining non-variable pattern child has no candidate
left among the unused children, and before it enumerates the groups of a
variable it checks that the later non-variable pattern children can still
take distinct unused children under the bindings so far. Group sizes are
bounded by the number of pattern children still to be served.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .terms import (
    AC_FUNCTORS,
    AND,
    TRUE,
    AApp,
    ANum,
    App,
    ATerm,
    Num,
    Term,
    Var,
    ac_equal,
    ac_key,
    size,
    strip,
)

Subst = dict[str, ATerm]


@dataclass(frozen=True)
class Redex:
    """A rule-head occurrence anchored at a goal node.

    For a match against a submultiset of an AC node's children, `selected`
    holds the consumed child indices (1-based, ascending); for a whole-node
    match it is None. `matched` is the head instance, aligned node-for-node
    with the pattern (AC groups bound to one variable stay nested), so entry
    and history computations can traverse it in matched order.
    """

    selected: tuple[int, ...] | None
    theta: Subst
    matched: ATerm


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


def _head(t: Term | ATerm):
    """A key on which a non-variable pattern and a subject agree exactly when
    their head symbols fit: a number's value, an AC node's functor, and
    functor and arity for any other node (None for a variable)."""
    if isinstance(t, (App, AApp)):
        return t.functor if t.functor in AC_FUNCTORS else (t.functor, len(t.args))
    if isinstance(t, (Num, ANum)):
        return t.value
    return None


def _match_ac(pattern: App, subject: AApp, theta: Subst, full: bool):
    """Assign subject children to pattern children at a shared AC functor.

    Yields (theta', instance, used-indices). With full=True every subject
    child must be consumed (plain matching); otherwise the leftover children
    form the redex residual. Branches are cut only when they provably yield
    nothing, so the enumeration order is that of the unpruned search.
    """
    pat_children = pattern.args
    sub_children = subject.args
    m = len(pat_children)
    n = len(sub_children)
    # fits[i]: bitmask of the subject children whose head symbol fits
    # pattern child i, None for a variable
    by_head: dict = {}
    for j, s in enumerate(sub_children):
        key = _head(s)
        by_head[key] = by_head.get(key, 0) | 1 << j
    fits = [None if key is None else by_head.get(key, 0) for key in map(_head, pat_children)]

    def feasible(ks: tuple[int, ...], free: int, th) -> bool:
        # can pattern children ks take distinct children in free under th?
        if not ks:
            return True
        p = pat_children[ks[0]]
        candidates = fits[ks[0]] & free
        for j in range(n):
            if candidates >> j & 1:
                for th2, _inst in _match_node(p, sub_children[j], th):
                    if feasible(ks[1:], free & ~(1 << j), th2):
                        return True
        return False

    # `unused` lists the subject children not yet taken, in node order;
    # `free` is the same set as a bitmask
    def assign(i, unused: tuple[int, ...], free: int, th, insts):
        if i == m:
            if full and unused:
                return
            yield th, AApp(subject.functor, tuple(insts), subject.id), unused
            return
        for k in range(i, m):
            if fits[k] is not None and not fits[k] & free:
                return
        p = pat_children[i]
        fit = fits[i]
        if fit is None:
            later = tuple(k for k in range(i + 1, m) if fits[k] is not None)
            if not feasible(later, free, th):
                return
            bound = th.get(p.name)
            # every later pattern child takes at least one subject child,
            # and under full=True with no later variable exactly one
            top = len(unused) - (m - i - 1)
            low = top if full and len(later) == m - i - 1 else 1
            for k in range(low, top + 1):
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
                    taken = sum(1 << j for j in combo)
                    yield from assign(i + 1, rest, free - taken, th2, insts + [inst])
        else:
            for j in unused:
                if fit >> j & 1:
                    for th2, inst in _match_node(p, sub_children[j], th):
                        rest = tuple(x for x in unused if x != j)
                        yield from assign(i + 1, rest, free & ~(1 << j), th2, insts + [inst])

    yield from assign(0, tuple(range(n)), (1 << n) - 1, theta, [])


def match(pattern: Term, subject: ATerm) -> Iterator[Subst]:
    """All substitutions theta with theta(pattern) AC-equal to the subject."""
    for theta, _inst in _match_node(pattern, subject, {}):
        yield theta


def redexes_at(node: ATerm, head: Term) -> Iterator[Redex]:
    """Redexes anchored at this node."""
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
                yield Redex(used, theta, inst)
            else:
                yield Redex(None, theta, inst)
        return
    for theta, inst in _match_node(head, node, {}):
        yield Redex(None, theta, inst)


# The implicit `true` that ends every conjunctive context; it is no goal node.
_CONTEXT_END = AApp("true", (), -1)


def match_cc(cc_pattern: Term, cc, theta0: Subst) -> Iterator[Subst]:
    """Extend theta0 so the pattern's conjuncts match distinct cc elements.

    The pattern is split on the top-level conjunction; each conjunct must
    match one element of the context multiset, which ends in an implicit
    `true` (tried last, and only by a variable or `true`, the only conjuncts
    it can match). The unmatched rest, the residual, must stay non-empty, so
    there are never more conjuncts than cc elements.
    """
    if isinstance(cc_pattern, App) and cc_pattern.functor == AND:
        conjuncts = cc_pattern.args
    else:
        conjuncts = (cc_pattern,)
    elements = tuple(cc)
    if len(conjuncts) > len(elements):
        return
    choices = [
        elements + (_CONTEXT_END,) if isinstance(c, Var) or c == TRUE else elements
        for c in conjuncts
    ]

    def assign(i, used: frozenset[int], th):
        if i == len(conjuncts):
            yield th
            return
        for j, el in enumerate(choices[i]):
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
    if isinstance(t, App) and t.functor in ("+", "*"):
        values = [_arith(a) for a in t.args]
        if None in values:
            return None
        return sum(values) if t.functor == "+" else math.prod(values)
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
    if not isinstance(guard, App):
        return False
    f, n = guard.functor, len(guard.args)
    if f == "true" and n == 0:
        return True
    if f == "false" and n == 0:
        return False
    if f == AND:
        return all(guard_holds(a, theta) for a in guard.args)
    args = [_instantiate(a, theta, frozenset()) for a in guard.args]
    if f == "var" and n == 1:
        return isinstance(args[0], Var)
    if f == "nonvar" and n == 1:
        return not isinstance(args[0], Var)
    if f == "!==" and n == 2:
        return ac_key(args[0]) != ac_key(args[1])
    if f in _COMPARISONS and n == 2:
        lhs, rhs = map(_arith, args)
        return lhs is not None and rhs is not None and _COMPARISONS[f](lhs, rhs)
    return False
