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
import operator
from itertools import combinations
from typing import Iterator

from .terms import (
    AC_FUNCTORS,
    AND,
    App,
    Num,
    Term,
    Var,
    _CONTEXT_END,
    _head,
    ac_equal,
    ac_key,
    size,
    strip,
)

Subst = dict[str, Term]


def _group_term(functor: str, members: tuple[Term, ...], node_id: int) -> Term:
    if len(members) == 1:
        return members[0]
    return App(functor, members, node_id)


def _match_node(pattern: Term, subject: Term, theta: Subst) -> Iterator[tuple[Subst, Term]]:
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
        if isinstance(subject, Num) and subject.value == pattern.value:
            yield theta, subject
        return
    if not isinstance(subject, App) or subject.functor != pattern.functor:
        return
    if pattern.functor in AC_FUNCTORS:
        for theta2, inst, _left in _match_ac(pattern, subject, theta, full=True):
            yield theta2, inst
        return
    if len(subject.args) != len(pattern.args):
        return
    yield from _match_args(pattern, subject, 0, theta, [])


def _match_args(pattern: App, subject: App, i: int, theta: Subst, insts: list):
    # The matcher's recursions are module-level functions: a nested function
    # that calls itself is a reference cycle, left for the cyclic collector
    # after every call
    if i == len(pattern.args):
        yield theta, App(subject.functor, tuple(insts), subject.id)
        return
    for th2, inst in _match_node(pattern.args[i], subject.args[i], theta):
        yield from _match_args(pattern, subject, i + 1, th2, insts + [inst])


def _match_ac(pattern: App, subject: App, theta: Subst, full: bool):
    """Assign subject children to pattern children at a shared AC functor.

    Yields (theta', instance, leftover), the leftover a bitmask of the subject
    children no pattern child took (bit j for child j). With full=True every
    subject child must be consumed (plain matching), so the leftover is 0;
    otherwise the leftover children form the redex residual. Branches are
    cut only when they provably yield nothing, so the enumeration order is
    that of the unpruned search.
    """
    pat_children = pattern.args
    sub_children = subject.args
    n = len(sub_children)
    # fits[i]: bitmask of the subject children whose head symbol fits
    # pattern child i, None for a variable
    by_head: dict = {}
    for j, s in enumerate(sub_children):
        key = _head(s)
        by_head[key] = by_head.get(key, 0) | 1 << j
    fits = [None if key is None else by_head.get(key, 0) for key in map(_head, pat_children)]
    table = (pat_children, sub_children, fits, subject, full)
    yield from _ac_assign(table, 0, (1 << n) - 1, theta, [])


def _ac_feasible(table, ks: tuple[int, ...], free: int, th: Subst) -> bool:
    """Whether pattern children ks can take distinct subject children in
    `free` under th; `table` is `_match_ac`'s (pattern children, subject
    children, fits, subject, full)."""
    if not ks:
        return True
    pat_children, sub_children, fits, _subject, _full = table
    p = pat_children[ks[0]]
    candidates = fits[ks[0]] & free
    for j in range(len(sub_children)):
        if candidates >> j & 1:
            for th2, _inst in _match_node(p, sub_children[j], th):
                if _ac_feasible(table, ks[1:], free & ~(1 << j), th2):
                    return True
    return False


def _ac_assign(table, i: int, free: int, th: Subst, insts: list):
    # `free` is the bitmask of the subject children not yet taken
    pat_children, sub_children, fits, subject, full = table
    m = len(pat_children)
    if i == m:
        if not (full and free):
            yield th, App(subject.functor, tuple(insts), subject.id), free
        return
    for k in range(i, m):
        if fits[k] is not None and not fits[k] & free:
            return
    p = pat_children[i]
    fit = fits[i]
    if fit is None:
        later = tuple(k for k in range(i + 1, m) if fits[k] is not None)
        if not _ac_feasible(table, later, free, th):
            return
        bound = th.get(p.name)
        unused = [j for j in range(len(sub_children)) if free >> j & 1]
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
                taken = sum(1 << j for j in combo)
                yield from _ac_assign(table, i + 1, free - taken, th2, insts + [inst])
    else:
        candidates = fit & free
        for j in range(len(sub_children)):
            if candidates >> j & 1:
                for th2, inst in _match_node(p, sub_children[j], th):
                    yield from _ac_assign(table, i + 1, free & ~(1 << j), th2, insts + [inst])


def match(pattern: Term, subject: Term) -> Iterator[Subst]:
    """All substitutions theta with theta(pattern) AC-equal to the subject."""
    for theta, _inst in _match_node(pattern, subject, {}):
        yield theta


def redexes_at(node: Term, head: Term) -> Iterator[tuple[tuple[int, ...] | None, Subst, Term]]:
    """Redexes anchored at this node, as (selected, theta, matched).

    For a match against a submultiset of an AC node's children, `selected`
    holds the consumed child indices (1-based, ascending); for a whole-node
    match it is None. `matched` is the head instance, aligned node-for-node
    with the pattern (AC groups bound to one variable stay nested), so entry
    and history computations can traverse it in matched order.
    """
    if (
        isinstance(head, App)
        and head.functor in AC_FUNCTORS
        and isinstance(node, App)
        and node.functor == head.functor
    ):
        for theta, inst, left in _match_ac(head, node, {}, full=False):
            used = tuple(i + 1 for i in range(len(node.args)) if not left >> i & 1)
            yield (used if left else None), theta, inst
        return
    for theta, inst in _match_node(head, node, {}):
        yield None, theta, inst


# the head key of the implicit `true` that ends every context
_END_KEY = _head(_CONTEXT_END)


class ContextIndex:
    """A conjunctive context, or a conjunction's frame, indexed for `match_cc`.

    `elements` are the subterms in context order, then the implicit `true`;
    `by_head` maps each `_head` key to the positions of its elements,
    ascending. The index on argument k of the elements with a given key,
    from the argument's `ac_key` to positions, and the index of every
    element by its own `ac_key` (k None), are built the first time a
    conjunct asks for them.
    """

    __slots__ = ("elements", "by_head", "_by_arg")

    def __init__(self, context):
        self.elements = tuple(context) + (_CONTEXT_END,)
        self.by_head: dict = {}
        for j, el in enumerate(self.elements):
            self.by_head.setdefault(_head(el), []).append(j)
        self._by_arg: dict = {}

    def with_arg(self, key, k: int | None, bound: Term) -> list[int]:
        """Positions of the elements with head key `key` whose argument k is
        AC-equal to `bound`, or of every element AC-equal to `bound` when k
        is None, ascending."""
        table = self._by_arg.get((key, k))
        if table is None:
            table = self._by_arg[key, k] = {}
            for j in range(len(self.elements)) if k is None else self.by_head.get(key, ()):
                el = self.elements[j]
                table.setdefault(ac_key(el if k is None else el.args[k]), []).append(j)
        return table.get(ac_key(bound), [])

    def candidates(self, key, var_args, theta: Subst):
        """Positions a conjunct with head key `key` may match under theta:
        those AC-equal to the binding of the first bound variable among the
        conjunct's `var_args` (argument position, or None for the conjunct
        itself, and name) at that argument, else every element for a
        variable (key None) and those with the key for any other."""
        for k, name in var_args:
            bound = theta.get(name)
            if bound is not None:
                return self.with_arg(key, k, bound)
        return range(len(self.elements)) if key is None else self.by_head.get(key, ())


class ContextPattern:
    """A context head as `match_cc` uses it, built once per rule.

    `specs` holds, for each conjunct of the top-level conjunction, the
    conjunct, its `_head` key and the (argument position, name) of its
    variable arguments, or (None, name) for a variable conjunct; an AC
    conjunct's arguments have no fixed position to index. `takes_true`
    tells whether a conjunct is a variable or `true`, the only ones that
    can take the implicit `true`.
    """

    __slots__ = ("specs", "takes_true")

    def __init__(self, cc_pattern: Term):
        if isinstance(cc_pattern, App) and cc_pattern.functor == AND:
            conjuncts = cc_pattern.args
        else:
            conjuncts = (cc_pattern,)
        self.specs = tuple(
            (
                c,
                _head(c),
                [(None, c.name)]
                if isinstance(c, Var)
                else [(k, a.name) for k, a in enumerate(c.args) if isinstance(a, Var)]
                if isinstance(c, App) and c.functor not in AC_FUNCTORS
                else [],
            )
            for c in conjuncts
        )
        self.takes_true = any(key is None or key == _END_KEY for _c, key, _v in self.specs)


def match_cc(
    pattern: ContextPattern, index: ContextIndex, theta0: Subst, masked: int = 0, fresh: int = 0
) -> Iterator[Subst]:
    """Extend theta0 so the pattern's conjuncts match distinct context elements.

    The pattern is split on the top-level conjunction; each conjunct must
    match one element of the indexed context multiset, which ends in an
    implicit `true` (tried last, and only by a variable or `true`, the only
    conjuncts it can match). The unmatched rest, the residual, must stay
    non-empty, so there are never more conjuncts than context elements.

    The bits of `masked` name positions of the index's elements that are not
    in the context: no conjunct takes them and the residual does not count them.
    So one index over a conjunction's frame serves every focus in it, each
    masking the children it lies under; the implicit `true` is never
    masked. A conjunct tries only the elements with its head key and, when
    it or one of its arguments is a variable bound at that point, only those
    that are, or whose argument there is, AC-equal to the binding. Both
    filters drop exactly the elements `_match_node` would refuse, and each
    bucket keeps index order, so the substitutions come in the order of
    trying every element of the context in turn.

    A nonzero `fresh` names positions of which every match must take at
    least one; the last conjunct tries only them when none is taken yet.
    """
    if len(pattern.specs) >= len(index.elements) - masked.bit_count():
        return
    yield from _match_conjuncts(index, pattern.specs, 0, masked, dict(theta0), fresh)


def _match_conjuncts(index: ContextIndex, specs, i: int, used: int, theta: Subst, fresh: int):
    # a module-level recursion: a nested generator that calls itself would
    # keep the context index alive in a reference cycle until the next
    # garbage collection. `fresh` is as in `match_cc`, 0 once a match takes
    # one of its positions
    if i == len(specs):
        yield theta
        return
    conjunct, key, var_args = specs[i]
    need = fresh if i == len(specs) - 1 else 0
    for j in index.candidates(key, var_args, theta):
        if not used >> j & 1 and (not need or need >> j & 1):
            rest = 0 if fresh >> j & 1 else fresh
            for th2, _inst in _match_node(conjunct, index.elements[j], theta):
                yield from _match_conjuncts(index, specs, i + 1, used | 1 << j, th2, rest)


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
    "<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
    "=": operator.eq, "!=": operator.ne,
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
    disequality modulo AC !==, and comparisons (=, !=, <=, <, >=, >) over
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
