"""Brute-force reference semantics for desk-scale verification.

Transitions are enumerated by generate-and-test: every focus (each node, and
every proper submultiset of an AC node's children), every binary AC
rearrangement of the focus against every binary shape of the rule head in its
written child order, and plain first-order matching between the two binary
views. Permuting the focus alone reaches every assignment of goal nodes to
head children; permuting the head too would reach each assignment once per
head order, each with its own history entry, so a propagation would fire
again on the same nodes. This is exponential and deliberately shares none of
the matcher's submultiset assignment machinery; goals beyond the size bound
are refused rather than handled slowly or incompletely.

The oracle's own parts are the matcher and the state key: `_arrangements`
(the binary views, annotated terms whose AC nodes are binary, built by the
recursion `_arr`), `_match_b`, `_cc_assign`, `_children_ok`,
`_in_goal_order` and `_relabel` (through `_relabel_walk`), the one key on
which the search and the trace replay tell states apart. Each match is
handed, as the head view, the matched view and the bindings, to
`engine._successor`, the firing routine the engine uses too: guard, history
check and entry, body instance, history renaming and the successor state.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from .engine import EngineState, HistoryEntry, TraceStep, _occurrences, _successor, initial_state
from .rules import PROPAGATION, Program
from .terms import (
    AC_FUNCTORS,
    AND,
    AApp,
    ANum,
    App,
    ATerm,
    AVar,
    Term,
    _CONTEXT_END,
    _head,
    aapp,
    ac_key,
    annotate_from,
    canonical,
    conjunctive_context,
    size,
    subterms,
)


# Desk-scale bounds: goal size, and binary AC rearrangements of one term.
MAX_GOAL_SIZE = 28
MAX_ARRANGEMENTS = 200_000

# Default search bounds: levels of transitions, and visited states.
DEFAULT_DEPTH = 20
DEFAULT_WIDTH = 10_000

class OracleSizeError(RuntimeError):
    """The goal exceeds the oracle's desk-scale bounds."""


class SearchResult(NamedTuple):
    normal_forms: frozenset[Term]
    explored: int
    truncated: bool


# --- binary views ------------------------------------------------------------


def _shapes(items: tuple, functor: str, root_id: int) -> list:
    if len(items) == 1:
        return [items[0]]
    out = []
    for k in range(1, len(items)):
        for left in _shapes(items[:k], functor, -1):
            for right in _shapes(items[k:], functor, -1):
                out.append(AApp(functor, (left, right), root_id))
    return out


def _arrangements(t: ATerm, cap: int, permute: bool = True) -> list:
    """All binary AC rearrangements of an annotated term, as annotated terms.

    AC nodes are strictly binary; with `permute` False each AC node keeps its
    children's order and only the shapes vary. Every node keeps its
    identifier, an AC node's on the root of each of its shapes; the synthetic
    nodes below that root carry id -1, so a view flattened back carries the
    term's own identifiers. The only view of a variable, a number or a
    constant is the node itself. Raises OracleSizeError as soon as a batch of
    trees (one child order of an AC node, or one free node) takes the trees
    built, subterms' included, past `cap`."""
    return _arr(t, cap, permute, [0])


def _arr(node: ATerm, cap: int, permute: bool, count: list) -> list:
    # The oracle's recursions are module-level functions, as the matcher's
    # are: a nested function that calls itself is a reference cycle, left
    # for the cyclic collector after every call. `count` holds one item, the
    # trees built so far.
    if not isinstance(node, AApp):
        return [node]
    f = node.functor
    results = []
    for combo in product(*[_arr(a, cap, permute, count) for a in node.args]):
        if f in AC_FUNCTORS:
            orders = permutations(combo) if permute else (combo,)
            batches = (_shapes(order, f, node.id) for order in orders)
        else:
            batches = ([AApp(f, combo, node.id) if combo else node],)
        for batch in batches:
            count[0] += len(batch)
            if count[0] > cap:
                raise OracleSizeError(f"more than {cap} AC rearrangements")
            results.extend(batch)
    return results


@lru_cache(maxsize=1024)
def _pattern_views(pattern: Term) -> tuple:
    """The binary views of a rule pattern in written child order.

    Built once per pattern; their identifiers are the pattern's own, from 0.
    """
    annotated, _ = annotate_from(pattern, 0)
    return tuple(_arrangements(annotated, MAX_ARRANGEMENTS, permute=False))


def _same_shape(a: ATerm, b: ATerm) -> bool:
    """Whether two annotated terms are the same tree when identifiers are
    ignored (no AC flattening or reordering)."""
    if a is b:
        return True
    if isinstance(a, AApp):
        return (
            isinstance(b, AApp)
            and a.functor == b.functor
            and len(a.args) == len(b.args)
            and all(map(_same_shape, a.args, b.args))
        )
    if isinstance(a, AVar):
        return isinstance(b, AVar) and a.name == b.name
    return isinstance(b, ANum) and a.value == b.value


def _match_b(pattern: ATerm, subject: ATerm, theta):
    """Plain first-order match of two binary views; None on mismatch.

    Pattern variables bind binary subtrees; repeated variables must bind
    structurally identical subtrees modulo identifiers. theta is never
    mutated; a new binding returns a new dict.
    """
    if isinstance(pattern, AVar):
        name = pattern.name
        bound = theta.get(name)
        if bound is None:
            return {**theta, name: subject}
        # structural, not ac_key: a propagation's entry lists an occurrence
        # in the order of the view it matched, so every AC-equal view would
        # fire the same propagation once more with its own entry
        return theta if _same_shape(bound, subject) else None
    if isinstance(pattern, ANum):
        return theta if isinstance(subject, ANum) and subject.value == pattern.value else None
    if (
        not isinstance(subject, AApp)
        or subject.functor != pattern.functor
        or len(subject.args) != len(pattern.args)
    ):
        return None
    for pa, sa in zip(pattern.args, subject.args):
        theta = _match_b(pa, sa, theta)
        if theta is None:
            return None
    return theta


def _children_ok(head: App, focus: AApp) -> bool:
    """Cheap sound pre-filter for an AC head at a focus with its functor: the
    focus has as many children as the head, or more if a head child is a
    variable, and each non-variable head child's key is among its children's."""
    need = [_head(c) for c in head.args]
    n = len(focus.args)
    if n < len(need) or (None not in need and n != len(need)):
        return False
    keys = {_head(c) for c in focus.args}
    return all(k is None or k in keys for k in need)


def _in_goal_order(t: ATerm, order: dict[int, int], ties: bool = False) -> bool:
    """Whether a binary view lists each AC node's children in goal order;
    with `ties`, only the children of equal `ac_key`.

    order maps each goal identifier to its node's index in preorder; the
    view's synthetic nodes are flattened away."""
    if not isinstance(t, AApp):
        return True
    members = t.args
    if t.functor in AC_FUNCTORS:
        members = aapp(t.functor, members, t.id).args
        last: dict = {}  # by key, the index of the last child seen
        for m in members:
            k = ac_key(m) if ties else None
            if last.get(k, -1) > order[m.id]:
                return False
            last[k] = order[m.id]
    return all(_in_goal_order(m, order, ties) for m in members)


def _cc_assign(conj_arrs, elems, arrs, i: int, used: frozenset, th):
    """Extend th so the views of context conjuncts i.. match distinct elems.

    elems ends with `_CONTEXT_END`, the structurally guaranteed trailing true
    of a conjunctive context; the residual left to the unconstrained remainder
    must stay non-empty."""
    if i == len(conj_arrs):
        if len(used) < len(elems):
            yield th
        return
    for j in range(len(elems)):
        if j in used:
            continue
        for e_arr in arrs(elems[j]):
            for c_arr in conj_arrs[i]:
                th2 = _match_b(c_arr, e_arr, th)
                if th2 is not None:
                    yield from _cc_assign(conj_arrs, elems, arrs, i + 1, used | {j}, th2)


def enumerate_transitions(
    state: EngineState, program: Program
) -> list[tuple[EngineState, TraceStep]]:
    """All legal successor states of a state, with their transition records.

    One entry per firing: a head assignment is reached once per order and
    shape of the focus's binary views, and two firings may give the same
    state up to identifier relabelling. A propagation fires only on views
    that list its bindings' AC children in goal order (`_in_goal_order`), so
    it fires once per binding. The successors are raw, not
    relabelled; callers key states on `_relabel`, the oracle's one state key.
    Raises OracleSizeError beyond the size bounds: the oracle is desk-scale
    only and refuses rather than degrade.
    """
    goal = state.goal
    if size(goal) > MAX_GOAL_SIZE:
        raise OracleSizeError(f"goal size {size(goal)} exceeds bound {MAX_GOAL_SIZE}")

    # keyed by node identity, since a value key hashes the whole subtree on
    # every lookup; each entry keeps its node alive, so no id is reused
    arr_cache: dict[int, tuple[ATerm, list]] = {}

    def arrs(t: ATerm) -> list:
        hit = arr_cache.get(id(t))
        if hit is None:
            hit = arr_cache[id(t)] = (t, _arrangements(t, MAX_ARRANGEMENTS))
        return hit[1]

    table = []  # each rule, its head key and views, its context conjuncts' views
    for rule in program.rules:
        cc = rule.cc_head
        conjuncts = cc.args if isinstance(cc, App) and cc.functor == AND else (cc,)
        cc_views = None if cc is None else [_pattern_views(c) for c in conjuncts]
        table.append((rule, _head(rule.head), _pattern_views(rule.head), cc_views))
    successors: list[tuple[EngineState, TraceStep]] = []
    nodes = subterms(goal)
    order = None  # each goal identifier, to its node's index in preorder

    for path, node in nodes:
        foci: list[tuple[ATerm, tuple[int, ...] | None]] = [(node, None)]
        if isinstance(node, AApp) and node.functor in AC_FUNCTORS:
            idxs = range(1, len(node.args) + 1)
            for k in range(2, len(node.args)):
                for combo in combinations(idxs, k):
                    members = tuple(node.args[i - 1] for i in combo)
                    foci.append((AApp(node.functor, members, -1), combo))
        for focus, selected in foci:
            key = _head(focus)
            context = None  # the focus's context, once a simpagation needs it
            for rule, head_key, head_views, cc_views in table:
                if head_key is not None and (
                    head_key != key
                    or head_key in AC_FUNCTORS and not _children_ok(rule.head, focus)
                ):
                    continue
                for s_arr in arrs(focus):
                    for h_arr in head_views:
                        theta = _match_b(h_arr, s_arr, {})
                        if theta is None:
                            continue
                        if rule.kind == PROPAGATION and any(
                            isinstance(v, AApp) and v.args for v in theta.values()
                        ):
                            # one firing per binding: another order of its AC
                            # nodes, or of equal children in a repeated
                            # occurrence, would fire again with an entry of its own
                            if order is None:
                                order = {n.id: i for i, (_, n) in enumerate(nodes)}
                            if not all(
                                _in_goal_order(t, order, t is not theta[name])
                                for name, t in _occurrences(h_arr, s_arr)
                            ):
                                continue
                        thetas = (theta,)
                        if cc_views is not None:
                            if context is None:
                                context = conjunctive_context(goal, path, selected)
                                context += (_CONTEXT_END,)
                            thetas = _cc_assign(cc_views, context, arrs, 0, frozenset(), theta)
                        for th in thetas:
                            fired = _successor(
                                rule, state, path, node, selected, h_arr, s_arr, th
                            )
                            if fired is not None:
                                successors.append(fired)
    return successors


# --- reachability ------------------------------------------------------------


def _relabel(state: EngineState) -> EngineState:
    """Canonical identifier relabeling, for visited-state deduplication.

    One walk puts AC children in (ac_key, identifier) order, numbers the
    nodes in preorder and rebuilds the goal. History entries are renamed
    alongside; they name only goal identifiers (`engine._successor` drops the
    rest), and next_id follows them all.
    """
    rho: dict[int, int] = {}
    goal = _relabel_walk(state.goal, rho)
    history = frozenset(
        HistoryEntry(e.rule, tuple(rho[i] for i in e.ids)) for e in state.history
    )
    return EngineState(goal, history, len(rho) + 1)


def _relabel_walk(t: ATerm, rho: dict[int, int]) -> ATerm:
    new = rho.setdefault(t.id, len(rho) + 1)
    if isinstance(t, AVar):
        return AVar(t.name, new)
    if isinstance(t, ANum):
        return ANum(t.value, new)
    args = t.args
    if t.functor in AC_FUNCTORS:
        args = sorted(args, key=lambda a: (ac_key(a), a.id))
    return AApp(t.functor, tuple([_relabel_walk(a, rho) for a in args]), new)


def search_normal_forms(
    program: Program,
    goal: Term,
    depth: int = DEFAULT_DEPTH,
    width: int = DEFAULT_WIDTH,
) -> SearchResult:
    """Bounded breadth-first search over all transitions.

    With truncated=False the result is exactly the set of normal forms
    (canonical AC form) reachable within the bounds. A goal beyond the size
    bounds raises OracleSizeError; a successor beyond them only sets
    truncated.
    """
    start = _relabel(initial_state(goal))
    visited = {start}
    frontier = [start]
    normal: set[Term] = set()
    explored = 0
    truncated = False
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: list[EngineState] = []
        for st in frontier:
            explored += 1
            try:
                succs = enumerate_transitions(st, program)
            except OracleSizeError:
                if st is start:
                    raise
                truncated = True
                continue
            if not succs:
                normal.add(canonical(st.goal))
                continue
            for succ, _ts in succs:
                r = _relabel(succ)
                if r in visited:
                    continue
                if len(visited) >= width:
                    truncated = True
                    continue
                visited.add(r)
                next_frontier.append(r)
        frontier = next_frontier
    if frontier:
        truncated = True
    return SearchResult(frozenset(normal), explored, truncated)


def first_divergence(program: Program, goal: Term, trace) -> int | None:
    """Index of the first trace step that is not a legal transition, if any.

    The trace is replayed against the full successor relation; every stage
    keeps all oracle states compatible with the steps seen so far.
    """
    frontier = [_relabel(initial_state(goal))]
    for ts in trace:
        target = ac_key(ts.goal)
        nxt: dict[EngineState, None] = {}  # the relabelled states, in order
        for st in frontier:
            for succ, sts in enumerate_transitions(st, program):
                if (
                    sts.rule == ts.rule
                    and sts.kind == ts.kind
                    and ac_key(sts.goal) == target
                ):
                    nxt[_relabel(succ)] = None
        if not nxt:
            return ts.index
        frontier = list(nxt)
    return None


def verify_trace(program: Program, goal: Term, trace) -> bool:
    """Whether every trace step is a legal transition per the semantics."""
    return first_divergence(program, goal, trace) is None
