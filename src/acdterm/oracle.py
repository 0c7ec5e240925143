"""Brute-force reference semantics for desk-scale verification.

Transitions are enumerated by generate-and-test: every focus (each node, and
every proper submultiset of an AC node's children), every binary AC
rearrangement of focus and rule head, and plain first-order matching between
the two binary trees. This is exponential and deliberately shares none of the
matcher's submultiset assignment machinery; goals beyond the size bound are
refused rather than handled slowly or incompletely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .engine import (
    EngineState,
    HistoryEntry,
    TraceStep,
    _rename,
    _renamings,
    _successor,
    initial_state,
)
from .matching import _instantiate, guard_holds
from .rules import PROPAGATION, SIMPAGATION, Program, Rule
from .terms import (
    AC_FUNCTORS,
    AND,
    AApp,
    ANum,
    App,
    ATerm,
    AVar,
    Num,
    Term,
    Var,
    aapp,
    ac_key,
    annotate_from,
    canonical,
    conjunctive_context,
    size,
    subterms,
    vars_of,
)


# Desk-scale bounds: goal size, and binary AC rearrangements of one term.
MAX_GOAL_SIZE = 28
MAX_ARRANGEMENTS = 200_000

# Default search bounds: levels of transitions, and visited states.
DEFAULT_DEPTH = 20
DEFAULT_WIDTH = 10_000


class OracleSizeError(RuntimeError):
    """The goal exceeds the oracle's desk-scale bounds."""


@dataclass(frozen=True)
class SearchResult:
    normal_forms: frozenset[Term]
    explored: int
    truncated: bool


# --- binary views ------------------------------------------------------------
#
# Binary trees are tuples: ("v", name, id), ("n", value, id) and
# ("f", functor, args, id) with AC nodes strictly binary. Synthetic AC nodes
# introduced by rearrangement carry id -1 (AC identifiers are unconstrained
# and never appear in history entries).


def _shapes(items: tuple, functor: str) -> list:
    if len(items) == 1:
        return [items[0]]
    out = []
    for k in range(1, len(items)):
        for left in _shapes(items[:k], functor):
            for right in _shapes(items[k:], functor):
                out.append(("f", functor, (left, right), -1))
    return out


def _arrangements(t: ATerm, cap: int) -> list:
    """All binary AC rearrangements of an annotated term.

    Raises OracleSizeError as soon as a batch of trees (one child order of an
    AC node, or one free node) takes the trees built, subterms' included,
    past `cap`."""
    count = 0

    def arr(node):
        nonlocal count
        if isinstance(node, AVar):
            return [("v", node.name, node.id)]
        if isinstance(node, ANum):
            return [("n", node.value, node.id)]
        f = node.functor
        results = []
        for combo in product(*[arr(a) for a in node.args]):
            if f in AC_FUNCTORS:
                batches = (_shapes(perm, f) for perm in permutations(combo))
            else:
                batches = ([("f", f, combo, node.id)],)
            for batch in batches:
                count += len(batch)
                if count > cap:
                    raise OracleSizeError(f"more than {cap} AC rearrangements")
                results.extend(batch)
        return results

    return arr(t)


def _b_strip(b):
    if b[0] == "f":
        return ("f", b[1], tuple(_b_strip(a) for a in b[2]))
    return b[:2]


def _b_to_aterm(b) -> ATerm:
    if b[0] == "v":
        return AVar(b[1], b[2])
    if b[0] == "n":
        return ANum(b[1], b[2])
    return aapp(b[1], tuple(_b_to_aterm(a) for a in b[2]), b[3])


def _b_entry(b) -> tuple[int, ...]:
    if b[0] == "f":
        if b[1] in AC_FUNCTORS:
            return tuple(i for a in b[2] for i in _b_entry(a))
        return (b[3],) + tuple(i for a in b[2] for i in _b_entry(a))
    return (b[2],)


def _match_b(pattern, subject, theta, occ):
    """Plain first-order match of two binary trees; None on mismatch.

    Pattern variables bind binary subtrees; repeated variables must bind
    structurally identical subtrees modulo identifiers. Each variable
    occurrence is recorded in `occ` for history updating.
    """
    kind = pattern[0]
    if kind == "v":
        name = pattern[1]
        bound = theta.get(name)
        if bound is not None:
            if _b_strip(bound) != _b_strip(subject):
                return None
            occ.append((name, subject))
            return theta
        occ.append((name, subject))
        return {**theta, name: subject}
    if kind == "n":
        return theta if subject[0] == "n" and subject[1] == pattern[1] else None
    if subject[0] != "f" or subject[1] != pattern[1] or len(subject[2]) != len(pattern[2]):
        return None
    for pa, sa in zip(pattern[2], subject[2]):
        theta = _match_b(pa, sa, theta, occ)
        if theta is None:
            return None
    return theta


def _root_ok(head: Term, focus: ATerm) -> bool:
    """Cheap sound pre-filter before arrangement enumeration."""
    if isinstance(head, Var):
        return True
    if isinstance(head, Num):
        return isinstance(focus, ANum) and focus.value == head.value
    if not isinstance(focus, AApp) or focus.functor != head.functor:
        return False
    if head.functor not in AC_FUNCTORS:
        return len(focus.args) == len(head.args)
    pcs = head.args
    scs = focus.args
    var_count = sum(isinstance(c, Var) for c in pcs)
    if len(scs) < len(pcs) or (var_count == 0 and len(scs) != len(pcs)):
        return False
    for pc in pcs:
        if isinstance(pc, Var):
            continue
        if isinstance(pc, Num):
            if not any(isinstance(sc, ANum) and sc.value == pc.value for sc in scs):
                return False
        else:
            if not any(
                isinstance(sc, AApp)
                and sc.functor == pc.functor
                and (pc.functor in AC_FUNCTORS or len(sc.args) == len(pc.args))
                for sc in scs
            ):
                return False
    return True


def _cc_matches(cc_head: Term, elements, theta, arrs):
    """Extend theta so the context head matches within the context multiset.

    A sentinel `true` stands for the structurally guaranteed trailing true of
    a conjunctive context; the residual left to the unconstrained remainder
    must stay non-empty.
    """
    if isinstance(cc_head, App) and cc_head.functor == AND:
        conjuncts = cc_head.args
    else:
        conjuncts = (cc_head,)
    elems = list(elements) + [AApp("true", (), -2)]
    n = len(elems)
    conj_arrs = []
    for c in conjuncts:
        ca, _ = annotate_from(c, 0)
        conj_arrs.append(arrs(ca))

    def assign(i, used, th):
        if i == len(conjuncts):
            if len(used) < n:
                yield th
            return
        for j in range(n):
            if j in used:
                continue
            for e_arr in arrs(elems[j]):
                for c_arr in conj_arrs[i]:
                    th2 = _match_b(c_arr, e_arr, dict(th), [])
                    if th2 is not None:
                        yield from assign(i + 1, used | {j}, th2)

    yield from assign(0, frozenset(), theta)


def enumerate_transitions(
    state: EngineState, program: Program
) -> list[tuple[EngineState, TraceStep]]:
    """All legal successor states of a state, with their transition records.

    Raises OracleSizeError beyond the size bounds: the oracle is desk-scale
    only and refuses rather than degrade.
    """
    goal = state.goal
    if size(goal) > MAX_GOAL_SIZE:
        raise OracleSizeError(f"goal size {size(goal)} exceeds bound {MAX_GOAL_SIZE}")

    arr_cache: dict[ATerm, list] = {}

    def arrs(t: ATerm) -> list:
        if t not in arr_cache:
            arr_cache[t] = _arrangements(t, MAX_ARRANGEMENTS)
        return arr_cache[t]

    head_arrs: dict[str, list] = {}

    def head_arrangements(rule: Rule) -> list:
        if rule.name not in head_arrs:
            ha, _ = annotate_from(rule.head, 0)
            head_arrs[rule.name] = arrs(ha)
        return head_arrs[rule.name]

    goal_vars = vars_of(goal)
    successors: list[tuple[EngineState, TraceStep]] = []
    seen = set()

    for path, node in subterms(goal):
        foci: list[tuple[ATerm, tuple[int, ...] | None]] = [(node, None)]
        if isinstance(node, AApp) and node.functor in AC_FUNCTORS:
            idxs = range(1, len(node.args) + 1)
            for k in range(2, len(node.args)):
                for combo in combinations(idxs, k):
                    members = tuple(node.args[i - 1] for i in combo)
                    foci.append((AApp(node.functor, members, -1), combo))
        for focus, selected in foci:
            context = None  # the focus's context, once a simpagation needs it
            for rule in program.rules:
                if not _root_ok(rule.head, focus):
                    continue
                for s_arr in arrs(focus):
                    for h_arr in head_arrangements(rule):
                        occ: list = []
                        theta = _match_b(h_arr, s_arr, {}, occ)
                        if theta is None:
                            continue
                        if rule.kind == SIMPAGATION:
                            if context is None:
                                context = conjunctive_context(goal, path, selected)
                            theta_iter = _cc_matches(rule.cc_head, context, theta, arrs)
                        else:
                            theta_iter = iter((theta,))
                        for th in theta_iter:
                            th_terms = {k: _b_to_aterm(v) for k, v in th.items()}
                            if not guard_holds(rule.guard, th_terms):
                                continue
                            entry = None
                            if rule.kind == PROPAGATION:
                                entry = HistoryEntry(rule.name, _b_entry(s_arr))
                                if entry in state.history:
                                    continue
                            body_plain = _instantiate(rule.body, th_terms, goal_vars)
                            body, next_id = annotate_from(body_plain, state.next_id)
                            bound = ((name, _b_to_aterm(b)) for name, b in occ)
                            history = _rename(
                                state.history, _renamings(bound, rule.body, body)
                            )
                            matched = _b_to_aterm(s_arr) if entry is not None else None
                            succ, ts = _successor(
                                rule, state, path, node, selected, matched,
                                body, next_id, history, entry,
                            )
                            key = (rule.name, ac_key(ts.goal_after), ts.entry, succ.history)
                            if key not in seen:
                                seen.add(key)
                                successors.append((succ, ts))
    return successors


# --- reachability ------------------------------------------------------------


def _relabel(state: EngineState) -> EngineState:
    """Canonical identifier relabeling, for visited-state deduplication.

    One walk puts AC children in (ac_key, identifier) order, numbers the
    nodes in preorder and rebuilds the goal. History entries are renamed
    alongside; identifiers surviving only in the history get stable numbers
    after the goal's, and next_id follows them all.
    """
    rho: dict[int, int] = {}

    def walk(t: ATerm) -> ATerm:
        new = rho.setdefault(t.id, len(rho) + 1)
        if isinstance(t, AVar):
            return AVar(t.name, new)
        if isinstance(t, ANum):
            return ANum(t.value, new)
        args = t.args
        if t.functor in AC_FUNCTORS:
            args = sorted(args, key=lambda a: (ac_key(a), a.id))
        return AApp(t.functor, tuple(map(walk, args)), new)

    goal = walk(state.goal)
    extra = sorted({i for e in state.history for i in e.ids} - rho.keys())
    for old in extra:
        rho[old] = len(rho) + 1
    history = frozenset(
        HistoryEntry(e.rule, tuple(rho[i] for i in e.ids)) for e in state.history
    )
    return EngineState(goal, history, len(rho) + 1)


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
        target = ac_key(ts.goal_after)
        nxt: list[EngineState] = []
        seen = set()
        for st in frontier:
            for succ, sts in enumerate_transitions(st, program):
                if (
                    sts.rule == ts.rule
                    and sts.kind == ts.kind
                    and ac_key(sts.goal_after) == target
                ):
                    r = _relabel(succ)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        if not nxt:
            return ts.index
        frontier = nxt
    return None


def verify_trace(program: Program, goal: Term, trace) -> bool:
    """Whether every trace step is a legal transition per the semantics."""
    return first_divergence(program, goal, trace) is None
