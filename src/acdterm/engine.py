"""Execution states, transitions, propagation histories and trace rendering.

A run starts from the freshly annotated goal with an empty history. Each
transition applies the textually first rule at the first redex in preorder
position order (selections and context matches enumerated deterministically),
so traces are reproducible. Simplification replaces the matched instance with
the freshly annotated body, propagation conjoins the body with the goal nodes
it matched, as they are, and records a history entry, simpagation
additionally requires its context head to match within the conjunctive
context of the focus.

A step tables the goal's nodes by head key (`terms._head`) once, and each
rule visits, in preorder, only the nodes under its head's key (every node for
a variable head). Contexts are indexed by head key and bound argument
(`matching.ContextIndex`), one index per conjunction per step, shared by the
rules and by every focus in that conjunction: the index holds the
conjunction's frame, its ancestors' sibling conjuncts and then all its
children, and a focus masks the children it lies under or selects
(`_focus_contexts`), so a conjunction of width w costs one O(w) index per
step. `match_cc` tries only the unmasked elements the index gives. The
filters and the mask skip only what could not match or is not in the
context, so the enumeration order, and with it every trace, is that of
trying every rule at every position against every context element.

Steps are semi-naive, as CHR's refined semantics wakes only new constraints
and semi-naive evaluation joins only against the delta: `run` keeps one memo
of the (rule, node) attempts that fired nothing, with the node object and,
for a simpagation, the frame its contexts came from and the node's head
redexes. Nodes are immutable, and a match over objects of such an attempt is
refused again: the guard depends only on the bindings, and the history only
loses entries naming removed nodes. `step` has one attempt loop, which reads
a (rule, node) entry once and writes it once: at the same node object it
skips a simplification or propagation, and a simpagation takes the head
redexes from the entry, which are those `redexes_at` would give again, and
tries each only against the contexts that hold a new element that a
conjunct can take: one whose head key a conjunct has (`ContextPattern.keys`),
any element for a variable conjunct. The implicit `true` is never in the
old frame, so it is new wherever a conjunct can take it. A rebuilt node is
tried in full.
Dropping refused matches keeps the order of the rest, so traces do not
change. `step` without a memo is the same loop with nothing recorded.

A trace record keeps the annotated goal; rendering it strips it.

The history holds only entries whose identifiers are all in the goal. A
simplification or simpagation drops the entries that name an identifier of
the subtrees it removes, and a propagation drops none: the body is annotated
afresh and the goal keeps its nodes, the matched ones included, so the only
other identifiers that leave the goal are those of AC nodes merged by
flattening, which no entry names. Dropping changes no transition, since
identifiers are never reused and the history renaming maps only live
identifiers, so an entry naming a removed node can never again equal the
entry of a match.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, NamedTuple

from .matching import (
    ContextIndex,
    Subst,
    _instantiate,
    guard_holds,
    match_cc,
    redexes_at,
)
from .pretty import pretty
from .rules import PROPAGATION, Program, Rule
from .terms import (
    AC_FUNCTORS,
    AND,
    App,
    Position,
    Term,
    Var,
    _head,
    ac_key,
    annotate_from,
    app,
    conjunctive_context,
    ids_of,
    replace_at,
    strip,
    subterms,
    vars_of,
)

NORMAL_FORM = "normal_form"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_MAX_STEPS = 10_000


class HistoryEntry(NamedTuple):
    rule: str
    ids: tuple[int, ...]


class EngineState(NamedTuple):
    goal: Term
    history: frozenset[HistoryEntry]
    next_id: int


class TraceStep(NamedTuple):
    index: int
    rule: str
    kind: str  # simplify | propagate | simpagate
    path: Position
    entry: tuple[int, ...] | None
    goal: Term  # after the step


class RunResult(NamedTuple):
    final: EngineState
    trace: tuple[TraceStep, ...]
    status: str


# --- propagation history -----------------------------------------------------


def _entry_ids(t: Term) -> tuple[int, ...]:
    if isinstance(t, App):
        if t.functor in AC_FUNCTORS:
            return tuple(i for a in t.args for i in _entry_ids(a))
        return (t.id,) + tuple(i for a in t.args for i in _entry_ids(a))
    return (t.id,)


def entry_of(rule: str, t: Term) -> HistoryEntry:
    """History entry of a rule for a matched annotated instance.

    AC operator nodes contribute their children's entries in matched order
    and omit their own identifier; every other node contributes its
    identifier followed by its children's entries.
    """
    return HistoryEntry(rule, _entry_ids(t))


def _zip_ids(a: Term, b: Term, rho: dict[int, int]) -> None:
    rho[a.id] = b.id
    if isinstance(a, App):
        xs, ys = a.args, b.args
        if a.functor in AC_FUNCTORS:
            # stable: children with equal keys keep their list order
            xs, ys = sorted(xs, key=ac_key), sorted(ys, key=ac_key)
        for x, y in zip(xs, ys):
            _zip_ids(x, y, rho)


def update_history(
    head: Term,
    head_inst: Term,
    body: Term,
    body_inst: Term,
    h0: frozenset[HistoryEntry],
) -> frozenset[HistoryEntry]:
    """Minimal history extension for a rule application.

    For every variable occurring at position p in the head and position q in
    the body, the renaming mapping the identifiers of head_inst at p onto
    those of body_inst at q is applied to every entry mentioning a renamed
    identifier, and the renamed entry is added. The head may be a plain
    pattern or an annotated view of one aligned with head_inst.

    The two subtrees are AC-equal: an occurrence matched the variable's
    binding modulo AC, and the body holds a copy of that binding. So they
    are paired node for node, an AC node's children in `ac_key` order on
    both sides, and an occurrence that lists them in another order than the
    binding still renames each identifier onto its own copy.
    """
    if not h0:
        return h0
    copies: dict[str, list[Term]] = {}
    for name, copy in _occurrences(body, body_inst):
        copies.setdefault(name, []).append(copy)
    out = set(h0)
    for name, inst in _occurrences(head, head_inst):
        for copy in copies.get(name, ()):
            rho: dict[int, int] = {}
            _zip_ids(inst, copy, rho)
            for e in h0:
                if not rho.keys().isdisjoint(e.ids):
                    out.add(HistoryEntry(e.rule, tuple(rho.get(i, i) for i in e.ids)))
    return frozenset(out)


def _occurrences(pattern: Term, inst: Term) -> Iterator[tuple[str, Term]]:
    """(variable name, instance subtree) for each variable occurrence of a
    pattern, plain or annotated, in preorder, walking the pattern and its
    aligned instance together."""
    if isinstance(pattern, Var):
        yield pattern.name, inst
    elif isinstance(pattern, App):
        for p, s in zip(pattern.args, inst.args):
            yield from _occurrences(p, s)


# --- rule application --------------------------------------------------------


def _flatten_annotated(t: Term) -> Term:
    """Restore the flattened-AC invariant, keeping surviving identifiers.

    A body instance keeps its rule's nesting (`_instantiate`), so that the
    history renaming can align it with the body; the goal may not.
    """
    if isinstance(t, App):
        return app(t.functor, tuple(_flatten_annotated(a) for a in t.args), t.id)
    return t


def _splice(node: Term, selected: tuple[int, ...], replacement: Term) -> Term:
    """Swap the selected children of an AC node for the replacement subtree.

    The replacement takes the place of the first selected child; the
    residual children stay in place.
    """
    first = selected[0]
    new_children = [
        replacement if i == first else child
        for i, child in enumerate(node.args, start=1)
        if i == first or i not in selected
    ]
    return app(node.functor, new_children, node.id)


def _successor(
    rule: Rule,
    state: EngineState,
    path: Position,
    node: Term,
    selected: tuple[int, ...] | None,
    head: Term,
    matched: Term,
    theta: Subst,
) -> tuple[EngineState, TraceStep] | None:
    """Fire a rule on one match: the state it leads to, with its trace record.

    `matched` is the head instance aligned node for node with `head` (the
    rule's head or an annotated view of it) and theta the match's bindings,
    which may keep AC nodes nested. None when the guard fails or the history
    already holds a propagation's entry. The body instance is annotated from
    the state's next identifier and the history renamed onto it. A
    propagation records the entry and conjoins the body with the goal nodes
    it matched, never with `matched`: `node` itself, or its selected
    children in goal order, spliced in under `/\\` and under another AC
    functor made a node of their own with a fresh identifier. So a matched
    AC node keeps its order, and a later match over the same nodes gives the
    same entry. The result replaces the selected children of `node`, the
    goal node at path, or the whole node when `selected` is None. A step
    that removes nodes drops the entries naming an identifier of the removed
    subtrees, the selected children or the whole node, from the history: no
    later match can produce them.
    """
    if not guard_holds(rule.guard, theta):
        return None
    entry = None
    if rule.kind == PROPAGATION:
        entry = entry_of(rule.name, matched)
        if entry in state.history:
            return None
    taken = vars_of(state.goal) if rule.fresh_vars else frozenset()
    body_plain = _instantiate(rule.body, theta, taken)
    body, next_id = annotate_from(body_plain, state.next_id)
    history = update_history(head, matched, rule.body, body, state.history)
    replacement = _flatten_annotated(body)
    # the goal nodes the head matched
    focus = (node,) if selected is None else tuple(node.args[i - 1] for i in selected)
    if entry is not None:
        history = history | {entry}
        kept = focus
        if selected is not None and node.functor != AND:
            kept = (App(node.functor, focus, next_id),)
            next_id += 1
        replacement = app(AND, (*kept, replacement), next_id)
        next_id += 1
    if selected is not None:
        replacement = _splice(node, selected, replacement)
    goal = replace_at(state.goal, replacement, path)
    if history and rule.kind != PROPAGATION:
        gone = set().union(*map(ids_of, focus))
        history = frozenset(e for e in history if gone.isdisjoint(e.ids))
    ts = TraceStep(1, rule.name, rule.kind, path, entry.ids if entry else None, goal)
    return EngineState(goal, history, next_id), ts


# The empty context; `match_cc` never looks into it, since every conjunct
# would leave it without a residual
_NO_CONTEXT = ContextIndex(())


def _focus_contexts(goal: Term):
    """`context_of(path, node, selected)`: the conjunctive context of a focus
    of goal (`node` at path, or its selected children) as an index and a
    mask of positions there.

    The index is the frame of the deepest conjunction q strictly above the
    focus, or of the focus itself when it is a conjunction with a selection:
    `conjunctive_context(goal, q, ())`, the siblings of q's conjunction
    ancestors and then all of q's children. It is built once per q, and the
    mask drops the child of q that the focus lies under, or the selected
    children. The rest is the focus's context, in order.
    """
    # frames[q]: the index of q's frame and the position there of q's child
    # 0 (its children count from 1)
    frames: dict = {}

    def context_of(path: Position, node: Term, selected: tuple[int, ...] | None):
        if selected is not None and node.functor == AND:
            q, conj, children = path, node, selected
        else:
            depth = None
            cur = goal
            for d, i in enumerate(path):
                if cur.functor == AND:
                    depth, conj, children = d, cur, (i,)
                cur = cur.args[i - 1]
            if depth is None:
                return _NO_CONTEXT, 0
            q = path[:depth]
        frame = frames.get(q)
        if frame is None:
            elements = conjunctive_context(goal, q, ())
            frame = frames[q] = (ContextIndex(elements), len(elements) - len(conj.args) - 1)
        index, offset = frame
        return index, sum(1 << (offset + c) for c in children)

    return context_of


def initial_state(goal: Term) -> EngineState:
    goal_a, next_id = annotate_from(goal, 1)
    return EngineState(goal_a, frozenset(), next_id)


def step(
    state: EngineState, program: Program, memo: dict | None = None
) -> tuple[EngineState, TraceStep] | None:
    """One transition: textually first rule at its first redex, or None.

    A rule visits, in preorder, only the goal nodes whose head key
    (`terms._head`) is its head's, or every node for a variable head.
    `context_of(path, node, selected)` gives a focus's conjunctive context
    as an index and the mask of its positions there.

    `memo` maps (rule index, node identifier) to (node object, frame index,
    redexes) for each attempt that fired nothing. The frame is the index a
    simpagation's redexes there took their contexts from, a selection's if
    there is one (at a conjunction that is the node's own frame, which holds
    the whole node's context too), else None; the redexes are a
    simpagation's head redexes there, as tried, and empty for other rules.
    At the node object of its entry a rule without a context head is
    skipped, and a simpagation goes through the entry's redexes and matches
    only the contexts with an element not in that frame that a conjunct can
    take (`cc.keys`, any for a variable conjunct), the implicit `true`
    never counting as in the frame. A memo serves one sequence of steps,
    each from the state the last one returned. None stands for an empty
    memo; `run` passes one memo to every step.
    """
    if memo is None:
        memo = {}
    goal = state.goal
    nodes = subterms(goal)
    by_head: dict = {}
    for pair in nodes:
        by_head.setdefault(_head(pair[1]), []).append(pair)
    context_of = _focus_contexts(goal)
    # seen[index, old, r]: bit j set when element j of index is new against
    # old and has a head key that rule r's context can take; the key keeps both
    # indexes alive for the step
    seen: dict = {}
    for r, rule in enumerate(program.rules):
        head = _head(rule.head)
        cc = rule.cc
        for path, node in nodes if head is None else by_head.get(head, ()):
            key = r, node.id
            prior = memo.get(key)
            old = frame = redexes = None
            if prior is not None and prior[0] is node:
                if cc is None:
                    continue  # refused at this very node, which holds nothing new
                _node, old, redexes = prior
            tried = []  # a simpagation's redexes here, as they are tried
            for redex in redexes_at(node, rule.head) if redexes is None else redexes:
                selected, theta, matched = redex
                thetas = (theta,)
                if cc is not None:
                    tried.append(redex)
                    index, masked = context_of(path, node, selected)
                    if frame is None or selected is not None:
                        frame = index
                    new = 0
                    if old is not None:
                        new = seen.get((index, old, r))
                        if new is None:
                            # the implicit `true` is never kept: it counts as new
                            kept = set(map(id, old.elements[:-1]))
                            els = index.elements
                            takeable = range(len(els)) if cc.keys is None else [
                                j for k in cc.keys for j in index.by_head.get(k, ())
                            ]
                            new = seen[index, old, r] = sum(
                                1 << j for j in takeable if id(els[j]) not in kept
                            )
                        new &= ~masked
                        if not new:
                            continue
                    thetas = match_cc(cc, index, theta, masked, new)
                for th in thetas:
                    fired = _successor(rule, state, path, node, selected, rule.head, matched, th)
                    if fired is not None:
                        return fired
            memo[key] = (node, frame, tried)
    return None


def run(program: Program, goal: Term, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
    """Rewrite a goal to a normal form, or stop after max_steps transitions.

    The step after the last allowed one only tells a normal form from an
    exhausted budget. One memo serves every step. Whenever it has doubled
    since it was last pruned, the entries of identifiers that left the goal,
    which keep dead nodes alive and are never looked up again, go.
    """
    state = initial_state(goal)
    trace: list[TraceStep] = []
    memo: dict = {}
    kept = 0
    for k in count():
        nxt = step(state, program, memo)
        if nxt is None:
            return RunResult(state, tuple(trace), NORMAL_FORM)
        if k >= max_steps:
            return RunResult(state, tuple(trace), BUDGET_EXHAUSTED)
        state, ts = nxt
        trace.append(ts._replace(index=k + 1))
        if len(memo) > 2 * kept:
            live = ids_of(state.goal)
            memo = {key: entry for key, entry in memo.items() if key[1] in live}
            kept = len(memo)


# --- trace rendering ---------------------------------------------------------


def format_step(ts: TraceStep) -> str:
    path = "[" + ",".join(str(i) for i in ts.path) + "]"
    return f"#{ts.index} {ts.kind} {ts.rule} @ {path} : {pretty(strip(ts.goal))}"


def step_record(ts: TraceStep) -> dict:
    """Machine-readable trace record (fields: n, kind, rule, path, ids, goal)."""
    return {
        "n": ts.index,
        "kind": ts.kind,
        "rule": ts.rule,
        "path": list(ts.path),
        "ids": list(ts.entry) if ts.entry else [],
        "goal": pretty(strip(ts.goal)),
    }
