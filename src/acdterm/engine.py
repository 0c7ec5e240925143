"""Execution states, transitions, propagation histories and trace rendering.

A run starts from the freshly annotated goal with an empty history. Each
transition applies the textually first rule at the first redex in preorder
position order (selections and context matches enumerated deterministically),
so traces are reproducible. Simplification replaces the matched instance with
the freshly annotated body, propagation conjoins the body with the matched
instance and records a history entry, simpagation additionally requires its
context head to match within the conjunctive context of the focus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Iterator

from .matching import Subst, _instantiate, guard_holds, match_cc, redexes_at
from .pretty import pretty
from .rules import PROPAGATION, SIMPAGATION, Program, Rule
from .terms import (
    AC_FUNCTORS,
    AND,
    AApp,
    App,
    ATerm,
    AVar,
    Position,
    Term,
    Var,
    aapp,
    annotate_from,
    conjunctive_context,
    replace_at,
    strip,
    subterms,
    vars_of,
)

KIND_OF = {
    "simplification": "simplify",
    "propagation": "propagate",
    "simpagation": "simpagate",
}

NORMAL_FORM = "normal_form"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class HistoryEntry:
    rule: str
    ids: tuple[int, ...]


@dataclass(frozen=True)
class EngineState:
    goal: ATerm
    history: frozenset[HistoryEntry]
    next_id: int


@dataclass(frozen=True)
class TraceStep:
    index: int
    rule: str
    kind: str  # simplify | propagate | simpagate
    path: Position
    entry: tuple[int, ...] | None
    goal_after: Term


@dataclass(frozen=True)
class RunResult:
    final: EngineState
    trace: tuple[TraceStep, ...]
    status: str


# --- propagation history -----------------------------------------------------


def _entry_ids(t: ATerm) -> tuple[int, ...]:
    if isinstance(t, AApp):
        if t.functor in AC_FUNCTORS:
            return tuple(i for a in t.args for i in _entry_ids(a))
        return (t.id,) + tuple(i for a in t.args for i in _entry_ids(a))
    return (t.id,)


def entry_of(rule: str, t: ATerm) -> HistoryEntry:
    """History entry of a rule for a matched annotated instance.

    AC operator nodes contribute their children's entries in matched order
    and omit their own identifier; every other node contributes its
    identifier followed by its children's entries.
    """
    return HistoryEntry(rule, _entry_ids(t))


def _zip_ids(a: ATerm, b: ATerm, rho: dict[int, int]) -> None:
    rho[a.id] = b.id
    if (
        isinstance(a, AApp)
        and isinstance(b, AApp)
        and a.functor == b.functor
        and len(a.args) == len(b.args)
    ):
        for x, y in zip(a.args, b.args):
            _zip_ids(x, y, rho)


def update_history(
    head: Term | ATerm,
    head_inst: ATerm,
    body: Term,
    body_inst: ATerm,
    h0: frozenset[HistoryEntry],
) -> frozenset[HistoryEntry]:
    """Minimal history extension for a rule application.

    For every variable occurring at position p in the head and position q in
    the body, the renaming mapping the identifiers of head_inst at p onto
    those of body_inst at q is applied to every entry mentioning a renamed
    identifier, and the renamed entry is added. The head may be a plain
    pattern or an annotated view of one aligned with head_inst.
    """
    copies: dict[str, list[ATerm]] = {}
    for name, copy in _occurrences(body, body_inst):
        copies.setdefault(name, []).append(copy)
    out = set(h0)
    for name, inst in _occurrences(head, head_inst):
        for copy in copies.get(name, ()):
            rho: dict[int, int] = {}
            _zip_ids(inst, copy, rho)
            for e in h0:
                if any(i in rho for i in e.ids):
                    out.add(HistoryEntry(e.rule, tuple(rho.get(i, i) for i in e.ids)))
    return frozenset(out)


def _occurrences(pattern: Term | ATerm, inst: ATerm) -> Iterator[tuple[str, ATerm]]:
    """(variable name, instance subtree) for each variable occurrence of a
    pattern, plain or annotated, in preorder, walking the pattern and its
    aligned instance together."""
    if isinstance(pattern, (Var, AVar)):
        yield pattern.name, inst
    elif isinstance(pattern, (App, AApp)):
        for p, s in zip(pattern.args, inst.args):
            yield from _occurrences(p, s)


# --- rule application --------------------------------------------------------


def _flatten_annotated(t: ATerm) -> ATerm:
    """Restore the flattened-AC invariant, keeping surviving identifiers."""
    if isinstance(t, AApp):
        return aapp(t.functor, tuple(_flatten_annotated(a) for a in t.args), t.id)
    return t


def _splice(node: ATerm, selected: tuple[int, ...], replacement: ATerm) -> ATerm:
    """Swap the selected children of an AC node for the replacement subtree.

    The replacement takes the place of the first selected child; the
    residual children stay in place.
    """
    first = selected[0]
    chosen = set(selected)
    new_children: list[ATerm] = []
    for i, child in enumerate(node.args, start=1):
        if i == first:
            new_children.append(replacement)
        elif i in chosen:
            continue
        else:
            new_children.append(child)
    return aapp(node.functor, new_children, node.id)


def _successor(
    rule: Rule,
    state: EngineState,
    path: Position,
    node: ATerm,
    selected: tuple[int, ...] | None,
    head: Term | ATerm,
    matched: ATerm,
    theta: Subst,
) -> tuple[EngineState, TraceStep] | None:
    """Fire a rule on one match: the state it leads to, with its trace record.

    `matched` is the head instance aligned node for node with `head` (the
    rule's head or an annotated view of it) and theta the match's bindings,
    which may keep AC nodes nested. None when the guard fails or the history
    already holds a propagation's entry. The body instance is annotated from
    the state's next identifier and the history renamed onto it. A
    propagation conjoins the matched head instance, flattened, with the body
    and records the entry; a selection of a node other than `/\\` becomes a
    node of its own with a fresh identifier. The result replaces the
    selected children of `node`, the goal node at path, or the whole node
    when `selected` is None.
    """
    if not guard_holds(rule.guard, theta):
        return None
    entry = None
    if rule.kind == PROPAGATION:
        entry = entry_of(rule.name, matched)
        if entry in state.history:
            return None
    body_plain = _instantiate(rule.body, theta, vars_of(state.goal))
    body, next_id = annotate_from(body_plain, state.next_id)
    history = update_history(head, matched, rule.body, body, state.history)
    replacement = _flatten_annotated(body)
    if entry is not None:
        history = history | {entry}
        matched = _flatten_annotated(matched)
        if selected is not None and node.functor != AND:
            matched = AApp(node.functor, matched.args, next_id)
            next_id += 1
        replacement = aapp(AND, (matched, replacement), next_id)
        next_id += 1
    if selected is not None:
        replacement = _splice(node, selected, replacement)
    goal = replace_at(state.goal, replacement, path)
    ts = TraceStep(
        index=1,
        rule=rule.name,
        kind=KIND_OF[rule.kind],
        path=path,
        entry=entry.ids if entry else None,
        goal_after=strip(goal),
    )
    return EngineState(goal, history, next_id), ts


def _try_rule_at(
    rule: Rule, state: EngineState, path: Position, node: ATerm
) -> tuple[EngineState, TraceStep] | None:
    """First applicable redex of one rule anchored at `node`, the goal node at
    path, applied."""
    for redex in redexes_at(node, rule.head):
        if rule.kind == SIMPAGATION:
            context = conjunctive_context(state.goal, path, redex.selected)
            thetas: Iterator[Subst] = match_cc(rule.cc_head, context, redex.theta)
        else:
            thetas = iter((redex.theta,))
        for theta in thetas:
            fired = _successor(
                rule, state, path, node, redex.selected, rule.head, redex.matched, theta
            )
            if fired is not None:
                return fired
    return None


def initial_state(goal: Term) -> EngineState:
    goal_a, next_id = annotate_from(goal, 1)
    return EngineState(goal_a, frozenset(), next_id)


def step(state: EngineState, program: Program) -> tuple[EngineState, TraceStep] | None:
    """One transition: textually first rule at its first redex, or None."""
    nodes = subterms(state.goal)
    for rule in program.rules:
        for path, node in nodes:
            fired = _try_rule_at(rule, state, path, node)
            if fired is not None:
                return fired
    return None


def run(program: Program, goal: Term, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
    """Rewrite a goal to a normal form, or stop after max_steps transitions."""
    state = initial_state(goal)
    trace: list[TraceStep] = []
    for k in range(max_steps):
        nxt = step(state, program)
        if nxt is None:
            return RunResult(state, tuple(trace), NORMAL_FORM)
        state, ts = nxt
        trace.append(_dc_replace(ts, index=k + 1))
    status = NORMAL_FORM if step(state, program) is None else BUDGET_EXHAUSTED
    return RunResult(state, tuple(trace), status)


# --- trace rendering ---------------------------------------------------------


def format_step(ts: TraceStep) -> str:
    path = "[" + ",".join(str(i) for i in ts.path) + "]"
    return f"#{ts.index} {ts.kind} {ts.rule} @ {path} : {pretty(ts.goal_after)}"


def step_record(ts: TraceStep) -> dict:
    """Machine-readable trace record (fields: n, kind, rule, path, ids, goal)."""
    return {
        "n": ts.index,
        "kind": ts.kind,
        "rule": ts.rule,
        "path": list(ts.path),
        "ids": list(ts.entry) if ts.entry else [],
        "goal": pretty(ts.goal_after),
    }
