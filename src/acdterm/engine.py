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

from .matching import Subst, guard_holds, match_cc, redexes_at
from .pretty import pretty
from .rules import PROPAGATION, SIMPAGATION, Program, Rule
from .terms import (
    AC_FUNCTORS,
    AND,
    AApp,
    ATerm,
    App,
    Num,
    Position,
    Term,
    Var,
    aapp,
    annotate_from,
    conjunctive_context,
    positions,
    replace_at,
    strip,
    subterm_at,
    vars_of,
)

KIND_OF = {
    "simplification": "simplify",
    "propagation": "propagate",
    "simpagation": "simpagate",
}

NORMAL_FORM = "normal_form"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class HistoryEntry:
    rule: str
    ids: tuple[int, ...]


@dataclass(frozen=True)
class EngineState:
    goal: ATerm
    history: frozenset[HistoryEntry]
    initial_vars: frozenset[str]
    next_id: int


@dataclass(frozen=True)
class TraceStep:
    index: int
    rule: str
    kind: str  # simplify | propagate | simpagate
    path: Position
    selected: tuple[int, ...] | None
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
    head: Term,
    head_inst: ATerm,
    body: Term,
    body_inst: ATerm,
    h0: frozenset[HistoryEntry],
) -> frozenset[HistoryEntry]:
    """Minimal history extension for a rule application.

    For every variable occurring at position p in the head and position q in
    the body, the renaming mapping the identifiers of head_inst at p onto
    those of body_inst at q is applied to every entry mentioning a renamed
    identifier, and the renamed entry is added.
    """
    renamings: list[dict[int, int]] = []
    for p in positions(head):
        hsub = subterm_at(head, p)
        if not isinstance(hsub, Var):
            continue
        for q in positions(body):
            if subterm_at(body, q) != hsub:
                continue
            rho: dict[int, int] = {}
            _zip_ids(subterm_at(head_inst, p), subterm_at(body_inst, q), rho)
            if rho:
                renamings.append(rho)
    out = set(h0)
    for rho in renamings:
        for e in h0:
            if any(i in rho for i in e.ids):
                out.add(HistoryEntry(e.rule, tuple(rho.get(i, i) for i in e.ids)))
    return frozenset(out)


# --- rule application --------------------------------------------------------


def _instantiate(body: Term, theta: Subst, taken: frozenset[str]) -> Term:
    """theta applied to a rule body as a plain term.

    Body-only variables become fresh goal variables, with names chosen
    deterministically and disjoint from the names in `taken`. AC nodes are
    not re-flattened, so the body's positions stay valid on the instance
    (required for aligning the history renaming).
    """
    taken = set(taken)
    fresh: dict[str, Term] = {}

    def walk(t: Term) -> Term:
        if isinstance(t, Var):
            bound = theta.get(t.name)
            if bound is not None:
                return strip(bound)
            if t.name not in fresh:
                k = 1
                while f"_{t.name}{k}" in taken:
                    k += 1
                name = f"_{t.name}{k}"
                taken.add(name)
                fresh[t.name] = Var(name)
            return fresh[t.name]
        if isinstance(t, Num):
            return t
        return App(t.functor, tuple(walk(a) for a in t.args))

    return walk(body)


def _flatten_annotated(t: ATerm) -> ATerm:
    """Restore the flattened-AC invariant, keeping surviving identifiers."""
    if isinstance(t, AApp):
        return aapp(t.functor, tuple(_flatten_annotated(a) for a in t.args), t.id)
    return t


@dataclass(frozen=True)
class _Fired:
    replacement: ATerm
    history: frozenset[HistoryEntry]
    next_id: int
    selected: tuple[int, ...] | None
    entry: tuple[int, ...] | None


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


def _try_rule_at(
    rule: Rule,
    goal: ATerm,
    path: Position,
    history: frozenset[HistoryEntry],
    next_id: int,
) -> _Fired | None:
    """First applicable redex of one rule anchored at the node at path, applied."""
    node = subterm_at(goal, path)
    conjunction_node = isinstance(node, AApp) and node.functor == AND
    for redex in redexes_at(node, rule.head):
        if rule.kind == SIMPAGATION:
            # residual children sit in the focus's context only under /\
            extra = redex.residual if conjunction_node else ()
            cc_full = conjunctive_context(goal, path) + extra
            thetas: Iterator[Subst] = match_cc(rule.cc_head, cc_full, redex.theta)
        else:
            thetas = iter((redex.theta,))
        for theta in thetas:
            if not guard_holds(rule.guard, theta):
                continue
            entry = None
            if rule.kind == PROPAGATION:
                entry = entry_of(rule.name, redex.matched)
                if entry in history:
                    continue
            body_plain = _instantiate(rule.body, theta, vars_of(goal))
            body_raw, new_next = annotate_from(body_plain, next_id)
            new_history = update_history(rule.head, redex.matched, rule.body, body_raw, history)
            body_a = _flatten_annotated(body_raw)
            if rule.kind == PROPAGATION:
                new_history = new_history | {entry}
                replacement = aapp(AND, (redex.matched, body_a), new_next)
                new_next += 1
            else:
                replacement = body_a
            if redex.selected is None:
                repl = replacement
            else:
                repl = _splice(node, redex.selected, replacement)
            return _Fired(
                replacement=repl,
                history=new_history,
                next_id=new_next,
                selected=redex.selected,
                entry=entry.ids if entry else None,
            )
    return None


def initial_state(goal: Term) -> EngineState:
    goal_a, next_id = annotate_from(goal, 1)
    return EngineState(goal_a, frozenset(), vars_of(goal), next_id)


def step(state: EngineState, program: Program) -> tuple[EngineState, TraceStep] | None:
    """One transition: textually first rule at its first redex, or None."""
    goal = state.goal
    all_positions = positions(goal)
    for rule in program.rules:
        for path in all_positions:
            fired = _try_rule_at(rule, goal, path, state.history, state.next_id)
            if fired is None:
                continue
            new_goal = replace_at(goal, fired.replacement, path)
            new_state = EngineState(new_goal, fired.history, state.initial_vars, fired.next_id)
            ts = TraceStep(
                index=1,
                rule=rule.name,
                kind=KIND_OF[rule.kind],
                path=path,
                selected=fired.selected,
                entry=fired.entry,
                goal_after=strip(new_goal),
            )
            return new_state, ts
    return None


def run(program: Program, goal: Term, max_steps: int = 10_000) -> RunResult:
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
