"""Outside-in tracing of acdterm's layers.

The tracer replaces, for the duration of a `with` block, the names that
`acdterm.engine`, `acdterm.matching`, `acdterm.cli` and `acdterm.oracle` look
up at call time with timing wrappers, and puts the originals back when the
block ends. Nothing in acdterm changes.

A layer's self time is the time inside its calls minus the time of the
wrapped calls made inside them. Generators (`redexes_at`, `match_cc`) are
timed across each `next()`, since their work happens there and not at the
call. Coarse layers also leave spans (name, start, end, parent span, goal);
leaf layers (`ac_equal`, `strip`, `guard_holds`, `entry_of`, ...) are only
aggregated, since they run hundreds of thousands of times a pass.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import acdterm.cli
import acdterm.engine
import acdterm.matching
import acdterm.oracle
from acdterm.terms import AApp, size

GENERATOR, CALL = "generator", "call"

# (module, name looked up there, layer, kind, leaves spans)
WRAPPED = [
    (acdterm.cli, "main", "cli.main", CALL, True),
    (acdterm.cli, "parse_program", "parser.parse_program", CALL, False),
    (acdterm.cli, "parse_term", "parser.parse_term", CALL, False),
    (acdterm.cli, "pretty", "pretty.pretty", CALL, False),
    (acdterm.cli, "strip", "terms.strip", CALL, False),
    (acdterm.engine, "step", "engine.step", CALL, True),
    (acdterm.engine, "redexes_at", "matching.redexes_at", GENERATOR, True),
    (acdterm.engine, "match_cc", "matching.match_cc", GENERATOR, True),
    (acdterm.engine, "guard_holds", "matching.guard_holds", CALL, False),
    (acdterm.engine, "entry_of", "engine.entry_of", CALL, False),
    (acdterm.engine, "update_history", "engine.update_history", CALL, True),
    (acdterm.engine, "strip", "terms.strip", CALL, False),
    (acdterm.engine, "conjunctive_context", "terms.conjunctive_context", CALL, False),
    (acdterm.engine, "replace_at", "terms.replace_at", CALL, False),
    (acdterm.engine, "annotate_from", "terms.annotate_from", CALL, False),
    (acdterm.engine, "pretty", "pretty.pretty", CALL, False),
    (acdterm.matching, "ac_equal", "terms.ac_equal", CALL, False),
    (acdterm.matching, "strip", "terms.strip", CALL, False),
    (acdterm.oracle, "enumerate_transitions", "oracle.enumerate_transitions", CALL, True),
    (acdterm.oracle, "search_normal_forms", "oracle.search_normal_forms", CALL, True),
    (acdterm.oracle, "verify_trace", "oracle.verify_trace", CALL, True),
]

SELF_TIMED = sorted({layer for _m, _n, layer, _k, _s in WRAPPED} | {"goal"})

# Layer metrics reported as (metric, unit); `self_s` values are times, the
# rest repeat exactly for the same goals.
METRICS = [
    ("goal.wall_s", "s"),
    ("goal.self_s", "s"),
    ("matching.redexes_at.calls", "count"),
    ("matching.redexes_at.self_s", "s"),
    ("matching.redexes_at.hit_ratio", "ratio"),
    ("matching.match_cc.calls", "count"),
    ("matching.match_cc.self_s", "s"),
    ("matching.match_cc.hit_ratio", "ratio"),
    ("matching.guard_holds.calls", "count"),
    ("matching.guard_holds.rejected", "count"),
    ("matching.guard_holds.self_s", "s"),
    ("terms.ac_equal.calls", "count"),
    ("terms.ac_equal.self_s", "s"),
    ("engine.step.calls", "count"),
    ("engine.step.self_s", "s"),
    ("engine.update_history.calls", "count"),
    ("engine.update_history.self_s", "s"),
    ("engine.entry_of.calls", "count"),
    ("engine.history.blocked", "count"),
    ("engine.history.peak", "count"),
    ("engine.history.dead_ratio", "ratio"),
    ("terms.strip.self_s", "s"),
    ("terms.conjunctive_context.self_s", "s"),
    ("terms.replace_at.self_s", "s"),
    ("terms.annotate_from.self_s", "s"),
    ("terms.goal_size.peak", "count"),
    ("parser.parse_program.self_s", "s"),
    ("parser.parse_term.self_s", "s"),
    ("pretty.pretty.calls", "count"),
    ("pretty.pretty.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("oracle.enumerate_transitions.calls", "count"),
    ("oracle.enumerate_transitions.self_s", "s"),
    ("oracle.search_normal_forms.states", "count"),
    ("oracle.search_normal_forms.self_s", "s"),
    ("oracle.verify_trace.self_s", "s"),
]


def _ids(t) -> set[int]:
    out = set()
    stack = [t]
    while stack:
        node = stack.pop()
        out.add(node.id)
        if isinstance(node, AApp):
            stack.extend(node.args)
    return out


class Tracer:
    """Counters, self times and spans of one traced pass.

    Use as a context manager around the pass, and bracket each goal with
    `begin_goal` and `end_goal`.
    """

    def __init__(self, span_cap: int = 0):
        self.calls = Counter()
        self.hits = Counter()
        self.self_s = defaultdict(float)
        self.wall_s = 0.0
        self.rejected = 0
        self.blocked = 0
        self.history_peak = 0
        self.history_total = 0
        self.history_dead = 0
        self.goal_size_peak = 0
        self.states = 0
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        # frames: [time of wrapped calls inside, span id], root first
        self._stack = [[0.0, None]]
        self._last_span = 0
        self._goal = None
        self._recording = False
        self._open_goal = None
        self._history = frozenset()
        self._saved: list[tuple] = []

    # -- installing and removing the wrappers --

    def __enter__(self):
        hooks = {
            "engine.step": self._on_step,
            "engine.entry_of": self._on_entry,
            "matching.guard_holds": self._on_guard,
            "oracle.search_normal_forms": self._on_search,
        }
        try:
            for module, name, layer, kind, span in WRAPPED:
                original = getattr(module, name)
                make = self._wrap_generator if kind == GENERATOR else self._wrap_call
                setattr(module, name, make(original, layer, span, hooks.get(layer)))
                self._saved.append((module, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- frames and spans --

    def _push(self, span: bool):
        parent = self._stack[-1][1]
        if span:
            self._last_span += 1
        frame = [0.0, self._last_span if span else parent]
        self._stack.append(frame)
        return frame, parent

    def _pop(self, layer, frame, parent, span, t0):
        t1 = perf_counter()
        self._stack.pop()
        elapsed = t1 - t0
        self.self_s[layer] += elapsed - frame[0]
        self._stack[-1][0] += elapsed
        if span:
            if self._recording:
                self.spans.append((frame[1], parent, self._goal, layer, t0, t1))
            else:
                self.spans_dropped += 1
        return elapsed

    def begin_goal(self, index: int) -> None:
        # spans are kept for whole goals, until the cap is reached
        self._goal = index
        self.calls["goal"] += 1
        self._recording = len(self.spans) < self.span_cap
        frame, parent = self._push(True)
        self._open_goal = (frame, parent, perf_counter())

    def end_goal(self) -> None:
        frame, parent, t0 = self._open_goal
        self.wall_s += self._pop("goal", frame, parent, True, t0)
        self._goal = None

    def _wrap_call(self, fn, layer, span, hook):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            frame, parent = self._push(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(layer, frame, parent, span, t0)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer, span, hook):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return self._timed_iter(fn(*args, **kwargs), layer, span)

        return wrapper

    def _timed_iter(self, it, layer, span):
        hit = False
        while True:
            frame, parent = self._push(span)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._pop(layer, frame, parent, span, t0)
            if not hit:
                hit = True
                self.hits[layer] += 1
            yield item

    # -- hooks reading the program's own values --

    def _on_step(self, args, result):
        state = args[0]
        self._history = state.history
        if result is None:
            # the state no rule applies to: count history entries that name
            # an identifier no longer in the goal
            alive = _ids(state.goal)
            self.history_total += len(state.history)
            self.history_dead += sum(
                1 for e in state.history if not alive.issuperset(e.ids)
            )
            return
        new_state = result[0]
        self.history_peak = max(self.history_peak, len(new_state.history))
        self.goal_size_peak = max(self.goal_size_peak, size(new_state.goal))
        self._history = new_state.history

    def _on_entry(self, args, entry):
        if entry in self._history:
            self.blocked += 1

    def _on_guard(self, args, holds):
        if not holds:
            self.rejected += 1

    def _on_search(self, args, result):
        self.states += result.explored

    # -- results --

    def metrics(self) -> dict[str, float]:
        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "goal.wall_s": self.wall_s,
            "engine.history.blocked": self.blocked,
            "engine.history.peak": self.history_peak,
            "engine.history.dead_ratio": ratio(self.history_dead, self.history_total),
            "terms.goal_size.peak": self.goal_size_peak,
            "matching.guard_holds.rejected": self.rejected,
            "oracle.search_normal_forms.states": self.states,
        }
        for layer in SELF_TIMED:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for layer in ("matching.redexes_at", "matching.match_cc"):
            out[f"{layer}.hit_ratio"] = ratio(self.hits[layer], self.calls[layer])
        return out

    def write_spans(self, path) -> None:
        """Spans as json lines, times relative to the first span's start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.spans_dropped}) + "\n")
            for span_id, parent, goal, name, t0, t1 in sorted(self.spans, key=lambda s: s[4]):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "goal": goal,
                            "name": name,
                            "start": round(t0 - origin, 9),
                            "end": round(t1 - origin, 9),
                        }
                    )
                    + "\n"
                )
