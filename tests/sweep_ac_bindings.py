"""A differential sweep of the engine against the referee, on programs whose
propagations bind AC terms and whose heads repeat a variable.

Each seed draws a program of two to four rules and one goal; a case whose
goal passes size 14 at any step, or that does not reach a normal form, is
skipped. The engine's trace must pass `verify_trace`, and its answer must be
among the normal forms of an untruncated `search_normal_forms`. The referee's
cost per case has no bound, so the test suite runs only seeds 0-99
(`test_ac_binding_sweep_agrees_with_the_referee`). Run more as
`PYTHONPATH=src python3 tests/sweep_ac_bindings.py [cases] [first seed]`;
it prints one line of counts, and each mismatch's seed on stderr.
"""

import random
import sys

from acdterm import (
    OracleSizeError,
    canonical,
    parse_program,
    parse_term,
    pretty,
    run,
    search_normal_forms,
    size,
    strip,
    verify_trace,
)
from acdterm.engine import NORMAL_FORM

# heads that repeat a variable, and propagations that bind an AC term
_REPEATED = [
    "f(X, X) <=> g(X)", "f(X, X) <=> g(X, X)", "X /\\ X <=> g(X)",
    "h(X) /\\ h(X) <=> h(X)", "f(X, X) ==> q", "h(X) /\\ h(X) ==> q",
]
_BOUND = ["f(X, Y) ==> m", "h(X) ==> m", "g(X) ==> q", "f(X + Y, Z) ==> m"]
# rules that change leaves, so that AC terms are rebuilt in other orders
_LEAVES = ["b ==> c", "a ==> c", "k <=> b /\\ c", "k <=> a + b", "c /\\ c <=> c"]
_MAX_GOAL_SIZE = 14


def _program(rng):
    rules = [rng.choice(_REPEATED)] + rng.sample(_BOUND + _LEAVES, rng.randrange(1, 4))
    return "\n".join(f"r{k} @ {rule}." for k, rule in enumerate(rules))


def _ac_term(rng):
    leaves = rng.choices(["a", "b", "k", "c"], k=rng.randrange(1, 4))
    return rng.choice([" + ", " /\\ "]).join(leaves) if len(leaves) > 1 else leaves[0]


def _variant(rng, term):
    """term with its children shuffled, and sometimes one leaf changed."""
    op = " + " if " + " in term else " /\\ "
    leaves = term.split(op)
    rng.shuffle(leaves)
    if rng.random() < 0.4:
        leaves[rng.randrange(len(leaves))] = rng.choice(["a", "b", "k"])
    return op.join(leaves)


def _goal(rng):
    s, t = _ac_term(rng), _ac_term(rng)
    if rng.random() < 0.7:
        t = _variant(rng, s)
    return rng.choice(["f(({}), ({}))", "h({}) /\\ h({})", "g({}) /\\ f(({}), a)"]).format(s, t)


def sweep(cases, first_seed=0):
    """(cases, compared, traces rejected, answers missing, skipped)."""
    compared = rejected = missing = skipped = 0
    for seed in range(first_seed, first_seed + cases):
        rng = random.Random(seed)
        src = _program(rng)
        program = parse_program(src)
        goal = parse_term(_goal(rng))
        res = run(program, goal, 30)
        if res.status != NORMAL_FORM or max(
            [size(goal)] + [size(ts.goal) for ts in res.trace]
        ) > _MAX_GOAL_SIZE:
            skipped += 1
            continue
        try:
            found = search_normal_forms(program, goal, width=2_000)
        except OracleSizeError:
            found = None
        if found is None or found.truncated:
            skipped += 1
            continue
        compared += 1
        where = f"seed {seed}: {src!r} on {pretty(goal)}"
        if not verify_trace(program, goal, res.trace):
            rejected += 1
            print(f"trace rejected, {where}", file=sys.stderr)
        if canonical(strip(res.final.goal)) not in found.normal_forms:
            missing += 1
            print(f"answer missing, {where}", file=sys.stderr)
    return cases, compared, rejected, missing, skipped


if __name__ == "__main__":
    cases = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    print("cases %d, compared %d, traces rejected %d, answers missing %d, skipped %d"
          % sweep(cases, first))
