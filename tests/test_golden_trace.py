"""Golden traces: a fixed goal set over the corpus programs, run to the end,
hashed record by record.

The digest pins every `engine.step_record` line (rule, kind, path, entry
identifiers and goal) of every run, so any change to which rule fires where,
in what order, or with which identifiers shows here. A change meant to keep
the semantics, such as a faster way to find the same redexes, must leave it
as it is; a change of semantics updates the digest and says why.

The set covers:
- variable heads: unify's `vsubs @ X = Y \\ X`, one_subst's `subst`, leq's
  `conj_false @ X /\\ false` and `conj_true`;
- number nodes: `one(A)` gives `A = 1`, `not_one(1)` matches a number
  argument, golfers' `holds/1` rules produce 0 and 1, and the `NUMBERS`
  program has number heads, a number context conjunct and a variable head
  whose context conjunct `big(N)` is bound to numbers;
- propagation with history: leq's `transitivity` on chains and cycles;
- simpagation with bound context arguments: `antisymmetry`, `idempotence`,
  `tsubs`, `vsubs` and `max_overlap_dedup`, whose context conjuncts reuse
  head variables;
- a run that exhausts its budget (`loop`) and programs with no rule.
"""

import hashlib
import json
import random

from conftest import load_program

from acdterm import parse_program, parse_term, run
from acdterm.engine import step_record

GOLDEN_DIGEST = "78efbe4cb74600c730e1bf93fb7a4ed1730ff4db18a88127aa1c7b4c31d73cf1"

NUMBERS = parse_program(
    """
    zero  @ 0 <=> z.
    sum   @ 1 + 1 <=> 2.
    twice @ big(N) \\ N <=> N !== small | small.
    keep  @ 2 \\ big(X) <=> X.
    """
)

FIXED = {
    "leq.acd": [
        "leq(A,A) /\\ leq(X,Y) /\\ leq(Y,Z)",
        "leq(X,Y) /\\ leq(Y,X)",
        "leq(X,Y) /\\ leq(X,Y) /\\ leq(Y,Z) /\\ leq(Z,X)",
        "leq(X0,X1) /\\ leq(X1,X2) /\\ leq(X2,X3) /\\ leq(X3,X0)",
        "leq(X0,X1) /\\ leq(X1,X2) /\\ leq(X2,X3) /\\ leq(X3,X4) /\\ leq(X4,X0)",
        "leq(a,b) /\\ leq(b,c) /\\ ~leq(a,c) /\\ ~true",
        "~false /\\ leq(a,b) /\\ true /\\ ~leq(b,a)",
        "leq(a,b) /\\ false /\\ leq(b,c)",
        "leq(f(X),g(Y)) /\\ leq(g(Y),f(X)) /\\ leq(X,X)",
    ],
    "unify.acd": [
        "X = Y /\\ f(X) = Y",
        "f(X) = f(Y) /\\ Y = a /\\ Z = X",
        "X = f(Y) /\\ Y = f(Z) /\\ Z = a /\\ X = f(f(W))",
        "f(f(X)) = Y /\\ Y = f(Z) /\\ X = Z /\\ W = X",
        "X = Y /\\ Y = Z /\\ Z = X /\\ g(X,Y,Z)",
        "a = X /\\ X = Y /\\ f(Y) = f(f(a))",
    ],
    "one_subst.acd": [
        "one(A) /\\ not_one(A)",
        "not_one(A) /\\ B = 2 /\\ one(A) /\\ A = B",
        "one(A) /\\ one(B) /\\ not_one(B) /\\ A = B",
    ],
    "golfers.acd": [
        "maxOverlap(g1,g2,1) /\\ maxOverlap(g1,g2,0) /\\ holds(true)",
        "maxOverlap(g1,g2,0) /\\ maximise(holds(maxOverlap(g1,g2,1))) /\\ holds(false)",
        "maxOverlap(g1,g2,2) /\\ maxOverlap(g2,g1,1) /\\ maxOverlap(g1,g2,3)",
    ],
    "loop.acd": ["f(a) /\\ g(b)"],
    "empty.acd": ["leq(a,b) /\\ f(X)"],
}

NUMBER_GOALS = [
    "0 /\\ 1 + 1 /\\ big(q)",
    "2 /\\ big(0) /\\ big(2) /\\ 2 /\\ big(1 + 1)",
    "h(0, 1 + 1) /\\ 1 /\\ big(1) /\\ 1 + 1",
]


def _random_goals(seed):
    """Seeded leq and unify goals beyond the fixed ones."""
    rng = random.Random(seed)
    names = ["A", "B", "C", "D"]
    leq = [
        " /\\ ".join(
            f"leq({rng.choice(names)},{rng.choice(names)})" for _ in range(rng.randrange(2, 5))
        )
        for _ in range(8)
    ]
    sides = ["X", "Y", "Z", "a", "f(X)", "f(Y)", "f(a)", "f(f(Z))"]
    unify = [
        " /\\ ".join(
            f"{rng.choice(sides)} = {rng.choice(sides)}" for _ in range(rng.randrange(2, 5))
        )
        for _ in range(8)
    ]
    return {"leq.acd": leq, "unify.acd": unify}


def _cases():
    for name, goals in FIXED.items():
        yield name, load_program(name), goals
    yield "numbers", NUMBERS, NUMBER_GOALS
    for name, goals in _random_goals(12).items():
        yield name, load_program(name), goals


def golden_lines():
    """One header line per run, then one JSON line per trace step."""
    for name, program, goals in _cases():
        for src in goals:
            res = run(program, parse_term(src), max_steps=200)
            yield f"{name} {src} {res.status} {len(res.trace)}"
            for ts in res.trace:
                yield json.dumps(step_record(ts))


def test_golden_trace_digest():
    h = hashlib.sha256()
    for line in golden_lines():
        h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST
