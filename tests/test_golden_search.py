"""Golden oracle results: the referee's verdicts on the golden trace goals,
hashed case by case.

For every goal of `test_golden_trace._cases()` within the oracle's size
bound, and for `leq(a,b) /\\ leq(b,a)`, whose search never ends by itself,
the digest pins the oracle's `first_divergence` of the first engine steps,
and a small bounded `search_normal_forms`: states explored, whether it was
truncated, and its normal forms. The search bounds are small enough that
most searches truncate, so the digest also pins which states fill the width
and in which order the oracle reaches them. A change meant to keep the
successor relation, such as a cheaper state key, must leave it as it is.
"""

import hashlib
import json

from conftest import load_program
from test_golden_trace import _cases

from acdterm import first_divergence, parse_term, pretty, run, search_normal_forms, size
from acdterm.oracle import MAX_GOAL_SIZE

GOLDEN_SEARCH_DIGEST = "ffda36c24ede8838ff2df951a5305fff7f7e10088c77483c0be3f8e5b991218c"

# engine steps replayed, and the search's levels and visited states
TRACE_STEPS = 3
DEPTH = 2
WIDTH = 6


def _search_cases():
    for name, program, goals in _cases():
        for src in goals:
            if size(parse_term(src)) <= MAX_GOAL_SIZE:
                yield name, program, src
    yield "leq.acd", load_program("leq.acd"), "leq(a,b) /\\ leq(b,a)"


def golden_search_lines():
    """One line per case: divergence, explored, truncated, normal forms."""
    for name, program, src in _search_cases():
        goal = parse_term(src)
        trace = run(program, goal, max_steps=TRACE_STEPS).trace
        divergence = first_divergence(program, goal, trace)
        res = search_normal_forms(program, goal, depth=DEPTH, width=WIDTH)
        forms = sorted(pretty(t) for t in res.normal_forms)
        yield f"{name} {src} {divergence} {res.explored} {res.truncated} {json.dumps(forms)}"


def test_golden_search_digest():
    h = hashlib.sha256()
    for line in golden_search_lines():
        h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == GOLDEN_SEARCH_DIGEST
