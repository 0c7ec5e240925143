"""AC term rewriting with conjunctive-context matching and propagation rules."""

from .engine import entry_of, initial_state, run, step, update_history
from .matching import guard_holds, match, match_cc
from .oracle import (
    OracleSizeError,
    enumerate_transitions,
    first_divergence,
    search_normal_forms,
    verify_trace,
)
from .parser import ParseError, parse_program, parse_term
from .pretty import pretty
from .terms import (
    App,
    Num,
    PositionError,
    Var,
    ac_equal,
    annotate,
    app,
    canonical,
    conjunctive_context,
    ids_of,
    replace_at,
    size,
    strip,
    subterm_at,
    subterms,
    vars_of,
)
