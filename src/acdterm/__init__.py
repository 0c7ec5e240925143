"""AC term rewriting with conjunctive-context matching and propagation rules."""

from .engine import (
    BUDGET_EXHAUSTED,
    NORMAL_FORM,
    EngineState,
    HistoryEntry,
    RunResult,
    TraceStep,
    entry_of,
    format_step,
    initial_state,
    run,
    step,
    step_record,
    update_history,
)
from .matching import Redex, Subst, find_redexes, guard_holds, match, match_cc
from .oracle import (
    OracleSizeError,
    SearchResult,
    enumerate_transitions,
    first_divergence,
    search_normal_forms,
    verify_trace,
)
from .parser import ParseError, parse_program, parse_term
from .pretty import pretty
from .rules import Program, Rule
from .terms import (
    AC_FUNCTORS,
    AND,
    OR,
    AApp,
    ANum,
    App,
    ATerm,
    AVar,
    Num,
    Position,
    PositionError,
    Term,
    Var,
    ac_equal,
    annotate,
    annotate_from,
    app,
    canonical,
    conjunctive_context,
    ids_of,
    positions,
    replace_at,
    size,
    strip,
    subterm_at,
    vars_of,
)

__version__ = "0.1.0"
