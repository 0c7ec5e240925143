"""Pretty-printer emitting the rule-language concrete syntax.

Parentheses are minimal with respect to the operator precedence table;
parse_term(pretty(t)) is structurally equal to t.
"""

from __future__ import annotations

from .parser import _BINOPS, _NONASSOC
from .terms import AApp, ANum, App, ATerm, AVar, Num, Term, Var

_PREFIX_PREC = 600
_ATOM_PREC = 1000


def _prec(t) -> int:
    if isinstance(t, (App, AApp)) and t.args:
        if t.functor in _BINOPS:
            return _BINOPS[t.functor]
        if t.functor == "~" and len(t.args) == 1:
            return _PREFIX_PREC
    return _ATOM_PREC


def pretty(t: Term | ATerm, print_ids: bool = False) -> str:
    """Concrete syntax for a term; with print_ids, nodes carry `#id` suffixes."""
    suffix = f"#{t.id}" if print_ids else ""
    if isinstance(t, (Var, AVar)):
        return t.name + suffix
    if isinstance(t, (Num, ANum)):
        return str(t.value) + suffix
    if t.args and t.functor in _BINOPS:
        prec = _BINOPS[t.functor]
        parts = []
        for a in t.args:
            s = pretty(a, print_ids)
            # non-associative comparisons also parenthesise equal precedence
            if _prec(a) < prec or (t.functor in _NONASSOC and _prec(a) == prec):
                s = f"({s})"
            parts.append(s)
        body = f" {t.functor} ".join(parts)
        return f"({body}){suffix}" if print_ids else body
    if t.functor == "~" and len(t.args) == 1:
        s = pretty(t.args[0], print_ids)
        if _prec(t.args[0]) < _PREFIX_PREC:
            s = f"({s})"
        return f"(~{s}){suffix}" if print_ids else f"~{s}"
    if not t.args:
        return t.functor + suffix
    args = ",".join(pretty(a, print_ids) for a in t.args)
    return f"{t.functor}({args}){suffix}"
