"""Rule and program types."""

from __future__ import annotations

from dataclasses import dataclass, field

from .matching import ContextPattern
from .terms import TRUE, Term, vars_of

SIMPLIFICATION = "simplify"
PROPAGATION = "propagate"
SIMPAGATION = "simpagate"


@dataclass(frozen=True)
class Rule:
    name: str
    kind: str  # simplify | propagate | simpagate
    head: Term
    body: Term
    guard: Term = TRUE
    cc_head: Term | None = None
    # body variables that neither head binds: fresh goal variables on firing
    fresh_vars: frozenset[str] = field(init=False, repr=False, compare=False)
    # the context head as `match_cc` takes it, for a simpagation
    cc: ContextPattern | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.cc_head is not None) != (self.kind == SIMPAGATION):
            raise ValueError("cc_head is present exactly for simpagation rules")
        scope = vars_of(self.head)
        if self.cc_head is not None:
            scope |= vars_of(self.cc_head)
        loose = vars_of(self.guard) - scope
        if loose:
            name = sorted(loose)[0]
            raise ValueError(f"guard variable {name} does not occur in the rule head")
        object.__setattr__(self, "fresh_vars", vars_of(self.body) - scope)
        cc = None if self.cc_head is None else ContextPattern(self.cc_head)
        object.__setattr__(self, "cc", cc)


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = field(default=())

    def __post_init__(self):
        seen: set[str] = set()
        for r in self.rules:
            if r.name in seen:
                raise ValueError(f"duplicate rule name {r.name}")
            seen.add(r.name)

    def __len__(self):
        return len(self.rules)
