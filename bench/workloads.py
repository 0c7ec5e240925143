"""The benchmark's workloads: seeded goal generators, the timed call into
acdterm for one goal, and an answer check per workload that does not use the
engine.

Every workload builds one fixed list of goals per seed, a *pass*. A run
repeats whole passes, so every run of a seed does the same work and the
`trace_digest` of the first pass identifies the traces exactly. The seed only
permutes and renames; the mix of goal sizes is the same for every seed. On
unify_chain the order of a chain's equations still changes its step count
(from 48 to 100 steps at 16 links over seeds 11 to 20), so there the draw
adds to the spread between runs of different seeds.

The programs are pinned copies under `programs/`, so a change to the test
corpus does not silently change a workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import acdterm.cli as cli
import acdterm.engine as engine
import acdterm.oracle as oracle
from acdterm.parser import parse_program, parse_term
from acdterm.rules import Program
from acdterm.terms import AND, OR, App, Var, canonical, size, strip

PROGRAMS = Path(__file__).resolve().parent / "programs"

# Cycle leq(X0,X1) /\ ... /\ leq(Xn,X0) for each n, so n+1 atoms. Step counts
# are 14, 39 and 71 whatever the permutation; n=6 (about 1 s a goal) would
# leave too few samples per run for a 90th percentile. Six copies make a pass
# of 18 goals, about 3.5 s; in ten 20 s runs each timed 6 passes, 108 goals, so
# about ten lie beyond the 90th percentile.
LEQ_RUNGS = (3, 4, 5)
LEQ_COPIES = 6
LEQ_MAX_STEPS = 100_000

# Chains of n equations f^d(Va) = f^d(Vb) plus one anchor Vlast = f(f(a)),
# for each n. Every seed uses the same multiset of depths, so only the order
# of the equations and the variable names vary.
UNIFY_RUNGS = (8, 12, 16)
UNIFY_COPIES = 8
UNIFY_MAX_STEPS = 2000
UNIFY_ANCHOR = "f(f(a))"

# CNF goals of w clauses; the cost of the failing X /\ false match doubles
# with every clause, so the widest rung sets the 90th percentile. Each clause
# is one atom literal and two constants. The constant pairs of a goal of w
# clauses are the first w of BOOL_PAIRS, the same for every seed, so every
# seed keeps the same number of clauses; the seed picks atoms and polarities
# and shuffles clauses and literals. Drawing the constants at random made the
# number of kept clauses, and with it the goal time, vary from seed to seed.
BOOL_RUNGS = (9, 10, 11)
BOOL_COPIES = 8
BOOL_ATOMS = 4
BOOL_MAX_STEPS = 10_000
BOOL_CONSTANTS = {"true": True, "false": False, "~true": False, "~false": True}
BOOL_PAIRS = [
    (c1, c2) for c1 in ("false", "~true", "true", "~false")
    for c2 in ("~false", "false", "true", "~true")
]

# The goal kinds of the acceptance suite's oracle criterion, with the same
# size bound and budgets. leq, one_subst and golfers goals are enumerated in
# full: two leq goals (leq(a,b) /\ leq(b,c) with true or false) cost about
# 1 s of oracle search each, so drawing leq goals at random would make the
# pass cost depend on the seed. The unify goals are drawn once from a fixed
# generator, so every seed has the same goals and only their order and the
# order of their conjuncts vary: a per-seed draw moved the median goal time
# by up to 15% between seeds.
ORACLE_POOLS = {
    "leq": ["leq(a,b)", "leq(b,c)", "leq(a,c)", "~leq(a,b)", "~leq(b,c)", "true", "false"],
    "one_subst": ["one(A)", "one(B)", "not_one(A)", "not_one(B)", "A = 1", "B = 2", "A = B"],
}
ORACLE_UNIFY_SIDES = ["X", "Y", "a", "f(X)", "f(Y)", "f(a)", "f(f(X))", "f(f(Y))"]
ORACLE_UNIFY_GOALS = 60
ORACLE_UNIFY_DRAW = 0
ORACLE_MAX_SIZE = 10
ORACLE_MAX_STEPS = 100
ORACLE_DEPTH = 20
ORACLE_WIDTH = 10_000


def load_program(name: str) -> Program:
    return parse_program((PROGRAMS / f"{name}.acd").read_text(encoding="utf-8"))


def conjunction(parts) -> str:
    return " /\\ ".join(parts)


@dataclass
class Goal:
    """One goal of a pass; `expect` is what the workload's check needs."""

    src: str
    term: object = None
    expect: object = None
    program: str = ""
    path: Path | None = None


@dataclass
class Outcome:
    """What one goal produced: its steps, its trace lines, and the answer."""

    steps: int
    finished: bool
    answer: object
    trace: tuple = ()
    lines: list[str] = field(default_factory=list)


def trace_lines(trace) -> list[str]:
    """The json-lines trace records of a run, as `acdterm run` writes them."""
    return [json.dumps(engine.step_record(ts)) for ts in trace]


def trace_digest(outcomes) -> str:
    """sha256 over every trace record of every goal, in order."""
    h = hashlib.sha256()
    for outcome in outcomes:
        if outcome is None:
            h.update(b"crashed\n")
            continue
        for line in outcome.lines or trace_lines(outcome.trace):
            h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def run_engine(program: Program, goal: Goal, timer, max_steps: int) -> Outcome:
    """One goal through `acdterm.engine.run`; the answer is the final plain goal."""
    with timer:
        result = engine.run(program, goal.term, max_steps=max_steps)
    return Outcome(
        len(result.trace),
        result.status == engine.NORMAL_FORM,
        strip(result.final.goal),
        result.trace,
    )


# --- plain-term helpers used by the checks ------------------------------------


def conjuncts(t) -> list:
    if isinstance(t, App) and t.functor == AND:
        return list(t.args)
    return [t]


def shape(t):
    """A comparable form of a plain term with AC children sorted."""
    if isinstance(t, Var):
        return ("var", t.name)
    args = tuple(shape(a) for a in t.args)
    if t.functor in (AND, OR):
        args = tuple(sorted(args, key=repr))
    return (t.functor, args)


# --- leq_cycle ----------------------------------------------------------------


class LeqCycle:
    """leq.acd rules 1-4 on leq cycles: propagation and its history dominate."""

    name = "leq_cycle"

    def setup(self, seed: int, workdir: Path) -> list[Goal]:
        rng = random.Random(seed)
        self.program = Program(load_program("leq").rules[:4])
        goals = []
        for _ in range(LEQ_COPIES):
            for n in LEQ_RUNGS:
                names = rng.sample([f"X{i}" for i in range(n + 1)], n + 1)
                atoms = [f"leq({names[i]},{names[(i + 1) % (n + 1)]})" for i in range(n + 1)]
                rng.shuffle(atoms)
                src = conjunction(atoms)
                goals.append(Goal(src, parse_term(src), frozenset(names)))
        return goals

    def run_goal(self, goal: Goal, timer) -> Outcome:
        return run_engine(self.program, goal, timer, LEQ_MAX_STEPS)

    @staticmethod
    def check(goal: Goal, answer) -> bool:
        """No leq(X,X), no repeated or symmetric leq pair, and the equations
        join every cycle variable into one class."""
        variables = goal.expect
        parent = {v: v for v in variables}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        pairs = set()
        for atom in conjuncts(answer):
            if atom == App("true"):
                continue
            if not (
                isinstance(atom, App)
                and atom.functor in ("leq", "=")
                and len(atom.args) == 2
                and all(isinstance(a, Var) and a.name in parent for a in atom.args)
            ):
                return False
            x, y = atom.args[0].name, atom.args[1].name
            if atom.functor == "=":
                parent[find(x)] = find(y)
            elif x == y or (x, y) in pairs or (y, x) in pairs:
                return False
            else:
                pairs.add((x, y))
        return len({find(v) for v in variables}) == 1


# --- unify_chain --------------------------------------------------------------


def nest(depth: int, inner: str) -> str:
    for _ in range(depth):
        inner = f"f({inner})"
    return inner


def parse_equations(text: str):
    """Parse `V = t /\\ ...` over variables, `a` and `f/1`; None otherwise.

    Terms come back as a variable name, "a", or ("f", term).
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def term():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "f":
            if tokens[pos] != "(":
                raise ValueError(tok)
            pos += 1
            inner = term()
            if tokens[pos] != ")":
                raise ValueError(tokens[pos])
            pos += 1
            return ("f", inner)
        if tok == "a" or tok[:1].isupper():
            return tok
        raise ValueError(tok)

    equations = []
    try:
        while True:
            lhs = term()
            if tokens[pos] != "=":
                return None
            pos += 1
            equations.append((lhs, term()))
            if pos == len(tokens):
                return equations
            if tokens[pos] != "/\\":
                return None
            pos += 1
    except (IndexError, ValueError):
        return None


class UnifyChain:
    """unify.acd through `acdterm run`: guarded simpagation context matching."""

    name = "unify_chain"

    def setup(self, seed: int, workdir: Path) -> list[Goal]:
        rng = random.Random(seed)
        self.program_path = PROGRAMS / "unify.acd"
        self.trace_path = workdir / "unify_trace.jsonl"
        goals = []
        for _ in range(UNIFY_COPIES):
            for links in UNIFY_RUNGS:
                names = rng.sample([f"V{i}" for i in range(links + 1)], links + 1)
                depths = [i % 4 for i in range(links)]
                rng.shuffle(depths)
                equations = [
                    f"{nest(d, names[i])} = {nest(d, names[i + 1])}"
                    for i, d in enumerate(depths)
                ]
                equations.append(f"{names[-1]} = {UNIFY_ANCHOR}")
                rng.shuffle(equations)
                src = conjunction(equations)
                path = workdir / f"unify_{len(goals)}.goal"
                path.write_text(src + "\n", encoding="utf-8")
                goals.append(Goal(src, expect=frozenset(names), path=path))
        return goals

    def run_goal(self, goal: Goal, timer) -> Outcome:
        argv = [
            "run", "-p", str(self.program_path), "-G", str(goal.path),
            "--max-steps", str(UNIFY_MAX_STEPS),
            "--trace-out", str(self.trace_path), "--format", "json-lines",
        ]
        out = io.StringIO()
        with timer, contextlib.redirect_stdout(out):
            code = cli.main(argv)
        lines = self.trace_path.read_text(encoding="utf-8").splitlines()
        return Outcome(len(lines), code == 0, out.getvalue().strip(), lines=lines)

    @staticmethod
    def check(goal: Goal, answer: str) -> bool:
        """Solved form whose substitution closure maps every variable to f(f(a))."""
        equations = parse_equations(answer)
        if equations is None:
            return False
        binding = {}
        for lhs, rhs in equations:
            if not isinstance(lhs, str) or lhs == "a" or lhs in binding:
                return False
            binding[lhs] = rhs

        def resolve(t, seen):
            if isinstance(t, tuple):
                inner = resolve(t[1], seen)
                return None if inner is None else ("f", inner)
            if t == "a":
                return t
            if t in seen or t not in binding:
                return None
            return resolve(binding[t], seen | {t})

        return set(binding) == goal.expect and all(
            resolve(v, frozenset()) == UNIFY_ANCHOR_TERM for v in goal.expect
        )


# --- bool_width ---------------------------------------------------------------


def bool_expected(clauses):
    """Normal form by truth tables: the shape of the cleaned-up conjunction."""
    kept = []
    for literals in clauses:
        values = [BOOL_CONSTANTS.get(lit) for lit in literals]
        if True in values:
            continue
        atoms = [parse_literal(lit) for lit, v in zip(literals, values) if v is None]
        kept.append(atoms[0] if len(atoms) == 1 else (OR, tuple(sorted(atoms, key=repr))))
    if not kept:
        return ("true", ())
    if len(kept) == 1:
        return kept[0]
    return (AND, tuple(sorted(kept, key=repr)))


def parse_literal(lit: str):
    if lit.startswith("~"):
        return ("~", ((lit[1:], ()),))
    return (lit, ())


class BoolWidth:
    """Plain AC cleanup of CNF goals: failed AC matches dominate."""

    name = "bool_width"

    def setup(self, seed: int, workdir: Path) -> list[Goal]:
        rng = random.Random(seed)
        self.program = load_program("bool")
        goals = []
        for _ in range(BOOL_COPIES):
            for width in BOOL_RUNGS:
                clauses = []
                for pair in BOOL_PAIRS[:width]:
                    atom = f"a{rng.randrange(BOOL_ATOMS)}"
                    literals = [rng.choice([atom, "~" + atom]), *pair]
                    rng.shuffle(literals)
                    clauses.append(literals)
                rng.shuffle(clauses)
                src = conjunction("(" + " \\/ ".join(c) + ")" for c in clauses)
                goals.append(Goal(src, parse_term(src), bool_expected(clauses)))
        return goals

    def run_goal(self, goal: Goal, timer) -> Outcome:
        return run_engine(self.program, goal, timer, BOOL_MAX_STEPS)

    @staticmethod
    def check(goal: Goal, answer) -> bool:
        return shape(answer) == goal.expect


# --- oracle_check -------------------------------------------------------------


def oracle_sources() -> list[tuple[str, list[str]]]:
    """(program, conjuncts) for every goal of one pass, before shuffling."""
    out = []
    for name, pool in ORACLE_POOLS.items():
        for n in (2, 3):
            for combo in itertools.combinations_with_replacement(pool, n):
                out.append((name, list(combo)))
    for g1, g2, c1, fact in itertools.product(
        ("g1", "g2"), ("g1", "g2"), (0, 1), ("holds(true)", "holds(false)")
    ):
        out.append(("golfers", [f"maxOverlap({g1},{g2},{c1})", fact]))
    rng = random.Random(ORACLE_UNIFY_DRAW)
    for _ in range(ORACLE_UNIFY_GOALS):
        n = rng.randrange(1, 3)
        eqs = [
            f"{rng.choice(ORACLE_UNIFY_SIDES)} = {rng.choice(ORACLE_UNIFY_SIDES)}"
            for _ in range(n)
        ]
        out.append(("unify", eqs))
    return out


class OracleCheck:
    """Small corpus goals through run, verify_trace and search_normal_forms."""

    name = "oracle_check"

    def setup(self, seed: int, workdir: Path) -> list[Goal]:
        rng = random.Random(seed)
        self.programs = {n: load_program(n) for n in ("leq", "unify", "one_subst", "golfers")}
        goals = []
        for program, parts in oracle_sources():
            rng.shuffle(parts)
            src = conjunction(parts)
            term = parse_term(src)
            if size(term) <= ORACLE_MAX_SIZE:
                goals.append(Goal(src, term, program=program))
        rng.shuffle(goals)
        return goals

    def run_goal(self, goal: Goal, timer) -> Outcome:
        program = self.programs[goal.program]
        with timer:
            result = engine.run(program, goal.term, max_steps=ORACLE_MAX_STEPS)
            verified = oracle.verify_trace(program, goal.term, result.trace)
            found = oracle.search_normal_forms(
                program, goal.term, depth=ORACLE_DEPTH, width=ORACLE_WIDTH
            )
        answer = (canonical(strip(result.final.goal)), verified, found)
        return Outcome(
            len(result.trace), result.status == engine.NORMAL_FORM, answer, result.trace
        )

    @staticmethod
    def check(goal: Goal, answer) -> bool:
        """The oracle accepts the trace and lists the engine's normal form."""
        normal_form, verified, found = answer
        return verified and not found.truncated and normal_form in found.normal_forms


UNIFY_ANCHOR_TERM = parse_equations(f"A = {UNIFY_ANCHOR}")[0][1]

WORKLOADS = {w.name: w for w in (LeqCycle, UnifyChain, BoolWidth, OracleCheck)}
