"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The entry-value criterion contains one assertion that is knowingly
unsatisfiable (see the assert message); it is kept faithful rather than
weakened.
"""

import itertools
import random
import time

from acdterm import (
    App,
    Num,
    Var,
    ac_equal,
    annotate,
    app,
    canonical,
    entry_of,
    ids_of,
    parse_program,
    parse_term,
    pretty,
    run,
    search_normal_forms,
    size,
    strip,
    update_history,
    verify_trace,
)
from acdterm.engine import HistoryEntry

P = parse_term
AND = "/\\"


def _report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


# --- derivation reproduction -------------------------------------------------


def test_criterion_leq_derivation(leq_program):
    started = time.perf_counter()
    goal = P("leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)")
    res = run(leq_program, goal)
    elapsed = time.perf_counter() - started
    kinds = [ts.kind for ts in res.trace]
    rules = [ts.rule for ts in res.trace]
    ok = (
        res.status == "normal_form"
        and strip(res.final.goal) == App("false")
        and len(res.trace) == 6
        and kinds == ["propagate", "simpagate", "simplify", "simplify", "simplify", "simplify"]
        and rules[0] == "transitivity"
        and rules[1] == "idempotence"
        and elapsed < 1.0
    )
    _report("leq derivation: false in 6 applications, kinds in order", ok)


def test_criterion_rational_tree_unification(unify_program):
    started = time.perf_counter()
    goal = P("X = Y /\\ f(f(X)) = X /\\ Y = f(f(f(Y)))")
    res = run(unify_program, goal)
    elapsed = time.perf_counter() - started
    expected_rules = [
        "flip", "vsubs", "vsubs", "tsubs", "split", "split",
        "tsubs", "split", "tsubs", "split", "id",
    ]
    ok = (
        res.status == "normal_form"
        and ac_equal(strip(res.final.goal), P("X = Y /\\ Y = f(Y) /\\ true"))
        and [ts.rule for ts in res.trace] == expected_rules
        and elapsed < 1.0
    )
    _report("rational-tree unification: solved form and rule sequence", ok)


def test_criterion_golfers_simplification(golfers_program):
    goal = P("maxOverlap(g1,g2,0) /\\ maximise(holds(maxOverlap(g1,g2,1)))")
    res = run(golfers_program, goal)
    ok = res.status == "normal_form" and ac_equal(
        strip(res.final.goal), P("maxOverlap(g1,g2,0) /\\ maximise(1)")
    )
    _report("golfers model: holds(...) simplifies to 1 via context", ok)


# --- entry computation ---------------------------------------------------------


def test_criterion_entry_values():
    a1, b2 = App("a", (), 1), App("b", (), 2)
    direct = App("f", (App(AND, (a1, b2), 3),), 4)
    commuted = App("f", (App(AND, (b2, a1), 3),), 4)
    lq1 = App("leq", (Var("A", 1), Var("B", 2)), 3)
    lq2 = App("leq", (Var("B", 5), Var("A", 6)), 7)
    ok = (
        entry_of("r", direct).ids == (4, 1, 2)
        and entry_of("r", commuted).ids == (4, 2, 1)
        and entry_of("trans", App(AND, (lq1, lq2), 4)).ids == (3, 1, 2, 7, 5, 6)
    )
    _report("entry values: single-conjunct examples and direct matching", ok)


def test_criterion_entry_value_commuted_variant():
    # Knowingly red: the pinned value (7 6 5 3 1 2) transposes the
    # argument identifiers of leq(B#5,A#6)#7. It is inconsistent with the
    # entry recursion that produces (4 1 2) and (3 1 2 7 5 6) in the test
    # above, so no single definition can satisfy all four quoted values.
    # Kept faithful rather than weakened; see the decisions ledger.
    lq1 = App("leq", (Var("A", 1), Var("B", 2)), 3)
    lq2 = App("leq", (Var("B", 5), Var("A", 6)), 7)
    permuted = entry_of("trans", App(AND, (lq2, lq1), 4)).ids
    ok = permuted == (7, 6, 5, 3, 1, 2)
    print(f"[{'PASS' if ok else 'FAIL'}] entry values: commuted variant pinned value")
    assert ok, (
        f"commuted entry is {permuted}, not (7 6 5 3 1 2); the pinned value is "
        "internally inconsistent with the other three (see decisions ledger)"
    )


# --- history update --------------------------------------------------------------


def _id_isomorphic(entries_a, entries_b):
    """Entry sets equal up to a bijection on identifiers."""
    if len(entries_a) != len(entries_b):
        return False
    a = sorted(entries_a, key=lambda e: (e.rule, e.ids))
    for perm in itertools.permutations(sorted(entries_b, key=lambda e: (e.rule, e.ids))):
        mapping = {}
        used = set()
        ok = True
        for ea, eb in zip(a, perm):
            if ea.rule != eb.rule or len(ea.ids) != len(eb.ids):
                ok = False
                break
            for x, y in zip(ea.ids, eb.ids):
                if mapping.setdefault(x, y) != y or (y in used and mapping.get(x) != y):
                    ok = False
                    break
                used.add(y)
            if not ok:
                break
        if ok and len(set(mapping.values())) == len(mapping):
            return True
    return False


def test_criterion_history_update():
    head, body = P("f(X)"), P("g(X,X)")
    head_inst = App("f", (App(AND, (App("a", (), 1), App("b", (), 2)), 3),), 4)
    body_inst = annotate(ids_of(head_inst), P("g(a /\\ b, a /\\ b)"))
    h0 = frozenset({HistoryEntry("r", (1, 2))})
    h1 = update_history(head, head_inst, body, body_inst, h0)
    expected = frozenset(
        {HistoryEntry("r", (1, 2)), HistoryEntry("r", (5, 6)), HistoryEntry("r", (8, 9))}
    )
    ok = h1 == expected or _id_isomorphic(h1, expected)

    lhs = App("leq", (Var("A", 5), Var("A", 6)), 7)
    rhs = App("leq", (Var("A", 9), Var("A", 10)), 11)
    merged = update_history(
        P("X /\\ X"),
        App(AND, (lhs, rhs), 8),
        P("X"),
        App("leq", (Var("A", 16), Var("A", 17)), 18),
        frozenset({HistoryEntry("trans", (3, 1, 2, 7, 5, 6))}),
    )
    ok = ok and merged == frozenset(
        {
            HistoryEntry("trans", (3, 1, 2, 7, 5, 6)),
            HistoryEntry("trans", (3, 1, 2, 18, 16, 17)),
        }
    )
    _report("history update: variable copies duplicate entries", ok)


# --- propagation termination ------------------------------------------------------


def test_criterion_propagation_termination():
    prog = parse_program(
        "trans @ leq(X,Y) /\\ leq(Y,Z) ==> X !== Y /\\ Y !== Z | leq(X,Z)."
    )
    res = run(prog, P("leq(A,B) /\\ leq(B,A)"))
    propagations = [ts for ts in res.trace if ts.kind == "propagate"]
    entries = [ts.entry for ts in propagations]
    ok = (
        res.status == "normal_form"
        and len(res.trace) == 2
        and len(propagations) == 2
        and len(set(entries)) == 2
    )
    _report("propagation termination: two firings then a final state", ok)


def test_criterion_no_entry_refires_on_corpus(
    leq_program, unify_program, one_subst_program, golfers_program
):
    cases = [
        (leq_program, "leq(X,Y) /\\ leq(Y,Z) /\\ ~leq(X,Z)"),
        (leq_program, "leq(a,b) /\\ leq(b,c) /\\ leq(c,a)"),
        (unify_program, "X = Y /\\ f(f(X)) = X /\\ Y = f(f(f(Y)))"),
        (one_subst_program, "not_one(A) /\\ one(A)"),
        (golfers_program, "maxOverlap(g1,g2,0) /\\ maximise(holds(maxOverlap(g1,g2,1)))"),
    ]
    ok = True
    for prog, src in cases:
        res = run(prog, P(src), max_steps=500)
        fired = [ts.entry for ts in res.trace if ts.kind == "propagate"]
        ok = ok and res.status == "normal_form" and len(fired) == len(set(fired))
    _report("no propagation entry fires twice across the corpus", ok)


# --- context-change renormalization ------------------------------------------------


def test_criterion_context_change(one_subst_program):
    goal = P("not_one(A) /\\ one(A)")
    res = run(one_subst_program, goal)
    ok = ac_equal(strip(res.final.goal), P("(A = 1) /\\ false"))
    oracle_result = search_normal_forms(one_subst_program, goal)
    ok = ok and oracle_result.normal_forms == frozenset(
        {canonical(P("(A = 1) /\\ false"))}
    )
    extended = parse_program(
        """
        subst   @ X = V \\ X <=> var(X) /\\ nonvar(V) | V.
        one_def @ one(X) <=> X = 1.
        not_one @ not_one(1) <=> false.
        absorb  @ false /\\ X <=> false.
        """
    )
    res2 = run(extended, goal)
    ok = ok and strip(res2.final.goal) == App("false")
    _report("context change: definition rewrites an already-visited sibling", ok)


# --- oracle equivalence -------------------------------------------------------------


def _random_goals(seed, program_name):
    rng = random.Random(seed)
    goals = []
    while len(goals) < 50:
        if program_name == "leq":
            # strictly ordered constants keep the unguarded transitive
            # closure finite, so the exhaustive search stays desk-scale
            pool = [
                "leq(a,b)", "leq(b,c)", "leq(a,c)",
                "~leq(a,b)", "~leq(b,c)", "true", "false",
            ]
            n = rng.randrange(2, 4)
            src = " /\\ ".join(rng.choice(pool) for _ in range(n))
        elif program_name == "unify":
            sides = ["X", "Y", "a", "f(X)", "f(Y)", "f(a)", "f(f(X))", "f(f(Y))"]
            n = rng.randrange(1, 3)
            src = " /\\ ".join(
                f"{rng.choice(sides)} = {rng.choice(sides)}" for _ in range(n)
            )
        elif program_name == "one_subst":
            atoms = ["one(A)", "one(B)", "not_one(A)", "not_one(B)", "A = 1", "B = 2", "A = B"]
            n = rng.randrange(2, 4)
            src = " /\\ ".join(rng.choice(atoms) for _ in range(n))
        else:  # golfers
            g1, g2 = rng.choice(["g1", "g2"]), rng.choice(["g1", "g2"])
            c1, c2 = rng.randrange(2), rng.randrange(2)
            pieces = [
                f"maxOverlap({g1},{g2},{c1})",
                rng.choice(
                    [
                        f"maximise(holds(maxOverlap({g1},{g2},{c2})))",
                        "holds(true)",
                        "holds(false)",
                    ]
                ),
            ]
            src = " /\\ ".join(pieces)
        goal = P(src)
        if size(goal) <= 10:
            goals.append(goal)
    return goals


def test_criterion_oracle_equivalence(
    leq_program, unify_program, one_subst_program, golfers_program
):
    started = time.perf_counter()
    programs = {
        "leq": leq_program,
        "unify": unify_program,
        "one_subst": one_subst_program,
        "golfers": golfers_program,
    }
    ok = True
    for seed, (name, prog) in enumerate(programs.items(), start=100):
        for goal in _random_goals(seed, name):
            res = run(prog, goal, max_steps=100)
            if res.status != "normal_form" or len(res.trace) > 20:
                ok = False
                break
            if not verify_trace(prog, goal, res.trace):
                ok = False
                break
            found = search_normal_forms(prog, goal, depth=20, width=10_000)
            if canonical(strip(res.final.goal)) not in found.normal_forms:
                ok = False
                break
        if not ok:
            print(f"oracle equivalence failed for program {name}, goal {pretty(goal)}")
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(f"oracle equivalence on 200 random goals ({elapsed:.1f}s)", ok)


# --- plain AC rewriting embedding ----------------------------------------------------
#
# Reference rewriter: self-contained innermost normalization over plain terms,
# with its own AC partition matching (no identifiers, histories or contexts).

_AC = {"/\\", "\\/", "+", "*"}


def _ref_canon(t):
    return canonical(t)


def _ref_match(p, s, b):
    if isinstance(p, Var):
        if p.name in b:
            if _ref_canon(b[p.name]) == _ref_canon(s):
                yield b
        else:
            yield {**b, p.name: s}
        return
    if isinstance(p, Num):
        if p == s:
            yield b
        return
    if not isinstance(s, App) or s.functor != p.functor:
        return
    if p.functor in _AC:
        yield from _ref_match_ac(p.args, list(s.args), b, p.functor)
        return
    if len(p.args) != len(s.args):
        return

    def go(i, bb):
        if i == len(p.args):
            yield bb
            return
        for b2 in _ref_match(p.args[i], s.args[i], bb):
            yield from go(i + 1, b2)

    yield from go(0, b)


def _ref_match_ac(pcs, scs, b, op):
    def go(i, remaining, bb):
        if i == len(pcs):
            if not remaining:
                yield bb
            return
        pc = pcs[i]
        if isinstance(pc, Var):
            for k in range(1, len(remaining) + 1):
                for combo in itertools.combinations(sorted(remaining), k):
                    group = scs[combo[0]] if k == 1 else app(op, [scs[j] for j in combo])
                    if pc.name in bb:
                        if _ref_canon(bb[pc.name]) != _ref_canon(group):
                            continue
                        b2 = bb
                    else:
                        b2 = {**bb, pc.name: group}
                    yield from go(i + 1, remaining - set(combo), b2)
        else:
            for j in sorted(remaining):
                for b2 in _ref_match(pc, scs[j], bb):
                    yield from go(i + 1, remaining - {j}, b2)

    yield from go(0, set(range(len(scs))), b)


def _ref_subst(t, b):
    if isinstance(t, Var):
        return b[t.name]
    if isinstance(t, Num):
        return t
    return app(t.functor, tuple(_ref_subst(a, b) for a in t.args))


def _ref_apply(rules, t):
    for lhs, rhs in rules:
        for b in _ref_match(lhs, t, {}):
            return _ref_subst(rhs, b)
    return None


def _ref_step(rules, t):
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            r = _ref_step(rules, a)
            if r is not None:
                args = list(t.args)
                args[i] = r
                return app(t.functor, args)
        if t.functor in _AC and len(t.args) > 2:
            idxs = range(len(t.args))
            for k in range(2, len(t.args)):
                for combo in itertools.combinations(idxs, k):
                    group = app(t.functor, [t.args[j] for j in combo])
                    res = _ref_apply(rules, group)
                    if res is not None:
                        rest = [t.args[j] for j in idxs if j not in combo]
                        return app(t.functor, [res] + rest)
    return _ref_apply(rules, t)


def _ref_normalize(rules, t, limit=1000):
    for _ in range(limit):
        r = _ref_step(rules, t)
        if r is None:
            return t
        t = r
    raise RuntimeError("reference rewriter did not terminate")


def _random_ground(rng, sig):
    leaves, ops = sig

    def build(depth):
        if depth == 0 or rng.random() < 0.35:
            return P(rng.choice(leaves))
        op, lo, hi = rng.choice(ops)
        if op == "~":
            return App("~", (build(depth - 1),))
        return app(op, tuple(build(depth - 1) for _ in range(rng.randrange(lo, hi + 1))))

    while True:
        t = build(3)
        if 2 <= size(t) <= 12:
            return t


def test_criterion_plain_ac_embedding():
    programs = [
        (
            """
            and_t @ true /\\ X <=> X.
            and_f @ false /\\ X <=> false.
            or_t  @ true \\/ X <=> true.
            or_f  @ false \\/ X <=> X.
            neg_t @ ~true <=> false.
            neg_f @ ~false <=> true.
            """,
            (["true", "false", "p", "q"], [("/\\", 2, 3), ("\\/", 2, 3), ("~", 1, 1)]),
        ),
        (
            """
            add_zero @ 0 + X <=> X.
            mul_one  @ 1 * X <=> X.
            mul_zero @ 0 * X <=> 0.
            """,
            (["0", "1", "2", "3"], [("+", 2, 3), ("*", 2, 3)]),
        ),
        (
            """
            or_idem  @ X \\/ X <=> X.
            and_idem @ X /\\ X <=> X.
            """,
            (["a", "b", "c"], [("/\\", 2, 3), ("\\/", 2, 3)]),
        ),
    ]
    ok = True
    for seed, (src, sig) in enumerate(programs, start=7):
        prog = parse_program(src)
        rules = [(r.head, r.body) for r in prog.rules]
        rng = random.Random(seed)
        for _ in range(100):
            goal = _random_ground(rng, sig)
            res = run(prog, goal, max_steps=500)
            expected = _ref_normalize(rules, goal)
            if res.status != "normal_form" or canonical(strip(res.final.goal)) != canonical(expected):
                print("mismatch on", pretty(goal), "->", pretty(strip(res.final.goal)), "vs", pretty(expected))
                ok = False
                break
        if not ok:
            break
    _report("plain AC rewriting embedding: 300 random ground terms agree", ok)
