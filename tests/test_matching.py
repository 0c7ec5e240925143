import itertools
import random
import re

import pytest
from conftest import count_calls

from acdterm import (
    App,
    Num,
    Var,
    ac_equal,
    annotate,
    app,
    canonical,
    conjunctive_context,
    guard_holds,
    match,
    match_cc,
    parse_term,
    pretty,
    strip,
    subterms,
)
from acdterm.matching import (
    ContextIndex,
    ContextPattern,
    _group_term,
    _instantiate,
    _match_node,
    redexes_at,
)
from acdterm.terms import AC_FUNCTORS

P = parse_term


def A(src):
    return annotate(0, parse_term(src))


def plain(theta):
    return {k: strip(v) for k, v in theta.items()}


# --- match ---------------------------------------------------------------------


def test_match_commutative_head_yields_both_substitutions():
    pattern = P("leq(X,Y) /\\ leq(Y,Z)")
    subject = A("leq(A,B) /\\ leq(B,A)")
    thetas = [plain(t) for t in match(pattern, subject)]
    assert {"X": Var("A"), "Y": Var("B"), "Z": Var("A")} in thetas
    assert {"X": Var("B"), "Y": Var("A"), "Z": Var("B")} in thetas
    assert len(thetas) == 2


def test_match_functor_clash_is_empty():
    assert list(match(P("f(X)"), A("g(a)"))) == []
    assert list(match(P("f(X)"), A("f(a,b)"))) == []


def test_match_ground_ac_commutativity():
    thetas = list(match(P("a + b"), A("b + a")))
    assert thetas == [{}]


def test_match_nonlinear_requires_ac_equal_bindings():
    assert list(match(P("g(X,X)"), A("g(a,a)"))) != []
    assert list(match(P("g(X,X)"), A("g(a,b)"))) == []
    # AC-equal but not syntactically identical bindings are accepted
    assert list(match(P("g(X,X)"), A("g(a /\\ b, b /\\ a)"))) != []


def test_match_variable_pattern_binds_whole_subject():
    thetas = [plain(t) for t in match(P("X"), A("f(a)"))]
    assert thetas == [{"X": P("f(a)")}]


def test_match_soundness_property():
    rng = random.Random(31)
    atoms = [App("a"), App("b"), Var("U"), Num(1)]

    def rand_subject(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(atoms)
        f = rng.choice(["f", "/\\", "+"])
        n = 2 if f != "f" else rng.randrange(1, 3)
        return app(f, tuple(rand_subject(depth - 1) for _ in range(max(n, 2 if f != "f" else n))))

    pattern = P("X /\\ Y")
    for _ in range(80):
        subj = app("/\\", (rand_subject(2), rand_subject(2), rand_subject(1)))
        sa = annotate(0, subj)
        for theta in match(pattern, sa):
            inst = _instantiate(pattern, theta, frozenset())
            assert ac_equal(inst, subj)


def test_match_completeness_against_binary_enumeration():
    # on tiny AC subjects the matcher must find every grouping reachable by
    # reassociation and commutation of a binary tree
    pattern = P("X /\\ Y")
    children = [App("a"), App("b"), App("c")]
    subj = app("/\\", children)
    got = {
        (str(sorted(map(str, _conjuncts(plain(t)["X"])))), str(sorted(map(str, _conjuncts(plain(t)["Y"])))))
        for t in match(pattern, annotate(0, subj))
    }
    expected = set()
    for k in (1, 2):
        for combo in itertools.combinations(range(3), k):
            left = [children[i] for i in combo]
            right = [children[i] for i in range(3) if i not in combo]
            expected.add((str(sorted(map(str, left))), str(sorted(map(str, right)))))
    assert got == expected


def _conjuncts(t):
    if isinstance(t, App) and t.functor == "/\\":
        return list(t.args)
    return [t]


def test_match_completeness_against_rearrangement_oracle():
    # on small instances the substitution set must equal the one found by
    # brute-force enumeration of all binary AC rearrangements of both sides;
    # it is also the referee of the shared head key: where the oracle's
    # pre-filter (keys differ, or `_children_ok` fails) refuses a pair, both
    # matchers must find nothing there
    from acdterm.oracle import _arrangements, _children_ok, _match_b, _pattern_views
    from acdterm.terms import _head, annotate_from

    rng = random.Random(37)
    patterns = [
        P("X /\\ Y"),
        P("leq(X,Y) /\\ leq(Y,Z)"),
        P("X /\\ false"),
        P("g(X,X)"),
        P("X + Y"),
        P("X + 1"),
        P("leq(X,a)"),
    ]
    leaves = [App("a"), App("b"), App("false"), Var("U"), Num(1)]
    refused = set()  # root keys and patterns whose children the pre-filter refused

    def rand_subject(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(leaves)
        f = rng.choice(["/\\", "+", "leq", "g"])
        n = 2
        return app(f, tuple(rand_subject(depth - 1) for _ in range(n)))

    for _ in range(60):
        subj = rand_subject(2)
        if len([*_conjuncts(subj)]) < 1:
            continue
        sa = annotate(0, subj)
        for pattern in patterns:
            mine = {
                tuple(sorted((k, str(canonical(strip(v)))) for k, v in th.items()))
                for th in match(pattern, sa)
            }
            pa, _ = annotate_from(pattern, 0)

            def brute(p_views):
                found = set()
                for s_arr in _arrangements(sa, 100_000):
                    for p_arr in p_views:
                        th = _match_b(p_arr, s_arr, {})
                        if th is not None:
                            found.add(
                                tuple(sorted((k, str(canonical(v))) for k, v in th.items()))
                            )
                return found

            where = (pretty(pattern), pretty(subj))
            assert mine == brute(_arrangements(pa, 100_000)), where
            # the oracle's head views keep the written child order: the
            # subject's permutations alone reach every substitution
            assert mine == brute(_pattern_views(pattern)), where
            key = _head(pattern)
            if key != _head(sa):
                refused.add(key)
            elif key in AC_FUNCTORS and not _children_ok(pattern, sa):
                refused.add(where[0])
            else:
                continue
            assert not mine, where
    # functor/arity and AC keys refused a pair at the root, a number child
    # and a constant child below it
    assert {("g", 2), ("leq", 2), "+", "/\\", "X + 1", "X /\\ false"} <= refused, refused


# --- pruning keeps the enumeration order -----------------------------------------
#
# The reference enumerator is the AC matcher as it was before head-symbol and
# feasibility pruning: it tries every subject child for a non-variable pattern
# child and every group for a variable one. The pruned matcher must yield the
# same sequence, element for element.


def _ref_match_node(pattern, subject, theta):
    if isinstance(pattern, Var):
        bound = theta.get(pattern.name)
        if bound is not None:
            if ac_equal(bound, subject):
                yield theta, subject
        else:
            yield {**theta, pattern.name: subject}, subject
        return
    if isinstance(pattern, Num):
        if isinstance(subject, Num) and subject.value == pattern.value:
            yield theta, subject
        return
    if not isinstance(subject, App) or subject.functor != pattern.functor:
        return
    if pattern.functor in AC_FUNCTORS:
        for theta2, inst, _unused in _ref_match_ac(pattern, subject, theta, full=True):
            yield theta2, inst
        return
    if len(subject.args) != len(pattern.args):
        return

    def walk(i, th, insts):
        if i == len(pattern.args):
            yield th, App(subject.functor, tuple(insts), subject.id)
            return
        for th2, inst in _ref_match_node(pattern.args[i], subject.args[i], th):
            yield from walk(i + 1, th2, insts + [inst])

    yield from walk(0, theta, [])


def _ref_match_ac(pattern, subject, theta, full):
    pat_children = pattern.args
    sub_children = subject.args

    def assign(i, unused, th, insts):
        if i == len(pat_children):
            if full and unused:
                return
            yield th, App(subject.functor, tuple(insts), subject.id), unused
            return
        p = pat_children[i]
        if isinstance(p, Var):
            bound = th.get(p.name)
            for k in range(1, len(unused) + 1):
                for combo in itertools.combinations(unused, k):
                    members = tuple(sub_children[j] for j in combo)
                    inst = _group_term(subject.functor, members, subject.id)
                    if bound is not None:
                        if not ac_equal(bound, inst):
                            continue
                        th2 = th
                    else:
                        th2 = {**th, p.name: inst}
                    rest = tuple(j for j in unused if j not in combo)
                    yield from assign(i + 1, rest, th2, insts + [inst])
        else:
            for j in unused:
                for th2, inst in _ref_match_node(p, sub_children[j], th):
                    rest = tuple(x for x in unused if x != j)
                    yield from assign(i + 1, rest, th2, insts + [inst])

    yield from assign(0, tuple(range(len(sub_children))), theta, [])


def _ref_redexes(node, head):
    out = []
    for theta, inst, unused in _ref_match_ac(head, node, {}, full=False):
        if unused:
            used = tuple(i + 1 for i in range(len(node.args)) if i not in unused)
            out.append((theta, inst, used))
        else:
            out.append((theta, inst, None))
    return out


_PATTERN_CHILDREN = [
    "X", "Y", "Z", "a", "b", "1", "2", "f(X)", "f(a)", "g(X,Y)", "g(Y,b)",
    "X \\/ a", "Y \\/ Z", "a \\/ b", "X + 1",
]
_SUBJECT_CHILDREN = [
    "a", "b", "c", "1", "2", "U", "f(a)", "f(b)", "f(U)", "g(a,b)", "g(b,b)",
    "a \\/ b", "a \\/ b \\/ c", "b \\/ f(a)", "a + 1", "2 + 1 + c",
]


def test_pruned_matcher_keeps_reference_order():
    rng = random.Random(53)
    shapes = [
        lambda: ["X", rng.choice(_PATTERN_CHILDREN[3:])],  # variable first
        lambda: ["X", "Y", rng.choice(_PATTERN_CHILDREN[3:])],  # two variables
        lambda: ["X", "X", rng.choice(_PATTERN_CHILDREN)],  # repeated variable
        lambda: [rng.choice(["X \\/ a", "Y \\/ Z", "a \\/ b"]), "X"],  # nested AC
        lambda: [rng.choice(["1", "2", "X + 1"]), "Y"],  # numbers
        lambda: rng.sample(_PATTERN_CHILDREN, rng.randrange(2, 4)),
    ]
    full_matches = several_redexes = 0
    for _ in range(200):
        functor = rng.choice(["/\\", "+"])
        children = rng.choice(shapes)()
        if rng.random() < 0.3:
            children.append(rng.choice(["f(Y)", "g(Y,Z)", "b"]))
        pattern = app(functor, tuple(P(c) for c in children))
        # children under the same functor would be flattened into a wider node
        pool = [c for c in _SUBJECT_CHILDREN if f" {functor} " not in f" {c} "]
        parts = [rng.choice(pool) for _ in range(rng.randrange(0, 4))]
        if rng.random() < 0.5:
            # an instance of the pattern among the children, so matches exist
            inst = {v: rng.choice(pool) for v in "XYZ"}
            parts += [re.sub(r"\b[XYZ]\b", lambda v: f"({inst[v.group()]})", c) for c in children]
        else:
            parts += [rng.choice(pool) for _ in range(rng.randrange(2, 4))]
        rng.shuffle(parts)
        subject = A(f" {functor} ".join(f"({c})" for c in parts[:5]))
        where = (pretty(pattern), pretty(strip(subject)))
        whole = list(_match_node(pattern, subject, {}))
        assert whole == list(_ref_match_node(pattern, subject, {})), where
        assert list(match(pattern, subject)) == [th for th, _inst in whole]
        mine = [(th, inst, sel) for sel, th, inst in redexes_at(subject, pattern)]
        ref = _ref_redexes(subject, pattern)
        assert mine == ref, where
        full_matches += bool(whole)
        several_redexes += len(ref) > 1
    assert full_matches >= 50 and several_redexes >= 60, (full_matches, several_redexes)


# --- redexes_at ------------------------------------------------------------------


@pytest.mark.parametrize(
    "goal, head, expected",
    [
        # both matches select the two leq children and leave X as residual
        (
            "leq(A,B) /\\ leq(B,A) /\\ X",
            "leq(X,Y) /\\ leq(Y,Z)",
            [((), (1, 2), [Var("X")])] * 2,
        ),
        # a non-AC head matches whole nodes only, not the children of an AC node
        ("f(a) /\\ g(b)", "f(X)", [((1,), None, [])]),
        ("a /\\ b", "a /\\ b /\\ c", []),
    ],
    ids=["submultiset_with_residual", "non_ac_head", "pattern_larger_than_subject"],
)
def test_redexes_at(goal, head, expected):
    # the residual of a selection is its context within the node
    found = [
        (path, sel, [strip(x) for x in conjunctive_context(node, (), sel)])
        for path, node in subterms(A(goal))
        for sel, _theta, _inst in redexes_at(node, P(head))
    ]
    assert found == expected


# --- match_cc ----------------------------------------------------------------------


def _pattern(src: str) -> ContextPattern:
    return ContextPattern(P(src))


def test_match_cc_extends_binding():
    cc = ContextIndex([A("A = 1")])
    thetas = [plain(t) for t in match_cc(_pattern("X = V"), cc, {"X": A("A")})]
    assert thetas == [{"X": Var("A"), "V": Num(1)}]


def test_match_cc_submultiset_with_residual():
    cc = ContextIndex([A("maxOverlap(G1,G2,0)"), A("maximise(1)")])
    thetas = [plain(t) for t in match_cc(_pattern("maxOverlap(A,B,C1)"), cc, {})]
    assert thetas == [{"A": Var("G1"), "B": Var("G2"), "C1": Num(0)}]


def test_match_cc_empty_context():
    assert list(match_cc(_pattern("f(X)"), ContextIndex([]), {})) == []


def test_match_cc_conjunction_pattern_injective():
    cc = ContextIndex([A("p(a)"), A("q(b)")])
    thetas = [plain(t) for t in match_cc(_pattern("p(X) /\\ q(Y)"), cc, {})]
    assert thetas == [{"X": App("a"), "Y": App("b")}]
    assert list(match_cc(_pattern("p(X) /\\ p(Y)"), ContextIndex([A("p(a)")]), {})) == []


def test_match_cc_trailing_true():
    # a context ends in an implicit true, which `true` may take while the
    # residual stays non-empty
    assert list(match_cc(_pattern("true"), ContextIndex([A("b")]), {})) == [{}]
    assert list(match_cc(_pattern("true"), ContextIndex([]), {})) == []
    # a variable takes the context's elements first, then the trailing true
    thetas = [plain(t) for t in match_cc(_pattern("V"), ContextIndex([A("h(b)")]), {})]
    assert thetas == [{"V": App("h", (App("b"),))}, {"V": App("true")}]
    assert list(match_cc(_pattern("V"), ContextIndex([]), {})) == []
    cc = ContextIndex([A("b"), A("c")])
    thetas = [plain(t) for t in match_cc(_pattern("b /\\ true"), cc, {})]
    assert thetas == [{}]
    assert list(match_cc(_pattern("b /\\ true"), ContextIndex([A("b")]), {})) == []


def _masked(srcs, *positions):
    """A ContextIndex over the elements and the mask of the given positions."""
    return ContextIndex([A(src) for src in srcs]), sum(1 << j for j in positions)


def test_match_cc_never_binds_a_masked_element():
    index, mask = _masked(["p(a)", "p(b)", "p(c)"], 0, 2)
    thetas = [plain(t) for t in match_cc(_pattern("p(X)"), index, {}, mask)]
    assert thetas == [{"X": App("b")}]
    # a variable conjunct skips the masked elements too, then takes `true`
    thetas = [plain(t) for t in match_cc(_pattern("V"), index, {}, mask)]
    assert thetas == [{"V": P("p(b)")}, {"V": App("true")}]
    # with a bound argument, the argument index skips them as well
    assert list(match_cc(_pattern("p(X)"), index, {"X": A("a")}, mask)) == []
    thetas = [plain(t) for t in match_cc(_pattern("p(X)"), index, {"X": A("a")})]
    assert thetas == [{"X": App("a")}]


def test_match_cc_residual_counts_unmasked_elements():
    # p(a) masked leaves only the implicit true, which the residual needs
    index, mask = _masked(["p(a)"], 0)
    assert list(match_cc(_pattern("p(X)"), index, {}, mask)) == []
    assert list(match_cc(_pattern("V"), index, {}, mask)) == []
    assert list(match_cc(_pattern("true"), index, {}, mask)) == []
    # two elements, one masked: as the one-element context [p(a)]
    index, mask = _masked(["p(a)", "p(b)"], 1)
    assert list(match_cc(_pattern("p(X) /\\ V"), index, {}, mask)) == []
    assert list(match_cc(_pattern("p(X) /\\ V"), ContextIndex([A("p(a)")]), {})) == []
    assert len(list(match_cc(_pattern("p(X) /\\ V"), index, {}))) == 4


def test_match_cc_true_stays_last_and_unmasked():
    index, mask = _masked(["b", "true", "c"], 0)
    assert index.elements[-1] == App("true", (), -1)
    thetas = [plain(t) for t in match_cc(_pattern("V"), index, {}, mask)]
    assert thetas == [{"V": App("true")}, {"V": App("c")}, {"V": App("true")}]
    # the context's own `true`, masked, leaves the implicit one
    index, mask = _masked(["true", "c"], 0)
    assert list(match_cc(_pattern("true"), index, {}, mask)) == [{}]
    assert list(match_cc(_pattern("true /\\ true"), index, {}, mask)) == []


# --- guards ---------------------------------------------------------------------------


def test_guard_true_false():
    assert guard_holds(P("true"), {})
    assert not guard_holds(P("false"), {})


def test_guard_var_nonvar():
    theta = {"X": annotate(0, Var("Y")), "V": annotate(0, Num(1))}
    assert guard_holds(P("var(X) /\\ nonvar(V)"), theta)
    assert not guard_holds(P("var(V)"), theta)


def test_guard_size_comparison():
    theta = {"S": A("f(Y)"), "T": A("f(f(Y))")}
    assert guard_holds(P("size(S) <= size(T)"), theta)
    assert not guard_holds(P("size(T) <= size(S)"), theta)


def test_guard_syntactic_disequality():
    theta = {"X": annotate(0, Var("A")), "Y": annotate(0, Var("B"))}
    assert guard_holds(P("X !== Y"), theta)
    assert not guard_holds(P("X !== X"), theta)
    commuted = {"X": A("a /\\ b"), "Y": A("b /\\ a")}
    assert not guard_holds(P("X !== Y"), commuted)


def test_guard_arithmetic():
    theta = {"C1": annotate(0, Num(0)), "C2": annotate(0, Num(1))}
    assert guard_holds(P("C2 >= C1"), theta)
    assert guard_holds(P("C1 + 2 = 2"), theta)
    assert guard_holds(P("2 * 3 > 5"), {})


def test_unknown_guard_terms_do_not_hold():
    assert not guard_holds(P("mystery(X)"), {"X": annotate(0, App("a"))})
    assert not guard_holds(P("size(X) <= f(a)"), {"X": annotate(0, App("a"))})
    assert not guard_holds(Num(1), {})


def test_guard_pure_function_of_bindings():
    theta = {"S": A("f(Y)"), "T": A("f(f(Y))"), "Unrelated": A("g(a)")}
    slim = {"S": theta["S"], "T": theta["T"]}
    g = P("size(S) <= size(T)")
    assert guard_holds(g, theta) == guard_holds(g, slim)


def test_ac_match_stops_when_a_sibling_has_no_candidate(monkeypatch):
    # false fits no subject child, so no f(c_i) is ever tried against f(X)
    from acdterm import matching

    calls = count_calls(monkeypatch, matching, "_match_node")
    subject = A(" /\\ ".join(f"f(c{i})" for i in range(20)))
    assert list(match(P("f(X) /\\ false"), subject)) == []
    assert calls.calls == 1
