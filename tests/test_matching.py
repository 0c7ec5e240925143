import itertools
import random

from acdterm import (
    App,
    Num,
    Var,
    ac_equal,
    annotate,
    app,
    canonical,
    find_redexes,
    guard_holds,
    match,
    match_cc,
    parse_term,
    pretty,
    strip,
)
from acdterm.matching import _instantiate

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
    # brute-force enumeration of all binary AC rearrangements of both sides
    from acdterm.oracle import _arrangements, _match_b
    from acdterm.terms import annotate_from

    rng = random.Random(37)
    patterns = [
        P("X /\\ Y"),
        P("leq(X,Y) /\\ leq(Y,Z)"),
        P("X /\\ false"),
        P("g(X,X)"),
        P("X + Y"),
    ]
    leaves = [App("a"), App("b"), App("false"), Var("U")]

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
            brute = set()
            for s_arr in _arrangements(sa, 100_000):
                for p_arr in _arrangements(pa, 100_000):
                    th = _match_b(p_arr, s_arr, {}, [])
                    if th is not None:
                        brute.add(
                            tuple(
                                sorted(
                                    (k, str(canonical(_b_plain(v))))
                                    for k, v in th.items()
                                )
                            )
                        )
            assert mine == brute, (pretty(pattern), pretty(subj))


def _b_plain(b):
    from acdterm.oracle import _b_to_aterm

    return strip(_b_to_aterm(b))


# --- find_redexes ----------------------------------------------------------------


def test_find_redexes_submultiset_with_residual():
    goal = A("leq(A,B) /\\ leq(B,A) /\\ X")
    head = P("leq(X,Y) /\\ leq(Y,Z)")
    redexes = list(find_redexes(goal, head))
    assert redexes
    for r in redexes:
        assert r.path == ()
        assert r.selected == (1, 2)
        assert [strip(x) for x in r.residual] == [Var("X")]


def test_find_redexes_non_ac_head():
    goal = A("f(a) /\\ g(b)")
    redexes = list(find_redexes(goal, P("f(X)")))
    assert len(redexes) == 1
    assert redexes[0].path == (1,)


def test_find_redexes_pattern_larger_than_subject():
    goal = A("a /\\ b")
    assert list(find_redexes(goal, P("a /\\ b /\\ c"))) == []


def test_find_redexes_preorder_enumeration():
    goal = A("f(a) /\\ f(f(a))")
    paths = [r.path for r in find_redexes(goal, P("f(X)"))]
    assert paths == [(1,), (2,), (2, 1)]


# --- match_cc ----------------------------------------------------------------------


def test_match_cc_extends_binding():
    cc = [A("A = 1")]
    thetas = [plain(t) for t in match_cc(P("X = V"), cc, {"X": A("A")})]
    assert thetas == [{"X": Var("A"), "V": Num(1)}]


def test_match_cc_submultiset_with_residual():
    cc = [A("maxOverlap(G1,G2,0)"), A("maximise(1)")]
    thetas = [plain(t) for t in match_cc(P("maxOverlap(A,B,C1)"), cc, {})]
    assert thetas == [{"A": Var("G1"), "B": Var("G2"), "C1": Num(0)}]


def test_match_cc_empty_context():
    assert list(match_cc(P("f(X)"), [], {})) == []


def test_match_cc_conjunction_pattern_injective():
    cc = [A("p(a)"), A("q(b)")]
    thetas = [plain(t) for t in match_cc(P("p(X) /\\ q(Y)"), cc, {})]
    assert thetas == [{"X": App("a"), "Y": App("b")}]
    assert list(match_cc(P("p(X) /\\ p(Y)"), [A("p(a)")], {})) == []


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


def test_guard_pure_function_of_bindings():
    theta = {"S": A("f(Y)"), "T": A("f(f(Y))"), "Unrelated": A("g(a)")}
    slim = {"S": theta["S"], "T": theta["T"]}
    g = P("size(S) <= size(T)")
    assert guard_holds(g, theta) == guard_holds(g, slim)
