import random

import pytest

from acdterm import (
    AApp,
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
    parse_term,
    pretty,
    replace_at,
    size,
    strip,
    subterm_at,
    subterms,
    vars_of,
)
from acdterm.terms import AC_FUNCTORS, aapp, ac_key, annotate_from

P = parse_term


def random_term(rng, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice([Var("X"), Var("Y"), App("a"), App("b"), Num(rng.randrange(4))])
    functor = rng.choice(["f", "g", "/\\", "\\/", "+"])
    n = rng.randrange(1, 4) if functor in ("f", "g") else 2
    return app(functor, tuple(random_term(rng, depth - 1) for _ in range(max(n, 2 if functor not in ('f', 'g') else n))))


# --- subterm / replace / positions ------------------------------------------


def test_subterm_at_root_is_identity():
    t = P("f(a,b)")
    assert subterm_at(t, ()) == t


def test_subterm_at_deep():
    # hand trace: f(f(X)) = X, position [1,1,1] addresses the inner X
    t = P("f(f(X)) = X")
    assert subterm_at(t, (1, 1, 1)) == Var("X")


def test_subterm_at_flattened_ac_indexing():
    t = P("a /\\ b /\\ c")
    assert subterm_at(t, (2,)) == App("b")


def test_subterm_binary_traversal_oracle():
    # flattened child 2 of a /\ b /\ c equals position [1,2] of ((a/\b)/\c)
    flat = P("a /\\ b /\\ c")
    binary_left = App("/\\", (App("/\\", (App("a"), App("b"))), App("c")))
    assert subterm_at(flat, (2,)) == binary_left.args[0].args[1]


def test_subterm_invalid_position():
    with pytest.raises(PositionError) as err:
        subterm_at(P("f(a)"), (2,))
    assert "2" in str(err.value)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: app(""), ValueError, "empty functor"),
        (lambda: app("+", ()), ValueError, "needs at least one operand"),
        (lambda: replace_at(P("f(a)"), App("b"), (1, 1)), PositionError, "index 1"),
        (lambda: conjunctive_context(P("a /\\ b"), (3,), None), PositionError, "index 3"),
    ],
    ids=["empty_functor", "ac_without_operands", "replace_below_leaf", "context_past_last"],
)
def test_invalid_terms_and_positions(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_ac_node_with_one_operand_is_that_operand():
    a = App("a")
    assert app("+", (a,)) is a
    child = AApp("f", (), 1)
    assert aapp("*", (child,), 2) is child


def test_replace_at_simple():
    assert replace_at(P("f(a)"), App("b"), (1,)) == P("f(b)")


def test_replace_at_root():
    assert replace_at(Var("X"), P("g(Y)"), ()) == P("g(Y)")


def test_replace_at_flattened_ac():
    assert replace_at(P("a /\\ b /\\ c"), App("d"), (2,)) == P("a /\\ d /\\ c")


def test_replace_reflattens():
    t = replace_at(P("a /\\ b"), P("c /\\ d"), (2,))
    assert t == P("a /\\ c /\\ d")


def test_replace_subterm_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        t = random_term(rng)
        for p, _node in subterms(t):
            assert replace_at(t, subterm_at(t, p), p) == t


def test_positions():
    assert subterms(Var("X")) == [((), Var("X"))]
    assert subterms(P("f(a,b)")) == [((), P("f(a,b)")), ((1,), App("a")), ((2,), App("b"))]
    assert [p for p, _node in subterms(P("f(g(X))"))] == [(), (1,), (1, 1)]


def test_positions_one_per_node():
    rng = random.Random(11)
    for _ in range(50):
        t = random_term(rng)
        pairs = subterms(t)
        ps = [p for p, _node in pairs]
        assert len(ps) == len(set(ps))
        assert pairs[0] == ((), t)
        for p, node in pairs:
            assert node is subterm_at(t, p)


# --- vars / size -------------------------------------------------------------


def test_vars_of():
    assert vars_of(P("f(a)")) == frozenset()
    assert vars_of(P("leq(X,Y) /\\ leq(Y,Z)")) == {"X", "Y", "Z"}
    assert vars_of(P("X = f(X)")) == {"X"}


def test_size_counts_symbols_on_binary_form():
    assert size(Var("x")) == 1
    assert size(P("f(f(Y))")) == 3
    assert size(P("f(Y) = f(f(Y))")) == 6
    # n-ary AC node counts n-1 binary operators
    assert size(P("a /\\ b /\\ c")) == 5


def test_size_matches_naive_binary_counter():
    def count(t):
        if not isinstance(t, App) or not t.args:
            return 1
        if t.functor in ("/\\", "\\/", "+", "*"):
            total = 0
            for a in t.args:
                total += count(a)
            return total + len(t.args) - 1
        return 1 + sum(count(a) for a in t.args)

    rng = random.Random(3)
    for _ in range(100):
        t = random_term(rng)
        assert size(t) == count(t)


# --- annotation ---------------------------------------------------------------


def test_annotate_fresh_and_complete():
    t = P("f(a,b)")
    ta = annotate(0, t)
    assert len(ids_of(ta)) == len(subterms(t))
    assert strip(ta) == t


def test_annotate_avoids_used_set():
    ta = annotate({1, 2, 3}, App("a"))
    assert ta.id == 4


def test_annotate_strip_round_trip_property():
    rng = random.Random(5)
    for _ in range(100):
        t = random_term(rng)
        used = frozenset(rng.sample(range(50), rng.randrange(5)))
        ta = annotate(used, t)
        assert strip(ta) == t
        assert not (ids_of(ta) & used)
        assert len(ids_of(ta)) == len(subterms(t))


# --- AC equality ---------------------------------------------------------------


def test_ac_equal_commutative():
    assert ac_equal(P("a /\\ b"), P("b /\\ a"))


def test_ac_equal_associative():
    assert ac_equal(P("(a + b) + c"), P("a + (b + c)"))


def test_ac_equal_free_functor_is_ordered():
    assert not ac_equal(P("f(a,b)"), P("f(b,a)"))


def test_canonical_idempotent_and_equivalence():
    rng = random.Random(13)
    sample = [random_term(rng) for _ in range(60)]
    for t in sample:
        assert canonical(canonical(t)) == canonical(t)
        assert ac_equal(t, t)
    for t in sample:
        for s in sample:
            assert ac_equal(t, s) == ac_equal(s, t)


def _ref_order_key(t):
    if isinstance(t, Var):
        return (0, t.name)
    if isinstance(t, Num):
        return (1, t.value)
    return (2, t.functor, len(t.args), tuple(_ref_order_key(a) for a in t.args))


def _ref_canonical(t):
    if isinstance(t, (Var, Num)):
        return t
    args = tuple(_ref_canonical(a) for a in t.args)
    if t.functor in AC_FUNCTORS:
        flat = []
        for a in args:
            if isinstance(a, App) and a.functor == t.functor:
                flat.extend(a.args)
            else:
                flat.append(a)
        return App(t.functor, tuple(sorted(flat, key=_ref_order_key)))
    return App(t.functor, args)


def _renest(rng, t):
    """An AC-equal copy of t whose AC children are shuffled and regrouped
    into nested nodes of the same functor, left unflattened."""
    if not isinstance(t, App):
        return t
    args = [_renest(rng, a) for a in t.args]
    if t.functor in AC_FUNCTORS:
        rng.shuffle(args)
        while len(args) > 2 and rng.random() < 0.8:
            i = rng.randrange(len(args) - 1)
            args[i : i + 2] = [App(t.functor, (args[i], args[i + 1]))]
    return App(t.functor, tuple(args))


def test_canonical_matches_reference():
    # the reference is the earlier canonical form, which sorted AC children
    # by an order key over plain terms; _relabel and printed goals depend on
    # that order
    rng = random.Random(23)
    pairs = []
    for _ in range(400):
        t = random_term(rng)
        pairs.append((t, _renest(rng, t)))
    for t, s in pairs:
        ref = _ref_canonical(t)
        assert _ref_canonical(s) == ref
        for u in (t, s, annotate_from(t, 0)[0], annotate_from(s, 0)[0]):
            assert canonical(u) == ref
            assert ac_key(u) == _ref_order_key(ref)
    for t, s in pairs[:40]:
        for u, v in pairs[:40]:
            assert ac_equal(t, v) == (_ref_canonical(t) == _ref_canonical(v))
            assert ac_equal(annotate_from(s, 0)[0], u) == (
                _ref_canonical(s) == _ref_canonical(u)
            )


# --- conjunctive context -------------------------------------------------------


def test_cc_at_root_is_empty():
    ta = annotate(0, P("f(a)"))
    assert conjunctive_context(ta, (), None) == ()


def test_cc_collects_siblings_through_disjunction():
    # context of the inner X in (X = 3) /\ (q(X) \/ (X = 4) /\ U \/ V) /\ W
    t = P("(X = 3) /\\ (q(X) \\/ (X = 4) /\\ U \\/ V) /\\ W")
    ta = annotate(0, t)
    # position: conjunct 2 -> disjunct 2 -> conjunct 1 -> arg 1
    cc = conjunctive_context(ta, (2, 2, 1, 1), None)
    got = sorted(pretty(strip(c)) for c in cc)
    assert got == ["U", "W", "X = 3"]


def test_cc_of_sibling_conjunct():
    ta = annotate(0, P("not_one(A) /\\ one(A)"))
    cc = conjunctive_context(ta, (1,), None)
    assert [pretty(strip(c)) for c in cc] == ["one(A)"]


def test_cc_excludes_focus_and_descendants():
    rng = random.Random(17)
    for _ in range(60):
        t = random_term(rng)
        ta = annotate(0, t)
        for p, focus in subterms(ta):
            focus_ids = ids_of(focus)
            for c in conjunctive_context(ta, p, None):
                assert not (ids_of(c) & focus_ids)


def test_cc_passes_through_free_functors():
    s = P("a /\\ g(X)")
    outer = app("f", (s,))
    ta = annotate(0, outer)
    inner = annotate(0, s)
    lhs = [strip(c) for c in conjunctive_context(ta, (1, 2, 1), None)]
    rhs = [strip(c) for c in conjunctive_context(inner, (2, 1), None)]
    assert lhs == rhs
