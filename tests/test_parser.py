import random

import pytest

from acdterm import App, Num, ParseError, Var, app, parse_program, parse_term, pretty
from acdterm.rules import SIMPLIFICATION, Program, Rule
from conftest import load_program


def test_conjunction_parses_flattened():
    t = parse_term("leq(X,Y) /\\ leq(Y,Z)")
    assert t == App("/\\", (App("leq", (Var("X"), Var("Y"))), App("leq", (Var("Y"), Var("Z")))))
    assert parse_term("a /\\ b /\\ c") == App("/\\", (App("a"), App("b"), App("c")))


def test_conjunction_binds_tighter_than_disjunction():
    assert parse_term("a \\/ b /\\ c") == App("\\/", (App("a"), App("/\\", (App("b"), App("c")))))


def test_comparisons_bind_tighter_than_conjunction():
    t = parse_term("x = 3 /\\ W")
    assert t == App("/\\", (App("=", (App("x"), Num(3))), Var("W")))


def test_comparisons_non_associative():
    with pytest.raises(ParseError):
        parse_term("a = b = c")


def test_negation_and_numbers():
    assert parse_term("~true") == App("~", (App("true"),))
    assert parse_term("~~a") == App("~", (App("~", (App("a"),)),))
    assert parse_term("holds(1)") == App("holds", (Num(1),))


def test_variables_lexical_classes():
    assert parse_term("X") == Var("X")
    assert parse_term("_x") == Var("_x")
    assert parse_term("maxOverlap(g1,g2,0)") == App(
        "maxOverlap", (App("g1"), App("g2"), Num(0))
    )


def test_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_term("f(a,")
    assert err.value.line == 1 and err.value.col >= 4


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_term("f(a) $ b")


@pytest.mark.parametrize(
    "parse, src, message, col",
    [
        (parse_term, "f(,)", "unexpected token ','", 3),
        (parse_program, "a @ b.", "expected <=> or ==>, found '.'", 6),
        (parse_program, "a <=> b c", "expected '.', found 'c'", 9),
        (parse_term, "a b", "unexpected trailing input 'b'", 3),
    ],
    ids=["unexpected_token", "missing_arrow", "missing_dot", "trailing_input"],
)
def test_syntax_errors_name_the_token(parse, src, message, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == f"1:{col}: {message}"


# --- programs ------------------------------------------------------------------


def test_parse_simplification():
    prog = parse_program("leq(X,X) <=> true.")
    (rule,) = prog.rules
    assert rule.kind == "simplify"
    assert rule.guard == App("true")
    assert rule.name == "rule_1"


def test_parse_simpagation():
    prog = parse_program("leq(X,Y) \\ leq(Y,X) <=> X = Y.")
    (rule,) = prog.rules
    assert rule.kind == "simpagate"
    assert rule.cc_head == App("leq", (Var("X"), Var("Y")))
    assert rule.head == App("leq", (Var("Y"), Var("X")))


def test_parse_named_propagation():
    prog = parse_program("trans @ leq(X,Y) /\\ leq(Y,Z) ==> leq(X,Z).")
    (rule,) = prog.rules
    assert rule.name == "trans"
    assert rule.kind == "propagate"


def test_parse_guard():
    prog = parse_program("id @ X = X <=> var(X) | true.")
    (rule,) = prog.rules
    assert rule.guard == App("var", (Var("X"),))
    assert rule.body == App("true")


def test_guard_scope_violation_names_variable():
    with pytest.raises(ParseError) as err:
        parse_program("f(X) <=> var(Y) | X.")
    assert "Y" in str(err.value)


def test_duplicate_rule_names_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("r @ a <=> b. r @ c <=> d.")
    assert "duplicate" in str(err.value)


def test_rules_and_programs_built_directly_are_checked():
    a, b = App("a"), App("b")
    with pytest.raises(ValueError, match="duplicate rule name r"):
        Program((Rule("r", SIMPLIFICATION, a, b), Rule("r", SIMPLIFICATION, b, a)))
    with pytest.raises(ValueError, match="cc_head is present exactly for simpagation"):
        Rule("r", SIMPLIFICATION, a, b, cc_head=b)


def test_simpagation_requires_simplification_arrow():
    with pytest.raises(ParseError):
        parse_program("a \\ b ==> c.")


def test_comments_and_blank_lines():
    prog = parse_program("% comment\nr @ a <=> b. % trailing\n\n")
    assert len(prog) == 1


def test_corpus_programs_parse():
    for name in ("leq.acd", "unify.acd", "one_subst.acd", "golfers.acd", "empty.acd"):
        load_program(name)


# --- pretty-printing -------------------------------------------------------------


def test_pretty_function_args():
    assert pretty(parse_term("f(a, b)")) == "f(a,b)"


def test_pretty_minimal_parentheses():
    assert pretty(parse_term("a \\/ b /\\ c")) == "a \\/ b /\\ c"
    assert pretty(parse_term("(a \\/ b) /\\ c")) == "(a \\/ b) /\\ c"
    assert pretty(parse_term("~(a /\\ b)")) == "~(a /\\ b)"
    assert pretty(parse_term("~leq(X,Z)")) == "~leq(X,Z)"


def test_pretty_print_ids():
    from acdterm import annotate

    ta = annotate(0, parse_term("f(a,b)"))
    assert pretty(ta, print_ids=True) == "f(a#0,b#1)#2"


def random_term(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var("X"), App("a"), App("b"), Num(rng.randrange(9))])
    functor = rng.choice(["f", "/\\", "\\/", "+", "*", "=", "~"])
    if functor == "f":
        n = rng.randrange(1, 3)
        return App("f", tuple(random_term(rng, depth - 1) for _ in range(n)))
    if functor == "~":
        return App("~", (random_term(rng, depth - 1),))
    if functor == "=":
        return App("=", (random_term(rng, depth - 1), random_term(rng, depth - 1)))
    return app(functor, (random_term(rng, depth - 1), random_term(rng, depth - 1)))


def test_parse_pretty_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        t = random_term(rng)
        assert parse_term(pretty(t)) == t
