"""Parser for the rule language and for goal terms.

Syntax summary:

    program  ::=  (rule ".")*
    rule     ::=  [name "@"] [term "\\"] term ("<=>" | "==>") [term "|"] term
    term     ::=  operators by precedence, loosest first:
                    \\/ (100)   /\\ (200)
                    = != !== <= < >= > (300, non-associative)
                    + (400)   * (500)   ~ (600, prefix)
    atom     ::=  INT | VARIABLE | name | name "(" term ("," term)* ")" | "(" term ")"

Variables start with an upper-case letter or underscore; functors and
constants with a lower-case letter. `%` starts a line comment. AC operators
(/\\, \\/, +, *) parse into flattened n-ary nodes.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .rules import PROPAGATION, SIMPAGATION, SIMPLIFICATION, Program, Rule
from .terms import TRUE, App, Num, Term, Var, app


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # var | name | int | op
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<op>!==|<=>|==>|\\/|/\\|!=|<=|>=|[~\\@|.,()=<>+*])
    """,
    re.VERBOSE,
)

_BINOPS = {
    "\\/": 100,
    "/\\": 200,
    "=": 300,
    "!=": 300,
    "!==": 300,
    "<=": 300,
    "<": 300,
    ">=": 300,
    ">": 300,
    "+": 400,
    "*": 500,
}
_NONASSOC = {op for op, prec in _BINOPS.items() if prec == 300}


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("op", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    # terms

    def term(self, min_prec: int = 0) -> Term:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in _BINOPS:
                break
            prec = _BINOPS[tok.text]
            if prec < min_prec:
                break
            self.next()
            right = self.term(prec + 1)
            left = app(tok.text, (left, right))
            if tok.text in _NONASSOC:
                follow = self.peek()
                if follow is not None and follow.kind == "op" and follow.text in _NONASSOC:
                    raise ParseError(
                        f"comparison operators are non-associative ({follow.text!r} after {tok.text!r})",
                        follow.line,
                        follow.col,
                    )
        return left

    def unary(self) -> Term:
        if self.at("~"):
            self.next()
            return App("~", (self.unary(),))
        return self.atom()

    def atom(self) -> Term:
        tok = self.next()
        if tok.kind == "int":
            return Num(int(tok.text))
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind == "name":
            if self.at("("):
                self.next()
                args = [self.term()]
                while self.at(","):
                    self.next()
                    args.append(self.term())
                self.expect(")")
                return App(tok.text, tuple(args))
            return App(tok.text)
        if tok.text == "(":
            inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    # rules

    def rule(self, auto_name: str) -> Rule:
        tok = self.peek()
        name = auto_name
        if (
            tok is not None
            and tok.kind == "name"
            and self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1].text == "@"
        ):
            name = tok.text
            self.pos += 2
        head = self.term()
        cc_head: Term | None = None
        if self.at("\\"):
            self.next()
            cc_head, head = head, self.term()
        arrow = self.next()
        if arrow.text == "<=>":
            kind = SIMPAGATION if cc_head is not None else SIMPLIFICATION
        elif arrow.text == "==>":
            if cc_head is not None:
                raise ParseError("simpagation rules use <=>", arrow.line, arrow.col)
            kind = PROPAGATION
        else:
            raise ParseError(f"expected <=> or ==>, found {arrow.text!r}", arrow.line, arrow.col)
        guard, body = TRUE, self.term()
        if self.at("|"):
            self.next()
            guard, body = body, self.term()
        self.expect(".")
        try:
            return Rule(name=name, kind=kind, head=head, body=body, guard=guard, cc_head=cc_head)
        except ValueError as exc:
            raise ParseError(str(exc), arrow.line, arrow.col) from exc


def parse_term(src: str) -> Term:
    """Parse a single term; trailing input is an error."""
    parser = _Parser(tokenize(src))
    t = parser.term()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return t


def parse_program(src: str) -> Program:
    """Parse a program: '.'-terminated rules, '%' line comments."""
    parser = _Parser(tokenize(src))
    rules: list[Rule] = []
    names: set[str] = set()
    while parser.peek() is not None:
        rule = parser.rule(auto_name=f"rule_{len(rules) + 1}")
        if rule.name in names:
            tok = parser.tokens[parser.pos - 1]
            raise ParseError(f"duplicate rule name {rule.name}", tok.line, tok.col)
        names.add(rule.name)
        rules.append(rule)
    return Program(tuple(rules))
