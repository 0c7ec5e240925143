"""Term representation: terms and their identifiers, positions, head keys,
AC keys and canonical forms, and conjunctive contexts.

Terms are immutable. Operators in AC_FUNCTORS are kept flattened: an AC node
never has a direct child with the same functor and always has at least two
children. Every node has an `id` field. A term is annotated when every node
has its `id` set, and identifiers within a goal are pairwise distinct;
patterns, rule bodies and stripped goals leave it None. So a plain node and
its annotated copy are unequal, their identifiers differing.
"""

from __future__ import annotations

from dataclasses import dataclass


class PositionError(ValueError):
    """Raised when a position does not address a subterm."""


@dataclass(frozen=True)
class Var:
    name: str
    id: int | None = None


@dataclass(frozen=True)
class Num:
    value: int
    id: int | None = None


@dataclass(frozen=True)
class App:
    functor: str
    args: tuple["Term", ...] = ()
    id: int | None = None


Term = Var | Num | App

# The old name of an annotated compound, kept only because the benchmark's
# tracer (bench/tracer.py) imports it; it goes when the tracer uses App.
AApp = App

AND = "/\\"
OR = "\\/"
AC_FUNCTORS = frozenset({AND, OR, "+", "*"})

TRUE = App("true")


def app(functor: str, args=(), id: int | None = None) -> Term:
    """Build a compound term with identifier id, flattening AC operators.

    For an AC functor, children with the same functor are spliced in and a
    single-child node collapses to that child.
    """
    if not functor:
        raise ValueError("empty functor")
    args = tuple(args)
    if functor not in AC_FUNCTORS:
        return App(functor, args, id)
    flat = []
    stack = list(reversed(args))
    while stack:
        a = stack.pop()
        if isinstance(a, App) and a.functor == functor:
            stack.extend(reversed(a.args))
        else:
            flat.append(a)
    if not flat:
        raise ValueError(f"AC operator {functor!r} needs at least one operand")
    if len(flat) == 1:
        return flat[0]
    return App(functor, tuple(flat), id)


# --- annotated terms -------------------------------------------------------


def strip(t: Term) -> Term:
    """Drop identifiers, returning the plain term."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Num):
        return Num(t.value)
    return App(t.functor, tuple(strip(a) for a in t.args))


def ids_of(t: Term) -> frozenset[int]:
    """All identifiers occurring in an annotated term."""
    out: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        out.add(node.id)
        if isinstance(node, App):
            stack.extend(node.args)
    return frozenset(out)


def annotate(used, t: Term) -> Term:
    """Annotate every node of t with a fresh identifier not in `used`.

    `used` may be a collection of identifiers or an integer high-water mark;
    fresh identifiers are allocated in ascending postorder.
    """
    start = used if isinstance(used, int) else max(used, default=-1) + 1
    return annotate_from(t, start)[0]


def annotate_from(t: Term, next_id: int) -> tuple[Term, int]:
    """Annotate t with identifiers next_id, next_id+1, ... in postorder."""
    if isinstance(t, Var):
        return Var(t.name, next_id), next_id + 1
    if isinstance(t, Num):
        return Num(t.value, next_id), next_id + 1
    args = []
    for a in t.args:
        aa, next_id = annotate_from(a, next_id)
        args.append(aa)
    return App(t.functor, tuple(args), next_id), next_id + 1


# --- positions -------------------------------------------------------------

Position = tuple[int, ...]


def _children(t):
    if isinstance(t, App):
        return t.args
    return ()


def _child(t, i: int):
    """Child i (1-based) of t; PositionError when t has no such child."""
    args = _children(t)
    if not 1 <= i <= len(args):
        raise PositionError(f"invalid position index {i} (node has {len(args)} children)")
    return args[i - 1]


def subterm_at(t, p: Position):
    """Subterm at position p (1-based child indices; () is the whole term)."""
    cur = t
    for i in p:
        cur = _child(cur, i)
    return cur


def replace_at(t, s, p: Position):
    """Replace the subterm of t at position p with s.

    Ancestor nodes keep their identity (and identifiers, when annotated);
    AC nodes are re-flattened when the replacement shares their functor.
    """
    if not p:
        return s
    i = p[0]
    child = replace_at(_child(t, i), s, p[1:])
    new_args = list(t.args)
    new_args[i - 1] = child
    return app(t.functor, new_args, t.id)


def subterms(t) -> list[tuple[Position, object]]:
    """The (position, subterm) pairs of t in preorder; ((), t) is always first."""
    out: list[tuple[Position, object]] = []
    # children pushed last to first, so they are popped in node order
    stack = [((), t)]
    while stack:
        pair = stack.pop()
        out.append(pair)
        path, node = pair
        args = _children(node)
        for i in range(len(args), 0, -1):
            stack.append((path + (i,), args[i - 1]))
    return out


def vars_of(t) -> frozenset[str]:
    """Names of all variables occurring in a term (plain or annotated)."""
    out: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        else:
            stack.extend(_children(node))
    return frozenset(out)


def size(t) -> int:
    """Number of symbols, counted on the unflattened binary AC form.

    An n-ary AC node contributes n-1 binary operator symbols.
    """
    if isinstance(t, (Var, Num)):
        return 1
    n = sum(size(a) for a in t.args)
    if t.functor in AC_FUNCTORS:
        return n + len(t.args) - 1
    return n + 1


# --- AC keys and canonical form --------------------------------------------


def ac_key(t) -> tuple:
    """Total-order key of t's AC congruence class (plain or annotated t).

    (0, name) for a variable, (1, value) for a number and
    (2, functor, n, child keys) for an application, where the children of
    an AC node are flattened (tolerating non-flattened input) and their keys
    sorted. Two terms are AC-equal iff their keys are equal.
    """
    if isinstance(t, Var):
        return (0, t.name)
    if isinstance(t, Num):
        return (1, t.value)
    f = t.functor
    if f not in AC_FUNCTORS:
        return (2, f, len(t.args), tuple(map(ac_key, t.args)))
    keys: list[tuple] = []
    stack = list(t.args)
    while stack:
        a = stack.pop()
        if isinstance(a, App) and a.functor == f:
            stack.extend(a.args)
        else:
            keys.append(ac_key(a))
    keys.sort()
    return (2, f, len(keys), tuple(keys))


def _head(t: Term):
    """A key on which a non-variable pattern and a subject agree exactly when
    their head symbols fit: a number's value, an AC node's functor, and
    functor and arity for any other node (None for a variable)."""
    if isinstance(t, App):
        return t.functor if t.functor in AC_FUNCTORS else (t.functor, len(t.args))
    if isinstance(t, Num):
        return t.value
    return None


def _from_key(k: tuple) -> Term:
    if k[0] == 0:
        return Var(k[1])
    if k[0] == 1:
        return Num(k[1])
    return App(k[1], tuple(map(_from_key, k[3])))


def canonical(t) -> Term:
    """Canonical plain representative of t's AC congruence class: AC nodes
    flattened and their children in ac_key order."""
    return _from_key(ac_key(t))


def ac_equal(t1, t2) -> bool:
    """Equality modulo associativity and commutativity of the AC operators."""
    return ac_key(t1) == ac_key(t2)


# --- conjunctive context ---------------------------------------------------

# The implicit `true` that ends every conjunctive context; it is no goal node.
_CONTEXT_END = App("true", (), -1)


def conjunctive_context(g, p: Position, selected: tuple[int, ...] | None) -> tuple:
    """The conjunctive context of a focus, as a tuple (multiset) of subterms.

    The focus is the node at position p, or, with `selected` (1-based child
    indices, ascending), those children of it. Descending through a
    conjunction adds all sibling conjuncts; any other functor passes the
    context through unchanged. When the focus is selected children of a
    conjunction, the unselected children follow in node order; under any
    other AC functor they are not in the context. The empty context (at the
    root, or under non-conjunctive functors only) is the empty tuple.
    """
    out = []
    cur = g
    for i in p:
        child = _child(cur, i)
        if cur.functor == AND:
            out.extend(a for j, a in enumerate(cur.args, start=1) if j != i)
        cur = child
    if selected is not None and cur.functor == AND:
        out.extend(a for j, a in enumerate(cur.args, start=1) if j not in selected)
    return tuple(out)
