"""First-order formulas over binary-relation signatures.

Syntax (binding from loosest to tightest):

    a -> b            implication, right associative
    a | b             disjunction
    a & b             conjunction
    !a                negation
    exists v. a       quantifiers swallow everything up to the enclosing
    forall v. a       closing parenthesis or the end of the input
    R(x,y)  x=y  true  false  (a)

Formulas are plain immutable trees.  `eval_formula` is the direct Tarskian
truth definition, kept as the independent oracle.  `formula_tensor` is the
one formula-table evaluator: it computes phi's satisfying assignments over
a batch of structures as a table of uint64 words, 64 structures per word,
one axis per free variable, which stays polynomial in the structure instead
of exponential in quantifier depth.  `define_relation` runs it on one
structure and `bulk.bulk_eval_formula` on a batch of bit masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping

import numpy as np

from .parsing import TokenStream, tokenize
from .structures import Relation, Structure
from . import terms as tm


class LogicError(ValueError):
    """Malformed formula or an evaluation request it cannot satisfy."""


class Formula:
    """Base class; concrete nodes are the dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    left: str
    right: str


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Truth(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


TRUE = Truth(True)
FALSE = Truth(False)


# free_vars, classify and formula_tensor walk formulas on explicit stacks, so
# that formulas thousands of levels deep do not exhaust the recursion limit.
def _children(node: Formula) -> tuple[Formula, ...]:
    if isinstance(node, (Not, Exists, Forall)):
        return (node.body,)
    if isinstance(node, (And, Or, Implies)):
        return (node.left, node.right)
    return ()


def free_vars(phi: Formula) -> frozenset[str]:
    free: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(phi, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, (Atom, Eq)):
            free.update({node.left, node.right} - bound)
        elif isinstance(node, (Exists, Forall)):
            stack.append((node.body, bound | {node.var}))
        elif isinstance(node, (Not, And, Or, Implies)):
            stack.extend((child, bound) for child in _children(node))
        elif not isinstance(node, Truth):
            raise LogicError(f"not a formula node: {node!r}")
    return frozenset(free)


@dataclass(frozen=True)
class FormulaInfo:
    variables: frozenset[str]
    variable_count: int
    free: frozenset[str]
    symbols: tuple[str, ...]
    is_posex: bool


def classify(phi: Formula) -> FormulaInfo:
    """Variable usage, signature, and positive-existential status."""
    names: set[str] = set()
    symbols: set[str] = set()
    posex = True
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.update((node.left, node.right))
            symbols.add(node.rel)
        elif isinstance(node, Eq):
            names.update((node.left, node.right))
        elif isinstance(node, (Exists, Forall)):
            names.add(node.var)
        elif not isinstance(node, (Truth, Not, And, Or, Implies)):
            raise LogicError(f"not a formula node: {node!r}")
        if isinstance(node, (Not, Implies, Forall)):
            posex = False
        stack.extend(_children(node))
    return FormulaInfo(
        variables=frozenset(names),
        variable_count=len(names),
        free=free_vars(phi),
        symbols=tuple(sorted(symbols)),
        is_posex=posex,
    )


# --- direct evaluation ---------------------------------------------------------

def eval_formula(
    phi: Formula, structure: Structure, assignment: Mapping[str, str] | None = None
) -> bool:
    env = dict(assignment or {})
    for v in free_vars(phi):
        if v not in env:
            raise LogicError(f"free variable {v!r} has no assigned element")

    def ev(node: Formula, env: dict[str, str]) -> bool:
        if isinstance(node, Atom):
            return (env[node.left], env[node.right]) in structure.rel(node.rel)
        if isinstance(node, Eq):
            return env[node.left] == env[node.right]
        if isinstance(node, Truth):
            return node.value
        if isinstance(node, Not):
            return not ev(node.body, env)
        if isinstance(node, And):
            return ev(node.left, env) and ev(node.right, env)
        if isinstance(node, Or):
            return ev(node.left, env) or ev(node.right, env)
        if isinstance(node, Implies):
            return (not ev(node.left, env)) or ev(node.right, env)
        if isinstance(node, Exists):
            return any(ev(node.body, {**env, node.var: d}) for d in structure.domain)
        if isinstance(node, Forall):
            return all(ev(node.body, {**env, node.var: d}) for d in structure.domain)
        raise LogicError(f"not a formula node: {node!r}")

    return ev(phi, env)


# --- formula tables ---------------------------------------------------------------

_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _lift(
    tensor: np.ndarray, have: tuple[str, ...], want: tuple[str, ...], k: int
) -> np.ndarray:
    """Give a table over the sorted variables `have` a unit axis for each
    variable of the sorted superset `want` that it lacks."""
    if have == want:
        return tensor
    return tensor.reshape(tensor.shape[:1] + tuple(k if v in have else 1 for v in want))


def align_variables(
    tensor: np.ndarray, have: tuple[str, ...], want: tuple[str, ...], k: int
) -> np.ndarray:
    """Broadcast a table over the sorted variables `have` to the sorted superset `want`."""
    if have == want:
        return tensor
    full = tensor.shape[:1] + (k,) * len(want)
    return np.broadcast_to(_lift(tensor, have, want, k), full)


def formula_tensor(
    phi: Formula, k: int, words: int, atom: Callable[[str], np.ndarray]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Truth table of phi over a batch of structures with domain size k.

    The batch is bit-sliced into uint64 words, 64 structures per word: bit s
    of word w is structure 64 * w + s.  `atom(name)` returns the
    (words, k, k) uint64 table of a relation symbol.  The result is phi's
    free variables, sorted, and a uint64 array of shape
    (words,) + (k,) * len(variables) indexed by their values.  Negation sets
    the bits past the end of the batch too, so a caller reads only the bits
    of its own structures.
    """
    atoms: dict[str, np.ndarray] = {}

    def base(name: str) -> np.ndarray:
        table = atoms.get(name)
        if table is None:
            table = atoms[name] = atom(name)
        return table

    def leaf(node: Formula) -> tuple[tuple[str, ...], np.ndarray]:
        if isinstance(node, Atom):
            table = base(node.rel)
            if node.left == node.right:
                return (node.left,), table[:, np.arange(k), np.arange(k)]
            variables = tuple(sorted((node.left, node.right)))
            if variables == (node.left, node.right):
                return variables, table
            return variables, np.swapaxes(table, 1, 2)
        if isinstance(node, Eq):
            if node.left == node.right:
                return (node.left,), np.full((words, k), _ONES)
            variables = tuple(sorted((node.left, node.right)))
            diagonal = np.where(np.eye(k, dtype=bool), _ONES, np.uint64(0))
            return variables, np.broadcast_to(diagonal, (words, k, k))
        if isinstance(node, Truth):
            return (), np.full(words, _ONES if node.value else 0, dtype=np.uint64)
        raise LogicError(f"not a formula node: {node!r}")

    def combine(
        node: Formula, args: list[tuple[tuple[str, ...], np.ndarray]]
    ) -> tuple[tuple[str, ...], np.ndarray]:
        if isinstance(node, Not):
            variables, tensor = args[0]
            return variables, ~tensor
        if isinstance(node, (And, Or, Implies)):
            (lvars, ltensor), (rvars, rtensor) = args
            # Every variable has a full axis on one side, so numpy's
            # broadcasting yields full tables.
            variables = tuple(sorted(set(lvars) | set(rvars)))
            ltensor = _lift(ltensor, lvars, variables, k)
            rtensor = _lift(rtensor, rvars, variables, k)
            if isinstance(node, And):
                return variables, ltensor & rtensor
            if isinstance(node, Or):
                return variables, ltensor | rtensor
            return variables, ~ltensor | rtensor
        bvars, tensor = args[0]
        if node.var not in bvars:
            # A vacuous quantifier still ranges over the domain, so on an
            # empty domain exists is false and forall is true.
            wider = tuple(sorted(bvars + (node.var,)))
            tensor = align_variables(tensor, bvars, wider, k)
            bvars = wider
        axis = 1 + bvars.index(node.var)
        keep = tuple(v for v in bvars if v != node.var)
        if isinstance(node, Exists):
            return keep, np.bitwise_or.reduce(tensor, axis=axis)
        return keep, np.bitwise_and.reduce(tensor, axis=axis)

    values: list[tuple[tuple[str, ...], np.ndarray]] = []
    todo: list[tuple[Formula, bool]] = [(phi, False)]
    while todo:
        node, expanded = todo.pop()
        children = _children(node)
        if not children:
            values.append(leaf(node))
        elif not expanded:
            todo.append((node, True))
            todo.extend((child, False) for child in reversed(children))
        else:
            args = values[-len(children):]
            del values[-len(children):]
            values.append(combine(node, args))
    return values[0]


def define_relation(
    phi: Formula,
    x: str,
    y: str,
    structure: Structure,
    pad_missing: bool = False,
) -> Relation:
    """The binary relation {(a, b) : phi holds with x = a, y = b}.

    By default the formula's free variables must be exactly the requested
    pair (or the single variable when x == y); `pad_missing` instead leaves
    an unused requested variable unconstrained.
    """
    fv = free_vars(phi)
    wanted = {x, y}
    if not fv <= wanted:
        raise LogicError(
            f"free variables {sorted(fv)} are not within the requested pair "
            f"({x!r}, {y!r})"
        )
    if fv != wanted and not pad_missing:
        raise LogicError(
            f"free variables {sorted(fv)} do not cover the requested pair "
            f"({x!r}, {y!r}); pass pad_missing=True to allow this"
        )
    dom = structure.domain
    k = len(dom)
    position = {d: i for i, d in enumerate(dom)}

    def atom(name: str) -> np.ndarray:
        table = np.zeros((1, k, k), dtype=np.uint64)
        pairs = structure.rel(name)
        if pairs:
            rows, cols = zip(*((position[a], position[b]) for a, b in pairs))
            table[0, rows, cols] = 1
        return table

    # One word whose bit 0 is the structure; the other 63 bits are padding.
    variables, tensor = formula_tensor(phi, k, 1, atom)
    if x == y:
        column = align_variables(tensor, variables, (x,), k)[0] & 1
        return frozenset((dom[i], dom[i]) for i in np.flatnonzero(column))
    target = tuple(sorted((x, y)))
    table = align_variables(tensor, variables, target, k)[0] & 1
    if target != (x, y):
        table = table.T
    return frozenset((dom[i], dom[j]) for i, j in zip(*np.nonzero(table)))


# --- terms as three-variable formulas -------------------------------------------

_FO3_VARS = ("x", "y", "z")


def _third(u: str, v: str) -> str:
    for w in _FO3_VARS:
        if w != u and w != v:
            return w
    raise LogicError("no spare variable available")


def _pad(u: str, v: str) -> Formula:
    return And(Eq(u, u), Eq(v, v))


def term_to_fo3(t: tm.Term) -> Formula:
    """A three-variable formula, free in x and y, equivalent to the term.

    Uses only the variable names x, y, z, rebinding the spare name as
    composition chains demand.  The output is positive-existential exactly
    when the term avoids complement, antidomain, difference and the
    preferential unions.
    """
    def build(node: tm.Term, u: str, v: str) -> Formula:
        op = node.op
        if op == "sym":
            return Atom(node.name or "", u, v)
        if op == "id":
            return Eq(u, v)
        if op == "empty":
            return And(_pad(u, v), FALSE)
        if op == "top":
            return _pad(u, v)
        if op == "complement":
            return Not(build(node.args[0], u, v))
        if op == "converse":
            return build(node.args[0], v, u)
        if op == "dom":
            w = _third(u, v)
            return And(Eq(u, v), Exists(w, build(node.args[0], u, w)))
        if op == "ran":
            w = _third(u, v)
            return And(Eq(u, v), Exists(w, build(node.args[0], w, u)))
        if op == "antidom":
            w = _third(u, v)
            return And(Eq(u, v), Not(Exists(w, build(node.args[0], u, w))))
        if op == "union":
            return Or(build(node.args[0], u, v), build(node.args[1], u, v))
        if op == "inter":
            return And(build(node.args[0], u, v), build(node.args[1], u, v))
        if op == "diff":
            return And(build(node.args[0], u, v), Not(build(node.args[1], u, v)))
        if op == "compose":
            w = _third(u, v)
            return Exists(
                w, And(build(node.args[0], u, w), build(node.args[1], w, v))
            )
        if op == "semijoin":
            w = _third(u, v)
            return And(
                build(node.args[0], u, v),
                Exists(w, build(node.args[1], v, w)),
            )
        if op == "prefunion":
            w = _third(u, v)
            return Or(
                build(node.args[0], u, v),
                And(
                    build(node.args[1], u, v),
                    Not(Exists(w, build(node.args[0], u, w))),
                ),
            )
        if op == "injunion":
            return build(tm.expand_injunion(node), u, v)
        raise LogicError(f"term has no formula translation: {op!r}")

    return build(t, "x", "y")


# --- concrete syntax -------------------------------------------------------------

_OPERATORS = ("->", "!", "&", "|", "(", ")", ",", "=", ".")


def _parse_implies(stream: TokenStream) -> Formula:
    left = _parse_or(stream)
    if stream.match("->"):
        return Implies(left, _parse_implies(stream))
    return left


def _parse_or(stream: TokenStream) -> Formula:
    left = _parse_and(stream)
    while stream.match("|"):
        left = Or(left, _parse_and(stream))
    return left


def _parse_and(stream: TokenStream) -> Formula:
    left = _parse_unary(stream)
    while stream.match("&"):
        left = And(left, _parse_unary(stream))
    return left


def _parse_unary(stream: TokenStream) -> Formula:
    tok = stream.peek()
    if tok.kind == "op" and tok.text == "!":
        stream.advance()
        return Not(_parse_unary(stream))
    if tok.kind == "name" and tok.text in ("exists", "forall"):
        stream.advance()
        var = stream.expect_name("variable name")
        stream.expect(".")
        body = _parse_implies(stream)
        return Exists(var, body) if tok.text == "exists" else Forall(var, body)
    return _parse_atom(stream)


def _parse_atom(stream: TokenStream) -> Formula:
    tok = stream.peek()
    if tok.kind == "op" and tok.text == "(":
        stream.advance()
        inner = _parse_implies(stream)
        stream.expect(")")
        return inner
    if tok.kind == "name":
        if tok.text == "true":
            stream.advance()
            return TRUE
        if tok.text == "false":
            stream.advance()
            return FALSE
        stream.advance()
        nxt = stream.peek()
        if nxt.kind == "op" and nxt.text == "(":
            stream.advance()
            left = stream.expect_name("variable name")
            stream.expect(",")
            right = stream.expect_name("variable name")
            stream.expect(")")
            return Atom(tok.text, left, right)
        if nxt.kind == "op" and nxt.text == "=":
            stream.advance()
            right = stream.expect_name("variable name")
            return Eq(tok.text, right)
        stream.fail(f"expected '(' or '=' after {tok.text!r}")
    stream.fail(
        "expected a formula, found "
        + ("end of input" if tok.kind == "end" else repr(tok.text))
    )


def parse_formula(text: str) -> Formula:
    stream = TokenStream(tokenize(text, _OPERATORS))
    phi = _parse_implies(stream)
    stream.expect_end()
    return phi


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula inverts it."""

    def prec(node: Formula) -> int:
        if isinstance(node, Implies):
            return 1
        if isinstance(node, Or):
            return 2
        if isinstance(node, And):
            return 3
        if isinstance(node, Not):
            return 4
        return 5

    def wrap(node: Formula, text: str, parent_prec: int, strict: bool) -> str:
        # Quantifiers swallow to the end of the input or enclosing
        # parenthesis, so as a child of any connective they need parens.
        if isinstance(node, (Exists, Forall)):
            return f"({text})"
        p = prec(node)
        if p < parent_prec or (strict and p == parent_prec):
            return f"({text})"
        return text

    def go(node: Formula) -> str:
        if isinstance(node, Atom):
            return f"{node.rel}({node.left},{node.right})"
        if isinstance(node, Eq):
            return f"{node.left}={node.right}"
        if isinstance(node, Truth):
            return "true" if node.value else "false"
        if isinstance(node, Not):
            return "!" + wrap(node.body, go(node.body), 4, False)
        if isinstance(node, And):
            return (
                wrap(node.left, go(node.left), 3, False)
                + " & "
                + wrap(node.right, go(node.right), 3, True)
            )
        if isinstance(node, Or):
            return (
                wrap(node.left, go(node.left), 2, False)
                + " | "
                + wrap(node.right, go(node.right), 2, True)
            )
        if isinstance(node, Implies):
            return (
                wrap(node.left, go(node.left), 1, True)
                + " -> "
                + wrap(node.right, go(node.right), 1, False)
            )
        if isinstance(node, Exists):
            return f"exists {node.var}. {go(node.body)}"
        if isinstance(node, Forall):
            return f"forall {node.var}. {go(node.body)}"
        raise LogicError(f"not a formula node: {node!r}")

    return go(phi)
