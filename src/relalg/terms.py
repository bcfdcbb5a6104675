"""Relation-algebra terms: syntax, evaluation, random generation, closure.

A term is a tree over a fixed operation vocabulary applied to named relation
symbols, held as an interned DAG (see `Term`).  Concrete syntax (binding
from loosest to tightest):

    t <+ u   preferential union        t <# u   injective preferential union
    t | u    union
    t \\ u    difference                t & u    intersection
    t ; u    composition               t |> u   semijoin
    ~t       antidomain                -t       complement
    t^       converse (postfix)
    id  0  T  dom(t)  ran(t)  name  (t)

All infix operators associate to the left and the postfix converse binds
tighter than the prefix operators, so ~f^ reads as ~(f^).  The identifiers
``id``, ``T``, ``dom`` and ``ran`` are reserved and cannot name relation
symbols inside term text.

Each operation's semantics is defined once, as a bit-matrix kernel of
`structures.BulkOps`.  `eval_term` and `semantic_closure` run those kernels
on Python ints (one structure, any size) and `bulk.bulk_eval_term` runs them
on uint64 batches; relations are frozensets of pairs only where they enter
and leave.
"""

from __future__ import annotations

import random
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import TypeVar

from .parsing import ParseError, TokenStream, tokenize
from .structures import Relation, Structure, StructureError, _mask_pairs, int_ops

V = TypeVar("V")


class TermError(ValueError):
    """Malformed term or evaluation failure."""


ARITY: dict[str, int] = {
    "sym": 0,
    "id": 0,
    "empty": 0,
    "top": 0,
    "complement": 1,
    "converse": 1,
    "dom": 1,
    "ran": 1,
    "antidom": 1,
    "union": 2,
    "inter": 2,
    "diff": 2,
    "compose": 2,
    "semijoin": 2,
    "prefunion": 2,
    "injunion": 2,
}

# The fourteen catalogued operations, in the order the survey table lists
# them.  The injective preferential union is deliberately absent: it is a
# derived operation and only appears in the injective synthesis basis.
CATALOGUE: tuple[str, ...] = (
    "id",
    "empty",
    "top",
    "complement",
    "converse",
    "dom",
    "ran",
    "antidom",
    "union",
    "inter",
    "diff",
    "compose",
    "semijoin",
    "prefunion",
)

BASES: dict[str, frozenset[str]] = {
    "tra": frozenset({"id", "empty", "complement", "inter", "compose", "converse"}),
    "fa": frozenset(
        {
            "id",
            "empty",
            "dom",
            "ran",
            "antidom",
            "inter",
            "diff",
            "compose",
            "semijoin",
            "prefunion",
        }
    ),
    "homsafe": frozenset({"id", "empty", "top", "compose", "union", "inter", "converse"}),
    "forward": frozenset({"compose", "antidom", "inter", "prefunion"}),
    "injective": frozenset({"compose", "antidom", "inter", "converse", "injunion"}),
}


class Term:
    """Immutable, interned term node.

    Terms are hash-consed (Filliâtre and Conchon, *Type-safe modular
    hash-consing*, 2006): constructing a term returns the one live node with
    that operation, symbol name and arguments, so structurally equal terms
    are one object, equality is identity, and every builder shares common
    subterms.  The intern table holds nodes weakly, so a term nobody refers
    to is freed.  The hash is structural and precomputed, so it is cheap on
    terms nested hundreds of levels deep and equal for equal terms built at
    different times.  `_plan`, the evaluation order, is filled in on the
    first evaluation (see `evaluate`).
    """

    __slots__ = ("op", "args", "name", "_hash", "_plan", "__weakref__")

    def __new__(cls, op: str, args: Iterable["Term"] = (), name: str | None = None):
        args = tuple(args)
        arity = ARITY.get(op)
        if arity is None:
            raise TermError(f"unknown operation tag {op!r}")
        if len(args) != arity:
            raise TermError(f"operation {op!r} takes {arity} argument(s), got {len(args)}")
        if (op == "sym") != (name is not None):
            raise TermError("exactly the 'sym' operation carries a symbol name")
        for a in args:
            if not isinstance(a, Term):
                raise TermError(f"term arguments must be terms, got {type(a).__name__}")
        key = (op, name, args)
        node = _INTERNED.get(key)
        if node is None:
            if name is not None and not _is_symbol_name(name):
                raise TermError(
                    f"{name!r} cannot name a relation symbol: term text reads only"
                    " identifiers other than id, T, dom and ran"
                )
            node = object.__new__(cls)
            object.__setattr__(node, "op", op)
            object.__setattr__(node, "args", args)
            object.__setattr__(node, "name", name)
            object.__setattr__(
                node, "_hash", hash((op, name) + tuple(a._hash for a in args))
            )
            _INTERNED[key] = node
        return node

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Term instances are immutable")

    def __reduce__(self):
        # Pickling and copying rebuild through the constructor, which
        # returns the live node: a copy of a term is the term itself.
        return Term, (self.op, self.args, self.name)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Term({print_term(self)!r})"


# Every live term by (op, name, args); the arguments are themselves interned,
# so tuple equality on a key compares them by identity.
_INTERNED: "weakref.WeakValueDictionary[tuple, Term]" = weakref.WeakValueDictionary()


ID = Term("id")
EMPTY = Term("empty")
TOP = Term("top")


def sym(name: str) -> Term:
    return Term("sym", (), name)


def complement(t: Term) -> Term:
    return Term("complement", (t,))


def conv(t: Term) -> Term:
    return Term("converse", (t,))


def dom(t: Term) -> Term:
    return Term("dom", (t,))


def ran(t: Term) -> Term:
    return Term("ran", (t,))


def antidom(t: Term) -> Term:
    return Term("antidom", (t,))


def union(s: Term, t: Term) -> Term:
    return Term("union", (s, t))


def inter(s: Term, t: Term) -> Term:
    return Term("inter", (s, t))


def diff(s: Term, t: Term) -> Term:
    return Term("diff", (s, t))


def compose(s: Term, t: Term) -> Term:
    return Term("compose", (s, t))


def semijoin(s: Term, t: Term) -> Term:
    return Term("semijoin", (s, t))


def prefunion(s: Term, t: Term) -> Term:
    return Term("prefunion", (s, t))


def injunion(s: Term, t: Term) -> Term:
    return Term("injunion", (s, t))


def iter_nodes(t: Term) -> Iterator[Term]:
    """Every distinct subterm of t, once each, in DFS preorder."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(node.args))


def term_size(t: Term) -> int:
    """Number of nodes, counting shared subterms once per occurrence."""
    sizes: dict[int, int] = {}
    for node in _postorder(t):
        sizes[id(node)] = 1 + sum(sizes[id(a)] for a in node.args)
    return sizes[id(t)]


def term_ops(t: Term) -> frozenset[str]:
    return frozenset(node.op for node in iter_nodes(t) if node.op != "sym")


def term_signature(t: Term) -> tuple[str, ...]:
    return tuple(sorted({node.name for node in iter_nodes(t) if node.op == "sym"}))


def _postorder(t: Term) -> Iterator[Term]:
    """Distinct subterms in bottom-up order, children before parents."""
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for a in node.args:
            stack.append((a, False))


def _rebuild(t: Term, make: "callable") -> Term:
    """Bottom-up structural rewrite; `make(node, new_args)` builds each node."""
    out: dict[int, Term] = {}
    for node in _postorder(t):
        out[id(node)] = make(node, tuple(out[id(a)] for a in node.args))
    return out[id(t)]


def subst_syms(t: Term, mapping: Mapping[str, Term]) -> Term:
    def make(node: Term, args: tuple[Term, ...]) -> Term:
        if node.op == "sym" and node.name in mapping:
            return mapping[node.name]
        return Term(node.op, args, node.name)

    return _rebuild(t, make)


def expand_injunion(t: Term) -> Term:
    """Rewrite every injective preferential union into its defining term."""

    def make(node: Term, args: tuple[Term, ...]) -> Term:
        if node.op == "injunion":
            a, b = args
            return inter(prefunion(a, b), conv(prefunion(conv(a), conv(b))))
        return Term(node.op, args, node.name)

    return _rebuild(t, make)


# --- evaluation ---------------------------------------------------------------

def _plan(t: Term) -> tuple[tuple[str, str | None, tuple[int, ...], tuple[int, ...]], ...]:
    """t's distinct subterms, children first, as (op, symbol name, argument
    positions, positions whose last use this step is).

    Built on a term's first evaluation and kept on it: callers evaluate one
    term over many structures, often alternating two terms (the sides of
    an equivalence), and walking a large shared DAG costs about as much as
    evaluating it.
    """
    try:
        return t._plan
    except AttributeError:
        pass
    order = list(_postorder(t))
    position = {id(node): i for i, node in enumerate(order)}
    last_use = {position[id(a)]: i for i, node in enumerate(order) for a in node.args}
    freed: list[list[int]] = [[] for _ in order]
    for p, i in last_use.items():
        freed[i].append(p)
    plan = tuple(
        (node.op, node.name, tuple(position[id(a)] for a in node.args), tuple(freed[i]))
        for i, node in enumerate(order)
    )
    object.__setattr__(t, "_plan", plan)
    return plan


def evaluate(
    t: Term, leaves: Mapping[str, V], step: Callable[[str, list[V]], V]
) -> V:
    """The value of t from its symbols' values and one step per operation.

    `step(op, args)` computes a node from its children's values; both
    `eval_term` and `bulk.bulk_eval_term` pass the kernels of
    `structures.BulkOps`.  Iterative, so arbitrarily deep terms evaluate
    without touching the interpreter recursion limit, and each value is
    dropped once every parent has used it, so memory follows the term's
    nesting rather than its size.
    """
    values: list = []
    for op, name, args, freed in _plan(t):
        if name is None:
            value = step(op, [values[p] for p in args])
        else:
            value = leaves.get(name)
            if value is None:
                raise TermError(f"unknown relation symbol {name!r}")
        values.append(value)
        for p in freed:
            values[p] = None
    return values[-1]


def eval_term(t: Term, structure: Structure) -> Relation:
    """Evaluate t on a structure, on bit matrices held in Python ints."""
    domain = structure.domain
    value = evaluate(t, structure.masks, int_ops(len(domain)).value)
    return _mask_pairs(value, domain)


# --- concrete syntax ----------------------------------------------------------

_OPERATORS = ("<+", "<#", "|>", "\\", "|", "&", ";", "~", "-", "^", "(", ")")

_INFIX: dict[str, tuple[str, int]] = {
    "<+": ("prefunion", 1),
    "<#": ("injunion", 1),
    "|": ("union", 2),
    "\\": ("diff", 3),
    "&": ("inter", 3),
    ";": ("compose", 4),
    "|>": ("semijoin", 4),
}

_RESERVED = {"id", "T", "dom", "ran"}


def _is_symbol_name(name: object) -> bool:
    """Whether term text reads `name` back as a symbol: one name token, not
    a reserved one."""
    if not isinstance(name, str) or name in _RESERVED:
        return False
    try:
        tokens = [(t.kind, t.text) for t in tokenize(name, ())]
    except ParseError:
        return False
    return tokens == [("name", name), ("end", "")]


_PRECEDENCE: dict[str, int] = {
    "prefunion": 1,
    "injunion": 1,
    "union": 2,
    "diff": 3,
    "inter": 3,
    "compose": 4,
    "semijoin": 4,
    "antidom": 5,
    "complement": 5,
    "converse": 6,
    "sym": 7,
    "id": 7,
    "empty": 7,
    "top": 7,
    "dom": 7,
    "ran": 7,
}

_TOKEN_OF: dict[str, str] = {
    "prefunion": "<+",
    "injunion": "<#",
    "union": "|",
    "diff": "\\",
    "inter": "&",
    "compose": ";",
    "semijoin": "|>",
}


def _parse_expr(stream: TokenStream, min_prec: int = 1) -> Term:
    left = _parse_unary(stream)
    while True:
        tok = stream.peek()
        entry = _INFIX.get(tok.text) if tok.kind == "op" else None
        if entry is None or entry[1] < min_prec:
            return left
        stream.advance()
        right = _parse_expr(stream, entry[1] + 1)
        left = Term(entry[0], (left, right))


def _parse_unary(stream: TokenStream) -> Term:
    tok = stream.peek()
    if tok.kind == "op" and tok.text == "~":
        stream.advance()
        return antidom(_parse_unary(stream))
    if tok.kind == "op" and tok.text == "-":
        stream.advance()
        return complement(_parse_unary(stream))
    t = _parse_atom(stream)
    while stream.match("^"):
        t = conv(t)
    return t


def _parse_atom(stream: TokenStream) -> Term:
    tok = stream.peek()
    if tok.kind == "op" and tok.text == "(":
        stream.advance()
        inner = _parse_expr(stream)
        stream.expect(")")
        return inner
    if tok.kind == "int":
        if tok.text == "0":
            stream.advance()
            return EMPTY
        stream.fail(f"unexpected integer {tok.text!r}")
    if tok.kind == "name":
        stream.advance()
        if tok.text == "id":
            return ID
        if tok.text == "T":
            return TOP
        if tok.text in ("dom", "ran"):
            stream.expect("(")
            inner = _parse_expr(stream)
            stream.expect(")")
            return Term(tok.text, (inner,))
        return sym(tok.text)
    stream.fail(
        "expected a term, found "
        + ("end of input" if tok.kind == "end" else repr(tok.text))
    )


def parse_term(text: str) -> Term:
    stream = TokenStream(tokenize(text, _OPERATORS))
    t = _parse_expr(stream)
    stream.expect_end()
    return t


def print_term(t: Term) -> str:
    """Minimal-parenthesis rendering; parse_term(print_term(t)) is t."""
    rendered: dict[int, str] = {}
    for node in _postorder(t):
        p = _PRECEDENCE[node.op]
        if node.op == "sym":
            text = node.name or ""
        elif node.op == "id":
            text = "id"
        elif node.op == "empty":
            text = "0"
        elif node.op == "top":
            text = "T"
        elif node.op in ("dom", "ran"):
            text = f"{node.op}({rendered[id(node.args[0])]})"
        elif node.op == "converse":
            arg = node.args[0]
            body = rendered[id(arg)]
            if _PRECEDENCE[arg.op] < p:
                body = f"({body})"
            text = body + "^"
        elif node.op in ("antidom", "complement"):
            arg = node.args[0]
            body = rendered[id(arg)]
            if _PRECEDENCE[arg.op] < p:
                body = f"({body})"
            text = ("~" if node.op == "antidom" else "-") + body
        else:
            left, right = node.args
            ltext = rendered[id(left)]
            if _PRECEDENCE[left.op] < p:
                ltext = f"({ltext})"
            rtext = rendered[id(right)]
            if _PRECEDENCE[right.op] <= p:
                rtext = f"({rtext})"
            text = f"{ltext} {_TOKEN_OF[node.op]} {rtext}"
        rendered[id(node)] = text
    return rendered[id(t)]


def load_terms(path: str | Path) -> list[Term]:
    """Parse a term file: one term per line, '#' starts a comment."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_term(line))
        except ParseError as exc:
            raise ParseError(exc.message, line=lineno, column=exc.column) from None
    return out


# --- rewriting ----------------------------------------------------------------

def simplify_term(t: Term) -> Term:
    """Apply identities valid on every structure, bottom-up, one pass."""

    def make(node: Term, args: tuple[Term, ...]) -> Term:
        op = node.op
        if op == "inter":
            a, b = args
            if a == b:
                return a
            if a == TOP:
                return b
            if b == TOP:
                return a
            if a == EMPTY or b == EMPTY:
                return EMPTY
        elif op == "union":
            a, b = args
            if a == b:
                return a
            if a == EMPTY:
                return b
            if b == EMPTY:
                return a
        elif op == "compose":
            a, b = args
            if a == ID:
                return b
            if b == ID:
                return a
            if a == EMPTY or b == EMPTY:
                return EMPTY
        return Term(op, args, node.name)

    return _rebuild(t, make)


def normalize_fp(t: Term) -> Term:
    """Trim a term to the graph of a partial function.

    Pairs whose source also reaches somewhere via t;(T \\ id) are dropped,
    which erases exactly the sources related to two or more targets (or to
    a non-loop target alongside a loop).
    """
    return diff(t, compose(t, diff(TOP, ID)))


# --- random generation --------------------------------------------------------

_UNARY_ORDER = ("complement", "converse", "dom", "ran", "antidom")
_BINARY_ORDER = (
    "union",
    "inter",
    "diff",
    "compose",
    "semijoin",
    "prefunion",
    "injunion",
)
_CONSTANT_ORDER = ("id", "empty", "top")


def random_term(
    rng: random.Random, basis: Iterable[str], symbols: Sequence[str], size: int
) -> Term:
    """A pseudo-random term of exactly `size` nodes when the basis allows it."""
    ops = set(basis)
    leaves = [sym(s) for s in sorted(symbols)]
    leaves += [Term(c) for c in _CONSTANT_ORDER if c in ops]
    if not leaves:
        raise TermError("no symbols and no constants to build terms from")
    unary = [op for op in _UNARY_ORDER if op in ops]
    binary = [op for op in _BINARY_ORDER if op in ops]

    def build(n: int) -> Term:
        if n <= 1:
            return rng.choice(leaves)
        choices: list[str] = []
        if unary:
            choices.append("unary")
        if binary and n >= 3:
            choices.append("binary")
        if not choices:
            return rng.choice(leaves)
        if rng.choice(choices) == "unary":
            return Term(rng.choice(unary), (build(n - 1),))
        op = rng.choice(binary)
        left = rng.randrange(1, n - 1)
        return Term(op, (build(left), build(n - 1 - left)))

    return build(size)


# --- semantic closure ---------------------------------------------------------

class ClosureResult:
    """Outcome of a semantic closure run.

    `masks` maps each reachable denotation, a bit mask over `domain` (see
    `structures.BulkOps`), to the first witnessing term found, in discovery
    order.  `relations` (denotation to witness) and `order` (denotations in
    discovery order) are the same as frozensets of pairs, decoded on first
    read.  `complete` is False when the evaluation budget ran out before the
    fixpoint was confirmed; `evaluations` counts every operation
    application up to the budget, plus the one that found it spent.
    """

    def __init__(
        self,
        domain: tuple[str, ...],
        masks: dict[int, Term],
        complete: bool,
        evaluations: int,
    ):
        self.domain = domain
        self.masks = masks
        self.complete = complete
        self.evaluations = evaluations

    @cached_property
    def relations(self) -> dict[Relation, Term]:
        return {_mask_pairs(mask, self.domain): t for mask, t in self.masks.items()}

    @property
    def order(self) -> list[Relation]:
        return list(self.relations)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, rel: Relation) -> bool:
        return frozenset(rel) in self.relations


def semantic_closure(
    structure: Structure,
    basis: Iterable[str],
    symbols: Sequence[str] | None = None,
    budget: int = 100_000,
) -> ClosureResult:
    """All relations denotable over the basis from the named generators.

    Works over denotations rather than terms: a term's value is a function
    of its children's values, so iterating every operation over every tuple
    of already-reached denotations until nothing new appears computes the
    full term-definable family.  Terminates because the structure is finite.
    Each round applies the unary operations, then the binary ones over the
    round's snapshot, a-major (`structures.BulkOps.grid`); denotations stay
    bit masks, and the result decodes them only when read as relations.  A
    basis entry that is not an operation, or a negative budget, raises
    `TermError`.
    """
    ops = set(basis)
    unknown = sorted(ops - (ARITY.keys() - {"sym"}))
    if unknown:
        raise TermError(f"unknown operations in basis: {', '.join(map(repr, unknown))}")
    if budget < 0:
        raise TermError(f"closure budget must be at least 0, got {budget}")
    if symbols is None:
        symbols = structure.signature
    kernels = int_ops(len(structure.domain))
    known: dict[int, Term] = {}
    for name in sorted(symbols):
        if name not in structure.masks:
            raise StructureError(f"unknown relation symbol {name!r}")
        known.setdefault(structure.masks[name], sym(name))
    for c in _CONSTANT_ORDER:
        if c in ops:
            known.setdefault(kernels.constants[c], Term(c))

    evaluations = 0
    operations = [op for op in _UNARY_ORDER + _BINARY_ORDER if op in ops]
    while True:
        before = len(known)
        snapshot = list(known)
        n = len(snapshot)
        for op in operations:
            unary = ARITY[op] == 1
            total = n if unary else n * n
            take = max(0, min(total, budget - evaluations))
            values = map(getattr(kernels, op), snapshot) if unary else kernels.grid(op, snapshot)
            for p, mask in enumerate(islice(values, take)):
                # Most evaluations reach a known denotation; only a new one
                # gets a witness term.
                if mask not in known:
                    args = (p,) if unary else divmod(p, n)
                    known[mask] = Term(op, [known[snapshot[i]] for i in args])
            evaluations += take
            if take < total:
                # The evaluation that finds the budget spent counts too.
                return ClosureResult(structure.domain, known, False, evaluations + 1)
        if len(known) == before:
            return ClosureResult(structure.domain, known, True, evaluations)
