"""Synthesising terms from black-box oracles over function structures.

The object in the middle is a word type: starting from an element, follow
letters (a letter is a relation symbol, optionally inverted) for at most
`radius` steps; the type records which letter words exist and which of them
land on the same element.  Because every relation in scope is a partial
function (injective when inverted letters are in play), following a word is
deterministic and the type is a finite quotient automaton with a canonical
breadth-first numbering.

Synthesis enumerates all abstract types of the given radius and asks the
oracle about a minimal realization of each, and about the realization's
ball-preserving extensions, to catch oracles that look further than the
radius allows.  A term oracle is probed in per-size batches: the probes
of a chunk of types on at most eight elements run as one uint64 batch per
size through `bulk.bulk_eval_term`, on masks built straight from the
realizations' edges, and larger ones one at a time on Python ints.  A
callable oracle gets each named structure, one at a time and in order.
The answers become a reduced ordered decision diagram (Bryant, 1986) over
one atom table, the existence of each word and the equality of each pair
of words' endpoints: a set of types that one word answers is a leaf, and
any other set splits on its first separating atom.  The diagram is a term
over the paper's bases, composition, antidomain, intersection and
preferential union (converse and the injective union when oriented), and
`characteristic_term` reads the same atom table.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import bulk, terms as tm
from .checkers import Bounds, EquivalenceReport, equivalence_report
from .structures import (
    MAX_BULK_SIZE,
    Relation,
    Structure,
    StructureClass,
    batch_ops,
    int_ops,
    structure_to_json,
)

Letter = tuple[str, bool]  # (symbol, inverted)


class SynthesisError(ValueError):
    """The oracle or the requested radius cannot support synthesis."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


def type_letters(symbols: Sequence[str], oriented: bool) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for s in sorted(symbols):
        out.append((s, False))
        if oriented:
            out.append((s, True))
    return tuple(out)


@dataclass(frozen=True)
class NeighborhoodType:
    """Canonical word-type automaton.

    Node 0 is the class of the empty word.  `rows[i]` is None exactly when
    node i sits at the frontier depth (its outgoing words would exceed the
    radius); otherwise it maps each letter to a node index or None for a
    missing edge.  `words[i]` is the breadth-first discovery word of node i
    as letter indices.
    """

    symbols: tuple[str, ...]
    oriented: bool
    radius: int
    depths: tuple[int, ...]
    rows: tuple[tuple[int | None, ...] | None, ...]
    words: tuple[tuple[int, ...], ...]

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        return type_letters(self.symbols, self.oriented)

    def node_count(self) -> int:
        return len(self.depths)


def _class_check(structure: Structure, oriented: bool) -> None:
    if oriented:
        cls, kind = StructureClass.INJECTIVE_PARTIAL_FUNCTIONS, "an injective partial function"
    else:
        cls, kind = StructureClass.PARTIAL_FUNCTIONS, "a partial function"
    for name, mask in structure.masks.items():
        if not cls.contains(mask, structure.size()):
            raise SynthesisError(f"relation {name!r} is not {kind}")


def neighborhood_type(
    structure: Structure, root: str, radius: int, oriented: bool = False
) -> NeighborhoodType:
    """The word type of (structure, root) at the given radius."""
    _class_check(structure, oriented)
    if root not in set(structure.domain):
        raise SynthesisError(f"element not in domain: {root!r}")
    symbols = structure.signature
    letters = type_letters(symbols, oriented)
    succ: dict[str, dict[str, str]] = {s: {} for s in symbols}
    pred: dict[str, dict[str, str]] = {s: {} for s in symbols}
    for s in symbols:
        for a, b in structure.relations[s]:
            succ[s][a] = b
            pred[s][b] = a

    index: dict[str, int] = {root: 0}
    elements = [root]
    depths = [0]
    words: list[tuple[int, ...]] = [()]
    rows: list[tuple[int | None, ...] | None] = []
    i = 0
    while i < len(elements):
        e = elements[i]
        if depths[i] == radius:
            rows.append(None)
            i += 1
            continue
        row: list[int | None] = []
        for j, (s, inv) in enumerate(letters):
            target = pred[s].get(e) if inv else succ[s].get(e)
            if target is None:
                row.append(None)
                continue
            if target not in index:
                index[target] = len(elements)
                elements.append(target)
                depths.append(depths[i] + 1)
                words.append(words[i] + (j,))
            row.append(index[target])
        rows.append(tuple(row))
        i += 1
    return NeighborhoodType(
        tuple(symbols), oriented, radius, tuple(depths), tuple(rows), tuple(words)
    )


# --- abstract type enumeration ------------------------------------------------------

class _TypeBuilder:
    """Slot-by-slot construction state; cheap to copy at branch points."""

    def __init__(self, symbols: tuple[str, ...], oriented: bool, radius: int):
        self.symbols = symbols
        self.oriented = oriented
        self.radius = radius
        self.letters = type_letters(symbols, oriented)
        self.depths: list[int] = [0]
        self.words: list[tuple[int, ...]] = [()]
        # Committed slots: a node index, or None for a missing edge.
        self.slots: dict[tuple[int, int], int | None] = {}
        # Edges of the eventual realization per symbol, source to target and
        # back; None marks a slot committed to a missing edge.
        self.fwd: dict[str, dict[int, int | None]] = {s: {} for s in symbols}
        self.bwd: dict[str, dict[int, int | None]] = {s: {} for s in symbols}

    def copy(self) -> "_TypeBuilder":
        dup = _TypeBuilder.__new__(_TypeBuilder)
        dup.symbols = self.symbols
        dup.oriented = self.oriented
        dup.radius = self.radius
        dup.letters = self.letters
        dup.depths = list(self.depths)
        dup.words = list(self.words)
        dup.slots = dict(self.slots)
        dup.fwd = {s: dict(m) for s, m in self.fwd.items()}
        dup.bwd = {s: dict(m) for s, m in self.bwd.items()}
        return dup

    def has_row(self, node: int) -> bool:
        return self.depths[node] < self.radius

    def _force(self, node: int, letter: int, value: int) -> bool:
        slot = (node, letter)
        if slot in self.slots:
            return self.slots[slot] == value
        self.slots[slot] = value
        return True

    def assign(self, node: int, letter_idx: int, value: int | str | None) -> bool:
        """Commit one slot ('fresh' allocates a node) plus consequences."""
        s, inv = self.letters[letter_idx]
        if value == "fresh":
            target = len(self.depths)
            self.depths.append(self.depths[node] + 1)
            self.words.append(self.words[node] + (letter_idx,))
        else:
            target = value  # node index or None

        self.slots[(node, letter_idx)] = target
        if target is None:
            (self.bwd if inv else self.fwd)[s][node] = None
            return True

        if not inv:
            src, dst = node, target
        else:
            src, dst = target, node
        # Record the concrete edge src -> dst for symbol s.
        if src in self.fwd[s]:
            return self.fwd[s][src] == dst
        if self.oriented and dst in self.bwd[s]:
            return self.bwd[s][dst] == src
        self.fwd[s][src] = dst
        self.bwd[s][dst] = src
        # Force the mirror slots this edge determines.
        if not inv and self.oriented and self.has_row(dst):
            inv_letter = self.letters.index((s, True))
            if not self._force(dst, inv_letter, src):
                return False
        if inv and self.has_row(src):
            fwd_letter = self.letters.index((s, False))
            if not self._force(src, fwd_letter, dst):
                return False
        return True

    def choices(self, node: int, letter_idx: int) -> list[int | str | None]:
        """The values of an uncommitted slot of a node with a row: a missing
        edge, every node the letter's other end leaves free, and a fresh
        node.  An uncommitted slot's own end is free: each edge or missing
        edge at a node with a row commits that node's slot."""
        s, inv = self.letters[letter_idx]
        if inv:
            taken = self.fwd[s]
        else:
            taken = self.bwd[s] if self.oriented else {}
        return [None, *(c for c in range(len(self.depths)) if c not in taken), "fresh"]

    def finish(self) -> NeighborhoodType:
        rows: list[tuple[int | None, ...] | None] = []
        for i in range(len(self.depths)):
            if not self.has_row(i):
                rows.append(None)
            else:
                rows.append(
                    tuple(self.slots[(i, j)] for j in range(len(self.letters)))
                )
        return NeighborhoodType(
            self.symbols,
            self.oriented,
            self.radius,
            tuple(self.depths),
            tuple(rows),
            tuple(self.words),
        )


def enumerate_types(
    symbols: Sequence[str],
    radius: int,
    oriented: bool = False,
    budget: int = 200_000,
) -> list[NeighborhoodType]:
    """All abstract word types, in canonical construction order.

    Slots are scanned in breadth-first order; each uncommitted slot
    branches over a missing edge, every compatible existing node, and a
    fresh node where depth allows.  Forced mirror commitments keep
    inverted letters consistent, so every emitted type is realizable and
    appears exactly once.
    """
    symbols = tuple(sorted(symbols))
    if not symbols:
        raise SynthesisError("need at least one relation symbol")
    out: list[NeighborhoodType] = []
    _advance(_TypeBuilder(symbols, oriented, radius), 0, 0, out, budget)
    return out


def _advance(builder: _TypeBuilder, node: int, letter_idx: int, out: list, budget: int) -> None:
    """Append to `out` every type that completes `builder` from the slot
    (node, letter_idx) on.  A module-level function, so no closure refers
    to itself and a dropped type list is freed at once."""
    while True:
        if letter_idx == len(builder.letters):
            node += 1
            letter_idx = 0
        if node == len(builder.depths):
            if len(out) >= budget:
                raise SynthesisError(f"type enumeration exceeded its budget of {budget}")
            out.append(builder.finish())
            return
        if not builder.has_row(node):
            node += 1
            letter_idx = 0
            continue
        if (node, letter_idx) in builder.slots:
            letter_idx += 1
            continue
        break
    for choice in builder.choices(node, letter_idx):
        branch = builder.copy()
        if branch.assign(node, letter_idx, choice):
            _advance(branch, node, letter_idx + 1, out, budget)


def _element_name(j: int, nodes: int) -> str:
    """Realization node j is v{j}; the fresh elements an extension adds
    after the `nodes` nodes are p00, p01, ..."""
    return f"v{j:02d}" if j < nodes else f"p{j - nodes:02d}"


def _realization_edges(t: NeighborhoodType) -> dict[str, frozenset[tuple[int, int]]]:
    """The edges of the type's minimal realization, per symbol, over the
    node indices."""
    edges: dict[str, set[tuple[int, int]]] = {s: set() for s in t.symbols}
    for i, row in enumerate(t.rows):
        if row is None:
            continue
        for j, target in enumerate(row):
            if target is None:
                continue
            s, inv = t.letters[j]
            edges[s].add((target, i) if inv else (i, target))
    return {s: frozenset(pairs) for s, pairs in edges.items()}


def _structure(
    n: int, base: dict[str, frozenset[tuple[int, int]]], fresh: int = 0, added: tuple = ()
) -> Structure:
    """The realization with n nodes and these edges, plus an extension's
    fresh elements and added edges (see `Extension`), named."""
    names = [_element_name(j, n) for j in range(n + fresh)]
    extra = dict(zip(base, added))
    return Structure(
        tuple(names),
        {
            s: frozenset((names[a], names[b]) for a, b in (*pairs, *extra.get(s, ())))
            for s, pairs in base.items()
        },
    )


def realization(t: NeighborhoodType) -> tuple[Structure, str]:
    """The minimal structure whose root has exactly this type."""
    n = t.node_count()
    return _structure(n, _realization_edges(t)), _element_name(0, n)


# --- the atom table and characteristic terms -------------------------------------------

def _identity(symbols: tuple[str, ...]) -> tm.Term:
    """The identity without an id constant: the antidomain of an empty
    composition is the full diagonal."""
    first = tm.sym(symbols[0])
    return tm.antidom(tm.compose(tm.antidom(first), first))


def _empty(symbols: tuple[str, ...]) -> tm.Term:
    """The empty relation without a 0 constant."""
    first = tm.sym(symbols[0])
    return tm.compose(tm.antidom(first), first)


def _path(t: NeighborhoodType, word: tuple[int, ...]) -> tm.Term:
    """The relation that follows `word` from an element; the identity for
    the empty word."""
    if not word:
        return _identity(t.symbols)
    term = None
    for j in word:
        s, inv = t.letters[j]
        step = tm.conv(tm.sym(s)) if inv else tm.sym(s)
        term = step if term is None else tm.compose(term, step)
    return term


def _existing_words(t: NeighborhoodType) -> dict[tuple[int, ...], int]:
    """Every existing word up to the radius, mapped to its endpoint node,
    in shortlex order."""
    letters = t.letters
    found: dict[tuple[int, ...], int] = {(): 0}
    frontier = [((), 0)]
    for _ in range(t.radius):
        new: list[tuple[tuple[int, ...], int]] = []
        for word, node in frontier:
            row = t.rows[node]
            if row is None:
                continue
            for j in range(len(letters)):
                if row[j] is not None:
                    extended = word + (j,)
                    found[extended] = row[j]
                    new.append((extended, row[j]))
        frontier = new
    return found


@cache
def _words(letter_count: int, radius: int) -> tuple[tuple[int, ...], ...]:
    """Every word up to the radius, the empty word first, in shortlex order."""
    out: list[tuple[int, ...]] = [()]
    level: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        level = [w + (j,) for w in level for j in range(letter_count)]
        out.extend(level)
    return tuple(out)


Atom = tuple[tuple[int, ...], ...]  # (w,): w exists; (a, b): a and b end on one element


@cache
def _atoms(letter_count: int, radius: int) -> tuple[Atom, ...]:
    """The atoms that tell word types apart: the existence of every nonempty
    word, then the equality of the endpoints of every pair of words, both in
    shortlex order."""
    words = _words(letter_count, radius)
    existence = tuple((w,) for w in words[1:])
    equality = tuple((a, b) for i, a in enumerate(words) for b in words[i + 1 :])
    return existence + equality


def _holds(existing: dict[tuple[int, ...], int], atom: Atom) -> bool:
    if len(atom) == 1:
        return atom[0] in existing
    a, b = atom
    return a in existing and existing.get(a) == existing.get(b)


def _fails(t: NeighborhoodType, atom: Atom) -> tm.Term:
    """The identity on the elements where the atom fails: the antidomain of
    the word, or of the intersection of the two words; the double antidomain
    is the identity where it holds."""
    if len(atom) == 1:
        return tm.antidom(_path(t, atom[0]))
    return tm.antidom(tm.inter(_path(t, atom[0]), _path(t, atom[1])))


def characteristic_term(t: NeighborhoodType) -> tm.Term:
    """Identity on exactly the elements whose word type equals t.

    The intersection of the atom table's atoms as t decides them: every
    word-existence atom, and the endpoint-equality atoms of the pairs of
    words that exist in t (the empty word included).
    """
    existing = _existing_words(t)
    out = None
    for atom in _atoms(len(t.letters), t.radius):
        if len(atom) == 2 and not (atom[0] in existing and atom[1] in existing):
            continue
        fails = _fails(t, atom)
        p = tm.antidom(fails) if _holds(existing, atom) else fails
        out = p if out is None else tm.inter(out, p)
    return _identity(t.symbols) if out is None else out


# --- oracle probing ----------------------------------------------------------------------

Oracle = Callable[[Structure], Relation]

# An extension of a realization with n nodes: its label for reports, the
# number of fresh elements it adds (indices n, n + 1, ...) and the edges it
# adds, one tuple per symbol in signature order.
Extension = tuple[str, int, tuple[tuple[tuple[int, int], ...], ...]]


def _symbol_groupings(missing: tuple[str, ...]) -> list[list[tuple[str, ...]]]:
    """Every way to pick a nonempty subset of the missing symbols and
    partition it into groups that will share one fresh target."""
    out: list[list[tuple[str, ...]]] = []

    def split(rest: tuple[str, ...], acc: list[tuple[str, ...]]) -> None:
        if not rest:
            if acc:
                out.append(list(acc))
            return
        head, tail = rest[0], rest[1:]
        split(tail, acc)  # head left unassigned
        for i in range(len(acc)):
            joined = acc[:i] + [acc[i] + (head,)] + acc[i + 1 :]
            split(tail, joined)
        split(tail, acc + [(head,)])

    split(missing, [])
    return out


class _Extender:
    """Builds one ball-preserving extension of a realization with n nodes."""

    def __init__(self, n: int, symbols: tuple[str, ...]):
        self.n = n
        self.symbols = symbols
        self.edges: dict[str, list[tuple[int, int]]] = {s: [] for s in symbols}
        self.count = 0

    def fresh(self) -> int:
        self.count += 1
        return self.n + self.count - 1

    def out_tree(self, tip: int, depth: int) -> None:
        if depth <= 0:
            return
        for s in self.symbols:
            child = self.fresh()
            self.edges[s].append((tip, child))
            self.out_tree(child, depth - 1)

    def in_tree(self, tip: int, depth: int) -> None:
        if depth <= 0:
            return
        for s in self.symbols:
            parent = self.fresh()
            self.edges[s].append((parent, tip))
            self.in_tree(parent, depth - 1)

    def build(self, label: str) -> Extension:
        return label, self.count, tuple(tuple(self.edges[s]) for s in self.symbols)


class _Family(NamedTuple):
    """A realization's extensions, and its probes' sizes and added edges.

    Probe 0 is the realization itself and probe j + 1 is `extensions[j]`.
    Probe j has `sizes[j]` elements, and `added[j]` holds the masks of the
    edges it adds, one per symbol, over its own size.  `batched` holds the
    same masks as uint64 columns, and 0 for a probe larger than
    `MAX_BULK_SIZE`, which is evaluated one at a time.  The arrays are
    shared through the cache, so they are read-only.
    """

    extensions: tuple[Extension, ...]
    sizes: np.ndarray
    added: tuple[tuple[int, ...], ...]
    batched: np.ndarray


def _extensions(
    t: NeighborhoodType, base: dict[str, frozenset[tuple[int, int]]], probe_depth: int
) -> _Family:
    """Ball-preserving extensions of the realization, labelled for reports.

    At frontier nodes, every grouping of the missing outgoing symbols gets
    fresh targets (groups share a target, so intersections one step out are
    visible), each crowned with complete outgoing trees of depths up to
    probe_depth.  Forward mode also hangs incoming chains on every node,
    since forward balls never look backwards; oriented mode instead adds
    the symmetric incoming patterns at frontier nodes.  Changes that need
    coordinated edges at several distinct frontier nodes are not probed;
    the independent validation pass is the backstop for those.
    """
    frontier = tuple(
        (
            i,
            tuple(s for s in t.symbols if all(a != i for a, _ in base[s])),
            tuple(s for s in t.symbols if all(b != i for _, b in base[s])) if t.oriented else (),
        )
        for i, d in enumerate(t.depths)
        if d == t.radius
    )
    return _extension_family(t.node_count(), t.symbols, t.oriented, probe_depth, frontier)


@lru_cache(maxsize=1024)
def _extension_family(
    n: int,
    symbols: tuple[str, ...],
    oriented: bool,
    probe_depth: int,
    frontier: tuple[tuple[int, tuple[str, ...], tuple[str, ...]], ...],
) -> _Family:
    """`_extensions` for a realization with n nodes and these frontier nodes,
    each with its missing outgoing and incoming symbols; many types share
    one family, so it is built once and shared (immutable)."""
    ext = _Extender(n, symbols)
    ext.fresh()
    out = [ext.build("a fresh isolated element")]
    for i, missing_out, missing_in in frontier:
        u = _element_name(i, n)
        for direction, missing in (("outgoing", missing_out), ("incoming", missing_in)):
            outgoing = direction == "outgoing"
            for grouping in _symbol_groupings(missing):
                for depth in range(probe_depth + 1):
                    ext = _Extender(n, symbols)
                    for group in grouping:
                        tip = ext.fresh()
                        for s in group:
                            ext.edges[s].append((i, tip) if outgoing else (tip, i))
                        (ext.out_tree if outgoing else ext.in_tree)(tip, depth)
                    out.append(ext.build(
                        f"{direction} "
                        + ", ".join("=".join(g) for g in grouping)
                        + f" at {u}, looking {depth} deeper"
                    ))
    if not oriented:
        for s in symbols:
            for i in range(n):
                for depth in range(probe_depth + 1):
                    ext = _Extender(n, symbols)
                    tip = ext.fresh()
                    ext.edges[s].append((tip, i))
                    ext.in_tree(tip, depth)
                    out.append(ext.build(
                        f"an incoming {s}-chain at {_element_name(i, n)}, {depth} deeper"
                    ))
    sizes = np.array([n, *(n + fresh for _, fresh, _ in out)])
    added = ((0,) * len(symbols), *(
        tuple(_edge_mask(e, n + fresh) for e in edges) for _, fresh, edges in out
    ))
    batched = np.array(
        [masks if k <= MAX_BULK_SIZE else (0,) * len(symbols) for k, masks in zip(sizes, added)],
        dtype=np.uint64,
    ).T
    sizes.setflags(write=False)
    batched.setflags(write=False)
    return _Family(tuple(out), sizes, added, batched)


def _edge_mask(edges, k: int) -> int:
    mask = 0
    for a, b in edges:
        mask |= 1 << (a * k + b)
    return mask


# A type's probe plan: the type, its realization's edges
# (`_realization_edges`) and its extension family.
Plan = tuple[NeighborhoodType, dict[str, frozenset[tuple[int, int]]], _Family]


def _chunks(
    types: Sequence[NeighborhoodType], probe_depth: int
) -> Iterator[tuple[int, list[Plan]]]:
    """The types in enumeration order, each with its realization's edges and
    extension family, in chunks of about `bulk.BLOCK` probes; each chunk
    comes with the index of its first type."""
    chunk: list[Plan] = []
    start = probes = 0
    for i, t in enumerate(types):
        base = _realization_edges(t)
        family = _extensions(t, base, probe_depth)
        chunk.append((t, base, family))
        probes += len(family.sizes)
        if probes >= bulk.BLOCK:
            yield start, chunk
            chunk, start, probes = [], i + 1, 0
    if chunk:
        yield start, chunk


def _widen(masks: np.ndarray, n: np.ndarray, k: int) -> np.ndarray:
    """Masks over n x n matrices laid out over k x k, n <= k <= 8 for each
    entry: row i moves from bit i*n to bit i*k.  A row i >= n starts at or
    past bit n*n, and i*n <= 56, so it reads 0."""
    row = (np.uint64(1) << n) - np.uint64(1)
    out = masks & row
    for i in range(1, k):
        out |= ((masks >> (n * np.uint64(i))) & row) << np.uint64(i * k)
    return out


def _term_rows(oracle: tm.Term, chunk: list[Plan]) -> list[int]:
    """The term oracle's root row on every probe of a chunk, in order: each
    type's realization, then its extensions.

    The probes on at most `MAX_BULK_SIZE` elements run as one batch per size
    through `bulk.bulk_eval_term`: each realization's masks, built over its
    n nodes, are widened to the probe's k elements and joined with the
    family's added edges.  Larger probes run one at a time on Python ints.
    The root is element 0, so its row is the mask's first k bits whatever k
    is.
    """
    symbols = chunk[0][0].symbols
    counts = [len(family.sizes) for _, _, family in chunk]
    sizes = np.concatenate([family.sizes for _, _, family in chunk])
    added = np.concatenate([family.batched for _, _, family in chunk], axis=1)
    nodes = [t.node_count() for t, _, _ in chunk]
    realized = np.array(
        [[_edge_mask(base[s], n) if n <= MAX_BULK_SIZE else 0 for s in symbols]
         for n, (_, base, _) in zip(nodes, chunk)],
        dtype=np.uint64,
    )
    owner = np.repeat(np.arange(len(chunk)), counts)
    node_counts = np.repeat(np.array(nodes, dtype=np.uint64), counts)
    rows = np.zeros(len(sizes), dtype=np.uint64)
    for k in range(1, MAX_BULK_SIZE + 1):
        at = np.flatnonzero(sizes == k)
        if not len(at):
            continue
        of, n = owner[at], node_counts[at]
        masks = {s: _widen(realized[of, j], n, k) | added[j, at] for j, s in enumerate(symbols)}
        rows[at] = bulk.bulk_eval_term(oracle, k, masks) & batch_ops(k).row0
    out = rows.tolist()
    first = np.cumsum([0, *counts[:-1]])
    for p in np.flatnonzero(sizes > MAX_BULK_SIZE).tolist():
        _, base, family = chunk[owner[p]]
        k = int(sizes[p])
        extra = family.added[p - first[owner[p]]]
        masks = {s: _edge_mask(base[s], k) | m for s, m in zip(symbols, extra)}
        out[p] = tm.evaluate(oracle, masks, int_ops(k).value) & ((1 << k) - 1)
    return out


def _called_rows(oracle: Oracle, t: NeighborhoodType, base, family: _Family) -> Iterator[int]:
    """The callable oracle's root row, as a bit set over element indices, on
    the named realization and then on each extension, one call at a time."""
    n = t.node_count()
    root = _element_name(0, n)
    for fresh, added in ((0, ()), *((fresh, added) for _, fresh, added in family.extensions)):
        index = {_element_name(j, n): j for j in range(n + fresh)}
        out = 0
        for a, b in oracle(_structure(n, base, fresh, added)):
            if a == root:
                if b not in index:
                    raise SynthesisError(f"oracle maps the root to {b!r}, outside the structure")
                out |= 1 << index[b]
        yield out


def _checked_row(
    t: NeighborhoodType, type_index: int, base, family: _Family, rows: Iterable[int]
) -> int:
    """The root row on the realization, after the checks on the type's probe
    rows, given in probe order: synthesis stops at the first row that holds
    more than one element, or that an extension changes, with the probe as
    witness."""
    n = t.node_count()
    root = _element_name(0, n)

    def names(row: int) -> list[str]:
        return sorted(_element_name(j, n) for j in range(row.bit_length()) if row >> j & 1)

    def checked(row: int, fresh: int, added: tuple, label: str | None) -> int:
        if row & (row - 1):
            where = f" under {label}" if label else ""
            raise SynthesisError(
                f"oracle is not function-preserving at type {type_index}{where}: "
                f"the root maps to {names(row)}",
                details={
                    "realization": structure_to_json(_structure(n, base, fresh, added)),
                    "root": root,
                },
            )
        return row

    rows = iter(rows)
    base_row = checked(next(rows), 0, (), None)
    for (label, fresh, added), row in zip(family.extensions, rows):
        checked(row, fresh, added, label)
        if row != base_row:
            raise SynthesisError(
                f"oracle is not {t.radius}-bounded: {label} changes the root row "
                f"from {names(base_row)} to {names(row)} at type {type_index}",
                details={
                    "realization": structure_to_json(_structure(n, base)),
                    "extension": structure_to_json(_structure(n, base, fresh, added)),
                    "root": root,
                },
            )
    return base_row


def _probe(
    oracle: tm.Term | Oracle, types: Sequence[NeighborhoodType], probe_depth: int
) -> tuple[list[int | None], int]:
    """Each type's root target on its realization (a node index, None for an
    empty row) after the checks, and the number of probes that took.

    A term oracle's rows come a chunk of types at a time from `_term_rows`;
    a type whose rows all equal its realization's one-element or empty row
    passes, and any other is replayed through `_checked_row`, which raises
    at the probe that fails first.  A callable oracle's rows are read
    lazily, in order, through the same `_checked_row`.
    """
    term = isinstance(oracle, tm.Term)
    if not term and not callable(oracle):
        raise SynthesisError("oracle must be a term or a callable on structures")
    targets: list[int | None] = []
    probes = 0
    for start, chunk in _chunks(types, probe_depth):
        chunk_rows = _term_rows(oracle, chunk) if term else None
        offset = 0
        for i, (t, base, family) in enumerate(chunk, start):
            count = len(family.sizes)
            if term:
                rows = chunk_rows[offset : offset + count]
                row = rows[0]
                passed = not row & (row - 1) and rows.count(row) == count
            else:
                rows, passed = _called_rows(oracle, t, base, family), False
            if not passed:
                row = _checked_row(t, i, base, family, rows)
            targets.append(row.bit_length() - 1 if row else None)
            offset += count
        probes += offset
    return targets, probes


# --- synthesis ---------------------------------------------------------------------------

@dataclass
class SynthesisResult:
    term: tm.Term
    radius: int
    oriented: bool
    symbols: tuple[str, ...]
    types_considered: int
    positive: int
    nodes: int  # distinct DAG nodes of the term
    probes: int  # oracle evaluations spent probing the types
    # The depth of the trees the extensions hang beyond the radius ("looking
    # d deeper" in their labels): acceptance says nothing about an oracle
    # that looks further.
    probe_depth: int

    def to_json(self) -> dict:
        return {
            "term": tm.print_term(self.term),
            "radius": self.radius,
            "oriented": self.oriented,
            "symbols": list(self.symbols),
            "types_considered": self.types_considered,
            "positive": self.positive,
            "nodes": self.nodes,
            "probes": self.probes,
            "probe_depth": self.probe_depth,
        }


def _diagram(
    t: NeighborhoodType,
    probed: list[tuple[dict[tuple[int, ...], int], int | None]],
    oriented: bool,
) -> tm.Term:
    """The reduced ordered decision diagram over the atom table for the
    probed types, each given as (existing words, root target or None); t is
    any one of them, for the letters.

    A set of types is a leaf when every type in it is negative (the empty
    term), or when one word reaches the target in every positive type and
    exists in no negative one (that word's path).  Otherwise it splits on
    the first atom that separates it into the types where the atom holds
    (hi) and the rest (lo), giving `(test ; hi) <+ (antitest ; lo)`.  The
    node collapses to hi when hi is lo, and an empty branch drops out.

    A node's term is exact on its own types only; elsewhere it may follow
    some word.  `<+` never looks at those stray pairs, but `<#` drops a lo
    pair whose target some hi pair reaches, so oriented nodes guard hi by
    the cube, the intersection of every test on the way down to it, which
    is the identity on exactly hi's types.
    """
    words = _words(len(t.letters), t.radius)
    atoms = _atoms(len(t.letters), t.radius)
    empty, identity = _empty(t.symbols), _identity(t.symbols)
    combine = "injunion" if oriented else "prefunion"

    def restrict(guard: tm.Term, term: tm.Term) -> tm.Term:
        return guard if term is identity else tm.compose(guard, term)

    def build(group, cube: tm.Term | None) -> tm.Term:
        positive = [(existing, target) for existing, target in group if target is not None]
        if not positive:
            return empty
        for word in words:
            if all(existing.get(word) == target for existing, target in positive) and all(
                word not in existing for existing, target in group if target is None
            ):
                return _path(t, word)
        for atom in atoms:
            hi = [item for item in group if _holds(item[0], atom)]
            if 0 < len(hi) < len(group):
                break
        else:
            raise AssertionError("two distinct types agree on every atom")
        lo = [item for item in group if not _holds(item[0], atom)]
        antitest = _fails(t, atom)
        test = tm.antidom(antitest)
        hi_cube = test if cube is None else tm.inter(cube, test)
        lo_cube = antitest if cube is None else tm.inter(cube, antitest)
        hi_term, lo_term = build(hi, hi_cube), build(lo, lo_cube)
        if hi_term is lo_term:
            return hi_term
        if hi_term is empty:
            return restrict(antitest, lo_term)
        hi_part = restrict(hi_cube if oriented else test, hi_term)
        if lo_term is empty:
            return hi_part
        return tm.Term(combine, (hi_part, restrict(antitest, lo_term)))

    return build(probed, None)


def _synthesize(
    oracle: tm.Term | Oracle,
    radius: int,
    symbols: Sequence[str] | None,
    oriented: bool,
    probe_depth: int = 1,
) -> SynthesisResult:
    """Probe every type of the radius, then build the decision diagram.

    Each abstract type's realization, and each of its ball-preserving
    extensions, is handed to the oracle (`_probe`: a term oracle as batches
    of bit masks, a callable as one named structure at a time); a row that
    changes under an extension, or holds more than one element, stops
    synthesis with the witness.  The probed types then feed `_diagram`,
    whose term agrees with the oracle on every element whose type was
    probed.
    """
    if symbols is None:
        if isinstance(oracle, tm.Term):
            symbols = tm.term_signature(oracle)
        if not symbols:
            raise SynthesisError(
                "symbols are required when the oracle does not name any"
            )
    symbols = tuple(sorted(symbols))
    types = enumerate_types(symbols, radius, oriented)
    targets, probes = _probe(oracle, types, probe_depth)
    probed = [(_existing_words(t), target) for t, target in zip(types, targets)]
    term = _diagram(types[0], probed, oriented)
    positive = sum(target is not None for target in targets)
    nodes = sum(1 for _ in tm.iter_nodes(term))
    return SynthesisResult(
        term, radius, oriented, symbols, len(types), positive, nodes, probes, probe_depth
    )


def synthesize_forward(
    oracle: tm.Term | Oracle,
    radius: int,
    symbols: Sequence[str] | None = None,
) -> SynthesisResult:
    """A term over composition, antidomain, intersection and preferential
    union agreeing with the oracle on partial-function structures."""
    return _synthesize(oracle, radius, symbols, False)


def synthesize_local_injective(
    oracle: tm.Term | Oracle,
    radius: int,
    symbols: Sequence[str] | None = None,
) -> SynthesisResult:
    """As synthesize_forward, over injective partial functions, with
    converse letters and the injective preferential union."""
    return _synthesize(oracle, radius, symbols, True)


def validate_synthesis(
    result: SynthesisResult,
    oracle: tm.Term,
    bounds: Bounds | None = None,
    seed: int = 0,
) -> EquivalenceReport:
    """Independent equivalence check of a synthesis result over its class
    and symbols."""
    cls = (
        StructureClass.INJECTIVE_PARTIAL_FUNCTIONS
        if result.oriented
        else StructureClass.PARTIAL_FUNCTIONS
    )
    return equivalence_report(result.term, oracle, result.symbols, cls, bounds, seed)


@dataclass
class RadiusEstimate:
    radius: int | None
    oriented: bool
    attempts: list[dict] = field(default_factory=list)
    failure: dict | None = None
    result: SynthesisResult | None = None


def estimate_radius(
    oracle: tm.Term | Oracle,
    max_radius: int = 3,
    symbols: Sequence[str] | None = None,
    oriented: bool = False,
) -> RadiusEstimate:
    """Smallest radius at which probing accepts the oracle, if any.

    Probes look further beyond the frontier at small radii (depth
    max_radius - radius), so short balls are not accepted just because a
    single extra edge keeps the oracle quiet.  When the oracle is itself a
    term, every accepted radius is double-checked by an independent
    equivalence sweep; a disagreement sends the search one radius up.  On
    total failure the largest radius's probe counterexample is carried in
    the estimate, so a caller can see what the oracle kept noticing
    outside every ball.
    """
    attempts: list[dict] = []
    failure: dict | None = None
    for radius in range(max_radius + 1):
        depth = max(1, max_radius - radius)
        try:
            result = _synthesize(oracle, radius, symbols, oriented, depth)
        except SynthesisError as exc:
            failure = {"radius": radius, "message": str(exc), "details": exc.details}
            attempts.append({"radius": radius, "outcome": str(exc)})
            continue
        if isinstance(oracle, tm.Term):
            report = validate_synthesis(
                result, oracle, bounds=Bounds(max_size=3, samples=100)
            )
            if not report.equivalent:
                message = (
                    f"synthesized term disagrees with the oracle at radius {radius}"
                )
                failure = {
                    "radius": radius,
                    "message": message,
                    "details": structure_to_json(report.counterexample),
                }
                attempts.append({"radius": radius, "outcome": message})
                continue
        attempts.append({"radius": radius, "outcome": "accepted"})
        return RadiusEstimate(radius, oriented, attempts, None, result)
    return RadiusEstimate(None, oriented, attempts, failure, None)
