"""Synthesising terms from black-box oracles over function structures.

The object in the middle is a word type: starting from an element, follow
letters (a letter is a relation symbol, optionally inverted) for at most
`radius` steps; the type records which letter words exist and which of them
land on the same element.  Because every relation in scope is a partial
function (injective when inverted letters are in play), following a word is
deterministic and the type is a finite quotient automaton with a canonical
breadth-first numbering.

Synthesis enumerates all abstract types of the given radius, asks the
oracle about a minimal realization of each, probes the realization's
ball-preserving extensions to catch oracles that look further than the
radius allows, and emits one term piece per type with a nonempty answer.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from . import terms as tm
from .checkers import Bounds, EquivalenceReport, equivalence_report
from .structures import (
    Relation,
    Structure,
    StructureClass,
    is_injective_partial_function,
    is_partial_function,
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

    @property
    def letters(self) -> tuple[Letter, ...]:
        return type_letters(self.symbols, self.oriented)

    def node_count(self) -> int:
        return len(self.depths)


def _class_check(structure: Structure, oriented: bool) -> None:
    for name, rel in structure.relations.items():
        if oriented:
            if not is_injective_partial_function(rel):
                raise SynthesisError(
                    f"relation {name!r} is not an injective partial function"
                )
        elif not is_partial_function(rel):
            raise SynthesisError(f"relation {name!r} is not a partial function")


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
        self.slots: dict[tuple[int, int], int | None] = {}
        self.committed: set[tuple[int, int]] = set()
        # Actual edges of the eventual realization, per symbol.
        self.fwd: dict[str, dict[int, int]] = {s: {} for s in symbols}
        self.bwd: dict[str, dict[int, int]] = {s: {} for s in symbols}
        self.fwd_banned: dict[str, set[int]] = {s: set() for s in symbols}
        self.bwd_banned: dict[str, set[int]] = {s: set() for s in symbols}

    def copy(self) -> "_TypeBuilder":
        dup = _TypeBuilder.__new__(_TypeBuilder)
        dup.symbols = self.symbols
        dup.oriented = self.oriented
        dup.radius = self.radius
        dup.letters = self.letters
        dup.depths = list(self.depths)
        dup.words = list(self.words)
        dup.slots = dict(self.slots)
        dup.committed = set(self.committed)
        dup.fwd = {s: dict(m) for s, m in self.fwd.items()}
        dup.bwd = {s: dict(m) for s, m in self.bwd.items()}
        dup.fwd_banned = {s: set(v) for s, v in self.fwd_banned.items()}
        dup.bwd_banned = {s: set(v) for s, v in self.bwd_banned.items()}
        return dup

    def has_row(self, node: int) -> bool:
        return self.depths[node] < self.radius

    def _force(self, node: int, letter: int, value: int) -> bool:
        slot = (node, letter)
        if slot in self.committed:
            return self.slots[slot] == value
        self.slots[slot] = value
        self.committed.add(slot)
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

        slot = (node, letter_idx)
        self.slots[slot] = target
        self.committed.add(slot)
        if target is None:
            if not inv:
                self.fwd_banned[s].add(node)
            else:
                self.bwd_banned[s].add(node)
            return True

        if not inv:
            src, dst = node, target
        else:
            src, dst = target, node
        # Record the concrete edge src -> dst for symbol s.
        if src in self.fwd[s] or src in self.fwd_banned[s]:
            return self.fwd[s].get(src) == dst
        if self.oriented and (dst in self.bwd[s] or dst in self.bwd_banned[s]):
            return self.bwd[s].get(dst) == src
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
        s, inv = self.letters[letter_idx]
        out: list[int | str | None] = [None]
        for cand in range(len(self.depths)):
            if not inv:
                if node in self.fwd[s] or node in self.fwd_banned[s]:
                    continue
                if self.oriented and (
                    cand in self.bwd[s] or cand in self.bwd_banned[s]
                ):
                    continue
            else:
                if node in self.bwd[s] or node in self.bwd_banned[s]:
                    continue
                if cand in self.fwd[s] or cand in self.fwd_banned[s]:
                    continue
            out.append(cand)
        if self.depths[node] + 1 <= self.radius:
            blocked = (
                (node in self.fwd[s] or node in self.fwd_banned[s])
                if not inv
                else (node in self.bwd[s] or node in self.bwd_banned[s])
            )
            if not blocked:
                out.append("fresh")
        return out

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
    letters = type_letters(symbols, oriented)

    def advance(builder: _TypeBuilder, node: int, letter_idx: int) -> None:
        while True:
            if letter_idx == len(letters):
                node += 1
                letter_idx = 0
            if node == len(builder.depths):
                if len(out) >= budget:
                    raise SynthesisError(
                        f"type enumeration exceeded its budget of {budget}"
                    )
                out.append(builder.finish())
                return
            if not builder.has_row(node):
                node += 1
                letter_idx = 0
                continue
            if (node, letter_idx) in builder.committed:
                letter_idx += 1
                continue
            break
        for choice in builder.choices(node, letter_idx):
            branch = builder.copy()
            if branch.assign(node, letter_idx, choice):
                advance(branch, node, letter_idx + 1)

    advance(_TypeBuilder(symbols, oriented, radius), 0, 0)
    return out


def realization(t: NeighborhoodType) -> tuple[Structure, str]:
    """The minimal structure whose root has exactly this type."""
    elements = tuple(f"v{i:02d}" for i in range(t.node_count()))
    rels: dict[str, set[tuple[str, str]]] = {s: set() for s in t.symbols}
    for i, row in enumerate(t.rows):
        if row is None:
            continue
        for j, target in enumerate(row):
            if target is None:
                continue
            s, inv = t.letters[j]
            if inv:
                rels[s].add((elements[target], elements[i]))
            else:
                rels[s].add((elements[i], elements[target]))
    structure = Structure(
        elements, {s: frozenset(pairs) for s, pairs in rels.items()}
    )
    return structure, elements[0]


# --- characteristic terms --------------------------------------------------------------

def _identity(symbols: tuple[str, ...]) -> tm.Term:
    """The identity without an id constant: the antidomain of an empty
    composition is the full diagonal."""
    first = tm.sym(symbols[0])
    return tm.antidom(tm.compose(tm.antidom(first), first))


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


def _all_words(letter_count: int, radius: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    level: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        level = [w + (j,) for w in level for j in range(letter_count)]
        out.extend(level)
    return out


def characteristic_term(t: NeighborhoodType) -> tm.Term:
    """Identity on exactly the elements whose word type equals t.

    An intersection of word-existence atoms (every word up to the radius,
    positive or negative) and endpoint-equality atoms (every pair of
    existing words, the empty word included).  An atom "p holds" is the
    double antidomain of p, "p fails" its antidomain.
    """
    existing = _existing_words(t)
    atoms: list[tm.Term] = []
    for word in _all_words(len(t.letters), t.radius):
        p = tm.antidom(_path(t, word))
        atoms.append(tm.antidom(p) if word in existing else p)
    words = list(existing)
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            p = tm.antidom(tm.inter(_path(t, words[a]), _path(t, words[b])))
            atoms.append(tm.antidom(p) if existing[words[a]] == existing[words[b]] else p)
    if not atoms:
        return _identity(t.symbols)
    out = atoms[0]
    for p in atoms[1:]:
        out = tm.inter(out, p)
    return out


# --- oracle probing and synthesis ---------------------------------------------------------

Oracle = Callable[[Structure], Relation]


def _oracle_fn(oracle: tm.Term | Oracle) -> Oracle:
    if isinstance(oracle, tm.Term):
        return lambda structure: tm.eval_term(oracle, structure)
    if callable(oracle):
        return oracle
    raise SynthesisError("oracle must be a term or a callable on structures")


def _root_row(value: Relation, root: str) -> frozenset[str]:
    return frozenset(b for a, b in value if a == root)


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
    """Builds one ball-preserving extension of the realization."""

    def __init__(self, base: Structure, symbols: tuple[str, ...]):
        self.base = base
        self.symbols = symbols
        self.rels: dict[str, set] = {s: set(base.relations[s]) for s in symbols}
        self.new: list[str] = []

    def fresh(self) -> str:
        name = f"p{len(self.new):02d}"
        self.new.append(name)
        return name

    def out_tree(self, tip: str, depth: int) -> None:
        if depth <= 0:
            return
        for s in self.symbols:
            child = self.fresh()
            self.rels[s].add((tip, child))
            self.out_tree(child, depth - 1)

    def in_tree(self, tip: str, depth: int) -> None:
        if depth <= 0:
            return
        for s in self.symbols:
            parent = self.fresh()
            self.rels[s].add((parent, tip))
            self.in_tree(parent, depth - 1)

    def build(self) -> Structure:
        return Structure(
            self.base.domain + tuple(self.new),
            {s: frozenset(pairs) for s, pairs in self.rels.items()},
        )


def _extensions(t: NeighborhoodType, base: Structure, root: str, probe_depth: int):
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
    elements = base.domain
    ext = _Extender(base, t.symbols)
    ext.fresh()
    yield "a fresh isolated element", ext.build()

    frontier = [i for i, d in enumerate(t.depths) if d == t.radius]
    names = {i: f"v{i:02d}" for i in range(t.node_count())}
    for i in frontier:
        u = names[i]
        missing_out = tuple(
            s for s in t.symbols if u not in {a for a, _ in base.relations[s]}
        )
        for grouping in _symbol_groupings(missing_out):
            for depth in range(probe_depth + 1):
                ext = _Extender(base, t.symbols)
                for group in grouping:
                    tip = ext.fresh()
                    for s in group:
                        ext.rels[s].add((u, tip))
                    ext.out_tree(tip, depth)
                label = (
                    "outgoing "
                    + ", ".join("=".join(g) for g in grouping)
                    + f" at {u}, looking {depth} deeper"
                )
                yield label, ext.build()
        if t.oriented:
            missing_in = tuple(
                s for s in t.symbols if u not in {b for _, b in base.relations[s]}
            )
            for grouping in _symbol_groupings(missing_in):
                for depth in range(probe_depth + 1):
                    ext = _Extender(base, t.symbols)
                    for group in grouping:
                        tip = ext.fresh()
                        for s in group:
                            ext.rels[s].add((tip, u))
                        ext.in_tree(tip, depth)
                    label = (
                        "incoming "
                        + ", ".join("=".join(g) for g in grouping)
                        + f" at {u}, looking {depth} deeper"
                    )
                    yield label, ext.build()

    if not t.oriented:
        for s in t.symbols:
            for u in elements:
                for depth in range(probe_depth + 1):
                    ext = _Extender(base, t.symbols)
                    tip = ext.fresh()
                    ext.rels[s].add((tip, u))
                    ext.in_tree(tip, depth)
                    yield (
                        f"an incoming {s}-chain at {u}, {depth} deeper",
                        ext.build(),
                    )


def _probe_type(
    t: NeighborhoodType,
    base: Structure,
    root: str,
    fn: Oracle,
    type_index: int,
    probe_depth: int,
) -> frozenset[str]:
    """The oracle's root row on the realization, after stability checks."""

    def checked_row(structure: Structure, label: str | None) -> frozenset[str]:
        row = _root_row(fn(structure), root)
        if len(row) > 1:
            where = f" under {label}" if label else ""
            raise SynthesisError(
                f"oracle is not function-preserving at type {type_index}{where}: "
                f"the root maps to {sorted(row)}",
                details={"realization": structure_to_json(structure), "root": root},
            )
        return row

    base_row = checked_row(base, None)
    for label, ext in _extensions(t, base, root, probe_depth):
        row = checked_row(ext, label)
        if row != base_row:
            raise SynthesisError(
                f"oracle is not {t.radius}-bounded: {label} changes the root row "
                f"from {sorted(base_row)} to {sorted(row)} at type {type_index}",
                details={
                    "realization": structure_to_json(base),
                    "extension": structure_to_json(ext),
                    "root": root,
                },
            )
    return base_row


@dataclass
class SynthesisResult:
    term: tm.Term
    radius: int
    oriented: bool
    symbols: tuple[str, ...]
    types_considered: int
    positive: int

    def to_json(self) -> dict:
        return {
            "term": tm.print_term(self.term),
            "radius": self.radius,
            "oriented": self.oriented,
            "symbols": list(self.symbols),
            "types_considered": self.types_considered,
            "positive": self.positive,
        }


def _synthesize(
    oracle: tm.Term | Oracle,
    radius: int,
    symbols: Sequence[str] | None,
    oriented: bool,
    budget: int,
    probe_depth: int = 1,
) -> SynthesisResult:
    if symbols is None:
        if isinstance(oracle, tm.Term):
            symbols = tm.term_signature(oracle)
        if not symbols:
            raise SynthesisError(
                "symbols are required when the oracle does not name any"
            )
    symbols = tuple(sorted(symbols))
    fn = _oracle_fn(oracle)
    types = enumerate_types(symbols, radius, oriented, budget)
    combine = "injunion" if oriented else "prefunion"
    pieces: list[tm.Term] = []
    positive = 0
    for k, t in enumerate(types):
        base, root = realization(t)
        row = _probe_type(t, base, root, fn, k, probe_depth)
        if not row:
            continue
        positive += 1
        (target,) = row
        node = int(target[1:])
        chi = characteristic_term(t)
        word = t.words[node]
        pieces.append(tm.compose(chi, _path(t, word)) if word else chi)
    if not pieces:
        first = tm.sym(symbols[0])
        term = tm.compose(tm.antidom(first), first)
    else:
        term = pieces[0]
        for p in pieces[1:]:
            term = tm.Term(combine, (term, p))
    return SynthesisResult(term, radius, oriented, symbols, len(types), positive)


def synthesize_forward(
    oracle: tm.Term | Oracle,
    radius: int,
    symbols: Sequence[str] | None = None,
    budget: int = 200_000,
    probe_depth: int = 1,
) -> SynthesisResult:
    """A term over composition, antidomain, intersection and preferential
    union agreeing with the oracle on partial-function structures."""
    return _synthesize(oracle, radius, symbols, False, budget, probe_depth)


def synthesize_local_injective(
    oracle: tm.Term | Oracle,
    radius: int,
    symbols: Sequence[str] | None = None,
    budget: int = 200_000,
    probe_depth: int = 1,
) -> SynthesisResult:
    """As synthesize_forward, over injective partial functions, with
    converse letters and the injective preferential union."""
    return _synthesize(oracle, radius, symbols, True, budget, probe_depth)


def validate_synthesis(
    result: SynthesisResult,
    oracle: tm.Term,
    signature: Sequence[str] | None = None,
    bounds: Bounds | None = None,
    seed: int = 0,
) -> EquivalenceReport:
    """Independent equivalence check of a synthesis result over its class."""
    cls = (
        StructureClass.INJECTIVE_PARTIAL_FUNCTIONS
        if result.oriented
        else StructureClass.PARTIAL_FUNCTIONS
    )
    if signature is None:
        signature = result.symbols
    return equivalence_report(result.term, oracle, signature, cls, bounds, seed)


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
    budget: int = 200_000,
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
            result = _synthesize(oracle, radius, symbols, oriented, budget, depth)
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
