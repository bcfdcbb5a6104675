"""Finite structures over signatures of named binary relations.

Everything downstream evaluates against the `Structure` type defined here:
substructures, homomorphism and isomorphism search, deterministic
bounded-exhaustive enumeration, seeded random generation, and a small JSON
file format.  The bit-matrix codec and `BulkOps`, the one
kernel table of the catalogue operations, live here too, so that the term
evaluators (`terms`, `bulk`) depend on this module and not on each other.
"""

from __future__ import annotations

import json
import random
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, lru_cache
from itertools import permutations, product, repeat
from math import comb, factorial
from operator import and_, or_
from pathlib import Path

import numpy as np

Pair = tuple[str, str]
Relation = frozenset[Pair]

MODES = ("forward", "undirected")


class StructureError(ValueError):
    """Malformed structure or bad argument."""


def relation(pairs: Iterable[Sequence[str]]) -> Relation:
    """Build a Relation from any iterable of 2-sequences (set semantics)."""
    out: set[Pair] = set()
    for pair in pairs:
        a, b = pair
        out.add((str(a), str(b)))
    return frozenset(out)


class StructureClass(Enum):
    """Classes of structures distinguished by what their relations may be."""

    ALL = "all"
    PARTIAL_FUNCTIONS = "partial-functions"
    TOTAL_FUNCTIONS = "total-functions"
    INJECTIVE_PARTIAL_FUNCTIONS = "injective-partial-functions"

    def contains(self, mask, k: int):
        """Whether a relation, as a mask over k elements, lies in the class;
        on a uint64 array of masks (k <= MAX_BULK_SIZE), a bool per mask."""
        batch = not isinstance(mask, int)
        ops = batch_ops(k) if batch else int_ops(k)

        def functional(r):
            return ops.diff(ops.compose(ops.converse(r), r), ops.diag) == 0

        if self is StructureClass.ALL:
            return np.ones(len(mask), dtype=bool) if batch else True
        ok = functional(mask)
        # One int stops at the first test it fails; a batch runs both.
        if self is StructureClass.PARTIAL_FUNCTIONS or not (batch or ok):
            return ok
        if self is StructureClass.TOTAL_FUNCTIONS:
            return ok & (ops.dom(mask) == ops.diag)
        return ok & functional(ops.converse(mask))


@dataclass(frozen=True)
class Structure:
    """A finite domain of opaque string identifiers plus named relations.

    The domain is stored sorted; relation values are frozensets of pairs.
    Instances are immutable and safe to share between workers.
    """

    domain: tuple[str, ...]
    relations: Mapping[str, Relation]

    def __post_init__(self) -> None:
        dom = tuple(sorted({str(x) for x in self.domain}))
        domset = set(dom)
        rels: dict[str, Relation] = {}
        for name in sorted(self.relations, key=str):
            pairs = frozenset((str(a), str(b)) for a, b in self.relations[name])
            for a, b in sorted(pairs):
                if a not in domset or b not in domset:
                    raise StructureError(
                        f"relation {name!r} mentions pair ({a!r}, {b!r}) outside the domain"
                    )
            rels[str(name)] = pairs
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "relations", rels)

    def __hash__(self) -> int:
        return hash((self.domain, tuple(sorted(self.relations.items()))))

    @cached_property
    def masks(self) -> Mapping[str, int]:
        """Each relation as a bit mask over the domain (see `relation_mask`),
        encoded once per structure; read-only."""
        return {name: relation_mask(rel, self.domain) for name, rel in self.relations.items()}

    @property
    def signature(self) -> tuple[str, ...]:
        return tuple(self.relations)

    def size(self) -> int:
        return len(self.domain)

    def rel(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise StructureError(f"unknown relation symbol {name!r}") from None


def _require_element(structure: Structure, element: str) -> None:
    if element not in set(structure.domain):
        raise StructureError(f"element not in domain: {element!r}")


def _reach_depths(structure: Structure, root: str, radius: int, mode: str) -> dict[str, int]:
    """Elements within distance `radius` of root, mapped to their depth."""
    if mode not in MODES:
        raise StructureError(f"unknown mode {mode!r} (expected one of {MODES})")
    _require_element(structure, root)
    succ: dict[str, set[str]] = {x: set() for x in structure.domain}
    for rel in structure.relations.values():
        for a, b in rel:
            succ[a].add(b)
            if mode == "undirected":
                succ[b].add(a)
    depths = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        if depths[x] == radius:
            continue
        for y in sorted(succ[x]):
            if y not in depths:
                depths[y] = depths[x] + 1
                queue.append(y)
    return depths


def induced(structure: Structure, elements: Iterable[str]) -> Structure:
    keep = {str(x) for x in elements}
    extra = keep - set(structure.domain)
    if extra:
        raise StructureError(f"element not in domain: {sorted(extra)[0]!r}")
    rels = {
        name: frozenset(p for p in rel if p[0] in keep and p[1] in keep)
        for name, rel in structure.relations.items()
    }
    return Structure(tuple(sorted(keep)), rels)


def ball(structure: Structure, root: str, radius: int, mode: str = "forward") -> Structure:
    if radius < 0:
        raise StructureError("radius must be nonnegative")
    return induced(structure, _reach_depths(structure, root, radius, mode))


def disjoint_union(left: Structure, right: Structure) -> Structure:
    if left.signature != right.signature:
        raise StructureError(
            f"signature mismatch: {left.signature} vs {right.signature}"
        )
    dom = tuple(f"L:{x}" for x in left.domain) + tuple(f"R:{x}" for x in right.domain)
    rels: dict[str, Relation] = {}
    for name in left.signature:
        pairs = {(f"L:{a}", f"L:{b}") for a, b in left.relations[name]}
        pairs |= {(f"R:{a}", f"R:{b}") for a, b in right.relations[name]}
        rels[name] = frozenset(pairs)
    return Structure(dom, rels)


def is_homomorphism(source: Structure, target: Structure, mapping: Mapping[str, str]) -> bool:
    if set(mapping) != set(source.domain):
        return False
    targets = set(target.domain)
    if any(v not in targets for v in mapping.values()):
        return False
    for name, rel in source.relations.items():
        trel = target.relations.get(name, frozenset())
        for a, b in rel:
            if (mapping[a], mapping[b]) not in trel:
                return False
    return True


def homomorphisms(source: Structure, target: Structure) -> list[dict[str, str]]:
    """All homomorphisms source -> target, in deterministic order.

    Elements are assigned in domain order and candidates tried in the
    target's domain order.
    """
    if source.signature != target.signature:
        raise StructureError(
            f"signature mismatch: {source.signature} vs {target.signature}"
        )
    order = list(source.domain)
    index = {v: i for i, v in enumerate(order)}
    # Pairs become checkable once their later endpoint gets assigned.
    by_step: list[list[tuple[str, str, str]]] = [[] for _ in order]
    for name, rel in source.relations.items():
        for a, b in sorted(rel):
            by_step[max(index[a], index[b])].append((name, a, b))
    results: list[dict[str, str]] = []
    assignment: dict[str, str] = {}

    def backtrack(step: int) -> None:
        if step == len(order):
            results.append(dict(assignment))
            return
        v = order[step]
        for c in target.domain:
            assignment[v] = c
            ok = True
            for name, a, b in by_step[step]:
                if (assignment[a], assignment[b]) not in target.relations[name]:
                    ok = False
                    break
            if ok:
                backtrack(step + 1)
        del assignment[v]

    if not order:
        return [{}]
    backtrack(0)
    return results


def _neighbours(structure: Structure) -> dict[tuple[str, bool, str], list[str]]:
    """(symbol, forward, element) -> the element's neighbours that way, sorted."""
    out: dict[tuple[str, bool, str], list[str]] = {}
    for name, rel in structure.relations.items():
        for a, b in sorted(rel):
            out.setdefault((name, True, a), []).append(b)
            out.setdefault((name, False, b), []).append(a)
    return out


def isomorphism(
    left: Structure,
    anchors_left: Sequence[str] = (),
    right: Structure | None = None,
    anchors_right: Sequence[str] = (),
) -> dict[str, str] | None:
    """A pointed isomorphism mapping anchors pointwise, or None.

    Backtracking in connectivity order, as VF2 does (Cordella, Foggia,
    Sansone and Vento, *IEEE TPAMI* 26(10), 2004): the anchors first, then
    breadth-first from matched elements along edges in either direction,
    then the rest in domain order.  An element with matched neighbours is
    tried only against the neighbours of their images, along the same
    symbol and direction (the fewest such).  A candidate is accepted only
    if it agrees with itself and with every matched element on every
    relation in both directions, so a full match is an isomorphism.
    """
    if right is None:
        raise StructureError("isomorphism requires a right-hand structure")
    if len(anchors_left) != len(anchors_right):
        raise StructureError("anchor tuples must have equal length")
    for a in anchors_left:
        _require_element(left, a)
    for b in anchors_right:
        _require_element(right, b)
    names = left.signature
    if (
        left.size() != right.size()
        or names != right.signature
        or any(len(left.relations[n]) != len(right.relations[n]) for n in names)
    ):
        return None
    seed: dict[str, str] = {}
    for x, y in zip(anchors_left, anchors_right):
        if seed.setdefault(x, y) != y:
            return None

    lnext, rnext = _neighbours(left), _neighbours(right)
    ways = [(name, way) for name in names for way in (True, False)]
    order = list(seed)
    placed = set(order)
    roots = iter(left.domain)
    done = 0
    while len(order) < left.size():
        if done == len(order):
            order.append(next(x for x in roots if x not in placed))
            placed.add(order[-1])
        for name, way in ways:
            fresh = [y for y in lnext.get((name, way, order[done]), ()) if y not in placed]
            order += fresh
            placed.update(fresh)
        done += 1

    fwd: dict[str, str] = {}
    used: set[str] = set()
    rels = [(left.relations[n], right.relations[n]) for n in names]

    def agrees(x: str, y: str) -> bool:
        return all(
            ((x, x) in lrel) == ((y, y) in rrel)
            and all(
                ((x, a) in lrel) == ((y, b) in rrel) and ((a, x) in lrel) == ((b, y) in rrel)
                for a, b in fwd.items()
            )
            for lrel, rrel in rels
        )

    def candidates(x: str) -> Iterator[str]:
        if x in seed:
            pool: Sequence[str] = (seed[x],)
        else:
            pool = min(
                (
                    rnext.get((name, way, fwd[p]), ())
                    for name, way in ways
                    for p in lnext.get((name, not way, x), ())
                    if p in fwd
                ),
                key=len,
                default=right.domain,
            )
        return (y for y in pool if y not in used and agrees(x, y))

    # One candidate iterator per matched position, so no recursion.
    tries = [candidates(order[0])] if order else []
    while tries:
        x = order[len(tries) - 1]
        if x in fwd:
            used.discard(fwd.pop(x))
        y = next(tries[-1], None)
        if y is None:
            tries.pop()
            continue
        fwd[x] = y
        used.add(y)
        if len(fwd) == len(order):
            return fwd
        tries.append(candidates(order[len(tries)]))
    return None if order else {}


# --- bounded-exhaustive enumeration -----------------------------------------

def _domain_of(size: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(1, size + 1))


def space_size(size: int, cls: StructureClass) -> int:
    """Number of relations a single symbol can take on a domain of `size`."""
    if cls is StructureClass.ALL:
        return 2 ** (size * size)
    if cls is StructureClass.PARTIAL_FUNCTIONS:
        return (size + 1) ** size
    if cls is StructureClass.TOTAL_FUNCTIONS:
        return size ** size
    return _injective_count(size)


@cache
def _injective_count(size: int) -> int:
    """Injective partial functions on `size` elements: choose j sources,
    j targets and a bijection between them."""
    return sum(comb(size, j) ** 2 * factorial(j) for j in range(size + 1))


# --- the bit-matrix codec and kernels -------------------------------------------
#
# A relation over a domain d_0 < ... < d_{k-1} is a k x k bit matrix held in
# an int (or a uint64 word, see `bulk`): bit i*k + j stands for the pair
# (d_i, d_j).  The domain is always a tuple; for the structures of size k
# built here it is `_sorted_domain(k)`, the order a `Structure` stores.

@cache
def _sorted_domain(size: int) -> tuple[str, ...]:
    """e1..e_size as a `Structure` holds them, sorted as strings (e10 before e2)."""
    return tuple(sorted(_domain_of(size)))


@lru_cache(maxsize=256)
def _bit_pairs(domain: tuple[str, ...]) -> tuple[Pair, ...]:
    return tuple((a, b) for a in domain for b in domain)


@lru_cache(maxsize=256)
def _pair_bits(domain: tuple[str, ...]) -> dict[Pair, int]:
    return {pair: 1 << p for p, pair in enumerate(_bit_pairs(domain))}


_BYTE_BITS = tuple(tuple(p for p in range(8) if byte >> p & 1) for byte in range(256))


def _mask_pairs(mask: int, domain: tuple[str, ...]) -> Relation:
    """Decode a bit mask over a domain; the inverse of `relation_mask`."""
    pairs = _bit_pairs(domain)
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return frozenset(
        [
            pairs[base + p]
            for base, byte in zip(range(0, 8 * len(data), 8), data)
            if byte
            for p in _BYTE_BITS[byte]
        ]
    )


def relation_mask(rel: Iterable[Pair], domain: tuple[str, ...]) -> int:
    """Encode a relation over a domain."""
    # The bits of distinct pairs are distinct powers of two, so their sum is their union.
    return sum(map(_pair_bits(domain).__getitem__, rel))


def masks_to_structure(masks: Mapping[str, int], k: int) -> Structure:
    """The structure on e1..ek with these masks, numpy words accepted; the
    inverse of `Structure.masks`."""
    domain = _sorted_domain(k)
    return Structure(domain, {name: _mask_pairs(int(m), domain) for name, m in masks.items()})


MAX_BULK_SIZE = 8


class BulkOps:
    """The kernel of every catalogue operation on k x k bit matrices.

    With `batch` the operands are uint64 arrays (k <= MAX_BULK_SIZE) and the
    constants are np.uint64; without it they are Python ints, of any size.
    Row i of a matrix is bits i*k .. i*k + k - 1; `col0` marks column 0 and
    `row0` row 0, so an indicator bit at i*k times `row0` fills row i, and
    one at j times `col0` fills column j.
    """

    def __init__(self, k: int, batch: bool = True):
        if batch and not 1 <= k <= MAX_BULK_SIZE:
            raise ValueError(f"bulk evaluation supports sizes 1..{MAX_BULK_SIZE}, got {k}")
        word = np.uint64 if batch else int
        self.k = k
        self.batch = batch
        self.mask_all = word((1 << (k * k)) - 1)
        self.diag = word(sum(1 << (i * k + i) for i in range(k)))
        self.row0 = word((1 << k) - 1)
        self.col0 = word(sum(1 << (i * k) for i in range(k)))
        self.constants = {"id": self.diag, "empty": word(0), "top": self.mask_all}
        # (b, b*k) for the columns and rows after the first.
        self._shifts = tuple((word(b), word(b * k)) for b in range(1, k))
        # Each row's top bit, its other bits, and the shift from its top
        # bit to its first.
        self._high = word(sum(1 << (i * k + k - 1) for i in range(k)))
        self._low = self.mask_all ^ self._high
        self._top = word(max(k - 1, 0))
        # Row shifts that fold the lower half of the rows left onto the upper.
        halves, rows = [], k
        while rows > 1:
            rows = (rows + 1) // 2
            halves.append(word(rows * k))
        self._halves = tuple(halves)
        # Converse swaps the pairs d places off the diagonal: (i, i+d) moves
        # d*(k-1) bits up to (i+d, i), and back.
        self._swaps = tuple(
            (
                word(sum(1 << (i * k + i + d) for i in range(k - d))),
                word(sum(1 << ((i + d) * k + i) for i in range(k - d))),
                word(d * (k - 1)),
            )
            for d in range(1, k)
        )

    def _rowany(self, r):
        """Bit i*k set where row i of r is nonempty.  Adding the low bits to
        themselves carries into a row's top bit exactly when one is set, and
        never past it (Warren, *Hacker's Delight*, 2nd ed., section 6-1)."""
        return ((((r & self._low) + self._low) | r) & self._high) >> self._top

    def _colany(self, r):
        """Bit j set where column j of r is nonempty: the rows folded in halves."""
        for shift in self._halves:
            r = r | (r >> shift)
        return r & self.row0

    def _diagonal(self, rows):
        """The identity restricted to the rows with an indicator bit at i*k."""
        return (rows * self.row0) & self.diag

    def complement(self, r):
        return r ^ self.mask_all

    def converse(self, r):
        out = r & self.diag
        for upper, lower, shift in self._swaps:
            out |= ((r & upper) << shift) | ((r & lower) >> shift)
        return out

    def dom(self, r):
        return self._diagonal(self._rowany(r))

    def ran(self, r):
        return (self._colany(r) * self.col0) & self.diag

    def antidom(self, r):
        return self._diagonal(self._rowany(r) ^ self.col0)

    def union(self, r, s):
        return r | s

    def inter(self, r, s):
        return r & s

    def diff(self, r, s):
        return r & ~s

    def compose(self, r, s):
        # Column b of r as indicator bits at a*k, times row b of s, gives
        # every (a, c) with (a, b) in r and (b, c) in s.
        col0, row0 = self.col0, self.row0
        out = (r & col0) * (s & row0)
        for b, bk in self._shifts:
            out |= ((r >> b) & col0) * ((s >> bk) & row0)
        return out

    def semijoin(self, r, s):
        sources = self._colany(self._diagonal(self._rowany(s)))
        return r & (sources * self.col0)

    def _free(self, r):
        """The rows where r is empty, filled."""
        return (self._rowany(r) ^ self.col0) * self.row0

    def prefunion(self, r, s):
        return r | (s & self._free(r))

    def injunion(self, r, s):
        straight = self.prefunion(r, s)
        reverse = self.prefunion(self.converse(r), self.converse(s))
        return straight & self.converse(reverse)

    def grid(self, op: str, xs: Sequence) -> Iterator:
        """`op(a, b)` for a in xs for b in xs, a-major, one value at a time.

        Each right operand is prepared once per call and each left operand
        once per row of the table: compose on Python ints runs
        `_compose_rows`, semijoin masks a with b's source columns, and
        prefunion fills a's free rows from b.
        """
        if op == "compose" and not self.batch:
            yield from self._compose_rows(xs)
        elif op == "semijoin":
            sources = [self.semijoin(self.mask_all, b) for b in xs]
            for a in xs:
                yield from map(and_, repeat(a), sources)
        elif op == "prefunion":
            for a in xs:
                yield from map(or_, repeat(a), map(and_, xs, repeat(self._free(a))))
        else:
            kernel = getattr(self, op)
            for a in xs:
                yield from map(kernel, repeat(a), xs)

    def _compose_rows(self, xs: Sequence[int]) -> Iterator[int]:
        """The compose table of int masks as array passes, one row of the
        table (one left operand a) at a time.

        Each right operand b is held as k rows of ceil(k/64) uint64 words,
        below which sits one empty row.  Row i of a ; b is the OR of b's
        rows j over the pairs (i, j) of a, so the rows at a's pairs are
        gathered for every b at once and each row of a is folded by one
        `bitwise_or.reduceat`.  Every row of a also lists the empty row, so
        no fold is over nothing.  The folded rows are then packed back at
        stride k into one int per b.
        """
        k, n = self.k, len(xs)
        width, size = -(-k // 64), -(-k * k // 8)  # words per row, bytes per mask
        data = b"".join(x.to_bytes(size, "little") for x in xs)
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8).reshape(n, size),
            axis=1, count=k * k, bitorder="little",
        ).reshape(n, k, k)
        padded = np.zeros((n, k + 1, 64 * width), dtype=np.uint8)
        padded[:, :k, :k] = bits
        # rows[j, t, b] is word t of row j of xs[b]; row k is the empty row.
        words = np.packbits(padded, axis=2, bitorder="little").view(np.uint64)
        rows = np.ascontiguousarray(words.transpose(1, 2, 0))
        pairs = np.ones((n, k, k + 1), dtype=bool)
        pairs[:, :, :k] = bits
        # Word t of row i lands at bit i*k + 64t of the mask: its low part in
        # mask word q and its high part in word q + 1.  Consecutive starts
        # lie at most 64 bits apart, so every q up to the last receives a
        # low part, and the words of each q are adjacent.
        starts = (np.arange(k)[:, None] * k + 64 * np.arange(width)).ravel()
        low = (starts & 63).astype(np.uint64)[:, None]
        high = np.uint64(63) - low  # after a shift by one, so low 0 sends nothing up
        groups = np.flatnonzero(np.diff(starts >> 6, prepend=-1))
        mask_words = -(-k * k // 64)
        spans = [slice(8 * mask_words * b, 8 * mask_words * (b + 1)) for b in range(n)]
        one = np.uint64(1)
        for row_pairs in pairs:
            i, j = np.nonzero(row_pairs)
            folded = np.bitwise_or.reduceat(rows[j], np.flatnonzero(np.diff(i, prepend=-1)))
            folded = folded.reshape(k * width, n)
            packed = np.zeros((len(groups) + 1, n), dtype=np.uint64)
            packed[:-1] = np.bitwise_or.reduceat(folded << low, groups)
            packed[1:] |= np.bitwise_or.reduceat((folded >> one) >> high, groups)
            out = packed[:mask_words].T.tobytes()
            yield from map(int.from_bytes, map(out.__getitem__, spans), repeat("little"))

    def value(self, op: str, args: Sequence):
        """One node's value from its children's values."""
        if args:
            return getattr(self, op)(*args)
        return self.constants[op]

    def apply(self, op: str, args: Sequence[np.ndarray], n: int) -> np.ndarray:
        """`value` over a batch of n structures: constants become n words."""
        if args:
            return getattr(self, op)(*args)
        return np.full(n, self.constants[op], dtype=np.uint64)


@cache
def int_ops(k: int) -> BulkOps:
    """The kernel table on Python ints, for one structure of size k."""
    return BulkOps(k, batch=False)


@cache
def batch_ops(k: int) -> BulkOps:
    """The kernel table on uint64 arrays, for batches of size-k structures."""
    return BulkOps(k)


@cache
def injective_codes(size: int) -> tuple[int, ...]:
    """Partial-function codes whose decoded relation is injective, ascending:
    those whose nonzero digits are distinct.  Built from the most
    significant digit down, extending each prefix by its fresh digits in
    ascending order, so no non-injective code is ever visited."""
    base = size + 1
    digits = np.arange(base, dtype=np.int64)
    bits = np.left_shift(1, digits) & ~1  # the bit of each nonzero digit
    codes = used = np.zeros(1, dtype=np.int64)
    for _ in range(size):
        fresh = (used[:, None] & bits) == 0
        codes = (codes[:, None] * base + digits)[fresh]
        used = (used[:, None] | bits)[fresh]
    return tuple(codes.tolist())


@cache
def _injective_words(size: int) -> np.ndarray:
    """`injective_codes` as a read-only uint64 array, for batch decoding."""
    words = np.asarray(injective_codes(size), dtype=np.uint64)
    words.flags.writeable = False
    return words


def _digit_masks(digits: Iterable, k: int, partial: bool):
    """Function masks over e1..ek from digits, the p-th giving the image of
    e_{p+1}: digit d is an edge to e_{d+1}, or with `partial` to e_d, 0
    meaning none.  One shift places each digit.  The digits are Python ints
    or uint64 arrays, and so are the masks."""
    masks = 0
    for p, digit in enumerate(digits):
        masks = masks | (1 << digit >> partial) << p * k
    return masks


def decode_symbol_masks(
    indices, k: int, cls: StructureClass, symbols: Sequence[str]
) -> dict:
    """Each symbol's mask for one int index (any k) or, as arrays, for a
    uint64 array of indices (k <= MAX_BULK_SIZE).

    Symbols go in sorted order, the first varying slowest.  An ALL-class
    code is the mask itself, over `_sorted_domain(k)`.  A function code has
    a digit per element, e1's least significant, in base k + 1 (partial) or
    k (total), placed over `_domain_of(k)`; an injective code indexes
    `injective_codes(k)`.  The two domains differ from size 10 on.
    """
    ordered = sorted(symbols)
    per = space_size(k, cls)
    partial = cls is not StructureClass.TOTAL_FUNCTIONS
    base = k + partial
    out, rest = {}, indices
    for name in reversed(ordered):
        # uint64 indices lie below a space of 2**64 (ALL at k = 8): no reduction.
        wide = per >> 64 and not isinstance(rest, int)
        codes, rest = (rest, rest & 0) if wide else (rest % per, rest // per)
        if cls is StructureClass.ALL:
            out[name] = codes
            continue
        if cls is StructureClass.INJECTIVE_PARTIAL_FUNCTIONS:
            table = injective_codes(k) if isinstance(codes, int) else _injective_words(k)
            codes = table[codes]
        out[name] = _digit_masks((codes // base**p % base for p in range(k)), k, partial)
    return {name: out[name] for name in ordered}


# --- orbit-minimal indices ---------------------------------------------------
#
# Up to MAX_BULK_SIZE an index is its symbols' code tuple read as one number,
# the first symbol's code most significant, so index order is the
# lexicographic order of code tuples, and a relabelling of e1..ek acts on each
# code alone.  An index is orbit-minimal when no relabelling gives a smaller
# one.  Marks need a one-symbol relabel table of k! codes per code.  They are
# built for two or more symbols, where that table is smaller than the space it
# filters, and up to `_RELABEL_LIMIT` entries, past which the space far outgrows
# the default budget: ALL at size 5 needs 5! * 2**25 entries for 2**50 indices.

_RELABEL_LIMIT = 1 << 21
_MARK_BLOCK = 1 << 15


def orbit_marked(count: int, k: int, cls: StructureClass) -> bool:
    """Whether `orbit_minimal` filters the structures of `count` symbols and
    size k; where it does not, it returns every index."""
    per = space_size(k, cls)
    return count >= 2 and 2 <= k <= MAX_BULK_SIZE and factorial(k) * per <= _RELABEL_LIMIT


def orbit_minimal(start: int, end: int, k: int, cls: StructureClass, count: int) -> np.ndarray:
    """The orbit-minimal indices in [start, end) of the structures of
    `count` symbols and size k, ascending, as uint64; every index there
    where `orbit_marked` is false."""
    if not orbit_marked(count, k, cls) or start >= end:
        return np.arange(start, end, dtype=np.uint64)
    found = []
    for block in range(start // _MARK_BLOCK, (end - 1) // _MARK_BLOCK + 1):
        base = block * _MARK_BLOCK
        marks = np.unpackbits(_block_marks(count, k, cls, block), bitorder="little")
        lo, hi = max(start - base, 0), min(end - base, _MARK_BLOCK)
        found.append(np.flatnonzero(marks[lo:hi]) + (base + lo))
    return np.concatenate(found).astype(np.uint64)


@lru_cache(maxsize=4096)  # 4 KB a block
def _block_marks(count: int, k: int, cls: StructureClass, block: int) -> np.ndarray:
    """The orbit-minimal marks of one block of `_MARK_BLOCK` indices, as
    read-only little-endian packed bits.

    A code tuple is least in its orbit exactly when its first code is least
    among that code's images and no relabelling fixing the first code
    lowers the rest: one that moves the first code raises it.  So only the
    first code's stabiliser is tried on the rest, lexicographically."""
    per = space_size(k, cls)
    start = block * _MARK_BLOCK
    indices = np.arange(start, min(start + _MARK_BLOCK, per**count), dtype=np.uint64)
    table, least, fixing, fixes = _relabelling(k, cls)
    codes = []
    for _ in range(count):
        codes.append((indices % per).astype(np.intp))
        indices = indices // per
    first, *rest = codes[::-1]
    keep, stabiliser = least[first], fixing[first]
    for group in np.flatnonzero(np.bincount(stabiliser[keep], minlength=len(fixes))):
        perms = fixes[group][:, None]
        rows = np.flatnonzero(keep & (stabiliser == group))
        # -1, 0, 1: the relabelled rest below, equal to or above the rest so far.
        order = np.zeros((len(perms), len(rows)), dtype=np.int8)
        for code in rest:
            mine = code[rows]
            image = table[perms, mine]
            order = np.where(order == 0, (image > mine).view(np.int8) - (image < mine), order)
        keep[rows] = (order >= 0).all(axis=0)
    packed = np.packbits(keep, bitorder="little")
    packed.flags.writeable = False
    return packed


@cache
def _relabelling(k: int, cls: StructureClass):
    """The one-symbol relabel table of size k: (table, least, fixing, fixes).

    table[p, c] is the code of code c relabelled by the p-th permutation of
    e1..ek other than the identity, in `itertools.permutations` order;
    least[c] says whether c is least among its images; fixes lists the
    distinct stabilisers, as table rows, and fixing[c] indexes c's.

    Only the swaps of adjacent elements are relabelled bit by bit.  A
    permutation other than the identity puts some i + 1 before i; swapping
    the two gives a permutation earlier in lexicographic order, so each row
    is one swap's row read through an earlier row."""
    per = space_size(k, cls)
    masks = decode_symbol_masks(np.arange(per, dtype=np.uint64), k, cls, ("",))[""]
    ranked = np.argsort(masks)

    def relabelled(image_of):
        image = np.zeros_like(masks)
        for a, b in product(range(k), repeat=2):
            cell = np.uint64(image_of[a] * k + image_of[b])
            image |= (masks >> np.uint64(a * k + b) & np.uint64(1)) << cell
        return ranked[np.searchsorted(masks, image, sorter=ranked)]

    swaps = [{i: i + 1, i + 1: i} for i in range(k - 1)]
    swapped = [relabelled([swap.get(a, a) for a in range(k)]) for swap in swaps]
    perms = list(permutations(range(k)))
    table = np.empty((len(perms) - 1, per), dtype=np.min_scalar_type(per - 1))
    row_of = {perms[0]: np.arange(per)}
    for p, perm in enumerate(perms[1:]):
        i = next(i for i in range(k - 1) if perm.index(i + 1) < perm.index(i))
        table[p] = swapped[i][row_of[tuple(swaps[i].get(v, v) for v in perm)]]
        row_of[perm] = table[p]
    codes = np.arange(per)
    least = (table >= codes).all(axis=0)
    fixed = table == codes
    _, first, fixing = np.unique(
        np.packbits(fixed, axis=0), axis=1, return_index=True, return_inverse=True
    )
    fixing = fixing.reshape(-1).astype(np.min_scalar_type(len(first) - 1))
    fixes = tuple(np.flatnonzero(fixed[:, c]) for c in first)
    for array in (table, least, fixing, *fixes):
        array.flags.writeable = False
    return table, least, fixing, fixes


def structure_from_index(
    signature: Sequence[str], size: int, cls: StructureClass, index: int
) -> Structure:
    """The index-th structure of the given size (see `decode_symbol_masks`)."""
    masks = decode_symbol_masks(index, size, cls, signature)
    if cls is StructureClass.ALL:
        return masks_to_structure(masks, size)
    return drawn_structure(masks, size)


def count_structures(signature: Sequence[str], size: int, cls: StructureClass) -> int:
    return space_size(size, cls) ** len(signature)


def enumerate_structures(
    signature: Sequence[str],
    max_size: int,
    cls: StructureClass = StructureClass.ALL,
) -> Iterator[Structure]:
    """All structures with domain e1..ek for 1 <= k <= max_size, deterministically.

    Sizes ascend; within a size the first symbol (in sorted order) varies
    slowest. No canonization: isomorphic duplicates are intentional.
    """
    for size in range(1, max_size + 1):
        total = count_structures(signature, size, cls)
        for index in range(total):
            yield structure_from_index(signature, size, cls, index)


def random_masks(
    rng: random.Random,
    size: int,
    signature: Sequence[str],
    cls: StructureClass = StructureClass.ALL,
) -> dict[str, int]:
    """One seeded random structure as a mask per symbol, bits laid out over
    `_domain_of(size)` (e1..e_size in numeric order); `drawn_structure`
    decodes it.  This is the one Python-RNG generator, and only
    `random_structure` draws through it; the checkers draw numpy streams."""
    partial = cls is not StructureClass.TOTAL_FUNCTIONS
    out: dict[str, int] = {}
    for name in sorted(signature):
        if cls is StructureClass.ALL:
            out[name] = rng.getrandbits(size * size) if size else 0
            continue
        if cls is StructureClass.INJECTIVE_PARTIAL_FUNCTIONS:
            targets = list(range(1, size + 1))
            rng.shuffle(targets)
            digits = [d if rng.random() < 0.5 else 0 for d in targets]
        else:
            digits = [rng.randrange(size + partial) for _ in range(size)]
        out[name] = _digit_masks(digits, size, partial)
    return out


def drawn_structure(masks: Mapping[str, int], size: int) -> Structure:
    """The structure a `random_masks` draw stands for."""
    dom = _domain_of(size)
    return Structure(dom, {name: _mask_pairs(mask, dom) for name, mask in masks.items()})


def random_structure(
    seed: int | random.Random,
    size: int,
    signature: Sequence[str],
    cls: StructureClass = StructureClass.ALL,
) -> Structure:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return drawn_structure(random_masks(rng, size, signature, cls), size)


# --- JSON file format --------------------------------------------------------

def structure_from_json(data: object) -> Structure:
    if not isinstance(data, dict):
        raise StructureError("structure document must be a JSON object")
    unknown = set(data) - {"domain", "relations"}
    if unknown:
        raise StructureError(f"unknown keys in structure document: {sorted(unknown)}")
    domain = data.get("domain", [])
    if not isinstance(domain, list) or not all(isinstance(x, str) for x in domain):
        raise StructureError('"domain" must be a list of strings')
    relations = data.get("relations", {})
    if not isinstance(relations, dict):
        raise StructureError('"relations" must be an object')
    rels: dict[str, Relation] = {}
    for name, pairs in relations.items():
        if not isinstance(pairs, list):
            raise StructureError(f"relation {name!r} must be a list of pairs")
        collected = set()
        for pair in pairs:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, str) for x in pair)
            ):
                raise StructureError(f"relation {name!r} has a malformed pair: {pair!r}")
            collected.add((pair[0], pair[1]))
        rels[name] = frozenset(collected)
    return Structure(tuple(domain), rels)


def structure_to_json(structure: Structure) -> dict:
    return {
        "domain": list(structure.domain),
        "relations": {
            name: [list(p) for p in sorted(rel)]
            for name, rel in structure.relations.items()
        },
    }


def load_structure(path: str | Path) -> Structure:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON in {path}: {exc}") from None
    return structure_from_json(data)
