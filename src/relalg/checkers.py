"""Bounded semantic checks: safety properties, the catalogue matrix,
and a reusable equivalence engine.

Every verdict here is bounded evidence, never a proof: "pass-bounded" means
no counterexample was found within the stated bounds, "fail" means a
concrete counterexample was found and re-verified before being reported.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial, wraps
from itertools import combinations, product

import numpy as np

from . import bulk, logic
from . import terms as tm
from .structures import (
    Structure,
    StructureClass,
    ball,
    count_structures,
    decode_symbol_masks,
    drawn_structure,
    induced,
    int_ops,
    is_homomorphism,
    isomorphism,
    masks_to_structure,
    orbit_minimal,
    relation_mask,
    structure_from_json,
    structure_to_json,
    _domain_of,
    _reach_depths,
    _sorted_domain,
)


class CheckError(ValueError):
    """A bound no check can run with."""


@dataclass(frozen=True)
class Bounds:
    """Search effort knobs shared by all checkers.

    max_size None lets each checker pick its default: exhaustive to size 3
    for two-symbol terms and size 4 otherwise.  Every check and
    `equivalence_report` spends `exhaustive_budget` by one rule (`_plan`):
    one budget over the sizes in turn, each size swept in full if the rest
    affords it, else drawn as one seeded random batch of what is left (at
    most 65,536) up to size 8, else skipped.  A check lists every size it
    did not sweep in full under `exhaustive_cut` in its verdict's bounds.
    Every exhaustive sweep evaluates one structure per isomorphism class
    (its orbit-minimal index, `_sweep`), but budgets, cuts and `checked`
    count labelled indices, so a verdict does not depend on the filter.  The
    homomorphism and subset checks cap their sampled phases at 200 draws
    of sizes up to 6 and 8, and record what they ran with in the verdict,
    the homomorphism check with its exhaustive `pair_size` (2).  Every
    sampled phase draws its sizes, then each size's structures, from numpy
    streams seeded from (seed, phase, size) (`_by_size`), and never draws
    a size its exhaustive phase covered in full; a negative seed raises
    `CheckError`.  The `bulk` module states each class's distribution.
    The forward and local checks compare every ball they meet:
    `balls_skipped` is always 0.  A negative `max_size`, `samples` or
    `exhaustive_budget`, or a `sample_size` below 1, raises `CheckError`:
    such bounds would cover nothing and still read as a pass.
    """

    max_size: int | None = None
    samples: int = 1000
    sample_size: int = 12
    exhaustive_budget: int = 600_000

    def __post_init__(self):
        for name in ("max_size", "samples", "exhaustive_budget"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise CheckError(f"{name} must be at least 0, got {value}")
        if self.sample_size < 1:
            raise CheckError(f"sample_size must be at least 1, got {self.sample_size}")

    def resolved_size(self, symbol_count: int) -> int:
        if self.max_size is not None:
            return self.max_size
        return 4 if symbol_count <= 1 else 3

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Verdict:
    property: str
    status: str  # "pass-bounded" | "fail"
    counterexample: dict | None
    bounds: dict
    seed: int

    @property
    def passed(self) -> bool:
        return self.status == "pass-bounded"

    def to_json(self) -> dict:
        return asdict(self)


# The term-independent arrays of the `_sharing` block in progress, by
# builder and arguments; None outside one.
_SHARED: ContextVar[dict | None] = ContextVar("relalg_checkers_shared", default=None)


@contextmanager
def _sharing():
    """Share the results of `_per_call` builders until the block ends.  A
    block inside another shares the outer block's: a check run by
    `catalogue_matrix` shares with every other cell of the matrix."""
    if _SHARED.get() is not None:
        yield
        return
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _per_call(build):
    """Wrap a builder of term-independent arrays.  Within a `_sharing`
    block its result is built once per arguments and handed to every
    caller that asks again; outside one, every call builds anew.  Either
    way the result's numpy arrays are read-only, so no caller can change
    what another reads."""

    @wraps(build)
    def shared(*args):
        memo = _SHARED.get()
        key = (build.__name__, *args)
        if memo is not None and key in memo:
            return memo[key]
        value = build(*args)
        _read_only(value)
        if memo is not None:
            memo[key] = value
        return value

    return shared


def _read_only(value) -> None:
    """Make the numpy arrays in `value` read-only, looking into tuples,
    lists and dict values."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _read_only(item)


_CHUNK = 1 << 15


@dataclass(frozen=True)
class SizeCoverage:
    """What one size's phase covered.  `checked` counts labelled structures
    (an exhaustive size's indices [0, checked)); `representatives` counts
    the structures actually evaluated: the orbit-minimal ones among them
    where `_sweep` filters, every checked one otherwise."""

    size: int
    total: int
    mode: str  # "exhaustive" | "sampled" | "skipped"
    checked: int
    representatives: int

    def to_json(self) -> dict:
        return asdict(self)


def _plan(symbols: tuple, cls: StructureClass, bounds: Bounds) -> tuple[SizeCoverage, ...]:
    """How each size up to the resolved bound is covered, one
    `SizeCoverage` per size: the one budget rule.  The
    `exhaustive_budget` labelled structures are spent over the sizes in
    turn.  A size is exhaustive, swept in full, when its total fits what is
    left and it is at most `MAX_BULK_SIZE` or the signature is empty (one
    structure per size); else, up to `MAX_BULK_SIZE` while budget is left,
    sampled: min(left, 65,536) draws of its `_BATCHES` stream; else
    skipped.  `representatives` repeats `checked` until a sweep counts."""
    left, plan = bounds.exhaustive_budget, []
    for size in range(1, bounds.resolved_size(len(symbols)) + 1):
        total = count_structures(symbols, size, cls)
        if total <= left and (size <= bulk.MAX_BULK_SIZE or not symbols):
            mode, n = "exhaustive", total
        elif size <= bulk.MAX_BULK_SIZE and left:
            mode, n = "sampled", min(left, 2 * _CHUNK)
        else:
            mode, n = "skipped", 0
        left -= n
        plan.append(SizeCoverage(size, total, mode, n, n))
    return tuple(plan)


def _cut(verdict: Verdict, plan: tuple[SizeCoverage, ...]) -> Verdict:
    """The verdict, listing under `exhaustive_cut` each size of the plan
    not swept in full; no key when every size was."""
    cut = [cover.to_json() for cover in plan if cover.mode != "exhaustive"]
    if cut:
        verdict.bounds["exhaustive_cut"] = cut
    return verdict


def _sweep(symbols: tuple, cls: StructureClass, cover: SizeCoverage, seed: int, first: int = 0):
    """Yield (run, indices, masks) for the structures one size's plan entry
    (`_plan`) covers, from position `first` on.

    An exhaustive size is every index, in labelled runs [start, end) of at
    most `_CHUNK` indices: `run` is range(start, end), `indices` the run's
    orbit-minimal indices (`structures.orbit_minimal`, every index where no
    marks are built) as a uint64 array, and `masks` their uint64 masks per
    symbol; past `MAX_BULK_SIZE`, every index of the run as a range and
    lists of Python ints.  A sampled size is one run of its `checked` draws
    from its `_BATCHES` stream, every position an index, from 0 whatever
    `first`.  A skipped size yields nothing.

    No verdict moves by the filter.  Every property the callers test is
    preserved by relabelling the domain, and a skipped index has an
    isomorphic copy that comes earlier in the same scan, which passes or
    fails as it does.  So the first failing structure is never skipped.
    Neither side of the first homomorphism-grid hit is: an earlier copy of
    either would make an earlier hit.  In the forward and local checks, a
    copy maps each anchor to one with the same ball key and the same row,
    so the first structure to show a key (each bucket's stored row,
    structure and anchor) is kept, and so is the first ball-row mismatch.
    """
    size, stop = cover.size, cover.checked
    if cover.mode == "sampled":
        masks = bulk.random_symbol_masks(_stream(seed, _BATCHES, size), stop, size, cls, symbols)
        yield range(stop), np.arange(stop, dtype=np.uint64), masks
        return
    for start in range(first, stop, _CHUNK):
        end = min(start + _CHUNK, stop)
        if size <= bulk.MAX_BULK_SIZE:
            indices = orbit_minimal(start, end, size, cls, len(symbols))
            yield range(start, end), indices, decode_symbol_masks(indices, size, cls, symbols)
        else:
            indices = range(start, end)
            decoded = [decode_symbol_masks(i, size, cls, symbols) for i in indices]
            yield indices, indices, {name: [m[name] for m in decoded] for name in sorted(symbols)}


# The sampled phases, each with its own streams (`_stream`).
_POOL, _PAIRS, _SUBSETS, _BATCHES, _TAIL = range(5)


def _stream(seed: int, phase: int, *size: int) -> np.random.Generator:
    """The generator of a sampled phase's sizes, or of one size's draws.
    Every check draws its sizes before anything else, so it refuses a
    negative seed whichever phase would end it."""
    if seed < 0:
        raise CheckError(f"seed must be at least 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(phase, *size)))


def _by_size(seed: int, phase: int, sizes: np.ndarray, plan: tuple = ()):
    """(size, positions, generator) for each size in `sizes` that `plan`
    does not sweep in full, ascending: where it was drawn, and its own
    stream, so its draws do not depend on the other sizes.  A size an
    exhaustive phase passed in full is not drawn: each draw would equal a
    structure that phase passed (at any size for the function classes)."""
    swept = {cover.size for cover in plan if cover.mode == "exhaustive"}
    for size in sorted(set(sizes.tolist()) - swept):
        yield size, np.flatnonzero(sizes == size), _stream(seed, phase, size)


@_per_call
def _pool(
    symbols: tuple[str, ...], cls: StructureClass, bounds: Bounds, seed: int
) -> tuple[tuple[SizeCoverage, ...], tuple[tuple[int, dict, np.ndarray], ...]]:
    """The structures the fp/tfp/ifp, forward and local checks scan, as
    (plan, groups): the `_plan` it followed, and one (size, masks,
    positions) group per size, sizes ascending.

    The pool is what `_sweep` visits of each size up to the resolved bound,
    as `_plan` covers it, then `samples` draws of sizes 1..sample_size from
    the pool's streams (`_by_size`), of which those of a swept size are
    neither drawn nor pooled: each equals a swept structure, so it shows
    no failure and no ball key that an earlier structure did not.
    `positions` numbers a group's structures in that order, ascending, by
    the place each holds in the labelled pool.  Each symbol's masks are a
    uint64 array up to `MAX_BULK_SIZE` and a list of Python ints beyond,
    over e1..e_size as `drawn_structure` reads them.  ALL-class codes lie
    over the string-sorted domain, which differs from size 10 on; no check
    pools the ALL class.
    """
    names = sorted(symbols)
    parts: dict[int, list[tuple[dict, np.ndarray]]] = {}
    start = 0
    sizes = _stream(seed, _POOL).integers(1, bounds.sample_size + 1, bounds.samples)
    plan = _plan(symbols, cls, bounds)
    for cover in plan:
        for _, indices, masks in _sweep(symbols, cls, cover, seed):
            positions = start + np.asarray(indices, dtype=np.int64)
            parts.setdefault(cover.size, []).append((masks, positions))
        start += cover.checked
    for size, at, rng in _by_size(seed, _POOL, sizes, plan):
        masks = bulk.random_symbol_masks(rng, len(at), size, cls, symbols)
        parts.setdefault(size, []).append((masks, start + at))

    def joined(chunks: list, size: int):
        if size <= bulk.MAX_BULK_SIZE:
            return np.concatenate(chunks)
        return [word for chunk in chunks for word in chunk]

    return plan, tuple(
        (
            size,
            {name: joined([masks[name] for masks, _ in chunks], size) for name in names},
            np.concatenate([positions for _, positions in chunks]),
        )
        for size, chunks in sorted(parts.items())
    )


def _values(obj, size: int, masks: dict, n: int):
    """A term's (or formula's) value on each of n structures given by their
    masks over e1..e_size: a uint64 array from the bulk kernels up to
    `MAX_BULK_SIZE`; beyond, Python ints, a term's from `int_ops(size)` and
    a formula's through its structure (`_scalar_value`)."""
    if size <= bulk.MAX_BULK_SIZE:
        # An empty signature has no masks to give the batch its length.
        return bulk.bulk_masks(obj, size, masks or {"": np.zeros(n, dtype=np.uint64)})
    each = (_structure_masks(masks, j) for j in range(n))
    if isinstance(obj, tm.Term):
        return [tm.evaluate(obj, m, int_ops(size).value) for m in each]
    return [relation_mask(_scalar_value(obj, drawn_structure(m, size)), _domain_of(size)) for m in each]


def _structure_masks(masks: dict, j: int) -> dict[str, int]:
    """The masks of a pool group's j-th structure."""
    return {name: int(m[j]) for name, m in masks.items()}


# --- class-invariant properties (fp / tfp / ifp) -------------------------------

def _fp_offence(rel, structure) -> dict | None:
    by_source: dict[str, set[str]] = {}
    for a, b in rel:
        by_source.setdefault(a, set()).add(b)
    for a in sorted(by_source):
        if len(by_source[a]) > 1:
            return {"source": a, "targets": sorted(by_source[a])}
    return None


def _tfp_offence(rel, structure) -> dict | None:
    bad = _fp_offence(rel, structure)
    if bad is not None:
        return bad
    sources = {a for a, _ in rel}
    for x in structure.domain:
        if x not in sources:
            return {"undefined_at": x}
    return None


def _ifp_offence(rel, structure) -> dict | None:
    bad = _fp_offence(rel, structure)
    if bad is not None:
        return bad
    by_target: dict[str, set[str]] = {}
    for a, b in rel:
        by_target.setdefault(b, set()).add(a)
    for b in sorted(by_target):
        if len(by_target[b]) > 1:
            return {"target": b, "sources": sorted(by_target[b])}
    return None


_INVARIANTS = {
    "function-preserving": (StructureClass.PARTIAL_FUNCTIONS, _fp_offence),
    "total-function-preserving": (StructureClass.TOTAL_FUNCTIONS, _tfp_offence),
    "injective-function-preserving": (
        StructureClass.INJECTIVE_PARTIAL_FUNCTIONS,
        _ifp_offence,
    ),
}


def _check_invariant(
    name: str, term: tm.Term, bounds: Bounds, seed: int
) -> Verdict:
    """Each pool group's values are tested for the class at once; the first
    failing pool position is re-derived one structure at a time."""
    cls, offence = _INVARIANTS[name]
    plan, groups = _pool(tm.term_signature(term), cls, bounds, seed)
    first = None
    for size, masks, positions in groups:
        values = _values(term, size, masks, len(positions))
        if size <= bulk.MAX_BULK_SIZE:
            bad = ~cls.contains(values, size)
        else:
            bad = np.array([not cls.contains(value, size) for value in values])
        if bad.any():
            j = int(np.argmax(bad))
            if first is None or positions[j] < first[0]:
                first = positions[j], size, _structure_masks(masks, j)
    if first is None:
        return _cut(Verdict(name, "pass-bounded", None, bounds.to_json(), seed), plan)
    _, size, masks = first
    if cls.contains(_int_value(term, size, masks), size):
        raise AssertionError("bulk and mask evaluation disagree on an invariant")
    structure = drawn_structure(masks, size)
    bad = offence(tm.eval_term(term, structure), structure)
    if bad is None:
        raise AssertionError("mask and scalar evaluation disagree on an invariant")
    counterexample = {
        "kind": "invariant",
        "term": tm.print_term(term),
        "structure": structure_to_json(structure),
        "offence": bad,
    }
    return _cut(_confirmed(Verdict(name, "fail", counterexample, bounds.to_json(), seed)), plan)


def check_function_preserving(
    term: tm.Term, bounds: Bounds | None = None, seed: int = 0
) -> Verdict:
    return _check_invariant("function-preserving", term, bounds or Bounds(), seed)


def check_total_function_preserving(
    term: tm.Term, bounds: Bounds | None = None, seed: int = 0
) -> Verdict:
    return _check_invariant("total-function-preserving", term, bounds or Bounds(), seed)


def check_injective_function_preserving(
    term: tm.Term, bounds: Bounds | None = None, seed: int = 0
) -> Verdict:
    return _check_invariant(
        "injective-function-preserving", term, bounds or Bounds(), seed
    )


# --- homomorphism safety --------------------------------------------------------

# Cells per block of the source x target grid.
_GRID = 1 << 16
# The exhaustive phase tries every map between structures up to this size.
_PAIR_SIZE = 2


def _homsafe_hits(term: tm.Term, symbols: tuple[str, ...], plan: tuple, seed: int):
    """Yield (source size, source masks, target size, target masks) for every
    pair of structures that `_sweep` visits of the sizes of `plan` with a
    homomorphism that moves a pair of the term's value outside it, sources
    then targets in enumeration (or draw) order.

    Every visited structure of each size is evaluated once.  Each of
    the kt**ks maps moves the source bits as `_move_bits` does.  Over a
    grid of sources by targets the map is a homomorphism where no moved
    symbol bit falls outside the target's mask, and it breaks safety where
    a moved value bit falls outside the target's value.  The grid runs in
    blocks of at most `_GRID` cells.
    """
    batches = {}
    for cover in plan:
        runs = list(_sweep(symbols, StructureClass.ALL, cover, seed))
        if runs:
            masks = {name: np.concatenate([run[name] for *_, run in runs]) for name in symbols}
            n = sum(len(indices) for _, indices, _ in runs)
            batches[cover.size] = masks, _values(term, cover.size, masks, n)
    rows = max(1, _GRID // max([1] + [len(v) for _, v in batches.values()]))
    cols = max(1, _GRID // rows)
    for ks, (smasks, svalue) in batches.items():
        for s0 in range(0, len(svalue), rows):
            s1 = min(s0 + rows, len(svalue))
            found: list[tuple[int, int, int]] = []
            for kt, (tmasks, tvalue) in batches.items():
                for t0 in range(0, len(tvalue), cols):
                    t1 = min(t0 + cols, len(tvalue))
                    bad = np.zeros((s1 - s0, t1 - t0), dtype=bool)
                    for h in product(range(kt), repeat=ks):
                        moves = [
                            (i * ks + j, h[i] * kt + h[j])
                            for i in range(ks)
                            for j in range(ks)
                        ]
                        moved = _move_bits(svalue[s0:s1], moves)
                        hit = (moved[:, None] & ~tvalue[None, t0:t1]) != 0
                        for name, mask in smasks.items():
                            moved = _move_bits(mask[s0:s1], moves)
                            hit &= (moved[:, None] & ~tmasks[name][None, t0:t1]) == 0
                        bad |= hit
                    found.extend((s0 + s, kt, t0 + t) for s, t in np.argwhere(bad).tolist())
            for s, kt, t in sorted(found):
                yield ks, _structure_masks(smasks, s), kt, _structure_masks(batches[kt][0], t)


def _violating_hom(ks: int, smasks: dict, svalue: int, kt: int, tmasks: dict, tvalue: int):
    """The first homomorphism moving a pair of `svalue` outside `tvalue`,
    as the image position of each source position, with the first such
    pair; None if none does.  Positions run in domain order, so maps come
    in the order `structures.homomorphisms` lists them and pairs sorted.

    Each later position keeps only the candidates that agree with the
    assigned ones (forward checking).  A branch ends once a position has
    none left or no value pair has candidate images outside `tvalue`; for
    id and top that happens at the root.
    """
    row = (1 << kt) - 1
    pairs = [divmod(p, ks) for p in range(ks * ks) if svalue >> p & 1]
    # outside[x]: the positions y with (x, y) outside the target's value.
    outside = [~tvalue >> (x * kt) & row for x in range(kt)]
    unlooped = sum(1 << x for x in range(kt) if outside[x] >> x & 1)
    # links[v]: (u, table) per edge between v and u, whose candidates
    # shrink to table[c] once v maps to c.
    links: list[list[tuple[int, list[int]]]] = [[] for _ in range(ks)]
    for name, smask in smasks.items():
        succ = [tmasks[name] >> (c * kt) & row for c in range(kt)]
        pred = [sum((succ[d] >> c & 1) << d for d in range(kt)) for c in range(kt)]
        for a, b in (divmod(p, ks) for p in range(ks * ks) if smask >> p & 1):
            links[a].append((b, succ))
            links[b].append((a, pred))

    def violable(cand: list[int]) -> bool:
        return any(
            cand[a] & unlooped
            if a == b
            else any(outside[x] & cand[b] for x in range(kt) if cand[a] >> x & 1)
            for a, b in pairs
        )

    def search(v: int, cand: list[int]):
        if not violable(cand):
            return None
        if v == ks:
            h = [c.bit_length() - 1 for c in cand]
            return h, next((a, b) for a, b in pairs if outside[h[a]] >> h[b] & 1)
        for c in range(kt):
            if cand[v] >> c & 1:
                narrowed = [*cand[:v], 1 << c, *cand[v + 1 :]]
                for u, table in links[v]:
                    narrowed[u] &= table[c]
                if all(narrowed) and (found := search(v + 1, narrowed)):
                    return found
        return None

    return search(0, [row] * ks)


def _confirmed(verdict: Verdict) -> Verdict:
    """A failure found on masks, re-established by `verify_counterexample`."""
    if not verify_counterexample(verdict):
        raise AssertionError(f"a {verdict.property} counterexample does not re-verify")
    return verdict


def _int_value(term: tm.Term, k: int, masks: dict[str, int]) -> int:
    """`bulk.bulk_eval_term` on one structure held in Python ints."""
    return tm.evaluate(term, masks, int_ops(k).value)


def check_homomorphism_safe(
    term: tm.Term, bounds: Bounds | None = None, seed: int = 0
) -> Verdict:
    """Images of term pairs under any homomorphism stay in the term's value.

    Every map between the structures of at most `pair_size` (2) elements
    that `_plan` covers, as a bit-mask grid (`_homsafe_hits`), then
    `sampled_pairs` random pairs of sizes up to `sampled_size_cap`: the
    phase's stream draws each pair's two sizes, and each size's stream
    (`_by_size`) its sources and targets in pair order.  A pair of sizes
    the grid swept in full is not searched: the grid tried every map
    between such structures.  `_violating_hom` searches each other pair to
    the end and re-derives a grid hit's map and pair.
    """
    bounds = bounds or Bounds()
    symbols = tm.term_signature(term)
    plan = _plan(symbols, StructureClass.ALL, replace(bounds, max_size=_PAIR_SIZE))
    swept = {cover.size for cover in plan if cover.mode == "exhaustive"}
    pairs = min(bounds.samples, 200)
    size_cap = min(bounds.sample_size, 6)
    sizes = _stream(seed, _PAIRS).integers(1, size_cap + 1, 2 * pairs)

    def failure(ks: int, smasks: dict, kt: int, tmasks: dict) -> Verdict | None:
        svalue, tvalue = _int_value(term, ks, smasks), _int_value(term, kt, tmasks)
        found = svalue and _violating_hom(ks, smasks, svalue, kt, tmasks, tvalue)
        if not found:
            return None
        (h, (a, b)), sd = found, _sorted_domain(ks)
        counterexample = {
            "kind": "homomorphism",
            "term": tm.print_term(term),
            "source": structure_to_json(masks_to_structure(smasks, ks)),
            "target": structure_to_json(masks_to_structure(tmasks, kt)),
            "map": {x: _sorted_domain(kt)[c] for x, c in zip(sd, h)},
            "pair": [sd[a], sd[b]],
        }
        return _confirmed(
            Verdict("homomorphism-safe", "fail", counterexample, bounds.to_json(), seed)
        )

    def counted(verdict: Verdict) -> Verdict:
        verdict.bounds["pair_size"] = _PAIR_SIZE
        verdict.bounds["sampled_pairs"] = pairs
        verdict.bounds["sampled_size_cap"] = size_cap
        return _cut(verdict, plan)

    for ks, source, kt, target in _homsafe_hits(term, symbols, plan, seed):
        verdict = failure(ks, source, kt, target)
        if verdict is None:
            raise AssertionError("bulk and mask evaluation disagree on a homomorphism")
        return counted(verdict)
    drawn: list = [None] * len(sizes)
    for size, at, rng in _by_size(seed, _PAIRS, sizes):
        masks = bulk.random_symbol_masks(rng, len(at), size, StructureClass.ALL, symbols)
        for j, slot in enumerate(at.tolist()):
            drawn[slot] = size, _structure_masks(masks, j)
    for (ks, source), (kt, target) in zip(drawn[::2], drawn[1::2]):
        # Draws' e1..ek order is their sorted domain: sizes stay below ten.
        verdict = not {ks, kt} <= swept and failure(ks, source, kt, target)
        if verdict:
            return counted(verdict)
    return counted(
        Verdict("homomorphism-safe", "pass-bounded", None, bounds.to_json(), seed)
    )


# --- induced-substructure safety ------------------------------------------------

def _move_bits(masks, moves: list[tuple[int, int]]):
    """Bit `dst` of the result is bit `src` of `masks`, for each move, on a
    Python int or a uint64 array.  The moves by one distance go in one
    shift.  On arrays a move's `src` or `dst` may instead be a uint8 array
    of `masks`'s shape, each element moving its own bit."""
    out = masks & 0
    picked: dict[int, int] = {}
    for src, dst in moves:
        if isinstance(src, int) and isinstance(dst, int):
            picked[src - dst] = picked.get(src - dst, 0) | 1 << src
        else:
            out |= (masks >> src & 1) << dst
    for shift, bits in picked.items():
        out |= (masks & bits) >> shift if shift >= 0 else (masks & bits) << -shift
    return out


def _proper_subsets(size: int):
    """The nonempty proper subsets of the positions, by size, each size in
    `combinations` order: the empty one has no pairs, the whole one is the
    structure, so no other subset can break ⊆-safety."""
    return (c for r in range(1, size) for c in combinations(range(size), r))


def _cells(subset: tuple[int, ...], size: int) -> list[int]:
    """The mask positions, in a structure of `size` elements, of the pairs
    over `subset`, in the induced structure's order: its pair (a, b) is
    the p-th cell for p = a * len(subset) + b."""
    return [i * size + j for i in subset for j in subset]


def _subset_bad(evaluate, size: int, masks: dict, whole, subset: tuple[int, ...]):
    """The pairs of the value on the substructure induced by `subset` that
    the whole structure's value lacks; `evaluate(k, masks)` gives a value."""
    moves = [(cell, p) for p, cell in enumerate(_cells(subset, size))]
    part = evaluate(len(subset), {name: _move_bits(m, moves) for name, m in masks.items()})
    return _move_bits(part, [(dst, src) for src, dst in moves]) & ~whole


def _subset_hit(term: tm.Term, size: int, masks: dict[str, int], subsets):
    """The first of `subsets` (sorted position tuples) whose induced value
    has a pair outside the structure's value, and the first such pair, or
    None."""
    evaluate = partial(_int_value, term)
    whole = evaluate(size, masks)
    for subset in subsets:
        bad = 0 < len(subset) < size and _subset_bad(evaluate, size, masks, whole, subset)
        if bad:
            return subset, divmod((bad & -bad).bit_length() - 1, size)
    return None


def _distinct(words: dict, k: int, shape: tuple[int, ...]):
    """The structures to evaluate the term on for the induced structures
    of k elements whose masks `words` holds per symbol, each array of the
    given shape: their masks, their count, and each induced structure's
    index among them, of the given shape in the narrowest unsigned dtype.

    Where the whole space of k-element structures is no larger than the
    induced ones (always, for the empty signature), it is that space,
    indexed by ALL-class index.  Otherwise it is the distinct induced
    structures, told apart by exact keys (`_key_ids`).
    """
    count = 1 << k * k * len(words)
    if count <= math.prod(shape):
        index = np.zeros(shape, dtype=np.min_scalar_type(count - 1))
        for t, masks in enumerate(words.values()):
            index |= masks.astype(index.dtype) << k * k * (len(words) - 1 - t)
        every = np.arange(count, dtype=np.uint64)
        return decode_symbol_masks(every, k, StructureClass.ALL, tuple(words)), count, index
    digits = np.stack(list(words.values()), axis=-1).astype(np.int64)
    ids = _key_ids(digits.reshape(-1, len(words)), 1 << k * k)
    ids = ids.astype(np.min_scalar_type(ids.max()))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    distinct = {name: masks.reshape(-1)[first] for name, masks in words.items()}
    return distinct, len(first), inverse.reshape(shape).astype(np.min_scalar_type(len(first) - 1))


@_per_call
def _chunk_parts(symbols: tuple[str, ...], cover: SizeCoverage, seed: int, start: int):
    """The structures induced on the proper subsets of the ALL-class
    structures that `_sweep` visits in the run from `start` of one size's
    plan entry.

    One (k, cells, distinct, count, inverse) per subset size k: row j of
    `cells` holds the `_cells` of the j-th k-element subset in
    `_proper_subsets` order, `distinct` and `count` the structures to
    evaluate the term on (`_distinct`), and inverse[j, i] the index among
    them of the structure subset j induces on the chunk's i-th structure."""
    _, indices, masks = next(_sweep(symbols, StructureClass.ALL, cover, seed, start))
    by_size: dict[int, list[list[int]]] = {}
    for subset in _proper_subsets(cover.size):
        by_size.setdefault(len(subset), []).append(_cells(subset, cover.size))
    parts = []
    for k, rows in by_size.items():
        narrow = np.min_scalar_type((1 << k * k) - 1)
        words = {
            name: np.stack(
                [_move_bits(m, [(c, p) for p, c in enumerate(row)]).astype(narrow) for row in rows]
            )
            for name, m in masks.items()
        }
        shape = (len(rows), len(indices))
        parts.append((k, np.array(rows, dtype=np.uint8), *_distinct(words, k, shape)))
    return tuple(parts)


def _subsafe_size(
    term: tm.Term, symbols: tuple[str, ...], cover: SizeCoverage, seed: int, failure
) -> Verdict | None:
    """The induced-substructure check on the structures `_sweep` visits of
    one size's plan entry, swept or sampled.

    Up to `bulk.MAX_BULK_SIZE`, per `_sweep` run, the term is evaluated
    once on each distinct structure the run's proper subsets induce
    (`_chunk_parts`), each value is laid over its subset's cells, and a
    structure fails where one of them has a pair outside the structure's
    own value; `failure` re-derives the run's first.  Larger sizes go to
    `failure` one structure at a time.
    """
    size = cover.size
    for run, indices, masks in _sweep(symbols, StructureClass.ALL, cover, seed):
        n = len(indices)
        if size > bulk.MAX_BULK_SIZE:
            for j in range(n):
                verdict = failure(size, _structure_masks(masks, j), _proper_subsets(size))
                if verdict is not None:
                    return verdict
            continue
        if not n:  # a run with no orbit-minimal index
            continue
        # Every pair an induced value puts on each structure.
        parts = np.zeros(n, dtype=np.uint64)
        for k, cells, distinct, count, inverse in _chunk_parts(symbols, cover, seed, run.start):
            values = _values(term, k, distinct, count)
            for row, structure in zip(cells.tolist(), inverse):
                parts |= _move_bits(values, list(enumerate(row)))[structure]
        bad = (parts & ~_values(term, size, masks, n)) != 0
        if bad.any():
            masks = _structure_masks(masks, int(np.argmax(bad)))
            verdict = failure(size, masks, _proper_subsets(size))
            if verdict is None:
                raise AssertionError("bulk and mask evaluation disagree on a subset")
            return verdict
    return None


@_per_call
def _subset_draws(symbols: tuple[str, ...], seed: int, sizes: tuple[int, ...], plan: tuple):
    """The sampled phase's draws of the given sizes, in draw order, and
    their batches: (draws, wholes, parts).

    Each draw is a structure and its 32 subsets, each uniform over the
    subsets of its positions, tried in the order drawn with repeats
    dropped.  Each size's stream (`_by_size`) draws its structures, then
    their subsets; a size `plan` sweeps in full is not drawn.  draws[i] is
    draw i as (size, masks, subsets), in Python ints and position tuples,
    None where not drawn.  `wholes` groups the drawn ones by size as (size,
    draw indices, masks).  `parts` groups the pairs of a draw and one of
    its proper subsets by subset size k, as (k, draw, cells, distinct,
    count, inverse): each pair's draw index and `_cells`, then the distinct
    induced structures as in `_chunk_parts`, inverse[i] naming the i-th
    pair's."""
    masks = {name: np.zeros(len(sizes), dtype=np.uint64) for name in symbols}
    draws: list = [None] * len(sizes)
    wholes = []
    pairs: dict[int, list[tuple[int, list[int]]]] = {}
    for size, rows, rng in _by_size(seed, _SUBSETS, np.array(sizes), plan):
        # Draws' e1..ek order is their sorted domain: sizes stay below ten.
        drawn = bulk.random_symbol_masks(rng, len(rows), size, StructureClass.ALL, symbols)
        codes = rng.integers(0, 1 << size, (len(rows), 32)).tolist()
        for name, m in drawn.items():
            masks[name][rows] = m
        wholes.append((size, rows, drawn))
        for j, i in enumerate(rows.tolist()):
            draws[i] = size, _structure_masks(drawn, j), list(map(_positions, dict.fromkeys(codes[j])))
            for subset in draws[i][2]:
                if 0 < len(subset) < size:
                    pairs.setdefault(len(subset), []).append((i, _cells(subset, size)))
    parts = []
    for k, found in sorted(pairs.items()):
        rows = np.array([i for i, _ in found])
        cells = np.array([c for _, c in found], dtype=np.uint8)
        moves = [(cells[:, p], p) for p in range(k * k)]
        words = {name: _move_bits(m[rows], moves) for name, m in masks.items()}
        parts.append((k, rows, cells, *_distinct(words, k, rows.shape)))
    return tuple(draws), tuple(wholes), tuple(parts)


def _positions(code: int) -> tuple[int, ...]:
    """The positions in a bit mask, ascending."""
    return tuple(p for p in range(code.bit_length()) if code >> p & 1)


def _sampled_flags(term: tm.Term, n: int, wholes: tuple, parts: tuple) -> np.ndarray:
    """Which of the n draws of `_subset_draws` have a subset whose value,
    laid over the subset's cells, has a pair outside the draw's value."""
    whole = np.zeros(n, dtype=np.uint64)
    for size, rows, masks in wholes:
        whole[rows] = _values(term, size, masks, len(rows))
    bad = np.zeros(n, dtype=bool)
    for k, rows, cells, distinct, count, inverse in parts:
        values = _values(term, k, distinct, count)[inverse]
        placed = _move_bits(values, [(p, cells[:, p]) for p in range(k * k)])
        bad[rows[(placed & ~whole[rows]) != 0]] = True
    return bad


def check_subseteq_safe(
    term: tm.Term, bounds: Bounds | None = None, seed: int = 0
) -> Verdict:
    """The term's value on an induced substructure embeds into its value
    on the whole structure.  The sampled phase's count and size cap are
    reported as `sampled_structures` and `sampled_size_cap`; its draws
    are `_subset_draws`, of sizes from the phase's stream.  Both phases
    evaluate the term on whole batches; the first failing structure (in
    enumeration order, then in draw order) is re-derived one subset at a
    time, which picks the reported subset and pair.  The sizes up to the
    resolved bound are covered as `_plan` decides, a sampled size by the
    exhaustive phase's code on its batch."""
    bounds = bounds or Bounds()
    symbols = tm.term_signature(term)
    draws = min(bounds.samples, 200)
    size_cap = min(bounds.sample_size, 8)
    sizes = _stream(seed, _SUBSETS).integers(1, size_cap + 1, draws)
    plan = _plan(symbols, StructureClass.ALL, bounds)

    def reported(verdict: Verdict) -> Verdict:
        verdict.bounds["sampled_structures"] = draws
        verdict.bounds["sampled_size_cap"] = size_cap
        return _cut(verdict, plan)

    def failure(size: int, masks: dict, subsets) -> Verdict | None:
        hit = _subset_hit(term, size, masks, subsets)
        if hit is None:
            return None
        (subset, (a, b)), names = hit, _sorted_domain(size)
        counterexample = {
            "kind": "subset",
            "term": tm.print_term(term),
            "structure": structure_to_json(masks_to_structure(masks, size)),
            "subset": [names[p] for p in subset],
            "pair": [names[a], names[b]],
        }
        return _confirmed(
            Verdict("subseteq-safe", "fail", counterexample, bounds.to_json(), seed)
        )

    for cover in plan:
        verdict = _subsafe_size(term, symbols, cover, seed, failure)
        if verdict is not None:
            return reported(verdict)
    drawn, wholes, parts = _subset_draws(symbols, seed, tuple(sizes.tolist()), plan)
    bad = _sampled_flags(term, draws, wholes, parts)
    if bad.any():
        verdict = failure(*drawn[int(np.argmax(bad))])
        if verdict is None:
            raise AssertionError("bulk and mask evaluation disagree on a subset")
        return reported(verdict)
    return reported(
        Verdict("subseteq-safe", "pass-bounded", None, bounds.to_json(), seed)
    )


# --- forward / local boundedness ------------------------------------------------

def _bit_rows(masks, size: int) -> np.ndarray:
    """A pool group's masks as (n, size, size) bools, [j, a, b] for the
    pair (e_{a+1}, e_{b+1}) of the j-th mask, from a uint64 array or a list
    of Python ints."""
    cells = size * size
    if isinstance(masks, np.ndarray):
        bits = masks[:, None] >> np.arange(cells, dtype=np.uint64) & np.uint64(1)
    else:
        width = (cells + 7) // 8
        data = b"".join(mask.to_bytes(width, "little") for mask in masks)
        octets = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)
        bits = np.unpackbits(octets, axis=1, count=cells, bitorder="little")
    return bits.astype(bool).reshape(-1, size, size)


def _successors(size: int, masks: dict, mode: str) -> list[np.ndarray]:
    """The symbols' masks, then in undirected mode their converses, each as
    an (n, size + 1) array of every element's successor by mask position,
    with `size` standing for no successor (and leading to none), in the
    narrowest unsigned dtype.  Forward pools hold partial functions and
    undirected pools injective ones, so every letter is a partial
    function."""
    named = [_bit_rows(m, size) for m in masks.values()]
    if mode == "undirected":
        named += [bits.transpose(0, 2, 1) for bits in named]
    letters = []
    for bits in named:
        succ = np.where(bits.any(axis=2), bits.argmax(axis=2), size)
        succ = succ.astype(np.min_scalar_type(size))
        letters.append(np.pad(succ, ((0, 0), (0, 1)), constant_values=size))
    return letters


@cache
def _domain_order(size: int) -> list[int]:
    """Mask positions in the order a `Structure` stores e1..e_size, sorted
    as strings: e1, e10, e11, e2, ... past nine elements."""
    return sorted(range(size), key=lambda p: f"e{p + 1}")


def _walk(letters: list[np.ndarray], n: int, size: int, radius: int):
    """BFS to `radius` from every anchor of a pool group's n structures at
    once, trying the letters in order; anchors run in `_domain_order`.

    Returns (index, depth, order).  `index` and `depth`, (n, size, size + 1),
    give each position's BFS index and distance from the anchor (-1 and
    radius + 1 where it is not reached; position `size` is "no
    successor"); `order`, (n, size, size), lists the positions by BFS
    index, `size` past the end.  The BFS queue runs by distance, so a BFS
    to a smaller radius visits a prefix of this order with the same
    indices: one walk serves every radius.  The arrays hold the narrowest
    signed integers that fit these entries and the ball keys built on them.
    """
    anchors = _domain_order(size)
    cells = np.arange(size)
    dtype = np.min_scalar_type(-(max(size, radius) + 2))
    index = np.full((n, size, size + 1), -1, dtype=dtype)
    depth = np.full((n, size, size + 1), radius + 1, dtype=dtype)
    order = np.full((n, size, size), size, dtype=dtype)
    index[:, cells, anchors] = 0
    depth[:, cells, anchors] = 0
    order[:, :, 0] = anchors
    length = np.ones((n, size), dtype=np.intp)
    for i in range(size):
        x = order[:, :, i]
        near = np.take_along_axis(depth, x[..., None], 2)[..., 0]
        active = near < radius
        if not active.any():
            break
        for succ in letters:
            y = np.take_along_axis(succ, x, 1)
            unseen = np.take_along_axis(index, y[..., None], 2)[..., 0] < 0
            j, a = np.nonzero(active & unseen & (y < size))
            y, at = y[j, a], length[j, a]
            index[j, a, y] = at
            depth[j, a, y] = near[j, a] + 1
            order[j, a, at] = y
            length[j, a] += 1
    return index, depth, order


def _ball_digits(letters, walk, symbol_count: int, radius: int, width: int):
    """Each anchor's access-word key of its ball of `radius`, as digits in
    0..width + 1: the ball's size, then for each ball element in BFS order
    the in-ball BFS index of its successor under each symbol (-1 for none),
    shifted by 2 and padded to `width` elements with 0.  The size comes
    first, so keys of balls of different sizes never meet in the padding.

    BFS from the anchor tries the letters in order.  Every letter is a
    partial function, so every anchored isomorphism preserves the order in
    which the BFS visits the ball, and the key is a complete invariant of
    the anchored ball.  Returns the (n, size, 1 + width * symbol_count)
    digits and each position's in-ball BFS index (-1 outside).
    """
    index, depth, order = walk
    n, size = order.shape[:2]
    reached = depth <= radius
    inside = np.where(reached, index, -1).astype(index.dtype)
    length = reached.sum(axis=2)
    past = np.arange(size) >= length[..., None]
    entries = np.zeros((n, size, width, symbol_count), dtype=index.dtype)
    for s, succ in enumerate(letters[:symbol_count]):
        target = np.take_along_axis(succ[:, None, :], order, 2)
        entries[:, :, :size, s] = np.where(past, 0, np.take_along_axis(inside, target, 2) + 2)
    digits = np.empty((n, size, 1 + width * symbol_count), dtype=index.dtype)
    digits[..., 0] = length
    digits[..., 1:] = entries.reshape(n, size, -1)
    return digits, inside


def _key_ids(digits: np.ndarray, radix: int) -> np.ndarray:
    """One int64 per row of `digits` (each in 0..radix - 1), equal exactly
    where the rows are.  The rows are read as mixed-radix numbers, as many
    digits per int64 word as fit; a row of one word is its own id, and
    longer rows are numbered by a lexsort of their words."""
    per_word = 1
    while radix ** (per_word + 1) < 1 << 63:
        per_word += 1
    words = []
    for start in range(0, digits.shape[1], per_word):
        code = np.zeros(len(digits), dtype=np.int64)
        for column in digits[:, start : start + per_word].T:
            code = code * radix + column
        words.append(code)
    if len(words) == 1:
        return words[0]
    ranked = np.lexsort(words)
    packed = np.stack(words, axis=1)[ranked]
    fresh = np.concatenate([[True], (packed[1:] != packed[:-1]).any(axis=1)])
    ids = np.empty(len(digits), dtype=np.int64)
    ids[ranked] = np.cumsum(fresh) - 1
    return ids


@_per_call
def _ball_keys(
    symbols: tuple[str, ...], mode: str, bounds: Bounds, seed: int, max_radius: int, radius: int
):
    """The term-independent half of one radius attempt over the groups of
    `_walks`: (inside, place, ranked, first).

    `inside` holds each group's in-ball BFS index per position (-1 outside;
    `_ball_digits`).  `place` numbers every anchor as position * width +
    anchor, `ranked` sorts the anchors by it, and first[a] is the first
    ranked anchor with the same exact ball key as ranked anchor a.  The
    three index arrays hold the narrowest unsigned integers that fit."""
    _, groups = _walks(symbols, mode, bounds, seed, max_radius)
    width = max(size for size, *_ in groups)
    digits, inside, place = [], [], []
    for size, _, positions, letters, walk in groups:
        key, index = _ball_digits(letters, walk, len(symbols), radius, width)
        digits.append(key.reshape(-1, key.shape[2]))
        inside.append(index)
        place.append((positions[:, None] * width + np.arange(size)).ravel())
    place = np.concatenate(place)
    ranked = np.argsort(place)
    ids = _key_ids(np.concatenate(digits), width + 2)[ranked]
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    narrow = np.min_scalar_type(max(len(place), place.max()))
    first = first[inverse].astype(narrow)
    return tuple(inside), place.astype(narrow), ranked.astype(narrow), first


def _bounded_rows_check(
    term: tm.Term,
    groups: list,
    keys: tuple,
    radius: int,
    mode: str,
    bounds: Bounds,
    seed: int,
    name: str,
) -> Verdict | None:
    """One radius attempt: rows must stay inside their balls and agree on
    isomorphic anchored balls.  Returns a failure verdict or None.

    Every ball is compared: balls are keyed exactly by `_ball_digits`
    (`keys`, from `_ball_keys`), and rows by the set of their elements'
    BFS indices.  Taken in pool order, anchors in `Structure` domain order,
    the failure is the first anchor whose row leaves its ball ("outside"
    wins at one anchor), or whose row differs from the row at the first
    anchor with an equal ball key.  An anchor before that one whose row
    leaves its ball is itself an earlier failure, so first occurrences may
    be taken over all anchors.
    """
    if not groups:
        return None
    width = max(size for size, *_ in groups)
    inside, place, ranked, first = keys
    row_sets, outside = [], []
    for (size, *_, rows), index in zip(groups, inside):
        inball = index[..., :size] >= 0
        row_set = np.zeros(rows.shape[:2] + (width + 1,), dtype=bool)
        np.put_along_axis(row_set, np.where(rows & inball, index[..., :size], width), True, 2)
        row_sets.append(row_set[..., :width].reshape(-1, width))
        outside.append((rows & ~inball).any(axis=2).ravel())
    row_sets = np.concatenate(row_sets)[ranked]
    outside = np.concatenate(outside)[ranked]
    bad = outside | (row_sets != row_sets[first]).any(axis=1)
    if not bad.any():
        return None
    at = int(np.argmax(bad))

    def anchored(k: int):
        position, t = divmod(int(place[ranked[k]]), width)
        size, masks, positions, _, walk, rows = next(g for g in groups if position in g[2])
        j = int(np.flatnonzero(positions == position)[0])
        structure = structure_to_json(drawn_structure(_structure_masks(masks, j), size))
        return structure, _domain_order(size)[t], walk[1][j, t], rows[j, t]

    structure, anchor, depth, row = anchored(at)
    if outside[at]:
        element = next(b for b in _domain_order(len(row)) if row[b] and depth[b] > radius)
        counterexample = {
            "kind": "row-outside-ball",
            "term": tm.print_term(term),
            "mode": mode,
            "structure": structure,
            "anchor": f"e{anchor + 1}",
            "radius": radius,
            "element": f"e{element + 1}",
        }
    else:
        left, left_anchor, _, _ = anchored(int(first[at]))
        counterexample = {
            "kind": "ball-row-mismatch",
            "term": tm.print_term(term),
            "mode": mode,
            "radius": radius,
            "left": left,
            "left_anchor": f"e{left_anchor + 1}",
            "right": structure,
            "right_anchor": f"e{anchor + 1}",
        }
    return Verdict(name, "fail", counterexample, bounds.to_json(), seed)


@_per_call
def _walks(symbols: tuple[str, ...], mode: str, bounds: Bounds, seed: int, max_radius: int):
    """The forward (or, in undirected mode, local) check's pool plan and
    groups with their letters and one BFS to `max_radius`, as (plan,
    groups) with (size, masks, positions, letters, walk) per group:
    everything but the term's rows."""
    cls = (
        StructureClass.PARTIAL_FUNCTIONS
        if mode == "forward"
        else StructureClass.INJECTIVE_PARTIAL_FUNCTIONS
    )
    plan, pool = _pool(symbols, cls, bounds, seed)
    groups = []
    for size, masks, positions in pool:
        letters = tuple(_successors(size, masks, mode))
        walk = _walk(letters, len(positions), size, max_radius)
        groups.append((size, masks, positions, letters, walk))
    return plan, tuple(groups)


def _check_bounded(
    term: tm.Term, mode: str, name: str, bounds: Bounds, seed: int, max_radius: int
) -> Verdict:
    """Try radii 0..max_radius; pass at the first one with no failure, or
    report the failure at max_radius.  Every failure is re-verified: a pass
    at radius r rests on the failures below r.

    The pool's values, rows and one BFS to max_radius per group are
    computed once, as arrays over every structure and anchor of a size;
    the BFS and each radius's ball keys do not depend on the term
    (`_walks`, `_ball_keys`)."""
    if max_radius < 0:
        raise CheckError(f"max radius must be at least 0, got {max_radius}")
    symbols = tm.term_signature(term)
    with _sharing():
        groups = []
        plan, walks = _walks(symbols, mode, bounds, seed, max_radius)
        for size, masks, positions, letters, walk in walks:
            values = _values(term, size, masks, len(positions))
            rows = _bit_rows(values, size)[:, _domain_order(size)]
            groups.append((size, masks, positions, letters, walk, rows))
        for radius in range(max_radius + 1):
            keys = _ball_keys(symbols, mode, bounds, seed, max_radius, radius) if groups else None
            failure = _bounded_rows_check(term, groups, keys, radius, mode, bounds, seed, name)
            if failure is None:
                verdict = Verdict(name, "pass-bounded", None, bounds.to_json(), seed)
                verdict.bounds["radius"] = radius
                verdict.bounds["max_radius"] = max_radius
                verdict.bounds["balls_skipped"] = 0
                return _cut(verdict, plan)
            _confirmed(failure)
    failure.bounds["balls_skipped"] = 0
    failure.bounds["max_radius"] = max_radius
    return _cut(failure, plan)


def check_forward(
    term: tm.Term, bounds: Bounds | None = None, seed: int = 0, max_radius: int = 3
) -> Verdict:
    """Bounded check, over partial functions, that the term's rows are
    determined by forward balls."""
    return _check_bounded(term, "forward", "forward-bounded", bounds or Bounds(), seed, max_radius)


def check_local(
    term: tm.Term, bounds: Bounds | None = None, seed: int = 0, max_radius: int = 3
) -> Verdict:
    """Bounded check, over injective partial functions, against balls that
    follow edges in both directions."""
    return _check_bounded(
        term, "undirected", "local-bounded", bounds or Bounds(), seed, max_radius
    )


# --- the operation-by-property matrix -------------------------------------------

MATRIX_COLUMNS = ("homsafe", "subsafe", "fp", "forward")

# Expected verdicts per catalogue operation, columns as in MATRIX_COLUMNS.
EXPECTED_MATRIX: dict[str, tuple[bool, bool, bool, bool]] = {
    "id": (True, True, True, True),
    "empty": (True, True, True, True),
    "top": (True, True, False, False),
    "complement": (False, True, False, False),
    "converse": (True, True, False, False),
    "dom": (True, True, True, True),
    "ran": (True, True, True, False),
    "antidom": (False, False, True, True),
    "union": (True, True, False, True),
    "inter": (True, True, True, True),
    "diff": (False, True, True, True),
    "compose": (True, True, True, True),
    "semijoin": (True, True, True, True),
    "prefunion": (False, False, True, True),
}


def term_for_operation(op: str) -> tm.Term:
    """The operation applied to generic symbols R (and S)."""
    arity = tm.ARITY.get(op)
    if arity is None or op not in tm.CATALOGUE:
        raise ValueError(f"not a catalogue operation: {op!r}")
    if arity == 0:
        return tm.Term(op)
    if arity == 1:
        return tm.Term(op, (tm.sym("R"),))
    return tm.Term(op, (tm.sym("R"), tm.sym("S")))


_COLUMN_CHECKS = {
    "homsafe": check_homomorphism_safe,
    "subsafe": check_subseteq_safe,
    "fp": check_function_preserving,
    "forward": check_forward,
}


@dataclass
class MatrixReport:
    verdicts: dict[str, dict[str, Verdict]]
    expected: dict[str, tuple[bool, bool, bool, bool]]
    mismatches: list[tuple[str, str]] = field(default_factory=list)

    @property
    def agrees(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "columns": list(MATRIX_COLUMNS),
            "rows": {
                op: {col: v.to_json() for col, v in cols.items()}
                for op, cols in self.verdicts.items()
            },
            "expected": {op: list(row) for op, row in self.expected.items()},
            "mismatches": [list(m) for m in self.mismatches],
            "agrees": self.agrees,
        }


def catalogue_matrix(bounds: Bounds | None = None, seed: int = 0) -> MatrixReport:
    """Check all fourteen operations against all four properties.

    The fourteen operations use three signatures, so the call builds each
    term-independent piece once and shares it between the cells that ask
    for it (`_sharing`): the pool of the fp and forward columns, the
    forward column's BFS walks and ball keys, and the ⊆-safety column's
    draws and induced structures.  Nothing shared outlives the call."""
    if bounds is None:
        bounds = Bounds(samples=200, sample_size=6)
    verdicts: dict[str, dict[str, Verdict]] = {}
    mismatches: list[tuple[str, str]] = []
    with _sharing():
        for op in tm.CATALOGUE:
            term = term_for_operation(op)
            row: dict[str, Verdict] = {}
            for col, expect in zip(MATRIX_COLUMNS, EXPECTED_MATRIX[op]):
                verdict = _COLUMN_CHECKS[col](term, bounds, seed)
                row[col] = verdict
                if verdict.passed != expect:
                    mismatches.append((op, col))
            verdicts[op] = row
    return MatrixReport(verdicts, dict(EXPECTED_MATRIX), mismatches)


# --- equivalence engine ----------------------------------------------------------


@dataclass
class EquivalenceReport:
    equivalent: bool
    counterexample: Structure | None
    lhs_pairs: list | None
    rhs_pairs: list | None
    coverage: list[SizeCoverage]
    random_checked: int
    seed: int

    def to_json(self) -> dict:
        data = asdict(self)
        data["counterexample"] = self.counterexample and structure_to_json(self.counterexample)
        return data


def _scalar_value(obj, structure: Structure):
    if isinstance(obj, tm.Term):
        return tm.eval_term(obj, structure)
    return logic.define_relation(obj, "x", "y", structure, pad_missing=True)


def _reference_value(obj, structure: Structure):
    """The value through the second route: `eval_term` for a term, the
    Tarskian `eval_formula` pair by pair for a formula."""
    if isinstance(obj, tm.Term):
        return tm.eval_term(obj, structure)
    dom = structure.domain
    return frozenset(
        (a, b)
        for a in dom
        for b in dom
        if logic.eval_formula(obj, structure, {"x": a, "y": b})
    )


def _mismatch_report(
    lhs, rhs, structure: Structure, coverage, random_checked, seed
) -> EquivalenceReport:
    """Re-verify a found counterexample through the second route and report it."""
    lv = _reference_value(lhs, structure)
    rv = _reference_value(rhs, structure)
    if lv == rv:
        raise AssertionError(
            "the reference evaluators do not confirm the counterexample"
        )
    return EquivalenceReport(
        equivalent=False,
        counterexample=structure,
        lhs_pairs=[list(p) for p in sorted(lv)],
        rhs_pairs=[list(p) for p in sorted(rv)],
        coverage=coverage,
        random_checked=random_checked,
        seed=seed,
    )


def equivalence_report(
    lhs,
    rhs,
    signature,
    cls: StructureClass = StructureClass.ALL,
    bounds: Bounds | None = None,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare two terms (or a term and a formula) over a structure class.

    Each size up to the resolved bound is covered as `_plan` decides, with
    the coverage recorded: swept in full (charged in labelled structures,
    one per size for the empty signature, though `_sweep` evaluates one per
    orbit), sampled as one random batch from its own stream, or skipped.
    A second phase, the tail, draws `samples` sizes of 1..sample_size and
    then each size's structures (`_by_size`), compared in one batch per
    size (`_values`: terms on masks past `MAX_BULK_SIZE` too, formulas
    through their structures); a size swept in full is not drawn, nor a
    size whose first draw lies past a mismatch already found.
    `random_checked` is the position of the first mismatching draw (all
    draws when none differs).  The first counterexample (in enumeration
    order, then in draw order) is re-verified through `eval_term` and the
    Tarskian `eval_formula` before being reported.
    """
    bounds = bounds or Bounds()
    signature = tuple(sorted(signature))
    plan = _plan(signature, cls, bounds)
    coverage: list[SizeCoverage] = []
    sizes = _stream(seed, _TAIL).integers(1, bounds.sample_size + 1, bounds.samples)

    def first_difference(size: int, masks: dict, n: int):
        # (j, structure) for the first of n structures the sides tell apart.
        left, right = _values(lhs, size, masks, n), _values(rhs, size, masks, n)
        bad = left != right if size <= bulk.MAX_BULK_SIZE else [a != b for a, b in zip(left, right)]
        if not np.any(bad):
            return None
        j = int(np.argmax(bad))
        # Every class lays its masks over e1..ek in numeric order.
        return j, drawn_structure(_structure_masks(masks, j), size)

    for cover in plan:
        evaluated = 0
        for run, indices, masks in _sweep(signature, cls, cover, seed):
            if not len(indices):  # a run with no orbit-minimal index
                continue
            evaluated += len(indices)
            found = first_difference(cover.size, masks, len(indices))
            if found is not None:
                coverage.append(replace(cover, checked=run.stop, representatives=evaluated))
                return _mismatch_report(lhs, rhs, found[1], coverage, 0, seed)
        coverage.append(replace(cover, representatives=evaluated))

    first = None
    for size, at, rng in _by_size(seed, _TAIL, sizes, plan):
        if first is None or at[0] < first[0]:
            masks = bulk.random_symbol_masks(rng, len(at), size, cls, signature)
            found = first_difference(size, masks, len(at))
            if found is not None and (first is None or at[found[0]] < first[0]):
                first = at[found[0]], found[1]
    if first is None:
        return EquivalenceReport(True, None, None, None, coverage, len(sizes), seed)
    return _mismatch_report(lhs, rhs, first[1], coverage, int(first[0]) + 1, seed)


# --- counterexample re-verification ----------------------------------------------

def verify_counterexample(verdict: Verdict) -> bool:
    """Re-establish a failure verdict from its own payload.

    Every checker calls this before letting a failure out, and tests can
    call it on anything deserialised from a report.
    """
    if verdict.status != "fail" or verdict.counterexample is None:
        return False
    data = verdict.counterexample
    kind = data.get("kind")
    term = tm.parse_term(data["term"]) if "term" in data else None

    if kind == "invariant":
        structure = structure_from_json(data["structure"])
        _, offence = _INVARIANTS[verdict.property]
        return offence(tm.eval_term(term, structure), structure) is not None

    if kind == "homomorphism":
        source = structure_from_json(data["source"])
        target = structure_from_json(data["target"])
        h = data["map"]
        a, b = data["pair"]
        if not is_homomorphism(source, target, h):
            return False
        if (a, b) not in tm.eval_term(term, source):
            return False
        return (h[a], h[b]) not in tm.eval_term(term, target)

    if kind == "subset":
        structure = structure_from_json(data["structure"])
        part = induced(structure, data["subset"])
        pair = tuple(data["pair"])
        return pair in tm.eval_term(term, part) and pair not in tm.eval_term(
            term, structure
        )

    if kind == "row-outside-ball":
        structure = structure_from_json(data["structure"])
        anchor = data["anchor"]
        depths = _reach_depths(structure, anchor, data["radius"], data["mode"])
        return (anchor, data["element"]) in tm.eval_term(term, structure) and data[
            "element"
        ] not in depths

    if kind == "ball-row-mismatch":
        left = structure_from_json(data["left"])
        right = structure_from_json(data["right"])
        mode = data["mode"]
        radius = data["radius"]

        def anchored_row(structure, anchor):
            value = tm.eval_term(term, structure)
            return frozenset(b for a, b in value if a == anchor)

        la, ra = data["left_anchor"], data["right_anchor"]
        lball = ball(left, la, radius, mode)
        rball = ball(right, ra, radius, mode)
        lrow = anchored_row(left, la)
        rrow = anchored_row(right, ra)
        if not (lrow <= set(lball.domain) and rrow <= set(rball.domain)):
            return False
        if isomorphism(lball, [la], rball, [ra]) is None:
            return False
        # The rows as one more relation out of the anchor: an isomorphism of
        # the marked balls is a ball isomorphism that maps row onto row.
        mark = "row"
        while mark in lball.relations or mark in rball.relations:
            mark += "'"

        def marked(ball, anchor, row):
            rels = dict(ball.relations)
            rels[mark] = {(anchor, b) for b in row}
            return Structure(ball.domain, rels)

        return (
            isomorphism(marked(lball, la, lrow), [la], marked(rball, ra, rrow), [ra])
            is None
        )

    return False
