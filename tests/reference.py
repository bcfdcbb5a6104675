"""Reference routines the tests check the library against.

The closure routines call the one-pair kernels of `structures.BulkOps`
directly, never `BulkOps.grid`, so the cross-check stays independent of the
closure's row-hoisted tables.  The class predicates work on pairs, not on
masks, and the isomorphism reference tries every permutation.  The pooled
checks' references scan the pool one structure and one anchor at a time,
on Python ints.  The ⊆-safety reference evaluates the term on every
induced substructure of every structure, one subset at a time.  The
equivalence reference decodes and compares one index or draw at a time.
All three take what each size covers from one replay of the budget rule
(`reference_plan`).  Every sampled phase's reference draws every size it draws, from the same
streams (`stream_draws`), and evaluates each draw in turn, so it also
evaluates the draws of the sizes the library leaves undrawn because an
exhaustive phase covered them.  The bulk formula route's bit
transposition is checked against the one-pass-per-pair-bit loops it
replaced.  Synthesis probing is checked against one
scalar evaluation per probe, on masks built from each probe's edge lists,
and the per-type check loop that raised on the first failing probe.
"""

from functools import cache, partial
from itertools import permutations

import numpy as np

from relalg import bulk
from relalg.checkers import (
    _BATCHES,
    _CHUNK,
    _INVARIANTS,
    _POOL,
    _SUBSETS,
    _TAIL,
    EquivalenceReport,
    SizeCoverage,
    Verdict,
    _domain_order,
    _proper_subsets,
    _stream,
    _subset_bad,
    _subset_hit,
)
from relalg.structures import (
    StructureClass,
    _sorted_domain,
    ball,
    count_structures,
    decode_symbol_masks,
    drawn_structure,
    int_ops,
    masks_to_structure,
    orbit_marked,
    relation_mask,
    space_size,
    structure_from_index,
    structure_to_json,
)
from relalg.logic import eval_formula
from relalg.synth import (
    SynthesisError,
    _element_name,
    _extensions,
    _realization_edges,
    _structure,
    enumerate_types,
)
from relalg.terms import Term, evaluate, eval_term, iter_nodes, print_term, sym, term_signature

UNARY = ("complement", "converse", "dom", "ran", "antidom")
BINARY = ("union", "inter", "diff", "compose", "semijoin", "prefunion", "injunion")
CONSTANTS = ("id", "empty", "top")


def naive_closure(structure, basis, symbols=None, budget=100_000):
    """The closure loop one evaluation at a time: (masks in discovery order,
    each with its first witness; complete; evaluations)."""
    ops = set(basis)
    if symbols is None:
        symbols = structure.signature
    kernels = int_ops(len(structure.domain))
    known = {}
    for name in sorted(symbols):
        known.setdefault(structure.masks[name], sym(name))
    for c in CONSTANTS:
        if c in ops:
            known.setdefault(kernels.constants[c], Term(c))
    evaluations = 0
    while True:
        before = len(known)
        snapshot = list(known)
        for op in (op for op in UNARY if op in ops):
            kernel = getattr(kernels, op)
            for a in snapshot:
                evaluations += 1
                if evaluations > budget:
                    return known, False, evaluations
                mask = kernel(a)
                if mask not in known:
                    known[mask] = Term(op, (known[a],))
        for op in (op for op in BINARY if op in ops):
            kernel = getattr(kernels, op)
            for a in snapshot:
                for b in snapshot:
                    evaluations += 1
                    if evaluations > budget:
                        return known, False, evaluations
                    mask = kernel(a, b)
                    if mask not in known:
                        known[mask] = Term(op, (known[a], known[b]))
        if len(known) == before:
            return known, True, evaluations


def closure_is_closed(structure, relations, basis):
    """Whether a family of relations is closed under every basis operation."""
    ops = set(basis)
    kernels = int_ops(len(structure.domain))
    family = {relation_mask(r, structure.domain) for r in relations}
    if any(kernels.constants[c] not in family for c in CONSTANTS if c in ops):
        return False
    for op in (op for op in UNARY if op in ops):
        if any(getattr(kernels, op)(a) not in family for a in family):
            return False
    for op in (op for op in BINARY if op in ops):
        kernel = getattr(kernels, op)
        if any(kernel(a, b) not in family for a in family for b in family):
            return False
    return True


def converse(rel):
    return frozenset((b, a) for a, b in rel)


def is_partial_function(rel) -> bool:
    seen = {}
    for a, b in rel:
        if seen.setdefault(a, b) != b:
            return False
    return True


def is_total_function(rel, domain) -> bool:
    pairs = list(rel)
    sources = {a for a, _ in pairs}
    return is_partial_function(pairs) and all(x in sources for x in domain)


def is_injective_partial_function(rel) -> bool:
    pairs = list(rel)
    return is_partial_function(pairs) and is_partial_function(converse(pairs))


def generated_substructure(structure, root, mode="forward"):
    return ball(structure, root, len(structure.domain), mode)


def uses_only(t, ops) -> bool:
    allowed = set(ops) | {"sym"}
    return all(node.op in allowed for node in iter_nodes(t))


def enumerate_terms(basis, symbols, max_size):
    """All terms of size at most max_size, smallest first, deterministic.

    Within one size: unary applications before binary ones, operations in a
    fixed order, and for binary operations the left size grows last.
    """
    ops = set(basis)
    by_size = [[]]
    leaves = [sym(s) for s in sorted(symbols)]
    leaves += [Term(c) for c in CONSTANTS if c in ops]
    by_size.append(leaves)
    for size in range(2, max_size + 1):
        level = []
        for op in (op for op in UNARY if op in ops):
            level.extend(Term(op, (t,)) for t in by_size[size - 1])
        for op in (op for op in BINARY if op in ops):
            for left_size in range(1, size - 1):
                for a in by_size[left_size]:
                    for b in by_size[size - 1 - left_size]:
                        level.append(Term(op, (a, b)))
        by_size.append(level)
    return [t for level in by_size[1:] for t in level]


def is_isomorphism(left, anchors_left, right, anchors_right, mapping) -> bool:
    """Whether a map is a bijection of the domains that sends the anchors
    pointwise and every pair of every relation, both ways."""
    if sorted(mapping) != sorted(left.domain) or sorted(mapping.values()) != sorted(right.domain):
        return False
    if any(mapping[a] != b for a, b in zip(anchors_left, anchors_right)):
        return False
    if left.signature != right.signature:
        return False
    return all(
        {(mapping[a], mapping[b]) for a, b in left.relations[name]} == right.relations[name]
        for name in left.signature
    )


def brute_force_isomorphism(left, anchors_left, right, anchors_right):
    """The first permutation of the right domain that is a pointed
    isomorphism, or None."""
    if len(left.domain) != len(right.domain):
        return None
    for image in permutations(right.domain):
        mapping = dict(zip(left.domain, image))
        if is_isomorphism(left, anchors_left, right, anchors_right, mapping):
            return mapping
    return None


# --- sampled phases, every draw in draw order ---------------------------------

def size_streams(seed, phase, sizes):
    """(size, positions, generator) for every size in `sizes`, covered or
    not: the positions that drew it and the stream of its draws."""
    sizes = np.asarray(sizes)
    for size in sorted(set(sizes.tolist())):
        yield size, np.flatnonzero(sizes == size).tolist(), _stream(seed, phase, size)


def stream_draws(seed, phase, sizes, symbols, cls):
    """Every draw of a sampled phase whose draws have the given sizes, in
    draw order, as (size, masks) with Python-int masks."""
    drawn = {}
    for size, at, rng in size_streams(seed, phase, sizes):
        masks = bulk.random_symbol_masks(rng, len(at), size, cls, symbols)
        for j, position in enumerate(at):
            drawn[position] = size, {name: int(m[j]) for name, m in masks.items()}
    return [drawn[position] for position in range(len(sizes))]


# --- the budget rule, size by size --------------------------------------------

def reference_plan(symbols, cls, bounds):
    """What each size up to the resolved bound covers under the one budget
    rule, as `SizeCoverage` with `representatives` equal to `checked`: the
    budget left pays a size's whole count if it is at most `MAX_BULK_SIZE`
    or the signature is empty, else up to 65,536 sampled structures up to
    `MAX_BULK_SIZE`, else nothing."""
    plan, left = [], bounds.exhaustive_budget
    for size in range(1, bounds.resolved_size(len(symbols)) + 1):
        total = count_structures(symbols, size, cls)
        small = size <= bulk.MAX_BULK_SIZE
        if total <= left and (small or not symbols):
            plan.append(SizeCoverage(size, total, "exhaustive", total, total))
        elif small and left > 0:
            n = min(left, 2 * _CHUNK)
            plan.append(SizeCoverage(size, total, "sampled", n, n))
        else:
            plan.append(SizeCoverage(size, total, "skipped", 0, 0))
        left -= plan[-1].checked
    return plan


def planned(symbols, cls, plan, seed):
    """(cover, masks) for each structure the plan covers, size by size in
    order: every index of an exhaustive size decoded alone, and a sampled
    size's draws from its batch stream."""
    for cover in plan:
        if cover.mode == "exhaustive":
            for index in range(cover.total):
                yield cover, decode_symbol_masks(index, cover.size, cls, symbols)
        elif cover.mode == "sampled":
            rng = _stream(seed, _BATCHES, cover.size)
            batch = bulk.random_symbol_masks(rng, cover.checked, cover.size, cls, symbols)
            for j in range(cover.checked):
                yield cover, {name: int(m[j]) for name, m in batch.items()}


def with_cut(verdict, plan):
    """The verdict with the plan's sizes not swept in full listed under
    `exhaustive_cut`, if any."""
    cut = [cover.to_json() for cover in plan if cover.mode != "exhaustive"]
    if cut:
        verdict.bounds["exhaustive_cut"] = cut
    return verdict


# --- the pooled checks, one structure and one anchor at a time -----------------

def scalar_pool(symbols, cls, bounds, seed):
    """The (size, masks) entries of the checks' pool in pool order, each
    structure on its own: what the plan covers of each size up to the
    resolved bound, then every seeded draw."""
    for cover, masks in planned(symbols, cls, reference_plan(symbols, cls, bounds), seed):
        yield cover.size, masks
    sizes = _stream(seed, _POOL).integers(1, bounds.sample_size + 1, bounds.samples)
    yield from stream_draws(seed, _POOL, sizes, symbols, cls)


def scalar_invariant_check(name, term, bounds, seed):
    """The fp/tfp/ifp verdict from a scan of the pool in order, without the
    re-verification."""
    cls, offence = _INVARIANTS[name]
    symbols = term_signature(term)
    plan = reference_plan(symbols, cls, bounds)
    for size, masks in scalar_pool(symbols, cls, bounds, seed):
        if cls.contains(evaluate(term, masks, int_ops(size).value), size):
            continue
        structure = drawn_structure(masks, size)
        counterexample = {
            "kind": "invariant",
            "term": print_term(term),
            "structure": structure_to_json(structure),
            "offence": offence(eval_term(term, structure), structure),
        }
        return with_cut(Verdict(name, "fail", counterexample, bounds.to_json(), seed), plan)
    return with_cut(Verdict(name, "pass-bounded", None, bounds.to_json(), seed), plan)


def letters(size, masks, mode):
    """The symbols' masks, then in undirected mode their converses, each as
    the list of every element's successor by mask position, `size` for
    none."""
    named = list(masks.values())
    if mode == "undirected":
        named += [int_ops(size).converse(mask) for mask in named]
    row = (1 << size) - 1
    out = []
    for mask in named:
        rows = (mask >> (p * size) & row for p in range(size))
        out.append([bits.bit_length() - 1 if bits else size for bits in rows])
    return out


def anchored_key(letters, symbol_count, size, anchor, radius):
    """The access-word key of the ball of `radius` around the anchor (its
    size, then each BFS-visited element's in-ball successor index per
    symbol, -1 for none), and the BFS index of each position (-1 outside)."""
    index = [-1] * (size + 1)  # index[size], for "no successor", stays -1
    index[anchor] = 0
    order = [anchor]
    depth = [0]
    for i, x in enumerate(order):
        if depth[i] < radius:
            for letter in letters:
                y = letter[x]
                if index[y] < 0 and y < size:
                    index[y] = len(order)
                    order.append(y)
                    depth.append(depth[i] + 1)
    key = (len(order),) + tuple(index[letter[x]] for x in order for letter in letters[:symbol_count])
    return key, index


def scalar_rows_check(term, pool, values, radius, mode, bounds, seed, name):
    """One radius attempt over `pool`, a list of (size, masks, letters),
    anchor by anchor in pool and domain order; `values` caches each
    structure's value.  A failure verdict or None."""

    def structure_json(i):
        size, masks, _ = pool[i]
        return structure_to_json(drawn_structure(masks, size))

    buckets = {}
    for i, (size, masks, lets) in enumerate(pool):
        if values[i] is None:
            values[i] = evaluate(term, masks, int_ops(size).value)
        order = _domain_order(size)
        for anchor in order:
            row = [b for b in order if values[i] >> (anchor * size + b) & 1]
            ball_key, index = anchored_key(lets, len(masks), size, anchor, radius)
            outside = [b for b in row if index[b] < 0]
            if outside:
                counterexample = {
                    "kind": "row-outside-ball",
                    "term": print_term(term),
                    "mode": mode,
                    "structure": structure_json(i),
                    "anchor": f"e{anchor + 1}",
                    "radius": radius,
                    "element": f"e{outside[0] + 1}",
                }
                return Verdict(name, "fail", counterexample, bounds.to_json(), seed)
            row_key = tuple(sorted(index[b] for b in row))
            seen = buckets.get(ball_key)
            if seen is None:
                buckets[ball_key] = (row_key, i, f"e{anchor + 1}")
            elif seen[0] != row_key:
                counterexample = {
                    "kind": "ball-row-mismatch",
                    "term": print_term(term),
                    "mode": mode,
                    "radius": radius,
                    "left": structure_json(seen[1]),
                    "left_anchor": seen[2],
                    "right": structure_json(i),
                    "right_anchor": f"e{anchor + 1}",
                }
                return Verdict(name, "fail", counterexample, bounds.to_json(), seed)
    return None


def scalar_bounded_check(term, mode, bounds, seed, max_radius):
    """The forward (mode "forward") or local ("undirected") verdict from
    the per-anchor scan, without the re-verification."""
    if mode == "forward":
        cls, name = StructureClass.PARTIAL_FUNCTIONS, "forward-bounded"
    else:
        cls, name = StructureClass.INJECTIVE_PARTIAL_FUNCTIONS, "local-bounded"
    symbols = term_signature(term)
    plan = reference_plan(symbols, cls, bounds)
    pool = [
        (size, masks, letters(size, masks, mode))
        for size, masks in scalar_pool(symbols, cls, bounds, seed)
    ]
    values = [None] * len(pool)
    for radius in range(max_radius + 1):
        failure = scalar_rows_check(term, pool, values, radius, mode, bounds, seed, name)
        if failure is None:
            verdict = Verdict(name, "pass-bounded", None, bounds.to_json(), seed)
            verdict.bounds.update(radius=radius, max_radius=max_radius, balls_skipped=0)
            return with_cut(verdict, plan)
    failure.bounds.update(balls_skipped=0, max_radius=max_radius)
    return with_cut(failure, plan)


# --- ⊆-safety, one subset at a time ---------------------------------------------

def scalar_subseteq_check(term, bounds, seed):
    """The ⊆-safety verdict without the re-verification: what the plan
    covers of each size, each structure in enumeration (or draw) order,
    every proper subset evaluated on its own (a uint64 chunk or sampled
    batch at a time up to the bulk sizes), then each draw and its subsets
    in draw order, one Python-int evaluation each.  A size the plan does
    not sweep in full is listed under `exhaustive_cut`."""
    symbols = term_signature(term)
    draws = min(bounds.samples, 200)
    size_cap = min(bounds.sample_size, 8)
    plan = reference_plan(symbols, StructureClass.ALL, bounds)

    def failure(size, masks, subsets):
        hit = _subset_hit(term, size, masks, subsets)
        if hit is None:
            return None
        (subset, (a, b)), names = hit, _sorted_domain(size)
        counterexample = {
            "kind": "subset",
            "term": print_term(term),
            "structure": structure_to_json(masks_to_structure(masks, size)),
            "subset": [names[p] for p in subset],
            "pair": [names[a], names[b]],
        }
        return Verdict("subseteq-safe", "fail", counterexample, bounds.to_json(), seed)

    def reported(verdict):
        verdict.bounds.update(sampled_structures=draws, sampled_size_cap=size_cap)
        return with_cut(verdict, plan)

    def batches(cover):
        # The covered structures' masks, a chunk of indices or the sampled batch at a time.
        if cover.mode == "sampled":
            rng = _stream(seed, _BATCHES, cover.size)
            yield bulk.random_symbol_masks(rng, cover.checked, cover.size, StructureClass.ALL, symbols)
            return
        for start in range(0, cover.checked, _CHUNK):
            indices = np.arange(start, min(start + _CHUNK, cover.checked), dtype=np.uint64)
            yield decode_symbol_masks(indices, cover.size, StructureClass.ALL, symbols)

    evaluate_bulk = partial(bulk.bulk_eval_term, term)
    for cover in plan:
        size = cover.size
        if not symbols or size > bulk.MAX_BULK_SIZE:
            for _, masks in planned(symbols, StructureClass.ALL, [cover], seed):
                verdict = failure(size, masks, _proper_subsets(size))
                if verdict is not None:
                    return reported(verdict)
            continue
        for masks in batches(cover):
            whole = evaluate_bulk(size, masks)
            bad = np.zeros(len(whole), dtype=bool)
            for subset in _proper_subsets(size):
                bad |= _subset_bad(evaluate_bulk, size, masks, whole, subset) != 0
            if bad.any():
                j = int(np.argmax(bad))
                masks = {name: int(m[j]) for name, m in masks.items()}
                return reported(failure(size, masks, _proper_subsets(size)))
    drawn = {}
    sizes = _stream(seed, _SUBSETS).integers(1, size_cap + 1, draws)
    for size, at, rng in size_streams(seed, _SUBSETS, sizes):
        batch = bulk.random_symbol_masks(rng, len(at), size, StructureClass.ALL, symbols)
        codes = rng.integers(0, 1 << size, (len(at), 32)).tolist()
        for j, position in enumerate(at):
            masks = {name: int(m[j]) for name, m in batch.items()}
            subsets = [tuple(p for p in range(size) if code >> p & 1) for code in codes[j]]
            drawn[position] = size, masks, dict.fromkeys(subsets)
    for position in range(draws):
        verdict = failure(*drawn[position])
        if verdict is not None:
            return reported(verdict)
    return reported(Verdict("subseteq-safe", "pass-bounded", None, bounds.to_json(), seed))


# --- equivalence reports, one index at a time ----------------------------------

def formula_pairs(phi, structure):
    """The pairs (x, y) satisfying phi, through `eval_formula` pair by pair."""
    dom = structure.domain
    return [(a, b) for a in dom for b in dom if eval_formula(phi, structure, {"x": a, "y": b})]


def side_mask(side, size, masks):
    """One side's value on one structure as a mask over its positions: a
    term through the int kernels, a formula through `formula_pairs`."""
    if isinstance(side, Term):
        return evaluate(side, masks, int_ops(size).value)
    structure = masks_to_structure(masks, size)
    return relation_mask(formula_pairs(side, structure), structure.domain)


def side_pairs(side, structure):
    """One side's value on a structure, as sorted pair lists."""
    value = eval_term(side, structure) if isinstance(side, Term) else formula_pairs(side, structure)
    return [list(p) for p in sorted(value)]


def scalar_equivalence_report(lhs, rhs, signature, cls, bounds, seed):
    """The `equivalence_report` of two sides, each structure compared on
    its own: what the plan covers of each size, every exhaustive index
    decoded alone and the reported one built by `structure_from_index`, a
    sampled size's batch one draw at a time, and then every seeded draw.
    A mismatch found in a run of `_CHUNK` indices reports the run's end as
    checked, and as representatives the orbit-minimal indices up to there
    (`representatives`); one found in a sampled batch reports the batch."""
    signature = tuple(sorted(signature))

    def differs(size, masks):
        return side_mask(lhs, size, masks) != side_mask(rhs, size, masks)

    def mismatch(structure, coverage, random_checked):
        left, right = side_pairs(lhs, structure), side_pairs(rhs, structure)
        assert left != right
        return EquivalenceReport(False, structure, left, right, coverage, random_checked, seed)

    def covered(cover, checked=None):
        # An exhaustive size's coverage up to `checked`, with its orbit count.
        if cover.mode != "exhaustive":
            return cover
        checked = cover.checked if checked is None else checked
        evaluated = representatives(len(signature), cover.size, cls, checked)
        return SizeCoverage(cover.size, cover.total, "exhaustive", checked, evaluated)

    plan = reference_plan(signature, cls, bounds)
    for n, cover in enumerate(plan):
        for index, (_, masks) in enumerate(planned(signature, cls, [cover], seed)):
            if not differs(cover.size, masks):
                continue
            before = [covered(c) for c in plan[:n]]
            if cover.mode == "sampled":
                return mismatch(drawn_structure(masks, cover.size), before + [cover], 0)
            checked = min(cover.total, (index // _CHUNK + 1) * _CHUNK)
            structure = structure_from_index(signature, cover.size, cls, index)
            return mismatch(structure, before + [covered(cover, checked)], 0)
    coverage = [covered(cover) for cover in plan]
    sizes = _stream(seed, _TAIL).integers(1, bounds.sample_size + 1, bounds.samples)
    for i, (size, masks) in enumerate(stream_draws(seed, _TAIL, sizes, signature, cls)):
        if differs(size, masks):
            return mismatch(drawn_structure(masks, size), coverage, i + 1)
    return EquivalenceReport(True, None, None, None, coverage, bounds.samples, seed)


# --- orbit-minimal indices, every permutation on the whole index ---------------

@cache
def relabel_table(size, cls):
    """table[p, c]: the code of one symbol's code c relabelled by the p-th
    permutation of e1..e_size, identity first, through the code's k x k
    bit matrix."""
    per = space_size(size, cls)
    masks = decode_symbol_masks(np.arange(per, dtype=np.uint64), size, cls, ("R",))["R"]
    cells = np.arange(size * size, dtype=np.uint64)
    bits = (masks[:, None] >> cells & np.uint64(1)).astype(bool).reshape(per, size, size)
    ranked = np.argsort(masks)
    table = []
    for perm in permutations(range(size)):
        back = np.argsort(perm)
        # Pair (a, b) moves to (perm[a], perm[b]).
        moved = bits[:, back][:, :, back].reshape(per, -1)
        images = np.bitwise_or.reduce(np.where(moved, np.uint64(1) << cells, np.uint64(0)), axis=1)
        codes = ranked[np.searchsorted(masks, images, sorter=ranked)]
        assert (masks[codes] == images).all()
        table.append(codes)
    return np.array(table)


def orbit_minimal_flags(count, size, cls, stop):
    """Whether each index in [0, stop) of the structures of `count` symbols
    and `size` elements is no larger than the index of any relabelling."""
    per = space_size(size, cls)
    index = np.arange(stop, dtype=np.uint64)
    codes, rest = [], index
    for _ in range(count):
        codes.append(rest % np.uint64(per))
        rest = rest // np.uint64(per)
    codes.reverse()
    least = np.ones(stop, dtype=bool)
    for row in relabel_table(size, cls):
        image = np.zeros(stop, dtype=np.uint64)
        for code in codes:
            image = image * np.uint64(per) + row[code].astype(np.uint64)
        least &= image >= index
    return least


def representatives(count, size, cls, stop):
    """How many structures the reduced sweep evaluates among [0, stop):
    the orbit-minimal ones where marks are built, all of them elsewhere."""
    if not orbit_marked(count, size, cls):
        return stop
    return int(orbit_minimal_flags(count, size, cls, stop).sum())


def labelled_sweep(symbols, cls, cover, seed, first=0):
    """`checkers._sweep` without the orbit filter: every index of each run
    of an exhaustive size, and a sampled size's batch as one run."""
    size, stop = cover.size, cover.checked
    if cover.mode == "sampled":
        batch = bulk.random_symbol_masks(_stream(seed, _BATCHES, size), stop, size, cls, symbols)
        yield range(stop), np.arange(stop, dtype=np.uint64), batch
        return
    for start in range(first, stop, _CHUNK):
        end = min(start + _CHUNK, stop)
        if size <= bulk.MAX_BULK_SIZE:
            indices = np.arange(start, end, dtype=np.uint64)
            yield range(start, end), indices, decode_symbol_masks(indices, size, cls, symbols)
        else:
            indices = range(start, end)
            decoded = [decode_symbol_masks(i, size, cls, symbols) for i in indices]
            yield indices, indices, {name: [m[name] for m in decoded] for name in sorted(symbols)}


# --- bit transposition of the bulk formula route, one pass per pair bit --------

def per_bit_table(masks, k):
    """`bulk._bit_table`, one `packbits` pass per pair bit: n masks as a
    (words, k, k) table, bit s of word w the bit of structure 64 * w + s."""
    n, words = len(masks), -(-len(masks) // 64)
    octets = np.asarray(masks, dtype="<u8").view(np.uint8).reshape(n, 8)
    table = np.zeros((k * k, 8 * words), dtype=np.uint8)
    for p in range(k * k):
        bits = octets[:, p >> 3] & (1 << (p & 7))
        table[p, : -(-n // 8)] = np.packbits(bits, bitorder="little")
    return table.view("<u8").T.reshape(words, k, k)


def per_bit_masks(table, k, n):
    """`bulk._table_masks`, one `unpackbits` pass per pair bit: the first n
    masks of a (words, k, k) table."""
    rows = np.ascontiguousarray(table.reshape(len(table), k * k).T, dtype="<u8")
    out = np.zeros(n, dtype=np.uint64)
    for p in range(k * k):
        bits = np.unpackbits(rows[p].view(np.uint8), count=n, bitorder="little")
        out |= bits.astype(np.uint64) << np.uint64(p)
    return out


# --- synthesis probing, one scalar evaluation per probe ------------------------

def _edge_mask(edges, k):
    mask = 0
    for a, b in edges:
        mask |= 1 << (a * k + b)
    return mask


def scalar_probe_row(oracle, t, base, fresh=0, added=()):
    """A term oracle's root row on the realization of t plus `fresh`
    elements and the `added` edges (one tuple per symbol): one
    `terms.evaluate` on Python-int masks of the probe's own size."""
    k = t.node_count() + fresh
    masks = {s: _edge_mask(base[s], k) for s in t.symbols}
    if fresh:
        masks = {s: m | _edge_mask(e, k) for (s, m), e in zip(masks.items(), added)}
    return evaluate(oracle, masks, int_ops(k).value) & ((1 << k) - 1)


def scalar_probe_rows(oracle, t, probe_depth):
    """(fresh, row) for the realization of t and then each extension."""
    base = _realization_edges(t)
    family = _extensions(t, base, probe_depth).extensions
    return [
        (fresh, scalar_probe_row(oracle, t, base, fresh, added))
        for fresh, added in ((0, ()), *((f, a) for _, f, a in family))
    ]


def scalar_probe_type(t, oracle, type_index, probe_depth):
    """The checked root target of one type, probe by probe: the first row
    with more than one element, or that differs from the realization's,
    raises `SynthesisError` with the probe as witness."""
    n = t.node_count()
    root = _element_name(0, n)
    base = _realization_edges(t)

    def names(row):
        return sorted(_element_name(j, n) for j in range(row.bit_length()) if row >> j & 1)

    def checked_row(fresh, added, label):
        row = scalar_probe_row(oracle, t, base, fresh, added)
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

    base_row = checked_row(0, (), None)
    for label, fresh, added in _extensions(t, base, probe_depth).extensions:
        row = checked_row(fresh, added, label)
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
    return base_row.bit_length() - 1 if base_row else None


def scalar_probe_failure(oracle, radius, symbols, oriented, probe_depth=1):
    """(message, details) of the first type whose probes fail, or None."""
    for i, t in enumerate(enumerate_types(symbols, radius, oriented)):
        try:
            scalar_probe_type(t, oracle, i, probe_depth)
        except SynthesisError as exc:
            return str(exc), exc.details
    return None
