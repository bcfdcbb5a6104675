"""The one bit-matrix kernel table against an independent reference.

`eval_term` and `bulk_eval_term` both run on `structures.BulkOps`, so
neither can check the other.  The reference here is the Tarskian
`eval_formula` of the term's three-variable translation, asked pair by pair.
"""

import random
from itertools import islice

import numpy as np

from relalg.bulk import bulk_eval_term, random_symbol_masks
from relalg.logic import eval_formula, term_to_fo3
from relalg.structures import (
    MAX_BULK_SIZE,
    BulkOps,
    Structure,
    StructureClass,
    masks_to_structure,
    random_structure,
)
from relalg.terms import ARITY, antidom, compose, eval_term, parse_term, random_term, sym

ALL_OPS = tuple(op for op in ARITY if op != "sym")


def fo3_value(t, structure):
    phi = term_to_fo3(t)
    return {
        (a, b)
        for a in structure.domain
        for b in structure.domain
        if eval_formula(phi, structure, {"x": a, "y": b})
    }


def test_the_random_terms_cover_every_operation():
    assert len(ALL_OPS) == 15 and "injunion" in ALL_OPS
    rng = random.Random(0)
    seen = set()
    for _ in range(200):
        t = random_term(rng, ALL_OPS, ("f", "g"), rng.randint(1, 10))
        stack = [t]
        while stack:
            node = stack.pop()
            seen.add(node.op)
            stack.extend(node.args)
    assert seen == set(ARITY)


def test_eval_term_matches_the_formula_reference_at_every_size():
    rng = random.Random(20231)
    for k in range(13):
        for _ in range(100 if k <= 8 else 30):
            t = random_term(rng, ALL_OPS, ("f", "g"), rng.randint(1, 10))
            s = random_structure(rng, k, ("f", "g"))
            assert eval_term(t, s) == fo3_value(t, s), (k, t)


def test_eval_term_decodes_against_the_structures_own_domain():
    s = Structure(("b", "a", "c"), {"f": {("a", "b"), ("c", "c")}, "g": {("b", "a")}})
    t = parse_term("f ; g <+ g^ | ~f")
    assert eval_term(t, s) == fo3_value(t, s)


def test_bulk_eval_term_matches_the_formula_reference():
    rng = random.Random(4177)
    for k in range(1, MAX_BULK_SIZE + 1):
        for trial in range(30):
            t = random_term(rng, ALL_OPS, ("f", "g"), rng.randint(1, 10))
            masks = random_symbol_masks(
                np.random.default_rng(k * 100 + trial), 6, k, StructureClass.ALL, ("f", "g")
            )
            out = bulk_eval_term(t, k, masks)
            for i in (0, 5):
                s = masks_to_structure({name: int(arr[i]) for name, arr in masks.items()}, k)
                assert masks_to_structure({"v": int(out[i])}, k).relations["v"] == fo3_value(
                    t, s
                ), (k, t)


def test_both_representations_share_the_kernels():
    rng = random.Random(8)
    for k in range(1, MAX_BULK_SIZE + 1):
        ints, words = BulkOps(k, batch=False), BulkOps(k)
        assert type(ints.mask_all) is int and type(words.mask_all) is np.uint64
        r = [rng.getrandbits(k * k) for _ in range(16)]
        s = [rng.getrandbits(k * k) for _ in range(16)]
        r_words = np.array(r, dtype=np.uint64)
        s_words = np.array(s, dtype=np.uint64)
        for op in ALL_OPS:
            arity = ARITY[op]
            batch = words.apply(op, [r_words, s_words][:arity], 16)
            assert batch.dtype == np.uint64
            single = [ints.value(op, [a, b][:arity]) for a, b in zip(r, s)]
            assert batch.tolist() == single, (k, op)


def row_reference(r, k):
    return sum(1 << (i * k) for i in range(k) if r >> (i * k) & ((1 << k) - 1))


def column_reference(r, k):
    return sum(1 << j for j in range(k) if any(r >> (i * k + j) & 1 for i in range(k)))


def kernel_inputs(rng, k, count):
    """The empty and full masks, only the top row, only the last column, and
    seeded random masks, some sparse."""
    full = (1 << (k * k)) - 1
    top_row = ((1 << k) - 1) << (k * (k - 1)) if k else 0
    last_column = sum(1 << (i * k + k - 1) for i in range(k))
    randoms = [rng.getrandbits(k * k) for _ in range(count)]
    sparse = [r & rng.getrandbits(k * k) & rng.getrandbits(k * k) for r in randoms]
    return [0, full, top_row, last_column] + randoms + sparse


def test_row_and_column_tests_match_a_per_row_reference():
    rng = random.Random(61)
    for k in (0, 1, 2, 3, 7, 8, 9, 60):
        ops = BulkOps(k, batch=False)
        for r in kernel_inputs(rng, k, 50):
            assert ops._rowany(r) == row_reference(r, k), (k, r)
            assert ops._colany(r) == column_reference(r, k), (k, r)
    for k in range(1, MAX_BULK_SIZE + 1):
        ops = BulkOps(k)
        xs = kernel_inputs(rng, k, 50)
        words = np.array(xs, dtype=np.uint64)
        assert ops._rowany(words).tolist() == [row_reference(r, k) for r in xs], k
        assert ops._colany(words).tolist() == [column_reference(r, k) for r in xs], k


def partial_functions(rng, k, count):
    """Masks with at most one bit per row, some rows empty."""
    return [
        sum(1 << (i * k + rng.randrange(k)) for i in range(k) if rng.random() < 0.7)
        for _ in range(count)
    ]


def test_grid_matches_the_one_pair_kernels():
    rng = random.Random(62)
    binary = [op for op in ALL_OPS if ARITY[op] == 2]
    # Int compose tables run as word-row array passes: rows of one word
    # (k <= 64), of a full last word (k = 64) and of two words (k = 65).
    for k in (0, 1, 2, 3, 5, 9, 60, 63, 64, 65):
        ops = BulkOps(k, batch=False)
        xs = kernel_inputs(rng, k, 6) + partial_functions(rng, k, 6)
        for op in binary:
            kernel = getattr(ops, op)
            pairs = [kernel(a, b) for a in xs for b in xs]
            assert list(ops.grid(op, xs)) == pairs, (k, op)
            # A budget cut inside a row of the table sees the same prefix.
            cut = 2 * len(xs) + 3
            assert list(islice(ops.grid(op, xs), cut)) == pairs[:cut], (k, op)
        assert list(ops.grid("compose", [])) == []
    for k in (1, 3, MAX_BULK_SIZE):
        ops = BulkOps(k)
        xs = [np.array(kernel_inputs(rng, k, 4), dtype=np.uint64) for _ in range(3)]
        for op in binary:
            kernel = getattr(ops, op)
            got = [w.tolist() for w in ops.grid(op, xs)]
            assert got == [kernel(a, b).tolist() for a in xs for b in xs], (k, op)


def test_deep_terms_evaluate_without_recursion():
    depth = 20_000
    chain = sym("f")
    for _ in range(depth):
        chain = compose(chain, sym("f"))
    tower = sym("f")
    for _ in range(depth):
        tower = antidom(tower)

    # f^20001 = f^3 when f is a permutation of three points (its order divides 6),
    # and an even tower of antidomains is the domain.
    cycle = Structure(("a", "b", "c"), {"f": {("a", "b"), ("b", "c"), ("c", "a")}})
    assert eval_term(chain, cycle) == {("a", "a"), ("b", "b"), ("c", "c")}
    partial = Structure(("a", "b", "c"), {"f": {("a", "b")}})
    assert eval_term(tower, partial) == {("a", "a")}

    permutations = random_symbol_masks(
        np.random.default_rng(3), 24, 3, StructureClass.INJECTIVE_PARTIAL_FUNCTIONS, ("f",)
    )
    total = permutations["f"][[bin(int(m)).count("1") == 3 for m in permutations["f"]]]
    assert len(total) > 0
    cube = bulk_eval_term(parse_term("f ; f ; f"), 3, {"f": total})
    assert bulk_eval_term(chain, 3, {"f": total}).tolist() == cube.tolist()
    words = random_symbol_masks(np.random.default_rng(4), 24, 3, StructureClass.ALL, ("f",))
    domains = bulk_eval_term(parse_term("dom(f)"), 3, words)
    assert bulk_eval_term(tower, 3, words).tolist() == domains.tolist()
