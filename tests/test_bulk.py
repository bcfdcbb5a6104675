"""The vectorized evaluator must match the scalar one exactly."""

import random
import tracemalloc
from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    is_injective_partial_function,
    is_partial_function,
    is_total_function,
    per_bit_masks,
    per_bit_table,
)

from relalg import terms as tm
from relalg.bulk import (
    BLOCK,
    MAX_BULK_SIZE,
    _ROWS,
    _bit_table,
    _table_masks,
    bulk_eval_formula,
    bulk_eval_term,
    decode_symbol_masks,
    random_symbol_masks,
)
from relalg.logic import (
    And,
    Atom,
    Eq,
    Exists,
    classify,
    define_relation,
    eval_formula,
    free_vars,
    parse_formula,
    term_to_fo3,
)
from relalg.structures import (
    BulkOps,
    StructureClass,
    _domain_of,
    _mask_pairs,
    _sorted_domain,
    count_structures,
    drawn_structure,
    enumerate_structures,
    masks_to_structure,
    random_structure,
)
from relalg.terms import CATALOGUE, Term, eval_term, random_term, sym

ALL = StructureClass.ALL
PF = StructureClass.PARTIAL_FUNCTIONS
TF = StructureClass.TOTAL_FUNCTIONS
IPF = StructureClass.INJECTIVE_PARTIAL_FUNCTIONS


def test_mask_round_trip():
    s = random_structure(4, 5, ("f", "g"))
    k = s.size()
    assert masks_to_structure(s.masks, k) == s
    for name, mask in s.masks.items():
        assert _mask_pairs(mask, s.domain) == s.relations[name]


def test_decode_matches_enumeration_order():
    for cls in (ALL, PF, TF, IPF):
        for k in (1, 2, 3):
            total = count_structures(("f", "g"), k, cls)
            indices = np.arange(total, dtype=np.uint64)
            masks = decode_symbol_masks(indices, k, cls, ("f", "g"))
            listed = [
                structure_from_masks_at(masks, k, i) for i in range(total)
            ]
            from relalg.structures import structure_from_index

            for i in range(total):
                assert listed[i] == structure_from_index(("f", "g"), k, cls, i), (
                    cls,
                    k,
                    i,
                )


def structure_from_masks_at(masks, k, i):
    return masks_to_structure({name: int(arr[i]) for name, arr in masks.items()}, k)


def reference_digit_masks(digits, k, partial):
    """Digits placed the way they were before one shift per digit: a pass
    per possible value at every position."""
    masks = np.zeros(len(digits), dtype=np.uint64)
    for p in range(k):
        for d in range(1, k + 1) if partial else range(k):
            bit = p * k + d - 1 if partial else p * k + d
            masks |= np.where(digits[:, p] == d, np.uint64(1 << bit), np.uint64(0))
    return masks


def reference_random_symbol_masks(rng, n, k, cls, symbols):
    """The same draws (k <= MAX_BULK_SIZE), each code read back into one
    digit per element and placed a value at a time: a function-class code
    per group of `_ROWS` rows, an injective code as a permutation of e1..ek
    in `itertools.permutations` order and one coin bit per element."""
    out = {name: [] for name in sorted(symbols)}
    base = k + (cls is not TF)
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        for name in sorted(symbols):
            if cls is ALL:
                out[name].append(rng.integers(0, 1 << 64, m, dtype=np.uint64) >> np.uint64(64 - k * k))
                continue
            digits = np.zeros((m, k), dtype=np.uint64)
            if cls is IPF:
                images = np.array(list(permutations(range(1, k + 1))), dtype=np.uint64)
                codes = rng.integers(0, len(images) << k, m)
                for p in range(k):
                    coin = (codes >> p & 1).astype(np.uint64)
                    digits[:, p] = images[codes >> k, p] * coin
            else:
                for row in range(0, k, _ROWS):
                    width = min(_ROWS, k - row)
                    codes = rng.integers(0, base**width, m)
                    for p in range(width):
                        digits[:, row + p] = codes // base**p % base
            out[name].append(reference_digit_masks(digits, k, cls is not TF))
    return {name: np.concatenate(parts) for name, parts in out.items()}


def test_digit_placement_matches_the_value_by_value_decoder():
    for k in range(1, MAX_BULK_SIZE + 1):
        for cls, base, partial in ((PF, k + 1, True), (TF, k, False)):
            codes = np.random.default_rng(k).integers(0, base**k, 4096, dtype=np.uint64)
            digits = np.stack([(codes // np.uint64(base**p)) % np.uint64(base) for p in range(k)], 1)
            assert np.array_equal(
                decode_symbol_masks(codes, k, cls, ("f",))["f"],
                reference_digit_masks(digits, k, partial),
            ), (k, base)
        for cls in (ALL, PF, TF, IPF):
            got = random_symbol_masks(np.random.default_rng(k), 2048, k, cls, ("f", "g"))
            want = reference_random_symbol_masks(np.random.default_rng(k), 2048, k, cls, ("f", "g"))
            for name in ("f", "g"):
                assert np.array_equal(got[name], want[name]), (k, cls, name)


def test_random_masks_lie_in_their_class():
    rng = np.random.default_rng(9)
    for k in range(1, 13):
        preds = {
            ALL: lambda r: all(a in domain and b in domain for a, b in r),
            PF: is_partial_function,
            TF: lambda r: is_total_function(r, domain),
            IPF: is_injective_partial_function,
        }
        domain = _domain_of(k)
        for cls, pred in preds.items():
            masks = random_symbol_masks(rng, 200, k, cls, ("f", "g"))
            assert all(isinstance(m, np.ndarray) == (k <= MAX_BULK_SIZE) for m in masks.values())
            for i in range(200):
                drawn = {name: int(m[i]) for name, m in masks.items()}
                assert all(0 <= mask < 1 << k * k for mask in drawn.values()), (cls, k, i)
                s = drawn_structure(drawn, k)
                assert all(pred(s.relations[name]) for name in drawn), (cls, k, i)


def test_random_masks_cross_block_seams_as_the_reference_draws():
    for k in (3, 8):
        for cls in (ALL, PF, TF, IPF):
            for n in (BLOCK - 1, BLOCK, BLOCK + 1):
                got = random_symbol_masks(np.random.default_rng(n), n, k, cls, ("g", "f"))
                want = reference_random_symbol_masks(np.random.default_rng(n), n, k, cls, ("f", "g"))
                assert list(got) == ["f", "g"]
                for name in ("f", "g"):
                    assert got[name].shape == (n,) and np.array_equal(got[name], want[name])
                    assert cls.contains(got[name], k).all(), (k, cls, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, MAX_BULK_SIZE))
def test_bulk_term_eval_matches_scalar(seed, k):
    rng = random.Random(seed)
    t = random_term(rng, set(CATALOGUE) | {"injunion"}, ("f", "g"), rng.randint(1, 12))
    np_rng = np.random.default_rng(seed)
    masks = random_symbol_masks(np_rng, 30, k, ALL, ("f", "g"))
    out = bulk_eval_term(t, k, masks)
    # The reference is the formula route: eval_term shares the bulk kernels.
    phi = term_to_fo3(t)
    for i in (0, 7, 13, 29):
        s = structure_from_masks_at(masks, k, i)
        expected = {
            (a, b)
            for a in s.domain
            for b in s.domain
            if eval_formula(phi, s, {"x": a, "y": b})
        }
        assert _mask_pairs(int(out[i]), _sorted_domain(k)) == expected


BULK_FORMULAS = (
    "exists z. (f(x,z) & g(z,y)) | f(y,x)",
    "forall z. f(x,z) -> !g(z,y)",
    "!(exists z. f(z,z)) | x = y",
    "forall x. exists z. f(x,z) & g(z,y)",
    "f(x,x) -> forall z. g(z,x)",
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bulk_formula_eval_matches_scalar(seed):
    phi = parse_formula(BULK_FORMULAS[seed % len(BULK_FORMULAS)])
    np_rng = np.random.default_rng(seed)
    k = 1 + seed % MAX_BULK_SIZE
    masks = random_symbol_masks(np_rng, 20, k, ALL, ("f", "g"))
    out = bulk_eval_formula(phi, k, masks)
    for i in (0, 9, 19):
        s = structure_from_masks_at(masks, k, i)
        expected = {
            (a, b)
            for a in s.domain
            for b in s.domain
            if eval_formula(phi, s, {"x": a, "y": b})
        }
        assert _mask_pairs(int(out[i]), _sorted_domain(k)) == expected


# Negation, implication and forall set the padding bits past the end of the
# last word; none of them may reach an output mask.
WORD_BOUNDARY_FORMULAS = (
    "!f(x,y) -> forall z. (g(x,z) | !f(z,y))",
    "forall z. true",
    "exists z. false | x = x",
    "!(exists z. f(x,z) & g(z,y)) & y = y",
    "forall y. !f(x,y) -> exists z. g(z,x)",
    "forall x. forall y. f(x,y) -> !g(y,x)",
    "!false",
)


def test_bulk_formula_eval_across_word_boundaries():
    np_rng = np.random.default_rng(64)
    for n in (1, 63, 64, 65, 130):
        for k in range(1, MAX_BULK_SIZE + 1):
            masks = random_symbol_masks(np_rng, n, k, ALL, ("f", "g"))
            for text in WORD_BOUNDARY_FORMULAS:
                phi = parse_formula(text)
                out = bulk_eval_formula(phi, k, masks)
                assert out.shape == (n,) and out.dtype == np.uint64
                for i in sorted({0, 62, 63, n - 1} & set(range(n))):
                    s = structure_from_masks_at(masks, k, i)
                    expected = {
                        (a, b)
                        for a in s.domain
                        for b in s.domain
                        if eval_formula(phi, s, {"x": a, "y": b})
                    }
                    got = _mask_pairs(int(out[i]), _sorted_domain(k))
                    assert got == expected, (text, n, k, i)


def test_bulk_formula_eval_memory_stays_linear_in_the_batch():
    # A three-variable formula at k = 8 over 65,536 structures: one bit per
    # structure per table cell is 4 MB a table, where one bool per cell
    # would take 32 MB.
    phi = parse_formula("forall z. (f(x,z) -> exists y. g(z,y) & !f(y,x)) | x = y")
    masks = random_symbol_masks(np.random.default_rng(8), 65536, 8, ALL, ("f", "g"))
    tracemalloc.start()
    try:
        bulk_eval_formula(phi, 8, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, peak


def test_deep_formulas_evaluate_without_recursion():
    # phi_{i+1}(x, y) = exists z. f(x,z) & exists x. (x = z & phi_i(x, y)),
    # so phi_m defines the m-fold composition f ; f ; ... ; f.
    steps = 750
    phi = Atom("f", "x", "y")
    for _ in range(steps):
        phi = Exists("z", And(Atom("f", "x", "z"), Exists("x", And(Eq("x", "z"), phi))))
    assert free_vars(phi) == {"x", "y"}
    assert classify(phi).is_posex
    for k in (1, 3, 4):
        masks = random_symbol_masks(np.random.default_rng(k), 70, k, ALL, ("f",))
        ops = BulkOps(k)
        expected = masks["f"]
        for _ in range(steps):
            expected = ops.compose(masks["f"], expected)
        assert np.array_equal(bulk_eval_formula(phi, k, masks), expected)
        for i in (0, 69):
            s = structure_from_masks_at(masks, k, i)
            got = define_relation(phi, "x", "y", s)
            assert got == _mask_pairs(int(expected[i]), s.domain)


def test_bulk_term_eval_exhaustive_size_two():
    # every 2-element structure over one symbol, every catalogue operation
    from relalg.terms import parse_term

    total = count_structures(("R",), 2, ALL)
    masks = decode_symbol_masks(np.arange(total, dtype=np.uint64), 2, ALL, ("R",))
    for text in ("id", "0", "T", "-R", "R^", "dom(R)", "ran(R)", "~R",
                 "R | R", "R & R^", "R \\ R^", "R ; R", "R |> R", "R <+ R^",
                 "R <# R^"):
        t = parse_term(text)
        out = bulk_eval_term(t, 2, masks)
        for i in range(total):
            s = structure_from_masks_at(masks, 2, i)
            assert _mask_pairs(int(out[i]), s.domain) == eval_term(t, s), text


TRANSPOSE_SIZES = (1, 63, 64, 65, 1000, 20_000)


def test_bit_transposition_round_trips_and_matches_the_per_bit_reference():
    rng = np.random.default_rng(21)
    for k in range(1, MAX_BULK_SIZE + 1):
        mask_all = np.uint64((1 << k * k) - 1)
        for n in TRANSPOSE_SIZES:
            masks = rng.integers(0, 1 << 64, n, dtype=np.uint64, endpoint=False) & mask_all
            table = _bit_table(masks, k)
            assert table.shape == (-(-n // 64), k, k)
            assert np.array_equal(table, per_bit_table(masks, k)), (k, n)
            back = _table_masks(table, k, n)
            assert back.dtype == np.uint64 and np.array_equal(back, masks), (k, n)
            # A formula's table has bits set past the batch (negation sets
            # them) and, in a padded last word, past n: none may show.
            noise = rng.integers(0, 1 << 64, table.shape, dtype=np.uint64, endpoint=False)
            assert np.array_equal(_table_masks(noise, k, n), per_bit_masks(noise, k, n)), (k, n)


def test_bulk_formula_eval_matches_define_relation_at_every_size():
    rng = np.random.default_rng(5)
    for k in range(1, MAX_BULK_SIZE + 1):
        for n in TRANSPOSE_SIZES:
            masks = random_symbol_masks(rng, n, k, ALL, ("f", "g"))
            positions = sorted({0, n // 2, n - 1, int(rng.integers(n))})
            for text in BULK_FORMULAS:
                phi = parse_formula(text)
                out = bulk_eval_formula(phi, k, masks)
                for i in positions:
                    s = structure_from_masks_at(masks, k, i)
                    want = define_relation(phi, "x", "y", s, pad_missing=True)
                    assert _mask_pairs(int(out[i]), s.domain) == want, (text, k, n, i)


def deep_term(levels: int) -> Term:
    """A term nested `levels` deep whose every level uses the level below
    twice, so each value is freed only at its second use."""
    t = sym("f")
    binary = ("union", "inter", "diff", "compose", "semijoin", "prefunion", "injunion")
    for level in range(levels):
        inner = Term("converse", (t,)) if level % 3 else Term("union", (t, Term("id")))
        t = Term(binary[level % len(binary)], (Term("compose", (t, sym("g"))), inner))
    return t


def test_blocked_term_eval_matches_unblocked_slices():
    rng = random.Random(31)
    terms = [random_term(rng, set(CATALOGUE) | {"injunion"}, ("f", "g"), 12) for _ in range(4)]
    terms.append(deep_term(300))
    for k in (1, 3, 8):
        ops = BulkOps(k)
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
            masks = random_symbol_masks(np.random.default_rng(n + k), n, k, ALL, ("f", "g"))
            for t in terms:
                got = bulk_eval_term(t, k, masks)
                # Each slice evaluated whole, with no block split inside it.
                want = np.concatenate([
                    tm.evaluate(
                        t,
                        {name: m[start:start + 1000] for name, m in masks.items()},
                        lambda op, args, n=min(1000, n - start): ops.apply(op, args, n),
                    )
                    for start in range(0, n, 1000)
                ])
                assert got.dtype == np.uint64 and np.array_equal(got, want), (k, n)
