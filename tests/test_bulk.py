"""The vectorized evaluator must match the scalar one exactly."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg.bulk import (
    MAX_BULK_SIZE,
    bulk_eval_formula,
    bulk_eval_term,
    decode_symbol_masks,
    random_symbol_masks,
)
from relalg.logic import eval_formula, parse_formula, term_to_fo3
from relalg.structures import (
    StructureClass,
    _mask_pairs,
    _sorted_domain,
    count_structures,
    enumerate_structures,
    is_injective_partial_function,
    is_partial_function,
    is_total_function,
    masks_to_structure,
    random_structure,
)
from relalg.terms import CATALOGUE, eval_term, random_term

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


def test_random_masks_lie_in_their_class():
    rng = np.random.default_rng(9)
    preds = {
        PF: is_partial_function,
        TF: lambda r: is_total_function(r, tuple(f"e{i}" for i in range(1, 5))),
        IPF: is_injective_partial_function,
    }
    for cls, pred in preds.items():
        masks = random_symbol_masks(rng, 200, 4, cls, ("f",))
        for i in range(200):
            s = structure_from_masks_at(masks, 4, i)
            assert pred(s.relations["f"]), (cls, i)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, MAX_BULK_SIZE))
def test_bulk_term_eval_matches_scalar(seed, k):
    rng = random.Random(seed)
    t = random_term(rng, set(CATALOGUE) | {"injunion"}, ("f", "g"), rng.randint(1, 12))
    np_rng = np.random.default_rng(seed)
    masks = random_symbol_masks(np_rng, 30, k, ALL, ("f", "g"))
    out = bulk_eval_term(t, k, masks)
    # The reference is the formula route: eval_term shares the bulk kernels.
    phi = term_to_fo3(t, "x", "y")
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
