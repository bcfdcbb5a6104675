"""Batched evaluation over many structures of one size at once.

Each structure of size k <= MAX_BULK_SIZE is one uint64 word per symbol, a
k x k bit matrix in the layout of `structures.relation_mask` (bit i*k + j is
the pair (e_{i+1}, e_{j+1})).  `bulk_eval_term` runs the kernels of
`structures.BulkOps`, the one definition of the catalogue operations, on
arrays of such words; `terms.eval_term` runs the same kernels on Python ints
for one structure.  The batch form is what makes bounded-exhaustive sweeps
over hundreds of thousands of structures affordable.

Enumeration indices are decoded into such batches by
`structures.decode_symbol_masks`, re-exported here, the one enumeration
codec: the same function decodes a single index for
`structures.structure_from_index`, so a mismatch index found here names
the ordinary `Structure` reported for it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from . import logic, terms as tm
from .structures import BulkOps, MAX_BULK_SIZE, decode_symbol_masks  # noqa: F401  (re-exported)
from .structures import StructureClass, _digit_masks, batch_ops

_U0 = np.uint64(0)
_U1 = np.uint64(1)
# The shift of each bit of a byte, as a column.
_BYTE_WEIGHTS = np.arange(8, dtype=np.uint8)[:, None]

# Structures per block of `bulk_eval_term`: 64 KiB per uint64 temporary.
BLOCK = 1 << 13


def bulk_eval_term(
    t: tm.Term, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Evaluate one term across a batch of size-k structures.

    The batch runs in blocks of `BLOCK` structures, each written into one
    output array.  Every kernel step returns a fresh array: over a whole
    65,536-structure batch that is 512 KiB, which the allocator maps as
    new pages and unmaps again at every step, while a block's temporaries
    are reused from the heap.
    """
    ops = batch_ops(k)
    n = len(next(iter(symbol_masks.values()), ()))
    out = np.empty(n, dtype=np.uint64)
    # An empty batch still runs one (empty) block, so an unknown symbol raises.
    for start in range(0, max(n, 1), BLOCK):
        end = min(start + BLOCK, n)
        block = {name: masks[start:end] for name, masks in symbol_masks.items()}
        out[start:end] = tm.evaluate(t, block, lambda op, args: ops.apply(op, args, end - start))
    return out


def _bit_table(masks: np.ndarray, k: int) -> np.ndarray:
    """One symbol's n masks as a (words, k, k) table, 64 structures per word
    (the layout of `logic.formula_tensor`).  Pair p's bits are byte row
    p >> 3 of the masks, transposed, masked to bit p & 7: gathered for
    every pair at once and packed in one pass.  Padding past n reads 0."""
    n, words = len(masks), -(-len(masks) // 64)
    pairs = np.arange(k * k)
    octets = np.zeros((-(-k * k // 8), 64 * words), dtype=np.uint8)
    rows = np.asarray(masks, dtype="<u8").view(np.uint8).reshape(n, 8)
    octets[:, :n] = rows[:, : len(octets)].T
    bits = octets[pairs >> 3]
    bits &= np.left_shift(1, pairs & 7).astype(np.uint8)[:, None]
    table = np.packbits(bits, axis=1, bitorder="little")
    return table.view("<u8").T.reshape(words, k, k)


def _table_masks(table: np.ndarray, k: int, n: int) -> np.ndarray:
    """The first n masks of a (words, k, k) table, the inverse of
    `_bit_table`: unpacked in one pass into a row per pair, then each
    group of 8 pair rows weighted and OR-reduced into one byte of every
    mask, at most 8 reductions whatever the batch size."""
    rows = np.ascontiguousarray(table.reshape(len(table), k * k).T, dtype="<u8")
    # count=n drops the padding bits past the batch, which ~ sets.
    bits = np.unpackbits(rows.view(np.uint8), axis=1, count=n, bitorder="little")
    out = np.zeros((n, 8), dtype=np.uint8)
    for p in range(0, k * k, 8):
        group = bits[p : p + 8]
        group <<= _BYTE_WEIGHTS[: len(group)]
        out[:, p >> 3] = np.bitwise_or.reduce(group, axis=0)
    return out.view("<u8").reshape(n).astype(np.uint64, copy=False)


def bulk_eval_formula(
    phi: logic.Formula, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Masks of the pairs (x, y) satisfying phi, batched like the term path.

    Runs `logic.formula_tensor` on uint64 words, 64 structures per word:
    each symbol's masks are bit-transposed into a (words, k, k) table
    (`_bit_table`) and the (x, y) table back into one mask per structure
    (`_table_masks`), each in a few whole-array passes, not one per pair
    bit.
    Free variables beyond {x, y} are rejected; a missing one is padded as
    unconstrained, matching define_relation(..., pad_missing=True).
    """
    fv = logic.free_vars(phi)
    if not fv <= {"x", "y"}:
        raise logic.LogicError(
            f"bulk evaluation needs free variables within x, y; got {sorted(fv)}"
        )
    n = len(next(iter(symbol_masks.values()), ()))

    def atom(name: str) -> np.ndarray:
        masks = symbol_masks.get(name)
        if masks is None:
            raise tm.TermError(f"unknown relation symbol {name!r}")
        return _bit_table(masks, k)

    variables, tensor = logic.formula_tensor(phi, k, -(-n // 64), atom)
    tensor = logic.align_variables(tensor, variables, ("x", "y"), k)
    return _table_masks(tensor, k, n)


def bulk_masks(
    obj: tm.Term | logic.Formula, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    if isinstance(obj, tm.Term):
        return bulk_eval_term(obj, k, symbol_masks)
    return bulk_eval_formula(obj, k, symbol_masks)


# --- random mask batches ------------------------------------------------------

def random_symbol_masks(
    rng: np.random.Generator,
    n: int,
    k: int,
    cls: StructureClass,
    symbols: Sequence[str],
) -> dict[str, np.ndarray]:
    """Seeded random mask batches, one array per symbol."""
    ops = batch_ops(k)
    out: dict[str, np.ndarray] = {}
    for name in sorted(symbols):
        if cls is StructureClass.ALL:
            lo = rng.integers(0, 1 << 32, n, dtype=np.uint64)
            hi = rng.integers(0, 1 << 32, n, dtype=np.uint64)
            out[name] = ((hi << np.uint64(32)) | lo) & ops.mask_all
        elif cls is StructureClass.TOTAL_FUNCTIONS:
            digits = rng.integers(0, k, (n, k), dtype=np.uint64)
            out[name] = _digit_masks(digits.T, k, partial=False)
        else:
            digits = rng.integers(0, k + 1, (n, k), dtype=np.uint64)
            if cls is StructureClass.INJECTIVE_PARTIAL_FUNCTIONS:
                used = np.zeros((n, k), dtype=bool)
                rows = np.arange(n)
                for p in range(k):
                    dp = digits[:, p]
                    has = dp > _U0
                    target = np.where(has, dp - _U1, _U0).astype(np.int64)
                    taken = used[rows, target] & has
                    digits[taken, p] = _U0
                    fresh = has & ~taken
                    used[rows[fresh], target[fresh]] = True
            out[name] = _digit_masks(digits.T, k, partial=True)
    return out
