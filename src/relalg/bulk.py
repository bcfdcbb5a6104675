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
from functools import cache
from itertools import permutations

import numpy as np

from . import logic, terms as tm
from .structures import BulkOps, MAX_BULK_SIZE, decode_symbol_masks  # noqa: F401  (re-exported)
from .structures import StructureClass, _digit_masks, batch_ops

# The shift of each bit of a byte, as a column.
_BYTE_WEIGHTS = np.arange(8, dtype=np.uint8)[:, None]

# Structures per block of `bulk_eval_term` and `random_symbol_masks`: 64 KiB
# per uint64 temporary.
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
#
# Each class has one distribution at every size.  ALL sets each pair with
# probability 1/2.  PARTIAL_FUNCTIONS maps each element to none or one of
# the k elements, each with probability 1/(k + 1), TOTAL_FUNCTIONS to one
# of the k, each 1/k.  INJECTIVE_PARTIAL_FUNCTIONS draws a uniform
# permutation and keeps each element's edge to its image on a fair coin.
# `structures.random_masks` draws the same from a `random.Random`.

# Rows per function-class code: at most 9**4 codes a table.
_ROWS = 4


def random_symbol_masks(
    rng: np.random.Generator, n: int, k: int, cls: StructureClass, symbols: Sequence[str]
) -> dict:
    """n seeded random structures of k elements in `cls`, as each symbol's
    masks over e1..ek: a uint64 array up to `MAX_BULK_SIZE`, a list of
    Python ints beyond.  The draws run in blocks of `BLOCK` structures,
    the symbols in sorted order within a block.  Up to `MAX_BULK_SIZE` a
    bounded draw covers a whole word, a group of function rows looked up
    in a cached table, or an injective structure's permutation and coins;
    beyond, it covers a digit per element (a bit per pair for ALL)."""
    wide = k > MAX_BULK_SIZE
    draw = _wide_masks if wide else _narrow_masks
    out = {name: [] if wide else np.empty(n, dtype=np.uint64) for name in sorted(symbols)}
    for start in range(0, n, BLOCK):
        end = min(start + BLOCK, n)
        for masks in out.values():
            masks[start:end] = draw(rng, end - start, k, cls)
    return out


def _narrow_masks(rng: np.random.Generator, m: int, k: int, cls: StructureClass) -> np.ndarray:
    if cls is StructureClass.ALL:
        return rng.integers(0, 1 << 64, m, dtype=np.uint64) >> np.uint64(64 - k * k)
    if cls is StructureClass.INJECTIVE_PARTIAL_FUNCTIONS:
        perms, coins = _injective_tables(k)
        codes = rng.integers(0, len(perms) << k, m)
        return perms[codes >> k] & coins[codes & (1 << k) - 1]
    masks = np.zeros(m, dtype=np.uint64)
    for row in range(0, k, _ROWS):
        table = _row_table(k, cls, min(_ROWS, k - row))
        masks |= table[rng.integers(0, len(table), m)] << np.uint64(row * k)
    return masks


def _wide_masks(rng: np.random.Generator, m: int, k: int, cls: StructureClass) -> list[int]:
    if cls is StructureClass.ALL:
        rows = np.packbits(rng.integers(0, 2, (m, k * k), dtype=np.uint8), axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in rows]
    partial = cls is not StructureClass.TOTAL_FUNCTIONS
    if cls is StructureClass.INJECTIVE_PARTIAL_FUNCTIONS:
        digits = rng.permuted(np.tile(np.arange(1, k + 1), (m, 1)), axis=1) * rng.integers(0, 2, (m, k))
    else:
        digits = rng.integers(0, k + partial, (m, k))
    return [_digit_masks(row, k, partial) for row in digits.tolist()]


@cache
def _row_table(k: int, cls: StructureClass, rows: int) -> np.ndarray:
    """The table a group of `rows` function rows looks its code up in: the
    mask each code's digits place on rows 0..rows - 1 at size k."""
    codes = np.arange((k + (cls is not StructureClass.TOTAL_FUNCTIONS)) ** rows, dtype=np.uint64)
    return decode_symbol_masks(codes, k, cls, ("",))[""] & np.uint64((1 << rows * k) - 1)


@cache
def _injective_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(perms, coins) at size k: perms[p] the mask of the p-th permutation
    of e1..ek in `itertools.permutations` order, coins[b] the rows of the
    elements whose bit is set in b."""
    images = np.array(list(permutations(range(1, k + 1))), dtype=np.uint64)
    bits = np.arange(1 << k, dtype=np.uint64)
    row = np.uint64((1 << k) - 1)
    coins = sum((bits >> np.uint64(p) & np.uint64(1)) * (row << np.uint64(p * k)) for p in range(k))
    return _digit_masks(images.T, k, partial=True), coins
