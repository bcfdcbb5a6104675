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
from .structures import MAX_BULK_SIZE, decode_symbol_masks  # noqa: F401  (re-exported)
from .structures import BulkOps, StructureClass, _digit_masks

_U0 = np.uint64(0)
_U1 = np.uint64(1)


def bulk_eval_term(
    t: tm.Term, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Evaluate one term across a batch of size-k structures."""
    ops = BulkOps(k)
    n = len(next(iter(symbol_masks.values()), ()))
    return tm.evaluate(t, symbol_masks, lambda op, args: ops.apply(op, args, n))


def bulk_eval_formula(
    phi: logic.Formula, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Masks of the pairs (x, y) satisfying phi, batched like the term path.

    Runs `logic.formula_tensor` on uint64 words, 64 structures per word:
    each symbol's masks are bit-transposed into a (words, k, k) table, one
    pass per pair bit, and the (x, y) table is transposed back into one
    mask per structure.  Free variables beyond {x, y} are rejected; a
    missing one is padded as unconstrained, matching
    define_relation(..., pad_missing=True).
    """
    fv = logic.free_vars(phi)
    if not fv <= {"x", "y"}:
        raise logic.LogicError(
            f"bulk evaluation needs free variables within x, y; got {sorted(fv)}"
        )
    n = len(next(iter(symbol_masks.values()), ()))
    words = -(-n // 64)

    def atom(name: str) -> np.ndarray:
        masks = symbol_masks.get(name)
        if masks is None:
            raise tm.TermError(f"unknown relation symbol {name!r}")
        octets = np.asarray(masks, dtype="<u8").view(np.uint8).reshape(n, 8)
        table = np.zeros((k * k, 8 * words), dtype=np.uint8)
        for p in range(k * k):
            bits = octets[:, p >> 3] & (1 << (p & 7))
            table[p, : -(-n // 8)] = np.packbits(bits, bitorder="little")
        return table.view("<u8").T.reshape(words, k, k)

    variables, tensor = logic.formula_tensor(phi, k, words, atom)
    tensor = logic.align_variables(tensor, variables, ("x", "y"), k)
    table = np.ascontiguousarray(tensor.reshape(words, k * k).T, dtype="<u8")
    out = np.zeros(n, dtype=np.uint64)
    for p in range(k * k):
        # count=n drops the padding bits past the batch, which ~ sets.
        bits = np.unpackbits(table[p].view(np.uint8), count=n, bitorder="little")
        out |= bits.astype(np.uint64) << np.uint64(p)
    return out


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
    ops = BulkOps(k)
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
