"""Vectorised evaluation over many small structures at once.

A structure with domain size k <= 8 and one binary relation fits in a single
64-bit word: bit i*k + j stands for the pair (e_{i+1}, e_{j+1}).  A numpy
array of such words represents the same relation symbol across a whole batch
of structures, and every catalogue operation becomes a handful of bitwise
array operations.  This is what makes bounded-exhaustive sweeps over
hundreds of thousands of structures affordable.

The bit layout matches `structures.structure_from_index` exactly, so a
mismatch index found here can be decoded back into an ordinary `Structure`
for reporting.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from . import logic, terms as tm
from .structures import (
    Structure,
    StructureClass,
    _domain_of,
    _mask_pairs,
    injective_codes,
    space_size,
)

MAX_BULK_SIZE = 8

_U0 = np.uint64(0)
_U1 = np.uint64(1)


def _u(value: int) -> np.uint64:
    return np.uint64(value)


class BulkOps:
    """Per-domain-size bit tricks for the catalogue operations."""

    def __init__(self, k: int):
        if not 1 <= k <= MAX_BULK_SIZE:
            raise ValueError(f"bulk evaluation supports sizes 1..{MAX_BULK_SIZE}, got {k}")
        self.k = k
        kk = k * k
        self.mask_all = _u((1 << kk) - 1) if kk < 64 else _u(2**64 - 1)
        self.diag = _u(sum(1 << (i * k + i) for i in range(k)))
        self.row_masks = [_u(((1 << k) - 1) << (i * k)) for i in range(k)]
        self.col_masks = [_u(sum(1 << (i * k + j) for i in range(k))) for j in range(k)]
        self.row_bits = _u((1 << k) - 1)

    def top(self, n: int) -> np.ndarray:
        return np.full(n, self.mask_all, dtype=np.uint64)

    def identity(self, n: int) -> np.ndarray:
        return np.full(n, self.diag, dtype=np.uint64)

    def empty(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.uint64)

    def complement(self, r: np.ndarray) -> np.ndarray:
        return r ^ self.mask_all

    def converse(self, r: np.ndarray) -> np.ndarray:
        k = self.k
        out = np.zeros_like(r)
        for i in range(k):
            for j in range(k):
                bit = (r >> _u(i * k + j)) & _U1
                out |= bit << _u(j * k + i)
        return out

    def dom(self, r: np.ndarray) -> np.ndarray:
        k = self.k
        out = np.zeros_like(r)
        for i in range(k):
            nonempty = (r & self.row_masks[i]) != _U0
            out |= np.where(nonempty, _u(1 << (i * k + i)), _U0)
        return out

    def ran(self, r: np.ndarray) -> np.ndarray:
        k = self.k
        out = np.zeros_like(r)
        for j in range(k):
            nonempty = (r & self.col_masks[j]) != _U0
            out |= np.where(nonempty, _u(1 << (j * k + j)), _U0)
        return out

    def antidom(self, r: np.ndarray) -> np.ndarray:
        k = self.k
        out = np.zeros_like(r)
        for i in range(k):
            empty = (r & self.row_masks[i]) == _U0
            out |= np.where(empty, _u(1 << (i * k + i)), _U0)
        return out

    def compose(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        k = self.k
        out = np.zeros_like(r)
        for b in range(k):
            s_row = (s >> _u(b * k)) & self.row_bits
            for a in range(k):
                bit = (r >> _u(a * k + b)) & _U1
                out |= (bit * s_row) << _u(a * k)
        return out

    def semijoin(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        keep = np.zeros_like(r)
        for b in range(self.k):
            nonempty = (s & self.row_masks[b]) != _U0
            keep |= np.where(nonempty, self.col_masks[b], _U0)
        return r & keep

    def prefunion(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        free = np.zeros_like(r)
        for a in range(self.k):
            empty = (r & self.row_masks[a]) == _U0
            free |= np.where(empty, self.row_masks[a], _U0)
        return r | (s & free)

    def injunion(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        straight = self.prefunion(r, s)
        reverse = self.prefunion(self.converse(r), self.converse(s))
        return straight & self.converse(reverse)

    def apply(self, op: str, args: Sequence[np.ndarray], n: int) -> np.ndarray:
        if op == "id":
            return self.identity(n)
        if op == "empty":
            return self.empty(n)
        if op == "top":
            return self.top(n)
        if op in ("union",):
            return args[0] | args[1]
        if op == "inter":
            return args[0] & args[1]
        if op == "diff":
            return args[0] & ~args[1] & self.mask_all
        handler = getattr(self, op, None)
        if handler is None:
            raise ValueError(f"unknown operation tag {op!r}")
        return handler(*args)


def bulk_eval_term(
    t: tm.Term, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Evaluate one term across a batch, freeing intermediates eagerly.

    Intermediate arrays are dropped as soon as every parent has consumed
    them, so memory stays proportional to the term's nesting rather than
    its size.
    """
    ops = BulkOps(k)
    n = None
    for arr in symbol_masks.values():
        n = len(arr)
        break
    if n is None:
        n = 0
    refs: dict[int, int] = {}
    order = list(tm._postorder(t))
    for node in order:
        for a in node.args:
            refs[id(a)] = refs.get(id(a), 0) + 1
    memo: dict[int, np.ndarray] = {}
    for node in order:
        if node.op == "sym":
            arr = symbol_masks.get(node.name or "")
            if arr is None:
                raise tm.TermError(f"unknown relation symbol {node.name!r}")
            value = arr
        else:
            value = ops.apply(node.op, [memo[id(a)] for a in node.args], n)
        memo[id(node)] = value
        for a in node.args:
            refs[id(a)] -= 1
            if refs[id(a)] == 0 and id(a) != id(t):
                del memo[id(a)]
    return memo[id(t)]


def bulk_eval_formula(
    phi: logic.Formula, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Masks of the pairs (x, y) satisfying phi, batched like the term path.

    Runs `logic.formula_tensor` on atoms unpacked from the masks.  Free
    variables beyond {x, y} are rejected; a missing one is padded as
    unconstrained, matching define_relation(..., pad_missing=True).
    """
    fv = logic.free_vars(phi)
    if not fv <= {"x", "y"}:
        raise logic.LogicError(
            f"bulk evaluation needs free variables within x, y; got {sorted(fv)}"
        )
    n = 0
    for arr in symbol_masks.values():
        n = len(arr)
        break
    bit_index = np.arange(k * k, dtype=np.uint64)

    def atom(name: str) -> np.ndarray:
        masks = symbol_masks.get(name)
        if masks is None:
            raise tm.TermError(f"unknown relation symbol {name!r}")
        bits = (masks[:, None] >> bit_index[None, :]) & _U1
        return bits.astype(bool).reshape(n, k, k)

    variables, tensor = logic.formula_tensor(phi, k, n, atom)
    tensor = logic.align_variables(tensor, variables, ("x", "y"), k)
    flat = tensor.reshape(n, k * k).astype(np.uint64)
    return np.bitwise_or.reduce(flat << bit_index[None, :], axis=1)


def bulk_masks(
    obj: tm.Term | logic.Formula, k: int, symbol_masks: Mapping[str, np.ndarray]
) -> np.ndarray:
    if isinstance(obj, tm.Term):
        return bulk_eval_term(obj, k, symbol_masks)
    return bulk_eval_formula(obj, k, symbol_masks)


# --- decoding enumeration indices into mask batches ----------------------------

def _function_codes_to_masks(codes: np.ndarray, k: int, base: int) -> np.ndarray:
    masks = np.zeros_like(codes)
    for p in range(k):
        digit = (codes // _u(base**p)) % _u(base)
        if base == k + 1:
            for d in range(1, k + 1):
                masks |= np.where(digit == _u(d), _u(1 << (p * k + d - 1)), _U0)
        else:
            for d in range(k):
                masks |= np.where(digit == _u(d), _u(1 << (p * k + d)), _U0)
    return masks


def decode_symbol_masks(
    indices: np.ndarray,
    k: int,
    cls: StructureClass,
    symbols: Sequence[str],
) -> dict[str, np.ndarray]:
    """Per-symbol mask arrays for global enumeration indices.

    Mirrors `structures.structure_from_index`: symbols in sorted order, the
    first varying slowest.
    """
    ordered = sorted(symbols)
    per = space_size(k, cls)
    out: dict[str, np.ndarray] = {}
    for pos, name in enumerate(ordered):
        codes = (indices // _u(per ** (len(ordered) - 1 - pos))) % _u(per)
        if cls is StructureClass.ALL:
            out[name] = codes
        elif cls is StructureClass.PARTIAL_FUNCTIONS:
            out[name] = _function_codes_to_masks(codes, k, k + 1)
        elif cls is StructureClass.TOTAL_FUNCTIONS:
            out[name] = _function_codes_to_masks(codes, k, k)
        else:
            table = np.asarray(injective_codes(k), dtype=np.uint64)
            out[name] = _function_codes_to_masks(table[codes.astype(np.int64)], k, k + 1)
    return out


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
            out[name] = ((hi << _u(32)) | lo) & ops.mask_all
        elif cls is StructureClass.TOTAL_FUNCTIONS:
            digits = rng.integers(0, k, (n, k), dtype=np.uint64)
            masks = np.zeros(n, dtype=np.uint64)
            for p in range(k):
                for d in range(k):
                    masks |= np.where(digits[:, p] == _u(d), _u(1 << (p * k + d)), _U0)
            out[name] = masks
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
            masks = np.zeros(n, dtype=np.uint64)
            for p in range(k):
                for d in range(1, k + 1):
                    masks |= np.where(digits[:, p] == _u(d), _u(1 << (p * k + d - 1)), _U0)
            out[name] = masks
    return out


# --- bridging to ordinary structures --------------------------------------------

def masks_to_structure(masks: Mapping[str, int], k: int) -> Structure:
    rels = {name: _mask_pairs(int(mask), k) for name, mask in masks.items()}
    return Structure(_domain_of(k), rels)


def structure_to_masks(structure: Structure) -> tuple[int, dict[str, int]]:
    k = len(structure.domain)
    if k > MAX_BULK_SIZE:
        raise ValueError(f"structure too large for mask form: {k} > {MAX_BULK_SIZE}")
    index = {x: i for i, x in enumerate(structure.domain)}
    out: dict[str, int] = {}
    for name, rel in structure.relations.items():
        mask = 0
        for a, b in rel:
            mask |= 1 << (index[a] * k + index[b])
        out[name] = mask
    return k, out
