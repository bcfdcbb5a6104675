"""Reference routines the tests check the library against.

They call the one-pair kernels of `structures.BulkOps` directly, never
`BulkOps.grid`, so the cross-check stays independent of the closure's
row-hoisted tables.
"""

from relalg.structures import int_ops, relation_mask
from relalg.terms import Term, sym

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
