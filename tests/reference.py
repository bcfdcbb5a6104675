"""Reference routines the tests check the library against.

The closure routines call the one-pair kernels of `structures.BulkOps`
directly, never `BulkOps.grid`, so the cross-check stays independent of the
closure's row-hoisted tables.  The class predicates work on pairs, not on
masks, and the isomorphism reference tries every permutation.
"""

from itertools import permutations

from relalg.structures import ball, int_ops, relation_mask
from relalg.terms import Term, iter_nodes, sym

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
