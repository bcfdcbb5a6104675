"""A second evaluation route for checking the program's outputs.

Relations are frozensets of element pairs, as in the program, but every
operation is written here from its definition and shares no code with
`relalg.terms`.  Terms are read only through their `op`, `args` and `name`
attributes.  The module also carries its own random structures, balls,
counterexample checks and semantic closure, so that no check of a program
output runs through the code that produced it.
"""

from __future__ import annotations

import itertools
import random


def _dom(r):
    return {a for a, _ in r}


def _ran(r):
    return {b for _, b in r}


def apply(op, args, domain):
    """One catalogue operation on relations over `domain`."""
    if op == "id":
        return frozenset((x, x) for x in domain)
    if op == "empty":
        return frozenset()
    if op == "top":
        return frozenset(itertools.product(domain, repeat=2))
    if op == "complement":
        (r,) = args
        return frozenset(p for p in itertools.product(domain, repeat=2) if p not in r)
    if op == "converse":
        (r,) = args
        return frozenset((b, a) for a, b in r)
    if op == "dom":
        return frozenset((a, a) for a in _dom(args[0]))
    if op == "ran":
        return frozenset((b, b) for b in _ran(args[0]))
    if op == "antidom":
        defined = _dom(args[0])
        return frozenset((x, x) for x in domain if x not in defined)
    r, s = args
    if op == "union":
        return r | s
    if op == "inter":
        return r & s
    if op == "diff":
        return r - s
    if op == "compose":
        return frozenset((a, d) for a, b in r for c, d in s if b == c)
    if op == "semijoin":
        sources = _dom(s)
        return frozenset((a, b) for a, b in r if b in sources)
    if op == "prefunion":
        defined = _dom(r)
        return r | frozenset((a, b) for a, b in s if a not in defined)
    if op == "injunion":
        # Additions must leave both the source and the target free in r.
        defined, hit = _dom(r), _ran(r)
        return r | frozenset((a, b) for a, b in s if a not in defined and b not in hit)
    raise ValueError(f"reference evaluator: unknown operation {op!r}")


def evaluate(term, domain, relations):
    """Value of a term, each shared subterm object evaluated once."""
    domain = tuple(domain)
    memo = {}
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in memo:
            continue
        if ready:
            if node.op == "sym":
                memo[key] = frozenset(relations[node.name])
            else:
                memo[key] = apply(node.op, [memo[id(a)] for a in node.args], domain)
            continue
        stack.append((node, True))
        stack.extend((a, False) for a in node.args if id(a) not in memo)
    return memo[id(term)]


def term_nodes(term):
    """Number of structurally distinct subterms."""
    seen_ids = set()
    distinct = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) in seen_ids:
            continue
        seen_ids.add(id(node))
        distinct.add(node)
        stack.extend(node.args)
    return len(distinct)


def term_ops(term):
    ops = set()
    seen = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op != "sym":
            ops.add(node.op)
        stack.extend(node.args)
    return frozenset(ops)


# --- structures as (domain, {symbol: pairs}) ------------------------------------


def random_relations(rng, size, symbols, kind):
    """Seeded relations over e1..e{size}: kind is 'all', 'pf' or 'ipf'."""
    domain = tuple(f"e{i}" for i in range(1, size + 1))
    rels = {}
    for name in symbols:
        if kind == "all":
            rels[name] = frozenset(
                p for p in itertools.product(domain, repeat=2) if rng.random() < 0.3
            )
        elif kind == "pf":
            rels[name] = frozenset(
                (a, rng.choice(domain)) for a in domain if rng.random() < 0.75
            )
        elif kind == "ipf":
            targets = list(domain)
            rng.shuffle(targets)
            rels[name] = frozenset(
                (a, b) for a, b in zip(domain, targets) if rng.random() < 0.75
            )
        else:
            raise ValueError(kind)
    return domain, rels


def all_relations(domain, symbols):
    """Every assignment of relations to the symbols over the domain."""
    pairs = list(itertools.product(domain, repeat=2))
    subsets = [
        frozenset(p for bit, p in enumerate(pairs) if mask >> bit & 1)
        for mask in range(1 << len(pairs))
    ]
    for combo in itertools.product(subsets, repeat=len(symbols)):
        yield dict(zip(symbols, combo))


def from_json(doc):
    domain = tuple(doc["domain"])
    rels = {name: frozenset(tuple(p) for p in pairs) for name, pairs in doc["relations"].items()}
    return domain, rels


def induced(domain, rels, keep):
    keep = set(keep)
    sub = tuple(x for x in domain if x in keep)
    return sub, {n: frozenset(p for p in r if p[0] in keep and p[1] in keep) for n, r in rels.items()}


def reach(domain, rels, root, radius, mode):
    """Elements within `radius` steps of root, along edges or (undirected) both ways."""
    nbrs = {x: set() for x in domain}
    for r in rels.values():
        for a, b in r:
            nbrs[a].add(b)
            if mode == "undirected":
                nbrs[b].add(a)
    seen = {root}
    frontier = {root}
    for _ in range(radius):
        frontier = {y for x in frontier for y in nbrs[x]} - seen
        seen |= frontier
    return seen


def _is_partial_function(r):
    sources = [a for a, _ in r]
    return len(sources) == len(set(sources))


def _anchored_isos(left, right, la, ra):
    """Every bijection of the two balls fixing the anchors and the relations."""
    ldom, lrels = left
    rdom, rrels = right
    if len(ldom) != len(rdom) or set(lrels) != set(rrels):
        return
    lrest = [x for x in ldom if x != la]
    rrest = [x for x in rdom if x != ra]
    for perm in itertools.permutations(rrest):
        m = dict(zip(lrest, perm))
        m[la] = ra
        if all(frozenset((m[a], m[b]) for a, b in lrels[n]) == rrels[n] for n in lrels):
            yield m


def counterexample_holds(prop, data, parse):
    """Whether a reported counterexample violates `prop` under this module.

    `parse` turns the counterexample's term text into a term object.
    """
    term = parse(data["term"])
    kind = data["kind"]
    if kind == "invariant" and prop in ("fp", "function-preserving"):
        domain, rels = from_json(data["structure"])
        return not _is_partial_function(evaluate(term, domain, rels))
    if kind == "homomorphism":
        sdom, srels = from_json(data["source"])
        tdom, trels = from_json(data["target"])
        h = data["map"]
        if set(h) != set(sdom) or not set(h.values()) <= set(tdom):
            return False
        for n, r in srels.items():
            if any((h[a], h[b]) not in trels[n] for a, b in r):
                return False
        a, b = data["pair"]
        return (a, b) in evaluate(term, sdom, srels) and (h[a], h[b]) not in evaluate(
            term, tdom, trels
        )
    if kind == "subset":
        domain, rels = from_json(data["structure"])
        pair = tuple(data["pair"])
        sub = induced(domain, rels, data["subset"])
        return pair in evaluate(term, *sub) and pair not in evaluate(term, domain, rels)
    if kind == "row-outside-ball":
        domain, rels = from_json(data["structure"])
        anchor, element = data["anchor"], data["element"]
        near = reach(domain, rels, anchor, data["radius"], data["mode"])
        return element not in near and (anchor, element) in evaluate(term, domain, rels)
    if kind == "ball-row-mismatch":
        sides = []
        for side in ("left", "right"):
            domain, rels = from_json(data[side])
            anchor = data[f"{side}_anchor"]
            ball = induced(domain, rels, reach(domain, rels, anchor, data["radius"], data["mode"]))
            row = frozenset(b for a, b in evaluate(term, domain, rels) if a == anchor)
            sides.append((ball, anchor, row))
        (lball, la, lrow), (rball, ra, rrow) = sides
        isos = list(_anchored_isos(lball, rball, la, ra))
        return bool(isos) and all(frozenset(m[x] for x in lrow) != rrow for m in isos)
    return False


def closure(domain, rels, basis):
    """Every relation the basis defines from the given relations (no budget)."""
    unary = [op for op in ("complement", "converse", "dom", "ran", "antidom") if op in basis]
    binary = [
        op
        for op in ("union", "inter", "diff", "compose", "semijoin", "prefunion", "injunion")
        if op in basis
    ]
    known = {frozenset(r) for r in rels.values()}
    known |= {apply(c, (), domain) for c in ("id", "empty", "top") if c in basis}
    fresh = set(known)
    while fresh:
        found = set()
        for op in unary:
            found |= {apply(op, (r,), domain) for r in fresh}
        for op in binary:
            for r in known:
                for s in fresh:
                    found.add(apply(op, (r, s), domain))
                    found.add(apply(op, (s, r), domain))
        fresh = found - known
        known |= fresh
    return known


def seeded_rng(*parts):
    return random.Random("/".join(str(p) for p in parts))
