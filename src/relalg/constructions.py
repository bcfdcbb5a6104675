"""Desk-scale replay structures: cycle families, a separation bundle with
its sink totalisation, and the lasso probe family.

The separation bundle packages a two-component structure together with the
eight relations its function-algebra closure is expected to reach and a
term that separates the components, which is how the tests demonstrate a
closure bound and its failure once converse joins the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import terms as tm
from .logic import And, Atom, Eq, Exists, Forall, Formula, Implies, Not
from .structures import (
    Relation,
    Structure,
    _bit_pairs,
    disjoint_union,
    induced,
    relation_mask,
)


class ConstructionError(ValueError):
    """A replay construction was asked for parameters it does not support."""


# --- cycle families ---------------------------------------------------------------

def tripled_cycle(m: int) -> Structure:
    """A directed m-cycle with every vertex tripled.

    Vertices a{i}.{j} for i in 1..m, j in 1..3; an edge from a{i}.{j} to
    a{i'}.{j'} for every j, j' whenever i' follows i on the cycle, so 9m
    edges in total.
    """
    if m < 2:
        raise ConstructionError(f"the tripled cycle needs m >= 2, got {m}")
    vertices = tuple(f"a{i}.{j}" for i in range(1, m + 1) for j in range(1, 4))
    edges = set()
    for i in range(1, m + 1):
        nxt = i % m + 1
        for j in range(1, 4):
            for jp in range(1, 4):
                edges.add((f"a{i}.{j}", f"a{nxt}.{jp}"))
    return Structure(vertices, {"E": frozenset(edges)})


def midpoint_cycle(m: int) -> Structure:
    """The tripled cycle with every edge subdivided by a fresh midpoint.

    Per edge from u to w, a midpoint node carries f(midpoint) = u and
    g(midpoint) = w, making both relations partial functions defined
    exactly on midpoints.  12m nodes in total.
    """
    base = tripled_cycle(m)
    domain = list(base.domain)
    f_pairs = set()
    g_pairs = set()
    for i in range(1, m + 1):
        nxt = i % m + 1
        for j in range(1, 4):
            for jp in range(1, 4):
                mid = f"m{i}.{j}.{jp}"
                domain.append(mid)
                f_pairs.add((mid, f"a{i}.{j}"))
                g_pairs.add((mid, f"a{nxt}.{jp}"))
    return Structure(tuple(domain), {"f": frozenset(f_pairs), "g": frozenset(g_pairs)})


# --- the separation bundle ---------------------------------------------------------

def separating_term(m: int) -> tm.Term:
    """(f^ ; g)^m & id: the identity on core vertices of the length-m
    component and nothing else."""
    if m < 1:
        raise ConstructionError(f"the separating term needs m >= 1, got {m}")
    step = tm.compose(tm.conv(tm.sym("f")), tm.sym("g"))
    chain = step
    for _ in range(m - 1):
        chain = tm.compose(chain, step)
    return tm.inter(chain, tm.ID)


@dataclass
class SeparationBundle:
    structure: Structure
    m: int
    mprime: int
    expected_closure: dict[str, Relation]
    separating: tm.Term


def build_separation(m: int = 2, mprime: int = 3) -> SeparationBundle:
    """Two subdivided cycles of coprime-enough lengths, side by side.

    The function-algebra closure of {f, g} on this structure is expected
    to stop at eight relations; the separating term lies outside them.
    """
    if not 2 <= m < mprime:
        raise ConstructionError(
            f"separation needs 2 <= m < mprime, got m={m}, mprime={mprime}"
        )
    structure = disjoint_union(midpoint_cycle(m), midpoint_cycle(mprime))
    f = structure.rel("f")
    g = structure.rel("g")
    full_id = frozenset((x, x) for x in structure.domain)
    id_mid = frozenset((a, a) for a, _ in f)
    id_core = frozenset((b, b) for _, b in f)
    expected = {
        "f": f,
        "g": g,
        "id": full_id,
        "id_mid": id_mid,
        "id_core": id_core,
        "f_or_id_core": f | id_core,
        "g_or_id_core": g | id_core,
        "empty": frozenset(),
    }
    return SeparationBundle(structure, m, mprime, expected, separating_term(m))


@dataclass
class ClosureVerdict:
    """A closure run against the expected family.

    `escapee_masks` maps each reached mask outside the family, over
    `domain`, to its witness, in discovery order.  `escapees` describes
    them (witness text, first pairs, pair count) and is rendered on first
    read, so a caller that only counts them reads `len(escapee_masks)`.
    """

    passed: bool
    reached: int
    expected: int
    missing: list[str]
    escapee_masks: dict[int, tm.Term] = field(repr=False)
    domain: tuple[str, ...] = field(repr=False)
    all_subrelations: bool
    basis_fp: bool
    complete: bool
    evaluations: int

    @cached_property
    def escapees(self) -> list[dict]:
        return [
            {
                "witness": tm.print_term(witness),
                "pairs": _first_pairs(mask, self.domain, 10),
                "pair_count": mask.bit_count(),
            }
            for mask, witness in self.escapee_masks.items()
        ]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "reached": self.reached,
            "expected": self.expected,
            "missing": self.missing,
            "escapees": self.escapees,
            "all_subrelations": self.all_subrelations,
            "basis_fp": self.basis_fp,
            "complete": self.complete,
            "evaluations": self.evaluations,
        }


def _first_pairs(mask: int, domain: tuple[str, ...], count: int) -> list[list[str]]:
    """The pairs of a mask's first `count` set bits: over a sorted domain,
    its first pairs in sorted order."""
    pairs = _bit_pairs(domain)
    out = []
    while mask and len(out) < count:
        low = mask & -mask
        out.append(list(pairs[low.bit_length() - 1]))
        mask ^= low
    return out


def verify_closure_bound(
    bundle: SeparationBundle,
    basis: frozenset[str] | str = "fa",
    budget: int = 100_000,
) -> ClosureVerdict:
    """Run the semantic closure and compare it with the expected family.

    The basis need not be function-preserving; whether it is gets recorded,
    not enforced, so escape runs with converse added are first-class.
    """
    from .checkers import EXPECTED_MATRIX

    ops = tm.BASES[basis] if isinstance(basis, str) else frozenset(basis)
    result = tm.semantic_closure(bundle.structure, ops, ("f", "g"), budget)
    domain = result.domain
    expected = {
        name: relation_mask(rel, domain) for name, rel in bundle.expected_closure.items()
    }
    inside = set(expected.values())
    escapee_masks = {mask: t for mask, t in result.masks.items() if mask not in inside}
    missing = [name for name, mask in expected.items() if mask not in result.masks]
    fg_id = expected["f"] | expected["g"] | expected["id"]
    all_sub = all(mask | fg_id == fg_id for mask in result.masks)
    basis_fp = all(EXPECTED_MATRIX.get(op, (0, 0, True, 0))[2] for op in ops)
    return ClosureVerdict(
        passed=not escapee_masks and not missing,
        reached=len(result.masks),
        expected=len(bundle.expected_closure),
        missing=missing,
        escapee_masks=escapee_masks,
        domain=domain,
        all_subrelations=all_sub,
        basis_fp=basis_fp,
        complete=result.complete,
        evaluations=result.evaluations,
    )


# --- sink totalisation ---------------------------------------------------------------

SINK = "s"


@dataclass
class SinkExtension:
    structure: Structure
    recovery: dict[str, tm.Term]
    total_separating: tm.Term
    expected_separating: Relation


def totalize_with_sink(bundle: SeparationBundle) -> SinkExtension:
    """Extend the bundle's structure with one absorbing sink.

    fhat and ghat send core vertices and the sink itself to the sink, so
    all three relations become total functions; ehat sends everything to
    the sink.  The original partial functions are recoverable as
    fhat \\ (T ; ehat), and the separating term survives totalisation as
    (separating-with-recovered-symbols) <+ ehat.
    """
    base = bundle.structure
    if SINK in base.domain:
        raise ConstructionError(f"domain already contains the sink name {SINK!r}")
    domain = base.domain + (SINK,)
    f = bundle.expected_closure["f"]
    g = bundle.expected_closure["g"]
    defined_f = {a for a, _ in f}
    defined_g = {a for a, _ in g}
    fhat = f | frozenset((c, SINK) for c in domain if c not in defined_f)
    ghat = g | frozenset((c, SINK) for c in domain if c not in defined_g)
    ehat = frozenset((c, SINK) for c in domain)
    structure = Structure(domain, {"fhat": fhat, "ghat": ghat, "ehat": ehat})

    strip = tm.compose(tm.TOP, tm.sym("ehat"))
    recovery = {
        "f": tm.diff(tm.sym("fhat"), strip),
        "g": tm.diff(tm.sym("ghat"), strip),
    }
    total_separating = tm.prefunion(
        tm.subst_syms(bundle.separating, recovery), tm.sym("ehat")
    )
    partial = tm.eval_term(
        tm.subst_syms(bundle.separating, recovery), structure
    )
    covered = {a for a, _ in partial}
    expected = partial | frozenset((c, SINK) for c in domain if c not in covered)
    return SinkExtension(structure, recovery, total_separating, expected)


# --- the lasso family ------------------------------------------------------------------

HUB = "b00"


def _chain_name(i: int) -> str:
    return f"b{i:02d}"


def build_lasso(n: int, k: int) -> tuple[Structure, str]:
    """A hub with a descending chain that closes into a lasso.

    Elements: a plus b00..b{n+k}.  R1 points the hub at a; R2 descends the
    chain with one back edge from b{n} to b{n+k}; R3 orders the chain from
    the hub; R4 points a at b{n}.  Returns the structure and the probe
    element a.
    """
    if n < 1 or k < 1:
        raise ConstructionError(f"the lasso needs n >= 1 and k >= 1, got ({n}, {k})")
    if n + k > 99:
        raise ConstructionError("chain too long for two-digit element names")
    chain = [_chain_name(i) for i in range(n + k + 1)]
    domain = ("a", *chain)
    r1 = frozenset({(HUB, "a")})
    r2 = {(chain[i + 1], chain[i]) for i in range(n + k)}
    r2.add((chain[n], chain[n + k]))
    r3 = {(HUB, HUB)} | {(HUB, chain[i]) for i in range(1, n + k + 1)}
    r4 = frozenset({("a", chain[n])})
    return (
        Structure(
            domain,
            {"R1": r1, "R2": frozenset(r2), "R3": frozenset(r3), "R4": r4},
        ),
        "a",
    )


def remove_hub(structure: Structure) -> Structure:
    if HUB not in structure.domain:
        raise ConstructionError(f"structure has no hub element {HUB!r}")
    return induced(structure, (x for x in structure.domain if x != HUB))


def probe_formula() -> Formula:
    """The one-free-variable probe phi(u) that only the hub satisfies.

    Satisfied exactly by an element that sits at the root of the R3 order,
    has no R2 successor, sees every R3 successor covered through R2, and
    forces R4 from its R1 image onto every branching chain element.
    """
    u, v, w, s1, s2 = "u", "v", "w", "s1", "s2"
    c1 = Atom("R3", u, u)
    c2 = Forall(
        v,
        Implies(
            Atom("R3", u, v),
            Exists(w, And(Atom("R3", u, w), Atom("R2", w, v))),
        ),
    )
    c3 = Forall(
        v,
        Forall(
            w,
            Implies(And(Atom("R3", u, v), Atom("R3", v, w)), Atom("R3", u, w)),
        ),
    )
    c4 = Not(Exists(v, Atom("R2", u, v)))
    branching = Exists(
        s1,
        Exists(
            s2,
            And(And(Atom("R2", v, s1), Atom("R2", v, s2)), Not(Eq(s1, s2))),
        ),
    )
    c5 = Forall(
        v,
        Forall(
            w,
            Implies(
                And(And(Atom("R3", u, v), branching), Atom("R1", u, w)),
                Atom("R4", w, v),
            ),
        ),
    )
    return And(And(And(And(c1, c2), c3), c4), c5)


def anchored_probe_formula() -> Formula:
    """psi(x, y): x and y coincide on an element whose R1 parent satisfies
    the probe."""
    return And(
        Eq("x", "y"),
        Exists("u", And(Atom("R1", "u", "x"), probe_formula())),
    )
