"""equivalence_report's seeded sampled phase: bulk batches for sizes up to
MAX_BULK_SIZE, one-by-one evaluation above, the same draws and the same
first counterexample as evaluating every sample in turn."""

import random

from relalg import checkers, logic
from relalg import terms as tm
from relalg.bulk import MAX_BULK_SIZE
from relalg.checkers import Bounds, equivalence_report
from relalg.logic import parse_formula
from relalg.structures import StructureClass, random_structure
from relalg.terms import CATALOGUE, parse_term, random_term
from relalg.translate import compile_posex, random_posex_formula

OPS = set(CATALOGUE) | {"injunion"}
# Pairs that agree on most structures, so that the first mismatch falls on
# a later draw, of a bulk size or a larger one.
RARELY_APART = (
    ("dom(f ; g ; f ; g)", "dom(f ; g ; f ; g) & dom(g)"),
    ("f & g", "0"),
    ("f ; g & g ; f", "0"),
)


def reference_sampled_phase(lhs, rhs, signature, cls, bounds, seed):
    """Every sample drawn and evaluated in turn through the scalar route."""
    rng = random.Random(seed)
    for checked in range(1, bounds.samples + 1):
        size = rng.randint(1, bounds.sample_size)
        structure = random_structure(rng, size, signature, cls)
        if checkers._scalar_value(lhs, structure) != checkers._scalar_value(rhs, structure):
            return checkers._mismatch_report(lhs, rhs, structure, [], checked, seed)
    return checkers.EquivalenceReport(True, None, None, None, [], bounds.samples, seed)


def sampled_cases():
    """Seeded term/term and formula/term pairs in every class and at every
    sample size 1-12, and constant terms over the empty signature."""
    rng = random.Random(2024)
    for cls in StructureClass:
        for lhs, rhs in RARELY_APART:
            for sample_size in (10, 12, 12):
                yield parse_term(lhs), parse_term(rhs), ("f", "g"), cls, sample_size
        for sample_size in range(1, 13):
            sig = ("f", "g")
            yield (
                random_term(rng, OPS, sig, rng.randint(1, 7)),
                random_term(rng, OPS, sig, rng.randint(1, 7)),
                sig, cls, sample_size,
            )
            sig = ("R", "S")
            phi = random_posex_formula(rng, sig, max_depth=3)
            other = phi if rng.random() < 0.3 else random_posex_formula(rng, sig, max_depth=3)
            yield phi, compile_posex(other), sig, cls, sample_size
    for lhs, rhs in (("id", "T"), ("-id", "0"), ("T ; T", "T"), ("id", "--id")):
        for sample_size in (2, 9, 12):
            yield parse_term(lhs), parse_term(rhs), (), StructureClass.ALL, sample_size


def test_sampled_phase_matches_one_by_one_evaluation():
    found = {"bulk": 0, "scalar": 0, "empty signature": 0, "late": 0, "none": 0}
    for case, (lhs, rhs, sig, cls, sample_size) in enumerate(sampled_cases()):
        bounds = Bounds(max_size=0, samples=40, sample_size=sample_size)
        got = equivalence_report(lhs, rhs, sig, cls, bounds, case)
        want = reference_sampled_phase(lhs, rhs, sig, cls, bounds, case)
        assert got.to_json() == want.to_json(), case
        assert got.counterexample == want.counterexample
        if got.equivalent:
            found["none"] += 1
            continue
        if not sig:
            found["empty signature"] += 1
        elif got.counterexample.size() <= MAX_BULK_SIZE:
            found["bulk"] += 1
        else:
            found["scalar"] += 1
        found["late"] += got.random_checked > 1
    # The cases reach both routes, mismatches past the first draw, and
    # pairs that agree on every draw.
    assert min(found.values()) >= 3, found


def test_sampled_phase_evaluates_bulk_sizes_only_in_batches(monkeypatch):
    sizes = {"eval_term": [], "define_relation": []}
    eval_term, define_relation = tm.eval_term, logic.define_relation

    def counted_eval_term(t, structure):
        sizes["eval_term"].append(structure.size())
        return eval_term(t, structure)

    def counted_define_relation(phi, x, y, structure, **kwargs):
        sizes["define_relation"].append(structure.size())
        return define_relation(phi, x, y, structure, **kwargs)

    monkeypatch.setattr(tm, "eval_term", counted_eval_term)
    monkeypatch.setattr(logic, "define_relation", counted_define_relation)
    term = parse_term("f ; g")
    phi = parse_formula("exists z. f(x,z) & g(z,y)")
    pairs = ((term, phi), (term, parse_term("f ; (g & T)")))
    for cls in (StructureClass.ALL, StructureClass.PARTIAL_FUNCTIONS):
        for lhs, rhs in pairs:
            bounds = Bounds(max_size=0, samples=200, sample_size=MAX_BULK_SIZE)
            report = equivalence_report(lhs, rhs, ("f", "g"), cls, bounds, 7)
            assert report.equivalent and report.random_checked == 200
            assert sizes == {"eval_term": [], "define_relation": []}

            bounds = Bounds(max_size=0, samples=200, sample_size=12)
            report = equivalence_report(lhs, rhs, ("f", "g"), cls, bounds, 7)
            assert report.equivalent and report.random_checked == 200
            rng = random.Random(7)
            large = []
            for _ in range(200):
                size = rng.randint(1, 12)
                random_structure(rng, size, ("f", "g"), cls)
                if size > MAX_BULK_SIZE:
                    large.append(size)
            assert large
            scalar_terms = 2 if isinstance(rhs, tm.Term) else 1
            assert sorted(sizes["eval_term"]) == sorted(large * scalar_terms)
            assert sizes["define_relation"] == ([] if scalar_terms == 2 else large)
            sizes["eval_term"].clear()
            sizes["define_relation"].clear()
