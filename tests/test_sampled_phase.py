"""equivalence_report's seeded sampled phase: bulk batches for sizes up to
MAX_BULK_SIZE, Python-int masks through the int kernels above, the same
draws and the same first counterexample as evaluating every sample in turn,
and no draw of a size the exhaustive phase covered in full."""

import random

from reference import scalar_equivalence_report, stream_draws

from relalg import bulk, checkers, logic
from relalg import terms as tm
from relalg.bulk import MAX_BULK_SIZE
from relalg.checkers import Bounds, equivalence_report
from relalg.logic import parse_formula
from relalg.structures import StructureClass, drawn_structure
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


def tail_sizes(seed, bounds):
    """The sizes of the tail's draws."""
    return checkers._stream(seed, checkers._TAIL).integers(1, bounds.sample_size + 1, bounds.samples)


def reference_sampled_phase(lhs, rhs, signature, cls, bounds, seed):
    """Every sample drawn and evaluated in turn through the scalar route."""
    draws = stream_draws(seed, checkers._TAIL, tail_sizes(seed, bounds), signature, cls)
    for checked, (size, masks) in enumerate(draws, 1):
        structure = drawn_structure(masks, size)
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
            large = [size for size in tail_sizes(7, bounds).tolist() if size > MAX_BULK_SIZE]
            assert large
            # Terms evaluate a large draw on its masks; a formula builds its
            # structure.
            assert sizes["eval_term"] == []
            formulas = not isinstance(rhs, tm.Term)
            assert sorted(sizes["define_relation"]) == sorted(large * formulas)
            sizes["eval_term"].clear()
            sizes["define_relation"].clear()


def spied_sizes(monkeypatch) -> list[int]:
    """The domain size of every `bulk.bulk_masks` call from now on."""
    sizes: list[int] = []
    bulk_masks = bulk.bulk_masks

    def spy(obj, k, symbol_masks):
        sizes.append(k)
        return bulk_masks(obj, k, symbol_masks)

    monkeypatch.setattr(bulk, "bulk_masks", spy)
    return sizes


def test_draws_of_a_fully_covered_size_are_not_evaluated(monkeypatch):
    sizes = spied_sizes(monkeypatch)
    bounds = Bounds(max_size=2, samples=200, sample_size=4)
    lhs, rhs = parse_term("f ; g"), parse_formula("exists z. f(x,z) & g(z,y)")
    report = equivalence_report(lhs, rhs, ("f", "g"), StructureClass.PARTIAL_FUNCTIONS, bounds, 3)
    assert report.equivalent and report.random_checked == 200
    assert [c.mode for c in report.coverage] == ["exhaustive", "exhaustive"]
    # Sizes 1 and 2 once each side in the sweep, none in the tail, whose
    # 200 draws of sizes 1-4 still all count.
    assert sizes == [1, 1, 2, 2, 3, 3, 4, 4]


# A simple 4-cycle through x with no shorter closed walk through x: the
# sides first differ at size 4.
FOUR_CYCLE = "((R ; R ; R ; R) & id) \\ (R | (R ; R) | (R ; R ; R))"


def test_a_first_difference_past_the_exhaustive_sizes_matches_the_scalar_report():
    found = 0
    cases = [(("R",), StructureClass.ALL, FOUR_CYCLE)]
    for cls in (StructureClass.PARTIAL_FUNCTIONS, StructureClass.INJECTIVE_PARTIAL_FUNCTIONS):
        cases.append((("f", "g"), cls, FOUR_CYCLE.replace("R", "f")))
    for signature, cls, text in cases:
        for seed in range(4):
            bounds = Bounds(max_size=3, samples=150, sample_size=6)
            lhs, rhs = parse_term(text), parse_term("0")
            got = equivalence_report(lhs, rhs, signature, cls, bounds, seed)
            want = scalar_equivalence_report(lhs, rhs, signature, cls, bounds, seed)
            assert got.to_json() == want.to_json(), (cls, seed)
            if not got.equivalent:
                assert got.counterexample.size() >= 4 and got.random_checked > 1
                found += 1
    assert found >= 4, found


def test_sampled_and_skipped_sizes_are_still_evaluated_in_the_tail(monkeypatch):
    sizes = spied_sizes(monkeypatch)
    signature = ("R", "S", "U")
    same = parse_term("R ; (S ; U)"), parse_term("(R ; S) ; U")
    # Differs on a 3-cycle of R: never at sizes 1-2.
    apart = parse_term("((R ; R ; R) & id) \\ (R | (R ; R))"), parse_term("0")
    # Sizes 1-2 take 4,104 of the budget; size 3 gets the rest as a batch
    # (one call each side) or nothing.  Either way the tail compares its
    # size-3 draws (one call each side), and no others.
    for budget, mode, calls in ((5_000, "sampled", [3, 3, 3, 3]), (4_104, "skipped", [3, 3])):
        bounds = Bounds(max_size=3, samples=120, sample_size=3, exhaustive_budget=budget)
        for seed in range(3):
            for lhs, rhs in (same, apart):
                sizes.clear()
                got = equivalence_report(lhs, rhs, signature, StructureClass.ALL, bounds, seed)
                want = scalar_equivalence_report(
                    lhs, rhs, signature, StructureClass.ALL, bounds, seed
                )
                assert got.to_json() == want.to_json(), (budget, seed)
                assert [c.mode for c in got.coverage] == ["exhaustive", "exhaustive", mode]
                if mode == "skipped" or got.equivalent:
                    assert sizes == [1, 1, 2, 2] + calls, (budget, seed)
            if mode == "skipped":
                # Only the tail's size-3 draws can have found it.
                assert not got.equivalent and got.random_checked > 0


def test_the_empty_signature_reports_as_with_every_draw_evaluated(monkeypatch):
    tail_failures = 0
    for lhs, rhs in (("id", "T"), ("-id", "0"), ("id", "--id"), ("T ; T", "T")):
        for bounds in (
            Bounds(max_size=1, samples=40, sample_size=4),
            Bounds(max_size=3, samples=40, sample_size=9),
            Bounds(max_size=3, samples=40, sample_size=4, exhaustive_budget=0),
            Bounds(max_size=10, samples=40, sample_size=12),
        ):
            args = parse_term(lhs), parse_term(rhs), (), StructureClass.ALL, bounds, 5
            got, want = equivalence_report(*args), scalar_equivalence_report(*args)
            assert got.to_json() == want.to_json(), (lhs, rhs, bounds)
            tail_failures += not got.equivalent and got.random_checked > 0
    assert tail_failures >= 3, tail_failures
    # A size-1 tail after a size-1 sweep evaluates nothing more.
    sizes = spied_sizes(monkeypatch)
    bounds = Bounds(max_size=1, samples=40, sample_size=1)
    lhs, rhs = parse_term("id"), parse_term("T")
    report = equivalence_report(lhs, rhs, (), StructureClass.ALL, bounds, 5)
    assert report.equivalent and report.random_checked == 40 and sizes == [1, 1]
