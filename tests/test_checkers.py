"""Bounded property checkers and the operation-by-property matrix."""

import gc
import random
import time
import tracemalloc
import weakref
from itertools import combinations_with_replacement

import numpy as np
import pytest

from relalg import bulk, checkers, logic
from relalg.checkers import (
    EXPECTED_MATRIX,
    MATRIX_COLUMNS,
    Bounds,
    Verdict,
    catalogue_matrix,
    check_forward,
    check_function_preserving,
    check_homomorphism_safe,
    check_injective_function_preserving,
    check_local,
    check_subseteq_safe,
    check_total_function_preserving,
    equivalence_report,
    term_for_operation,
    verify_counterexample,
    _ball_digits,
    _fp_offence,
    _key_ids,
    _pool,
    _structure_masks,
    _successors,
    _walk,
)
import reference
from relalg.logic import eval_formula, parse_formula
from relalg.structures import (
    Structure,
    StructureClass,
    ball,
    count_structures,
    decode_symbol_masks,
    drawn_structure,
    enumerate_structures,
    homomorphisms,
    induced,
    isomorphism,
    masks_to_structure,
    random_masks,
    random_structure,
    structure_from_index,
    structure_from_json,
    structure_to_json,
)
from relalg.terms import (
    CATALOGUE,
    eval_term,
    expand_injunion,
    parse_term,
    print_term,
    random_term,
    term_signature,
)

LIGHT = Bounds(max_size=2, samples=60, sample_size=5)


def test_bounds_resolution():
    assert Bounds().resolved_size(1) == 4
    assert Bounds().resolved_size(2) == 3
    assert Bounds(max_size=6).resolved_size(2) == 6


@pytest.mark.parametrize(
    "field, value",
    [("max_size", -1), ("samples", -5), ("exhaustive_budget", -1), ("sample_size", 0)],
)
def test_bounds_refuse_fields_that_would_cover_nothing(field, value):
    with pytest.raises(checkers.CheckError, match=f"{field} must be at least"):
        Bounds(**{field: value})
    # Zero covers nothing in that phase but says so: it stays valid.
    assert Bounds(max_size=0, samples=0, exhaustive_budget=0, sample_size=1).samples == 0


def test_function_preservation_verdicts():
    good = check_function_preserving(parse_term("f ; g"), LIGHT, 0)
    assert good.passed and good.counterexample is None
    bad = check_function_preserving(parse_term("f | g"), LIGHT, 0)
    assert not bad.passed
    assert bad.counterexample["kind"] == "invariant"
    assert verify_counterexample(bad)

    assert check_injective_function_preserving(parse_term("f^"), LIGHT, 0).passed
    assert not check_function_preserving(parse_term("f^"), LIGHT, 0).passed
    assert check_total_function_preserving(parse_term("f ; f"), LIGHT, 0).passed
    assert not check_total_function_preserving(parse_term("~f"), LIGHT, 0).passed


def test_homomorphism_safety_verdicts():
    assert check_homomorphism_safe(parse_term("R ; S"), LIGHT, 0).passed
    bad = check_homomorphism_safe(parse_term("-R"), LIGHT, 0)
    assert not bad.passed
    assert bad.counterexample["kind"] == "homomorphism"
    assert verify_counterexample(bad)


def test_subset_safety_verdicts():
    assert check_subseteq_safe(parse_term("-R"), LIGHT, 0).passed
    assert check_subseteq_safe(parse_term("R \\ S"), LIGHT, 0).passed
    bad = check_subseteq_safe(parse_term("~R"), LIGHT, 0)
    assert not bad.passed
    assert bad.counterexample["kind"] == "subset"
    assert verify_counterexample(bad)


def test_forward_and_local_verdicts():
    assert check_forward(parse_term("~g ; f"), LIGHT, 0).passed
    bad = check_forward(parse_term("f^"), LIGHT, 0)
    assert not bad.passed
    assert bad.counterexample["kind"] in ("row-outside-ball", "ball-row-mismatch")
    assert verify_counterexample(bad)
    assert check_local(parse_term("f^"), LIGHT, 0).passed
    assert not check_local(parse_term("ran(f) ; T"), LIGHT, 0).passed


def test_expected_matrix_shape():
    assert set(EXPECTED_MATRIX) == set(CATALOGUE)
    assert MATRIX_COLUMNS == ("homsafe", "subsafe", "fp", "forward")
    noes = sum(1 for row in EXPECTED_MATRIX.values() for v in row if not v)
    assert noes == 14


def test_catalogue_matrix_light_bounds():
    report = catalogue_matrix(Bounds(max_size=2, samples=40, sample_size=4), 0)
    assert report.agrees, report.mismatches
    assert report.mismatches == []
    doc = report.to_json()
    assert set(doc["rows"]) == set(CATALOGUE)
    assert doc["columns"] == list(MATRIX_COLUMNS)
    # every negative cell carries a checkable counterexample
    for op, row in report.verdicts.items():
        for col, verdict in row.items():
            if not verdict.passed:
                assert verify_counterexample(verdict), (op, col)


def test_term_for_operation():
    assert term_for_operation("compose") == parse_term("R ; S")
    assert term_for_operation("dom") == parse_term("dom(R)")
    assert term_for_operation("id") == parse_term("id")


def test_equivalence_report_positive_and_negative():
    t = parse_term("f <# g")
    report = equivalence_report(
        t, expand_injunion(t), ("f", "g"),
        StructureClass.INJECTIVE_PARTIAL_FUNCTIONS, LIGHT, 0,
    )
    assert report.equivalent
    assert report.coverage
    split = equivalence_report(
        parse_term("f"), parse_term("g"), ("f", "g"), StructureClass.ALL, LIGHT, 0
    )
    assert not split.equivalent
    assert split.counterexample is not None


# Nonempty only where an element without a loop or a 2-cycle closes a
# walk of three R steps: three distinct elements.  Over (R, S) the first
# such structure is index 50,176 of size 3, in the second 32,768-index run.
THREE_CYCLE = "((R ; R ; R) & id) \\ (R | (R ; R))"


def test_equivalence_report_matches_the_index_by_index_reference():
    rng = random.Random("equivalence-sweep")
    every, total = StructureClass.ALL, StructureClass.TOTAL_FUNCTIONS
    partial = StructureClass.PARTIAL_FUNCTIONS
    injective = StructureClass.INJECTIVE_PARTIAL_FUNCTIONS
    term, formula = parse_term, parse_formula
    cases = [
        (term(THREE_CYCLE), term("0"), ("R", "S"), every, Bounds(samples=10)),
        # Sizes 1-6 exhaustive, 7 and 8 sampled, 9 skipped with budget left.
        (term("f ; id"), term("f"), ("f",), total,
         Bounds(max_size=9, samples=5, exhaustive_budget=50_069 + 2 * 65_536 + 1)),
        # Size 4 sampled on the last 300 of the budget, size 5 skipped at 0.
        (term("f ; (g ; f)"), term("(f ; g) ; f"), ("f", "g"), partial,
         Bounds(max_size=5, samples=30, sample_size=10, exhaustive_budget=4_481)),
        (term("f <# g"), expand_injunion(term("f <# g")), ("f", "g"), injective,
         Bounds(max_size=3, samples=30)),
        (term("f ; f"), term("f ; f ; f"), ("f",), total, Bounds()),
        (formula("exists z. R(x,z) & R(z,y)"), term("R ; R"), ("R",), every,
         Bounds(max_size=3, samples=40, sample_size=5)),
        (formula("exists z. R(x,z) & S(z,y)"), term("R ; S"), ("R", "S"), every,
         Bounds(max_size=3, samples=30, sample_size=4, exhaustive_budget=100)),
        (formula("exists z. R(x,z) & R(z,y)"), term("R"), ("R",), every, LIGHT),
        (term("R ; S"), term("S ; R"), ("R", "S"), every,
         Bounds(max_size=3, samples=40, exhaustive_budget=0)),
        # The empty signature: one structure per size, past size 8 too.
        (formula("x = y"), term("id"), (), every, Bounds(max_size=10, samples=20, sample_size=11)),
        (term("id"), term("-(-id) | (T ; 0)"), (), every,
         Bounds(max_size=10, samples=20, sample_size=11, exhaustive_budget=0)),
        (term("T ; -id"), term("T"), (), every, Bounds()),
    ]
    for n in range(8):
        cls = list(StructureClass)[n % 4]
        symbols = ("f", "g") if n % 2 else ("f",)
        lhs, rhs = (random_term(rng, CATALOGUE, symbols, rng.randint(1, 4)) for _ in range(2))
        cases.append((lhs, rhs, symbols, cls, Bounds(max_size=3, samples=25, sample_size=9)))
    modes, classes, far = set(), set(), False
    for seed, (lhs, rhs, signature, cls, bounds) in enumerate(cases):
        expected = reference.scalar_equivalence_report(lhs, rhs, signature, cls, bounds, seed)
        got = equivalence_report(lhs, rhs, signature, cls, bounds, seed)
        assert got.to_json() == expected.to_json(), (lhs, rhs, cls, bounds)
        modes.update(c.mode for c in got.coverage)
        classes.add((cls, got.equivalent))
        far |= not got.equivalent and got.coverage[-1].checked > checkers._CHUNK
    assert modes == {"exhaustive", "sampled", "skipped"}
    assert {cls for cls, _ in classes} == set(StructureClass)
    assert {equivalent for _, equivalent in classes} == {True, False}
    assert far


def ball_row_verdict(term, left, right, radius=1):
    payload = {
        "kind": "ball-row-mismatch",
        "term": term,
        "mode": "forward",
        "radius": radius,
        "left": structure_to_json(left),
        "left_anchor": "a",
        "right": structure_to_json(right),
        "right_anchor": "a",
    }
    return Verdict("forward", "fail", payload, LIGHT.to_json(), 0)


FORK = {("a", "b"), ("a", "c")}


def test_ball_row_mismatch_needs_rows_apart_under_every_ball_isomorphism():
    # Both radius-1 balls are the fork a -> b, a -> c.  The rows of f |> f at
    # a are {b} and {c}: different under the identity, equal once the ball
    # automorphism swaps b and c, so this is no counterexample.
    left = Structure("abcd", {"f": FORK | {("b", "d")}})
    right = Structure("abcd", {"f": FORK | {("c", "d")}})
    assert not verify_counterexample(ball_row_verdict("f |> f", left, right))
    bare = Structure("abc", {"f": FORK})
    assert verify_counterexample(ball_row_verdict("f |> f", left, bare))
    # Rows of f ; f reach d, outside the radius-1 balls.
    assert not verify_counterexample(ball_row_verdict("f ; f", left, right))


def test_formula_side_is_reported_through_eval_formula():
    phi = parse_formula("exists z. R(x,z) & R(z,y)")
    report = equivalence_report(parse_term("R"), phi, ("R",), bounds=LIGHT)
    assert not report.equivalent
    s = report.counterexample
    assert report.rhs_pairs == sorted(
        [a, b]
        for a in s.domain
        for b in s.domain
        if eval_formula(phi, s, {"x": a, "y": b})
    )
    assert report.lhs_pairs == sorted(list(p) for p in eval_term(parse_term("R"), s))


def test_mismatches_are_rechecked_through_the_second_route(monkeypatch):
    term, phi = parse_term("R"), parse_formula("R(x,y)")
    # Sampled phase only: sizes up to 8 are compared in bulk, sizes 9-12
    # through define_relation.
    sampled_only = Bounds(max_size=0, samples=50, sample_size=12)
    assert equivalence_report(term, phi, ("R",), bounds=sampled_only).equivalent
    assert equivalence_report(term, phi, ("R",), bounds=LIGHT).equivalent
    with monkeypatch.context() as m:
        m.setattr(logic, "define_relation", lambda *args, **kwargs: frozenset())
        with pytest.raises(AssertionError):
            equivalence_report(term, phi, ("R",), bounds=sampled_only)
    with monkeypatch.context() as m:
        m.setattr(bulk, "bulk_eval_formula", lambda phi, k, masks: np.zeros_like(masks["R"]))
        for bounds in (LIGHT, sampled_only):
            with pytest.raises(AssertionError):
                equivalence_report(term, phi, ("R",), bounds=bounds)


def test_bounded_checks_count_the_balls_they_could_not_compare():
    passed = check_forward(parse_term("f ; g"))
    assert passed.passed and passed.bounds["balls_skipped"] == 0
    local = check_local(parse_term("f ; g"))
    assert local.passed and local.bounds["balls_skipped"] == 0
    failed = check_forward(parse_term("f^"), LIGHT, 0)
    assert not failed.passed and failed.bounds["balls_skipped"] == 0


def test_bounded_checks_confirm_every_failure_they_meet(monkeypatch):
    # f ; g fails at radius 1 on three elements, which the sweep covers.
    bounds = Bounds(max_size=3, samples=10, sample_size=4)
    verdict = check_forward(parse_term("f^"), bounds)
    assert verdict.counterexample["radius"] == 3 and verdict.bounds["max_radius"] == 3
    assert check_forward(parse_term("f ; g"), bounds).bounds["radius"] == 2
    verify = checkers.verify_counterexample
    for radius, term in ((3, "f^"), (0, "f ; g")):
        # The reported failure, or one a pass rests on, that does not
        # re-verify is an error, not a cue to report another radius.
        with monkeypatch.context() as m:
            m.setattr(
                checkers,
                "verify_counterexample",
                lambda v, r=radius: v.counterexample["radius"] != r and verify(v),
            )
            with pytest.raises(AssertionError, match="forward-bounded counterexample"):
                check_forward(parse_term(term), bounds)


def first_violation_by_scan(term, source, target):
    """The first homomorphism an unlimited `homomorphisms` scan lists that
    moves a value pair outside the target's value, with the first such pair
    in sorted order, or None."""
    svalue, tvalue = eval_term(term, source), eval_term(term, target)
    for h in homomorphisms(source, target):
        for a, b in sorted(svalue):
            if (h[a], h[b]) not in tvalue:
                return h, (a, b)
    return None


def biased_masks(rng, size, symbols, sparse):
    """Masks of about 1/8 density (sparse sources have many maps) or 7/8."""
    out = {}
    for name in symbols:
        bits = [rng.getrandbits(size * size) for _ in range(3)]
        out[name] = bits[0] & bits[1] & bits[2] if sparse else bits[0] | bits[1] | bits[2]
    return out


def test_violation_search_finds_what_an_unlimited_scan_finds_first():
    rng = random.Random("violating-hom")
    terms = [term_for_operation(op) for op in CATALOGUE] + [
        parse_term(t) for t in ("R ; R^", "dom(R) ; S^", "R <+ (S ; S)", "-(R ; S)")
    ]
    outcomes = {"fail": 0, "pass": 0, "over 200 maps": 0}
    for n in range(560):
        term = terms[n % len(terms)]
        symbols = term_signature(term)
        ks, kt = rng.randint(1, 6), rng.randint(1, 6)
        smasks = biased_masks(rng, ks, symbols, sparse=rng.random() < 0.7)
        tmasks = biased_masks(rng, kt, symbols, sparse=rng.random() < 0.3)
        source, target = masks_to_structure(smasks, ks), masks_to_structure(tmasks, kt)
        svalue = checkers._int_value(term, ks, smasks)
        tvalue = checkers._int_value(term, kt, tmasks)
        found = checkers._violating_hom(ks, smasks, svalue, kt, tmasks, tvalue)
        if found is not None:
            h, (a, b) = found
            sd, td = source.domain, target.domain
            found = {x: td[c] for x, c in zip(sd, h)}, (sd[a], sd[b])
        assert found == first_violation_by_scan(term, source, target), (print_term(term), n)
        outcomes["pass" if found is None else "fail"] += 1
        outcomes["over 200 maps"] += len(homomorphisms(source, target)) > 200
    assert min(outcomes.values()) >= 40, outcomes


def test_homomorphism_check_searches_sampled_pairs_to_the_end():
    bounds = Bounds(max_size=3, samples=200, sample_size=6)
    for op in ("id", "top", "compose"):
        verdict = check_homomorphism_safe(term_for_operation(op), bounds, 1)
        assert verdict.passed
        assert "hom_searches_truncated" not in verdict.bounds
        assert verdict.bounds["pair_size"] == 2 and verdict.bounds["sampled_pairs"] == 200
    assert "pair_size" not in check_subseteq_safe(term_for_operation("id"), bounds, 1).bounds


def test_mask_hits_the_structure_route_rejects_raise(monkeypatch):
    monkeypatch.setattr(checkers, "verify_counterexample", lambda verdict: False)
    sampled_only = Bounds(max_size=1, samples=50, sample_size=5)
    with pytest.raises(AssertionError, match="does not re-verify"):
        check_homomorphism_safe(parse_term("-R"), LIGHT, 0)
    with pytest.raises(AssertionError, match="does not re-verify"):
        check_subseteq_safe(parse_term("~R"), LIGHT, 0)
    with pytest.raises(AssertionError, match="does not re-verify"):
        check_subseteq_safe(parse_term("~R"), sampled_only, 3)


def first_subset_by_reference(term, structure, subsets):
    whole = eval_term(term, structure)
    for subset in subsets:
        for pair in sorted(eval_term(term, induced(structure, subset))):
            if pair not in whole:
                return list(subset), list(pair)
    return None


def subset_hit_by_name(term, size, masks, subsets):
    hit = checkers._subset_hit(term, size, masks, subsets)
    if hit is None:
        return None
    names = masks_to_structure(masks, size).domain
    subset, pair = hit
    return [names[p] for p in subset], [names[p] for p in pair]


def test_subset_search_matches_induced_substructures():
    rng = random.Random("subset-hit")
    terms = [term_for_operation(op) for op in CATALOGUE] + [
        parse_term(t) for t in ("-id", "~(R ; S)", "R <+ (S ; S)", "~T ; R")
    ]
    hits = 0
    for n in range(300):
        term = terms[n % len(terms)]
        size = rng.randint(1, 9 if not term_signature(term) else 8)
        masks = random_masks(rng, size, term_signature(term))
        subsets = [
            tuple(sorted(rng.sample(range(size), rng.randint(0, size)))) for _ in range(12)
        ]
        if rng.random() < 0.3:
            subsets = list(checkers._proper_subsets(size))
        structure = masks_to_structure(masks, size)
        named = [[structure.domain[p] for p in subset] for subset in subsets]
        expected = first_subset_by_reference(term, structure, named)
        assert subset_hit_by_name(term, size, masks, subsets) == expected, (print_term(term), n)
        hits += expected is not None
    assert 30 <= hits <= 270


def test_subset_search_on_a_size_nine_slice():
    # Above the bulk sizes the exhaustive phase runs `_subset_hit` on every
    # proper subset of each structure; these indices reach every row.
    rng = random.Random("subset-nine")
    term = parse_term("R <+ (S ; R)")
    indices = list(range(8)) + [rng.getrandbits(162) for _ in range(4)]
    hits = 0
    for index in indices:
        masks = decode_symbol_masks(index, 9, StructureClass.ALL, ("R", "S"))
        structure = structure_from_index(("R", "S"), 9, StructureClass.ALL, index)
        subsets = list(checkers._proper_subsets(9))
        named = [[structure.domain[p] for p in subset] for subset in subsets]
        expected = first_subset_by_reference(term, structure, named)
        assert subset_hit_by_name(term, 9, masks, subsets) == expected, index
        hits += expected is not None
    assert 0 < hits < len(indices)


def test_subset_check_decodes_a_size_eight_batch():
    # One ALL-class symbol at size 8 spans all 2**64 uint64 codes.  No
    # budget sweeps that size in full, so a check lists it as cut...
    verdict = check_subseteq_safe(
        parse_term("R"), Bounds(max_size=8, exhaustive_budget=1, samples=0)
    )
    assert verdict.passed
    skipped = checkers.SizeCoverage(8, 2**64, "skipped", 0, 0)
    assert verdict.bounds["exhaustive_cut"][-1] == skipped.to_json()
    # ...and the exhaustive phase's code runs on a size-8 plan entry here.
    top = np.array([2**64 - 1, 2**63, 5], dtype=np.uint64)
    assert decode_symbol_masks(top, 8, StructureClass.ALL, ("R",))["R"].tolist() == top.tolist()
    cover = checkers.SizeCoverage(8, 2**64, "exhaustive", 64, 64)
    run, indices, masks = next(checkers._sweep(("R",), StructureClass.ALL, cover, 0))
    assert run == range(64) and masks["R"].dtype == np.uint64
    assert masks["R"].tolist() == indices.tolist()
    term = parse_term("~R")
    first = checkers._subsafe_size(term, ("R",), cover, 0, lambda size, m, subsets: m["R"])
    subsets = list(checkers._proper_subsets(8))

    def fails(index):
        structure = structure_from_index(("R",), 8, StructureClass.ALL, index)
        named = [[structure.domain[p] for p in subset] for subset in subsets]
        return first_subset_by_reference(term, structure, named) is not None

    assert first == next(filter(fails, range(64))) > 0


def row_marked_ball(structure, anchor, radius, mode, row):
    b = ball(structure, anchor, radius, mode)
    rels = dict(b.relations)
    rels["row"] = {(anchor, x) for x in row}
    return Structure(b.domain, rels)


@pytest.mark.parametrize(
    "cls, mode",
    [
        (StructureClass.PARTIAL_FUNCTIONS, "forward"),
        (StructureClass.INJECTIVE_PARTIAL_FUNCTIONS, "undirected"),
    ],
)
def test_access_word_keys_are_equal_exactly_on_isomorphic_marked_balls(cls, mode):
    rng = random.Random(f"access-words-{mode}")
    outcomes = {True: 0, False: 0}
    width = 7
    for _ in range(12):
        structures = [
            random_structure(rng, rng.randint(1, 7), ("f", "g"), cls) for _ in range(2)
        ]
        for radius in range(4):
            digits, anchored = [], []
            for structure in structures:
                size = len(structure.domain)
                masks = {
                    name: np.array([structure.masks[name]], dtype=np.uint64)
                    for name in ("f", "g")
                }
                letters = _successors(size, masks, mode)
                walk = _walk(letters, 1, size, radius)
                keys, inside = _ball_digits(letters, walk, 2, radius, width)
                digits.extend(keys[0])
                # Below ten elements the anchors run in numeric order.
                for anchor, index in enumerate(inside[0]):
                    ball_positions = [x for x in range(size) if index[x] >= 0]
                    # Rows every isomorphism keeps, and random ones it may not.
                    row = rng.choice(
                        [
                            (),
                            (anchor,),
                            ball_positions,
                            rng.sample(ball_positions, rng.randint(0, len(ball_positions))),
                        ]
                    )
                    row_key = tuple(sorted(index[x] for x in row))
                    a = structure.domain[anchor]
                    marked = row_marked_ball(
                        structure, a, radius, mode, [structure.domain[x] for x in row]
                    )
                    anchored.append((row_key, marked, a))
            codes = _key_ids(np.array(digits), width + 2)
            for (lcode, (lrow, left, la)), (rcode, (rrow, right, ra)) in (
                combinations_with_replacement(zip(codes.tolist(), anchored), 2)
            ):
                iso = isomorphism(left, [la], right, [ra]) is not None
                assert (lcode == rcode and lrow == rrow) == iso, (left, la, right, ra)
                outcomes[iso] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def scalar_homsafe_exhaustive(term, bounds, seed):
    """The exhaustive homomorphism phase as the plain pair loop it replaces."""
    reported = dict(
        bounds.to_json(),
        pair_size=2,
        sampled_pairs=min(bounds.samples, 200),
        sampled_size_cap=min(bounds.sample_size, 6),
    )
    pool = list(enumerate_structures(term_signature(term), 2))
    values = [eval_term(term, s) for s in pool]
    for source, sval in zip(pool, values):
        if not sval:
            continue
        for target, tval in zip(pool, values):
            for h in homomorphisms(source, target):
                for a, b in sorted(sval):
                    if (h[a], h[b]) not in tval:
                        counterexample = {
                            "kind": "homomorphism",
                            "term": print_term(term),
                            "source": structure_to_json(source),
                            "target": structure_to_json(target),
                            "map": h,
                            "pair": [a, b],
                        }
                        return Verdict(
                            "homomorphism-safe",
                            "fail",
                            counterexample,
                            reported,
                            seed,
                        )
    return Verdict(
        "homomorphism-safe",
        "pass-bounded",
        None,
        reported,
        seed,
    )


def test_bulk_homomorphism_phase_matches_the_scalar_pair_loop(monkeypatch):
    rng = random.Random("homsafe-grid")
    exhaustive_only = Bounds(samples=0)
    statuses = set()
    constants = {"id", "empty", "top"}
    for n in range(30):
        # Every other term leaves out the constants, so that more of them
        # read both symbols.
        basis = set(CATALOGUE) - (constants if n % 2 else set())
        term = random_term(rng, basis, ("R", "S"), rng.randint(2, 7))
        expected = scalar_homsafe_exhaustive(term, exhaustive_only, 3).to_json()
        got = check_homomorphism_safe(term, exhaustive_only, 3)
        statuses.add(got.status)
        assert got.to_json() == expected, print_term(term)
        # Blocks of 100 cells split the grids into rows and columns.
        with monkeypatch.context() as m:
            m.setattr(checkers, "_GRID", 100)
            assert check_homomorphism_safe(term, exhaustive_only, 3).to_json() == expected
    assert statuses == {"pass-bounded", "fail"}


def pool_sizes(bounds, seed):
    """The sizes of the pool's draws."""
    return checkers._stream(seed, checkers._POOL).integers(1, bounds.sample_size + 1, bounds.samples)


def old_pool(symbols, cls, bounds, seed):
    """The pool as the checks built it before `_pool`: every enumerated
    structure, then every draw, those of a swept size included, decoded
    one at a time."""
    pool = list(enumerate_structures(symbols, bounds.resolved_size(len(symbols)), cls))
    draws = reference.stream_draws(seed, checkers._POOL, pool_sizes(bounds, seed), symbols, cls)
    return pool + [drawn_structure(masks, size) for size, masks in draws]


@pytest.mark.parametrize(
    "cls, max_size",
    [
        (StructureClass.PARTIAL_FUNCTIONS, None),
        (StructureClass.TOTAL_FUNCTIONS, None),
        (StructureClass.INJECTIVE_PARTIAL_FUNCTIONS, None),
        (StructureClass.ALL, 2),
    ],
)
def test_pool_decodes_to_the_structures_the_old_pool_built(cls, max_size):
    bounds = Bounds(max_size=max_size, samples=150, sample_size=12)
    symbols = ("f", "g")
    pooled = {}
    for size, masks, positions in _pool(symbols, cls, bounds, 5)[1]:
        for j, position in enumerate(positions.tolist()):
            pooled[position] = drawn_structure(_structure_masks(masks, j), size)
        assert all(isinstance(m, np.ndarray) == (size <= 8) for m in masks.values())
    # The exhaustive part keeps the orbit-minimal indices at their labelled
    # positions (every index at size 1); every draw of a larger size follows.
    old = old_pool(symbols, cls, bounds, 5)
    kept, start = [], 0
    for size in range(1, bounds.resolved_size(2) + 1):
        total = count_structures(symbols, size, cls)
        flags = reference.orbit_minimal_flags(2, size, cls, total)
        assert flags.sum() < total or size == 1
        kept += (start + np.flatnonzero(flags)).tolist()
        start += total
    drawn = np.flatnonzero(pool_sizes(bounds, 5) > bounds.resolved_size(2))
    assert 0 < len(drawn) < bounds.samples
    kept += (start + drawn).tolist()
    assert sorted(pooled) == kept
    assert [pooled[p] for p in kept] == [old[p] for p in kept]
    assert max(len(s.domain) for s in pooled.values()) >= 10


# Relates x to f^9(x) when x's first ten iterates are distinct, so it is
# nonempty only on structures of at least ten elements.
TEN_CHAIN = (
    "(f;f;f;f;f;f;f;f;f) \\ (id | f | f;f | f;f;f | f;f;f;f | f;f;f;f;f"
    " | f;f;f;f;f;f | f;f;f;f;f;f;f | f;f;f;f;f;f;f;f)"
)


def test_invariant_failing_first_on_a_large_draw_reports_as_before():
    term = parse_term(f"({TEN_CHAIN}) ; T")
    pool = old_pool(("f",), StructureClass.PARTIAL_FUNCTIONS, Bounds(), 1)
    first = next(s for s in pool if _fp_offence(eval_term(term, s), s) is not None)
    assert 10 <= len(first.domain) <= 12
    verdict = check_function_preserving(term, Bounds(), 1)
    assert verdict.counterexample == {
        "kind": "invariant",
        "term": print_term(term),
        "structure": structure_to_json(first),
        "offence": _fp_offence(eval_term(term, first), first),
    }


def test_forward_visits_anchors_in_structure_domain_order_on_large_draws():
    term = parse_term(TEN_CHAIN)
    pool = old_pool(("f",), StructureClass.PARTIAL_FUNCTIONS, Bounds(), 21)
    first = next(s for s in pool if eval_term(term, s))
    value = eval_term(term, first)
    anchors = [a for a in first.domain if any(x == a for x, _ in value)]
    # e12 precedes e5 in domain order, though not in numeric order.
    assert len(first.domain) == 12 and anchors[:2] == ["e12", "e5"]
    inside = set(ball(first, anchors[0], 3).domain)
    row = [b for b in first.domain if (anchors[0], b) in value]
    verdict = check_forward(term, Bounds(), 21)
    assert verdict.counterexample == {
        "kind": "row-outside-ball",
        "term": print_term(term),
        "mode": "forward",
        "structure": structure_to_json(first),
        "anchor": anchors[0],
        "radius": 3,
        "element": next(b for b in row if b not in inside),
    }


def test_pooled_checks_build_a_structure_only_for_a_counterexample(monkeypatch):
    built = []
    post_init = Structure.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Structure, "__post_init__", counted)
    checks = (
        check_function_preserving,
        check_total_function_preserving,
        check_injective_function_preserving,
        check_forward,
        check_local,
    )
    for check in checks:
        built.clear()
        # f & id passes at radius 0, so the bounded checks meet no failure.
        verdict = check(parse_term("f ; g" if check in checks[:3] else "f & id"), Bounds(), 0)
        assert verdict.passed and verdict.bounds.get("radius", 0) == 0
        assert built == [], check.__name__
    # A failure builds its counterexample and re-verifies it: a handful of
    # structures per failing attempt, against a pool of over a thousand.
    for check, text in (
        (check_function_preserving, "f | g"),
        (check_total_function_preserving, "~f"),
        (check_injective_function_preserving, "f | g"),
    ):
        built.clear()
        verdict = check(parse_term(text), Bounds(), 0)
        assert not verdict.passed and len(built) == 2, (check.__name__, len(built))
    for check, text in ((check_forward, "f^"), (check_local, "ran(f) ; T")):
        built.clear()
        verdict = check(parse_term(text), Bounds(), 0)
        assert not verdict.passed and len(built) <= 8 * 4, (check.__name__, len(built))


def differential_cases(rng, count, chains):
    """(term, bounds, seed) triples: each of `chains` (terms over f) under
    Bounds() at seed 4, whose pools of every class draw a ten-chain, then
    random catalogue terms over one or two symbols, every other one
    without constants, under varied bounds."""
    cases = [(parse_term(text), Bounds(), 4) for text in chains]
    while len(cases) < count:
        n = len(cases)
        basis = set(CATALOGUE) - ({"id", "empty", "top"} if n % 2 else set())
        term = random_term(rng, basis, ("f", "g") if n % 3 else ("f",), rng.randint(2, 6))
        # Sizes up to 12: past eight the int route, past nine the string
        # domain order.  Two symbols there need two words per ball key.
        bounds = Bounds() if n % 4 == 0 else Bounds(samples=150, sample_size=5 + n % 8)
        cases.append((term, bounds, n))
    return cases


# The empty signature has one structure per size, so these reach the
# sweep's int route past size 8 in every exhaustive phase.
PAST_EIGHT = [
    (parse_term(text), Bounds(max_size=10, samples=30, sample_size=12), 0)
    for text in ("id", "T ; id", "-id")
]


# Bounds whose budget binds, over one and two symbols: from no budget at
# all to budgets that sample part of size 3 or 4 and skip the rest.
BUDGETED = [
    (parse_term(text), Bounds(max_size=4, samples=40, sample_size=6, exhaustive_budget=budget), seed)
    for seed, (text, budget) in enumerate((
        ("f ; g", 0), ("f ; g^", 1), ("f | g", 100), ("dom(f) ; g^", 1_000),
        ("f <+ (g ; g)", 1_000), ("ran(f) |> -(g & f)", 5_000), ("f ; f", 300), ("~f", 1_000),
    ))
]


def large(verdict) -> bool:
    """Whether a failure was found on a structure of ten or more elements."""
    found = verdict.counterexample or {}
    return len((found.get("structure") or found.get("right") or {"domain": ()})["domain"]) >= 10


@pytest.mark.parametrize("check, mode", [(check_forward, "forward"), (check_local, "undirected")])
def test_array_bounded_checks_match_the_per_anchor_scan(check, mode):
    rng = random.Random(f"rows-{mode}")
    kinds, sizes = set(), set()
    # Nonempty only from ten elements on: the ten-chain's rows leave
    # their balls, and its domain's rows differ on isomorphic balls.
    chains = (TEN_CHAIN, f"dom({TEN_CHAIN})")
    for n, (term, bounds, seed) in enumerate(differential_cases(rng, 20, chains) + PAST_EIGHT + BUDGETED):
        max_radius = n % 4
        expected = reference.scalar_bounded_check(term, mode, bounds, seed, max_radius)
        got = check(term, bounds, seed, max_radius)
        assert got.to_json() == expected.to_json(), (print_term(term), bounds, max_radius)
        kinds.add(got.counterexample["kind"] if got.counterexample else got.status)
        sizes.add(large(got))
    assert kinds == {"pass-bounded", "row-outside-ball", "ball-row-mismatch"}
    assert sizes == {True, False}


@pytest.mark.parametrize("name", sorted(checkers._INVARIANTS))
def test_array_invariant_scan_matches_the_scalar_scan(name):
    rng = random.Random(f"invariant-{name}")
    check = {
        "function-preserving": check_function_preserving,
        "total-function-preserving": check_total_function_preserving,
        "injective-function-preserving": check_injective_function_preserving,
    }[name]
    statuses, sizes = set(), set()
    cases = differential_cases(rng, 24, (f"id | (({TEN_CHAIN}) ; T)",)) + PAST_EIGHT + BUDGETED
    for term, bounds, seed in cases:
        expected = reference.scalar_invariant_check(name, term, bounds, seed)
        got = check(term, bounds, seed)
        assert got.to_json() == expected.to_json(), (print_term(term), bounds)
        statuses.add(got.status)
        sizes.add(large(got))
    assert statuses == {"pass-bounded", "fail"}
    assert sizes == {True, False}


@pytest.mark.parametrize("check", [check_forward, check_local])
def test_bounded_checks_refuse_a_negative_radius(check):
    with pytest.raises(ValueError, match="max radius must be at least 0"):
        check(parse_term("f"), LIGHT, 0, -1)


@pytest.mark.parametrize("check, mode", [(check_forward, "forward"), (check_local, "undirected")])
def test_bounded_checks_take_radii_past_the_narrowest_integers(check, mode):
    # A radius of 130 needs 16-bit depths; "f ; f" passes only at radius 2.
    term = parse_term("f ; f")
    got = check(term, LIGHT, 0, 130)
    assert got.to_json() == reference.scalar_bounded_check(term, mode, LIGHT, 0, 130).to_json()
    assert got.bounds["max_radius"] == 130


# Arrows that have no converse arrow: a path of three of them that does
# not return to its start needs four distinct elements, so these fail
# ⊆-safety only past the exhaustive size for two symbols.
ARROW = "((R \\ id) \\ R^)"
FOUR_ELEMENT_FAILURES = (
    f"~(({ARROW} ; {ARROW} ; {ARROW}) & -id) | S",
    f"(({ARROW} ; {ARROW} ; {ARROW}) & -id) <+ S",
)


def test_array_subset_check_matches_the_per_subset_sweep(monkeypatch):
    distinct, keyed = checkers._distinct, []

    def spy(words, k, shape):
        if len(shape) == 2:  # from `_chunk_parts`, not the sampled phase
            keyed.append(1 << k * k * len(words) > np.prod(shape))
        return distinct(words, k, shape)

    monkeypatch.setattr(checkers, "_distinct", spy)
    rng = random.Random("subset-array")
    c02 = Bounds(max_size=3, samples=200, sample_size=6)
    cases = [(parse_term(text), Bounds(max_size=2), 0) for text in FOUR_ELEMENT_FAILURES]
    # Sizes 1-3 over two symbols swept (262,404 structures), then 40,000
    # draws of size 4: the 2**18 structures of three elements outnumber
    # the batch's 4 x 40,000 induced ones, so those are told apart by key.
    keyed_case = (parse_term("R | (S ; R)"), Bounds(max_size=4, exhaustive_budget=302_404), 0)
    cases.append(keyed_case)
    # The first failure meets only the last subset of its size, {e2} of
    # R = {(e1, e2)}; and a failure only on one-element subsets.
    cases.append((parse_term("~(R^)"), Bounds(samples=0), 0))
    cases.append((parse_term("~(-id)"), Bounds(max_size=0, samples=200, sample_size=8), 0))
    # Random terms under Bounds(), the matrix's bounds, and each phase alone.
    mixes = (Bounds(), c02, Bounds(max_size=0, samples=200, sample_size=8), Bounds(samples=0))
    while len(cases) < 21:
        n = len(cases)
        symbols = ((), ("R",), ("R", "S"))[n % 3]
        term = random_term(rng, CATALOGUE, symbols, rng.randint(2, 6))
        cases.append((term, mixes[n % 4], n))
    # Size 4 over two symbols is sampled, 65,536 of the 337,596 the default
    # budget has left, and with no budget every size is skipped.
    cases += [(parse_term("R ; S"), Bounds(max_size=4, samples=0), 0), *PAST_EIGHT]
    cases.append((parse_term("~(R^) | S"), Bounds(samples=50, exhaustive_budget=0), 3))
    phases, signatures, sampled_sizes, cut = set(), set(), set(), set()
    for term, bounds, seed in cases:
        expected = reference.scalar_subseteq_check(term, bounds, seed)
        got = check_subseteq_safe(term, bounds, seed)
        assert got.to_json() == expected.to_json(), (print_term(term), bounds, seed)
        signatures.add(term_signature(term))
        cut.add("exhaustive_cut" in got.bounds)
        if got.passed:
            phases.add("pass")
            continue
        size = len(got.counterexample["structure"]["domain"])
        sampled = size > bounds.resolved_size(len(term_signature(term)))
        phases.add("sampled" if sampled else "exhaustive")
        if sampled:
            sampled_sizes.add(size)
    assert phases == {"pass", "exhaustive", "sampled"}
    assert {(), ("R",), ("R", "S")} <= signatures
    assert sampled_sizes & {6, 7, 8}
    assert cut == {True, False}
    assert True in keyed and False in keyed
    sampled = checkers.SizeCoverage(4, 2**32, "sampled", 40_000, 40_000)
    assert check_subseteq_safe(*keyed_case).bounds["exhaustive_cut"] == [sampled.to_json()]


def test_array_subset_check_refuses_a_hit_the_subset_route_denies(monkeypatch):
    monkeypatch.setattr(checkers, "_subset_hit", lambda *args: None)
    with pytest.raises(AssertionError, match="disagree on a subset"):
        check_subseteq_safe(parse_term("~R"), LIGHT, 0)
    with pytest.raises(AssertionError, match="disagree on a subset"):
        check_subseteq_safe(parse_term("~R"), Bounds(max_size=0, samples=50, sample_size=5), 0)


MATRIX_LIGHT = Bounds(max_size=2, samples=25, sample_size=8)


@pytest.mark.parametrize("seed", range(4))
def test_matrix_cells_equal_the_standalone_checks(seed):
    report = catalogue_matrix(MATRIX_LIGHT, seed)
    for op, row in report.verdicts.items():
        term = term_for_operation(op)
        for col, verdict in row.items():
            alone = checkers._COLUMN_CHECKS[col](term, MATRIX_LIGHT, seed)
            assert verdict.to_json() == alone.to_json(), (op, col)


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)


def test_matrix_sharing_lives_and_dies_with_the_call(monkeypatch):
    calls = []

    def spying(check):
        def spy(term, bounds, seed):
            verdict = check(term, bounds, seed)
            memo = checkers._SHARED.get()
            calls[-1]["sizes"].append(len(memo))
            calls[-1]["keys"].update(key[:2] for key in memo)
            for array in arrays_in(list(memo.values())):
                assert not array.flags.writeable
                calls[-1]["arrays"][id(array)] = weakref.ref(array)
            return verdict

        return spy

    for col, check in list(checkers._COLUMN_CHECKS.items()):
        monkeypatch.setitem(checkers._COLUMN_CHECKS, col, spying(check))
    for _ in range(2):
        calls.append({"sizes": [], "keys": set(), "arrays": {}})
        catalogue_matrix(MATRIX_LIGHT, 1)
        assert checkers._SHARED.get() is None
        gc.collect()
        assert all(ref() is None for ref in calls[-1]["arrays"].values())
    first, second = calls
    # The second call starts from nothing and builds what the first built.
    assert first["sizes"] == second["sizes"] and first["keys"] == second["keys"]
    builders = {name for name, _ in first["keys"]}
    assert builders == {"_pool", "_walks", "_ball_keys", "_subset_draws", "_chunk_parts"}
    # One pool and one set of draws per signature: (), (R) and (R, S).
    assert sorted(signature for name, signature in first["keys"] if name == "_pool") == [
        (), ("R",), ("R", "S")
    ]
    assert len([key for key in first["keys"] if key[0] == "_subset_draws"]) == 3


def test_shared_arrays_refuse_writes():
    _, pool = _pool(("f",), StructureClass.PARTIAL_FUNCTIONS, LIGHT, 0)
    size, masks, positions = pool[0]
    with pytest.raises(ValueError, match="read-only"):
        positions[0] = 7
    with pytest.raises(ValueError, match="read-only"):
        masks["f"][0] = 7
    sampled = checkers.SizeCoverage(3, 262_144, "sampled", 64, 64)
    (k, cells, distinct, count, inverse), *_ = checkers._chunk_parts(("R", "S"), sampled, 0, 0)
    with pytest.raises(ValueError, match="read-only"):
        inverse[0, 0] = 1


def spied_sweeps(monkeypatch) -> set:
    """(plan entry, run start, run stop) of every distinct run `_sweep`
    yields from now on."""
    seen = set()
    sweep = checkers._sweep

    def spy(symbols, cls, cover, seed, first=0):
        for run, indices, masks in sweep(symbols, cls, cover, seed, first):
            seen.add((cover, run.start, run.stop))
            yield run, indices, masks

    monkeypatch.setattr(checkers, "_sweep", spy)
    return seen


def swept_by_size(seen) -> dict:
    """Per size, the plan entries `_sweep` ran and the positions it swept."""
    sizes = {}
    for cover, start, stop in seen:
        covers, count = sizes.get(cover.size, (set(), 0))
        sizes[cover.size] = covers | {cover}, count + stop - start
    return sizes


GUARD_BUDGETS = (0, 1, 100, 1_000, 600_000)


def test_every_sweep_stays_in_the_budget_and_lists_what_it_cut(monkeypatch):
    seen = spied_sweeps(monkeypatch)
    rng = random.Random("one-budget")
    checks = (
        check_function_preserving, check_total_function_preserving,
        check_injective_function_preserving, check_forward, check_local,
        check_homomorphism_safe, check_subseteq_safe,
    )
    modes, statuses = set(), set()
    for n in range(40):
        check, budget = checks[n % len(checks)], GUARD_BUDGETS[n % len(GUARD_BUDGETS)]
        symbols = ((), ("f",), ("f", "g"), ("f", "g"))[n % 4]
        term = random_term(rng, CATALOGUE, symbols, rng.randint(1, 5))
        bounds = Bounds(max_size=3, samples=20, sample_size=5, exhaustive_budget=budget)
        seen.clear()
        verdict = check(term, bounds, n)
        statuses.add(verdict.status)
        swept = swept_by_size(seen)
        assert sum(count for _, count in swept.values()) <= budget, (print_term(term), check)
        cut = {c["size"]: c for c in verdict.bounds.get("exhaustive_cut", [])}
        top = 2 if check is check_homomorphism_safe else bounds.resolved_size(len(term_signature(term)))
        assert set(cut) <= set(range(1, top + 1))
        for size in range(1, top + 1):
            covers, count = swept.get(size, (set(), 0))
            assert len(covers) <= 1
            for cover in covers:
                modes.add(cover.mode)
                if cover.mode == "exhaustive":
                    assert size not in cut and cover.checked == cover.total
                else:
                    assert cut[size] == cover.to_json() and count == cover.checked
            if size in cut:
                modes.add(cut[size]["mode"])
                assert cut[size]["mode"] != "skipped" or not covers
            # A pass covered every size: swept in full or listed.
            if verdict.passed and size not in cut:
                (cover,) = covers
                assert cover.mode == "exhaustive" and count == cover.total
    assert modes == {"exhaustive", "sampled", "skipped"}
    assert statuses == {"pass-bounded", "fail"}


def test_equivalence_sweeps_stay_in_the_budget_and_match_the_coverage(monkeypatch):
    seen = spied_sweeps(monkeypatch)
    rng = random.Random("one-budget-equivalence")
    modes, equivalent = set(), set()
    for n in range(30):
        cls, budget = list(StructureClass)[n % 4], GUARD_BUDGETS[n % len(GUARD_BUDGETS)]
        symbols = ((), ("f",), ("f", "g"))[n % 3]
        lhs, rhs = (random_term(rng, CATALOGUE, symbols, rng.randint(1, 4)) for _ in range(2))
        if n % 2:  # equal sides, so that every size is reached
            rhs = parse_term(f"({print_term(lhs)}) & ({print_term(lhs)})")
        bounds = Bounds(max_size=3, samples=20, sample_size=5, exhaustive_budget=budget)
        seen.clear()
        report = equivalence_report(lhs, rhs, symbols, cls, bounds, n)
        equivalent.add(report.equivalent)
        swept = swept_by_size(seen)
        assert sum(count for _, count in swept.values()) <= budget, (lhs, rhs, cls)
        assert set(swept) <= {c.size for c in report.coverage}
        for c in report.coverage:
            modes.add(c.mode)
            covers, count = swept.get(c.size, (set(), 0))
            assert {cover.mode for cover in covers} <= {c.mode} and count == c.checked
            assert c.mode == "skipped" or covers
    assert modes == {"exhaustive", "sampled", "skipped"}
    assert equivalent == {True, False}


@pytest.mark.parametrize(
    "check, seconds, megabytes",
    # Four times what each took on a shared 2-core machine (1.0 s and 57 MB,
    # 0.06 s and 5.3 MB, 0.9 s and 50 MB, each alone in a fresh process under
    # tracemalloc); sweeping every size-5 index took 8.6 s and 390 MB, and
    # 2.2 s and 42.5 MB, for the first two.
    [(check_forward, 4.0, 230), (check_function_preserving, 0.25, 21), (check_local, 3.6, 200)],
)
def test_a_size_past_the_budget_is_sampled_not_swept(check, seconds, megabytes):
    # Two partial functions: sizes 1-4 take 394,806 of the budget, and size
    # 5 holds 7,776 ** 2 = 60,466,176 structures (injective ones: 44,890
    # and 2,390,116).
    tracemalloc.start()
    try:
        started = time.perf_counter()
        verdict = check(parse_term("f ; g"), Bounds(max_size=5, samples=0))
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.passed
    (cut,) = verdict.bounds["exhaustive_cut"]
    assert (cut["size"], cut["mode"], cut["checked"]) == (5, "sampled", 65_536)
    assert elapsed < seconds, elapsed
    assert peak < megabytes * 2**20, peak
