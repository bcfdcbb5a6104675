"""Acceptance suite: eleven criteria, one test per criterion.

Each test prints one PASS line with its wall time once every assertion
holds, and pins the time budget it must finish within.  Bounds are written
out inline so any failure is reproducible from this file alone.
"""

import random
import time

import numpy as np
from reference import is_partial_function, is_total_function

from relalg.bulk import bulk_eval_term, decode_symbol_masks
from relalg.checkers import (
    EXPECTED_MATRIX,
    MATRIX_COLUMNS,
    Bounds,
    catalogue_matrix,
    verify_counterexample,
)
from relalg.constructions import (
    anchored_probe_formula,
    build_lasso,
    build_separation,
    remove_hub,
    totalize_with_sink,
    verify_closure_bound,
)
from relalg.games import check_union_compatibility, ef_equiv, min_distinguishing_rank
from relalg.logic import eval_formula
from relalg.structures import (
    Structure,
    StructureClass,
    ball,
    count_structures,
    isomorphism,
    random_structure,
    structure_from_index,
)
from relalg.synth import (
    characteristic_term,
    enumerate_types,
    neighborhood_type,
    synthesize_forward,
    synthesize_local_injective,
    validate_synthesis,
)
from relalg.terms import (
    BASES,
    eval_term,
    normalize_fp,
    parse_term,
    random_term,
    semantic_closure,
    term_ops,
    term_signature,
)
from relalg.translate import compile_posex, random_posex_formula, verify_compilation

ALL = StructureClass.ALL
PF = StructureClass.PARTIAL_FUNCTIONS


def report(number, label, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.1f}s >= {budget}s"
    print(f"criterion {number} ({label}): PASS in {elapsed:.1f}s")


def domain_sizes(obj):
    """Sizes of every structure serialized anywhere inside a report dict."""
    if isinstance(obj, dict):
        if "domain" in obj and "relations" in obj:
            yield len(obj["domain"])
        for value in obj.values():
            yield from domain_sizes(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from domain_sizes(value)


def test_c01_operation_identities():
    started = time.time()
    identities = (
        ("dom(R)", "(R ; R^) & id"),
        ("~R", "id \\ dom(R)"),
        ("ran(R)", "dom(R^)"),
        ("R |> S", "R ; dom(S)"),
        ("R <+ S", "R | (S \\ (dom(R) ; T))"),
        ("R <# S", "(R <+ S) & ((R^ <+ S^)^)"),
        ("-R", "T \\ R"),
    )
    for k in (1, 2, 3):
        total = count_structures(("R", "S"), k, ALL)
        masks = decode_symbol_masks(
            np.arange(total, dtype=np.uint64), k, ALL, ("R", "S")
        )
        for lhs, rhs in identities:
            left = bulk_eval_term(parse_term(lhs), k, masks)
            right = bulk_eval_term(parse_term(rhs), k, masks)
            assert np.array_equal(left, right), (lhs, rhs, k)
    report(1, "seven operation identities, exhaustive to size 3", started, 120)


def test_c02_property_matrix():
    started = time.time()
    matrix = catalogue_matrix(Bounds(max_size=3, samples=200, sample_size=6), 0)
    assert matrix.agrees, matrix.mismatches
    negatives = 0
    for op, row in matrix.verdicts.items():
        for col, verdict in row.items():
            expected = EXPECTED_MATRIX[op][MATRIX_COLUMNS.index(col)]
            assert verdict.passed == expected, (op, col)
            if not expected:
                negatives += 1
                assert verdict.counterexample is not None, (op, col)
                assert verify_counterexample(verdict), (op, col)
                sizes = list(domain_sizes(verdict.counterexample))
                assert sizes and max(sizes) <= 4, (op, col, sizes)
    assert negatives == 14
    report(2, "operation-by-property matrix with verified noes", started, 300)


def test_c03_translator_on_random_formulas():
    started = time.time()
    rng = random.Random(0)
    pool = ("R", "S", "U")
    for i in range(200):
        symbols = pool[: rng.randint(1, 3)]
        phi = random_posex_formula(rng, symbols, max_depth=4)
        term = compile_posex(phi)
        assert term_ops(term) <= BASES["homsafe"], phi
        check = verify_compilation(
            phi, term, Bounds(max_size=3, samples=500, sample_size=8), i
        )
        assert check.ok, (i, phi, check.report.counterexample)
    report(3, "200 positive-existential compilations verified", started, 600)


def test_c04_closure_separation():
    started = time.time()
    bundle = build_separation(2, 3)
    verdict = verify_closure_bound(bundle)
    assert verdict.passed and verdict.complete
    assert verdict.reached == 8 and len(set(bundle.expected_closure.values())) == 8
    assert verdict.missing == [] and verdict.escapees == []
    separating_value = eval_term(bundle.separating, bundle.structure)
    expected_value = frozenset(
        (e, e) for e in bundle.structure.domain if e.startswith("L:a")
    )
    assert separating_value == expected_value
    assert separating_value not in set(bundle.expected_closure.values())
    with_converse = semantic_closure(
        bundle.structure, frozenset(BASES["fa"]) | {"converse"}, ("f", "g")
    )
    assert separating_value in with_converse.relations
    assert not set(with_converse.relations) <= set(bundle.expected_closure.values())
    report(4, "closure stops at eight relations until converse joins", started, 120)


def test_c05_sink_totalization():
    started = time.time()
    bundle = build_separation(2, 3)
    ext = totalize_with_sink(bundle)
    dom = ext.structure.domain
    for name in ("ehat", "fhat", "ghat"):
        assert is_total_function(ext.structure.rel(name), dom), name
    for name in ("f", "g"):
        assert eval_term(ext.recovery[name], ext.structure) == bundle.structure.rel(
            name
        ), name
    total_value = eval_term(ext.total_separating, ext.structure)
    assert total_value == ext.expected_separating
    assert is_total_function(total_value, dom)
    report(5, "sink totalization with exact recovery", started, 60)


def test_c06_function_normalizer():
    started = time.time()
    rng = random.Random(0)
    basis = set(BASES["fa"]) | {"top", "union", "converse", "complement", "injunion"}
    fixed_points = 0
    for _ in range(1000):
        t = random_term(rng, basis, ("f", "g"), rng.randint(1, 9))
        s = random_structure(rng, rng.randint(1, 5), ("f", "g"))
        trimmed = normalize_fp(t)
        value = eval_term(trimmed, s)
        assert is_partial_function(value), t
        assert eval_term(normalize_fp(trimmed), s) == value, t
        raw = eval_term(t, s)
        if is_partial_function(raw):
            fixed_points += 1
            assert value == raw, t
    assert fixed_points > 0
    report(6, "1000 runs of the partial-function trim", started, 120)


def test_c07_forward_synthesis_catalogue():
    started = time.time()
    catalogue = (
        ("dom(f)", 1),
        ("~g ; f", 1),
        ("f ; g", 2),
        ("f |> g", 2),
        ("f & g", 1),
        ("f <+ (g ; g)", 2),
        ("~f", 1),
        ("(f & g) <+ g", 1),
        ("f ; f", 2),
        ("f <+ id", 1),
    )
    bounds = Bounds(max_size=4, samples=1000, sample_size=12)
    for source, radius in catalogue:
        assert radius <= 2
        oracle = parse_term(source)
        result = synthesize_forward(oracle, radius)
        assert term_ops(result.term) <= BASES["forward"], source
        check = validate_synthesis(result, oracle, bounds=bounds, seed=0)
        assert check.equivalent, (source, check.counterexample)
    report(7, "ten forward syntheses validated exhaustively to size 4", started, 60)


def test_c08_oriented_synthesis_catalogue():
    started = time.time()
    catalogue = (
        ("f^", 1),
        ("ran(f)", 1),
        ("dom(f) ; g^", 1),
        ("f^ ; f", 1),
        ("f & g", 1),
        ("~f", 1),
        ("f^ ; f^", 2),
        ("f <# id", 1),
        ("dom(f)", 1),
        ("f <# f^", 2),
    )
    bounds = Bounds(max_size=4, samples=1000, sample_size=12)
    for source, radius in catalogue:
        oracle = parse_term(source)
        assert radius <= (2 if len(term_signature(oracle)) == 1 else 1)
        result = synthesize_local_injective(oracle, radius)
        assert term_ops(result.term) <= BASES["injective"], source
        check = validate_synthesis(result, oracle, bounds=bounds, seed=0)
        assert check.equivalent, (source, check.counterexample)
    report(8, "ten oriented syntheses validated exhaustively to size 4", started, 60)


def test_c09_lasso_locality():
    started = time.time()
    psi = anchored_probe_formula()
    for m in (1, 2, 3):
        structure, anchor = build_lasso(m + 1, 2)
        trimmed = remove_hub(structure)
        at = {"x": anchor, "y": anchor}
        assert eval_formula(psi, structure, at), m
        assert not eval_formula(psi, trimmed, at), m
        left = ball(structure, anchor, m, "forward")
        right = ball(trimmed, anchor, m, "forward")
        assert left.size() == right.size() == 2 * m, m
        assert isomorphism(left, (anchor,), right, (anchor,)) is not None, m
    report(9, "lasso probes agree while forward balls cannot tell", started, 60)


def test_c10_game_sanity():
    started = time.time()
    rng = random.Random(0)
    implications = 0
    for _ in range(200):
        s = random_structure(rng, rng.randint(1, 4), ("f", "g"))
        assert ef_equiv(s, (), s, (), 2)
        a = random_structure(rng, rng.randint(1, 3), ("f",))
        b = random_structure(rng, rng.randint(1, 3), ("f",))
        for rank in range(3):
            if ef_equiv(a, (), b, (), rank + 1):
                assert ef_equiv(a, (), b, (), rank)
                implications += 1
    assert implications > 0
    compat = check_union_compatibility(rank=2, samples=100, size=4, seed=0)
    assert compat.premise_hits > 0
    assert compat.violations == []
    loop = Structure(("a",), {"f": {("a", "a")}})
    chain = Structure(("a", "b"), {"f": {("a", "b")}})
    assert min_distinguishing_rank(loop, chain) == 1
    report(10, "game reflexivity, antitonicity, union compatibility", started, 300)


def test_c11_characteristic_terms_classify():
    started = time.time()
    for radius in (0, 1, 2):
        types = enumerate_types(("f",), radius)
        chis = [characteristic_term(t) for t in types]
        for k in (1, 2, 3, 4, 5):
            total = count_structures(("f",), k, PF)
            masks = decode_symbol_masks(
                np.arange(total, dtype=np.uint64), k, PF, ("f",)
            )
            outs = [bulk_eval_term(chi, k, masks) for chi in chis]
            for i in range(len(types)):
                for j in range(i + 1, len(types)):
                    assert not np.any(outs[i] & outs[j]), (radius, k)
            for index in range(total):
                s = structure_from_index(("f",), k, PF, index)
                for pos, element in enumerate(s.domain):
                    actual = neighborhood_type(s, element, radius)
                    bit = 1 << (pos * k + pos)
                    for t, out in zip(types, outs):
                        member = bool(int(out[index]) & bit)
                        assert member == (actual == t), (radius, k, index, pos)
    report(11, "characteristic terms classify every small structure", started, 300)
