"""The one seeded stream of the sampled phases: each class's distribution
at both routes of `random_symbol_masks`, reports that a seed reproduces,
draws of one size that do not depend on the sizes covered, the mask route
for draws above `MAX_BULK_SIZE`, and the rule for negative seeds."""

import random
from itertools import permutations
from math import comb

import numpy as np
import pytest

from relalg import checkers, cli
from relalg.bulk import MAX_BULK_SIZE, random_symbol_masks
from relalg.checkers import (
    Bounds,
    CheckError,
    _pool,
    _scalar_value,
    _subset_draws,
    catalogue_matrix,
    check_forward,
    check_function_preserving,
    check_homomorphism_safe,
    check_injective_function_preserving,
    check_local,
    check_subseteq_safe,
    check_total_function_preserving,
    equivalence_report,
)
from relalg.logic import term_to_fo3
from relalg.structures import StructureClass, _domain_of, drawn_structure, relation_mask
from relalg.terms import CATALOGUE, parse_term, random_term

ALL = StructureClass.ALL
PF = StructureClass.PARTIAL_FUNCTIONS
TF = StructureClass.TOTAL_FUNCTIONS
IPF = StructureClass.INJECTIVE_PARTIAL_FUNCTIONS


def rows(masks, k):
    """(n, k, k) bools: [i, a, b] for the pair (e_{a+1}, e_{b+1}) of the
    i-th mask, from a uint64 array or a list of Python ints."""
    bits = [[m >> p & 1 for p in range(k * k)] for m in map(int, masks)]
    return np.array(bits, dtype=bool).reshape(len(bits), k, k)


# Draws per frequency check: a bin of probability 1/2 then has a standard
# error of 0.0035 (0.011 at the wide sizes), against tolerances of 0.02
# and 0.05.
NARROW, WIDE = 20_000, 2_000


@pytest.mark.parametrize("k, n, tolerance", [(4, NARROW, 0.02), (10, WIDE, 0.05)])
def test_each_class_draws_its_documented_distribution(k, n, tolerance):
    def near(observed, expected):
        return np.all(np.abs(np.asarray(observed) - expected) <= tolerance)

    # ALL: every pair with probability 1/2.
    cells = rows(random_symbol_masks(np.random.default_rng(1), n, k, ALL, ("f",))["f"], k)
    assert near(cells.mean(axis=0), 1 / 2)
    # Functions: each element's image uniform over the k elements, or over
    # them and no image for partial functions.
    for cls, base in ((PF, k + 1), (TF, k)):
        cells = rows(random_symbol_masks(np.random.default_rng(2), n, k, cls, ("f",))["f"], k)
        assert (cells.sum(axis=2) <= 1).all()
        assert near(cells.mean(axis=0), 1 / base)
        assert near((~cells.any(axis=2)).mean(axis=0), 1 - k / base)
    # Injective: a uniform permutation with a fair coin per element, so an
    # element has an image with probability 1/2, uniform over the k, and a
    # structure keeps j edges with probability C(k, j) / 2**k.
    cells = rows(random_symbol_masks(np.random.default_rng(3), n, k, IPF, ("f",))["f"], k)
    assert (cells.sum(axis=1) <= 1).all() and (cells.sum(axis=2) <= 1).all()
    assert near(cells.mean(axis=0), 1 / (2 * k))
    edges = np.bincount(cells.sum(axis=(1, 2)), minlength=k + 1) / n
    assert near(edges, np.array([comb(k, j) for j in range(k + 1)]) / 2**k)


def test_full_injective_draws_are_uniform_permutations():
    k, n = 3, NARROW
    cells = rows(random_symbol_masks(np.random.default_rng(4), n, k, IPF, ("f",))["f"], k)
    full = cells[cells.sum(axis=(1, 2)) == k]
    images = [tuple(row.argmax(axis=1)) for row in full]
    counts = [images.count(perm) / len(images) for perm in permutations(range(k))]
    assert abs(len(full) / n - 1 / 2**k) <= 0.01
    assert np.all(np.abs(np.array(counts) - 1 / 6) <= 0.03), counts


LIGHT = Bounds(max_size=2, samples=60, sample_size=10)
CHECKS = (
    (check_function_preserving, "f ; g^"),
    (check_total_function_preserving, "f ; g"),
    (check_injective_function_preserving, "f | g"),
    (check_homomorphism_safe, "R <+ (S ; R)"),
    (check_subseteq_safe, "~(R ; S)"),
    (check_forward, "f ; g"),
    (check_local, "f^ ; g"),
)


def test_the_same_seed_reproduces_every_report():
    for seed in (0, 7):
        for check, text in CHECKS:
            first = check(parse_term(text), LIGHT, seed).to_json()
            assert check(parse_term(text), LIGHT, seed).to_json() == first, (check, seed)
        for cls in StructureClass:
            args = parse_term("f ; g"), parse_term("f ; (g & T)"), ("f", "g"), cls, LIGHT, seed
            assert equivalence_report(*args).to_json() == equivalence_report(*args).to_json()
        bounds = Bounds(max_size=2, samples=20, sample_size=4)
        assert catalogue_matrix(bounds, seed).to_json() == catalogue_matrix(bounds, seed).to_json()


# A simple 4-cycle through x with no shorter closed walk through x: the
# sides first differ at four elements.
FOUR_CYCLE = "((R ; R ; R ; R) & id) \\ (R | (R ; R) | (R ; R ; R))"


def test_the_draws_of_a_size_do_not_depend_on_the_sizes_covered():
    # The tail: whether sizes 1-2 or 1-3 are swept, the first mismatch is
    # the same draw.
    lhs, rhs = parse_term(FOUR_CYCLE), parse_term("0")
    found = 0
    for seed in range(6):
        reports = [
            equivalence_report(lhs, rhs, ("R",), ALL, Bounds(max_size=m, samples=80, sample_size=6), seed)
            for m in (2, 3)
        ]
        assert [c.size for c in reports[0].coverage] == [1, 2]
        left, right = (r.to_json() for r in reports)
        for key in ("equivalent", "counterexample", "random_checked", "lhs_pairs"):
            assert left[key] == right[key], (seed, key)
        found += not reports[0].equivalent
    assert found >= 2, found
    # The pool: each drawn size holds the same draws at the same positions,
    # past the swept sizes' positions.
    bounds = {m: Bounds(max_size=m, samples=100, sample_size=6) for m in (2, 3)}
    groups = {m: {size: (masks, pos) for size, masks, pos in _pool(("f",), PF, b, 5)[1]} for m, b in bounds.items()}
    shift = 4**3  # the size-3 indices the second pool sweeps
    for size in range(4, 7):
        (low, at_low), (high, at_high) = groups[2][size], groups[3][size]
        assert np.array_equal(low["f"], high["f"]) and np.array_equal(at_low + shift, at_high)
    # The subset draws: covering a size leaves the other sizes' draws.
    sizes = tuple(checkers._stream(5, checkers._SUBSETS).integers(1, 7, 100).tolist())
    low, high = (
        _subset_draws(("R",), 5, sizes, checkers._plan(("R",), ALL, Bounds(max_size=m)))[0]
        for m in (2, 4)
    )
    assert {3, 5, 6} <= set(sizes)
    for size, left, right in zip(sizes, low, high):
        assert (left is None) == (size <= 2) and (right is None) == (size <= 4)
        assert size <= 4 or left == right


def test_the_mask_route_above_the_bulk_sizes_matches_the_structure_route():
    rng = random.Random(9)
    ops = set(CATALOGUE) | {"injunion"}
    compared = 0
    for k in range(MAX_BULK_SIZE + 1, 13):
        for cls in StructureClass:
            masks = random_symbol_masks(np.random.default_rng(k), 6, k, cls, ("f", "g"))
            for j in range(6):
                structure = drawn_structure({name: m[j] for name, m in masks.items()}, k)
                term = random_term(rng, ops, ("f", "g"), rng.randint(1, 6))
                want = relation_mask(_scalar_value(term, structure), _domain_of(k))
                assert checkers._values(term, k, masks, 6)[j] == want, (k, cls)
                compared += want != 0
    assert compared > 40
    # A formula side goes through its structure.
    phi = term_to_fo3(parse_term("f ; g^"))
    masks = random_symbol_masks(np.random.default_rng(1), 3, 11, PF, ("f", "g"))
    want = [
        relation_mask(_scalar_value(phi, drawn_structure({n: m[j] for n, m in masks.items()}, 11)), _domain_of(11))
        for j in range(3)
    ]
    assert checkers._values(phi, 11, masks, 3) == want and any(want)


def test_a_negative_seed_is_refused_by_every_check():
    term = parse_term("f ; g")
    for check, text in CHECKS:
        with pytest.raises(CheckError, match="seed must be at least 0, got -1"):
            check(parse_term(text), LIGHT, -1)
    # Even where the exhaustive phase would end the check first.
    with pytest.raises(CheckError, match="seed must be at least 0"):
        check_homomorphism_safe(parse_term("-R"), LIGHT, -3)
    with pytest.raises(CheckError, match="seed must be at least 0"):
        equivalence_report(term, parse_term("g ; f"), ("f", "g"), PF, LIGHT, -2)
    with pytest.raises(CheckError, match="seed must be at least 0"):
        catalogue_matrix(Bounds(max_size=1, samples=0), -1)
    # Samples of 0 still check the seed.
    with pytest.raises(CheckError, match="seed must be at least 0"):
        equivalence_report(term, term, ("f", "g"), PF, Bounds(max_size=1, samples=0), -1)


def test_the_command_line_refuses_a_negative_seed(capsys):
    argv = ["translate", "exists z . (R(x,z) & S(z,y))", "--check", "--seed", "-1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() == "error: seed must be at least 0, got -1"
    assert cli.main(["check", "forward", "f ; g", "--seed", "-4"]) == 2
    assert "seed must be at least 0, got -4" in capsys.readouterr().err
    assert cli.main(["translate", "exists z . (R(x,z) & S(z,y))", "--check", "--seed", "0"]) == 0

