"""Exhaustive sweeps over orbit representatives: `structures.orbit_minimal`
against a brute-force orbit count, and every `checkers._sweep` caller's
output against the same caller on the labelled sweep of every index."""

import random
from itertools import permutations

import numpy as np
import pytest

import reference
from relalg import checkers
from relalg.checkers import (
    Bounds,
    check_forward,
    check_function_preserving,
    check_homomorphism_safe,
    check_injective_function_preserving,
    check_local,
    check_subseteq_safe,
    check_total_function_preserving,
    equivalence_report,
)
from relalg.structures import (
    Structure,
    StructureClass,
    count_structures,
    orbit_marked,
    orbit_minimal,
    space_size,
    structure_from_index,
)
from relalg.terms import CATALOGUE, parse_term, random_term, term_signature


def brute_force_minimal(size, cls, count):
    """The indices least among the indices of all their relabellings: each
    one-symbol structure is decoded by `structure_from_index`, relabelled by
    every permutation of its domain and looked up again, and a structure's
    relabelled index is read off its symbols' relabelled codes."""
    per = space_size(size, cls)
    decoded = [structure_from_index(("R",), size, cls, c) for c in range(per)]
    code_of = {s.relations["R"]: c for c, s in enumerate(decoded)}
    domain = decoded[0].domain
    table = []
    for image in permutations(domain):
        moved = dict(zip(domain, image))
        table.append(
            [
                code_of[Structure(domain, {"R": {(moved[a], moved[b]) for a, b in s.relations["R"]}}).relations["R"]]
                for s in decoded
            ]
        )
    index = np.arange(per**count, dtype=np.int64)
    codes = [index // per ** (count - 1 - i) % per for i in range(count)]
    least = np.full(len(index), np.iinfo(np.int64).max)
    for row in np.array(table):
        image = np.zeros_like(index)
        for code in codes:
            image = image * per + row[code]
        least = np.minimum(least, image)
    return np.flatnonzero(least == index)


@pytest.mark.parametrize("cls", list(StructureClass))
def test_orbit_minimal_indices_are_the_brute_force_orbit_minima(cls):
    for size in (1, 2, 3):
        total = count_structures(("f", "g"), size, cls)
        expected = brute_force_minimal(size, cls, 2)
        assert orbit_marked(2, size, cls) == (size > 1)
        assert orbit_minimal(0, total, size, cls, 2).tolist() == expected.tolist()
        flags = reference.orbit_minimal_flags(2, size, cls, total)
        assert np.flatnonzero(flags).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "cls, count, size, minimal, total",
    [
        (StructureClass.PARTIAL_FUNCTIONS, 2, 3, 720, 4_096),
        (StructureClass.PARTIAL_FUNCTIONS, 2, 4, 16_900, 390_625),
        (StructureClass.INJECTIVE_PARTIAL_FUNCTIONS, 2, 4, 1_994, 43_681),
        (StructureClass.ALL, 2, 3, 44_224, 262_144),
        (StructureClass.PARTIAL_FUNCTIONS, 3, 3, 43_968, 262_144),
    ],
)
def test_orbit_minimal_counts(cls, count, size, minimal, total):
    assert count_structures("fgh"[:count], size, cls) == total
    found = orbit_minimal(0, total, size, cls, count)
    assert len(found) == minimal
    flags = reference.orbit_minimal_flags(count, size, cls, total)
    assert np.array_equal(found, np.flatnonzero(flags))
    # Any range reads the same marks, across block boundaries too.
    for start, end in ((5, 70_000), (32_767, 32_769), (100_000, 100_000)):
        end = min(end, total)
        assert np.array_equal(
            orbit_minimal(start, end, size, cls, count), found[(found >= start) & (found < end)]
        )


def test_one_symbol_and_oversized_tables_sweep_every_index():
    # One symbol: the relabel table is as large as the space it filters.
    assert not orbit_marked(1, 4, StructureClass.ALL)
    # ALL at size 5: 5! * 2**25 table entries, past the limit.
    assert not orbit_marked(2, 5, StructureClass.ALL)
    assert orbit_marked(2, 4, StructureClass.ALL)
    assert orbit_minimal(7, 19, 5, StructureClass.ALL, 2).tolist() == list(range(7, 19))


ARROW = "((R \\ id) \\ R^)"
# Fails ⊆-safety first on a 3-cycle of R: R's code is at least 64, past the
# first run of 32,768 indices.
THREE_CYCLE = f"~({ARROW} ; {ARROW} ; {ARROW}) | S"
CYCLE_EQUIVALENCE = ("((R ; R ; R) & id) \\ (R | (R ; R))", "0")


def without_representatives(value):
    if isinstance(value, dict):
        return {k: without_representatives(v) for k, v in value.items() if k != "representatives"}
    if isinstance(value, list):
        return [without_representatives(v) for v in value]
    return value


def both_sweeps(monkeypatch, run):
    """`run()`'s JSON on the orbit-filtered sweep and on the labelled one,
    with the reduced run's representative counts."""
    reduced = run().to_json()
    with monkeypatch.context() as m:
        m.setattr(checkers, "_sweep", reference.labelled_sweep)
        labelled = run().to_json()
    return without_representatives(reduced), without_representatives(labelled), reduced


def test_equivalence_reports_match_the_labelled_sweep(monkeypatch):
    rng = random.Random("orbit-equivalence")
    every, light = StructureClass.ALL, Bounds(max_size=3, samples=30, sample_size=6)
    cases = [
        (parse_term(CYCLE_EQUIVALENCE[0]), parse_term(CYCLE_EQUIVALENCE[1]), ("R", "S"), every, light),
        (parse_term("R ; S"), parse_term("S ; R"), ("R", "S"), every, light),
        (parse_term("f ; (g ; f)"), parse_term("(f ; g) ; f"), ("f", "g"), every, light),
        (parse_term("f & g"), parse_term("g & f"), ("f", "g"), StructureClass.TOTAL_FUNCTIONS, light),
    ]
    for n in range(12):
        cls = list(StructureClass)[n % 4]
        symbols = ("f", "g", "h")[: 2 + n % 2]
        lhs, rhs = (random_term(rng, CATALOGUE, symbols, rng.randint(1, 4)) for _ in range(2))
        cases.append((lhs, rhs, symbols, cls, light))
    far, statuses = False, set()
    for seed, (lhs, rhs, signature, cls, bounds) in enumerate(cases):
        reduced, labelled, raw = both_sweeps(
            monkeypatch, lambda: equivalence_report(lhs, rhs, signature, cls, bounds, seed)
        )
        assert reduced == labelled, (lhs, rhs, cls)
        statuses.add(raw["equivalent"])
        for c in raw["coverage"]:
            filtered = c["mode"] == "exhaustive" and c["size"] > 1
            assert c["representatives"] < c["checked"] if filtered else c["representatives"] == c["checked"]
        last = raw["coverage"][-1]
        far |= not raw["equivalent"] and last["checked"] > checkers._CHUNK
    assert statuses == {True, False}
    assert far


@pytest.mark.parametrize(
    "check",
    [
        check_function_preserving,
        check_total_function_preserving,
        check_injective_function_preserving,
        check_forward,
        check_local,
        check_homomorphism_safe,
        check_subseteq_safe,
    ],
)
def test_checks_match_the_labelled_sweep(monkeypatch, check):
    rng = random.Random(f"orbit-{check.__name__}")
    symbols = ("R", "S") if check in (check_homomorphism_safe, check_subseteq_safe) else ("f", "g")
    # The injective pool at size 4 spans two runs; ⊆-safety sweeps all
    # eight runs of size 3.
    bounds = {
        check_injective_function_preserving: Bounds(max_size=4, samples=40),
        check_local: Bounds(max_size=4, samples=40, sample_size=6),
        check_subseteq_safe: Bounds(max_size=3, samples=20),
    }.get(check, Bounds(samples=60, sample_size=6))
    cases = [parse_term(THREE_CYCLE)] if check is check_subseteq_safe else []
    while len(cases) < 10:
        term = random_term(rng, CATALOGUE, symbols, rng.randint(2, 6))
        # Two symbols: the sweeps filter.
        if term_signature(term) == symbols:
            cases.append(term)
    statuses = set()
    for seed, term in enumerate(cases):
        reduced, labelled, _ = both_sweeps(monkeypatch, lambda: check(term, bounds, seed))
        assert reduced == labelled, term
        statuses.add(reduced["status"])
    assert statuses == {"pass-bounded", "fail"}
