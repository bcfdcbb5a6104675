"""Rank-bounded back-and-forth games."""

import random

import pytest

from relalg.games import (
    GameError,
    check_union_compatibility,
    ef_equiv,
    min_distinguishing_rank,
)
from relalg.logic import eval_formula, parse_formula
from relalg.structures import Structure, StructureClass, enumerate_structures, random_structure

LOOP = Structure(("a",), {"f": {("a", "a")}})
CHAIN = Structure(("a", "b"), {"f": {("a", "b")}})


def test_loop_versus_chain_needs_one_round():
    assert ef_equiv(LOOP, (), CHAIN, (), 0)
    assert not ef_equiv(LOOP, (), CHAIN, (), 1)
    assert min_distinguishing_rank(LOOP, CHAIN) == 1


def test_pebbled_positions():
    two = Structure(("a", "b"), {"f": {("a", "a"), ("a", "b")}})
    assert not ef_equiv(two, ("a",), two, ("b",), 0)
    assert ef_equiv(two, ("a",), two, ("a",), 4)
    assert min_distinguishing_rank(two, two, ("a",), ("b",)) == 0
    assert min_distinguishing_rank(two, two) is None


def test_equivalence_is_reflexive():
    rng = random.Random(7)
    for _ in range(15):
        s = random_structure(rng, rng.randint(1, 4), ("f", "g"))
        for rank in range(3):
            assert ef_equiv(s, (), s, (), rank)


def test_winning_persists_at_lower_ranks():
    rng = random.Random(8)
    seen = 0
    for _ in range(40):
        a = random_structure(rng, rng.randint(1, 3), ("f",))
        b = random_structure(rng, rng.randint(1, 3), ("f",))
        for rank in range(3):
            if ef_equiv(a, (), b, (), rank + 1):
                assert ef_equiv(a, (), b, (), rank)
                seen += 1
    assert seen > 0


def test_guards():
    with pytest.raises(GameError):
        ef_equiv(LOOP, (), CHAIN, (), 99)
    with pytest.raises(GameError):
        ef_equiv(LOOP, ("zzz",), CHAIN, ("a",), 1)
    with pytest.raises(GameError):
        ef_equiv(LOOP, ("a",), CHAIN, (), 1)
    mixed = Structure(("a",), {"h": {("a", "a")}})
    with pytest.raises(GameError):
        ef_equiv(LOOP, (), mixed, (), 1)
    big = Structure(tuple(f"e{i}" for i in range(65)), {"f": set()})
    with pytest.raises(GameError, match="game bound of 64"):
        ef_equiv(big, (), big, (), 1)
    with pytest.raises(GameError, match="max rank must be at least 0"):
        min_distinguishing_rank(LOOP, CHAIN, max_rank=-1)


def test_union_compatibility_sampler():
    report = check_union_compatibility(rank=2, samples=40, size=3, seed=3)
    assert report.premise_hits > 0
    assert report.skipped + report.premise_hits == 40
    assert report.passed
    assert report.violations == []
    doc = report.to_json()
    assert doc["rank"] == 2
    assert doc["premise_hits"] == report.premise_hits
    assert doc["game"] == "first-order rank"
    assert check_union_compatibility(samples=0).to_json()["samples"] == 0


@pytest.mark.parametrize(
    "field, value, least",
    [("samples", -5, 0), ("size", 0, 1), ("size", -2, 1), ("rank", -1, 0)],
)
def test_union_compatibility_refuses_bounds_that_cover_nothing(field, value, least):
    with pytest.raises(GameError, match=f"^{field} must be at least {least}, got {value}$"):
        check_union_compatibility(**{field: value})


def test_union_compatibility_refuses_a_negative_seed():
    # `random.Random` seeds -7 as it seeds 7, so the report would name a
    # seed it did not draw from.
    with pytest.raises(GameError, match="^seed must be at least 0, got -7$"):
        check_union_compatibility(rank=2, samples=20, size=3, seed=-7)


RANK2_SENTENCES = tuple(
    parse_formula(text)
    for text in (
        "exists x . f(x,x)",
        "exists x . (exists y . f(x,y))",
        "forall x . (exists y . f(x,y))",
        "exists x . (forall y . f(x,y))",
        "forall x . (forall y . (f(x,y) -> f(y,x)))",
    )
)


def test_rank_two_equivalence_matches_sentence_verdicts():
    small = list(enumerate_structures(("f",), 2, StructureClass.ALL))
    assert len(small) == 18
    for a in small:
        for b in small:
            if not ef_equiv(a, (), b, (), 2):
                continue
            for phi in RANK2_SENTENCES:
                assert eval_formula(phi, a) == eval_formula(phi, b), (a, b, phi)


def reference_ef_equiv(left, left_tuple, right, right_tuple, rank):
    """The game played on sets of element pairs, each position checked
    from scratch: the textbook definition `ef_equiv` must agree with."""

    def partial_iso(pairs):
        return all(
            (a == c) == (b == d)
            and all(((a, c) in left.relations[s]) == ((b, d) in right.relations[s]) for s in left.signature)
            for a, b in pairs
            for c, d in pairs
        )

    def play(pairs, r):
        if not partial_iso(pairs):
            return False
        return r == 0 or (
            all(any(play(pairs | {(a, b)}, r - 1) for b in right.domain) for a in left.domain)
            and all(any(play(pairs | {(a, b)}, r - 1) for a in left.domain) for b in right.domain)
        )

    return play(frozenset(zip(left_tuple, right_tuple)), rank)


def test_game_matches_the_pair_set_reference():
    rng = random.Random(11)
    agreed = won = 0
    for _ in range(400):
        signature = rng.choice([("f",), ("f", "g"), ("R", "S")])
        cls = rng.choice(list(StructureClass))
        left = random_structure(rng, rng.randint(1, 3), signature, cls)
        if rng.random() < 0.5:
            right = random_structure(rng, rng.randint(1, 3), signature, cls)
        else:
            # A renamed copy, so that the deeper ranks are won too.
            right = Structure(
                [f"{x}'" for x in left.domain],
                {s: {(f"{x}'", f"{y}'") for x, y in rel} for s, rel in left.relations.items()},
            )
        pebbles = rng.randint(0, 2)
        left_tuple = tuple(rng.choice(left.domain) for _ in range(pebbles))
        right_tuple = tuple(rng.choice(right.domain) for _ in range(pebbles))
        rank = rng.randint(0, 3)
        expected = reference_ef_equiv(left, left_tuple, right, right_tuple, rank)
        assert ef_equiv(left, left_tuple, right, right_tuple, rank) == expected
        agreed += 1
        won += expected
    assert agreed == 400 and 50 < won < 350
    empty = Structure((), {"f": set()})
    assert ef_equiv(empty, (), empty, (), 2)
    assert not ef_equiv(empty, (), LOOP, (), 1)
    assert not ef_equiv(LOOP, (), empty, (), 1)
