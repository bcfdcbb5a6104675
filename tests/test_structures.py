"""Structure container, enumeration and isomorphism checks."""

import json
import random
import time

import numpy as np
import pytest
from reference import (
    brute_force_isomorphism,
    generated_substructure,
    is_injective_partial_function,
    is_isomorphism,
    is_partial_function,
    is_total_function,
)

from relalg.structures import (
    Structure,
    StructureClass,
    StructureError,
    ball,
    count_structures,
    disjoint_union,
    enumerate_structures,
    homomorphisms,
    induced,
    is_homomorphism,
    isomorphism,
    masks_to_structure,
    random_structure,
    structure_from_index,
    structure_from_json,
    structure_to_json,
)

ALL = StructureClass.ALL
PF = StructureClass.PARTIAL_FUNCTIONS
TF = StructureClass.TOTAL_FUNCTIONS
IPF = StructureClass.INJECTIVE_PARTIAL_FUNCTIONS


def test_structure_normalizes_and_hashes():
    a = Structure(["b", "a"], {"f": [("a", "b")]})
    b = Structure(("a", "b"), {"f": {("a", "b")}})
    assert a == b
    assert hash(a) == hash(b)
    assert a.domain == ("a", "b")
    assert a.relations["f"] == frozenset({("a", "b")})


def test_structure_rejects_foreign_pairs():
    with pytest.raises(StructureError):
        Structure(("a",), {"f": {("a", "zzz")}})
    # duplicate names collapse rather than erroring
    assert Structure(("a", "a"), {}).domain == ("a",)


def test_relation_predicates():
    s = Structure(("a", "b"), {"f": {("a", "b")}, "g": {("a", "a"), ("a", "b")}})
    assert is_partial_function(s.relations["f"])
    assert not is_partial_function(s.relations["g"])
    assert not is_total_function(s.relations["f"], s.domain)
    assert is_total_function(frozenset({("a", "a"), ("b", "a")}), s.domain)
    assert is_injective_partial_function(s.relations["f"])
    assert not is_injective_partial_function(frozenset({("a", "a"), ("b", "a")}))


def test_induced_and_ball():
    chain = Structure(
        ("a", "b", "c", "d"),
        {"f": {("a", "b"), ("b", "c"), ("c", "d")}},
    )
    sub = induced(chain, ("a", "b"))
    assert sub.domain == ("a", "b")
    assert sub.relations["f"] == frozenset({("a", "b")})
    fwd = ball(chain, "a", 2, "forward")
    assert set(fwd.domain) == {"a", "b", "c"}
    undirected = ball(chain, "c", 1, "undirected")
    assert set(undirected.domain) == {"b", "c", "d"}
    gen = generated_substructure(chain, "b")
    assert set(gen.domain) == {"b", "c", "d"}


def test_disjoint_union_prefixes():
    left = Structure(("a",), {"f": {("a", "a")}})
    right = Structure(("a", "b"), {"f": {("a", "b")}})
    u = disjoint_union(left, right)
    assert len(u.domain) == 3
    assert ("L:a", "L:a") in u.relations["f"]
    assert ("R:a", "R:b") in u.relations["f"]


def test_homomorphisms_of_one_edge():
    edge = Structure(("a", "b"), {"f": {("a", "b")}})
    loop = Structure(("x",), {"f": {("x", "x")}})
    maps = homomorphisms(edge, loop)
    assert maps == [{"a": "x", "b": "x"}]
    assert is_homomorphism(edge, loop, maps[0])
    assert homomorphisms(loop, edge) == []


def test_isomorphism_respects_anchors():
    c2 = Structure(("a", "b"), {"f": {("a", "b"), ("b", "a")}})
    assert isomorphism(c2, ("a",), c2, ("b",)) is not None
    asym = Structure(("a", "b"), {"f": {("a", "b")}})
    assert isomorphism(asym, ("a",), asym, ("b",)) is None
    assert isomorphism(c2, (), asym, ()) is None
    c3 = Structure(("a", "b", "c"), {"f": {("a", "b"), ("b", "c"), ("c", "a")}})
    assert isomorphism(c3, ("a", "a"), c3, ("b", "b")) == {"a": "b", "b": "c", "c": "a"}
    assert isomorphism(c3, ("a", "a"), c3, ("b", "c")) is None
    assert isomorphism(c3, ("a", "b"), c3, ("a", "a")) is None
    with pytest.raises(StructureError):
        isomorphism(c3, ("a",), None, ("a",))
    with pytest.raises(StructureError):
        isomorphism(c3, ("a",), c3, ())
    with pytest.raises(StructureError):
        isomorphism(c3, ("z",), c3, ("a",))


def relabelled(structure, rng):
    """A copy of the structure under a random renaming of its elements, and
    the renaming."""
    image = list(structure.domain)
    rng.shuffle(image)
    rename = dict(zip(structure.domain, image))
    rels = {n: {(rename[a], rename[b]) for a, b in r} for n, r in structure.relations.items()}
    return Structure(tuple(image), rels), rename


def iso_pair(rng):
    """A seeded (left, anchors, right, anchors) case: any class, sparse
    non-functional relations, loops, copies with one pair moved, repeated
    and conflicting anchors, and size, signature and relation-size
    mismatches."""
    size = rng.randint(0, 6)
    signature = rng.choice((("f",), ("f", "g")))
    cls = rng.choice(list(StructureClass))
    left = random_structure(rng, size, signature, cls)
    if rng.random() < 0.2:
        # Two partial functions as one relation: sparse, with branching and loops.
        pair = random_structure(rng, size, ("f", "g"), PF)
        left = Structure(left.domain, {**left.relations, "f": pair.rel("f") | pair.rel("g")})
    kind = rng.random()
    if kind < 0.4:
        right, rename = relabelled(left, rng)
    elif kind < 0.6:
        # One pair moved: the relation sizes still agree.
        rel = left.rel("f")
        free = [(a, b) for a in left.domain for b in left.domain if (a, b) not in rel]
        if rel and free:
            rel = rel - {rng.choice(sorted(rel))} | {rng.choice(free)}
        right, rename = relabelled(Structure(left.domain, {**left.relations, "f": rel}), rng)
    elif kind < 0.8:
        right, rename = random_structure(rng, size, signature, cls), None
    elif kind < 0.9:
        right, rename = random_structure(rng, abs(size + rng.choice((-1, 1))), signature, cls), None
    else:
        other = "g" if signature == ("f",) else "h"
        right, rename = relabelled(left, rng)
        right = Structure(right.domain, {**right.relations, other: set()})
    anchors = [rng.choice(left.domain) for _ in range(rng.randint(0, 2) if size else 0)]
    if rng.random() < 0.2 and anchors:
        anchors.append(anchors[0])
    if rename is not None and rng.random() < 0.7:
        images = [rename[a] for a in anchors]
    else:
        images = [rng.choice(right.domain) for _ in anchors] if right.domain else []
    return left, anchors[: len(images)], right, images


# Equal relation sizes, one pair moved: a search that checked only the pairs
# from later-matched elements to earlier ones would accept this.
MOVED_BASE = {("e1", "e2"), ("e2", "e1"), ("e2", "e2"), ("e2", "e4"), ("e3", "e4"), ("e4", "e3")}
MOVED_PAIR = (
    Structure(("e1", "e2", "e3", "e4"), {"f": MOVED_BASE | {("e1", "e4")}}),
    (),
    Structure(("e1", "e2", "e3", "e4"), {"f": MOVED_BASE | {("e1", "e3")}}),
    (),
)


def test_isomorphism_agrees_with_the_permutation_search():
    rng = random.Random(14)
    found = 0
    empty = Structure((), {})
    fixed = [MOVED_PAIR, (empty, (), empty, ())]
    for case in [*fixed, *(iso_pair(rng) for _ in range(3000))]:
        left, al, right, ar = case
        got = isomorphism(left, al, right, ar)
        want = brute_force_isomorphism(left, al, right, ar)
        assert (got is None) == (want is None), (left, al, right, ar)
        if got is not None:
            assert is_isomorphism(left, al, right, ar, got)
            found += 1
    assert 600 < found < 2400


def test_lasso_isomorphism_is_fast_and_sees_one_moved_edge():
    from relalg.constructions import build_lasso

    lasso, anchor = build_lasso(60, 30)
    assert lasso.size() == 92
    rng = random.Random(3)
    copy, rename = relabelled(lasso, rng)
    # The back edge b60 -> b90 moved to b60 -> b89: b90 loses its only R2
    # predecessor, so the copy is not isomorphic to the lasso.
    assert ("b60", "b90") in lasso.rel("R2")
    r2 = lasso.rel("R2") - {("b60", "b90")} | {("b60", "b89")}
    moved, moved_rename = relabelled(Structure(lasso.domain, {**lasso.relations, "R2": r2}), rng)
    for right, image, isomorphic in ((copy, rename, True), (moved, moved_rename, False)):
        for anchors in ((), (anchor,)):
            started = time.perf_counter()
            got = isomorphism(lasso, anchors, right, [image[a] for a in anchors])
            assert time.perf_counter() - started < 1.0
            assert (got is not None) == isomorphic
            if isomorphic:
                assert is_isomorphism(lasso, anchors, right, [image[a] for a in anchors], got)


def test_enumeration_counts_cumulative_size_2():
    sig = ("f",)
    assert sum(1 for _ in enumerate_structures(sig, 2, ALL)) == 18
    assert sum(1 for _ in enumerate_structures(sig, 2, PF)) == 11
    assert sum(1 for _ in enumerate_structures(sig, 2, TF)) == 5
    assert sum(1 for _ in enumerate_structures(sig, 2, IPF)) == 9


def test_enumeration_counts_match_formulas():
    # one symbol, exact size 4: all 2^16, partial functions 5^4,
    # injective partial functions counted by binomial sums
    assert count_structures(("f",), 4, ALL) == 65536
    assert count_structures(("f",), 4, PF) == 625
    assert count_structures(("f", "g"), 4, PF) == 390625
    assert count_structures(("f",), 4, IPF) == 209
    assert count_structures(("f",), 4, TF) == 256


def test_injective_count_is_closed_form():
    from relalg.structures import injective_codes

    assert [count_structures(("f",), k, IPF) for k in range(7)] == [
        1, 2, 7, 34, 209, 1546, 13327,
    ]
    for k in range(6):
        assert count_structures(("f",), k, IPF) == len(injective_codes(k))


def test_injective_count_builds_no_code_table():
    from relalg.structures import injective_codes

    injective_codes.cache_clear()
    assert count_structures(("f", "g"), 8, IPF) == 1441729**2  # OEIS A002720
    assert injective_codes.cache_info().currsize == 0


def reference_function_code_pairs(code, size, base):
    """The digit-by-digit function-code decoder: with base size + 1 a digit
    of 0 means "undefined" and digit d an edge to e_d; with base size digit
    d is an edge to e_(d+1)."""
    dom = tuple(f"e{i}" for i in range(1, size + 1))
    pairs = set()
    for p in range(size):
        digit = code // (base ** p) % base
        if base == size + 1:
            if digit > 0:
                pairs.add((dom[p], dom[digit - 1]))
        else:
            pairs.add((dom[p], dom[digit]))
    return frozenset(pairs)


def test_function_codes_decode_as_the_digit_reference():
    from relalg.structures import injective_codes, space_size

    def reference(size, cls, index):
        if cls is TF:
            pairs = reference_function_code_pairs(index, size, size)
        else:
            code = injective_codes(size)[index] if cls is IPF else index
            pairs = reference_function_code_pairs(code, size, size + 1)
        return Structure(tuple(f"e{i}" for i in range(1, size + 1)), {"f": pairs})

    for cls in (PF, TF, IPF):
        for size in range(5):
            for index in range(space_size(size, cls)):
                assert structure_from_index(("f",), size, cls, index) == reference(
                    size, cls, index
                ), (cls, size, index)
    # Past nine elements the digits still follow e1..ek in numeric order.
    # The injective code table at these sizes has billions of entries.
    rng = random.Random(17)
    for cls in (PF, TF):
        for size in (9, 10, 11):
            for _ in range(50):
                index = rng.randrange(space_size(size, cls))
                assert structure_from_index(("f",), size, cls, index) == reference(
                    size, cls, index
                ), (cls, size, index)
    for k in range(7):
        assert injective_codes(k) == tuple(
            code
            for code in range((k + 1) ** k)
            if is_injective_partial_function(reference_function_code_pairs(code, k, k + 1))
        )


def digit_decoder_masks(index, size, cls, symbols):
    """The decoder the codec replaced: each symbol's code split into digits,
    each digit placed by its own shift."""
    from relalg.structures import injective_codes, space_size

    ordered = sorted(symbols)
    per = space_size(size, cls)
    masks = {}
    for pos, name in enumerate(ordered):
        code = index // per ** (len(ordered) - 1 - pos) % per
        if cls is ALL:
            masks[name] = code
            continue
        if cls is IPF:
            code = injective_codes(size)[code]
        partial = cls is not TF
        digits = [code // (size + partial) ** p % (size + partial) for p in range(size)]
        mask = 0
        for p, digit in enumerate(digits):
            mask |= (1 << digit >> partial) << p * size
        masks[name] = mask
    return masks


def test_codec_int_and_uint64_paths_agree_with_the_digit_decoder():

    from relalg.structures import decode_symbol_masks, space_size

    for cls in StructureClass:
        for symbols in (("f",), ("g", "f")):
            for size in range(5 if len(symbols) == 1 else 3):
                total = space_size(size, cls) ** len(symbols)
                want = [digit_decoder_masks(i, size, cls, symbols) for i in range(total)]
                got = [decode_symbol_masks(i, size, cls, symbols) for i in range(total)]
                assert got == want, (cls, symbols, size)
                assert all(type(m) is int for masks in got for m in masks.values())
                if size:
                    batch = decode_symbol_masks(
                        np.arange(total, dtype=np.uint64), size, cls, symbols
                    )
                    for name in symbols:
                        assert batch[name].dtype == np.uint64
                        assert batch[name].tolist() == [m[name] for m in want], (cls, size)
    # Past eight elements only the int path applies, and past nine the
    # function codes' e1..ek order is not the string-sorted one.  The
    # injective code table at these sizes has billions of entries.
    rng = random.Random(23)
    for cls in (ALL, PF, TF):
        for size in (9, 10, 11):
            for _ in range(40):
                index = rng.randrange(space_size(size, cls) ** 2)
                want = digit_decoder_masks(index, size, cls, ("f", "g"))
                assert decode_symbol_masks(index, size, cls, ("f", "g")) == want


def test_injective_decoding_agrees_on_both_routes_at_eight_elements():

    from relalg.structures import decode_symbol_masks, space_size

    rng = random.Random(29)
    total = space_size(8, IPF) ** 2
    indices = [0, total - 1] + [rng.randrange(total) for _ in range(200)]
    for _ in range(2):  # the second call reads the cached code table
        batch = decode_symbol_masks(np.array(indices, dtype=np.uint64), 8, IPF, ("f", "g"))
        for name in ("f", "g"):
            want = [decode_symbol_masks(i, 8, IPF, ("f", "g"))[name] for i in indices]
            assert batch[name].tolist() == want


def test_mask_decoding_matches_bit_layout():
    from relalg.structures import _domain_of, _mask_pairs

    rng = random.Random(3)
    for k in range(0, 13):
        mask = rng.getrandbits(k * k) if k else 0
        expected = {
            (f"e{i + 1}", f"e{j + 1}")
            for i in range(k)
            for j in range(k)
            if mask >> (i * k + j) & 1
        }
        assert _mask_pairs(mask, _domain_of(k)) == expected


def test_masks_round_trip_past_nine_elements():
    # From 10 elements on, a Structure's string-sorted domain (e1, e10, e2, ...)
    # is not e1..ek in numeric order; encoding and decoding must both follow it.
    rng = random.Random(5)
    for k in range(1, 13):
        s = random_structure(k, k, ("f", "g"))
        assert masks_to_structure(s.masks, k) == s
        code = rng.getrandbits(k * k)
        assert structure_from_index(("f",), k, ALL, code).masks["f"] == code


def test_enumeration_agrees_with_indexing():
    sig = ("f", "g")
    listed = list(enumerate_structures(sig, 2, PF))
    assert len(listed) == count_structures(sig, 1, PF) + count_structures(sig, 2, PF)
    # every listed structure is reproducible from its index
    offset = 0
    for size in (1, 2):
        total = count_structures(sig, size, PF)
        for index in range(total):
            assert listed[offset + index] == structure_from_index(sig, size, PF, index)
        offset += total


def test_class_membership_on_masks_matches_the_pair_predicates():
    from relalg.structures import _domain_of, _mask_pairs

    for k in range(4):
        dom = _domain_of(k)
        expected = {cls: [] for cls in (ALL, PF, TF, IPF)}
        for mask in range(1 << (k * k)):
            rel = _mask_pairs(mask, dom)
            expected[ALL].append(True)
            expected[PF].append(is_partial_function(rel))
            expected[TF].append(is_total_function(rel, dom))
            expected[IPF].append(is_injective_partial_function(rel))
            for cls, answers in expected.items():
                assert cls.contains(mask, k) == answers[-1], (cls, k, mask)
        if k:
            # The same masks as one uint64 batch, a bool per mask.
            batch = np.arange(1 << (k * k), dtype=np.uint64)
            for cls, answers in expected.items():
                got = cls.contains(batch, k)
                assert got.dtype == bool and got.tolist() == answers, (cls, k)


def test_enumerated_structures_lie_in_their_class():
    for cls, pred in ((PF, is_partial_function), (IPF, is_injective_partial_function)):
        for s in enumerate_structures(("f",), 3, cls):
            assert pred(s.relations["f"]), (cls, s)


def test_random_structures_lie_in_their_class():
    rng = random.Random(5)
    for _ in range(50):
        size = rng.randint(1, 6)
        s = random_structure(rng, size, ("f", "g"), PF)
        assert all(is_partial_function(r) for r in s.relations.values())
        t = random_structure(rng, size, ("f",), TF)
        assert is_total_function(t.relations["f"], t.domain)
        u = random_structure(rng, size, ("f",), IPF)
        assert is_injective_partial_function(u.relations["f"])


def test_random_structure_is_seed_deterministic():
    assert random_structure(33, 4, ("f",)) == random_structure(33, 4, ("f",))


def test_json_round_trip():
    s = Structure(("a", "b"), {"f": {("a", "b")}, "g": set()})
    doc = structure_to_json(s)
    assert structure_from_json(json.loads(json.dumps(doc))) == s
    with pytest.raises(StructureError):
        structure_from_json({"domain": ["a"], "relations": {"f": [["a", "b", "c"]]}})


def reference_random_structure(rng, size, signature, cls):
    """The generator as it stood before draws became masks: pairs built
    straight from the stream."""
    dom = tuple(f"e{i}" for i in range(1, size + 1))
    rels = {}
    for name in sorted(signature):
        if cls is ALL:
            mask = rng.getrandbits(size * size) if size else 0
            rels[name] = {
                (dom[p // size], dom[p % size]) for p in range(size * size) if mask >> p & 1
            }
        elif cls is PF:
            pairs = set()
            for p in range(size):
                digit = rng.randrange(size + 1)
                if digit:
                    pairs.add((dom[p], dom[digit - 1]))
            rels[name] = pairs
        elif cls is TF:
            rels[name] = {(dom[p], dom[rng.randrange(size)]) for p in range(size)}
        else:
            targets = list(dom)
            rng.shuffle(targets)
            rels[name] = {(dom[p], targets[p]) for p in range(size) if rng.random() < 0.5}
    return Structure(dom, rels)


def test_random_structure_keeps_its_stream():
    from relalg.structures import drawn_structure, random_masks

    for cls in StructureClass:
        for size in range(0, 13):
            for seed in range(8):
                old, new, masks = (random.Random(seed) for _ in range(3))
                want = reference_random_structure(old, size, ("f", "g"), cls)
                assert random_structure(new, size, ("f", "g"), cls) == want
                assert drawn_structure(random_masks(masks, size, ("g", "f"), cls), size) == want
                assert old.getstate() == new.getstate() == masks.getstate()
