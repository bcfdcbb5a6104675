"""Term grammar, evaluation and the operation catalogue."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import closure_is_closed, enumerate_terms, naive_closure, uses_only

from relalg.constructions import build_separation
from relalg.parsing import ParseError
from relalg.structures import Structure, random_structure
from relalg.terms import (
    BASES,
    CATALOGUE,
    Term,
    TermError,
    eval_term,
    expand_injunion,
    load_terms,
    normalize_fp,
    parse_term,
    print_term,
    random_term,
    semantic_closure,
    simplify_term,
    subst_syms,
    sym,
    term_ops,
    term_signature,
    term_size,
)

S1 = Structure(("w", "x", "y", "z"), {"R": {("w", "x")}, "S": {("w", "z"), ("x", "y")}})


def ev(text, structure):
    return set(eval_term(parse_term(text), structure))


def test_catalogue_is_the_fourteen_operations():
    assert list(CATALOGUE) == [
        "id",
        "empty",
        "top",
        "complement",
        "converse",
        "dom",
        "ran",
        "antidom",
        "union",
        "inter",
        "diff",
        "compose",
        "semijoin",
        "prefunion",
    ]
    assert "injunion" not in CATALOGUE


def test_bases_cover_their_fragments():
    assert BASES["tra"] == frozenset(
        {"id", "empty", "complement", "inter", "compose", "converse"}
    )
    assert BASES["fa"] == frozenset(
        {
            "id",
            "empty",
            "dom",
            "ran",
            "antidom",
            "inter",
            "diff",
            "compose",
            "semijoin",
            "prefunion",
        }
    )
    assert BASES["forward"] == frozenset({"compose", "antidom", "inter", "prefunion"})
    assert "injunion" in BASES["injective"]


def test_eval_basic_operations():
    two = Structure(("a", "b"), {"R": {("a", "b")}})
    assert ev("R", two) == {("a", "b")}
    assert ev("R^", two) == {("b", "a")}
    assert ev("dom(R)", two) == {("a", "a")}
    assert ev("ran(R)", two) == {("b", "b")}
    assert ev("~R", two) == {("b", "b")}
    assert ev("-R", two) == {("a", "a"), ("b", "a"), ("b", "b")}
    assert ev("T", two) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
    assert ev("0", two) == set()
    assert ev("id", two) == {("a", "a"), ("b", "b")}
    assert ev("R ; R", two) == set()
    assert ev("R ; R^", two) == {("a", "a")}


def test_eval_preferential_union_prefers_the_left_row():
    # w has an R-image, so its S-pair loses; x has none, so its S-pair lands
    assert ev("R <+ S", S1) == {("w", "x"), ("x", "y")}
    assert ev("S <+ R", S1) == {("w", "z"), ("x", "y")}


def test_eval_semijoin_keeps_pairs_with_live_targets():
    assert ev("R |> S", S1) == {("w", "x")}
    assert ev("S |> R", S1) == set()


def test_eval_injective_union_hand_case():
    # f takes 1 -> 1; g adds 3 -> 4 and the blocked 2 -> 1. The forward
    # preference admits (2, 1); the backward pass removes it because 1
    # already has an f-preimage. What survives is {(1, 1), (3, 4)}.
    s = Structure(
        ("1", "2", "3", "4"),
        {"f": {("1", "1")}, "g": {("3", "4"), ("2", "1")}},
    )
    assert ev("f <# g", s) == {("1", "1"), ("3", "4")}


def test_parse_precedence_pins():
    assert print_term(parse_term("f ; g & h")) == "f ; g & h"
    assert parse_term("f ; g & h") == parse_term("(f ; g) & h")
    assert parse_term("f | g & h") == parse_term("f | (g & h)")
    assert parse_term("~f ; g") == parse_term("(~f) ; g")
    assert parse_term("f ; g^") == parse_term("f ; (g^)")
    assert parse_term("f <+ g | h") == parse_term("f <+ (g | h)")
    assert parse_term("f \\ g & h") == parse_term("(f \\ g) & h")
    assert parse_term("f ; g ; h") == parse_term("(f ; g) ; h")
    assert print_term(parse_term("(f | g) & h")) == "(f | g) & h"
    assert print_term(parse_term("f^^")) == "f^^"


def test_parse_rejects_garbage():
    for bad in ("f ;", "f ; ; g", "(f", "f)", "", "dom", "dom(f", "f ? g"):
        with pytest.raises(ParseError):
            parse_term(bad)


def test_parse_error_carries_position():
    try:
        parse_term("f ; (g &)")
    except ParseError as exc:
        assert exc.line == 1
        assert exc.column >= 8
    else:
        raise AssertionError("expected ParseError")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 17))
def test_print_parse_round_trip(seed, size):
    rng = random.Random(seed)
    t = random_term(rng, set(CATALOGUE) | {"injunion"}, ("f", "g"), size)
    assert parse_term(print_term(t)) == t


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_expand_injunion_preserves_meaning(seed):
    rng = random.Random(seed)
    t = random_term(rng, {"compose", "antidom", "inter", "converse", "injunion"},
                    ("f", "g"), rng.randint(1, 13))
    expanded = expand_injunion(t)
    assert "injunion" not in term_ops(expanded)
    s = random_structure(rng, rng.randint(1, 5), ("f", "g"))
    assert eval_term(expanded, s) == eval_term(t, s)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_simplify_preserves_meaning(seed):
    rng = random.Random(seed)
    t = random_term(rng, set(CATALOGUE), ("f", "g"), rng.randint(1, 15))
    simplified = simplify_term(t)
    assert term_size(simplified) <= term_size(t)
    for _ in range(3):
        s = random_structure(rng, rng.randint(1, 4), ("f", "g"))
        assert eval_term(simplified, s) == eval_term(t, s)


def test_normalize_fp_examples():
    s = Structure(("a", "b", "c"), {"f": {("a", "b")}, "g": {("a", "c")}})
    # f | g relates a to two places, so the trimmed term drops a's row
    assert eval_term(normalize_fp(parse_term("f | g")), s) == frozenset()
    one = Structure(("e",), {})
    assert eval_term(normalize_fp(parse_term("T")), one) == {("e", "e")}
    # on a plain function it changes nothing
    assert eval_term(normalize_fp(parse_term("f")), s) == {("a", "b")}


def test_enumerate_terms_smallest_first():
    listed = enumerate_terms({"compose"}, ("f",), 3)
    assert [print_term(t) for t in listed] == ["f", "f ; f"]
    fa_one = enumerate_terms(BASES["fa"], ("f", "g"), 1)
    assert [print_term(t) for t in fa_one] == ["f", "g", "id", "0"]
    bigger = enumerate_terms(BASES["forward"], ("f",), 5)
    sizes = [term_size(t) for t in bigger]
    assert sizes == sorted(sizes)
    assert len(set(bigger)) == len(bigger)


def test_random_term_respects_basis_and_size():
    rng = random.Random(11)
    for _ in range(40):
        t = random_term(rng, BASES["forward"], ("f", "g"), 9)
        assert term_size(t) == 9
        assert term_ops(t) <= BASES["forward"]
    with pytest.raises(TermError):
        random_term(rng, {"compose"}, (), 3)


def test_subst_and_signature():
    t = parse_term("f ; g")
    swapped = subst_syms(t, {"f": parse_term("g^"), "g": sym("f")})
    assert print_term(swapped) == "g^ ; f"
    assert term_signature(t) == ("f", "g")
    assert uses_only(t, {"compose"})
    assert not uses_only(t, {"inter"})


def test_semantic_closure_closes():
    edge = Structure(("a", "b"), {"f": {("a", "b")}})
    result = semantic_closure(edge, BASES["fa"])
    assert result.complete
    assert closure_is_closed(edge, result.relations, BASES["fa"])
    # generators come first and every reached relation carries a witness term
    assert result.order[0] == frozenset({("a", "b")})
    for rel, witness in result.relations.items():
        assert eval_term(witness, edge) == rel


def test_semantic_closure_refuses_what_is_not_an_operation():
    edge = Structure(("a", "b"), {"f": {("a", "b")}})
    with pytest.raises(TermError) as info:
        semantic_closure(edge, {"compose", "inter", "antidomm", "sym", "f"})
    assert str(info.value) == "unknown operations in basis: 'antidomm', 'f', 'sym'"


def test_semantic_closure_refuses_a_negative_budget():
    edge = Structure(("a", "b"), {"f": {("a", "b")}})
    with pytest.raises(TermError, match="budget must be at least 0, got -5"):
        semantic_closure(edge, {"compose"}, budget=-5)
    assert not semantic_closure(edge, {"compose"}, budget=0).complete


def assert_same_closure(structure, basis, symbols, budget):
    result = semantic_closure(structure, basis, symbols, budget)
    masks, complete, evaluations = naive_closure(structure, basis, symbols, budget)
    assert list(result.masks) == list(masks), budget
    assert all(result.masks[m] is masks[m] for m in masks), budget
    assert (result.complete, result.evaluations) == (complete, evaluations), budget
    return result


def test_semantic_closure_matches_the_naive_loop():
    # The budgets cut the separation closures between operations, inside a
    # row of a binary table, and not at all.  Under fa + converse, 50,000
    # cuts round 4's compose table (evaluations 42,754-61,523), the largest
    # table `BulkOps.grid` builds here; `naive_closure` composes pair by pair.
    structure = build_separation(2, 3).structure
    for basis in (BASES["fa"], BASES["fa"] | {"converse"}):
        for budget in (0, 1, 95, 96, 97, 636, 5_000, 50_000, 100_000):
            result = assert_same_closure(structure, basis, ("f", "g"), budget)
            assert result.order == [frozenset(r) for r in result.relations]
            assert len(result) == len(result.masks)
    rng = random.Random(31)
    s = random_structure(rng, 5, ("f", "g"))
    for budget in (40, 2_000, 20_000):
        assert not assert_same_closure(s, CATALOGUE, None, budget).complete


def test_closure_result_decodes_its_masks():
    edge = Structure(("a", "b"), {"f": {("a", "b")}})
    result = semantic_closure(edge, BASES["fa"])
    assert result.domain == ("a", "b")
    assert result.order == list(result.relations)
    assert frozenset({("a", "b")}) in result and {("b", "a")} not in result
    assert [("a", "c")] not in result


def test_load_terms(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("f ; g\n# comment\n\n~f <+ id\n")
    loaded = load_terms(path)
    assert [print_term(t) for t in loaded] == ["f ; g", "~f <+ id"]


def doubling(leaf, levels):
    t = leaf
    for _ in range(levels):
        t = Term("compose", (t, t))
    return t


def test_equality_is_linear_in_dag_size():
    import time

    # 60 levels of t ; t expand to a tree of 2^61 nodes and a 61-node DAG;
    # two separate builds give one object, so comparing them costs nothing.
    start = time.perf_counter()
    assert doubling(sym("f"), 60) is doubling(sym("f"), 60)
    assert time.perf_counter() - start < 1.0
    # A difference at the deepest leaf alone gives a different object.
    deep_f, deep_g = doubling(sym("f"), 60), doubling(sym("g"), 60)
    assert deep_f is not deep_g
    assert deep_f != deep_g


def test_terms_are_interned():
    rng = random.Random(8)
    for basis in BASES.values():
        for _ in range(30):
            t = random_term(rng, basis, ("f", "g"), rng.randint(1, 15))
            assert parse_term(print_term(t)) is t
            # The rebuilders return their input when nothing changes.
            assert subst_syms(t, {"h": sym("f")}) is t
            if "injunion" not in term_ops(t):
                assert expand_injunion(t) is t
            simplified = simplify_term(t)
            assert simplify_term(simplified) is simplified
    assert simplify_term(parse_term("f ; g & g")) is parse_term("f ; g & g")


def test_pickle_and_copy_return_the_interned_node():
    import copy
    import pickle

    t = parse_term("f ; g")
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    nested = parse_term("(f <+ ~g) <# g^")
    back = pickle.loads(pickle.dumps([nested, nested]))
    assert back[0] is back[1] is nested


def test_hash_is_structural_across_lifetimes():
    import gc
    import weakref

    # Symbol names no other test builds, so nothing else keeps the node alive.
    text = "(lifetime_f ; lifetime_g) <+ ~lifetime_f"
    t = parse_term(text)
    first_hash = hash(t)
    ref = weakref.ref(t)
    del t
    gc.collect()
    # The intern table holds terms weakly.
    assert ref() is None
    assert hash(parse_term(text)) == first_hash


def test_symbol_names_must_read_back_from_term_text():
    # T, id, dom and ran read back as constants or operators; the others are
    # not one name token.
    for name in ("T", "id", "dom", "ran", "a b", "0", "", " f", "f;g"):
        with pytest.raises(TermError):
            sym(name)
    for name in ("f", "R_1", "_x", "exists", "Top"):
        assert parse_term(print_term(sym(name))) is sym(name)
