"""Three-variable formulas: parsing, evaluation, and the term encoding."""

import random

import numpy as np
import pytest

from relalg.logic import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Implies,
    LogicError,
    Not,
    Or,
    Truth,
    classify,
    define_relation,
    eval_formula,
    formula_tensor,
    free_vars,
    parse_formula,
    print_formula,
    term_to_fo3,
)
from relalg.parsing import ParseError
from relalg.structures import Structure, enumerate_structures, random_structure
from relalg.terms import CATALOGUE, eval_term, parse_term

EDGE = Structure(("a", "b"), {"R": {("a", "b")}, "S": {("b", "b")}})


def test_parse_builds_the_expected_tree():
    phi = parse_formula("exists z . (R(x,z) & S(z,y))")
    assert isinstance(phi, Exists)
    assert phi.var == "z"
    assert isinstance(phi.body, And)
    assert phi.body.left == Atom("R", "x", "z")
    assert phi.body.right == Atom("S", "z", "y")


def test_quantifier_requires_dot():
    with pytest.raises(ParseError):
        parse_formula("exists z R(x,z)")
    with pytest.raises(ParseError):
        parse_formula("forall R(x,y)")


def test_print_round_trips():
    texts = (
        "exists z. R(x,z) & S(z,y)",
        "forall v. R(x,v) -> (v = y | S(v,v))",
        "!R(x,y) & x = y",
        "R(x,y) -> S(x,y) -> x = y",
        "true | false",
    )
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(print_formula(phi)) == phi


def test_implication_is_right_associative():
    phi = parse_formula("R(x,y) -> S(x,y) -> x = y")
    assert print_formula(phi) == print_formula(
        parse_formula("R(x,y) -> (S(x,y) -> x = y)")
    )


def test_quantifier_body_swallows_the_rest():
    inside = parse_formula("(exists z. R(x,z) & S(z,y))")
    assert isinstance(inside, Exists)
    assert isinstance(inside.body, And)


def test_eval_formula_cases():
    assert eval_formula(parse_formula("R(x,y)"), EDGE, {"x": "a", "y": "b"})
    assert not eval_formula(parse_formula("R(x,y)"), EDGE, {"x": "b", "y": "a"})
    assert eval_formula(parse_formula("exists z. R(x,z) & S(z,z)"), EDGE, {"x": "a"})
    assert eval_formula(parse_formula("forall v. R(v,v) -> false"), EDGE, {})
    assert eval_formula(parse_formula("x = x"), EDGE, {"x": "a"})
    with pytest.raises(LogicError):
        eval_formula(parse_formula("R(x,y)"), EDGE, {"x": "a"})


def test_free_vars_and_classify():
    phi = parse_formula("exists z. R(x,z) & S(z,y)")
    assert free_vars(phi) == {"x", "y"}
    info = classify(phi)
    assert info.is_posex
    assert info.symbols == ("R", "S")
    assert info.variable_count == 3
    assert info.free == {"x", "y"}
    negative = classify(parse_formula("!R(x,y)"))
    assert not negative.is_posex
    universal = classify(parse_formula("forall v. R(x,v)"))
    assert not universal.is_posex


def test_define_relation():
    phi = parse_formula("exists z. R(x,z) & S(z,y)")
    rel = define_relation(phi, "x", "y", EDGE)
    assert rel == frozenset({("a", "b")})
    with pytest.raises(LogicError):
        define_relation(parse_formula("R(x,x)"), "x", "y", EDGE)
    padded = define_relation(parse_formula("R(x,x)"), "x", "y", EDGE, pad_missing=True)
    assert padded == frozenset()
    loops = define_relation(parse_formula("S(x,x)"), "x", "y", EDGE, pad_missing=True)
    assert loops == frozenset({("b", "a"), ("b", "b")})


def test_term_to_fo3_agrees_with_eval_on_every_operation():
    # the catalogue spelled as concrete terms over R and S
    terms = [
        "id", "0", "T", "-R", "R^", "dom(R)", "ran(R)", "~R",
        "R | S", "R & S", "R \\ S", "R ; S", "R |> S", "R <+ S",
    ]
    assert len(terms) == len(CATALOGUE)
    for text in terms:
        t = parse_term(text)
        phi = term_to_fo3(t)
        assert free_vars(phi) <= {"x", "y"}
        for s in enumerate_structures(("R", "S"), 2):
            direct = eval_term(t, s)
            via_logic = define_relation(phi, "x", "y", s, pad_missing=True)
            assert direct == via_logic, (text, s)


def test_term_to_fo3_uses_three_variables():
    phi = term_to_fo3(parse_term("R ; S ; R"))
    names = set()

    def walk(node):
        if hasattr(node, "var"):
            names.add(node.var)
            walk(node.body)
        for attr in ("left", "right", "body", "inner"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, str):
                walk(child)

    walk(phi)
    assert len(names | free_vars(phi)) <= 3


# --- the formula-table evaluator against the Tarskian oracle ----------------------

VARIABLES = ("x", "y", "z")


def random_formula(rng, depth, quantifiers):
    """Any connective or quantifier, at most `quantifiers` of them nested."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.randrange(5)
        if kind < 3:
            return Atom(rng.choice("RS"), rng.choice(VARIABLES), rng.choice(VARIABLES))
        if kind == 3:
            return Eq(rng.choice(VARIABLES), rng.choice(VARIABLES))
        return Truth(rng.random() < 0.5)
    kinds = ["not", "and", "or", "implies"] + ["exists", "forall"] * (quantifiers > 0)
    kind = rng.choice(kinds)
    if kind == "not":
        return Not(random_formula(rng, depth - 1, quantifiers))
    if kind in ("exists", "forall"):
        body = random_formula(rng, depth - 1, quantifiers - 1)
        node = Exists if kind == "exists" else Forall
        return node(rng.choice(VARIABLES), body)
    left = random_formula(rng, depth - 1, quantifiers)
    right = random_formula(rng, depth - 1, quantifiers)
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def close_over(rng, phi, names):
    for v in names:
        if v in free_vars(phi):
            phi = (Exists if rng.random() < 0.5 else Forall)(v, phi)
    return phi


def tarskian_relation(phi, x, y, structure):
    dom = structure.domain
    return frozenset(
        (a, b)
        for a in dom
        for b in dom
        if (x != y or a == b) and eval_formula(phi, structure, {x: a, y: b})
    )


FIXED_FORMULAS = (
    "forall z. R(x,z) -> !S(z,y)",
    "!(exists z. R(y,z)) | x = y",
    "forall x. exists z. R(x,z) & S(z,y)",
    "R(x,x) -> forall z. S(z,z)",
    "exists z. true",
)


def test_define_relation_agrees_with_eval_formula():
    rng = random.Random(20230508)
    formulas = [parse_formula(text) for text in FIXED_FORMULAS]
    formulas += [random_formula(rng, 4, 2) for _ in range(150)]
    for i, raw in enumerate(formulas):
        phi = close_over(rng, raw, ("z",))
        for size in (i % 13, rng.randint(0, 4)):
            s = random_structure(rng, size, ("R", "S"))
            for x, y in (("x", "y"), ("y", "x")):
                got = define_relation(phi, x, y, s, pad_missing=True)
                assert got == tarskian_relation(phi, x, y, s), (print_formula(phi), x, size)
            if free_vars(phi) == {"x", "y"}:
                assert define_relation(phi, "y", "x", s) == tarskian_relation(phi, "y", "x", s)
            else:
                with pytest.raises(LogicError):
                    define_relation(phi, "x", "y", s)
            unary = close_over(rng, phi, ("y",))
            got = define_relation(unary, "x", "x", s, pad_missing=True)
            assert got == tarskian_relation(unary, "x", "x", s), print_formula(unary)
            if free_vars(unary) == {"x"}:
                assert define_relation(unary, "x", "x", s) == got
            else:
                with pytest.raises(LogicError):
                    define_relation(unary, "x", "x", s)
    with pytest.raises(LogicError):
        define_relation(parse_formula("R(x,w)"), "x", "y", EDGE, pad_missing=True)


def test_formula_tensor_keeps_empty_domain_semantics():
    def none(name):
        return np.zeros((1, 0, 0), dtype=np.uint64)

    for text in ("exists v. true", "forall v. false", "exists v. R(v,v)",
                 "forall v. R(v,v)", "!(exists v. v = v)", "true"):
        phi = parse_formula(text)
        variables, tensor = formula_tensor(phi, 0, 1, none)
        assert variables == ()
        assert bool(tensor[0]) == eval_formula(phi, Structure((), {"R": ()})), text
