"""Word-type enumeration and term synthesis from black-box oracles."""

import gc
import json
import random
import weakref

import pytest
from reference import scalar_probe_failure, scalar_probe_rows

from relalg import bulk, synth
from relalg.checkers import Bounds, EquivalenceReport
from relalg.structures import StructureClass, enumerate_structures, random_structure
from relalg.synth import (
    SynthesisError,
    characteristic_term,
    enumerate_types,
    estimate_radius,
    neighborhood_type,
    realization,
    synthesize_forward,
    synthesize_local_injective,
    type_letters,
    validate_synthesis,
)
from relalg.terms import eval_term, iter_nodes, parse_term, term_ops, term_size

PF = StructureClass.PARTIAL_FUNCTIONS
IPF = StructureClass.INJECTIVE_PARTIAL_FUNCTIONS

FORWARD_OPS = {"sym", "compose", "antidom", "inter", "prefunion"}
ORIENTED_OPS = FORWARD_OPS | {"converse", "injunion"}


def brute_force_types(signature, radius, oriented, max_size):
    cls = IPF if oriented else PF
    found = set()
    for s in enumerate_structures(signature, max_size, cls):
        for root in s.domain:
            found.add(neighborhood_type(s, root, radius, oriented))
    return found


def test_letter_order():
    assert type_letters(("g", "f"), False) == (("f", False), ("g", False))
    assert type_letters(("f",), True) == (("f", False), ("f", True))
    t = enumerate_types(("g", "f"), 1, oriented=True)[5]
    assert t.letters is t.letters == type_letters(("f", "g"), True)


def test_type_counts_forward():
    assert len(enumerate_types(("f",), 0)) == 1
    assert len(enumerate_types(("f",), 1)) == 3
    assert len(enumerate_types(("f",), 2)) == 6
    assert len(enumerate_types(("f", "g"), 1)) == 10
    assert len(enumerate_types(("f", "g"), 2)) == 888


def test_type_counts_oriented():
    assert len(enumerate_types(("f",), 1, oriented=True)) == 6
    assert len(enumerate_types(("f",), 2, oriented=True)) == 13
    assert len(enumerate_types(("f", "g"), 1, oriented=True)) == 63


def test_enumeration_matches_brute_force_forward():
    # realizations for these parameters never exceed three elements, so
    # sweeping every small structure recovers the full type inventory
    for signature, radius in ((("f",), 1), (("f",), 2), (("f", "g"), 1)):
        enumerated = set(enumerate_types(signature, radius))
        assert enumerated == brute_force_types(signature, radius, False, 3)


def test_enumeration_matches_brute_force_oriented():
    enumerated = set(enumerate_types(("f",), 1, oriented=True))
    assert enumerated == brute_force_types(("f",), 1, True, 3)
    deeper = set(enumerate_types(("f",), 2, oriented=True))
    assert deeper == brute_force_types(("f",), 2, True, 5)


def test_enumeration_budget_guard():
    with pytest.raises(SynthesisError):
        enumerate_types(("f", "g"), 2, oriented=True, budget=500)


def test_realization_round_trips_every_type():
    for oriented in (False, True):
        for t in enumerate_types(("f", "g"), 1, oriented):
            s, root = realization(t)
            assert neighborhood_type(s, root, t.radius, oriented) == t


def test_types_ignore_structure_beyond_the_ball():
    rng = random.Random(40)
    for _ in range(30):
        s = random_structure(rng, rng.randint(2, 5), ("f", "g"), PF)
        root = rng.choice(s.domain)
        t = neighborhood_type(s, root, 1)
        again = neighborhood_type(s, root, 1)
        assert t == again
        big, anchor = realization(t)
        assert neighborhood_type(big, anchor, 1) == t


def test_characteristic_terms_classify_small_structures():
    types = enumerate_types(("f",), 1)
    chis = {t: characteristic_term(t) for t in types}
    for s in enumerate_structures(("f",), 3, PF):
        for x in s.domain:
            mine = neighborhood_type(s, x, 1)
            for t, chi in chis.items():
                member = (x, x) in eval_term(chi, s)
                assert member == (t == mine), (s, x, t)


def test_synthesize_dom():
    oracle = parse_term("dom(f)")
    result = synthesize_forward(oracle, 1)
    assert result.types_considered == 3
    assert result.positive == 2
    assert term_size(result.term) == 3
    assert term_ops(result.term) <= FORWARD_OPS
    report = validate_synthesis(result, oracle, bounds=Bounds(max_size=3, samples=80))
    assert report.equivalent


def test_synthesize_intersection_of_two_letters():
    oracle = parse_term("f & g")
    result = synthesize_forward(oracle, 1)
    assert result.types_considered == 10
    assert result.positive == 2
    assert term_size(result.term) == 53
    report = validate_synthesis(result, oracle, bounds=Bounds(max_size=3, samples=80))
    assert report.equivalent


def test_synthesized_terms_are_interned():
    # A second synthesis returns the very node the first one built.
    first = synthesize_forward(parse_term("f <+ (g ; g)"), 2).term
    assert synthesize_forward(parse_term("f <+ (g ; g)"), 2).term is first


def test_radius_two_composition_is_a_few_nodes():
    # Every positive type reaches its target by the word f g, and no
    # negative type has that word, so the whole diagram is one leaf.
    result = synthesize_forward(parse_term("f ; g"), 2)
    assert result.nodes == len(list(iter_nodes(result.term))) <= 16
    assert result.term is parse_term("f ; g")
    # The README's example: probes are counted one per (type, extension),
    # however they are batched.
    assert (result.types_considered, result.probes, result.probe_depth) == (888, 21_492, 1)


C07 = (
    ("dom(f)", 1), ("~g ; f", 1), ("f ; g", 2), ("f |> g", 2), ("f & g", 1),
    ("f <+ (g ; g)", 2), ("~f", 1), ("(f & g) <+ g", 1), ("f ; f", 2), ("f <+ id", 1),
)
C08 = (
    ("f^", 1), ("ran(f)", 1), ("dom(f) ; g^", 1), ("f^ ; f", 1), ("f & g", 1),
    ("~f", 1), ("f^ ; f^", 2), ("f <# id", 1), ("dom(f)", 1), ("f <# f^", 2),
)


@pytest.mark.parametrize(
    "source,radius,oriented",
    [(s, r, False) for s, r in C07] + [(s, r, True) for s, r in C08],
)
def test_catalogue_diagrams_agree_exhaustively_to_size_three(source, radius, oriented):
    oracle = parse_term(source)
    synthesize = synthesize_local_injective if oriented else synthesize_forward
    result = synthesize(oracle, radius)
    assert term_ops(result.term) <= (ORIENTED_OPS if oriented else FORWARD_OPS)
    report = validate_synthesis(result, oracle, bounds=Bounds(max_size=3, samples=0))
    assert report.equivalent, (source, report.counterexample)
    assert [c.mode for c in report.coverage] == ["exhaustive"] * 3


@pytest.mark.parametrize("source,radius,oriented", [("f |> g", 2, False), ("f & g", 1, True)])
def test_callable_and_term_oracles_give_the_same_term(source, radius, oriented):
    target = parse_term(source)
    synthesize = synthesize_local_injective if oriented else synthesize_forward

    def oracle(s):
        return eval_term(target, s)

    by_term = synthesize(target, radius)
    by_call = synthesize(oracle, radius, symbols=by_term.symbols)
    assert by_call.term is by_term.term
    assert (by_call.positive, by_call.probes) == (by_term.positive, by_term.probes)


def _follow(structure, x, t, word):
    for j in word:
        s, inv = t.letters[j]
        x = next(b if not inv else a for a, b in structure.relations[s] if (b if inv else a) == x)
    return x


def test_oriented_diagrams_guard_what_the_injective_union_sees():
    # A radius-2 injective oracle given type by type (positive type index to
    # target node).  Unguarded, the hi branch of an inner node follows some
    # word on elements of other types, and `<#` then drops a lo pair that
    # has the same target: on f = {e1 -> e3, e2 -> e1} that loses a pair.
    types = enumerate_types(("f",), 2, oriented=True)
    answer = {types[7]: 0, types[8]: 3, types[10]: 1}

    def oracle(s):
        out = set()
        for x in s.domain:
            t = neighborhood_type(s, x, 2, oriented=True)
            if t in answer:
                out.add((x, _follow(s, x, t, t.words[answer[t]])))
        return frozenset(out)

    result = synthesize_local_injective(oracle, 2, symbols=("f",))
    assert term_ops(result.term) <= ORIENTED_OPS
    for s in enumerate_structures(("f",), 5, IPF):
        assert eval_term(result.term, s) == oracle(s), s


def test_synthesize_oriented_converse():
    oracle = parse_term("f^")
    result = synthesize_local_injective(oracle, 1)
    assert result.positive == 4
    assert term_ops(result.term) <= ORIENTED_OPS
    report = validate_synthesis(result, oracle, bounds=Bounds(max_size=3, samples=80))
    assert report.equivalent


def test_probes_reject_an_undersized_radius():
    with pytest.raises(SynthesisError) as err:
        synthesize_forward(parse_term("f ; g"), 0)
    assert "not 0-bounded" in str(err.value)
    with pytest.raises(SynthesisError) as err:
        synthesize_forward(parse_term("f ; g"), 1)
    assert "not 1-bounded" in str(err.value)


def test_oriented_probe_rejection_keeps_its_message_and_details():
    with pytest.raises(SynthesisError) as err:
        synthesize_local_injective(parse_term("f^ ; f^ ; f^"), 2)
    assert str(err.value) == (
        "oracle is not 2-bounded: incoming f at v02, looking 0 deeper changes the "
        "root row from [] to ['p00'] at type 2"
    )
    assert err.value.details == {
        "realization": {
            "domain": ["v00", "v01", "v02"],
            "relations": {"f": [["v01", "v00"], ["v02", "v01"]]},
        },
        "extension": {
            "domain": ["p00", "v00", "v01", "v02"],
            "relations": {"f": [["p00", "v02"], ["v01", "v00"], ["v02", "v01"]]},
        },
        "root": "v00",
    }


# (symbols, oriented, radius, probe depth): oriented two-symbol types at
# radius 2 exceed the enumeration budget.  Complement rows depend on the
# probe's size, so they show a mask laid out over the wrong size.
PROBE_SPACES = [
    (symbols, oriented, radius, 1)
    for symbols in (("f",), ("f", "g"))
    for oriented in (False, True)
    for radius in (0, 1, 2)
    if not (oriented and len(symbols) == 2 and radius == 2)
] + [(("f",), False, 1, 3), (("f", "g"), True, 1, 2)]
PROBE_ORACLES = {
    1: ("f ; f", "-(f ; f^)", "ran(f) <+ ~f"),
    2: ("f ; g", "-(f <+ g^)", "(f & g) ; ran(g)"),
}


def test_batched_probe_rows_match_the_scalar_reader():
    sizes, seams = set(), 0
    for symbols, oriented, radius, depth in PROBE_SPACES:
        types = enumerate_types(symbols, radius, oriented)
        chunks = list(synth._chunks(types, depth))
        seams += len(chunks) - 1
        for source in PROBE_ORACLES[len(symbols)]:
            oracle = parse_term(source)
            for start, chunk in chunks:
                rows = iter(synth._term_rows(oracle, chunk))
                for i, (t, _, _) in enumerate(chunk, start):
                    assert t is types[i]
                    for fresh, want in scalar_probe_rows(oracle, t, depth):
                        sizes.add(t.node_count() + fresh)
                        assert next(rows) == want, (source, symbols, oriented, radius, i, fresh)
                assert next(rows, None) is None
    assert max(sizes) > bulk.MAX_BULK_SIZE and min(sizes) == 1
    assert seams >= 2  # the radius-2 two-symbol forward types span three chunks


@pytest.mark.parametrize(
    "source,radius,symbols,oriented",
    [
        ("f ; g", 0, ("f", "g"), False),
        ("f ; g", 1, ("f", "g"), False),
        ("f^", 1, ("f",), False),
        ("f^ ; f^ ; f^", 2, ("f",), True),
        ("f | g", 1, ("f", "g"), False),
        ("(f & g) ; f ; f", 2, ("f", "g"), False),
        ("(f & g) ; (f | g)", 2, ("f", "g"), False),
    ],
)
@pytest.mark.parametrize("block", [None, 64])
def test_probe_rejections_match_the_scalar_check(
    source, radius, symbols, oriented, block, monkeypatch
):
    # With 64-probe chunks, the radius-2 rejections (types 78 and 84) lie
    # past the first chunks.
    if block:
        monkeypatch.setattr(bulk, "BLOCK", block)
    synthesize = synthesize_local_injective if oriented else synthesize_forward
    with pytest.raises(SynthesisError) as err:
        synthesize(parse_term(source), radius, symbols)
    message, details = scalar_probe_failure(parse_term(source), radius, symbols, oriented)
    assert (str(err.value), err.value.details) == (message, details)


def test_probes_reject_backward_looking_oracles():
    with pytest.raises(SynthesisError) as err:
        synthesize_forward(parse_term("f^"), 1, symbols=("f",))
    assert "bounded" in str(err.value)
    assert err.value.details


def test_probes_reject_non_functional_oracles():
    def fan_out(s):
        return frozenset(("v00", d) for d in s.domain if "v00" in s.domain)

    with pytest.raises(SynthesisError) as err:
        synthesize_forward(fan_out, 1, symbols=("f",))
    assert "function-preserving" in str(err.value)


def test_probes_reject_answers_outside_the_structure():
    with pytest.raises(SynthesisError) as err:
        synthesize_forward(lambda s: frozenset({("v00", "elsewhere")}), 1, symbols=("f",))
    assert "outside the structure" in str(err.value)


def test_callable_oracle_synthesis():
    target = parse_term("~f")

    def oracle(s):
        return eval_term(target, s)

    result = synthesize_forward(oracle, 1, symbols=("f",))
    report = validate_synthesis(result, target, bounds=Bounds(max_size=3, samples=60))
    assert report.equivalent


def test_estimate_radius_walks_upward():
    est = estimate_radius(parse_term("dom(f)"), max_radius=2)
    assert est.radius == 1
    assert [a["radius"] for a in est.attempts] == [0, 1]
    assert est.attempts[0]["outcome"] != "accepted"
    assert est.result is not None


def test_estimate_radius_gives_up_honestly():
    est = estimate_radius(parse_term("ran(f)"), max_radius=2)
    assert est.radius is None
    assert est.failure is not None
    assert "bounded" in est.failure["message"]
    assert len(est.attempts) == 3


def test_estimate_radius_failure_is_json_serializable(monkeypatch):
    witness = random_structure(1, 2, ("f",), PF)

    def disagree(result, oracle, bounds=None, seed=0):
        return EquivalenceReport(False, witness, [], [], [], 0, seed)

    monkeypatch.setattr(synth, "validate_synthesis", disagree)
    est = estimate_radius(parse_term("dom(f)"), max_radius=1)
    assert est.radius is None
    assert "disagrees" in est.failure["message"]
    assert json.loads(json.dumps(est.failure))["details"]["domain"] == list(witness.domain)


def test_synthesis_result_to_json():
    result = synthesize_forward(parse_term("dom(f)"), 1)
    doc = result.to_json()
    assert doc["radius"] == 1
    assert doc["oriented"] is False
    assert doc["symbols"] == ["f"]
    assert (doc["nodes"], doc["probes"]) == (result.nodes, result.probes) == (3, 16)
    assert doc["probe_depth"] == result.probe_depth == 1
    assert parse_term(doc["term"]) == result.term


def test_a_dropped_type_list_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        types = enumerate_types(("f", "g"), 2)
        assert len(types) == 888
        first, last = weakref.ref(types[0]), weakref.ref(types[-1])
        del types
        assert first() is None and last() is None
    finally:
        gc.enable()
