"""Desk-scale builds of the cycle, sink and lasso structures."""

import hashlib
import json

import pytest
from reference import is_partial_function, is_total_function

from relalg.constructions import (
    HUB,
    SINK,
    ConstructionError,
    anchored_probe_formula,
    build_lasso,
    build_separation,
    midpoint_cycle,
    probe_formula,
    remove_hub,
    separating_term,
    totalize_with_sink,
    tripled_cycle,
    verify_closure_bound,
)
from relalg.logic import eval_formula, free_vars, parse_formula, print_formula
from relalg.terms import BASES, eval_term, print_term


def test_tripled_cycle_shape():
    s = tripled_cycle(2)
    assert s.size() == 6
    assert s.signature == ("E",)
    with pytest.raises(ConstructionError):
        tripled_cycle(1)


def test_midpoint_cycle_shape():
    s = midpoint_cycle(2)
    assert s.size() == 24
    assert s.signature == ("f", "g")
    for rel in s.relations.values():
        assert is_partial_function(rel)
    assert midpoint_cycle(3).size() == 36


def test_separating_term_print():
    assert print_term(separating_term(2)) == "f^ ; g ; (f^ ; g) & id"
    with pytest.raises(ConstructionError):
        separating_term(0)


def test_separation_bundle():
    bundle = build_separation(2, 3)
    assert bundle.structure.size() == 60
    assert set(bundle.expected_closure) == {
        "f",
        "g",
        "id",
        "id_mid",
        "id_core",
        "f_or_id_core",
        "g_or_id_core",
        "empty",
    }
    # the separating value is nonempty, sits outside the expected family,
    # and is itself a partial function
    value = eval_term(bundle.separating, bundle.structure)
    assert value
    assert value not in set(bundle.expected_closure.values())
    assert is_partial_function(value)
    with pytest.raises(ConstructionError):
        build_separation(2, 2)


def test_closure_stays_inside_the_expected_family():
    bundle = build_separation(2, 3)
    verdict = verify_closure_bound(bundle)
    assert verdict.passed
    assert verdict.complete
    assert verdict.reached == 8
    assert verdict.missing == []
    assert verdict.escapees == []
    assert verdict.basis_fp
    assert verdict.all_subrelations
    doc = verdict.to_json()
    assert doc["reached"] == 8


def test_converse_breaks_the_closure_bound():
    bundle = build_separation(2, 3)
    verdict = verify_closure_bound(bundle, frozenset(BASES["fa"]) | {"converse"})
    assert not verdict.passed
    assert len(verdict.escapees) == len(verdict.escapee_masks) == 3070
    assert not verdict.basis_fp
    # to_json renders every escapee: witness text, first pairs and count.
    doc = json.dumps(verdict.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == (
        "f78c34f8d89ff077220504302786b9271541e1d30c6c9555dd1ea97a1b3bdb41"
    )


def test_sink_totalization():
    bundle = build_separation(2, 3)
    ext = totalize_with_sink(bundle)
    assert ext.structure.size() == bundle.structure.size() + 1
    assert SINK in ext.structure.domain
    for name in ("fhat", "ghat", "ehat"):
        assert is_total_function(ext.structure.rel(name), ext.structure.domain)
    # the recovery terms rebuild the original partial functions exactly
    for name in ("f", "g"):
        recovered = eval_term(ext.recovery[name], ext.structure)
        assert recovered == bundle.structure.rel(name)
    # and the totalized separating term matches its prediction
    assert eval_term(ext.total_separating, ext.structure) == ext.expected_separating
    assert is_total_function(ext.expected_separating, ext.structure.domain)


def test_lasso_probe():
    structure, anchor = build_lasso(3, 2)
    assert anchor == "a"
    assert HUB in structure.domain
    trimmed = remove_hub(structure)
    assert HUB not in trimmed.domain
    assert structure.size() == trimmed.size() + 1

    psi = anchored_probe_formula()
    assert free_vars(psi) == {"x", "y"}
    assert parse_formula(print_formula(psi)) == psi
    assert free_vars(probe_formula()) == {"u"}

    at = {"x": anchor, "y": anchor}
    assert eval_formula(psi, structure, at)
    assert not eval_formula(psi, trimmed, at)

    with pytest.raises(ConstructionError):
        build_lasso(0, 1)
    with pytest.raises(ConstructionError):
        remove_hub(trimmed)
