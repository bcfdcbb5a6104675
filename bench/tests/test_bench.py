"""Fast tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import known  # noqa: E402
import refeval  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shrunken_workload_runs_and_passes_its_checks(name):
    result = run.run(name, seed=7, seconds=0.01, trace=False, small=True)
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("source,radius,oriented,bounds", workloads.SYNTH_ORACLES)
def test_validation_covers_every_size_its_bounds_name(source, radius, oriented, bounds):
    rs = run.fresh_import()
    oracle = rs.terms.parse_term(source)
    synthesize = rs.synth.synthesize_local_injective if oriented else rs.synth.synthesize_forward
    result = synthesize(oracle, radius)
    report = rs.synth.validate_synthesis(
        result, oracle, bounds=rs.checkers.Bounds(**{**bounds, "samples": 0}), seed=1
    )
    assert report.equivalent
    assert [c.size for c in report.coverage] == list(range(1, bounds["max_size"] + 1))
    assert all(c.checked > 0 and c.mode != "skipped" for c in report.coverage), report.coverage


def test_some_oracle_gets_sampled_bulk_batches_at_sizes_five_to_eight():
    wide = [o for o in workloads.SYNTH_ORACLES if o[3]["max_size"] == 8]
    assert len(wide) == 3 and all(radius == 1 and not oriented for _, radius, oriented, _ in wide)
    rs = run.fresh_import()
    source, radius, _, bounds = wide[0]
    oracle = rs.terms.parse_term(source)
    result = rs.synth.synthesize_forward(oracle, radius)
    report = rs.synth.validate_synthesis(result, oracle, bounds=rs.checkers.Bounds(**bounds), seed=1)
    assert [(c.size, c.mode, c.checked) for c in report.coverage] == [
        (1, "exhaustive", 4),
        (2, "exhaustive", 81),
        (3, "exhaustive", 4096),
        (4, "exhaustive", 390_625),
    ] + [(k, "sampled", 65_536) for k in range(5, 9)]


def test_names_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracer.LAYER_METRICS


def _traced_names(rs):
    found = []
    for mod_name in vars(rs):
        module = getattr(rs, mod_name)
        for attr, value in vars(module).items():
            if hasattr(value, tracer.MARK):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, dict):
                found += [f"{mod_name}.{attr}[{k}]" for k, v in value.items() if hasattr(v, tracer.MARK)]
    found += [m for m, v in vars(rs.bulk.BulkOps).items() if hasattr(v, tracer.MARK)]
    return found


def test_tracer_wraps_every_binding_and_restores_it():
    rs = run.fresh_import()
    before = {m: dict(vars(getattr(rs, m))) for m in vars(rs)}
    t = tracer.Tracer(rs)
    t.install()
    try:
        wrapped = set(_traced_names(rs))
        # The defining module, a `from ... import` site and a dispatch table.
        assert {"checkers.check_forward", "cli.check_forward", "checkers._COLUMN_CHECKS[forward]"} <= wrapped
        assert {"compose", "apply", "injunion"} <= wrapped
        rs.checkers.check_forward(rs.terms.parse_term("f ; g"), rs.checkers.Bounds(max_size=2, samples=5))
    finally:
        t.uninstall()
    assert _traced_names(rs) == []
    assert {m: dict(vars(getattr(rs, m))) for m in vars(rs)} == before
    layers = t.layer_metrics(1)
    assert layers["checkers.check_forward_s"][0] > 0
    assert layers["terms.eval_term.calls"][0] > 0


def test_traced_run_reports_every_layer_and_leaves_no_wrapper(tmp_path):
    result = run.run("bounded-verdicts", seed=3, seconds=0.01, trace=True, small=True, trace_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracer.LAYER_METRICS)
    assert result["metrics"]["structures.homomorphisms.maps"]["value"] > 0
    assert result["metrics"]["games.ef_equiv.calls"]["value"] > 0
    rs = types.SimpleNamespace(**{m: sys.modules[f"relalg.{m}"] for m in run.MODULES})
    assert _traced_names(rs) == []
    assert (tmp_path / "bounded-verdicts-seed3.spans.npz").is_file()


def test_untraced_run_does_not_import_the_tracer():
    code = (
        "import sys; sys.path.insert(0, 'bench'); import run; "
        "run.run('translate-verify', 1, 0.01, False, small=True); "
        "assert 'tracer' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-validate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_evaluator_reproduces_the_c01_identities_at_size_two():
    rs = run.fresh_import()
    domain = ("e1", "e2")
    for lhs, rhs in known.IDENTITIES:
        left, right = rs.terms.parse_term(lhs), rs.terms.parse_term(rhs)
        for rels in refeval.all_relations(domain, ("R", "S")):
            assert refeval.evaluate(left, domain, rels) == refeval.evaluate(right, domain, rels), (lhs, rels)


def test_reference_evaluator_agrees_with_the_program_on_random_terms():
    rs = run.fresh_import()
    rng = random.Random(0)
    basis = set(rs.terms.ARITY) - {"sym"}
    for _ in range(300):
        term = rs.terms.random_term(rng, basis, ("f", "g"), rng.randint(1, 9))
        domain, rels = refeval.random_relations(rng, rng.randint(1, 4), ("f", "g"), "all")
        structure = rs.structures.Structure(domain, rels)
        assert refeval.evaluate(term, domain, rels) == rs.terms.eval_term(term, structure), term


def test_reference_closure_matches_the_expected_fa_family():
    rs = run.fresh_import()
    bundle = rs.constructions.build_separation(2, 3)
    rels = {n: bundle.structure.rel(n) for n in ("f", "g")}
    family = refeval.closure(bundle.structure.domain, rels, known.FA_BASIS)
    assert family == set(bundle.expected_closure.values())
    assert len(family) == 8


def test_counterexample_check_rejects_a_wrong_witness():
    rs = run.fresh_import()
    structure = {"domain": ["e1", "e2"], "relations": {"R": [["e1", "e2"]]}}
    good = {"kind": "invariant", "term": "T", "structure": structure}
    bad = {"kind": "invariant", "term": "R", "structure": structure}
    assert refeval.counterexample_holds("fp", good, rs.terms.parse_term)
    assert not refeval.counterexample_holds("fp", bad, rs.terms.parse_term)
