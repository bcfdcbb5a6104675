"""End-to-end runs of the command-line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relalg
from relalg import terms as tm
from relalg.cli import main

ENVELOPE_KEYS = ["bounds", "command", "payload", "schema", "seed", "verdict", "wall_time"]


def run(*argv, **env):
    # The child imports the relalg this test imported, whether that came
    # from PYTHONPATH, pytest's own `pythonpath` setting or an install.
    source = str(Path(relalg.__file__).parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "relalg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "domain": ["a", "b", "c"],
        "relations": {"f": [["a", "b"]], "g": [["b", "c"]]},
    }))
    return str(path)


def test_eval_text_and_json(chain_file):
    code, out, _ = run("eval", "f ; g", "--structure", chain_file)
    assert code == 0
    assert "(a, c)" in out
    code, out, _ = run("eval", "f ; g", "--structure", chain_file, "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ENVELOPE_KEYS
    assert doc["schema"] == 1
    assert doc["verdict"] == "ok"
    assert doc["payload"]["pairs"] == [["a", "c"]]
    # eval draws nothing, so it takes no --seed and reports none.
    assert doc["seed"] is None


def test_translate_with_check():
    code, out, _ = run(
        "translate", "exists z . (R(x,z) & S(z,y))", "--check", "--max-size", "2"
    )
    assert code == 0
    assert "R ; S" in out
    assert "equivalent" in out


def test_check_pass_and_fail_exit_codes():
    code, _, _ = run("check", "fp", "f ; g", "--max-size", "2", "--samples", "15")
    assert code == 0
    code, out, _ = run("check", "fp", "f | g", "--max-size", "2", "--samples", "15")
    assert code == 1
    assert "counterexample" in out


# A failing term per property; at one element the subset check's verdict
# comes from its sampled phase.
FAILING_CHECKS = {
    "fp": "f | g",
    "tfp": "f | g",
    "ifp": "f | g",
    "homsafe": "R \\ S",
    "subsafe": "~R",
    "forward": "f^",
    "local": "ran(f) ; T",
}


def test_check_reports_do_not_depend_on_string_hashing():
    for prop, term in FAILING_CHECKS.items():
        docs = []
        for hash_seed in ("1", "2"):
            code, out, err = run(
                "check", prop, term, "--max-size", "1", "--samples", "30",
                "--seed", "3", "--report", "json", PYTHONHASHSEED=hash_seed,
            )
            assert code == 1, (prop, err)
            doc = json.loads(out)
            del doc["wall_time"]
            docs.append(doc)
        assert docs[0] == docs[1], prop


def test_matrix_json_envelope():
    code, out, _ = run("matrix", "--max-size", "2", "--samples", "20",
                       "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["payload"]["agrees"] is True


def test_construct_separation():
    code, out, _ = run("construct", "separation", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["payload"]["expected_closure"]) == 8


def test_verify_closure_and_converse_escape():
    code, _, _ = run("verify", "closure")
    assert code == 0
    code, out, _ = run(
        "verify", "closure", "--basis",
        "id,empty,dom,ran,antidom,inter,diff,compose,semijoin,prefunion,converse",
    )
    assert code == 1
    assert "escapees" in out


def test_synth_and_validation():
    code, out, _ = run(
        "synth", "forward", "--oracle", "dom(f)", "--radius", "1",
        "--validate-size", "3",
    )
    assert code == 0
    assert "validation: equivalent" in out
    code, out, _ = run("synth", "forward", "--oracle", "f^", "--auto-radius", "1")
    assert code == 1
    assert "no radius up to 1 fits" in out


def test_ef_modes(chain_file, tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"domain": ["a"], "relations": {"f": [["a", "a"]]}}))
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"domain": ["a", "b"], "relations": {"f": [["a", "b"]]}}))
    code, out, _ = run("ef", "min-rank", "--left", str(loop), "--right", str(two))
    assert code == 0
    assert "least distinguishing rank: 1" in out
    code, _, _ = run("ef", "equiv", "--left", str(loop), "--right", str(two),
                     "--rank", "1")
    assert code == 1
    code, _, _ = run("ef", "union-compat", "--samples", "25", "--max-size", "3")
    assert code == 0


def test_replay_presets_all_pass():
    for preset in (
        "replay:matrix",
        "replay:separation",
        "replay:lasso",
        "replay:synthesis",
        "replay:union-compat",
    ):
        code, out, _ = run("run", preset)
        assert code == 0, (preset, out)
        assert "verdict: pass" in out, preset


def test_the_separation_replay_counts_escapees_without_rendering_them(monkeypatch, capsys):
    rendered = []
    print_term = tm.print_term

    def counting_print_term(t):
        rendered.append(t)
        return print_term(t)

    monkeypatch.setattr(tm, "print_term", counting_print_term)
    assert main(["run", "replay:separation", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["converse_escapes"] == 3070
    # Only the separating term is printed, none of the 3,070 escapee witnesses.
    assert len(rendered) <= 1


def test_out_flag_writes_file(tmp_path, chain_file):
    target = tmp_path / "report.json"
    code, out, _ = run("eval", "f", "--structure", chain_file, "--report", "json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "eval"


def test_usage_and_input_errors_exit_two(chain_file, tmp_path):
    cases = (
        ("eval", "f ; ;", "--structure", chain_file),
        ("eval", "f", "--structure", str(tmp_path / "missing.json")),
        ("check", "nonsense", "f"),
        ("frobnicate",),
        ("eval",),
        ("translate", "!R(x,y)"),
        ("verify", "closure", "--basis", "compose,inter,antidomm"),
        ("ef", "equiv", "--left", chain_file),
        ("ef", "min-rank", "--right", chain_file),
        ("verify", "closure", "--budget", "-5"),
        ("ef", "min-rank", "--left", chain_file, "--right", chain_file, "--max-rank", "-1"),
        ("check", "forward", "f", "--max-radius", "-1"),
        # Options read only under --check or --validate-size.
        ("translate", "R(x,y)", "--samples", "5"),
        ("translate", "R(x,y)", "--seed", "1", "--max-size", "2"),
        ("synth", "forward", "--oracle", "f", "--radius", "1", "--seed", "2", "--samples", "3"),
    )
    for argv in cases:
        code, _, err = run(*argv)
        assert code == 2, (argv, code, err)
        assert "Traceback" not in err, argv
    # In-process, where a traceback would fail the test itself.
    cases = (
        # Options read only by ef union-compat.
        ("ef", "equiv", "--left", chain_file, "--right", chain_file, "--samples", "5",
         "--seed", "9", "--max-size", "3", "--report", "json"),
        ("ef", "min-rank", "--left", chain_file, "--right", chain_file, "--seed", "1"),
        # Bounds that would cover nothing and read as a pass.
        ("check", "subsafe", "R ; S", "--samples", "-5", "--report", "json"),
        ("matrix", "--samples", "-3", "--max-size", "2"),
        ("ef", "union-compat", "--samples", "-5", "--report", "json"),
        ("ef", "union-compat", "--max-size", "0"),
        ("ef", "union-compat", "--rank", "-1"),
        ("ef", "union-compat", "--seed", "-7"),
    )
    for argv in cases:
        assert main(list(argv)) == 2, argv


def test_subcommands_refuse_options_they_do_not_read(chain_file, capsys):
    cases = (
        ("eval", "f", "--structure", chain_file, "--seed", "1"),
        ("construct", "separation", "--samples", "3"),
        ("verify", "closure", "--max-size", "2"),
        ("synth", "forward", "--oracle", "f", "--radius", "1", "--max-size", "3"),
        ("run", "replay:lasso", "--samples", "2"),
        # No abbreviations: --m is not read as --mprime.
        ("construct", "separation", "--m", "4"),
    )
    for argv in cases:
        assert main(list(argv)) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert main(["run", "replay:lasso", "--seed", "3", "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3


def test_a_closure_run_cut_before_any_escapee_is_inconclusive(capsys):
    assert main(["verify", "closure", "--budget", "0"]) == 1
    out = capsys.readouterr().out
    assert "escapees: 0" in out and out.endswith("verdict: inconclusive (budget exhausted)\n")
    assert main(["verify", "closure", "--budget", "0", "--report", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail" and doc["payload"]["complete"] is False


def test_translate_refuses_a_relation_no_term_can_name():
    # T(x,y) would compile to the symbol T, which term text reads as top.
    code, _, err = run("translate", "T(x,y)")
    assert code == 2 and "'T' cannot name a relation symbol" in err


def test_synth_validates_with_an_explicit_zero_samples(capsys):
    argv = ["synth", "forward", "--oracle", "dom(f)", "--radius", "1", "--validate-size", "2"]
    assert main([*argv, "--samples", "0", "--report", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["samples"] == 0
    assert doc["payload"]["validation"]["random_checked"] == 0
    assert main([*argv, "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["bounds"]["samples"] == 200
