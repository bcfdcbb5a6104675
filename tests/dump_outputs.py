"""Print the library's verdicts and reports as one JSON line per case.

A refactor that must keep every verdict byte-identical is checked by
running this on the parent and on the change and comparing the two
outputs with `cmp`:

    PYTHONPATH=src python tests/dump_outputs.py > after.jsonl

`--without KEY` (repeatable) drops every dict entry named KEY, so a
change that adds a field can be compared with a parent that lacks it:
`--without representatives` for the coverage count of orbit-minimal
structures, `--without probe_depth` for the probe depth of a synthesis
result.

The cases are the catalogue matrix at the benchmark's bounds (seeds 0-3),
every check on the benchmark's compound terms, every `relalg run` preset
envelope (without its wall time), seeded `verify_compilation` and
`validate_synthesis` reports, the synthesis results of the benchmark's
oracles, the messages and details of oracles the probes reject,
`estimate_radius` searches, and equivalence reports across budgets,
classes and signatures.  `ORBIT_CASES` reach a failure inside an
orbit-filtered run of every exhaustive sweep, `PLAN_CASES` run checks
whose budget binds, and `SEAM_CASE` reaches a first mismatch past the
first block of `bulk.bulk_eval_term`.  The `stream`
cases print one sha256 digest per sampled phase, class and size of that
phase's draws at seeds 0-3, so a change can show with `cmp` that it left
the sampled stream alone.  The file is not a test module: pytest does not
collect it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from relalg import bulk, checkers, cli
from relalg.checkers import Bounds, equivalence_report
from relalg.logic import parse_formula
from relalg.structures import StructureClass
from relalg.synth import (
    SynthesisError,
    estimate_radius,
    synthesize_forward,
    synthesize_local_injective,
    validate_synthesis,
)
from relalg.terms import parse_term, print_term
from relalg.translate import random_posex_formula, verify_compilation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from known import COMPOUND_CHECKS  # noqa: E402
from workloads import SYNTH_ORACLES  # noqa: E402

MATRIX_BOUNDS = Bounds(max_size=3, samples=200, sample_size=6)
CHECK_BOUNDS = Bounds(samples=200, sample_size=6)
CHECKS = (
    "check_function_preserving",
    "check_total_function_preserving",
    "check_injective_function_preserving",
    "check_homomorphism_safe",
    "check_subseteq_safe",
    "check_forward",
    "check_local",
)
SYNTH_CASES = (
    ("dom(f)", 1, False, Bounds(max_size=4, samples=200, sample_size=12)),
    ("~g ; f", 1, False, Bounds(max_size=8, samples=200, exhaustive_budget=656_870)),
    ("f ; f", 2, False, Bounds(max_size=3, samples=150)),
    ("f^", 1, True, Bounds(max_size=4, samples=200, sample_size=12)),
    ("f & g", 1, True, Bounds(max_size=5, samples=100, sample_size=10, exhaustive_budget=50_000)),
)
# (oracle, radius, symbols, oriented): oracles the probes reject, at an
# extension or on the realization itself.
REJECTED_SYNTHESES = (
    ("f ; g", 0, ("f", "g"), False),
    ("f ; g", 1, ("f", "g"), False),
    ("f^", 1, ("f",), False),
    ("f^ ; f^ ; f^", 2, ("f",), True),
    ("f | g", 1, ("f", "g"), False),
    ("(f & g) ; f ; f", 2, ("f", "g"), False),
    ("(f & g) ; (f | g)", 2, ("f", "g"), False),
)
# (oracle, max_radius, oriented): radius searches that fail and succeed.
RADIUS_ESTIMATES = (
    ("ran(f)", 2, False), ("ran(f)", 3, True), ("dom(f)", 2, False), ("dom(f)", 3, True),
)
# (lhs, rhs, signature, class): equal and unequal pairs of terms, and of a
# formula and a term, over every class and the empty signature.
EQUIVALENCE_CASES = (
    ("f <# g", "(f <+ g) & (f <+ g)", ("f", "g"), StructureClass.INJECTIVE_PARTIAL_FUNCTIONS),
    ("f ; g", "g ; f", ("f", "g"), StructureClass.PARTIAL_FUNCTIONS),
    ("f ; f", "f ; f ; f", ("f",), StructureClass.TOTAL_FUNCTIONS),
    ("R ; S", "S ; R", ("R", "S"), StructureClass.ALL),
    ("((R ; R ; R) & id) \\ (R | (R ; R))", "0", ("R", "S"), StructureClass.ALL),
    ("R", "exists z. R(x,z) & R(z,y)", ("R",), StructureClass.ALL),
    ("R ; S", "exists z. R(x,z) & S(z,y)", ("R", "S"), StructureClass.ALL),
    ("id", "-(-id)", (), StructureClass.ALL),
    ("id", "T", (), StructureClass.ALL),
)
EQUIVALENCE_BOUNDS = (
    Bounds(),
    Bounds(max_size=5, samples=300, sample_size=10),
    Bounds(max_size=4, samples=50, exhaustive_budget=1_000),
    Bounds(max_size=10, samples=20, sample_size=11, exhaustive_budget=70_000),
    Bounds(max_size=3, samples=40, exhaustive_budget=0),
)
# Arrows with no converse arrow: three of them in a row close a 3-cycle on
# three elements, whose R lies past the first run of 32,768 indices.
ARROW = "((R \\ id) \\ R^)"
# (check, term, bounds): two-symbol failures inside orbit-filtered runs of
# every exhaustive sweep.  Among the equivalence cases, the 3-cycle one
# first mismatches past the first run at size 3.
ORBIT_CASES = (
    ("check_homomorphism_safe", "R <+ (S ; T)", CHECK_BOUNDS),
    ("check_homomorphism_safe", "S \\ (id | R)", CHECK_BOUNDS),
    ("check_forward", "g |> f |> ran(f)", CHECK_BOUNDS),
    ("check_forward", "(id | f) |> g^", CHECK_BOUNDS),
    ("check_local", "ran(f) |> -(g & f)", CHECK_BOUNDS),
    ("check_local", "f |> ran(-g)", CHECK_BOUNDS),
    ("check_function_preserving", "f ; g^", CHECK_BOUNDS),
    ("check_injective_function_preserving", "f | g", Bounds(max_size=4, samples=50)),
    ("check_subseteq_safe", f"~({ARROW} ; {ARROW} ; {ARROW}) | S",
     Bounds(max_size=3, samples=0, exhaustive_budget=200_000)),
    ("check_subseteq_safe", "R ; S", Bounds(max_size=4, samples=0)),
    # The first ⊆-safety case samples size 3 on its budget; this one, the
    # same term written with its compositions grouped, sweeps size 3 in full.
    ("check_subseteq_safe", f"~(({ARROW} ; {ARROW}) ; {ARROW}) | S", Bounds(max_size=3, samples=0)),
)
# (check, term, bounds): checks whose budget binds, so their `exhaustive_cut`
# lists what the budget rule sampled and skipped.  Two partial functions at
# size 5 (60,466,176 structures) sample 65,536; the grid and ⊆-safety run
# with no budget and with 100, a passing and a failing term each.
PLAN_CASES = (
    *((name, "f ; g", Bounds(max_size=5, samples=0))
      for name in ("check_forward", "check_function_preserving", "check_local")),
    *((name, source, Bounds(samples=200, sample_size=6, exhaustive_budget=budget))
      for name in ("check_homomorphism_safe", "check_subseteq_safe")
      for source in ("R ; S", "R <+ S")
      for budget in (0, 100)),
)

# An over-budget three-symbol ALL batch of 65,536 random structures at size
# 3 whose first mismatch lies past the first `bulk.BLOCK` structures: the
# right side adds the diagonal to U only where R is full and S holds an
# asymmetric 3-cycle (so never at sizes 1-2), and differs where U lacks a
# loop.  Seed 0, the first of seeds 0-39 to put the first mismatch past
# the first two blocks of 8,192, puts it at batch index 31,922.
S_ARROW = "((S \\ id) \\ S^)"
SEAM_CASE = (
    "U", f"U | (~(T ; -R ; T) & ({S_ARROW} ; {S_ARROW} ; {S_ARROW}) & id)",
    ("R", "S", "U"), StructureClass.ALL,
    Bounds(max_size=3, samples=0, exhaustive_budget=4_104 + 65_536), 0,
)


PHASES = {
    "pool": checkers._POOL,
    "pairs": checkers._PAIRS,
    "subsets": checkers._SUBSETS,
    "batches": checkers._BATCHES,
    "tail": checkers._TAIL,
}

WITHOUT: set[str] = set()


def stripped(value):
    if isinstance(value, dict):
        return {k: stripped(v) for k, v in value.items() if k not in WITHOUT}
    if isinstance(value, list):
        return [stripped(v) for v in value]
    return value


def emit(case: str, value) -> None:
    print(json.dumps({"case": case, "value": stripped(value)}, sort_keys=True))


def side(text: str):
    return parse_formula(text) if "(x" in text else parse_term(text)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def stream_digests(seed: int, phase: int) -> dict:
    """The digest of a phase's first 200 sizes of 1-12, and of 50 two-symbol
    draws of every class and size 1-12 from each size's stream."""
    digests = {"sizes": digest(checkers._stream(seed, phase).integers(1, 13, 200).tolist())}
    for cls in StructureClass:
        for size in range(1, 13):
            rng = checkers._stream(seed, phase, size)
            masks = bulk.random_symbol_masks(rng, 50, size, cls, ("f", "g"))
            digests[f"{cls.name}:{size}"] = digest({n: [int(m) for m in v] for n, v in masks.items()})
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--without", action="append", default=[], metavar="KEY")
    WITHOUT.update(parser.parse_args().without)
    for seed in range(4):
        emit(f"matrix:{seed}", checkers.catalogue_matrix(MATRIX_BOUNDS, seed).to_json())
    for source, _ in COMPOUND_CHECKS:
        for name in CHECKS:
            for seed in (0, 23):
                verdict = getattr(checkers, name)(parse_term(source), CHECK_BOUNDS, seed)
                emit(f"{name}:{source}:{seed}", verdict.to_json())
    for name, source, bounds in ORBIT_CASES:
        verdict = getattr(checkers, name)(parse_term(source), bounds, 0)
        emit(f"orbit:{name}:{source}", verdict.to_json())
    for name, source, bounds in PLAN_CASES:
        verdict = getattr(checkers, name)(parse_term(source), bounds, 0)
        emit(f"plan:{name}:{source}:{bounds.exhaustive_budget}", verdict.to_json())
    for preset in cli.PRESETS:
        for seed in (0, 23):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["run", preset, "--report", "json", "--seed", str(seed)])
            envelope = json.loads(out.getvalue())
            del envelope["wall_time"]
            emit(f"run:{preset}:{seed}", {"exit": code, "envelope": envelope})
    rng = random.Random("dump-outputs")
    for i in range(12):
        phi = random_posex_formula(rng, ("R", "S", "U")[: 1 + i % 3], max_depth=4)
        check = verify_compilation(phi, None, Bounds(max_size=3, samples=350, sample_size=8), i)
        emit(f"compile:{i}", {"term": print_term(check.term), "report": check.report.to_json()})
    for source, radius, oriented, bounds in SYNTH_CASES:
        synthesize = synthesize_local_injective if oriented else synthesize_forward
        result = synthesize(parse_term(source), radius)
        for seed in (0, 5):
            report = validate_synthesis(result, parse_term(source), bounds, seed)
            emit(f"synth:{source}:{oriented}:{seed}", report.to_json())
    synthesized = {(source, radius, oriented) for source, radius, oriented, _ in SYNTH_ORACLES}
    synthesized |= {(source, radius, oriented) for source, radius, oriented, _ in SYNTH_CASES}
    for source, radius, oriented in sorted(synthesized):
        synthesize = synthesize_local_injective if oriented else synthesize_forward
        result = synthesize(parse_term(source), radius)
        emit(f"synthesis:{source}:{radius}:{oriented}", result.to_json())
    for source, radius, symbols, oriented in REJECTED_SYNTHESES:
        synthesize = synthesize_local_injective if oriented else synthesize_forward
        try:
            synthesize(parse_term(source), radius, symbols)
        except SynthesisError as exc:
            failure = {"message": str(exc), "details": exc.details}
        else:
            failure = None
        emit(f"rejected:{source}:{radius}:{oriented}", failure)
    for source, max_radius, oriented in RADIUS_ESTIMATES:
        est = estimate_radius(parse_term(source), max_radius, oriented=oriented)
        emit(f"estimate:{source}:{max_radius}:{oriented}", {
            "radius": est.radius,
            "attempts": est.attempts,
            "failure": est.failure,
            "result": est.result and est.result.to_json(),
        })
    for lhs, rhs, signature, cls in EQUIVALENCE_CASES:
        for n, bounds in enumerate(EQUIVALENCE_BOUNDS):
            report = equivalence_report(side(lhs), side(rhs), signature, cls, bounds, n)
            emit(f"equivalence:{lhs}:{rhs}:{cls.name}:{n}", report.to_json())
    lhs, rhs, signature, cls, bounds, seed = SEAM_CASE
    report = equivalence_report(side(lhs), side(rhs), signature, cls, bounds, seed)
    emit(f"seam:{lhs}:{rhs}:{seed}", report.to_json())
    for seed in range(4):
        for name, phase in PHASES.items():
            emit(f"stream:{name}:{seed}", stream_digests(seed, phase))


if __name__ == "__main__":
    main()
