"""The benchmark's three workloads.

Each workload builds its inputs from the seed (`build`), lists the
operations of one round (`operations`), and checks the outputs of a round
against the reference evaluator, the formula route, the paper's known
answers or stated properties (`check`).  Program functions are always
reached through the module objects in `rs`, so a traced run sees every
call.  Every operation returns an `Outcome`; `ok` says whether its verdict
agrees with the known answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

import known
import refeval


@dataclass
class Outcome:
    ok: bool
    output: Any
    # Structures covered by an equivalence sweep, and the seconds spent
    # inside the sweep call.
    structures: int = 0
    sweep_s: float = 0.0


Op = tuple[str, Callable[[], Outcome]]


def _coverage(report) -> int:
    return sum(c.checked for c in report.coverage) + report.random_checked


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


# --- synth-validate -----------------------------------------------------------------

# Two-symbol partial-function structures up to size 3 number 4 + 81 + 4096;
# size 4 alone has 390,625, which for a radius-2 output (6.4k-7.7k DAG
# nodes) is about 24 s of bulk evaluation on a 2-core box.  The two
# radius-2 oracles therefore sweep sizes 1-3 exhaustively and sample size 4
# in bulk.  `equivalence_report` spends its budget cumulatively and gives
# each over-budget size up to 65,536 sampled structures, so one sampled
# batch at each of sizes 5-8 costs a full 65,536 at every size before it:
# about 25 s more per round for a radius-2 output.  The larger sizes are
# instead swept for the two-symbol radius-1 forward oracles (15-42 DAG
# nodes): exhaustive to size 4, then 65,536 sampled bulk structures at
# each size from 5 to 8.
_SMALL_SIZES = 4 + 81 + 4096
_TO_SIZE_4 = _SMALL_SIZES + 390_625
_SAMPLED_BATCH = 65_536
_RADIUS_2_FG = dict(max_size=4, samples=50, sample_size=12, exhaustive_budget=_SMALL_SIZES + 5 * 4096)
_RADIUS_2_FGG = dict(max_size=4, samples=50, sample_size=12, exhaustive_budget=_SMALL_SIZES + 8192)
_TO_SIZE_8 = dict(
    max_size=8, samples=200, sample_size=12, exhaustive_budget=_TO_SIZE_4 + 4 * _SAMPLED_BATCH
)
_EXHAUSTIVE_4 = dict(max_size=4, samples=200, sample_size=12)

# (oracle, radius, oriented, bounds), from acceptance criteria c07 and c08.
SYNTH_ORACLES = (
    ("f ; g", 2, False, _RADIUS_2_FG),
    ("f <+ (g ; g)", 2, False, _RADIUS_2_FGG),
    ("dom(f)", 1, False, _EXHAUSTIVE_4),
    ("~g ; f", 1, False, _TO_SIZE_8),
    ("f & g", 1, False, _TO_SIZE_8),
    ("(f & g) <+ g", 1, False, _TO_SIZE_8),
    ("~f", 1, False, _EXHAUSTIVE_4),
    ("f <+ id", 1, False, _EXHAUSTIVE_4),
    ("f ; f", 2, False, _EXHAUSTIVE_4),
    ("dom(f) ; g^", 1, True, _EXHAUSTIVE_4),
    ("f & g", 1, True, _EXHAUSTIVE_4),
    ("f^", 1, True, _EXHAUSTIVE_4),
    ("f^ ; f^", 2, True, _EXHAUSTIVE_4),
    ("f <# f^", 2, True, _EXHAUSTIVE_4),
)

_SMALL_BOUNDS = dict(max_size=3, samples=20, sample_size=6)
SMALL_SYNTH_ORACLES = (
    ("dom(f)", 1, False, _SMALL_BOUNDS),
    ("f ; f", 2, False, _SMALL_BOUNDS),
    ("f^", 1, True, _SMALL_BOUNDS),
)


class SynthValidate:
    name = "synth-validate"
    # Reference-evaluator comparisons per oracle, on structures of size 1-8.
    check_structures = 12

    def build(self, rs, seed, small=False):
        oracles = SMALL_SYNTH_ORACLES if small else SYNTH_ORACLES
        return [
            (source, rs.terms.parse_term(source), radius, oriented, rs.checkers.Bounds(**bounds))
            for source, radius, oriented, bounds in oracles
        ], seed

    def operations(self, rs, inputs) -> list[Op]:
        oracles, seed = inputs
        ops = []
        for source, oracle, radius, oriented, bounds in oracles:

            def op(oracle=oracle, radius=radius, oriented=oriented, bounds=bounds):
                synthesize = (
                    rs.synth.synthesize_local_injective if oriented else rs.synth.synthesize_forward
                )
                result = synthesize(oracle, radius)
                report, sweep_s = _timed(
                    rs.synth.validate_synthesis, result, oracle, bounds=bounds, seed=seed
                )
                basis = known.INJECTIVE_BASIS if oriented else known.FORWARD_BASIS
                ok = report.equivalent and refeval.term_ops(result.term) <= basis
                return Outcome(ok, result, _coverage(report), sweep_s)

            ops.append((f"{'oriented' if oriented else 'forward'}:{source}", op))
        return ops

    def digest(self, outcome):
        return hash(outcome.output.term), outcome.output.positive

    def check(self, rs, inputs, outputs):
        oracles, seed = inputs
        problems = []
        for source, oracle, radius, oriented, _ in oracles:
            label = f"{'oriented' if oriented else 'forward'}:{source}"
            result = outputs.get(label)
            if result is None:
                continue
            rng = refeval.seeded_rng("synth-check", seed, label)
            symbols = result.symbols
            for _ in range(self.check_structures):
                domain, rels = refeval.random_relations(
                    rng, rng.randint(1, 8), symbols, "ipf" if oriented else "pf"
                )
                got = refeval.evaluate(result.term, domain, rels)
                want = refeval.evaluate(oracle, domain, rels)
                if got != want:
                    problems.append(f"{label}: synthesized term differs from the oracle on {rels}")
                    break
        return problems

    def term_nodes(self, rs, inputs, outputs):
        return sum(refeval.term_nodes(r.term) for r in outputs.values())


# --- translate-verify ---------------------------------------------------------------

TRANSLATE_POOL = ("R", "S", "U")


class TranslateVerify:
    name = "translate-verify"
    # Formulas per round, in equal quotas per stratum: the number of
    # symbols a formula uses (1-3) and whether it uses all three variables.
    # Verification cost is set mostly by these two (the exhaustive sweep
    # grows with the symbols, the tensors with the variables), so quotas
    # keep a round's cost from swinging with what a seed happens to draw.
    formulas = 120
    small_formulas = 6
    bounds = dict(max_size=3, samples=350, sample_size=8)
    small_bounds = dict(max_size=2, samples=20, sample_size=5)
    # Formula-route comparisons per compiled term.
    check_structures = 2

    def build(self, rs, seed, small=False):
        rng = refeval.seeded_rng("translate", seed)
        strata = [(s, v) for s in (1, 2, 3) for v in (False, True)]
        quota = (self.small_formulas if small else self.formulas) // len(strata)
        filled = dict.fromkeys(strata, 0)
        formulas = []
        for draw in range(100_000):
            if len(formulas) == quota * len(strata):
                break
            phi = rs.translate.random_posex_formula(
                rng, TRANSLATE_POOL[: 1 + draw % 3], max_depth=4
            )
            info = rs.logic.classify(phi)
            key = (len(info.symbols), info.variable_count == 3)
            if filled.get(key, quota) < quota:
                filled[key] += 1
                formulas.append(phi)
        else:
            raise RuntimeError("formula strata did not fill")
        bounds = rs.checkers.Bounds(**(self.small_bounds if small else self.bounds))
        return formulas, bounds, seed

    def operations(self, rs, inputs) -> list[Op]:
        formulas, bounds, seed = inputs
        ops = []
        for i, phi in enumerate(formulas):

            def op(i=i, phi=phi):
                term = rs.translate.compile_posex(phi)
                check, sweep_s = _timed(
                    rs.translate.verify_compilation, phi, term, bounds, seed * 1000 + i
                )
                ok = check.ok and refeval.term_ops(term) <= known.HOMSAFE_BASIS
                return Outcome(ok, term, _coverage(check.report), sweep_s)

            ops.append((f"formula:{i}", op))
        return ops

    def digest(self, outcome):
        return hash(outcome.output)

    def check(self, rs, inputs, outputs):
        formulas, _, seed = inputs
        problems = []
        for i, phi in enumerate(formulas):
            term = outputs.get(f"formula:{i}")
            if term is None:
                continue
            symbols = rs.logic.classify(phi).symbols
            rng = refeval.seeded_rng("translate-check", seed, i)
            for _ in range(self.check_structures):
                domain, rels = refeval.random_relations(rng, rng.randint(1, 3), symbols, "all")
                structure = rs.structures.Structure(domain, rels)
                value = refeval.evaluate(term, domain, rels)
                wrong = [
                    (a, b)
                    for a in domain
                    for b in domain
                    if rs.logic.eval_formula(phi, structure, {"x": a, "y": b}) != ((a, b) in value)
                ]
                if wrong:
                    problems.append(f"formula {i}: compiled term and formula disagree at {wrong[0]}")
                    break
        return problems

    def term_nodes(self, rs, inputs, outputs):
        return sum(refeval.term_nodes(t) for t in outputs.values())


# --- bounded-verdicts ---------------------------------------------------------------

CLI_PRESETS = ("replay:separation", "replay:lasso", "replay:union-compat")


class BoundedVerdicts:
    name = "bounded-verdicts"
    matrix_bounds = dict(max_size=3, samples=200, sample_size=6)
    check_bounds = dict(samples=200, sample_size=6)
    identity_bounds = dict(max_size=5, samples=4000, sample_size=6)
    union_ranks = (2, 3)
    union_samples = 100
    identity_checks = 5

    def build(self, rs, seed, small=False):
        Bounds = rs.checkers.Bounds
        parse = rs.terms.parse_term
        bundle = rs.constructions.build_separation(2, 3)
        compound = [(parse(src), src, expected) for src, expected in known.COMPOUND_CHECKS]
        identities = [(parse(lhs), parse(rhs)) for lhs, rhs in known.IDENTITIES]
        if small:
            return dict(
                seed=seed,
                bundle=bundle,
                matrix=None,
                compound=compound[:1],
                check_bounds=Bounds(max_size=2, samples=10, sample_size=3),
                identities=identities[:2],
                identity_bounds=Bounds(max_size=2, samples=5, sample_size=3),
                union=(2,),
                union_samples=20,
                presets=CLI_PRESETS[1:2],
                converse_budget=2_000,
            )
        return dict(
            seed=seed,
            bundle=bundle,
            matrix=Bounds(**self.matrix_bounds),
            compound=compound,
            check_bounds=Bounds(**self.check_bounds),
            identities=identities,
            identity_bounds=Bounds(**self.identity_bounds),
            union=self.union_ranks,
            union_samples=self.union_samples,
            presets=CLI_PRESETS,
            converse_budget=100_000,
        )

    def operations(self, rs, inputs) -> list[Op]:
        ck = rs.checkers
        seed = inputs["seed"]
        ops: list[Op] = []

        if inputs["matrix"] is not None:

            def matrix():
                report = ck.catalogue_matrix(inputs["matrix"], seed)
                ok = all(
                    report.verdicts[op][col].passed == expected
                    for op, row in known.PROPERTY_TABLE.items()
                    for col, expected in zip(known.PROPERTY_COLUMNS, row)
                )
                return Outcome(ok, report)

            ops.append(("matrix", matrix))

        checks = {
            "forward": lambda t: ck.check_forward(t, inputs["check_bounds"], seed),
            "local": lambda t: ck.check_local(t, inputs["check_bounds"], seed),
            "homsafe": lambda t: ck.check_homomorphism_safe(t, inputs["check_bounds"], seed),
        }
        for term, source, expected in inputs["compound"]:
            for prop, answer in expected.items():

                def check(term=term, prop=prop, answer=answer):
                    verdict = checks[prop](term)
                    return Outcome(verdict.passed == answer, verdict)

                ops.append((f"{prop}:{source}", check))

        for rank in inputs["union"]:

            def games(rank=rank):
                report = rs.games.check_union_compatibility(
                    rank=rank, samples=inputs["union_samples"], size=4, seed=seed
                )
                return Outcome(report.passed and report.premise_hits > 0, report)

            ops.append((f"union-compat:rank{rank}", games))

        for preset in inputs["presets"]:

            def replay(preset=preset):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = rs.cli.main(["run", preset, "--report", "json", "--seed", str(seed)])
                envelope = json.loads(out.getvalue())
                return Outcome(code == 0 and envelope["verdict"] == "pass", envelope)

            ops.append((f"cli:{preset}", replay))

        for n, (lhs, rhs) in enumerate(inputs["identities"]):

            def identity(lhs=lhs, rhs=rhs):
                report, sweep_s = _timed(
                    ck.equivalence_report,
                    lhs,
                    rhs,
                    ("R", "S"),
                    rs.structures.StructureClass.ALL,
                    inputs["identity_bounds"],
                    seed,
                )
                return Outcome(report.equivalent, report, _coverage(report), sweep_s)

            ops.append((f"identity:{n}", identity))
        return ops

    def digest(self, outcome):
        out = outcome.output
        if hasattr(out, "to_json"):
            return json.dumps(out.to_json(), sort_keys=True)
        envelope = dict(out)
        envelope.pop("wall_time", None)
        return json.dumps(envelope, sort_keys=True)

    def check(self, rs, inputs, outputs):
        parse = rs.terms.parse_term
        problems = []
        matrix = outputs.get("matrix")
        if matrix is not None:
            for op, row in matrix.verdicts.items():
                for col, verdict in row.items():
                    if not verdict.passed and not refeval.counterexample_holds(
                        col, verdict.counterexample, parse
                    ):
                        problems.append(f"matrix {op}/{col}: counterexample does not hold")
        for _, source, expected in inputs["compound"]:
            for prop in expected:
                verdict = outputs.get(f"{prop}:{source}")
                if verdict is not None and not verdict.passed:
                    if not refeval.counterexample_holds(prop, verdict.counterexample, parse):
                        problems.append(f"{prop}:{source}: counterexample does not hold")

        problems += self._check_closures(rs, inputs, outputs)

        for rank in inputs["union"]:
            report = outputs.get(f"union-compat:rank{rank}")
            if report is not None and report.premise_hits + report.skipped != report.samples:
                problems.append(f"union-compat rank {rank}: hits and skips do not add up")

        expected_payloads = {
            "replay:separation": lambda p: p["closure"]["passed"]
            and p["separating_outside_closure"]
            and p["converse_escapes"] > 0,
            "replay:lasso": lambda p: p["holds_with_hub"]
            and not p["holds_without_hub"]
            and p["balls_isomorphic"],
            "replay:union-compat": lambda p: p["violations"] == [] and p["premise_hits"] > 0,
        }
        for preset in inputs["presets"]:
            envelope = outputs.get(f"cli:{preset}")
            if envelope is not None and not expected_payloads[preset](envelope["payload"]):
                problems.append(f"cli {preset}: payload contradicts the known answer")

        rng = refeval.seeded_rng("identity-check", inputs["seed"])
        for n, (lhs, rhs) in enumerate(inputs["identities"]):
            for _ in range(self.identity_checks):
                domain, rels = refeval.random_relations(rng, rng.randint(1, 4), ("R", "S"), "all")
                if refeval.evaluate(lhs, domain, rels) != refeval.evaluate(rhs, domain, rels):
                    problems.append(f"identity {n} fails under the reference evaluator")
                    break
        return problems

    def _check_closures(self, rs, inputs, outputs):
        """The two separation closures, run again untimed to read every witness.

        The timed `replay:separation` preset runs `verify_closure_bound`
        under both bases but reports only the fa verdict and the number of
        escapees, so the check phase recomputes the fa verdict and both
        semantic closures, ties them to the preset's payload, and keeps the
        fa plus converse closure in `outputs` for `term_nodes`.
        """
        bundle = inputs["bundle"]
        structure = bundle.structure
        domain = structure.domain
        rels = {n: structure.rel(n) for n in ("f", "g")}
        expected = set(bundle.expected_closure.values())
        fa = rs.constructions.verify_closure_bound(bundle, known.FA_BASIS)
        closures = {
            "fa": rs.terms.semantic_closure(structure, known.FA_BASIS, ("f", "g")),
            "fa+converse": rs.terms.semantic_closure(
                structure, known.FA_BASIS | {"converse"}, ("f", "g"), inputs["converse_budget"]
            ),
        }
        outputs["closure:fa+converse"] = closures["fa+converse"]
        problems = []
        for basis, result in closures.items():
            if set(result.order) != set(result.relations):
                problems.append(f"closure:{basis}: order and relations differ")
            for rel, witness in result.relations.items():
                if refeval.evaluate(witness, domain, rels) != rel:
                    problems.append(f"closure:{basis}: witness value differs from its relation")
                    break
        fa_family = refeval.closure(domain, rels, known.FA_BASIS)
        separating = refeval.evaluate(bundle.separating, domain, rels)
        escape = closures["fa+converse"]
        escapees = [rel for rel in escape.order if rel not in expected]
        if fa_family != expected:
            problems.append("the fa closure differs from the expected closure")
        if set(closures["fa"].relations) != expected or not closures["fa"].complete:
            problems.append("closure:fa differs from the expected closure")
        if separating in fa_family:
            problems.append("the separating value lies inside the fa closure")
        if not (fa.passed and fa.complete and fa.reached == len(fa_family)):
            problems.append(f"closure:fa reached {fa.reached}, expected {len(fa_family)}")
        if not expected <= set(escape.relations) or not escapees:
            problems.append("closure:fa+converse: converse does not escape the fa closure")
        if inputs["converse_budget"] >= 100_000 and separating not in escape:
            problems.append("the separating value is not reached once converse joins")
        replay = outputs.get("cli:replay:separation")
        if replay is not None and (
            replay["payload"]["closure"] != fa.to_json()
            or replay["payload"]["converse_escapes"] != len(escapees)
        ):
            problems.append("replay:separation disagrees with the closures")
        return problems

    def term_nodes(self, rs, inputs, outputs):
        """Nodes of the witness terms of the fa plus converse closure's escapees."""
        escape = outputs["closure:fa+converse"]
        expected = set(inputs["bundle"].expected_closure.values())
        return sum(
            refeval.term_nodes(witness)
            for rel, witness in escape.relations.items()
            if rel not in expected
        )


WORKLOADS = {w.name: w for w in (SynthValidate(), TranslateVerify(), BoundedVerdicts())}
