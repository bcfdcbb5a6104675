"""Command-line workbench entry point.

Every subcommand emits either a human-readable text report or a JSON
envelope (--report json) of the shape

    {"schema": 1, "command": ..., "verdict": ..., "payload": ...,
     "bounds": ..., "seed": ..., "wall_time": ...}

which is byte-stable across runs except for wall_time; seed is null for a
subcommand that takes no --seed.  Exit codes: 0 for pass (or a purely
informational command), 1 for a failed check or a negative verdict, 2 for
usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from . import constructions as cx
from . import terms as tm
from .checkers import (
    Bounds,
    CheckError,
    catalogue_matrix,
    check_forward,
    check_function_preserving,
    check_homomorphism_safe,
    check_injective_function_preserving,
    check_local,
    check_subseteq_safe,
    check_total_function_preserving,
)
from .games import GameError, check_union_compatibility, ef_equiv, min_distinguishing_rank
from .logic import LogicError, eval_formula, parse_formula, print_formula
from .parsing import ParseError
from .structures import (
    StructureError,
    ball,
    isomorphism,
    load_structure,
    structure_to_json,
)
from .synth import (
    SynthesisError,
    estimate_radius,
    synthesize_forward,
    synthesize_local_injective,
    validate_synthesis,
)
from .translate import TranslateError, compile_posex, verify_compilation

_CHECKS = {
    "fp": check_function_preserving,
    "tfp": check_total_function_preserving,
    "ifp": check_injective_function_preserving,
    "homsafe": check_homomorphism_safe,
    "subsafe": check_subseteq_safe,
}

# Options that a subcommand reads only under a switch or in one mode:
# (switch, the mode that reads them or None for any use of the switch,
# options).
_GATED = {
    "translate": ("check", None, ("seed", "max_size", "samples")),
    "synth": ("validate_size", None, ("seed", "samples")),
    "ef": ("mode", "union-compat", ("seed", "max_size", "samples")),
}

PRESETS = (
    "replay:matrix",
    "replay:separation",
    "replay:lasso",
    "replay:synthesis",
    "replay:union-compat",
)


class _Outcome:
    def __init__(self, status: str, payload, text: list[str], bounds: dict | None = None):
        if status not in ("pass", "fail", "ok"):
            raise ValueError(status)
        self.status = status
        self.payload = payload
        self.text = text
        self.bounds = bounds


def _bounds_from(args) -> Bounds:
    fields = {}
    if getattr(args, "max_size", None) is not None:
        fields["max_size"] = args.max_size
    if getattr(args, "samples", None) is not None:
        fields["samples"] = args.samples
    return Bounds(**fields)


def _term_from(args) -> tm.Term:
    if getattr(args, "term_file", None):
        loaded = tm.load_terms(args.term_file)
        if len(loaded) != 1:
            raise ParseError(f"expected one term in {args.term_file}, found {len(loaded)}")
        return loaded[0]
    if getattr(args, "term", None):
        return tm.parse_term(args.term)
    raise ParseError("a term is required (positional or --term-file)")


def _formula_from(args):
    if getattr(args, "formula_file", None):
        with open(args.formula_file, encoding="utf-8") as fh:
            return parse_formula(fh.read())
    if getattr(args, "formula", None):
        return parse_formula(args.formula)
    raise ParseError("a formula is required (positional or --formula-file)")


def _csv(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _coverage_line(report) -> str:
    """An equivalence report's coverage, one size after another: labelled
    structures checked of the total, and how many were evaluated."""
    sizes = (
        f"size {c.size} {c.mode} {c.checked}/{c.total} ({c.representatives} evaluated)"
        for c in report.coverage
    )
    return "coverage: " + (", ".join(sizes) or "none")


# --- subcommand handlers -----------------------------------------------------------


def _cmd_eval(args) -> _Outcome:
    term = _term_from(args)
    structure = load_structure(args.structure)
    pairs = sorted(tm.eval_term(term, structure))
    payload = {"term": tm.print_term(term), "pairs": [list(p) for p in pairs]}
    text = [f"term: {payload['term']}", f"pairs ({len(pairs)}):"]
    text += [f"  ({a}, {b})" for a, b in pairs]
    return _Outcome("ok", payload, text)


def _cmd_translate(args) -> _Outcome:
    phi = _formula_from(args)
    term = compile_posex(phi)
    payload = {"formula": print_formula(phi), "term": tm.print_term(term)}
    text = [f"formula: {payload['formula']}", f"term:    {payload['term']}"]
    status = "ok"
    bounds = None
    if args.check:
        b = _bounds_from(args)
        check = verify_compilation(phi, term, b, args.seed)
        payload["check"] = check.report.to_json()
        bounds = b.to_json()
        status = "pass" if check.ok else "fail"
        text.append(f"check:   {'equivalent' if check.ok else 'MISMATCH'}")
        text.append(_coverage_line(check.report))
        if not check.ok:
            text.append(f"  counterexample: {payload['check']['counterexample']}")
    return _Outcome(status, payload, text, bounds)


def _cmd_check(args) -> _Outcome:
    term = _term_from(args)
    bounds = _bounds_from(args)
    if args.property in _CHECKS:
        verdict = _CHECKS[args.property](term, bounds, args.seed)
    elif args.property == "forward":
        verdict = check_forward(term, bounds, args.seed, args.max_radius)
    else:
        verdict = check_local(term, bounds, args.seed, args.max_radius)
    payload = verdict.to_json()
    text = [f"{verdict.property}: {verdict.status}"]
    if verdict.counterexample:
        text.append(f"  counterexample kind: {verdict.counterexample['kind']}")
    return _Outcome(
        "pass" if verdict.passed else "fail", payload, text, verdict.bounds
    )


def _cmd_matrix(args) -> _Outcome:
    bounds = None
    if args.max_size is not None or args.samples is not None:
        bounds = Bounds(
            max_size=args.max_size,
            samples=args.samples if args.samples is not None else 200,
            sample_size=6,
        )
    report = catalogue_matrix(bounds, args.seed)
    payload = report.to_json()
    text = [f"{'operation':<12} homsafe subsafe fp      forward"]
    for op, row in report.verdicts.items():
        cells = "".join(
            f"{'yes' if row[col].passed else 'no':<8}" for col in row
        )
        text.append(f"{op:<12} {cells}")
    text.append(
        "matrix agrees with expectations"
        if report.agrees
        else f"MISMATCHES: {report.mismatches}"
    )
    return _Outcome("pass" if report.agrees else "fail", payload, text)


def _cmd_construct(args) -> _Outcome:
    kind = args.kind
    if kind == "tripled-cycle":
        structure = cx.tripled_cycle(args.m)
        payload = {"structure": structure_to_json(structure)}
        text = [f"tripled cycle with m={args.m}: {structure.size()} elements"]
    elif kind == "midpoint-cycle":
        structure = cx.midpoint_cycle(args.m)
        payload = {"structure": structure_to_json(structure)}
        text = [f"midpoint cycle with m={args.m}: {structure.size()} elements"]
    elif kind == "separation":
        bundle = cx.build_separation(args.m, args.mprime)
        payload = {
            "structure": structure_to_json(bundle.structure),
            "separating": tm.print_term(bundle.separating),
            "expected_closure": {
                name: sorted(map(list, rel))
                for name, rel in bundle.expected_closure.items()
            },
        }
        text = [
            f"separation bundle m={args.m}, mprime={args.mprime}: "
            f"{bundle.structure.size()} elements",
            f"separating term: {payload['separating']}",
            f"expected closure: {len(bundle.expected_closure)} relations",
        ]
    elif kind == "sink":
        bundle = cx.build_separation(args.m, args.mprime)
        ext = cx.totalize_with_sink(bundle)
        payload = {
            "structure": structure_to_json(ext.structure),
            "recovery": {k: tm.print_term(v) for k, v in ext.recovery.items()},
            "total_separating": tm.print_term(ext.total_separating),
        }
        text = [
            f"sink totalisation: {ext.structure.size()} elements",
            f"recovery f: {payload['recovery']['f']}",
            f"recovery g: {payload['recovery']['g']}",
            f"total separating: {payload['total_separating']}",
        ]
    else:  # lasso
        structure, anchor = cx.build_lasso(args.n, args.k)
        payload = {
            "structure": structure_to_json(structure),
            "anchor": anchor,
            "probe": print_formula(cx.probe_formula()),
            "anchored_probe": print_formula(cx.anchored_probe_formula()),
        }
        text = [
            f"lasso n={args.n}, k={args.k}: {structure.size()} elements, "
            f"anchor {anchor}",
            f"anchored probe: {payload['anchored_probe']}",
        ]
    return _Outcome("ok", payload, text)


def _cmd_verify(args) -> _Outcome:
    bundle = cx.build_separation(args.m, args.mprime)
    basis = args.basis if args.basis in tm.BASES else frozenset(_csv(args.basis))
    verdict = cx.verify_closure_bound(bundle, basis, args.budget)
    separating_value = tm.eval_term(bundle.separating, bundle.structure)
    outside = separating_value not in set(bundle.expected_closure.values())
    payload = verdict.to_json()
    payload["separating_outside_closure"] = outside
    passed = verdict.passed and outside
    if passed:
        word = "pass"
    elif outside and not verdict.complete and not verdict.escapee_masks:
        # A cut run that met nothing outside the family refutes nothing.
        word = "inconclusive (budget exhausted)"
    else:
        word = "fail"
    text = [
        f"closure reached {verdict.reached} relations "
        f"(expected {verdict.expected}), "
        f"{'complete' if verdict.complete else 'budget exhausted'}",
        f"missing: {verdict.missing or 'none'}",
        f"escapees: {len(verdict.escapee_masks)}",
        f"separating term outside closure: {outside}",
        f"verdict: {word}",
    ]
    return _Outcome("pass" if passed else "fail", payload, text)


def _cmd_synth(args) -> _Outcome:
    if args.oracle_file:
        loaded = tm.load_terms(args.oracle_file)
        if len(loaded) != 1:
            raise ParseError(
                f"expected one oracle term in {args.oracle_file}, found {len(loaded)}"
            )
        oracle = loaded[0]
    elif args.oracle:
        oracle = tm.parse_term(args.oracle)
    else:
        raise ParseError("an oracle term is required (--oracle or --oracle-file)")
    symbols = _csv(args.symbols) or None
    oriented = args.mode == "local-injective"
    synthesize = synthesize_local_injective if oriented else synthesize_forward

    payload: dict = {"oracle": tm.print_term(oracle), "mode": args.mode}
    text = [f"oracle: {payload['oracle']}"]
    try:
        if args.radius is not None:
            result = synthesize(oracle, args.radius, symbols)
        else:
            estimate = estimate_radius(
                oracle, args.auto_radius, symbols, oriented
            )
            payload["attempts"] = estimate.attempts
            if estimate.radius is None:
                payload["failure"] = estimate.failure
                text.append(
                    f"no radius up to {args.auto_radius} fits: "
                    f"{estimate.failure['message']}"
                )
                return _Outcome("fail", payload, text)
            result = estimate.result
    except SynthesisError as exc:
        payload["failure"] = {"message": str(exc), "details": exc.details}
        text.append(f"synthesis failed: {exc}")
        return _Outcome("fail", payload, text)

    payload["result"] = result.to_json()
    text.append(f"radius {result.radius}: {result.positive} positive types "
                f"of {result.types_considered}")
    text.append(f"term: {payload['result']['term']}")
    text.append(
        f"term size: {tm.term_size(result.term)}, {result.nodes} DAG nodes, "
        f"{result.probes} probes, probe depth {result.probe_depth}"
    )
    status = "ok"
    bounds = None
    if args.validate_size is not None:
        samples = 200 if args.samples is None else args.samples
        b = Bounds(max_size=args.validate_size, samples=samples)
        report = validate_synthesis(result, oracle, bounds=b, seed=args.seed)
        payload["validation"] = report.to_json()
        bounds = b.to_json()
        status = "pass" if report.equivalent else "fail"
        text.append(
            f"validation: {'equivalent' if report.equivalent else 'MISMATCH'}"
        )
        text.append(_coverage_line(report))
    return _Outcome(status, payload, text, bounds)


def _cmd_ef(args) -> _Outcome:
    if args.mode == "union-compat":
        report = check_union_compatibility(
            rank=args.rank,
            samples=args.samples if args.samples is not None else 100,
            size=args.max_size if args.max_size is not None else 4,
            seed=args.seed,
            signature=_csv(args.signature) or ("f",),
        )
        payload = report.to_json()
        text = [
            "game: first-order rank",
            f"rank {report.rank} over {report.samples} quadruples: "
            f"{report.premise_hits} premise hits, {report.skipped} skipped, "
            f"{len(report.violations)} violations",
        ]
        return _Outcome("pass" if report.passed else "fail", payload, text)

    if args.left is None or args.right is None:
        raise StructureError(f"ef {args.mode} needs --left and --right")
    left = load_structure(args.left)
    right = load_structure(args.right)
    lt = _csv(args.left_tuple)
    rt = _csv(args.right_tuple)
    if args.mode == "equiv":
        verdict = ef_equiv(
            left, lt, right, rt, args.rank, max_rank=max(args.rank, args.max_rank)
        )
        payload = {"game": "first-order rank", "equivalent": verdict, "rank": args.rank}
        text = ["game: first-order rank", f"rank-{args.rank} equivalent: {verdict}"]
        return _Outcome("pass" if verdict else "fail", payload, text)
    rank = min_distinguishing_rank(left, right, lt, rt, args.max_rank)
    payload = {
        "game": "first-order rank",
        "min_distinguishing_rank": rank,
        "max_rank": args.max_rank,
    }
    text = [
        "game: first-order rank",
        f"least distinguishing rank: "
        f"{rank if rank is not None else f'none up to {args.max_rank}'}"
    ]
    return _Outcome("ok", payload, text)


# --- replay presets ---------------------------------------------------------------


def _replay_matrix(args) -> _Outcome:
    report = catalogue_matrix(Bounds(max_size=3, samples=25, sample_size=4), args.seed)
    payload = report.to_json()
    text = ["operation-by-property matrix, desk scale (exhaustive to size 3):"]
    for op, row in report.verdicts.items():
        got = ", ".join(f"{col} {'yes' if v.passed else 'no'}" for col, v in row.items())
        text.append(f"  {op}: {got}")
    text.append("all cells agree" if report.agrees else f"MISMATCHES: {report.mismatches}")
    text.append(f"verdict: {'pass' if report.agrees else 'fail'}")
    return _Outcome("pass" if report.agrees else "fail", payload, text)


def _replay_separation(args) -> _Outcome:
    bundle = cx.build_separation(2, 3)
    verdict = cx.verify_closure_bound(bundle)
    separating_value = tm.eval_term(bundle.separating, bundle.structure)
    outside = separating_value not in set(bundle.expected_closure.values())
    escaped = cx.verify_closure_bound(
        bundle, frozenset(tm.BASES["fa"]) | {"converse"}
    )
    payload = {
        "closure": verdict.to_json(),
        "separating": tm.print_term(bundle.separating),
        "separating_outside_closure": outside,
        "converse_escapes": len(escaped.escapee_masks),
    }
    passed = verdict.passed and outside and bool(escaped.escapee_masks)
    text = [
        f"two subdivided cycles side by side: {bundle.structure.size()} elements",
        f"function-algebra closure of {{f, g}}: {verdict.reached} relations "
        f"(expected {verdict.expected})",
        f"separating term {payload['separating']} stays outside: {outside}",
        f"adding converse lets {len(escaped.escapee_masks)} new relations escape",
        f"verdict: {'pass' if passed else 'fail'}",
    ]
    return _Outcome("pass" if passed else "fail", payload, text)


def _replay_lasso(args) -> _Outcome:
    m = 2
    structure, anchor = cx.build_lasso(m + 1, 2)
    trimmed = cx.remove_hub(structure)
    psi = cx.anchored_probe_formula()
    at = {"x": anchor, "y": anchor}
    holds = eval_formula(psi, structure, at)
    holds_after = eval_formula(psi, trimmed, at)
    left_ball = ball(structure, anchor, m, "forward")
    right_ball = ball(trimmed, anchor, m, "forward")
    iso = isomorphism(left_ball, (anchor,), right_ball, (anchor,))
    payload = {
        "m": m,
        "holds_with_hub": holds,
        "holds_without_hub": holds_after,
        "balls_isomorphic": iso is not None,
    }
    passed = holds and not holds_after and iso is not None
    text = [
        f"lasso with chain length {m + 3}: probe is true at {anchor}: {holds}",
        f"after removing the hub it is false: {not holds_after}",
        f"forward {m}-balls at {anchor} are isomorphic: {iso is not None}",
        f"verdict: {'pass' if passed else 'fail'}",
    ]
    return _Outcome("pass" if passed else "fail", payload, text)


def _replay_synthesis(args) -> _Outcome:
    rows = []
    ok = True
    for source, radius, oriented in (
        ("dom(f)", 1, False),
        ("f ; g", 2, False),
        ("f^", 1, True),
    ):
        oracle = tm.parse_term(source)
        synthesize = synthesize_local_injective if oriented else synthesize_forward
        result = synthesize(oracle, radius)
        report = validate_synthesis(
            result, oracle, bounds=Bounds(max_size=3, samples=150), seed=args.seed
        )
        ok = ok and report.equivalent
        rows.append(
            {
                "oracle": source,
                "radius": radius,
                "oriented": oriented,
                "positive_types": result.positive,
                "term_size": tm.term_size(result.term),
                "nodes": result.nodes,
                "probes": result.probes,
                "equivalent": report.equivalent,
            }
        )
    payload = {"oracles": rows}
    text = ["synthesis from black-box oracles, desk scale:"]
    for row in rows:
        text.append(
            f"  {row['oracle']}: radius {row['radius']}, "
            f"{row['positive_types']} positive types, term size "
            f"{row['term_size']}, validated {row['equivalent']}"
        )
    text.append(f"verdict: {'pass' if ok else 'fail'}")
    return _Outcome("pass" if ok else "fail", payload, text)


def _replay_union_compat(args) -> _Outcome:
    report = check_union_compatibility(rank=2, samples=40, size=3, seed=args.seed)
    payload = report.to_json()
    passed = report.passed and report.premise_hits > 0
    text = [
        f"rank-2 games on {report.samples} random quadruples: "
        f"{report.premise_hits} premise hits, {len(report.violations)} violations",
        f"verdict: {'pass' if passed else 'fail'}",
    ]
    return _Outcome("pass" if passed else "fail", payload, text)


_REPLAYS = {
    "replay:matrix": _replay_matrix,
    "replay:separation": _replay_separation,
    "replay:lasso": _replay_lasso,
    "replay:synthesis": _replay_synthesis,
    "replay:union-compat": _replay_union_compat,
}


def _cmd_run(args) -> _Outcome:
    return _REPLAYS[args.preset](args)


# --- parser and dispatch ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None, help="write the report to a file")
    # Each subcommand takes only those of these options that it reads, and
    # abbreviations are off, so a prefix such as --m is an error, not a guess.
    seed, gated_seed, max_size, samples = (
        argparse.ArgumentParser(add_help=False) for _ in range(4)
    )
    seed.add_argument("--seed", type=int, default=0)
    # No default, so that `main` can tell a seed given to no effect (_GATED).
    gated_seed.add_argument("--seed", type=int, default=None)
    max_size.add_argument("--max-size", type=int, default=None)
    samples.add_argument("--samples", type=int, default=None)
    bounded = [common, seed, max_size, samples]

    parser = argparse.ArgumentParser(
        prog="relalg",
        description="workbench for algebras of binary relations on finite structures",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("eval", parents=[common], help="evaluate a term on a structure")
    p.add_argument("term", nargs="?", default=None)
    p.add_argument("--term-file", default=None)
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "translate", parents=[common, gated_seed, max_size, samples],
        help="compile a positive-existential formula to a term",
    )
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--formula-file", default=None)
    p.add_argument("--check", action="store_true", help="cross-check the result")
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("check", parents=bounded, help="run one bounded property check")
    p.add_argument(
        "property",
        choices=("fp", "tfp", "ifp", "homsafe", "subsafe", "forward", "local"),
    )
    p.add_argument("term", nargs="?", default=None)
    p.add_argument("--term-file", default=None)
    p.add_argument("--max-radius", type=int, default=3)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "matrix", parents=bounded, help="the full operation-by-property matrix"
    )
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("construct", parents=[common], help="build a named structure")
    p.add_argument(
        "kind",
        choices=("tripled-cycle", "midpoint-cycle", "separation", "sink", "lasso"),
    )
    p.add_argument("-m", type=int, default=2)
    p.add_argument("--mprime", type=int, default=3)
    p.add_argument("-n", type=int, default=3)
    p.add_argument("-k", type=int, default=2)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser(
        "verify", parents=[common], help="verify the closure bound on the separation structure"
    )
    p.add_argument("target", choices=("closure",))
    p.add_argument("-m", type=int, default=2)
    p.add_argument("--mprime", type=int, default=3)
    p.add_argument("--basis", default="fa", help="named basis or comma list of operations")
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "synth", parents=[common, gated_seed, samples], help="synthesise a term from an oracle"
    )
    p.add_argument("mode", choices=("forward", "local-injective"))
    p.add_argument("--oracle", default=None, help="oracle term text")
    p.add_argument("--oracle-file", default=None, help="file with one oracle term")
    p.add_argument("--symbols", default=None, help="comma-separated relation symbols")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--auto-radius", type=int, default=3)
    p.add_argument("--validate-size", type=int, default=None)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser(
        "ef",
        parents=[common, gated_seed, max_size, samples],
        help="rank games between two structures",
    )
    p.add_argument("mode", choices=("equiv", "min-rank", "union-compat"))
    p.add_argument("--left", default=None, help="structure JSON file")
    p.add_argument("--right", default=None, help="structure JSON file")
    p.add_argument("--left-tuple", default=None)
    p.add_argument("--right-tuple", default=None)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--signature", default=None)
    p.set_defaults(handler=_cmd_ef)

    p = sub.add_parser("run", parents=[common, seed], help="run a named replay preset")
    p.add_argument("preset", choices=PRESETS)
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    switch, mode, gated = _GATED.get(args.command, (None, None, ()))
    given = [name for name in gated if getattr(args, name) is not None]
    if given and (args.mode != mode if mode else getattr(args, switch) in (None, False)):
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        reader = f"{args.command} {mode}" if mode else "--" + switch.replace("_", "-")
        print(f"error: {flags}: read only with {reader}", file=sys.stderr)
        return 2
    if gated and args.seed is None:
        args.seed = 0

    started = time.monotonic()
    try:
        outcome = args.handler(args)
    except (
        ParseError,
        LogicError,
        TranslateError,
        StructureError,
        GameError,
        cx.ConstructionError,
        CheckError,
        tm.TermError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started

    if args.report == "json":
        doc = {
            "schema": 1,
            "command": args.command,
            "verdict": outcome.status,
            "payload": outcome.payload,
            "bounds": outcome.bounds,
            "seed": getattr(args, "seed", None),
            "wall_time": round(elapsed, 3),
        }
        rendered = json.dumps(doc, indent=2, sort_keys=True)
    else:
        rendered = "\n".join(outcome.text)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return {"pass": 0, "ok": 0, "fail": 1}[outcome.status]


if __name__ == "__main__":
    raise SystemExit(main())
