"""Span tracing for the benchmark's traced run.

`Tracer.install` wraps relalg's public functions at every place they are
bound: the defining module, each module that imported the name with
`from ... import ...`, and module-level tables that hold the function.  It
also wraps the `BulkOps` kernel methods on the class.  Each call records a
span (name, start, end, parent) in flat arrays; `uninstall` puts every
original back.  Self time and the per-layer table are derived from the
spans afterwards.  Counts come from the values the functions return.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

MARK = "_bench_traced"


def _observe_closure(counters, result):
    counters["terms.closure.evaluations"] += result.evaluations
    counters["terms.closure.relations"] += len(result.relations)


def _observe_coverage(counters, report):
    for c in report.coverage:
        key = "exhaustive" if c.mode == "exhaustive" else "sampled_bulk"
        counters[f"checkers.structures.{key}"] += c.checked
    counters["checkers.structures.sampled_scalar"] += report.random_checked


def _observe_synthesis(counters, result):
    counters["synth.types"] += result.types_considered
    counters["synth.positive_types"] += result.positive


def _observe_homs(counters, maps):
    counters["structures.homomorphisms.maps"] += len(maps)


def _observe_words(counters, words):
    counters["bulk.words"] += words.size


# (module, function, span name, observer of the returned value)
FUNCTIONS = (
    ("bulk", "bulk_eval_term", "bulk.eval_term", None),
    ("bulk", "bulk_eval_formula", "bulk.eval_formula", None),
    ("bulk", "decode_symbol_masks", "bulk.decode", None),
    ("bulk", "random_symbol_masks", "bulk.random_masks", None),
    ("terms", "eval_term", "terms.eval_term", None),
    ("terms", "semantic_closure", "terms.semantic_closure", _observe_closure),
    ("logic", "define_relation", "logic.define_relation", None),
    ("logic", "eval_formula", "logic.eval_formula", None),
    ("translate", "compile_posex", "translate.compile_posex", None),
    ("structures", "homomorphisms", "structures.homomorphisms", _observe_homs),
    ("structures", "structure_from_index", "structures.structure_from_index", None),
    ("structures", "isomorphism", "structures.isomorphism", None),
    ("structures", "random_structure", "structures.random_structure", None),
    ("checkers", "equivalence_report", "checkers.equivalence_report", _observe_coverage),
    ("checkers", "catalogue_matrix", "checkers.catalogue_matrix", None),
    ("checkers", "check_forward", "checkers.check_forward", None),
    ("checkers", "check_local", "checkers.check_local", None),
    ("checkers", "check_homomorphism_safe", "checkers.check_homomorphism_safe", None),
    ("checkers", "check_subseteq_safe", "checkers.check_subseteq_safe", None),
    ("checkers", "check_function_preserving", "checkers.check_invariants", None),
    ("checkers", "check_total_function_preserving", "checkers.check_invariants", None),
    ("checkers", "check_injective_function_preserving", "checkers.check_invariants", None),
    ("checkers", "verify_counterexample", "checkers.verify_counterexample", None),
    ("synth", "enumerate_types", "synth.enumerate_types", None),
    ("synth", "characteristic_term", "synth.characteristic_term", None),
    ("synth", "synthesize_forward", "synth.synthesize", _observe_synthesis),
    ("synth", "synthesize_local_injective", "synth.synthesize", _observe_synthesis),
    ("synth", "validate_synthesis", "synth.validate_synthesis", None),
    ("games", "ef_equiv", "games.ef_equiv", None),
    ("games", "check_union_compatibility", "games.check_union_compatibility", None),
    ("constructions", "verify_closure_bound", "constructions.verify_closure_bound", None),
    ("cli", "main", "cli.main", None),
)
GENERATORS = (("structures", "enumerate_structures", "structures.enumerate_structures"),)
BULK_METHODS = (
    ("apply", _observe_words),
    ("compose", None),
    ("prefunion", None),
    ("antidom", None),
    ("converse", None),
    ("injunion", None),
    ("semijoin", None),
    ("dom", None),
    ("ran", None),
)

# Per-layer metric -> (unit, better).  Times are per traced round; "self"
# times exclude the traced calls made inside the span.
LAYER_METRICS = {
    "bulk.eval_term.self_s": ("s", "lower"),
    "bulk.compose_s": ("s", "lower"),
    "bulk.prefunion_s": ("s", "lower"),
    "bulk.antidom_s": ("s", "lower"),
    "bulk.converse_s": ("s", "lower"),
    "bulk.injunion_s": ("s", "lower"),
    "bulk.semijoin_s": ("s", "lower"),
    "bulk.dom_ran_s": ("s", "lower"),
    "bulk.op_calls": ("count", "lower"),
    "bulk.words": ("count", "lower"),
    "bulk.eval_formula_s": ("s", "lower"),
    "bulk.eval_formula.calls": ("count", "lower"),
    "bulk.decode_s": ("s", "lower"),
    "bulk.random_masks_s": ("s", "lower"),
    "terms.eval_term_s": ("s", "lower"),
    "terms.eval_term.calls": ("count", "lower"),
    "terms.semantic_closure_s": ("s", "lower"),
    "terms.closure.evaluations": ("count", "lower"),
    "terms.closure.relations": ("count", "higher"),
    "terms.closure.relations_per_eval": ("ratio", "higher"),
    "terms.closure.relations_per_s": ("1/s", "higher"),
    "logic.define_relation_s": ("s", "lower"),
    "logic.define_relation.calls": ("count", "lower"),
    "logic.eval_formula_s": ("s", "lower"),
    "translate.compile_posex_s": ("s", "lower"),
    "structures.homomorphisms_s": ("s", "lower"),
    "structures.homomorphisms.maps": ("count", "lower"),
    "structures.enumerate_structures_s": ("s", "lower"),
    "structures.structure_from_index_s": ("s", "lower"),
    "structures.isomorphism_s": ("s", "lower"),
    "structures.random_structure_s": ("s", "lower"),
    "structures.random_structure.calls": ("count", "lower"),
    "checkers.equivalence_report_s": ("s", "lower"),
    "checkers.structures.exhaustive": ("count", "higher"),
    "checkers.structures.sampled_bulk": ("count", "higher"),
    "checkers.structures.sampled_scalar": ("count", "higher"),
    "checkers.catalogue_matrix_s": ("s", "lower"),
    "checkers.check_forward_s": ("s", "lower"),
    "checkers.check_local_s": ("s", "lower"),
    "checkers.check_homomorphism_safe_s": ("s", "lower"),
    "checkers.check_subseteq_safe_s": ("s", "lower"),
    "checkers.check_invariants_s": ("s", "lower"),
    "checkers.verify_counterexample_s": ("s", "lower"),
    "synth.enumerate_types_s": ("s", "lower"),
    "synth.types": ("count", "lower"),
    "synth.positive_types": ("count", "lower"),
    "synth.characteristic_term_s": ("s", "lower"),
    "synth.synthesize.self_s": ("s", "lower"),
    "synth.validate_synthesis_s": ("s", "lower"),
    "games.ef_equiv_s": ("s", "lower"),
    "games.ef_equiv.calls": ("count", "lower"),
    "games.check_union_compatibility_s": ("s", "lower"),
    "constructions.verify_closure_bound.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self, rs):
        self.rs = rs
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object, bool]] = []

    # --- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, observe=None):
        name_id = self._name_id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(counters, result)
            return result

        setattr(traced, MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_generator(self, fn, name):
        """One span per item drawn, so consumer work between items is excluded."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    span = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return items()

        setattr(traced, MARK, fn)
        traced.__name__ = fn.__name__
        return traced

    # --- installing -----------------------------------------------------------

    def _bind_everywhere(self, original, replacement):
        """Rebind every module-level name or table entry holding `original`."""
        for mod_name in sorted(vars(self.rs)):
            module = getattr(self.rs, mod_name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original, False))
                    setattr(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            self._undo.append((value, key, original, True))
                            value[key] = replacement

    def install(self) -> None:
        rs = self.rs
        for mod_name, fn_name, span, observe in FUNCTIONS:
            original = getattr(getattr(rs, mod_name), fn_name)
            self._bind_everywhere(original, self._wrap(original, span, observe))
        for mod_name, fn_name, span in GENERATORS:
            original = getattr(getattr(rs, mod_name), fn_name)
            self._bind_everywhere(original, self._wrap_generator(original, span))
        ops = rs.bulk.BulkOps
        for method, observe in BULK_METHODS:
            original = ops.__dict__[method]
            self._undo.append((ops, method, original, False))
            setattr(ops, method, self._wrap(original, f"bulk.{method}", observe))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original, is_entry = self._undo.pop()
            if is_entry:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # --- deriving the per-layer table -------------------------------------------

    def span_arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, name, parent

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced round, as {name: (value, unit)}."""
        start, end, name, parent = self.span_arrays()
        width = max(len(self.names), 1)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        self_time = duration - children
        total = np.bincount(name, weights=duration, minlength=width)
        own = np.bincount(name, weights=self_time, minlength=width)
        calls = np.bincount(name, minlength=width)

        def pick(table, *spans):
            return float(sum(table[self._index[s]] for s in spans if s in self._index))

        c = self.counters
        closure_s = pick(total, "terms.semantic_closure")
        values = {
            "bulk.eval_term.self_s": pick(own, "bulk.eval_term"),
            "bulk.compose_s": pick(own, "bulk.compose"),
            "bulk.prefunion_s": pick(own, "bulk.prefunion"),
            "bulk.antidom_s": pick(own, "bulk.antidom"),
            "bulk.converse_s": pick(own, "bulk.converse"),
            "bulk.injunion_s": pick(own, "bulk.injunion"),
            "bulk.semijoin_s": pick(own, "bulk.semijoin"),
            "bulk.dom_ran_s": pick(own, "bulk.dom", "bulk.ran"),
            "bulk.op_calls": pick(calls, "bulk.apply"),
            "bulk.words": c["bulk.words"],
            "bulk.eval_formula_s": pick(total, "bulk.eval_formula"),
            "bulk.eval_formula.calls": pick(calls, "bulk.eval_formula"),
            "bulk.decode_s": pick(total, "bulk.decode"),
            "bulk.random_masks_s": pick(total, "bulk.random_masks"),
            "terms.eval_term_s": pick(total, "terms.eval_term"),
            "terms.eval_term.calls": pick(calls, "terms.eval_term"),
            "terms.semantic_closure_s": closure_s,
            "terms.closure.evaluations": c["terms.closure.evaluations"],
            "terms.closure.relations": c["terms.closure.relations"],
            "logic.define_relation_s": pick(total, "logic.define_relation"),
            "logic.define_relation.calls": pick(calls, "logic.define_relation"),
            "logic.eval_formula_s": pick(total, "logic.eval_formula"),
            "translate.compile_posex_s": pick(total, "translate.compile_posex"),
            "structures.homomorphisms_s": pick(total, "structures.homomorphisms"),
            "structures.homomorphisms.maps": c["structures.homomorphisms.maps"],
            "structures.enumerate_structures_s": pick(total, "structures.enumerate_structures"),
            "structures.structure_from_index_s": pick(total, "structures.structure_from_index"),
            "structures.isomorphism_s": pick(total, "structures.isomorphism"),
            "structures.random_structure_s": pick(total, "structures.random_structure"),
            "structures.random_structure.calls": pick(calls, "structures.random_structure"),
            "checkers.equivalence_report_s": pick(total, "checkers.equivalence_report"),
            "checkers.structures.exhaustive": c["checkers.structures.exhaustive"],
            "checkers.structures.sampled_bulk": c["checkers.structures.sampled_bulk"],
            "checkers.structures.sampled_scalar": c["checkers.structures.sampled_scalar"],
            "checkers.catalogue_matrix_s": pick(total, "checkers.catalogue_matrix"),
            "checkers.check_forward_s": pick(total, "checkers.check_forward"),
            "checkers.check_local_s": pick(total, "checkers.check_local"),
            "checkers.check_homomorphism_safe_s": pick(total, "checkers.check_homomorphism_safe"),
            "checkers.check_subseteq_safe_s": pick(total, "checkers.check_subseteq_safe"),
            "checkers.check_invariants_s": pick(total, "checkers.check_invariants"),
            "checkers.verify_counterexample_s": pick(total, "checkers.verify_counterexample"),
            "synth.enumerate_types_s": pick(total, "synth.enumerate_types"),
            "synth.types": c["synth.types"],
            "synth.positive_types": c["synth.positive_types"],
            "synth.characteristic_term_s": pick(total, "synth.characteristic_term"),
            "synth.synthesize.self_s": pick(own, "synth.synthesize"),
            "synth.validate_synthesis_s": pick(total, "synth.validate_synthesis"),
            "games.ef_equiv_s": pick(total, "games.ef_equiv"),
            "games.ef_equiv.calls": pick(calls, "games.ef_equiv"),
            "games.check_union_compatibility_s": pick(total, "games.check_union_compatibility"),
            "constructions.verify_closure_bound.self_s": pick(
                own, "constructions.verify_closure_bound"
            ),
            "cli.main.self_s": pick(own, "cli.main"),
        }
        out = {name: (value / rounds, LAYER_METRICS[name][0]) for name, value in values.items()}
        evaluations = c["terms.closure.evaluations"]
        relations = c["terms.closure.relations"]
        out["terms.closure.relations_per_eval"] = (
            relations / evaluations if evaluations else 0.0,
            "ratio",
        )
        out["terms.closure.relations_per_s"] = (relations / closure_s if closure_s else 0.0, "1/s")
        return out

    def dump(self, stem: Path, layers) -> None:
        """Write the spans (.npz) and the per-layer table (.json) next to `stem`."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        start, end, name, parent = self.span_arrays()
        np.savez(
            stem.with_suffix(".spans.npz"),
            start=start,
            end=end,
            name=name,
            parent=parent,
            names=np.array(self.names),
        )
        table = {n: {"value": v, "unit": u} for n, (v, u) in layers.items()}
        stem.with_suffix(".layers.json").write_text(json.dumps(table, indent=1) + "\n")
