"""Reproduce the reference figures quoted in bench/README.md.

    python3 bench/baselines.py

Measures, single-threaded and untraced:
  * `bulk_eval_term` on the radius-2 `f ; g` synthesis output over one
    32,768-structure batch of size-4 partial-function structures, and the
    share of it spent in `BulkOps.compose`;
  * the scalar sampled phase of `equivalence_report` per 100 samples
    (sizes 1-12) for the radius-2 `f ; g` output;
  * the semantic closure of the separation structure under fa plus converse.
"""

import statistics
import time

import numpy as np

import run


def main():
    rs = run.fresh_import()
    oracle = rs.terms.parse_term("f ; g")
    started = time.perf_counter()
    result = rs.synth.synthesize_forward(oracle, 2)
    print(f"synthesize_forward(f ; g, 2): {time.perf_counter() - started:.2f} s")

    pf = rs.structures.StructureClass.PARTIAL_FUNCTIONS
    masks = rs.bulk.random_symbol_masks(np.random.default_rng(0), 32_768, 4, pf, ("f", "g"))
    ops = rs.bulk.BulkOps
    original = ops.compose
    spent = []

    def timed_compose(self, r, s):
        t0 = time.perf_counter()
        try:
            return original(self, r, s)
        finally:
            spent.append(time.perf_counter() - t0)

    totals, shares = [], []
    ops.compose = timed_compose
    try:
        for _ in range(3):
            spent.clear()
            t0 = time.perf_counter()
            rs.bulk.bulk_eval_term(result.term, 4, masks)
            totals.append(time.perf_counter() - t0)
            shares.append(sum(spent) / totals[-1])
    finally:
        ops.compose = original
    print(
        f"bulk_eval_term, {len(list(rs.terms.iter_nodes(result.term)))} DAG nodes, 32,768 size-4 "
        f"structures: {statistics.median(totals):.2f} s, compose {statistics.median(shares):.0%}"
    )

    # max_size=0 leaves only the scalar sampled phase of equivalence_report.
    scalar_only = rs.checkers.Bounds(max_size=0, samples=100, sample_size=12)
    t0 = time.perf_counter()
    report = rs.synth.validate_synthesis(result, oracle, bounds=scalar_only, seed=0)
    if not report.equivalent or report.random_checked != 100:
        raise AssertionError("scalar phase did not check 100 structures")
    print(f"scalar sampled phase, 100 samples of sizes 1-12: {time.perf_counter() - t0:.2f} s")

    bundle = rs.constructions.build_separation(2, 3)
    basis = frozenset(rs.terms.BASES["fa"]) | {"converse"}
    t0 = time.perf_counter()
    closure = rs.terms.semantic_closure(bundle.structure, basis, ("f", "g"))
    print(
        f"closure under fa + converse: {time.perf_counter() - t0:.2f} s, "
        f"{len(closure)} relations, {closure.evaluations} evaluations, complete={closure.complete}"
    )


if __name__ == "__main__":
    main()
