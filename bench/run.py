"""relalg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/` of
that checkout; without it the benchmark exits with code 2 and prints no
result.  The run is one process and one thread: it sets up the workload
several times (re-importing relalg each time), then repeats whole rounds of
the workload's operations while the next round is expected to end within
`--seconds`, always doing at least one.  It checks the outputs of the
first round against independent routes and every later round against the
first, and prints one JSON object as the last line of standard output.

With `--trace 1` one untraced round comes first, then the tracer wraps the
program's public functions and the traced rounds give the per-layer table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MODULES = (
    "bulk",
    "checkers",
    "cli",
    "constructions",
    "games",
    "logic",
    "structures",
    "synth",
    "terms",
    "translate",
)
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "structures_per_s": "1/s",
    "term_nodes": "count",
    "peak_rss_mb": "MB",
}


class MissingProgram(RuntimeError):
    pass


def fresh_import():
    """Import relalg from this checkout's src/, discarding any earlier import."""
    if not (SRC / "relalg" / "__init__.py").is_file():
        raise MissingProgram(f"no relalg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "relalg" or m.startswith("relalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("relalg")
    if Path(package.__file__).resolve().parent != SRC / "relalg":
        raise MissingProgram(f"relalg resolved to {package.__file__}, outside {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"relalg.{m}") for m in MODULES}
    )


def one_round(ops):
    """Run every operation once; returns (wall seconds, per-operation records)."""
    records = []
    started = time.perf_counter()
    for label, op in ops:
        t0 = time.perf_counter()
        try:
            outcome = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            records.append((label, time.perf_counter() - t0, None, repr(exc)))
            continue
        records.append((label, time.perf_counter() - t0, outcome, None))
    return time.perf_counter() - started, records


def repeat_rounds(ops, seconds):
    """Whole rounds while the next is expected to end in time; at least one."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(one_round(ops))
        elapsed = time.perf_counter() - started
        if elapsed + rounds[-1][0] > seconds:
            return rounds


def _nearest_rank(values, q):
    """The q-th percentile by nearest rank: an order statistic that stays the
    same verdict kind when a run fits one round more or less."""
    return sorted(values)[math.ceil(q / 100 * len(values)) - 1]


def run(workload_name, seed, seconds, trace, small=False, trace_dir=None):
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rs = fresh_import()
        inputs = workload.build(rs, seed, small)
        setup_times.append(time.perf_counter() - t0)
    ops = workload.operations(rs, inputs)

    if trace:
        import tracer as tracing

        baseline = one_round(ops)
        tracer = tracing.Tracer(rs)
        tracer.install()
        try:
            rounds = repeat_rounds(ops, seconds)
        finally:
            tracer.uninstall()
        checked_rounds = [baseline] + rounds
    else:
        rounds = checked_rounds = repeat_rounds(ops, seconds)
    # Read before the check phase, whose own work could otherwise set the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    first: dict[str, object] = {}
    digests: dict[str, object] = {}
    problems: list[str] = []
    verdict_times, structures, sweep_s = [], 0, 0.0
    for _, records in checked_rounds:
        for label, elapsed, outcome, error in records:
            attempted += 1
            if outcome is None or not outcome.ok:
                failed += 1
                reason = error or "verdict disagrees with the known answer"
                print(f"operation failed: {label}: {reason}", file=sys.stderr)
                continue
            verdict_times.append(elapsed)
            structures += outcome.structures
            sweep_s += outcome.sweep_s
            digest = workload.digest(outcome)
            if label not in first:
                first[label] = outcome.output
                digests[label] = digest
            elif digests[label] != digest:
                problems.append(f"{label}: output differs between rounds")
    problems += workload.check(rs, inputs, first)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    walls = [wall for wall, _ in rounds]
    if trace:
        layers = tracer.layer_metrics(len(rounds))
        layers["trace.overhead_s"] = (statistics.median(walls) - baseline[0], "s")
        if trace_dir is not None:
            tracer.dump(Path(trace_dir) / f"{workload_name}-seed{seed}", layers)
        metrics = layers
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "verdict_p50_s": statistics.median(verdict_times) if verdict_times else 0.0,
            "verdict_p90_s": _nearest_rank(verdict_times, 90) if verdict_times else 0.0,
            "structures_per_s": structures / sweep_s if sweep_s else 0.0,
            "term_nodes": workload.term_nodes(rs, inputs, first),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    try:
        result = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            trace_dir=BENCH_DIR / "traces" if args.trace else None,
        )
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        width = max(len(n) for n in result["metrics"])
        for name, m in result["metrics"].items():
            print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
