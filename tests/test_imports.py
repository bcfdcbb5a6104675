"""Every name a module of the package imports is read in that module,
every module-level private name it defines is read by some module, and
every name the benchmark's tracer wraps exists, and every call shape the
benchmark makes still binds."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import relalg

MODULES = sorted(Path(relalg.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names never read, except those marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_sees_unused_and_honours_noqa():
    source = (
        "import os\n"
        "from itertools import chain, product\n"
        "from math import pi  # noqa: F401  (re-exported)\n"
        "print(chain)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 2: product"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level `_function`, `_Class` and `_CONSTANT` names, by line."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def names_read(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes or imports by name."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of `sources` reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_the_private_name_scan_sees_what_no_module_reads():
    sources = {
        "a": "_USED = 1\n_SPARE = 2\ndef _helper(): return _USED\nclass _Gone: pass\n",
        "b": "from a import _helper\n_helper()\n",
    }
    assert unused_private_names(sources) == ["a line 2: _SPARE", "a line 4: _Gone"]


def test_no_unused_private_names():
    assert unused_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_the_bench_tracer_names_resolve():
    # The traced benchmark wraps these names; one removed from the package
    # would break it.  The tracer is loaded by path and only read.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, name, *_ in (*tracer.FUNCTIONS, *tracer.GENERATORS)
        if not hasattr(importlib.import_module(f"relalg.{module}"), name)
    ]
    bulk_ops = importlib.import_module("relalg.bulk").BulkOps
    missing += [f"BulkOps.{name}" for name, _ in tracer.BULK_METHODS if name not in vars(bulk_ops)]
    assert missing == []


# Every call shape bench/workloads.py, bench/baselines.py and bench/tests
# make into the package: (module, name, positional count, keyword names).
# The benchmark runs old and new code alike, so a signature cut that drops
# one of these breaks it.
BENCH_CALLS = (
    ("terms", "parse_term", 1, ()),
    ("terms", "eval_term", 2, ()),
    ("terms", "iter_nodes", 1, ()),
    ("terms", "random_term", 4, ()),
    ("terms", "semantic_closure", 3, ()),
    ("terms", "semantic_closure", 4, ()),
    ("bulk", "bulk_eval_term", 3, ()),
    ("bulk", "random_symbol_masks", 5, ()),
    ("structures", "Structure", 2, ()),
    ("logic", "classify", 1, ()),
    ("logic", "eval_formula", 3, ()),
    ("checkers", "Bounds", 0, ("max_size", "samples", "sample_size", "exhaustive_budget")),
    ("checkers", "catalogue_matrix", 2, ()),
    ("checkers", "check_forward", 2, ()),
    ("checkers", "check_forward", 3, ()),
    ("checkers", "check_local", 3, ()),
    ("checkers", "check_homomorphism_safe", 3, ()),
    ("checkers", "equivalence_report", 6, ()),
    ("synth", "synthesize_forward", 2, ()),
    ("synth", "synthesize_local_injective", 2, ()),
    ("synth", "validate_synthesis", 2, ("bounds", "seed")),
    ("translate", "random_posex_formula", 2, ("max_depth",)),
    ("translate", "compile_posex", 1, ()),
    ("translate", "verify_compilation", 4, ()),
    ("constructions", "build_separation", 2, ()),
    ("constructions", "verify_closure_bound", 2, ()),
    ("games", "check_union_compatibility", 0, ("rank", "samples", "size", "seed")),
    ("cli", "main", 1, ()),
)


@pytest.mark.parametrize("module, name, positional, keywords", BENCH_CALLS)
def test_the_bench_call_shapes_bind(module, name, positional, keywords):
    fn = getattr(importlib.import_module(f"relalg.{module}"), name)
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_the_bench_replay_command_line_parses():
    from relalg.cli import PRESETS, build_parser

    for preset in PRESETS:
        args = build_parser().parse_args(["run", preset, "--report", "json", "--seed", "3"])
        assert (args.preset, args.seed) == (preset, 3)
