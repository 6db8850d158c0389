"""The construction commands (stats, balance, augment, balance --augmented,
zeroshot) and compare never import numpy, nor requests with mock ports; only
scoring loads the evaluator, and evaluate leaves numpy.ma unloaded and the
environment as it found it.  balance
does not import statistics.  Every name the perfbench tracer wraps, and every name the
package and the CLI re-export from the evaluator, resolves.  No module sums floats
with a ``sum`` whose rounding depends on the interpreter."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bright_kit

GOLDEN = Path(__file__).parent / "fixtures" / "golden_build"
SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"

SCRIPT = """
import sys
import bright_kit
import bright_kit.cli
assert "numpy" not in sys.modules, "import"
out = sys.argv[1]
common = ["--pool", "pool.json", "--vocab", "universe.json"]
balance = ["balance", *common, "--top-k", "10", "--l-test", "4", "--l-train", "8",
           "--epochs", "5", "--seed", "11"]
assert bright_kit.cli.main([*balance, "--out-dir", out + "/balance"]) == 0
assert "statistics" not in sys.modules, "balance"
assert bright_kit.cli.main(["stats", *common, "--out-dir", out + "/stats"]) == 0
assert bright_kit.cli.main(["augment", "--deficits", out + "/balance/deficits.json",
                            "--refs", "pool.json", "--vocab", "universe.json", "--ports", "mock",
                            "--budget", "6", "--seed", "11", "--out-dir", out + "/augment"]) == 0
assert bright_kit.cli.main([*balance, "--augmented", out + "/augment/augmented.json",
                            "--out-dir", out + "/balance_fill"]) == 0
assert bright_kit.cli.main(["zeroshot", "--seen", "seen.json", "--universe", "universe.json",
                            "--pool", "pool.json", "--per-class", "3", "--classes", "3",
                            "--epochs", "2", "--seed", "11", "--out-dir", out + "/zeroshot"]) == 0
assert "numpy" not in sys.modules, "construction commands"
assert "requests" not in sys.modules, "mock ports"
assert "bright_kit.evaluator" not in sys.modules
from bright_kit import MatchConfig, PredictionTable, evaluate
assert evaluate is sys.modules["bright_kit.evaluator"].evaluate
assert "numpy" in sys.modules
print("ok")
"""


def _run_script(script: str, *args, cwd=None) -> None:
    """Run ``script`` in a new interpreter that imports this checkout's package;
    it must print ``ok`` last."""
    src = str(Path(bright_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


def test_construction_commands_do_not_import_numpy(tmp_path):
    _run_script(SCRIPT, tmp_path, cwd=GOLDEN)


COMPARE = """
import sys
import bright_kit.cli
out = sys.argv[1]
assert bright_kit.cli.main(["compare", "--a", out + "/a", "--b", out + "/b",
                            "--out-dir", out + "/cmp"]) == 0
assert "numpy" not in sys.modules
print("ok")
"""


def test_compare_does_not_import_numpy(tmp_path):
    maps = json.loads((Path(__file__).parent / "fixtures" / "detector_maps.json").read_text())
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for model, mean_ap in maps[side].items():
            (tmp_path / side / f"{model}.json").write_text(json.dumps({"mean_ap": mean_ap}))
    _run_script(COMPARE, tmp_path)
    assert (tmp_path / "cmp" / "ranking.json").exists()


EVALUATE = """
import os, sys
import bright_kit.cli
before = dict(os.environ)
assert bright_kit.cli.main(["evaluate", "--gt", "gt.json", "--preds", "preds.jsonl",
                            "--vocab", "vocab.json", "--out-dir", sys.argv[1]]) == 0
assert "numpy" in sys.modules
assert "numpy.ma" not in sys.modules
assert dict(os.environ) == before, "environment"
print("ok")
"""


def test_evaluate_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a process about 10 ms to import; np.percentile loads it.
    # Only the process entry sets OPENBLAS_NUM_THREADS, so a caller running a
    # scoring command through main keeps its environment.
    _run_script(EVALUATE, tmp_path / "evaluate", cwd=Path(__file__).parent / "fixtures" / "golden")


def test_unknown_attribute_still_raises():
    import bright_kit.cli

    for module in (bright_kit, bright_kit.cli):
        try:
            module.no_such_name
        except AttributeError:
            continue
        raise AssertionError(f"{module.__name__}.no_such_name resolved")


def test_every_traced_name_resolves(monkeypatch):
    # The tracer skips a name it cannot find, so a dropped import would only
    # shrink the traced output; this makes it an error.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    points = [(module, attr) for module, attr, *_ in spans.WRAP_POINTS] + [("cli", "mock_ports")]
    missing = [f"bright_kit.{module}.{attr}" for module, attr in points
               if not hasattr(importlib.import_module(f"bright_kit.{module}"), attr)]
    assert missing == []


def test_every_lazy_evaluator_name_resolves():
    # Both lazy re-exports look their names up on the evaluator only when
    # asked, so a name it no longer defines would fail at first use.
    import bright_kit.cli
    import bright_kit.evaluator

    names = bright_kit._EVALUATOR_NAMES | set(bright_kit.cli._SCORING_NAMES)
    assert sorted(n for n in names if not hasattr(bright_kit.evaluator, n)) == []


# Each thread test runs in a fresh process, since numpy sizes OpenBLAS's pool
# once, when it first loads.  The process enters through cli.run, with a main
# that loads the evaluator as a scoring command does and reports the threads.
ENTRY = """
import os, sys
import bright_kit.cli as cli

def main():
    cli._bind_scoring()
    assert "numpy" in sys.modules
    print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
    return 0

cli.main = main
cli.run()
"""


def _openblas() -> bool:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy too old to report its build as a dict
        return False
    return "openblas" in blas.get("name", "").lower()


needs_openblas = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or not _openblas(),
    reason="needs /proc/self/task and numpy built with OpenBLAS")


def _entry_in_subprocess(openblas_threads: str | None = None) -> list[str]:
    """Thread count and OPENBLAS_NUM_THREADS once a process entered through
    ``cli.run`` has loaded the evaluator."""
    src = str(Path(bright_kit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run([sys.executable, "-c", ENTRY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@needs_openblas
def test_the_entry_loads_numpy_with_one_thread():
    assert _entry_in_subprocess() == ["1", "1"]


@needs_openblas
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="OpenBLAS starts no worker on one CPU")
def test_the_entry_keeps_a_thread_count_the_user_set():
    assert _entry_in_subprocess("2") == ["2", "2"]


ENVIRON = {"os.environ", "environ"}
ENVIRON_WRITERS = {"setdefault", "update", "pop", "popitem", "clear"}


def _environ_writes(tree: ast.AST, where: str) -> list[str]:
    """``where.<enclosing defs>`` of each statement in ``tree`` that assigns,
    deletes or otherwise writes a key of ``os.environ``, or calls
    ``os.putenv``/``os.unsetenv``."""
    found = []

    def visit(node, where):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(n, ast.Subscript) and ast.unparse(n.value) in ENVIRON
               for target in targets for n in ast.walk(target)):
            found.append(where)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                ast.unparse(node.func.value) in ENVIRON and node.func.attr in ENVIRON_WRITERS
                or ast.unparse(node.func) in ("os.putenv", "os.unsetenv")):
            found.append(where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, where)
    return found


def test_only_the_process_entry_writes_the_environment():
    # A library call that sets a variable, even for a moment, is seen by every
    # thread of its caller; the process entry owns the process's environment.
    found = []
    for path in sorted(Path(bright_kit.__file__).parent.glob("*.py")):
        found += _environ_writes(ast.parse(path.read_text()), path.stem)
    assert found == ["cli.run"]


def test_evaluator_calls_no_blas():
    # A command process loads numpy with one OpenBLAS thread (cli.run); that
    # costs nothing only while the evaluator calls no BLAS or LAPACK routine.
    tree = ast.parse((Path(bright_kit.__file__).parent / "evaluator.py").read_text())
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Name) and node.id in blas:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in blas:
            found.append(node.attr)
        elif isinstance(node, ast.alias) and blas & set(node.name.split(".")):
            found.append(node.name)
    assert found == []


# Integer sums, which no summation order can change.
INTEGER_SUMS = {"augment.GenerationResult.paraphrase_events",
                "augment.GenerationResult.generator_calls", "balancer.build_splits",
                "cache._evict", "stats.distribution"}
FLOAT_SUMS = {"sum", "math.fsum", "statistics.mean", "statistics.fmean"}


def _sum_calls(tree: ast.AST, where: str) -> list[str]:
    """``where.<enclosing defs>`` of each call in ``tree`` to a name in
    :data:`FLOAT_SUMS`, spelled as such or imported from its module."""
    imported = {a.asname or a.name: f"{node.module}.{a.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    found = []

    def visit(node, where):
        if isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if imported.get(func, func) in FLOAT_SUMS:
                found.append(where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, where)
    return found


def test_no_module_sums_floats_with_an_interpreter_dependent_sum():
    # Python 3.12 made the builtin sum compensated for floats, so an artifact
    # summed with it would differ between interpreters; floats are summed in
    # explicit left folds, and only the named integer sums call it.
    found = []
    for path in sorted(Path(bright_kit.__file__).parent.glob("*.py")):
        found += _sum_calls(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == sorted(INTEGER_SUMS)
