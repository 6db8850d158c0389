"""The construction commands (stats, balance, augment, balance --augmented,
zeroshot) never import numpy, nor requests with mock ports; only scoring loads
the evaluator.  Every name the perfbench tracer wraps, and every name the
package and the CLI re-export from the evaluator, resolves."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
assert bright_kit.cli.main(["stats", *common, "--out-dir", out + "/stats"]) == 0
assert bright_kit.cli.main([*balance, "--out-dir", out + "/balance"]) == 0
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


def test_construction_commands_do_not_import_numpy(tmp_path):
    src = str(Path(bright_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=GOLDEN, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


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
