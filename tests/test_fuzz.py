"""Seeded structural fuzzing of every subcommand, stdlib only.

Each case takes the golden inputs of one subcommand (``tests/fixtures/golden``,
``golden_build`` and ``detector_maps.json``), mutates one of them — the pool,
a vocabulary, the ground truth, the prediction lines, the deficits, a report
directory or the config — and runs the subcommand through ``cli.main``.  A
mutation replaces or drops one key or element, reached by a random walk from
the root, with a value outside the schema: null, a bool, ``2**70``, ``1e308``,
NaN, a lone surrogate, an empty container, or a degenerate or outside box.

Whatever the input, the run must exit 0, 2, 3 or 4 without an exception, and
a nonzero exit must print exactly one JSON error line and leave no out-dir.
Warnings are not asserted on: ``logging.basicConfig`` binds the stderr of its
first call, so where they go depends on which test ran first.
"""

import json
import math
import random
from pathlib import Path

from bright_kit.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CASES = 400


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


_BUILD, _SCORE = FIXTURES / "golden_build", FIXTURES / "golden"
POOL = _load(_BUILD / "pool.json")
UNIVERSE = _load(_BUILD / "universe.json")
SEEN = _load(_BUILD / "seen.json")
DEFICITS = _load(_BUILD / "expected" / "balance" / "deficits.json")
AUGMENTED = _load(_BUILD / "expected" / "augment" / "augmented.json")
GT = _load(_SCORE / "gt.json")
VOCAB = _load(_SCORE / "vocab.json")
PREDS = [json.loads(line) for line in (_SCORE / "preds.jsonl").read_text().splitlines()]
_MAPS = _load(FIXTURES / "detector_maps.json")
REPORTS_A, REPORTS_B = ({m: {"mean_ap": v} for m, v in _MAPS[s].items()} for s in "ab")

_BALANCE = {"top_k": 10, "l_test": 4, "l_train": 8, "epochs": 5, "seed": 11}
_SCORING = {"gt": GT, "preds": PREDS, "vocab": VOCAB}

# name -> (subcommand, {input parameter: golden content}, {other parameter: value})
COMMANDS = {
    "stats": ("stats", {"pool": POOL, "vocab": UNIVERSE}, {}),
    "balance": ("balance", {"pool": POOL, "vocab": UNIVERSE}, _BALANCE),
    "balance_fill": ("balance", {"pool": POOL, "vocab": UNIVERSE, "augmented": AUGMENTED},
                     _BALANCE),
    "augment": ("augment", {"deficits": DEFICITS, "refs": POOL, "vocab": UNIVERSE},
                {"ports": "mock", "budget": 6, "seed": 11}),
    "zeroshot": ("zeroshot", {"seen": SEEN, "universe": UNIVERSE, "pool": POOL},
                 {"per_class": 3, "classes": 3, "epochs": 2, "seed": 11}),
    "evaluate": ("evaluate", _SCORING, {"iou": 0.5}),
    "perturb": ("perturb", _SCORING, {"class_id": 3, "flip": "top"}),
    "compare": ("compare", {"a": REPORTS_A, "b": REPORTS_B}, {}),
}

_DROP = object()
VALUES = [None, True, False, 2**70, 1e308, math.nan, "\ud800", "", [], {},
          [10, 10, 10, 10], [50, 50, 10, 10], [-40, -40, -1, -1], [1e6, 1e6, 2e6, 2e6],
          [0, 0, 5], _DROP]


def _walk(rng: random.Random, tree) -> list:
    """The path to a node: from the root, step into a random child while there
    is one and a 4-in-5 draw says go on."""
    path, node = [], tree
    while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        path.append(key)
        node = node[key]
    return path


def _replaced(node, path: list, value):
    """A copy of ``node`` with the element at ``path`` set to ``value`` or, for
    ``_DROP``, removed; only the containers on the path are copied."""
    if not path:
        return value
    key, copy = path[0], node.copy()
    if len(path) > 1:
        copy[key] = _replaced(node[key], path[1:], value)
    elif value is _DROP:
        del copy[key]
    else:
        copy[key] = value
    return copy


def _mutate(rng: random.Random, tree, times: int):
    """``tree`` after ``times`` mutations, and their description."""
    done = []
    for _ in range(times):
        path = _walk(rng, tree)
        # The balancer stops at the first epoch that draws nothing, but on the
        # golden pool its ADD and REMOVE stages keep drawing every epoch, so
        # 2**70 epochs would not end; nothing else is left out.
        choices = [v for v in VALUES if not (path and path[-1] == "epochs" and v == 2**70)]
        value = rng.choice(choices if path else choices[:-1])  # the root is never dropped
        tree = _replaced(tree, path, value)
        done.append(f"{path} <- {'drop' if value is _DROP else repr(value)}")
    return tree, done


def _write(path: Path, name: str, content) -> None:
    """``content`` as the input ``name`` reads: a report directory of one file
    per model, prediction rows as JSON lines, anything else as one JSON file."""
    if name in ("a", "b"):
        path.mkdir()
        for model, report in (content.items() if isinstance(content, dict) else ()):
            (path / f"{model}.json").write_text(json.dumps(report))
    elif name == "preds" and isinstance(content, list):
        path.write_text("".join(json.dumps(row) + "\n" for row in content))
    else:
        path.write_text(json.dumps(content))


def _flag(key: str) -> str:
    return "--class" if key == "class_id" else "--" + key.replace("_", "-")


def _case(rng: random.Random, root: Path) -> tuple[list[str], str]:
    """Write one mutated case under ``root``; its argv and description."""
    name = rng.choice(list(COMMANDS))
    command, inputs, params = COMMANDS[name]
    target = rng.choice([*inputs, "config"])
    values = dict(params)
    for key, content in inputs.items():
        if key == target:
            content, done = _mutate(rng, content, rng.randint(1, 3))
        values[key] = str(root / key)
        _write(root / key, key, content)
    argv = [command, "--out-dir", str(root / "out")]
    if target == "config":  # every parameter comes from the file; one mutation
        config, done = _mutate(rng, {command: values}, 1)
        (root / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(root / "config.json")]
    else:
        argv += [arg for key, value in values.items() for arg in (_flag(key), str(value))]
    return argv, f"{name}: {target} {'; '.join(done)}"


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261019)
    failures = []
    for i in range(CASES):
        root = tmp_path / f"case{i}"
        root.mkdir()
        argv, case = _case(rng, root)
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure reported
            failures.append(f"{case}: raised {exc!r}")
            continue
        errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()
                  if line.startswith('{"error"')]
        left = (root / "out").exists()
        if code not in (0, 2, 3, 4):
            failures.append(f"{case}: exit {code}")
        elif code and (len(errors) != 1 or left):
            failures.append(f"{case}: exit {code}, {len(errors)} error lines, out-dir left {left}")
        elif not code and errors:
            failures.append(f"{case}: exit 0 with an error line")
    assert failures == []
