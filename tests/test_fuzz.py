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

A second set of cases writes one input as bytes no tree mutation spells:
truncated text, random bytes, text that is not UTF-8 (a stray byte or UTF-16),
and ``1e999``, ``-1e999``, ``NaN``, ``Infinity`` or ``-Infinity`` in one
numeric field (image sizes, boxes, scores, class and vocabulary ids, deficit
counts, report values and config values).  Each such case is run three
times: on an empty load cache, on a warm one that holds the entries of the
unmutated inputs, and with the cache directory under a regular file, where
every store fails.  Each run must exit 2, 3 or 4 with the same single JSON
error line and leave no out-dir.
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


def _write(path: Path, name: str, content, edit=str.encode) -> None:
    """``content`` as the input ``name`` reads: a report directory of one file
    per model, prediction rows as JSON lines, anything else as one JSON file.
    ``edit`` turns each file's JSON text into the bytes written."""
    if name in ("a", "b"):
        path.mkdir()
        for model, report in (content.items() if isinstance(content, dict) else ()):
            (path / f"{model}.json").write_bytes(edit(json.dumps(report)))
    elif name == "preds" and isinstance(content, list):
        path.write_bytes(edit("".join(json.dumps(row) + "\n" for row in content)))
    else:
        path.write_bytes(edit(json.dumps(content)))


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


# ---------------------------------------------------------------------------
# Text-level cases, each on a cold, a warm and an unwritable load cache
# ---------------------------------------------------------------------------

TEXT_CASES = 45  # random ones, after one non-finite case per numeric field
BAD_TEXT = ["truncated", "garbage", "not utf-8", "utf-16"]
NONFINITE = ["1e999", "-1e999", "NaN", "Infinity", "-Infinity"]
_MARK = "@nonfinite@"  # a string json.dumps leaves as it is, swapped for the token
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3\x28", b"\xe2\x82", b"\xed\xa0\x80"]


def _numeric_fields(tree, path=()) -> dict[tuple, list[list]]:
    """The paths to the numbers (bools excluded) in ``tree``, by field: the
    path with list indices written as ``*``."""
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return {tuple("*" if isinstance(k, int) else k for k in path): [list(path)]}
    fields: dict[tuple, list[list]] = {}
    if isinstance(tree, (dict, list)):
        for key, child in tree.items() if isinstance(tree, dict) else enumerate(tree):
            for field, paths in _numeric_fields(child, (*path, key)).items():
                fields.setdefault(field, []).extend(paths)
    return fields


def _tree(name: str, target: str, root: Path):
    """The content of ``target`` in a case of ``name`` under ``root``: a golden
    input, or the config file that holds every parameter; plus those parameters."""
    command, inputs, params = COMMANDS[name]
    values = {**params, **{key: str(root / key) for key in inputs}}
    return ({command: values} if target == "config" else inputs[target]), values


def _text_specs(rng: random.Random):
    """``(command name, target, kind, field)`` of every text-level case: first
    a non-finite number in each numeric field of each input and config, an
    input shared by several commands under the first, then random ones.  The
    ``meta`` block of ``augmented.json`` is no field: loads ignore it."""
    done = set()
    for name, (_, inputs, _) in COMMANDS.items():
        for target in (*inputs, "config"):
            owner = name if target == "config" else id(inputs[target])
            for field in _numeric_fields(_tree(name, target, Path())[0]):
                if field[0] != "meta" and (owner, field) not in done:
                    done.add((owner, field))
                    yield name, target, "nonfinite", field
    for _ in range(TEXT_CASES):
        name = rng.choice(list(COMMANDS))
        yield name, rng.choice([*COMMANDS[name][1], "config"]), rng.choice(BAD_TEXT), None


def _truncated(rng: random.Random, data: bytes) -> bytes:
    """A prefix of ``data`` that cuts a JSON value open: it ends neither at a
    line end nor just after a closing brace, where a JSON-lines file may end."""
    cuts = [n for n in range(1, len(data.rstrip())) if data[n - 1 : n] not in (b"}", b"\n")]
    return data[: rng.choice(cuts)]


def _text_case(rng: random.Random, root: Path, spec) -> tuple[list[str], str]:
    """Write the case ``spec`` of :func:`_text_specs` under ``root``; its argv
    and description."""
    name, target, kind, field = spec
    command, inputs, _ = COMMANDS[name]
    tree, values = _tree(name, target, root)
    done = kind
    if kind == "nonfinite":
        token = rng.choice(NONFINITE)
        tree = _replaced(tree, rng.choice(_numeric_fields(tree)[field]), _MARK)
        done = f"{field} <- {token}"

    def edit(text: str) -> bytes:
        if kind == "nonfinite":
            return text.replace(f'"{_MARK}"', token).encode()
        if kind == "truncated":
            return _truncated(rng, text.encode())
        if kind == "garbage":  # random bytes, or random printable ASCII for the decoder
            n = rng.randint(8, 256)
            return rng.randbytes(n) if rng.random() < 0.5 else bytes(
                rng.randrange(32, 127) for _ in range(n))
        if kind == "not utf-8":
            at = rng.randrange(len(text) + 1)
            return text[:at].encode() + rng.choice(NOT_UTF8) + text[at:].encode()
        return text.encode("utf-16")

    for key, content in inputs.items():
        if key == target:
            _write(root / key, key, tree, edit)
        else:
            _write(root / key, key, content)
    argv = [command, "--out-dir", str(root / "out")]
    if target == "config":
        (root / "config.json").write_bytes(edit(json.dumps(tree)))
        argv += ["--config", str(root / "config.json")]
    else:
        argv += [arg for key, value in values.items() for arg in (_flag(key), str(value))]
    return argv, f"{name}: {target} {done}"


def _warm_cache(root: Path, capsys) -> None:
    """Fill the load cache with every command's run on its unmutated inputs."""
    for name in COMMANDS:
        case = root / f"valid_{name}"
        case.mkdir()
        for key, content in COMMANDS[name][1].items():
            _write(case / key, key, content)
        values = _tree(name, "config", case)[1]
        argv = [arg for key, value in values.items() for arg in (_flag(key), str(value))]
        assert main([COMMANDS[name][0], "--out-dir", str(case / "out"), *argv]) == 0, name
    capsys.readouterr()


def test_unreadable_and_nonfinite_inputs_exit_with_one_error_on_every_cache(
        tmp_path, monkeypatch, capsys):
    warm, blocked = tmp_path / "warm", tmp_path / "blocked"
    blocked.write_text("a regular file, so no cache directory can be made under it")
    monkeypatch.setenv("XDG_CACHE_HOME", str(warm))
    _warm_cache(tmp_path, capsys)
    rng = random.Random(20261021)
    failures = []
    for i, spec in enumerate(_text_specs(rng)):
        root = tmp_path / f"case{i}"
        root.mkdir()
        argv, case = _text_case(rng, root, spec)
        outcomes = {}
        for cache, where in (("cold", tmp_path / f"cold{i}"), ("warm", warm),
                             ("blocked", blocked)):
            monkeypatch.setenv("XDG_CACHE_HOME", str(where))
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the failure reported
                failures.append(f"{case} ({cache} cache): raised {exc!r}")
                continue
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith('{"error"')]
            left = (root / "out").exists()
            if code not in (2, 3, 4) or len(errors) != 1 or left or "Traceback" in err:
                failures.append(f"{case} ({cache} cache): exit {code}, "
                                f"{len(errors)} error lines, out-dir left {left}")
            outcomes[cache] = (code, errors)
        if len(set(map(repr, outcomes.values()))) > 1:
            failures.append(f"{case}: the load cache changed the outcome {outcomes}")
    assert failures == []
