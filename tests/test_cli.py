import json
import logging
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bright_kit import Dataset, load_dataset, load_vocabulary, save_split, save_vocabulary
from bright_kit.augment import mock_ports
from bright_kit.cli import main

from helpers import make_dataset, make_vocab


@pytest.fixture
def workspace(tmp_path):
    vocab = make_vocab(4)
    save_vocabulary(vocab, tmp_path / "vocab.json")
    # enough supply for L_test=1 / L_train=2 over 4 classes
    lists = [[c] for c in vocab.class_ids() for _ in range(5)]
    pool = make_dataset(lists, vocab)
    save_split(pool, tmp_path / "pool.json")
    save_split(Dataset([], vocab), tmp_path / "empty.json")
    return tmp_path, vocab


def _run(*argv):
    return main([str(a) for a in argv])


def test_stats_on_empty_pool(workspace, capsys):
    tmp, _ = workspace
    code = _run("stats", "--pool", tmp / "empty.json", "--vocab", tmp / "vocab.json",
                "--out-dir", tmp / "out")
    assert code == 0
    report = json.loads((tmp / "out" / "stats.json").read_text())
    assert report["instances"] == 0
    assert report["max_count"] == 0
    assert (tmp / "out" / "per_class.csv").exists()


def test_stats_resolves_vocab_from_ref(workspace, vocab5):
    tmp, vocab = workspace
    pool = make_dataset([[1]], vocab)
    d = Dataset(pool.images, vocab, vocabulary_ref="vocab.json")
    save_split(d, tmp / "ref_pool.json")
    code = _run("stats", "--pool", tmp / "ref_pool.json", "--out-dir", tmp / "out_ref")
    assert code == 0
    report = json.loads((tmp / "out_ref" / "stats.json").read_text())
    assert report["instances"] == 1


def test_stats_without_vocab_decodes_pool_once(workspace, monkeypatch):
    # The pool is read for its vocabulary_ref and for its images in one decode.
    from bright_kit import cli, jsonio, model

    tmp, vocab = workspace
    save_split(Dataset(make_dataset([[1], [2]], vocab).images, vocab, vocabulary_ref="vocab.json"),
               tmp / "ref_pool.json")
    reads = []

    def counting_read_json(path):
        reads.append(str(path))
        return jsonio.read_json(path)

    monkeypatch.setattr(cli, "read_json", counting_read_json)
    monkeypatch.setattr(model, "read_json", counting_read_json)
    code = _run("stats", "--pool", tmp / "ref_pool.json", "--out-dir", tmp / "out_ref")
    assert code == 0
    assert reads.count(str(tmp / "ref_pool.json")) == 1
    assert reads.count(str(tmp / "vocab.json")) == 1
    report = json.loads((tmp / "out_ref" / "stats.json").read_text())
    assert report["instances"] == 2


# The last is a string that names no file: a lone surrogate.
@pytest.mark.parametrize("ref", ["5", '["vocab.json"]', '"\\ud800"'])
def test_stats_rejects_non_string_vocabulary_ref(workspace, capsys, ref):
    tmp, _ = workspace
    text = (tmp / "pool.json").read_text().replace('"vocabulary_ref": ""',
                                                   f'"vocabulary_ref": {ref}')
    assert ref in text
    (tmp / "ref_pool.json").write_text(text)
    code = _run("stats", "--pool", tmp / "ref_pool.json", "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, "AnnotationFormatError")
    assert not (tmp / "out").exists()


def _balance(tmp, pool, out):
    return _run("balance", "--pool", pool, "--vocab", tmp / "vocab.json", "--top-k", "4",
                "--l-test", "1", "--l-train", "2", "--out-dir", out)


@pytest.mark.parametrize("ref", ["5", '["v.json"]'])
def test_balance_rejects_non_string_vocabulary_ref(workspace, capsys, ref):
    tmp, _ = workspace
    text = (tmp / "pool.json").read_text().replace('"vocabulary_ref": ""',
                                                   f'"vocabulary_ref": {ref}')
    assert ref in text
    (tmp / "ref_pool.json").write_text(text)
    code = _balance(tmp, tmp / "ref_pool.json", tmp / "out")
    assert code == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {
        "type": "AnnotationFormatError",
        "message": f"{tmp / 'ref_pool.json'}: vocabulary_ref must be a string",
    }
    assert not (tmp / "out").exists()


def test_balance_reads_null_vocabulary_ref_as_empty(workspace):
    tmp, _ = workspace
    text = (tmp / "pool.json").read_text().replace('"vocabulary_ref": ""',
                                                   '"vocabulary_ref": null')
    assert "null" in text
    (tmp / "ref_pool.json").write_text(text)
    assert _balance(tmp, tmp / "ref_pool.json", tmp / "out") == 0
    for split in ("test.json", "train.json"):
        assert json.loads((tmp / "out" / split).read_text())["vocabulary_ref"] == ""


@pytest.mark.parametrize("pool", ["[1, 2]", '"images"', "{}"])
def test_stats_rejects_non_object_pool_with_or_without_vocab(workspace, capsys, pool):
    tmp, _ = workspace
    (tmp / "odd_pool.json").write_text(pool)
    errors = []
    for vocab in ([], ["--vocab", tmp / "vocab.json"]):
        code = _run("stats", "--pool", tmp / "odd_pool.json", *vocab, "--out-dir", tmp / "out")
        assert code == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        errors.append(json.loads(lines[0])["error"])
    assert errors[0] == errors[1] == {
        "type": "AnnotationFormatError",
        "message": f"{tmp / 'odd_pool.json'}: expected an object with an 'images' array",
    }
    assert not (tmp / "out").exists()


def test_stats_with_test_split_emits_ratios(workspace):
    tmp, vocab = workspace
    test = make_dataset([[1]], vocab, prefix="te")
    save_split(test, tmp / "test.json")
    code = _run("stats", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                "--test", tmp / "test.json", "--out-dir", tmp / "out")
    assert code == 0
    report = json.loads((tmp / "out" / "stats.json").read_text())
    rows = {r["class_id"]: r for r in report["ratios"]}
    assert rows[1]["ratio"] == 5.0
    assert rows[2]["ratio"] is None
    csv_text = (tmp / "out" / "per_class.csv").read_text()
    assert "undefined" in csv_text


def test_missing_vocab_exits_4_with_error_json(workspace, capsys):
    tmp, _ = workspace
    code = _run("stats", "--pool", tmp / "pool.json", "--vocab", tmp / "nope.json",
                "--out-dir", tmp / "out")
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert "nope.json" in err["error"]["path"]


def test_bad_data_exits_3(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "bad.json"
    bad.write_text("{broken")
    code = _run("stats", "--pool", bad, "--vocab", tmp / "vocab.json", "--out-dir", tmp / "out")
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "AnnotationFormatError"


def test_usage_error_exits_2(capsys):
    # an unknown command, an unknown flag and no command at all
    for argv in (["frobnicate"], ["stats", "--bogus", "1"], []):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert json.loads(lines[0])["error"]["type"] == "UsageError"


# Each subcommand's own flags; every one also takes --out-dir, --seed and --config.
_FLAGS = {
    "stats": ["--pool", "--vocab", "--test"],
    "balance": ["--pool", "--vocab", "--top-k", "--l-test", "--l-train", "--epochs",
                "--augmented"],
    "zeroshot": ["--seen", "--universe", "--pool", "--per-class", "--classes", "--epochs"],
    "augment": ["--deficits", "--refs", "--vocab", "--budget", "--target", "--ports",
                "--http-base"],
    "evaluate": ["--gt", "--preds", "--vocab", "--iou", "--ap-method"],
    "perturb": ["--class", "--gt", "--preds", "--vocab", "--iou", "--flip"],
    "compare": ["--a", "--b"],
}


@pytest.mark.parametrize("command", list(_FLAGS))
def test_help_exits_0_and_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for flag in _FLAGS[command] + ["--out-dir", "--seed", "--config"]:
        assert f" {flag} " in captured.out, flag


def _readme_commands() -> dict[str, str]:
    """Each ``bright-kit`` command of the README's CLI block, continuation
    lines joined, by subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("\n```", 1)[0]
    commands = re.findall(r"^bright-kit (\w+)((?:.*\\\n)*.*)$", block, re.M)
    return {name: rest for name, rest in commands}


def test_readme_cli_block_shows_every_flag():
    commands = _readme_commands()
    assert sorted(commands) == sorted(_FLAGS)
    missing = [(command, flag) for command, flags in _FLAGS.items() for flag in flags
               if not re.search(rf"(?<![\w-]){flag}(?![\w-])", commands[command])]
    assert missing == []


@pytest.mark.parametrize("value, level", [
    ("BASIC_FORMAT", logging.WARNING), ("_styles", logging.WARNING), ("10", logging.WARNING),
    ("debug", logging.DEBUG), ("Error", logging.ERROR),
])
def test_log_level_takes_level_names_and_falls_back_to_warning(monkeypatch, capsys, value, level):
    # logging's other names (a format string, a dict) are no level: no traceback
    root = logging.getLogger()
    was = root.level
    monkeypatch.setattr(root, "handlers", [])  # basicConfig configures a bare root only
    monkeypatch.setenv("BRIGHT_KIT_LOG", value)
    try:
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0 and root.level == level
    finally:
        root.setLevel(was)
    out, err = capsys.readouterr()
    assert out.startswith("bright-kit") and err == ""


def test_missing_required_parameter_exits_2(capsys):
    assert main(["stats"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "UsageError"
    assert "--pool" in err["error"]["message"]


def test_no_artifacts_written_on_data_error(workspace):
    tmp, _ = workspace
    bad = tmp / "bad.json"
    bad.write_text("{broken")
    out = tmp / "out_none"
    _run("stats", "--pool", bad, "--vocab", tmp / "vocab.json", "--out-dir", out)
    assert not out.exists()


def test_balance_writes_all_artifacts(workspace):
    tmp, vocab = workspace
    out = tmp / "bal"
    code = _run("balance", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                "--top-k", 4, "--l-test", 1, "--l-train", 2, "--epochs", 5,
                "--seed", 7, "--out-dir", out)
    assert code == 0
    for name in ("test.json", "train.json", "deficits.json", "audit.json"):
        assert (out / name).exists()
    test = load_dataset(out / "test.json", vocab)
    train = load_dataset(out / "train.json", vocab)
    assert test.total_instances == 4
    assert train.total_instances == 8
    assert not set(test.image_ids()) & set(train.image_ids())
    audit = json.loads((out / "audit.json").read_text())
    assert audit["meta"]["seed"] == 7
    assert audit["meta"]["toolkit_version"]
    assert audit["meta"]["config_hash"]


def test_balance_with_augmented_fill(workspace):
    tmp, vocab = workspace
    # class 4 short: only 1 image; targets need 1 test + 2 train
    lists = [[1]] * 5 + [[2]] * 5 + [[3]] * 5 + [[4]] * 2
    save_split(make_dataset(lists, vocab), tmp / "short.json")
    out = tmp / "bal1"
    code = _run("balance", "--pool", tmp / "short.json", "--vocab", tmp / "vocab.json",
                "--top-k", 4, "--l-test", 1, "--l-train", 2, "--epochs", 5,
                "--seed", 1, "--out-dir", out)
    assert code == 0
    deficits = json.loads((out / "deficits.json").read_text())
    assert deficits == {"4": 1}

    aug = make_dataset([[4]], vocab, prefix="aug")
    aug_records = [replace(r, instances=tuple(replace(i, provenance="generated") for i in r.instances))
                   for r in aug.images]
    save_split(Dataset(aug_records, vocab), tmp / "aug.json")

    out2 = tmp / "bal2"
    code = _run("balance", "--pool", tmp / "short.json", "--vocab", tmp / "vocab.json",
                "--top-k", 4, "--l-test", 1, "--l-train", 2, "--epochs", 5,
                "--seed", 1, "--augmented", tmp / "aug.json", "--out-dir", out2)
    assert code == 0
    train = load_dataset(out2 / "train.json", vocab)
    assert train.count(4) == 2
    audit = json.loads((out2 / "audit.json").read_text())
    assert audit["train"]["filled_from_augmented"] == {"4": 1}


def _zeroshot_workspace(tmp, pool_lists, provenance="real"):
    """Universe of 3 verbs x 2 objects whose seen classes 2-5 leave 1 and 6 as candidates."""
    universe = make_vocab(6, verbs=3, objects=2)
    save_vocabulary(universe, tmp / "universe.json")
    save_vocabulary(universe.subset([2, 3, 4, 5]), tmp / "seen.json")
    save_split(make_dataset(pool_lists, universe, provenance=provenance), tmp / "remainder.json")


def _zeroshot(tmp, out, *extra):
    return _run("zeroshot", "--seen", tmp / "seen.json", "--universe", tmp / "universe.json",
                "--pool", tmp / "remainder.json", "--seed", 3, *extra, "--out-dir", out)


def test_zeroshot_command(workspace):
    tmp, _ = workspace
    _zeroshot_workspace(tmp, [[1]] * 12 + [[6]] * 11)
    out = tmp / "zs"
    assert _zeroshot(tmp, out, "--per-class", 10, "--classes", 107) == 0
    report = json.loads((out / "zeroshot_report.json").read_text())
    assert report["selected_classes"] == [1, 6]
    zs = load_dataset(out / "zeroshot.json", load_vocabulary(tmp / "universe.json"))
    assert zs.total_instances == 20 and zs.count(1) == zs.count(6) == 10


def test_zeroshot_with_no_satisfiable_candidate_writes_an_empty_split(workspace, capsys):
    tmp, _ = workspace
    _zeroshot_workspace(tmp, [[1]] * 2 + [[6]])
    out = tmp / "zs_empty"
    assert _zeroshot(tmp, out, "--per-class", 10) == 0
    assert capsys.readouterr().out == f"zeroshot: 0 classes x 10 = 0 instances -> {out}\n"
    meta = ('  "meta": {\n    "config_hash": "c4d773e71bfe7a1b",\n    "seed": 3,\n'
            '    "toolkit_version": "0.1.0"\n  },\n')
    assert (out / "zeroshot.json").read_text() == (
        '{\n  "images": [],\n' + meta + '  "vocabulary_ref": ""\n}\n')
    assert (out / "zeroshot_report.json").read_text() == (
        '{\n  "excluded_insufficient_supply": {\n    "1": 2,\n    "6": 1\n  },\n'
        '  "excluded_over_budget": [],\n  "images": 0,\n  "instances": 0,\n' + meta
        + '  "removed_annotations": 0,\n  "selected_classes": [],\n  "trimmed_images": 0\n}\n')


def test_zeroshot_class_budget_zero_exits_3(workspace, capsys):
    tmp, _ = workspace
    _zeroshot_workspace(tmp, [[1]] * 2 + [[6]])
    assert _zeroshot(tmp, tmp / "zs0", "--classes", 0) == 3
    assert capsys.readouterr().err == (
        '{"error": {"message": "class_budget must be >= 1", "type": "DataError"}}\n')
    assert not (tmp / "zs0").exists()


def test_zeroshot_rejects_a_pool_with_generated_images(workspace, capsys):
    tmp, _ = workspace
    _zeroshot_workspace(tmp, [[1]] * 2 + [[6]], provenance="generated")
    assert _zeroshot(tmp, tmp / "zs_gen", "--per-class", 1) == 3
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "DataError",
        "message": "image img0000: a balanced split requires a real-only pool, "
                   "found provenance 'generated'"}}
    assert not (tmp / "zs_gen").exists()


def test_balance_augmented_without_deficits_audits_no_fill(workspace, capsys):
    tmp, vocab = workspace
    save_split(Dataset([], vocab), tmp / "aug.json")
    out = tmp / "bal_nofill"
    code = _run("balance", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                "--top-k", 4, "--l-test", 1, "--l-train", 2, "--epochs", 5,
                "--seed", 7, "--augmented", tmp / "aug.json", "--out-dir", out)
    assert code == 0
    assert capsys.readouterr().out == (
        "balance: test 4 images / 4 instances, train 8 images / 8 instances, "
        f"0 deficit classes -> {out}\n")

    def side(images, fill=""):
        return ('    "deficits": {},\n' + fill + f'    "images": {images},\n'
                f'    "instances": {images},\n    "removed_annotations": 0,\n'
                '    "trimmed_images": 0\n')

    assert (out / "audit.json").read_text() == (
        '{\n  "meta": {\n    "config_hash": "0565f2cc2b099fe5",\n    "seed": 7,\n'
        '    "toolkit_version": "0.1.0"\n  },\n  "out_of_scope_annotations": 0,\n'
        '  "test": {\n' + side(4) + '  },\n'
        '  "train": {\n' + side(8, '    "filled_from_augmented": {},\n') + '  }\n}\n')


@pytest.mark.parametrize("augmented, code, kind", [
    ("missing.json", 4, "FileNotFoundError"),
    ("vocab.json", 3, "AnnotationFormatError"),  # a vocabulary array, not annotations
])
def test_balance_loads_augmented_without_deficits(workspace, capsys, augmented, code, kind):
    # The pass leaves no deficits, and the --augmented file is still read and checked.
    tmp, _ = workspace
    out = tmp / "bal_bad_aug"
    assert _run("balance", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                "--top-k", 4, "--l-test", 1, "--l-train", 2, "--epochs", 5, "--seed", 7,
                "--augmented", tmp / augmented, "--out-dir", out) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"]["type"] == kind
    assert not out.exists()


def test_augment_command_feeds_balance_fill(workspace):
    tmp, vocab = workspace
    save_split(make_dataset([[c] for c in vocab.class_ids()], vocab, prefix="ref"),
               tmp / "refs.json")
    (tmp / "deficits.json").write_text(json.dumps({"2": 2, "3": 1}))
    out = tmp / "aug"
    code = _run("augment", "--deficits", tmp / "deficits.json", "--refs", tmp / "refs.json",
                "--vocab", tmp / "vocab.json", "--budget", 10, "--target", "per-deficit",
                "--ports", "mock", "--seed", 5, "--out-dir", out)
    assert code == 0
    augmented = load_dataset(out / "augmented.json", vocab)
    assert augmented.count(2) == 2
    assert augmented.count(3) == 1
    assert all(
        inst.provenance == "generated"
        for rec in augmented.images for inst in rec.instances
    )
    lines = (out / "attempts.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3  # accept-all mocks: one attempt per needed image
    report = json.loads((out / "augment_report.json").read_text())
    assert report["classes"]["2"]["status"] == "target_reached"


def test_augmented_json_names_its_vocabulary_through_a_symlinked_out_dir(workspace, monkeypatch):
    # The ref is relative between physical paths, so it resolves from the
    # file's directory even when the out-dir is a link to another depth, and
    # stats then needs no --vocab.
    tmp, vocab = workspace
    save_split(make_dataset([[c] for c in vocab.class_ids()], vocab, prefix="ref"),
               tmp / "refs.json")
    (tmp / "deficits.json").write_text(json.dumps({"2": 1}))
    (tmp / "far" / "away").mkdir(parents=True)
    (tmp / "link").symlink_to(tmp / "far" / "away")
    monkeypatch.chdir(tmp / "far")
    assert _run("augment", "--deficits", tmp / "deficits.json", "--refs", tmp / "refs.json",
                "--vocab", tmp / "vocab.json", "--out-dir", tmp / "link" / "aug") == 0
    augmented = json.loads((tmp / "link" / "aug" / "augmented.json").read_text())
    assert augmented["vocabulary_ref"] == "../../../vocab.json"
    assert _run("stats", "--pool", tmp / "link" / "aug" / "augmented.json",
                "--out-dir", tmp / "stats") == 0


def test_augment_target_1_is_the_smallest_accepted(workspace):
    # --target takes any integer of at least 1: 1 itself generates one image a class.
    tmp, vocab = workspace
    save_split(make_dataset([[c] for c in vocab.class_ids()], vocab, prefix="ref"),
               tmp / "refs.json")
    (tmp / "deficits.json").write_text(json.dumps({"2": 3, "3": 1}))
    out = tmp / "aug"
    code = _run("augment", "--deficits", tmp / "deficits.json", "--refs", tmp / "refs.json",
                "--vocab", tmp / "vocab.json", "--target", 1, "--out-dir", out)
    assert code == 0
    augmented = load_dataset(out / "augmented.json", vocab)
    assert (augmented.count(2), augmented.count(3)) == (1, 1)


def test_augment_survives_a_paraphraser_that_drops_the_prefix(workspace, monkeypatch):
    tmp, vocab = workspace
    save_split(make_dataset([[1]], vocab, prefix="ref"), tmp / "refs.json")
    (tmp / "deficits.json").write_text(json.dumps({"1": 1}))

    class DroppingParaphraser:
        def paraphrase(self, prompt):
            return "reworded: " + prompt

    def rejecting_ports():
        ports = mock_ports(verdicts=(False,))
        ports.paraphraser = DroppingParaphraser()
        return ports

    monkeypatch.setattr("bright_kit.cli.mock_ports", rejecting_ports)
    out = tmp / "aug_drop"
    code = _run("augment", "--deficits", tmp / "deficits.json", "--refs", tmp / "refs.json",
                "--vocab", tmp / "vocab.json", "--budget", 3, "--out-dir", out)
    assert code == 0
    rows = [json.loads(line) for line in (out / "attempts.jsonl").read_text().splitlines()]
    assert len(rows) == 3
    assert all(r["error"].startswith("prompt does not start with template prefix")
               for r in rows)
    report = json.loads((out / "augment_report.json").read_text())
    assert report["classes"]["1"]["status"] == "budget_exhausted"


def test_augment_http_requires_base_url(workspace, capsys):
    tmp, vocab = workspace
    (tmp / "deficits.json").write_text(json.dumps({"2": 1}))
    # A usage error, found before any input is read: --refs does not exist.
    code = _run("augment", "--deficits", tmp / "deficits.json", "--refs", tmp / "missing.json",
                "--vocab", tmp / "vocab.json", "--ports", "http", "--out-dir", tmp / "x")
    _assert_usage_error(code, capsys, "http_base")
    assert not (tmp / "x").exists()
    # A top-level config key applies to every subcommand, so mock ports accept one.
    save_split(make_dataset([[2]], vocab), tmp / "refs.json")
    (tmp / "config.json").write_text(json.dumps({"http_base": "http://127.0.0.1:9"}))
    code = _run("augment", "--config", tmp / "config.json", "--deficits", tmp / "deficits.json",
                "--refs", tmp / "refs.json", "--vocab", tmp / "vocab.json", "--ports", "mock",
                "--out-dir", tmp / "y")
    assert code == 0


def test_evaluate_and_perturb_commands(workspace):
    tmp, vocab = workspace
    gt = make_dataset([[1], [2]], vocab, prefix="gt")
    save_split(gt, tmp / "gt.json")
    rows = []
    for rec in gt.images:
        inst = rec.instances[0]
        rows.append({
            "image_id": rec.image_id,
            "human_box": inst.human_box.as_list(),
            "object_box": inst.object_box.as_list(),
            "class_id": inst.class_id,
            "score": 0.9,
        })
    (tmp / "preds.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    out = tmp / "eval"
    code = _run("evaluate", "--gt", tmp / "gt.json", "--preds", tmp / "preds.jsonl",
                "--vocab", tmp / "vocab.json", "--iou", 0.5, "--out-dir", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mean_ap"] == 1.0
    assert report["undefined_classes"] == [3, 4]
    assert (out / "per_class_ap.csv").exists()

    out2 = tmp / "pert"
    code = _run("perturb", "--class", 1, "--gt", tmp / "gt.json",
                "--preds", tmp / "preds.jsonl", "--vocab", tmp / "vocab.json",
                "--out-dir", out2)
    assert code == 0
    pert = json.loads((out2 / "perturb.json").read_text())
    assert pert["original_ap"] == 1.0
    assert pert["perturbed_ap"] == 0.0
    assert pert["relative_drop"] == 1.0

    out3 = tmp / "eval11"
    code = _run("evaluate", "--gt", tmp / "gt.json", "--preds", tmp / "preds.jsonl",
                "--vocab", tmp / "vocab.json", "--ap-method", "eleven_point",
                "--out-dir", out3)
    assert code == 0
    report11 = json.loads((out3 / "report.json").read_text())
    assert report11["mean_ap"] == pytest.approx(1.0)
    assert report11["meta"]["config_hash"] != report["meta"]["config_hash"]


def test_perturb_unknown_class_fails_before_loading(workspace, capsys):
    # Neither the split nor the dump exists: loading one would exit 4.
    tmp, _ = workspace
    code = _run("perturb", "--class", 99, "--gt", tmp / "missing.json",
                "--preds", tmp / "missing.jsonl", "--vocab", tmp / "vocab.json",
                "--out-dir", tmp / "pert")
    assert code == 3
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "UnknownClassError", "message": "unknown class_id 99"}}
    assert not (tmp / "pert").exists()


def test_compare_command(workspace, tmp_path, capsys):
    tmp, _ = workspace
    a_dir, b_dir = tmp / "ra", tmp / "rb"
    a_dir.mkdir(), b_dir.mkdir()
    (a_dir / "m1.json").write_text(json.dumps({"mean_ap": 30.0}))
    (a_dir / "m2.json").write_text(json.dumps({"mean_ap": 20.0}))
    (b_dir / "m1.json").write_text(json.dumps({"mean_ap": 10.0}))
    (b_dir / "m2.json").write_text(json.dumps({"mean_ap": 40.0}))
    out = tmp / "cmp"
    code = _run("compare", "--a", a_dir, "--b", b_dir, "--out-dir", out)
    assert code == 0
    ranking = json.loads((out / "ranking.json").read_text())
    rows = {r["model"]: r for r in ranking["rows"]}
    assert rows["m1"]["rank_a"] == 1 and rows["m1"]["rank_b"] == 2 and rows["m1"]["delta"] == -1
    assert rows["m2"]["delta"] == 1
    assert (out / "ranking.csv").exists()


def test_config_file_with_flag_override(workspace):
    tmp, _ = workspace
    config = {"stats": {"pool": str(tmp / "pool.json"), "vocab": str(tmp / "vocab.json"),
                        "out_dir": str(tmp / "cfg_out")}}
    (tmp / "config.json").write_text(json.dumps(config))
    code = _run("stats", "--config", tmp / "config.json")
    assert code == 0
    assert (tmp / "cfg_out" / "stats.json").exists()

    # flags override the file
    code = _run("stats", "--config", tmp / "config.json", "--out-dir", tmp / "cfg_out2")
    assert code == 0
    assert (tmp / "cfg_out2" / "stats.json").exists()


@pytest.mark.parametrize("config,message", [
    (["--pool", "x"], "config file must be a JSON object"),
    ({"stats": ["--pool", "x"]}, "config section 'stats' must be a JSON object"),
], ids=["file", "section"])
def test_config_that_is_not_an_object_exits_3(workspace, capsys, config, message):
    tmp, _ = workspace
    (tmp / "config.json").write_text(json.dumps(config))
    code = _run("stats", "--config", tmp / "config.json", "--pool", tmp / "pool.json",
                "--vocab", tmp / "vocab.json", "--out-dir", tmp / "out")
    assert code == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err == {"type": "DataError", "message": f"{tmp / 'config.json'}: {message}"}
    assert not (tmp / "out").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bright-kit" in capsys.readouterr().out


def test_seed_changes_artifacts_and_identical_seed_reproduces(workspace):
    tmp, _ = workspace
    outs = []
    for i, seed in enumerate((1, 1, 2)):
        out = tmp / f"det{i}"
        code = _run("balance", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                    "--top-k", 4, "--l-test", 1, "--l-train", 2, "--epochs", 5,
                    "--seed", seed, "--out-dir", out)
        assert code == 0
        outs.append((out / "test.json").read_bytes() + (out / "train.json").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_config_layers_are_coerced_like_flags(workspace):
    tmp, _ = workspace
    config = {"seed": 3, "stats": {"pool": str(tmp / "pool.json"),
                                   "vocab": str(tmp / "vocab.json"), "seed": "7"}}
    (tmp / "config.json").write_text(json.dumps(config))
    assert _run("stats", "--config", tmp / "config.json", "--out-dir", tmp / "a") == 0
    assert json.loads((tmp / "a" / "stats.json").read_text())["meta"]["seed"] == 7
    assert _run("stats", "--config", tmp / "config.json", "--seed", 9,
                "--out-dir", tmp / "b") == 0
    assert json.loads((tmp / "b" / "stats.json").read_text())["meta"]["seed"] == 9
    # a null command section reads as absent
    (tmp / "config.json").write_text(json.dumps({"seed": 3, "stats": None}))
    assert _run("stats", "--config", tmp / "config.json", "--pool", tmp / "pool.json",
                "--vocab", tmp / "vocab.json", "--out-dir", tmp / "c") == 0
    assert json.loads((tmp / "c" / "stats.json").read_text())["meta"]["seed"] == 3


# Required parameters of each subcommand, as flag values; none of these files
# is read, because parameter checks run before any input is opened.
_REQUIRED_ARGS = {
    "stats": {"pool": "p.json"},
    "balance": {"pool": "p.json", "vocab": "v.json", "top_k": "4", "l_test": "1",
                "l_train": "2"},
    "zeroshot": {"seen": "s.json", "universe": "u.json", "pool": "p.json"},
    "augment": {"deficits": "d.json", "refs": "r.json", "vocab": "v.json"},
    "evaluate": {"gt": "g.json", "preds": "p.jsonl", "vocab": "v.json"},
    "perturb": {"class_id": "1", "gt": "g.json", "preds": "p.jsonl", "vocab": "v.json"},
    "compare": {"a": "ra", "b": "rb"},
}

_BAD_VALUES = [
    *[(command, "seed", "abc") for command in _REQUIRED_ARGS],
    ("balance", "top_k", "many"),
    ("balance", "l_test", "1.5"),
    ("balance", "l_train", "two"),
    ("balance", "epochs", "x"),
    ("zeroshot", "per_class", "ten"),
    ("zeroshot", "classes", "1e2"),
    ("zeroshot", "epochs", ""),
    ("augment", "budget", "lots"),
    ("augment", "target", "all"),
    ("augment", "target", "0"),
    ("augment", "target", "-3"),
    ("augment", "ports", "grpc"),
    ("evaluate", "iou", "high"),
    ("evaluate", "ap_method", "median"),
    ("perturb", "class_id", "ride-horse"),
    ("perturb", "iou", "0,5"),
    ("perturb", "flip", "middle"),
]

# JSON values no flag can carry, read from the config file's top level.
_BAD_CONFIG_VALUES = [
    ("stats", "pool", 5),
    ("compare", "out_dir", 5),
    ("stats", "seed", True),
    ("balance", "top_k", 4.5),
    ("evaluate", "iou", [0.5]),
    ("augment", "ports", 1),
    ("augment", "target", {"n": 1}),
]


def _flag(key):
    return "--class" if key == "class_id" else "--" + key.replace("_", "-")


def _assert_usage_error(code, capsys, key):
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "UsageError"
    assert _flag(key) in err["message"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,key,bad", _BAD_VALUES)
def test_bad_parameter_value_exits_2(tmp_path, capsys, command, key, bad, source):
    params = {**_REQUIRED_ARGS[command], "out_dir": str(tmp_path / "out")}
    argv = [command]
    if source == "flag":
        params[key] = bad
    else:
        params.pop(key, None)
        (tmp_path / "config.json").write_text(json.dumps({command: {key: bad}}))
        argv += ["--config", str(tmp_path / "config.json")]
    argv += [arg for k, v in params.items() for arg in (_flag(k), v)]
    _assert_usage_error(main(argv), capsys, key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,bad", _BAD_CONFIG_VALUES)
def test_bad_config_value_type_exits_2(tmp_path, capsys, command, key, bad):
    params = {**_REQUIRED_ARGS[command], "out_dir": str(tmp_path / "out")}
    params.pop(key, None)
    (tmp_path / "config.json").write_text(json.dumps({key: bad}))
    argv = [command, "--config", str(tmp_path / "config.json")]
    argv += [arg for k, v in params.items() for arg in (_flag(k), v)]
    _assert_usage_error(main(argv), capsys, key)
    assert not (tmp_path / "out").exists()


def _assert_data_error(code, capsys, kind="DataError"):
    assert code == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == kind


def test_a_fractional_class_id_is_an_unknown_class(workspace, capsys):
    # int() would truncate 1.5 to class 1: stats would count it as class 1 and
    # evaluate would score the prediction as a class-1 hit.
    tmp, vocab = workspace
    pool = json.loads((tmp / "pool.json").read_text())
    pool["images"][0]["instances"][0]["class_id"] = 1.5
    (tmp / "bad.json").write_text(json.dumps(pool))
    code = _run("stats", "--pool", tmp / "bad.json", "--vocab", tmp / "vocab.json",
                "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, "UnknownClassError")
    assert not (tmp / "out").exists()

    gt = make_dataset([[1]], vocab, prefix="gt")
    save_split(gt, tmp / "gt.json")
    inst = gt.images[0].instances[0]
    (tmp / "preds.jsonl").write_text(json.dumps({
        "image_id": "gt0000", "human_box": inst.human_box.as_list(),
        "object_box": inst.object_box.as_list(), "class_id": 1.5, "score": 0.9}) + "\n")
    code = _run("evaluate", "--gt", tmp / "gt.json", "--preds", tmp / "preds.jsonl",
                "--vocab", tmp / "vocab.json", "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, "UnknownClassError")
    assert not (tmp / "out").exists()


def test_a_fractional_class_id_in_a_vocabulary_is_a_bad_row(workspace, capsys):
    tmp, vocab = workspace
    rows = json.loads((tmp / "vocab.json").read_text())
    rows[1]["class_id"] = 7.5  # int() would make it class 7, which no other row has
    (tmp / "bad_vocab.json").write_text(json.dumps(rows))
    code = _run("stats", "--pool", tmp / "empty.json", "--vocab", tmp / "bad_vocab.json",
                "--out-dir", tmp / "out")
    assert code == 3
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == {"type": "AnnotationFormatError", "message": (
        f"{tmp / 'bad_vocab.json'}: bad vocabulary row 1 (class_id 7.5 is not a whole number)")}
    assert not (tmp / "out").exists()
    rows[1]["class_id"] = 2.0  # a whole number is still read as its class
    (tmp / "bad_vocab.json").write_text(json.dumps(rows))
    assert load_vocabulary(tmp / "bad_vocab.json") == vocab


@pytest.mark.parametrize("file, where, field, bad", [
    ("pool.json", "images[0]: missing or bad field", "width", 640.9),
    ("pool.json", "images[0]: missing or bad field", "height", 480.5),
    ("vocab.json", "bad vocabulary row 1", "verb_id", 1.5),
    ("vocab.json", "bad vocabulary row 1", "object_id", 2.7),
], ids=["width", "height", "verb_id", "object_id"])
def test_a_fractional_integer_field_exits_3(workspace, capsys, file, where, field, bad):
    # int() would truncate it: a 640.9 x 480.5 image would read as 640 x 480
    # and clamp a box edge at 640.5, and verb 1.5 would read as verb 1.
    tmp, _ = workspace
    raw = json.loads((tmp / file).read_text())
    if file == "pool.json":
        raw["images"][0].update(width=641, height=481)
        raw["images"][0][field] = bad
        raw["images"][0]["instances"][0]["human_box"] = [1, 1, 640.5, 50]
    else:
        raw[1][field] = bad
    (tmp / file).write_text(json.dumps(raw))
    code = _run("stats", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                "--out-dir", tmp / "out")
    assert code == 3
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == {"type": "AnnotationFormatError", "message": (
        f"{tmp / file}: {where} ({field} {bad} is not a whole number)")}
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("whole, width", [(1.0, 100.0), (True, "100"), ("1", "100")])
def test_a_whole_number_in_an_integer_field_is_still_read(workspace, whole, width):
    tmp, vocab = workspace
    rows = json.loads((tmp / "vocab.json").read_text())
    rows[0].update(verb_id=whole, object_id=whole)
    (tmp / "vocab.json").write_text(json.dumps(rows))
    assert load_vocabulary(tmp / "vocab.json") == vocab
    assert _run("stats", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                "--out-dir", tmp / "out") == 0
    expected = (tmp / "out" / "stats.json").read_bytes()
    pool = json.loads((tmp / "pool.json").read_text())
    pool["images"][0]["width"] = width
    (tmp / "pool.json").write_text(json.dumps(pool))
    assert _run("stats", "--pool", tmp / "pool.json", "--vocab", tmp / "vocab.json",
                "--out-dir", tmp / "out2") == 0
    assert (tmp / "out2" / "stats.json").read_bytes() == expected


def test_non_utf8_json_exits_3(workspace, capsys):
    tmp, _ = workspace
    (tmp / "bad.json").write_bytes(b"\xff\xfe{}")
    code = _run("stats", "--pool", tmp / "bad.json", "--vocab", tmp / "vocab.json",
                "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, "AnnotationFormatError")
    assert not (tmp / "out").exists()


def test_non_utf8_prediction_dump_exits_3(workspace, capsys):
    tmp, vocab = workspace
    save_split(make_dataset([[1]], vocab, prefix="gt"), tmp / "gt.json")
    (tmp / "preds.jsonl").write_bytes(b'{"image_id": "gt0000"}\n\xff\n')
    code = _run("evaluate", "--gt", tmp / "gt.json", "--preds", tmp / "preds.jsonl",
                "--vocab", tmp / "vocab.json", "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, "AnnotationFormatError")
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("case", ["deep_array", "long_int_pool", "long_int_class_id"])
def test_json_the_decoder_cannot_build_exits_3(workspace, capsys, case):
    # Nesting beyond the decoder's recursion limit raises RecursionError, and an
    # integer literal longer than the int conversion limit raises ValueError.
    tmp, vocab = workspace
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    pool = (tmp / "pool.json").read_text()
    assert '"width": 100' in pool
    if case == "deep_array":
        (tmp / "bad.json").write_text("[" * 200_000 + "]" * 200_000)
    else:
        (tmp / "bad.json").write_text(pool.replace('"width": 100', f'"width": {digits}', 1))
    argv = ["stats", "--pool", tmp / "bad.json"]
    if case == "long_int_class_id":
        save_split(make_dataset([[1]], vocab, prefix="gt"), tmp / "gt.json")
        (tmp / "preds.jsonl").write_text(
            '{"image_id": "gt0000", "human_box": [0, 0, 5, 5], "object_box": [0, 0, 5, 5], '
            f'"class_id": {digits}, "score": 0.5}}\n'
        )
        argv = ["evaluate", "--gt", tmp / "gt.json", "--preds", tmp / "preds.jsonl"]
    code = _run(*argv, "--vocab", tmp / "vocab.json", "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, "AnnotationFormatError")
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("file,old,new", [
    ("pool.json", '"image_id": "img0000"', '"image_id": "img0000\\ud800"'),
    ("pool.json", '"file_name": "img0000.jpg"', '"file_name": "img0000\\ud800.jpg"'),
    ("pool.json", '"vocabulary_ref": ""', '"vocabulary_ref": "v\\ud800.json"'),
    ("vocab.json", '"verb": "verb1"', '"verb": "verb1\\udc00"'),
    ("vocab.json", '"object": "object1"', '"object": "\\ud800object1"'),
], ids=["image_id", "file_name", "vocabulary_ref", "verb", "object"])
def test_balance_rejects_a_lone_surrogate_when_it_loads(workspace, capsys, file, old, new):
    # The escape decodes to a str that UTF-8 cannot encode, so no split could hold it.
    tmp, _ = workspace
    text = (tmp / file).read_text()
    assert old in text
    (tmp / file).write_text(text.replace(old, new))
    code = _balance(tmp, tmp / "pool.json", tmp / "out")
    _assert_data_error(code, capsys, "AnnotationFormatError")
    assert not (tmp / "out").exists()


@pytest.mark.parametrize(
    "box,kind",  # box is the raw JSON text of human_box
    [('"1234"', "AnnotationFormatError"), ('[0, 0, "x", 5]', "AnnotationFormatError"),
     ("[-1e999, 0, 5, 5]", "DegenerateBoxError")],
    ids=["string", "non_numeric", "neg_inf"],
)
def test_bad_prediction_box_exits_3(workspace, capsys, box, kind):
    tmp, vocab = workspace
    save_split(make_dataset([[1]], vocab, prefix="gt"), tmp / "gt.json")
    (tmp / "preds.jsonl").write_text(
        f'{{"image_id": "gt0000", "human_box": {box}, "object_box": [0, 0, 5, 5], '
        f'"class_id": 1, "score": 0.5}}\n'
    )
    code = _run("evaluate", "--gt", tmp / "gt.json", "--preds", tmp / "preds.jsonl",
                "--vocab", tmp / "vocab.json", "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, kind)
    assert not (tmp / "out").exists()


@pytest.mark.parametrize(
    "field,kind",
    [("image_width", "AnnotationFormatError"), ("prediction_class_id", "DataError"),
     ("vocabulary_class_id", "AnnotationFormatError")],
)
def test_infinite_integer_field_exits_3(workspace, capsys, field, kind):
    # 1e999 decodes to float('inf'), which int() rejects with OverflowError
    tmp, vocab = workspace
    save_split(make_dataset([[1]], vocab, prefix="gt"), tmp / "gt.json")
    gt_text = (tmp / "gt.json").read_text()
    vocab_text = (tmp / "vocab.json").read_text()
    class_id = "1"
    if field == "image_width":
        gt_text = gt_text.replace('"width": 100', '"width": 1e999')
    elif field == "prediction_class_id":
        class_id = "1e999"
    else:
        vocab_text = vocab_text.replace('"class_id": 1,', '"class_id": 1e999,')
    assert "1e999" in gt_text + vocab_text + class_id
    (tmp / "gt.json").write_text(gt_text)
    (tmp / "vocab.json").write_text(vocab_text)
    (tmp / "preds.jsonl").write_text(
        '{"image_id": "gt0000", "human_box": [0, 0, 5, 5], "object_box": [0, 0, 5, 5], '
        f'"class_id": {class_id}, "score": 0.5}}\n'
    )
    code = _run("evaluate", "--gt", tmp / "gt.json", "--preds", tmp / "preds.jsonl",
                "--vocab", tmp / "vocab.json", "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, kind)
    assert not (tmp / "out").exists()


@pytest.mark.parametrize(  # json.dumps writes NaN and Infinity as those bare tokens
    "report", [{"mean_ap": "x"}, {"mean_ap": None}, [30.0], {"mean_ap": float("nan")},
               {"mean_ap": float("inf")}, {"mean_ap": True}, {"mean_ap": "0.4"}])
def test_compare_rejects_non_numeric_mean_ap(workspace, capsys, report):
    tmp, _ = workspace
    a_dir, b_dir = tmp / "ra", tmp / "rb"
    a_dir.mkdir(), b_dir.mkdir()
    (a_dir / "m1.json").write_text(json.dumps(report))
    (b_dir / "m1.json").write_text(json.dumps({"mean_ap": 10.0}))
    code = _run("compare", "--a", a_dir, "--b", b_dir, "--out-dir", tmp / "cmp")
    _assert_data_error(code, capsys)
    assert not (tmp / "cmp").exists()


@pytest.mark.parametrize("a, code, kind", [
    ("missing", 4, "FileNotFoundError"),
    ("vocab.json", 4, "NotADirectoryError"),  # a file, not a directory
    ("no_reports", 3, "DataError"),  # a directory holding no report JSON
])
def test_compare_report_dir_errors(workspace, capsys, a, code, kind):
    # A missing --a exits 4 and names its path, like every command's missing input.
    tmp, _ = workspace
    (tmp / "no_reports").mkdir()
    (tmp / "no_reports" / "notes.txt").write_text("")
    (tmp / "rb").mkdir()
    (tmp / "rb" / "m1.json").write_text(json.dumps({"mean_ap": 10.0}))
    assert _run("compare", "--a", tmp / a, "--b", tmp / "rb", "--out-dir", tmp / "cmp") == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == kind
    assert error.get("path") == (None if code == 3 else str(tmp / a))
    assert not (tmp / "cmp").exists()


def test_augment_checks_deficits_before_any_port_call(workspace, capsys, monkeypatch):
    tmp, vocab = workspace
    save_split(make_dataset([[c] for c in vocab.class_ids()], vocab, prefix="ref"),
               tmp / "refs.json")
    calls = []

    class Counting:
        def __init__(self, port):
            self.port = port

        def __getattr__(self, name):
            method = getattr(self.port, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return call

    def counting_ports():
        ports = mock_ports()
        for name, port in vars(ports).items():
            setattr(ports, name, Counting(port))
        return ports

    monkeypatch.setattr("bright_kit.cli.mock_ports", counting_ports)

    def augment(deficits, out):
        (tmp / "deficits.json").write_text(json.dumps(deficits))
        return _run("augment", "--deficits", tmp / "deficits.json", "--refs", tmp / "refs.json",
                    "--vocab", tmp / "vocab.json", "--out-dir", out)

    _assert_data_error(augment({"x": 1}, tmp / "bad_key"), capsys)
    _assert_data_error(augment({"1": 1, "99": 1}, tmp / "unknown"), capsys, "UnknownClassError")
    assert augment({"1": 1, "2": -5}, tmp / "negative") == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DataError"
    assert "class 2 has a negative deficit count -5" in err["message"]
    assert calls == []
    assert not any((tmp / out).exists() for out in ("bad_key", "unknown", "negative"))

    assert augment({"1": 1}, tmp / "ok") == 0
    assert calls  # the counting ports are the ones the command uses
