import json

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


@pytest.mark.parametrize("ref", ["5", '["vocab.json"]'])
def test_stats_rejects_non_string_vocabulary_ref(workspace, capsys, ref):
    tmp, _ = workspace
    text = (tmp / "pool.json").read_text().replace('"vocabulary_ref": ""',
                                                   f'"vocabulary_ref": {ref}')
    assert ref in text
    (tmp / "ref_pool.json").write_text(text)
    code = _run("stats", "--pool", tmp / "ref_pool.json", "--out-dir", tmp / "out")
    _assert_data_error(code, capsys, "AnnotationFormatError")
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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
    aug_records = [r.with_instances(
        tuple(i.__class__(i.human_box, i.object_box, i.class_id, "generated") for i in r.instances)
    ) for r in aug.images]
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


def test_zeroshot_command(workspace):
    tmp, _ = workspace
    universe = make_vocab(6)
    save_vocabulary(universe, tmp / "universe.json")
    save_vocabulary(universe.subset([2, 3, 5, 6]), tmp / "seen.json")
    # class 1 (verb1/object1 both appear in seen? make_vocab gives distinct verbs;
    # object1 shared) -- candidates need seen verb+object, so craft the pool over
    # a vocabulary where candidates exist: reuse classes 1 and 4
    pool = make_dataset([[1]] * 12 + [[4]] * 11, universe)
    save_split(pool, tmp / "remainder.json")
    out = tmp / "zs"
    code = _run("zeroshot", "--seen", tmp / "seen.json", "--universe", tmp / "universe.json",
                "--pool", tmp / "remainder.json", "--per-class", 10, "--classes", 107,
                "--seed", 3, "--out-dir", out)
    assert code == 0
    report = json.loads((out / "zeroshot_report.json").read_text())
    zs = load_dataset(out / "zeroshot.json", universe)
    assert zs.total_instances == 10 * len(report["selected_classes"])


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


def test_augment_http_requires_base_url(workspace, capsys):
    tmp, _ = workspace
    (tmp / "deficits.json").write_text(json.dumps({"2": 1}))
    save_split(make_dataset([[2]], vocab=load_vocabulary(tmp / "vocab.json")), tmp / "refs.json")
    code = _run("augment", "--deficits", tmp / "deficits.json", "--refs", tmp / "refs.json",
                "--vocab", tmp / "vocab.json", "--ports", "http", "--out-dir", tmp / "x")
    assert code == 3


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
    assert calls == []
    assert not (tmp / "bad_key").exists() and not (tmp / "unknown").exists()

    assert augment({"1": 1}, tmp / "ok") == 0
    assert calls  # the counting ports are the ones the command uses
