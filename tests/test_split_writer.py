"""``save_split`` writes exactly the bytes ``canonical_dumps`` gives the split's JSON object.

The writer encodes from a fixed template instead of building the object and
running ``json.dumps``; :func:`oracles.dataset_to_dict` is the object the
first implementation dumped.
"""

import random

import numpy as np
import pytest

from bright_kit import (BalanceConfig, BBox, Dataset, HoiInstance, ImageRecord, balance,
                        fill_deficits, restrict, save_split)
from bright_kit import model
from bright_kit.jsonio import canonical_dumps

from helpers import make_dataset, make_vocab, rand_box
from oracles import dataset_to_dict

NAMES = ["plain", 'quo"te', "back\\slash", "café", "漢字", "line\u2028sep", "tab\there", "\x00nul"]
META = {
    "toolkit_version": "0.1.0",
    "seed": 7,
    "config_hash": "0123456789abcdef",
    "nested": {"rows": [1, 2.5, {"b": None, "a": True}], "empty": {}, "none": [],
               "text": 'q"\\\u2028é', "x": np.float64(0.1) + np.float64(0.2)},
}


def expected_bytes(d: Dataset, meta) -> bytes:
    payload = dataset_to_dict(d)
    if meta is not None:
        payload["meta"] = meta
    return canonical_dumps(payload).encode("utf-8")


def assert_writes_reference(tmp_path, d: Dataset, meta) -> None:
    path = tmp_path / "split.json"
    save_split(d, path, meta=meta)
    assert path.read_bytes() == expected_bytes(d, meta)


def random_dataset(rng: random.Random, vocab) -> Dataset:
    images = []
    for i in range(rng.randint(0, 12)):
        name = rng.choice(NAMES)
        instances = tuple(
            HoiInstance(rand_box(rng), rand_box(rng), rng.choice(vocab.class_ids()),
                        rng.choice(("real", "generated", "crawled")))
            for _ in range(rng.randint(0, 4))
        )
        images.append(ImageRecord(f"{name}/{i}", f"{name}.jpg", rng.randint(1, 4000),
                                  rng.randint(1, 4000), instances))
    return Dataset(images, vocab, vocabulary_ref=rng.choice(NAMES) + ".json")


@pytest.mark.parametrize("meta", [None, META], ids=["no-meta", "nested-meta"])
def test_random_datasets_match_reference(tmp_path, meta):
    rng = random.Random(99)
    vocab = make_vocab(6)
    for _ in range(60):
        assert_writes_reference(tmp_path, random_dataset(rng, vocab), meta)


@pytest.mark.parametrize("meta", [None, META, {}], ids=["no-meta", "nested-meta", "empty-meta"])
def test_empty_dataset_and_images_without_instances(tmp_path, meta):
    vocab = make_vocab(3)
    assert_writes_reference(tmp_path, Dataset([], vocab), meta)
    rng = random.Random(5)
    d = Dataset(
        [ImageRecord(f"im{i}", f"im{i}.jpg", 100, 100,
                     (HoiInstance(rand_box(rng), rand_box(rng), 1 + i % 3),))
         for i in range(6)],
        vocab,
    )
    # classes 2 and 3 dropped but their images kept: empty instance lists
    sparse = restrict(d, [1], drop_empty_images=False)
    assert any(not rec.instances for rec in sparse.images)
    assert_writes_reference(tmp_path, sparse, meta)


@pytest.mark.parametrize("coords", [
    (0.1 + 0.2, 1e-07, 1e16, 2e16),
    (5e-324, 5e-324, 1e-07, 0.1 + 0.2),
    (0, 1, 2, 3),
    (np.float64(0.1) + np.float64(0.2), np.float64(1e-07), np.float64(1e16), np.float64(2e16)),
    (np.float64(5e-324), 0.5, 7, np.float64(9.999999999999999e22)),
    (-0.0, -0.0, 0.5, 7.0),
], ids=["floats", "subnormal", "ints", "float64", "mixed", "negative_zero"])
def test_coordinate_encodings(tmp_path, coords):
    vocab = make_vocab(2)
    box = BBox(*coords)
    d = Dataset([ImageRecord("a", "a.jpg", 10, 10, (HoiInstance(box, box, 2),))], vocab)
    assert_writes_reference(tmp_path, d, {"seed": 0})
    # np.float64 repr differs from float's; the file must carry the plain number
    assert "np." not in (tmp_path / "split.json").read_text(encoding="utf-8")


def test_images_with_no_instances_and_with_sixty(tmp_path):
    d = make_dataset([[], [1, 2, 3] * 20, [2], []], make_vocab(3))
    assert sorted(map(len, (rec.instances for rec in d.images))) == [0, 0, 1, 60]
    assert_writes_reference(tmp_path, d, META)


def test_trimmed_balanced_split_its_remainder_and_the_filled_split(tmp_path):
    vocab = make_vocab(4)
    rng = random.Random(7)
    lists = [rng.choices([1, 2, 3, 4], [8, 4, 2, 1], k=rng.randint(1, 4)) for _ in range(40)]
    result = balance(make_dataset(lists, vocab), vocab, BalanceConfig(12, epochs=4, seed=3))
    assert result.removed_annotations and result.deficits  # a keep mask and a fill
    # one generated image per deficit class, one instance more than it needs
    augmented = make_dataset([[c] * (n + 1) for c, n in sorted(result.deficits.items())], vocab,
                             prefix="aug", provenance="generated")
    filled = fill_deficits(result.balanced, result.deficits, augmented)
    assert filled.total_instances == result.balanced.total_instances + sum(result.deficits.values())
    for d in (result.balanced, result.remainder, filled):
        assert_writes_reference(tmp_path, d, META)


def test_split_goes_through_write_json(tmp_path, monkeypatch):
    # Tracing and byte counting hook the write_json name the model module uses.
    calls = []
    real = model.write_json
    monkeypatch.setattr(model, "write_json", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    save_split(Dataset([], make_vocab(1)), tmp_path / "s.json")
    assert calls == [tmp_path / "s.json"]


def test_unencodable_text_leaves_an_existing_split_as_it_was(tmp_path):
    # load_dataset rejects such text; a Dataset built in Python can still hold it
    vocab = make_vocab(1)
    inst = HoiInstance(BBox(0, 0, 5, 5), BBox(1, 1, 6, 6), 1)
    rec = ImageRecord("x", "x\ud800.jpg", 100, 100, (inst,))
    path = tmp_path / "split.json"
    path.write_bytes(b"earlier bytes\n")
    with pytest.raises(UnicodeEncodeError):
        save_split(Dataset([rec], vocab), path)
    assert path.read_bytes() == b"earlier bytes\n"
