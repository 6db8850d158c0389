"""The load cache returns what a decode returns, or stays out of the way."""

import json
import logging
import os
import random
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from bright_kit import (BalanceConfig, HoiClass, Vocabulary, balance, balancer, cache, evaluator,
                        load_dataset, load_predictions, merge, model, restrict, save_split,
                        save_vocabulary)
from bright_kit.cli import main
from bright_kit.errors import AnnotationFormatError, UnknownClassError
from bright_kit.jsonio import read_json, read_json_lines

from helpers import make_dataset, make_vocab
from oracles import reference_balance


@pytest.fixture
def decoded(monkeypatch):
    """The paths each loader decoded, in order."""
    paths = []
    monkeypatch.setattr(model, "read_json", lambda path, data=None: paths.append(path)
                        or read_json(path, data))
    monkeypatch.setattr(evaluator, "read_json_lines", lambda path, data=None: paths.append(path)
                        or read_json_lines(path, data))
    return paths


def _pool(tmp_path, name="pool.json", seed=0, prefix="img"):
    vocab = make_vocab(4)
    pool = make_dataset([[1, 2], [3], [4, 4]], vocab, seed=seed, prefix=prefix)
    save_split(pool, tmp_path / name)
    return tmp_path / name, vocab, pool


@pytest.fixture
def walks(monkeypatch):
    """The pools the balancer walked, in order."""
    pools, walk = [], balancer._walk
    monkeypatch.setattr(balancer, "_walk", lambda pool, classes, cfg: pools.append(pool)
                        or walk(pool, classes, cfg))
    return pools


def _entries() -> list[Path]:
    root = cache.directory()
    return sorted(root.iterdir()) if root.exists() else []


def test_entry_is_stored_once_and_hit_after(tmp_path, decoded):
    path, vocab, pool = _pool(tmp_path)
    assert load_dataset(path, vocab) == pool
    (entry,) = _entries()
    assert cache.directory().stat().st_mode & 0o777 == 0o700
    assert load_dataset(path, vocab) == pool
    assert decoded == [path]
    assert _entries() == [entry]


def _clamped(path: Path) -> Path:
    """A copy of the split at ``path`` whose first box needs a clamp."""
    raw = json.loads(path.read_text())
    raw["images"][0]["instances"][0]["human_box"][0] = -1.0
    out = path.with_name("clamped.json")
    out.write_text(json.dumps(raw))
    return out


def test_a_file_needing_a_clamp_warns_on_every_load_and_stores_nothing(tmp_path, caplog):
    path, vocab, _ = _pool(tmp_path)
    path = _clamped(path)
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"image_id": "a", "human_box": [-1, 0, 5, 5],
                                 "object_box": [0, 0, 5, 5], "class_id": 1, "score": 0.5}) + "\n")
    for _ in range(2):
        caplog.clear()
        with caplog.at_level("WARNING", logger="bright_kit"):
            load_dataset(path, vocab)
            load_predictions(preds, vocab)
        assert [r.getMessage().split(": ")[0] for r in caplog.records] == [str(path), f"{preds}:1"]
    assert _entries() == []


def _flip_first_column_byte(entry: bytes) -> bytes:
    """The entry with one bit of its first column changed: it still parses."""
    at = entry.index(b"\n") + 1
    return entry[:at] + bytes([entry[at] ^ 1]) + entry[at + 1 :]


@pytest.mark.parametrize("garble", [
    lambda b: b[: len(b) // 2],
    _flip_first_column_byte,
    lambda b: b.replace(b"\n", b" ", 1),
    lambda b: b"",
    lambda b: random.Random(0).randbytes(len(b)),
], ids=["truncated", "flipped_column_byte", "no_header", "empty", "random"])
def test_a_garbled_entry_is_a_miss_and_is_rewritten(tmp_path, decoded, garble):
    path, vocab, pool = _pool(tmp_path)
    load_dataset(path, vocab)
    (entry,) = _entries()
    good = entry.read_bytes()
    entry.write_bytes(garble(good))
    assert load_dataset(path, vocab) == pool
    assert decoded == [path, path]
    assert entry.read_bytes() == good


def _no_home():
    raise RuntimeError("Could not determine home directory.")


@pytest.mark.parametrize("where", ["not_a_dir", "no_home"])
def test_an_unwritable_cache_dir_keeps_exit_codes_and_bytes(tmp_path, monkeypatch, capsys, where):
    path, _, _ = _pool(tmp_path)
    save_vocabulary(make_vocab(4), tmp_path / "vocab.json")
    (tmp_path / "bad.json").write_text('{"images": [{"image_id": "x"}]}')

    def stats(pool, out):
        code = main(["stats", "--pool", str(pool), "--vocab", str(tmp_path / "vocab.json"),
                     "--out-dir", str(tmp_path / out)])
        return code, capsys.readouterr().err

    want = [stats(path, "ok"), stats(tmp_path / "bad.json", "bad")]
    assert [code for code, _ in want] == [0, 3] and _entries()
    if where == "not_a_dir":  # mkdir fails
        (tmp_path / "not_a_dir").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not_a_dir"))
    else:
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(Path, "home", _no_home)
    assert [stats(path, "ok2"), stats(tmp_path / "bad.json", "bad2")] == want
    for name in ("stats.json", "per_class.csv"):
        assert (tmp_path / "ok2" / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()


def test_another_input_byte_vocabulary_or_source_is_a_miss(tmp_path, decoded, monkeypatch):
    path, vocab, pool = _pool(tmp_path)
    load_dataset(path, vocab)
    text = path.read_text()
    path.write_text(text.replace('"img0000"', '"img000X"'))  # one byte
    assert load_dataset(path, vocab).image_ids()[0] == "img000X"
    path.write_text(text)
    load_dataset(path, make_vocab(5))
    monkeypatch.setattr(cache, "_source_digest", lambda: b"another loader")
    load_dataset(path, vocab)
    assert decoded == [path] * 4
    assert len(_entries()) == 4


def test_the_size_cap_evicts_least_recently_used_entries_first(tmp_path, monkeypatch):
    files = [_pool(tmp_path, f"p{i}.json", prefix=f"im{i}")[0] for i in range(4)]
    vocab = make_vocab(4)
    for path in files[:3]:
        load_dataset(path, vocab)
    entries = [cache.directory() / cache._key(p.read_bytes(), "dataset", vocab) for p in files[:3]]
    assert sorted(entries) == _entries()
    (size,) = {e.stat().st_size for e in entries}
    for i, entry in enumerate(entries):  # last used at times 1000, 2000, 3000
        os.utime(entry, (1000 * (i + 1),) * 2)
    load_dataset(files[0], vocab)  # a hit makes p0's entry the most recently used
    monkeypatch.setattr(cache, "MAX_BYTES", 2 * size)
    load_dataset(files[3], vocab)  # storing p3's entry evicts p1's, then p2's
    assert [e.exists() for e in entries] == [True, False, False]
    assert len(_entries()) == 2


def test_info_log_names_each_cached_load(tmp_path, caplog):
    path, vocab, _ = _pool(tmp_path)
    clamped = _clamped(path)
    with caplog.at_level("INFO", logger="bright_kit"):
        load_dataset(path, vocab)
        load_dataset(path, vocab)
        load_dataset(clamped, vocab)
    key = cache._key(path.read_bytes(), "dataset", vocab)[:12]
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert lines[:2] == [f"load cache stored: {path} [key {key}]",
                         f"load cache hit: {path} [key {key}]"]
    assert len(lines) == 3 and lines[2].startswith(
        f"load cache not stored (a row took the row rule): {clamped} [key ")


def _same(got, want) -> bool:
    """Two balancing results agree on every field, the deficits' order included."""
    return (got.balanced == want.balanced and got.remainder == want.remainder
            and list(got.deficits.items()) == list(want.deficits.items())
            and got.removed_annotations == want.removed_annotations
            and got.trimmed_images == want.trimmed_images)


def test_concurrent_loads_with_eviction_races_return_equal_datasets(tmp_path, monkeypatch):
    # Threads store, hit and evict each other's entries, loads and balancing
    # passes alike (the cap holds about one entry); every load must still
    # equal its pool, and every pass the uncached walk over it.
    pools = [_pool(tmp_path, f"p{i}.json", prefix=f"im{i}") for i in range(3)]
    cfgs = [BalanceConfig(1, epochs=3, seed=i) for i in range(3)]
    walked = [balance(pool, vocab, cfg) for (_, vocab, pool), cfg in zip(pools, cfgs)]
    monkeypatch.setattr(cache, "MAX_BYTES", 1500)
    bad = []

    def work(k):
        for n in range(30):
            path, vocab, pool = pools[(k + n) % 3]
            loaded = load_dataset(path, vocab)
            if loaded != pool:
                bad.append(path)
            if not _same(balance(loaded, vocab, cfgs[(k + n) % 3]), walked[(k + n) % 3]):
                bad.append(("balance", path))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


# Balancing passes over a pool read from a file go through the same cache.

def _skewed(tmp_path, name="skewed.json"):
    """A saved pool whose passes both trim and fall short, its vocabulary and
    the pool loaded from the file."""
    vocab = make_vocab(4)
    rng = random.Random(7)
    lists = [rng.choices([1, 2, 3, 4], [8, 4, 2, 1], k=rng.randint(1, 4)) for _ in range(40)]
    save_split(make_dataset(lists, vocab), tmp_path / name)
    return tmp_path / name, vocab, load_dataset(tmp_path / name, vocab)


def test_a_second_pass_walks_nothing_and_equals_the_reference(tmp_path, walks):
    path, vocab, pool = _skewed(tmp_path)
    cfg = BalanceConfig(12, epochs=4, seed=3)
    first = balance(pool, vocab, cfg)
    assert first.removed_annotations and first.deficits  # the counters are not all zero
    loaded = load_dataset(path, vocab)
    again = balance(loaded, vocab, cfg)
    assert walks == [pool]
    assert _same(again, first) and _same(again, reference_balance(pool, vocab, cfg))
    # the stored selections are bound to the columns of the pool passed in
    assert again.balanced._cols is loaded._cols and again.remainder._cols is loaded._cols


@pytest.mark.parametrize("part", ["seed", "epochs", "target", "classes", "selection", "order",
                                  "input"])
def test_each_part_of_a_pass_key_is_a_miss(tmp_path, walks, part):
    path, vocab, pool = _skewed(tmp_path)
    if part == "order":  # a selection as an array, not a range, of every image in order
        pool = pool._select(range(len(pool)))
    cfg, classes = BalanceConfig(12, epochs=4, seed=3), vocab
    first = balance(pool, classes, cfg)
    if part in ("seed", "epochs", "target"):
        cfg = replace(cfg, **{{"target": "target_per_class"}.get(part, part): 5})
    elif part == "classes":
        classes = vocab.subset([1, 2, 3])
    elif part == "selection":  # the train pass, over the first pass's remainder
        pool = first.remainder
    elif part == "order":  # a selection of the same sizes: the images reversed
        pool = pool._select(range(len(pool) - 1, -1, -1))
    else:  # one byte of the file: the same pool but for one image id
        path.write_text(path.read_text().replace('"img0000"', '"img000X"'))
        pool = load_dataset(path, vocab)
    got = balance(pool, classes, cfg)
    assert len(walks) == 2 and walks[1] is pool
    assert _same(got, reference_balance(pool, classes, cfg))


@pytest.mark.parametrize("garble", [
    lambda b: b[: len(b) // 2],
    _flip_first_column_byte,
    lambda b: random.Random(1).randbytes(len(b)),
], ids=["truncated", "flipped_column_byte", "random"])
def test_a_garbled_pass_entry_is_a_miss_and_is_rewritten(tmp_path, walks, garble):
    _, vocab, pool = _skewed(tmp_path)
    cfg = BalanceConfig(12, epochs=4, seed=3)
    loads = set(_entries())
    first = balance(pool, vocab, cfg)
    (entry,) = set(_entries()) - loads
    good = entry.read_bytes()
    entry.write_bytes(garble(good))
    assert _same(balance(pool, vocab, cfg), first)
    assert len(walks) == 2
    assert entry.read_bytes() == good


def test_pools_built_in_memory_or_merged_store_no_pass(tmp_path, walks):
    vocab = make_vocab(4)
    built = make_dataset([[1, 2], [3], [4, 4], [1]], vocab)
    a, b = (load_dataset(_pool(tmp_path, f"{p}.json", prefix=p)[0], vocab) for p in "ab")
    merged = merge(a, b)
    loads = _entries()
    for pool in (built, built, merged, merged):
        balance(pool, vocab, BalanceConfig(1, epochs=2))
    assert walks == [built, built, merged, merged]
    assert _entries() == loads


def test_a_warm_pass_still_rejects_classes_outside_the_pool(tmp_path):
    _, vocab, pool = _skewed(tmp_path)
    cfg = BalanceConfig(12, epochs=4, seed=3)
    balance(pool, vocab.subset([1]), cfg)
    # the same class ids as the stored pass, with another verb name
    renamed = Vocabulary([HoiClass(1, 1, 1, "other", "object1")])
    for classes in (renamed, make_vocab(5)):
        with pytest.raises(UnknownClassError) as err:
            balance(pool, classes, cfg)
        assert str(err.value) == "balancing classes are not a subset of the pool vocabulary"


@pytest.mark.parametrize("where", ["not_a_dir", "no_home"])
def test_an_unwritable_cache_dir_keeps_balance_exit_codes_and_bytes(tmp_path, monkeypatch,
                                                                   capsys, where):
    path, vocab, _ = _skewed(tmp_path)
    save_vocabulary(vocab, tmp_path / "vocab.json")

    def run(out, top_k="4"):  # a second run may find both passes stored
        code = main(["balance", "--pool", str(path), "--vocab", str(tmp_path / "vocab.json"),
                     "--top-k", top_k, "--l-test", "3", "--l-train", "9", "--epochs", "4",
                     "--seed", "5", "--out-dir", str(tmp_path / out)])
        std = capsys.readouterr()
        return code, std.out.replace(str(tmp_path / out), "<out>"), std.err

    want = [run("ok"), run("ok"), run("bad", top_k="0")]
    assert [code for code, _, _ in want] == [0, 0, 3] and want[2][2]
    if where == "not_a_dir":
        (tmp_path / "not_a_dir").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not_a_dir"))
    else:
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(Path, "home", _no_home)
    assert [run("ok2"), run("ok2"), run("bad2", top_k="0")] == want
    for name in ("test.json", "train.json", "deficits.json", "audit.json"):
        assert (tmp_path / "ok2" / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()


def test_a_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    # The XDG Base Directory spec: a relative path is invalid and ignored.
    path, vocab, pool = _pool(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", "rel")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert cache.directory() == tmp_path / "home" / ".cache" / "bright-kit"
    assert load_dataset(path, vocab) == pool
    assert list((tmp_path / "work").iterdir()) == [] and len(_entries()) == 1


# A hit hashes the input file in chunks; a miss decodes a copy read whole.

def test_an_empty_file_and_a_directory_keep_their_errors(tmp_path):
    vocab = make_vocab(4)
    (tmp_path / "empty.json").write_bytes(b"")
    for _ in range(2):  # an error stores nothing, so the second load is a miss too
        with pytest.raises(AnnotationFormatError) as err:
            load_dataset(tmp_path / "empty.json", vocab)
        assert str(err.value) == (f"{tmp_path / 'empty.json'}: malformed JSON "
                                  "(Expecting value: line 1 column 1 (char 0))")
        assert type(err.value.__cause__) is json.JSONDecodeError
        for load in (load_dataset, load_predictions):
            with pytest.raises(IsADirectoryError) as err:
                load(tmp_path, vocab)
            assert str(err.value) == f"[Errno 21] Is a directory: {str(tmp_path)!r}"
            assert err.value.filename == str(tmp_path) and err.value.__cause__ is None
    assert _entries() == []


def test_a_file_rewritten_after_its_hash_is_stored_under_the_bytes_decoded(tmp_path, monkeypatch,
                                                                         decoded):
    path, vocab, pool = _pool(tmp_path)
    before = path.read_bytes()
    path_key = cache._file_key

    def rewrite_after_hash(*args):
        key = path_key(*args)
        path.write_text(before.decode().replace('"img0000"', '"img000X"'))
        return key

    monkeypatch.setattr(cache, "_file_key", rewrite_after_hash)
    loaded = load_dataset(path, vocab)
    monkeypatch.setattr(cache, "_file_key", path_key)
    assert loaded.image_ids()[0] == "img000X"
    assert _entries() == [cache.directory() / cache._key(path.read_bytes(), "dataset", vocab)]
    assert load_dataset(path, vocab) == loaded and decoded == [path]
    path.write_bytes(before)  # the bytes first hashed were never stored
    assert load_dataset(path, vocab) == pool and decoded == [path, path]



# A restriction keeps no entry of its own: a balancing pass keeps only its
# classes, so a warm pass is the restriction that selects nothing.

@pytest.fixture
def selects(monkeypatch):
    """The datasets ``Dataset._select`` selected from, in order."""
    datasets, select = [], model.Dataset._select
    monkeypatch.setattr(model.Dataset, "_select", lambda d, *args, **kwargs: datasets.append(d)
                        or select(d, *args, **kwargs))
    return datasets


def test_a_warm_restrict_selects_nothing_and_equals_the_cold_one(tmp_path, selects):
    path, vocab, pool = _skewed(tmp_path)
    cfg = BalanceConfig(12, epochs=4, seed=3)
    cold = balance(pool, vocab.subset([1, 3]), cfg).balanced
    assert selects == [pool, pool] and 0 < cold.total_instances < pool.total_instances
    loaded = load_dataset(path, vocab)
    warm = balance(loaded, vocab.subset([3, 1]), cfg).balanced
    assert selects == [pool, pool] and warm._cols is loaded._cols
    for name in ("_rows", "_inst", "_first"):
        got, want = getattr(warm, name), getattr(cold, name)
        assert type(got) is type(want) and got == want, name
    assert restrict(warm, [1, 3]) == warm  # only the pass's classes are left


@pytest.mark.parametrize("part", ["classes", "selection", "order"])
def test_each_part_of_a_restrict_key_is_a_miss(tmp_path, selects, part):
    _, vocab, pool = _skewed(tmp_path)
    if part == "order":  # a selection as an array, not a range, of every image in order
        pool = pool._select(range(len(pool)))
    classes = [1, 3]
    loads = _entries()
    restrict(pool, classes)
    if part == "classes":
        classes = [1, 2]
    elif part == "selection":  # the first half of the images
        pool = pool._select(range(len(pool) // 2))
    else:  # a selection of the same sizes: the images reversed
        pool = pool._select(range(len(pool) - 1, -1, -1))
    selects.clear()
    got = restrict(pool, classes)
    assert selects == [pool]
    in_memory = model.Dataset(pool.images, vocab)
    assert got == restrict(in_memory, classes)
    # no entry is kept, so the same restriction again selects again
    assert restrict(pool, classes) == got and selects == [pool, in_memory, pool]
    assert _entries() == loads
