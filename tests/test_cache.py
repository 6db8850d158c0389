"""The load cache returns what a decode returns, or stays out of the way."""

import json
import logging
import os
import random
import sys
import threading
from pathlib import Path

import pytest

from bright_kit import (cache, evaluator, load_dataset, load_predictions, model, save_split,
                        save_vocabulary)
from bright_kit.cli import main
from bright_kit.jsonio import read_json, read_json_lines

from helpers import make_dataset, make_vocab


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


def test_concurrent_loads_with_eviction_races_return_equal_datasets(tmp_path, monkeypatch):
    # Threads store, hit and evict each other's entries (the cap holds about
    # one entry); every load must still equal its pool.
    pools = [_pool(tmp_path, f"p{i}.json", prefix=f"im{i}") for i in range(3)]
    monkeypatch.setattr(cache, "MAX_BYTES", 1500)
    bad = []

    def work(k):
        for n in range(30):
            path, vocab, pool = pools[(k + n) % 3]
            if load_dataset(path, vocab) != pool:
                bad.append(path)

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
