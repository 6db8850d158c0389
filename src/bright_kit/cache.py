"""Load cache: the finished columns of successful loads, keyed by file content,
and the results of balancing passes over them.

Entries live in ``$XDG_CACHE_HOME/bright-kit/`` (default ``~/.cache/bright-kit/``),
named by a sha256 over this package's ``*.py`` files, the native byte order,
a JSON header (for a load, the vocabulary's class rows) and the input bytes
(for a load, the file's).  An entry is a header line
(a version, the sha256 of the rest, the typecode and size of each ``array``
column), the columns' raw bytes and a JSON array of the other values; no
pickle.  Callers go through :func:`cached` and build their result from the
entry it returns, hit or miss.  Any ``OSError`` and any malformed entry is a
miss, but a hit whose mtime cannot be refreshed is a hit: the cache changes
no result, message or exit code.  README, "Load cache", has the policy.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import sys
from array import array
from contextlib import suppress
from pathlib import Path

logger = logging.getLogger("bright_kit")

MAX_BYTES = 512 << 20  # the directory's size after a store's eviction
_VERSION = "bright-kit-cache-1"
_CHUNK = 256 << 10  # the read size when a file is hashed


def directory() -> Path:
    """The cache directory; ``RuntimeError`` when there is no home directory to hold it.
    A relative ``XDG_CACHE_HOME`` is ignored, as the XDG Base Directory spec says."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "bright-kit"


@functools.cache
def _source_digest() -> bytes:
    """Digest of the package's own source, so an entry never outlives the loader
    that wrote it."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.digest()


def _hasher(kind: str, header):
    """A sha256 fed with everything an entry name covers but the input bytes."""
    h = hashlib.sha256(_source_digest())
    text = json.dumps([kind, sys.byteorder, header], default=lambda v: [c.to_dict() for c in v])
    h.update(text.encode() + b"\0")
    return h


def _key(data: bytes, kind: str, header) -> str:
    """The entry name of ``data`` under a JSON ``header`` (a vocabulary reads as its rows)."""
    h = _hasher(kind, header)
    h.update(data)
    return h.hexdigest()


def _file_key(path, kind: str, header) -> str:
    """:func:`_key` of the bytes of the file ``path``, read in :data:`_CHUNK` pieces
    into one buffer, not held whole.  No ``mmap``: a file truncated by another
    process while mapped ends this one with SIGBUS, not with an ``OSError``."""
    h = _hasher(kind, header)
    buf = bytearray(_CHUNK)
    with open(path, "rb", buffering=0) as f, memoryview(buf) as view:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _read(key: str):
    """``(arrays, values)`` of the entry ``key``, or None if it is missing or
    does not parse."""
    try:
        path = directory() / key
        blob = path.read_bytes()
        end = blob.index(b"\n")
        version, digest, *columns = blob[:end].decode("ascii").split(" ")
        body = memoryview(blob)[end + 1 :]  # slices of it copy nothing
        if version != _VERSION or hashlib.sha256(body).hexdigest() != digest:
            return None
        arrays, at = [], 0
        for typecode, size in (column.split(":") for column in columns):
            column = array(typecode)
            column.frombytes(body[at : at + int(size)])
            arrays.append(column)
            at += int(size)
        values = json.loads(str(body[at:], "utf-8"))
    except (OSError, RuntimeError, ValueError, TypeError):
        return None
    with suppress(OSError):  # a hit counts as a use for eviction, where the directory allows
        os.utime(path)
    return arrays, values


def _store(key: str, arrays, values) -> None:
    """Write the entry ``key`` under a unique temporary name, rename it into
    place, then evict down to :data:`MAX_BYTES`."""
    root = directory()
    root.mkdir(mode=0o700, parents=True, exist_ok=True)
    body = b"".join([*map(bytes, arrays), json.dumps(values, separators=(",", ":")).encode()])
    sizes = [f"{a.typecode}:{len(a) * a.itemsize}" for a in arrays]
    head = " ".join([_VERSION, hashlib.sha256(body).hexdigest(), *sizes]).encode()
    tmp = root / f".{key}.{os.getpid()}.{os.urandom(4).hex()}"
    try:
        with open(tmp, "xb") as f:
            f.write(head + b"\n" + body)
        os.replace(tmp, root / key)
    finally:
        tmp.unlink(missing_ok=True)
    _evict(root)


def _evict(root: Path) -> None:
    """Delete the least recently used files of ``root`` until it holds at most
    :data:`MAX_BYTES`."""
    files = []
    try:
        with os.scandir(root) as entries:
            for e in entries:
                try:
                    st = e.stat()
                except OSError:  # deleted by another load meanwhile
                    continue
                files.append((st.st_mtime, st.st_size, e.path))
    except OSError:
        return
    files.sort()
    total = sum(size for _, size, _ in files)
    for _, size, path in files:
        if total <= MAX_BYTES:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size


def cached(name, kind: str, header, compute, data: bytes | None = None):
    """``(key, arrays, values, storable)``: the entry of one result, named ``name``
    in log lines, whose input bytes are ``data`` (by default the file ``name``'s,
    which a hit only hashes).  A miss reads the file whole and keys the entry by
    the bytes the result is made from, even if the file changed since it was
    hashed; ``compute(data)`` returns ``(arrays, values, storable)``, and the entry
    is stored unless ``storable`` is false (a row of the load took the row rule).
    A hit is storable."""
    key = _file_key(name, kind, header) if data is None else _key(data, kind, header)
    entry, outcome, storable = _read(key), "hit", True
    if entry is None:
        if data is None:
            with open(name, "rb") as f:
                data = f.read()
            key = _key(data, kind, header)
        *entry, storable = compute(data)
        outcome = "not stored (a row took the row rule)"
        if storable:
            try:
                _store(key, *entry)
                outcome = "stored"
            except (OSError, RuntimeError) as exc:
                outcome = f"not stored ({exc})"
    logger.info("load cache %s: %s [key %s]", outcome, name, key[:12])
    return key, *entry, storable
