"""Canonical JSON reading/writing.

Every artifact the toolkit emits goes through :func:`write_json` so that two
runs with identical inputs and seeds produce byte-identical files: keys are
sorted, indentation is fixed, and a single trailing newline is appended.
"""

from __future__ import annotations

import gc
import io
import json
import threading
from contextlib import contextmanager
from pathlib import Path

from .errors import AnnotationFormatError


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(path: str | Path, obj, encoded: bool = False) -> None:
    """Write ``canonical_dumps(obj)``, or ``obj`` itself when it is that text
    already.  The text is encoded before the file is opened, so text UTF-8
    cannot encode leaves an existing file as it was."""
    Path(path).write_bytes((obj if encoded else canonical_dumps(obj)).encode("utf-8"))


_gc_lock = threading.RLock()  # reentrant: read_json pauses inside load_dataset's pause


@contextmanager
def paused_gc():
    """Pause the cyclic GC, then restore its state: decoded JSON holds no cycles,
    so collections while a tree is decoded or turned into other objects free nothing.
    Pauses run one at a time, so the collector ends as the first pause found it."""
    with _gc_lock:
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()


def _text(path: str | Path, data: bytes | None):
    """``path`` opened as UTF-8 text, or ``data``, its bytes read already, read
    through the same text layer, so both give the same text and errors."""
    if data is None:
        return open(path, "r", encoding="utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


@paused_gc()
def read_json(path: str | Path, data: bytes | None = None):
    """Decode a JSON file, or ``data``, its bytes, with ``path`` naming it in
    messages; any text the decoder rejects is an :class:`AnnotationFormatError`."""
    with _text(path, data) as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise AnnotationFormatError(f"{path}: malformed JSON ({exc})") from exc


def write_json_lines(path: str | Path, rows) -> None:
    """Write each row as one compact, key-sorted JSON line.  As in :func:`write_json`,
    the text is encoded before the file is opened."""
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode  # json.dumps's, once
    text = "".join([encode(row) + "\n" for row in rows])
    Path(path).write_bytes(text.encode("utf-8"))


def read_json_lines(path: str | Path, data: bytes | None = None):
    """Yield ``(line number, decoded row)`` for each non-blank line of a JSON-lines
    file, or of ``data``, its bytes, as in :func:`read_json`.

    Line numbers count every line, blank ones included, from 1.  A line that
    :func:`read_json` would reject is an :class:`AnnotationFormatError`.
    """
    decode = json.JSONDecoder().raw_decode
    with _text(path, data) as f:
        try:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                # The stripped line has no whitespace for json.loads to skip,
                # so it holds one value iff raw_decode ends at its end.
                try:
                    row, end = decode(line)
                except (ValueError, RecursionError):
                    end = -1
                if end != len(line):
                    try:  # json.loads raises the error (and message) of this line
                        row = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        raise AnnotationFormatError(
                            f"{path}:{lineno}: malformed JSON line ({exc})"
                        ) from exc
                yield lineno, row
        except UnicodeDecodeError as exc:
            raise AnnotationFormatError(f"{path}: not UTF-8 text ({exc})") from exc
