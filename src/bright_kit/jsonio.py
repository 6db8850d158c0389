"""Canonical JSON reading/writing.

Every artifact the toolkit emits goes through :func:`write_json` so that two
runs with identical inputs and seeds produce byte-identical files: keys are
sorted, indentation is fixed, and a single trailing newline is appended.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import AnnotationFormatError


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def read_json(path: str | Path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise AnnotationFormatError(f"{path}: malformed JSON ({exc})") from exc


def write_json_lines(path: str | Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True, ensure_ascii=False))
            f.write("\n")


def read_json_lines(path: str | Path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise AnnotationFormatError(
                        f"{path}:{lineno}: malformed JSON line ({exc})"
                    ) from exc
        except UnicodeDecodeError as exc:
            raise AnnotationFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    return rows
