"""The one JSONL format of the run ledger, sweep checkpoint and request journal.

Newline-terminated JSON objects, marked ``schema``/``schema_version`` on
every ledger record and on the header line of the other two.  A crash
mid-append leaves a *torn tail* after the last newline: reads skip it and
appends cut it off, but keep a tail that is a whole JSON object.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

__all__ = ["append_jsonl", "check_schema", "read_jsonl"]


def read_jsonl(path) -> list[tuple[int, dict]]:
    """``(line_number, record)`` of every non-blank line of ``path``.

    A bad line other than a torn tail raises ``ValueError`` naming ``path:line``.
    """
    with open(path, "rb") as handle:
        *lines, tail = handle.read().split(b"\n")
    if _complete(tail):
        lines.append(tail)
    records = []
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                record = json.loads(line)
            except ValueError:
                raise ValueError(f"{path}:{number}: not JSON") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            records.append((number, record))
    return records


def _complete(line: bytes) -> bool:
    """Whether an unterminated last line is a whole JSON object, not torn."""
    try:
        return isinstance(json.loads(line), dict)
    except ValueError:
        return False


def check_schema(record: Any, schema: str, version: int, *, source="") -> None:
    """Refuse ``record`` unless it is marked ``schema`` at most at ``version``."""
    prefix = f"{source}: " if source else ""
    marker = record.get("schema") if isinstance(record, dict) else None
    if marker != schema:
        raise ValueError(f"{prefix}not a {schema} record (schema={marker!r})")
    found = record.get("schema_version")
    if not isinstance(found, int) or found < 1:
        raise ValueError(f"{prefix}invalid schema_version {found!r}")
    if found > version:
        raise ValueError(
            f"{prefix}{schema} schema_version {found} is newer than supported "
            f"{version}; refusing to misread it"
        )


def append_jsonl(
    path, records: Iterable[dict], *, header: dict | None = None, fsync: bool = False
) -> None:
    """Append ``records`` (after ``header`` if the file is new or empty)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        handle.seek(max(end - 1, 0))
        text = ""
        if handle.read(1) not in (b"", b"\n"):
            handle.seek(0)
            content = handle.read()
            cut = content.rfind(b"\n") + 1
            if _complete(content[cut:]):
                text = "\n"
            else:
                end = handle.truncate(cut)
        lines = [header] if header is not None and end == 0 else []
        lines.extend(records)
        text += "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        handle.write(text.encode("utf-8"))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
