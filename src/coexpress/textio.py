"""The text format of every file the toolkit reads and writes.

UTF-8 with "\\n" line ends on every platform; CSV and TSV rows use csv
minimal quoting (RFC 4180), so a cell holding the delimiter, a quote or a
newline is quoted; JSON is indented by 2 with sorted keys unless a caller
pins its key order. A leading byte-order mark is dropped on read.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path` (a leading byte-order mark dropped, line ends kept)."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {raw[exc.start]:#04x})",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None


def write_text(path: str | Path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_rows(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]],
               delimiter: str = ",") -> None:
    """`header`, then each of `rows` as it is produced (a generator is never held whole)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str | Path, obj: object, sort_keys: bool = True) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=sort_keys))
