"""The text format of every file the toolkit reads and writes.

UTF-8 with "\\n" line ends on every platform; CSV and TSV rows use csv
minimal quoting (RFC 4180), so a cell holding the delimiter, a quote, a
"\\n" or a "\\r" is quoted; JSON is indented by 2 with sorted keys unless a
caller pins its key order. A leading byte-order mark is dropped on read.
"""
from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import ParseError

# after a "\r" that does not start a "\r\n"
_LONE_CR_END = re.compile(r"(?<=\r)(?!\n)")


def text_lines(path: str | Path) -> Iterator[str]:
    """The lines of the UTF-8 file `path`, ends kept, read one at a time (a
    leading byte-order mark dropped).

    Lines end as `open(newline="")` ends them for the csv parser: at "\\n",
    "\\r\\n" or a lone "\\r". A byte that is not UTF-8 raises ParseError naming
    the file, the byte and its line (lines counted by "\\n") when it is reached.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                # exc.object: the bytes decoded, after a byte-order mark
                raise ParseError(f"{path} is not UTF-8 text (byte {exc.object[exc.start]:#04x})",
                                 line=lineno) from None
            if "\r" in line:
                yield from filter(None, _LONE_CR_END.split(line))
            else:
                yield line


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path` (a leading byte-order mark dropped, line ends kept)."""
    return "".join(text_lines(path))


def write_text(path: str | Path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def csv_writer(fh: TextIO, delimiter: str, end: str = "\n"):
    """A csv writer onto `fh` with minimal quoting that ends each row with `end`.

    The writer is made with "\\r\\n" ends, so that it quotes a cell holding
    "\\r" as well as "\\n" (Python 3.11 quotes only the characters of the line
    terminator); each row's "\\r\\n" is then written as `end`.
    """
    rows = SimpleNamespace(write=lambda row: fh.write(row[:-2] + end))
    return csv.writer(rows, delimiter=delimiter, lineterminator="\r\n")


def write_rows(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]],
               delimiter: str = ",") -> None:
    """`header`, then each of `rows` as it is produced (a generator is never held whole)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv_writer(fh, delimiter)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str | Path, obj: object, sort_keys: bool = True) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=sort_keys))
