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
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence, TextIO

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


def json_text(obj: object, sort_keys: bool = True) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys)


def write_json(path: str | Path, obj: object, sort_keys: bool = True) -> None:
    write_text(path, json_text(obj, sort_keys))


def read_json(text: str, source: str, keys: Mapping[str, Callable[[Any], Any]],
              required: Collection[str] | None = None) -> dict[str, Any]:
    """The JSON object `text`, read by `read_object`; text that is not JSON raises ParseError."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source} is not JSON: {exc.msg} (column {exc.colno})",
                         line=exc.lineno) from None
    return read_object(d, source, keys, required)


def read_object(d: Any, source: str, keys: Mapping[str, Callable[[Any], Any]],
                required: Collection[str] | None = None) -> dict[str, Any]:
    """The decoded JSON object `d`, each key parsed by its entry in `keys`, in
    table order; keys outside `required` (default: all) may be absent. A
    value that is not an object, a missing, malformed (a parse raised a
    ValueError, TypeError or the like) or unknown key raises ParseError naming
    `source`; other errors a parse raises, such as ValidationError, pass."""
    if not isinstance(d, dict):
        raise ParseError(f"{source} is not a JSON object")
    fields = {}
    for key, parse in keys.items():
        if key in d:
            try:
                fields[key] = parse(d[key])
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ParseError(f"{source} key {key!r} is malformed: {exc!r}") from None
        elif required is None or key in required:
            raise ParseError(f"{source} has no key {key!r}")
    unknown = sorted(d.keys() - keys.keys())
    if unknown:
        raise ParseError(f"{source} has an unknown key {unknown[0]!r}")
    return fields


def _expect(v: Any, types: tuple[type, ...], kind: str) -> Any:
    """`v` if its type is one of `types` (exactly: a boolean is not an int)."""
    if type(v) not in types:
        shown = {list: "an array", dict: "an object"}.get(type(v)) or json.dumps(v)
        raise TypeError(f"expected {kind}, got {shown}")
    return v


# JSON value parsers for read_json's key tables
def whole(v: Any) -> int:
    return _expect(v, (int,), "an integer")


def number(v: Any) -> float:
    return float(_expect(v, (int, float), "a number"))


def string(v: Any) -> str:
    return _expect(v, (str,), "a string")


def array(v: Any, parse: Callable[[Any], Any] = lambda x: x) -> tuple:
    return tuple(map(parse, _expect(v, (list,), "an array")))


def row(v: Any, *parses: Callable[[Any], Any]) -> tuple:
    """An array of one entry per parse, each read by its own."""
    if len(_expect(v, (list,), "an array")) != len(parses):
        raise ValueError(f"expected {len(parses)} entries, got {len(v)}")
    return tuple(parse(x) for parse, x in zip(parses, v))


def mapping(v: Any, parse: Callable[[Any], Any]) -> dict[str, Any]:
    return {k: parse(x) for k, x in _expect(v, (dict,), "an object").items()}
