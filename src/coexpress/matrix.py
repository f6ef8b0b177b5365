"""Expression-matrix loading, validation, cleansing, and per-gene summary statistics."""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import orjson

from .errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

TRUNCATION_DECIMALS = 3


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ExpressionMatrix:
    """Dense genes x samples matrix with per-sample site labels.

    Rows are genes, columns are samples. `labels[j]` is the site class of
    `sample_ids[j]`. Values are treated as immutable after construction;
    the backing array is marked read-only.
    """

    gene_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = _freeze(np.atleast_2d(self.values))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "labels", tuple(self.labels))
        if vals.shape != (len(self.gene_ids), len(self.sample_ids)):
            raise ValidationError(
                f"matrix shape {vals.shape} does not match "
                f"{len(self.gene_ids)} genes x {len(self.sample_ids)} samples"
            )
        if len(self.labels) != len(self.sample_ids):
            raise ValidationError("one site label required per sample")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ValidationError("duplicate sample IDs")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValidationError("matrix contains non-finite values")

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    def gene_index(self, gene_ids: Sequence[str]) -> np.ndarray:
        """Row indices for the given gene IDs, in the given order."""
        pos = {g: i for i, g in enumerate(self.gene_ids)}
        missing = [g for g in gene_ids if g not in pos]
        if missing:
            raise ValidationError(f"genes not in matrix: {missing[:5]}")
        return np.array([pos[g] for g in gene_ids], dtype=np.intp)

    def site_columns(self, site: str) -> np.ndarray:
        cols = np.array([j for j, lab in enumerate(self.labels) if lab == site], dtype=np.intp)
        if cols.size == 0:
            raise ValidationError(f"no samples labelled {site!r}")
        return cols

    def select_genes(self, gene_ids: Sequence[str]) -> "ExpressionMatrix":
        idx = self.gene_index(gene_ids)
        return replace(self, gene_ids=tuple(gene_ids), values=self.values[idx])

    def select_samples(self, columns: Sequence[int]) -> "ExpressionMatrix":
        cols = np.asarray(columns, dtype=np.intp)
        return replace(
            self,
            sample_ids=tuple(self.sample_ids[j] for j in cols),
            labels=tuple(self.labels[j] for j in cols),
            values=self.values[:, cols],
        )


@dataclass(frozen=True)
class GeneStats:
    gene_id: str
    max: float
    min: float
    mean: float
    median: float
    sensitivity: float


@dataclass(frozen=True)
class CleansingReport:
    removed_all_zero: int
    removed_duplicates: int
    column_order: tuple[int, ...]
    truncation_applied: bool


def _delimiter_for(path: Path, delimiter: str | None) -> str:
    if delimiter is not None:
        return delimiter
    return "," if path.suffix.lower() == ".csv" else "\t"


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path` (a leading byte-order mark dropped, line ends kept)."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {raw[exc.start]:#04x})",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None


def load_matrix(
    matrix_path: str | Path,
    labels_path: str | Path,
    delimiter: str | None = None,
    allowed_sites: Sequence[str] | None = None,
) -> ExpressionMatrix:
    """Parse a delimited expression matrix plus its two-column label file.

    Matrix format: header row is a corner cell followed by sample IDs; every
    data row is a gene ID followed by one numeric cell per sample. The label
    file maps sample_id -> site, one pair per line (an optional
    ``sample_id<TAB>site`` header line is skipped). Decimal separator is
    always the dot, independent of locale.
    """
    matrix_path = Path(matrix_path)
    labels_path = Path(labels_path)
    if not matrix_path.is_file():
        raise ValidationError(f"matrix file not found: {matrix_path}")
    if not labels_path.is_file():
        raise ValidationError(f"label file not found: {labels_path}")
    delim = _delimiter_for(matrix_path, delimiter)

    text = read_text(matrix_path)
    sample_ids, gene_ids, values = (_read_plain(text, delim)
                                    or _read_csv(io.StringIO(text, newline=""), delim))

    label_map = _read_labels(labels_path)
    missing = [s for s in sample_ids if s not in label_map]
    if missing:
        raise ValidationError(f"label file {labels_path} has no entry for sample {missing[0]!r}")
    labels = [label_map[s] for s in sample_ids]
    if allowed_sites is not None:
        unknown = sorted({lab for lab in labels if lab not in set(allowed_sites)})
        if unknown:
            raise ValidationError(f"unknown site label {unknown[0]!r} (allowed: {list(allowed_sites)})")

    # Duplicate gene IDs are allowed here; cleanse() resolves them.
    return ExpressionMatrix(tuple(gene_ids), tuple(sample_ids), tuple(labels), values)


# A quote or CR needs the csv parser. numpy strips the ASCII separators
# \x1c-\x1f around a number as whitespace, float() does not.
_NOT_PLAIN = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain(text: str, delim: str) -> tuple[list[str], list[str], np.ndarray] | None:
    """`_read_csv`'s result for plain text, with the values parsed in one numpy call.

    Plain text holds none of `_NOT_PLAIN`, and every line that is not blank
    has a delimiter, so a line splits as the csv parser splits it. numpy's C
    parser reads a cell as float() does (both end in PyOS_string_to_double),
    except for what it rejects, such as underscores or non-ASCII digits.
    Returns None for anything else and for anything the csv parser rejects,
    so that it raises its own error.
    """
    if any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    sample_ids = [c.strip() for c in lines[0].split(delim)[1:]]
    n_cols = len(sample_ids)
    if not n_cols or len(set(sample_ids)) != n_cols:
        return None
    rows = [ln for ln in lines[1:] if delim in ln or ln.strip()]
    if not rows or any(ln.count(delim) != n_cols for ln in rows):
        return None
    try:
        # comments=None: a gene ID may start with "#"
        values = np.loadtxt(rows, delimiter=delim, comments=None, dtype=np.float64,
                            ndmin=2, usecols=range(1, n_cols + 1))
    except ValueError:
        return None
    if values.shape != (len(rows), n_cols) or not np.all(np.isfinite(values)):
        return None
    return sample_ids, [ln.partition(delim)[0].strip() for ln in rows], values


def _read_csv(fh: Iterable[str], delim: str) -> tuple[list[str], list[str], np.ndarray]:
    """Parse matrix text cell by cell; the reference reader, and the one for quoted or CRLF text."""
    reader = csv.reader(fh, delimiter=delim)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty matrix file", line=1) from None
    sample_ids = [c.strip() for c in header[1:]]
    if not sample_ids:
        raise ParseError("header row has no sample IDs", line=1)
    if len(set(sample_ids)) != len(sample_ids):
        dup = sorted({s for s in sample_ids if sample_ids.count(s) > 1})
        raise ValidationError(f"duplicate sample ID in header: {dup[0]!r}")

    gene_ids: list[str] = []
    rows: list[list[float]] = []
    n_cols = len(sample_ids)
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n_cols + 1:
            raise ParseError(
                f"row {row[0]!r} has {len(row) - 1} value cells, expected {n_cols}",
                line=lineno,
            )
        try:
            rows.append([float(c) for c in row[1:]])
        except ValueError:
            bad = next(c for c in row[1:] if not _is_number(c))
            raise ParseError(
                f"non-numeric cell {bad!r} in row {row[0]!r}", line=lineno
            ) from None
        gene_ids.append(row[0].strip())
    if not rows:
        raise ParseError("matrix file has no data rows", line=2)

    values = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ParseError("matrix contains non-finite values (inf/nan)")
    return sample_ids, gene_ids, values


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _read_labels(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    reader = csv.reader(io.StringIO(read_text(path), newline=""), delimiter="\t")
    for lineno, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ParseError("label row needs two columns (sample_id, site)", line=lineno)
        sid, site = row[0].strip(), row[1].strip()
        if lineno == 1 and sid.lower() in ("sample_id", "sample"):
            continue
        if sid in out and out[sid] != site:
            raise ValidationError(f"conflicting labels for sample {sid!r}")
        out[sid] = site
    return out


def _exponent_rows(values: np.ndarray) -> np.ndarray:
    """Rows with a cell that repr() writes in exponent form (1e-05, 1e+16).

    Outside exponent form, repr() writes the shortest round-trip digits in the
    layout orjson (Ryu) writes them, so every other row can be formatted by
    one orjson call. Inside it the two differ: orjson writes 1e-05 as 0.00001
    and 1e+16 as 1e16.
    """
    mags = np.abs(values)
    return (((mags < 1e-4) & (values != 0.0)) | (mags >= 1e16)).any(axis=1)


def write_matrix(m: ExpressionMatrix, matrix_path: str | Path, labels_path: str | Path) -> None:
    """Serialize in the same TSV layout load_matrix reads; each cell is repr() of its value."""
    matrix_path, labels_path = Path(matrix_path), Path(labels_path)
    with open(matrix_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter="\t", lineterminator="\n")
        w.writerow(["gene_id", *m.sample_ids])
        # Only the gene ID goes through csv quoting: a float's repr never needs it.
        # Written as a row of (ID, "") it comes out quoted as in the full row, plus a tab.
        id_cell = csv.writer(fh, delimiter="\t", lineterminator="")
        id_row = ("",) if m.n_samples else ()
        # one row at a time: a whole-matrix dumps or tolist() would hold every cell at once
        for gid, row, exp_form in zip(m.gene_ids, m.values, _exponent_rows(m.values)):
            id_cell.writerow((gid, *id_row))
            if exp_form:
                fh.write("\t".join(map(repr, row.tolist())) + "\n")
            else:
                cells = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
                fh.write(cells.replace(b",", b"\t").decode() + "\n")
    with open(labels_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter="\t", lineterminator="\n")
        w.writerow(["sample_id", "site"])
        for sid, lab in zip(m.sample_ids, m.labels):
            w.writerow([sid, lab])


def truncate_values(values: np.ndarray, decimals: int = TRUNCATION_DECIMALS) -> np.ndarray:
    """Truncate toward zero at `decimals` places.

    The inner round-to-6 snaps binary floats back onto the decimal the input
    file carried (double("1.234")*1000 is 1233.999...), which keeps the
    operation a fixed point on already-truncated values. Past 2**52 / 10**(decimals + 6)
    (about 4.5e6 at 3 decimals) that snap runs out of digits and stops being a
    fixed point, and far above it overflows; such cells are cut on their
    shortest decimal, repr(), instead.
    """
    scale = 10.0 ** decimals
    with np.errstate(over="ignore"):
        out = np.trunc(np.round(values * scale, 6)) / scale
    wide = np.abs(values) >= 2.0 ** 52 / 10.0 ** (decimals + 6)
    if wide.any():
        out[wide] = [_cut_decimals(x, decimals) for x in values[wide].tolist()]
    return out


def _cut_decimals(x: float, decimals: int) -> float:
    if abs(x) >= 2.0 ** 52:  # every double this large is an integer
        return x
    whole, _, frac = repr(x).partition(".")  # no exponent form below 1e16
    return float(f"{whole}.{frac[:decimals]}")


def cleanse(
    m: ExpressionMatrix, site_order: Sequence[str]
) -> tuple[ExpressionMatrix, CleansingReport]:
    """Drop all-zero genes and duplicate gene IDs, group columns by site, truncate values.

    Truncation (3 decimals, toward zero) is applied before the zero-row check
    so that genes whose values vanish at 3-decimal resolution count as
    all-zero; this makes cleansing idempotent. Duplicate gene IDs keep the
    first occurrence; a conflict between differing duplicate rows is logged.
    Column reordering groups samples by `site_order` and is stable within
    each site.
    """
    site_order = list(site_order)
    present = set(m.labels)
    uncovered = sorted(present - set(site_order))
    if uncovered:
        raise ValidationError(f"site_order does not cover label {uncovered[0]!r}")

    values = truncate_values(m.values)

    nonzero = ~np.all(values == 0.0, axis=1)
    removed_zero = int(np.count_nonzero(~nonzero))

    keep_rows: list[int] = []
    seen: dict[str, int] = {}
    removed_dup = 0
    for i in np.flatnonzero(nonzero):
        gid = m.gene_ids[i]
        if gid in seen:
            removed_dup += 1
            if not np.array_equal(values[seen[gid]], values[i]):
                logger.warning(
                    "duplicate gene %r has conflicting values; keeping first occurrence", gid
                )
            continue
        seen[gid] = i
        keep_rows.append(i)
    if not keep_rows:
        raise ValidationError("cleansing removed every gene")

    rank = {site: r for r, site in enumerate(site_order)}
    perm = sorted(range(m.n_samples), key=lambda j: rank[m.labels[j]])

    cleaned = ExpressionMatrix(
        gene_ids=tuple(m.gene_ids[i] for i in keep_rows),
        sample_ids=tuple(m.sample_ids[j] for j in perm),
        labels=tuple(m.labels[j] for j in perm),
        values=values[np.ix_(keep_rows, perm)],
    )
    report = CleansingReport(
        removed_all_zero=removed_zero,
        removed_duplicates=removed_dup,
        column_order=tuple(perm),
        truncation_applied=True,
    )
    return cleaned, report


def filter_sites(m: ExpressionMatrix, keep_sites: Sequence[str]) -> ExpressionMatrix:
    """Keep only samples whose site is in `keep_sites` (drops minority classes)."""
    keep = list(keep_sites)
    absent = [s for s in keep if s not in set(m.labels)]
    if absent:
        raise ValidationError(f"site {absent[0]!r} has no samples")
    cols = [j for j, lab in enumerate(m.labels) if lab in set(keep)]
    dropped = m.n_samples - len(cols)
    if dropped:
        logger.info("dropping %d samples outside sites %s", dropped, keep)
    return m.select_samples(cols)


def gene_stats(m: ExpressionMatrix) -> list[GeneStats]:
    """Per-gene max/min/mean/median and sensitivity (max - min).

    Median of an even-length row is the arithmetic mean of the two central
    order statistics.
    """
    if m.n_samples < 1:
        raise ValidationError("gene_stats needs at least one sample")
    mx = m.values.max(axis=1)
    mn = m.values.min(axis=1)
    mean = m.values.mean(axis=1)
    med = np.median(m.values, axis=1)
    return [
        GeneStats(g, float(mx[i]), float(mn[i]), float(mean[i]), float(med[i]), float(mx[i] - mn[i]))
        for i, g in enumerate(m.gene_ids)
    ]


def export_stats(stats: Iterable[GeneStats], ordering: str, path: str | Path) -> None:
    """Write stats CSV in descending order of the chosen key, ties by gene ID."""
    keys = {"mean": lambda s: s.mean, "sensitivity": lambda s: s.sensitivity}
    if ordering not in keys:
        raise ValidationError(f"ordering must be one of {sorted(keys)}, got {ordering!r}")
    key = keys[ordering]
    ordered = sorted(stats, key=lambda s: (-key(s), s.gene_id))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["gene_id", "max", "min", "mean", "median", "sensitivity"])
        for s in ordered:
            w.writerow([s.gene_id, repr(s.max), repr(s.min), repr(s.mean), repr(s.median), repr(s.sensitivity)])
