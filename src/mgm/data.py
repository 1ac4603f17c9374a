"""Loading and preprocessing of delimited sample-by-feature matrices.

Files may carry a header row of feature names and a leading column of sample
ids; both are detected from the first cells being non-numeric, and both are
present when the first row's first cell is empty. Detected names are skipped,
not kept. A matrix stored features-by-samples loads identically with
orientation flipped.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "load_matrix",
    "load_labels",
    "preprocess",
]


def _checked(values, where: str = "") -> np.ndarray:
    """values as a float array, or DataError, its message led by `where`,
    unless it is 2-d, nonempty and finite."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise DataError(f"{where}matrix must be 2-d and nonempty, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{where}matrix contains non-finite values")
    return values


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _csv_rows(handle, delimiter: str):
    """The non-empty rows csv reads from handle."""
    return (row for row in csv.reader(handle, delimiter=delimiter) if row)


def load_matrix(
    path: str | Path,
    fmt: str = "csv",
    orientation: str = "samples-as-rows",
) -> np.ndarray:
    """Load a delimited matrix, skipping an optional header row and id column,
    as a read-only (M, N) array that owns its data: nonempty and finite.

    fmt is "csv" or "tsv". orientation is "samples-as-rows" or
    "samples-as-columns"; the latter transposes after loading. Parse
    failures report the 1-based (row, column) position in the file, counting
    non-blank rows. A first pass over the file's lines sizes the array. A
    file with no quote and the same number of cells on every data line is
    parsed by np.loadtxt; any other file, and any file np.loadtxt rejects,
    is cast row by row as csv reads it into one array. A ragged row anywhere
    is reported before a non-numeric value.
    """
    path = Path(path)
    if fmt not in ("csv", "tsv"):
        raise DataError(f"unknown format {fmt!r}; expected 'csv' or 'tsv'")
    if orientation not in ("samples-as-rows", "samples-as-columns"):
        raise DataError(
            f"unknown orientation {orientation!r}; expected "
            "'samples-as-rows' or 'samples-as-columns'"
        )
    delimiter = "," if fmt == "csv" else "\t"
    try:
        # utf-8-sig drops a byte-order mark, which would otherwise be read
        # as part of the first cell.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            # csv gives at most one row per non-blank line, and fewer where a
            # quoted cell spans lines. Without a quote, the first row is on
            # line `first_line` and each later row is one line whose cells
            # number one more than its delimiters.
            capacity, first_line, quoted, later_delimiters = 0, 0, False, set()
            for number, line in enumerate(handle, 1):
                if line.rstrip("\r\n"):
                    if capacity:
                        later_delimiters.add(line.count(delimiter))
                    else:
                        first_line = number
                    capacity += 1
                    quoted = quoted or '"' in line
            handle.seek(0)
            rows = _csv_rows(handle, delimiter)
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path} is empty")
            # An empty first cell is the corner of a header row above an id
            # column, the layout pandas and R write by default.
            blank_corner = not first[0].strip()
            has_header = (
                blank_corner
                or any(not _is_number(tok) for tok in first[1:])
                or (len(first) == 1 and not _is_number(first[0]))
            )
            header_width = len(first) if has_header else None
            if has_header:
                first = next(rows, None)
                if first is None:
                    raise DataError(f"{path} has a header but no data rows")
            width = len(first)
            # As in R's read.table, a header one cell shorter than the data
            # rows sits over an id column, numeric ids included.
            has_id_col = blank_corner or not _is_number(first[0]) or header_width == width - 1
            start = 1 if has_id_col else 0

            values = parse_error = None
            # usecols alone would load a row with an extra cell, so every
            # data line's delimiters are counted first.
            if not quoted and later_delimiters <= {width - 1}:
                handle.seek(0)
                try:
                    with warnings.catch_warnings():
                        # max_rows sizes the array once. numpy warns that
                        # blank lines do not count towards it, as wanted.
                        warnings.filterwarnings("ignore", "Input line", UserWarning)
                        values = np.loadtxt(
                            handle,
                            delimiter=delimiter,
                            comments=None,
                            usecols=range(start, width),
                            skiprows=first_line if has_header else 0,
                            max_rows=capacity - has_header,
                            ndmin=2,
                        )
                except ValueError:
                    # A bad cell, or one that only float() reads (1_000,
                    # full-width digits): the row loop below names the
                    # first bad cell, or reads them all.
                    pass
            if values is None:
                handle.seek(0)
                values = np.empty((capacity - has_header, width - start))
                rows = itertools.islice(_csv_rows(handle, delimiter), has_header, None)
                for i, row in enumerate(rows):
                    row_no = i + 1 + has_header
                    if len(row) != width:
                        raise DataError(
                            f"{path}: row {row_no} has {len(row)} cells, expected {width}"
                        )
                    if parse_error is None:
                        try:
                            # numpy casts each token with float().
                            values[i] = row[start:]
                        except ValueError:
                            # Kept until every row's length has been checked.
                            j = next(j for j in range(start, width) if not _is_number(row[j]))
                            parse_error = DataError(
                                f"{path}: non-numeric value {row[j]!r} at ({row_no}, {j + 1})"
                            )
                if i + 1 < len(values):
                    values = values[: i + 1].copy()
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"cannot read {path}: {err}")
    if parse_error is not None:
        raise parse_error
    # A header may or may not carry a corner cell above the id column; any
    # other width is wrong whether or not there is an id column.
    if header_width is not None and header_width not in (width, width - start):
        expected = f"{width} or {width - 1}" if width > 1 else f"{width}"
        raise DataError(f"{path}: header has {header_width} cells, expected {expected}")
    if orientation == "samples-as-columns":
        values = values.T.copy()
    _checked(values, f"{path}: ")
    values.setflags(write=False)
    return values


def load_labels(path: str | Path, expected: int | None = None) -> tuple[str, ...]:
    """Read one label per line, skipping blank lines."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path}: {err}")
    labels = tuple(line.strip() for line in text.splitlines() if line.strip())
    if not labels:
        raise DataError(f"{path} contains no labels")
    if expected is not None and len(labels) != expected:
        raise DataError(f"{path}: {len(labels)} labels for {expected} samples")
    return labels


def preprocess(
    values: np.ndarray,
    normalize: bool = True,
    log_transform: bool = True,
    top_features: int | None = None,
) -> np.ndarray:
    """Median-total normalization, log1p, and optional variance filtering of
    a 2-d, nonempty, finite matrix, into a read-only array that owns its
    data. The result is checked as the input is.

    Normalization rescales each row to the median row total; all-zero rows
    stay zero. Negative entries make totals meaningless, so they are
    rejected. top_features keeps that many highest-variance columns, in
    their original order. Each step works on the one copy the result keeps,
    in C order whatever the input's.
    """
    values = np.array(_checked(values), order="C")
    if normalize:
        if np.any(values < 0):
            raise DataError("normalization requires nonnegative values; got negatives")
        totals = values.sum(axis=1)
        median_total = float(np.median(totals))
        nonzero = totals > 0
        values *= np.divide(median_total, totals, out=np.ones_like(totals), where=nonzero)[:, None]
    if log_transform:
        if np.any(values <= -1.0):
            raise DataError("log1p requires every value to exceed -1")
        np.log1p(values, out=values)
    if top_features is not None:
        if not 1 <= top_features <= values.shape[1]:
            raise DataError(
                f"preprocess.top_features must lie in [1, {values.shape[1]}], got {top_features}"
            )
        variances = values.var(axis=0)
        ranked = np.argsort(-variances, kind="stable")[:top_features]
        values = np.take(values, np.sort(ranked), axis=1)
    _checked(values)  # a row total that overflowed
    values.setflags(write=False)
    return values
