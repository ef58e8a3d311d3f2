"""The one CSV layout that every input file of the package shares.

A file is UTF-8 text (a leading byte-order mark is skipped) with one header
row, then data rows of numbers:

- the header's fields are stripped and matched case-insensitively against
  the headers the caller accepts;
- blank rows (no field, or one whitespace-only field) are skipped;
- every data row has exactly as many fields as the header;
- every numeric field parses with ``float`` and is finite.

A file that breaks a rule raises ``ValueError`` naming the file and, for a
data row, its line.

numpy's C tokenizer reads the data rows, quoted fields included, in one
streamed pass. Only a file it rejects or whose array breaks a rule goes
through a ``csv`` and ``float`` row loop, which names the line and column of
the first bad entry and accepts the rest: whitespace-only rows, blank ids,
``1_000`` and non-ASCII digits.
"""

from __future__ import annotations

import csv
import math
import warnings
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["read_csv"]


def read_csv(path, headers: Optional[Sequence[Sequence[str]]] = None,
             key: Optional[str] = None) -> Tuple[list, Optional[list], np.ndarray]:
    """Return ``(header, ids, values)``: the stripped header fields of
    ``path``, its id column (or None) and its data rows as one 2-D float64
    array.

    ``headers`` lists the accepted headers as lower-case tuples; ``None``
    accepts any header. When the first header field equals ``key`` in any
    case, that column holds identifiers: ``ids`` lists each row's stripped
    text, and ``values`` holds the other columns.
    """
    expected = " or ".join(repr(",".join(h)) for h in headers or ())
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise ValueError(f"{path}: empty file"
                             + (f"; expected header {expected}" if headers else ""))
        header = [h.strip() for h in header]
        if headers is not None and tuple(h.lower() for h in header) not in headers:
            raise ValueError(f"{path} line 1: header must be {expected}, "
                             f"got {','.join(header)!r}")
        text = int(bool(header) and header[0].lower() == key)
        # an id field is kept as text and read as 0.0, which the returned
        # slice drops; skipping it with usecols would let extra fields pass
        ids: List[str] = []
        keep_id = {0: lambda tok: ids.append(tok.strip()) or 0.0} if text else None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                values = np.loadtxt(handle, delimiter=",", comments=None,
                                    quotechar='"', ndmin=2, converters=keep_id)
        except ValueError:
            values = np.empty((0, 0))
    # a blank id may be a whitespace-only row, which the row loop skips
    if (values.shape[0] and values.shape[1] == len(header)
            and np.isfinite(values).all() and all(ids)):
        return header, (ids if text else None), values[:, text:]
    ids, rows = [], []
    for lineno, row in _records(path):
        if len(row) != len(header):
            raise ValueError(f"{path} line {lineno}: expected {len(header)} "
                             f"fields, got {len(row)}")
        try:
            numbers = list(map(float, row[text:]))
            finite = all(map(math.isfinite, numbers))
        except ValueError:
            finite = False
        if not finite:
            raise ValueError(f"{path} line {lineno}: "
                             f"{_bad_entry(header, row, text)}")
        ids.append(row[0].strip())
        rows.append(numbers)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, (ids if text else None), np.array(rows)


def _records(path) -> Iterator[Tuple[int, List[str]]]:
    """``(line number, fields)`` of each non-blank row after the header."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if row and (len(row) > 1 or row[0].strip()):
                yield lineno, row


def _bad_entry(header, row, start) -> str:
    """Describe the first field of ``row`` from ``start`` on that is not a
    finite number."""
    for name, tok in zip(header[start:], row[start:]):
        try:
            if math.isfinite(float(tok)):
                continue
            kind = "non-finite"
        except ValueError:
            kind = "non-numeric"
        return f"{kind} entry {tok!r} in column {name!r}"
