"""The one CSV layout that every input file of the package shares.

A file is UTF-8 text with one header row, then data rows of numbers:

- the header's fields are stripped and matched case-insensitively against
  the headers the caller accepts;
- blank rows (no field, or one whitespace-only field) are skipped;
- every data row has exactly as many fields as the header;
- every numeric field parses with ``float`` and is finite.

A file that breaks a rule raises ``ValueError`` naming the file and, for a
data row, its line.
"""

from __future__ import annotations

import csv
import math
from typing import Iterator, Optional, Sequence

__all__ = ["read_csv"]


def read_csv(path, headers: Optional[Sequence[Sequence[str]]] = None,
             key: Optional[str] = None) -> Iterator:
    """Yield the stripped header fields of ``path``, then ``(line number,
    values)`` for each data row, converting each row as it is read.

    ``headers`` lists the accepted headers as lower-case tuples; ``None``
    accepts any header. When the first header field equals ``key`` in any
    case, that column holds identifiers: each row's first value is its
    stripped text instead of a number.
    """
    expected = " or ".join(repr(",".join(h)) for h in headers or ())
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file"
                             + (f"; expected header {expected}" if headers else ""))
        header = [h.strip() for h in header]
        if headers is not None and tuple(h.lower() for h in header) not in headers:
            raise ValueError(f"{path} line 1: header must be {expected}, "
                             f"got {','.join(header)!r}")
        yield header
        text = int(bool(header) and header[0].lower() == key)
        found = False
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path} line {lineno}: expected {len(header)} "
                                 f"fields, got {len(row)}")
            try:
                values = list(map(float, row[text:]))
                # a float sum is finite whenever every term is; only a sum
                # that overflows on finite terms needs the term-by-term test
                finite = (math.isfinite(sum(values))
                          or all(map(math.isfinite, values)))
            except ValueError:
                finite = False
            if not finite:
                raise ValueError(f"{path} line {lineno}: "
                                 f"{_bad_entry(header, row, text)}")
            yield lineno, ([row[0].strip()] + values if text else values)
            found = True
    if not found:
        raise ValueError(f"{path}: no data rows")


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
