"""The reader against the row-by-row reader that parsed every input CSV
before the numpy C pass, kept here verbatim as the oracle: on any file the
two return bitwise-equal arrays, equal ids and equal line numbers, or raise
the same message."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from logconmix._readcsv import _records, read_csv  # noqa: E402


def _row_by_row_read_csv(path, headers=None, key=None):
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
                finite = (math.isfinite(sum(values))
                          or all(map(math.isfinite, values)))
            except ValueError:
                finite = False
            if not finite:
                raise ValueError(f"{path} line {lineno}: "
                                 f"{_row_by_row_bad_entry(header, row, text)}")
            yield lineno, ([row[0].strip()] + values if text else values)
            found = True
    if not found:
        raise ValueError(f"{path}: no data rows")


def _row_by_row_bad_entry(header, row, start):
    for name, tok in zip(header[start:], row[start:]):
        try:
            if math.isfinite(float(tok)):
                continue
            kind = "non-finite"
        except ValueError:
            kind = "non-numeric"
        return f"{kind} entry {tok!r} in column {name!r}"


def _oracle(path, headers, key):
    """``(header, ids, values, line numbers)`` collected from the oracle the
    way its callers collected them, or the message it raised."""
    try:
        rows = _row_by_row_read_csv(path, headers, key)
        header = next(rows)
        text = int(bool(header) and header[0].lower() == key)
        numbered = list(rows)
    except ValueError as exc:
        return str(exc)
    ids = [row[0] for _, row in numbered] if text else None
    values = np.array([row[text:] for _, row in numbered])
    return header, ids, values, [lineno for lineno, _ in numbered]


# fields that the C pass and ``float`` may read differently, or not at all
TOKENS = ["1_000", "١٢", "0x1p3", " 2.5 ", "+1", "-0", "1e400",
          "nan", "-inf", "Infinity", "oops", "", " ", '"3.5"', '" 4 "',
          "1,5", " 7 ", "1e-320", ".5", "5."]
IDS = ["g1", " g2 ", "nan", "1.5", '"g,1"', '"a""b"', '"c\nd"', 'x"y', "",
       "Géne"]
BLANKS = ["", "   ", "\t", '""']
ENDINGS = ["\n", "\r\n", "\r"]

_number = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _csv_file(draw):
    """(file text, headers, key) from the ingredients above. Half the files
    hold only numbers, ids (quoted ones too) and empty lines that the C pass
    reads; the rest draw each row and field from every ingredient."""
    messy = draw(st.booleans())
    token = (st.one_of(*[_number] * 9, st.sampled_from(TOKENS)) if messy
             else _number)
    width = draw(st.integers(1, 4))
    keyed = draw(st.booleans())
    names = ([draw(st.sampled_from(["gene", "Gene", " GENE "]))] if keyed
             else []) + [f"c{j}" for j in range(width)]
    lines = [",".join(names)]
    kinds = ["row"] * 6 + (["blank", "ragged", "trailing"] if messy else [""])
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("", "blank"):
            lines.append(draw(st.sampled_from(BLANKS)) if messy else kind)
            continue
        fields = [draw(token) for _ in range(width)]
        if messy and draw(st.integers(0, 9)) == 0:
            fields = [f'"{f}"' for f in fields]
        if keyed:
            fields = [draw(st.sampled_from(IDS if messy else IDS[:7]))] + fields
        if kind == "ragged":
            fields = fields[:-1] if draw(st.booleans()) else fields + [draw(token)]
        elif kind == "trailing":
            fields.append("")
        lines.append(",".join(fields))
    ending = draw(st.sampled_from(ENDINGS + ["mixed"]))
    text = "".join(line + (draw(st.sampled_from(ENDINGS)) if ending == "mixed"
                           else ending) for line in lines)
    headers = draw(st.sampled_from([None, (tuple(n.strip().lower() for n in names),)]))
    return text, headers, "gene"


def _compare(path, headers, key):
    want = _oracle(path, headers, key)
    try:
        header, ids, values = read_csv(path, headers, key)
    except ValueError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    assert header == want[0]
    assert ids == want[1]
    assert values.dtype == want[2].dtype == np.float64
    assert values.shape == want[2].shape
    assert values.tobytes() == want[2].tobytes()
    assert [lineno for lineno, _ in _records(path)] == want[3]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_file())
def test_reader_matches_the_row_by_row_oracle(tmp_path, case):
    text, headers, key = case
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    _compare(path, headers, key)


@pytest.mark.parametrize("text", [
    "gene,a,b\n\"g,1\",1,2\n",
    "gene,a\n\"a\"\"b\",1\n\"c\nd\",2\n\"e\"f,3\n",
    "gene,a,b\r\"g1\",1,2\r \t\rg2,1_000,١\r",
    "x,y\r\n1e400,2\r\n",
    "x,y\n1,2\n  \n0x1p3,4\n",
    "x\n\" 2.5 \"\n-0\n",
    "gene\n  \ng1\n",
    "x,y\n1,2,\n",
    "x,y\n\n\n",
    "gene,a,b\ng1,1,2,3\ng2,4,5,6\n",
    "gene,a,b\ng1,1,2\ng2,4,5,6\n",
])
def test_reader_matches_the_oracle_on_fixed_files(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    _compare(path, None, "gene")
