"""Every input CSV shares one layout: the same file, malformed the same way,
gets the same answer from each reader, whether it is a library loader or a
CLI subcommand."""

from __future__ import annotations

import contextlib
import io
import math

import pytest

from logconmix import _readcsv
from logconmix.cli import main
from logconmix.families import load_tabulated_csv
from logconmix.logcon import load_weighted_csv

# Eight rows valid for every reader: the second column is a 0/1 label, a
# positive weight, and a log-density of 1 on [0, 1/e], which integrates to 1.
XS = [k / (7.0 * math.e) for k in range(8)]
ROWS = [f"{x!r},1" for x in XS]


def _cli(args, out):
    """Run the CLI; the output file's bytes on success, else ValueError with
    the error text."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(args + ["--out", str(out)])
    if code != 0:
        assert code == 2, err.getvalue()
        raise ValueError(err.getvalue())
    return out.read_bytes()


def _weighted(path, tmp_path):
    sample = load_weighted_csv(str(path))
    return sample.points.tobytes() + sample.weights.tobytes()


def _tabulated(path, tmp_path):
    table = load_tabulated_csv(str(path))
    return table.grid.tobytes() + table.log_density.tobytes()


def _fit(path, tmp_path):
    return _cli(["fit", str(path), "--f0", "uniform:0,1"],
                tmp_path / "fit.json")


def _logcx(path, tmp_path):
    return _cli(["logcx", str(path)], tmp_path / "logcx.json")


def _f0_table(path, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x\n" + "".join(f"{(k + 0.5) / (8.0 * math.e)!r}\n"
                                    for k in range(8)), encoding="utf-8")
    return _cli(["fit", str(data), "--f0", f"table:{path}"],
                tmp_path / "f0.json")


READERS = {
    "load_weighted_csv": ("x,weight", _weighted),
    "load_tabulated_csv": ("x,log_density", _tabulated),
    "fit": ("x,label", _fit),
    "logcx": ("x,weight", _logcx),
    "f0_table": ("x,log_density", _f0_table),
}


def _with_row(index, row):
    return ROWS[:index] + [row] + ROWS[index + 1:]


# name -> (file text with {h} for the reader's header, None to accept with
# the values of the well-formed file, else the message every reader gives)
CASES = {
    "well formed": ("{h}\n" + "\n".join(ROWS) + "\n", None),
    "blank and whitespace-only rows": (
        "{h}\n\n" + "\n   \n".join(ROWS) + "\n\t\n\n", None),
    "header in another case, padded": (
        "{H}\n" + "\n".join(ROWS) + "\n", None),
    "CRLF line endings": ("{h}\r\n" + "\r\n".join(ROWS) + "\r\n", None),
    "UTF-8 BOM": ("\ufeff{h}\n" + "\n".join(ROWS) + "\n", None),
    "empty file": ("", ": empty file"),
    "wrong header": ("x,y\n" + "\n".join(ROWS) + "\n", " line 1: header must be"),
    "header only": ("{h}\n", ": no data rows"),
    "extra field": ("{h}\n" + "\n".join(_with_row(1, ROWS[1] + ",0.5")) + "\n",
                    " line 3: expected 2 fields, got 3"),
    "missing field": ("{h}\n" + "\n".join(_with_row(1, "0.5")) + "\n",
                      " line 3: expected 2 fields, got 1"),
    "non-numeric token": ("{h}\n" + "\n".join(_with_row(1, "oops,1")) + "\n",
                          " line 3: non-numeric entry 'oops' in column 'x'"),
    "nan token": ("{h}\n" + "\n".join(_with_row(1, "nan,1")) + "\n",
                  " line 3: non-finite entry 'nan' in column 'x'"),
    "inf token": ("{h}\n" + "\n".join(_with_row(5, "0.5,inf")) + "\n",
                  " line 7: non-finite entry 'inf' in column"),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", CASES)
def test_every_reader_gives_the_same_answer(tmp_path, case, reader):
    header, read = READERS[reader]
    template, message = CASES[case]
    path = tmp_path / "input.csv"
    path.write_bytes(template.format(
        h=header, H=" " + header.upper().replace(",", " , ")).encode("utf-8"))
    if message is None:
        clean = tmp_path / "clean.csv"
        clean.write_text(CASES["well formed"][0].format(h=header),
                         encoding="utf-8")
        assert read(path, tmp_path) == read(clean, tmp_path)
        return
    with pytest.raises(ValueError) as exc:
        read(path, tmp_path)
    assert f"{path}{message}" in str(exc.value)


def test_tstats_keeps_gene_ids_as_text(tmp_path):
    # a 'gene' header in any case names an id column, which is never parsed,
    # even where an id spells a number
    src = tmp_path / "expr.csv"
    src.write_text("Gene,a,b,c,d\n nan ,1.0,2.0,0.0,1.0\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "2",
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").split("\n")[1].startswith("nan,")


def test_tstats_reads_gene_ids_after_a_bom(tmp_path):
    src = tmp_path / "expr.csv"
    src.write_bytes(b"\xef\xbb\xbfgene,a,b,c,d\ng1,1.0,2.0,0.0,1.0\n")
    out = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "2",
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").split("\n")[1].startswith("g1,")


def test_finite_entries_whose_sum_overflows_are_accepted(tmp_path):
    path = tmp_path / "w.csv"
    # 1e308 + 8e307 overflows although both entries are finite
    path.write_text("x,weight\n1e308,8e307\n0,1\n", encoding="utf-8")
    sample = load_weighted_csv(str(path))
    assert sample.points.tolist() == [0.0, 1e308]


def test_quoted_ids_take_one_pass(tmp_path, monkeypatch):
    # R's write.csv quotes the header and every id; such a matrix must not
    # be parsed a second time by the row loop
    path = tmp_path / "expr.csv"
    path.write_text('"gene","a","b"\n"g,1",1.5,2\n"g""2",3,4\n', encoding="utf-8")
    monkeypatch.setattr(_readcsv, "_records", None)
    header, ids, values = _readcsv.read_csv(path, key="gene")
    assert (header, ids, values.tolist()) == (
        ["gene", "a", "b"], ["g,1", 'g"2'], [[1.5, 2.0], [3.0, 4.0]])
