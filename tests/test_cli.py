"""Command-line interface: happy paths for all four subcommands, the exit-code
contract (0 success, 2 input errors, 3 numeric failures), output file formats,
and byte-level determinism."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from logconmix import cli
from logconmix._readcsv import read_csv
from logconmix.cli import main
from logconmix.em import EmConfig
from logconmix.errors import LogconmixError
from logconmix.families import Normal, sample_mixture
from logconmix.logcon import load_fit_json
from logconmix.special import student_t_two_sided_p


@pytest.fixture
def labeled_csv(tmp_path):
    values, labels = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0),
                                    0.5, 400, 7)
    path = tmp_path / "data.csv"
    lines = ["x,label"]
    lines += [f"{float(v)!r},{int(l)}" for v, l in zip(values, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def unlabeled_csv(tmp_path):
    values, _ = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.5, 250, 8)
    path = tmp_path / "plain.csv"
    lines = ["x"] + [f"{float(v)!r}" for v in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_fit_labeled_happy_path(tmp_path, labeled_csv, capsys):
    out = tmp_path / "fit.json"
    grid = tmp_path / "grid.csv"
    code = main(["fit", labeled_csv, "--f0", "normal:0,2",
                 "--out", str(out), "--grid=-4,8,13",
                 "--grid-out", str(grid)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "p_hat = " in stdout
    assert "identifiability = " in stdout
    assert "cla_error = " in stdout

    doc = json.loads(out.read_text(encoding="utf-8"))
    assert 0.0 <= doc["p_hat"] <= 1.0
    assert doc["converged"] is True
    assert "cla_error" in doc
    assert doc["identifiability"]["verdict"] == "Inconclusive"
    assert len(doc["omega"]) == 400

    lines = grid.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x,f0,f_hat,g_hat,posterior"
    assert len(lines) == 1 + 13
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_allclose(rows[:, 0], np.linspace(-4.0, 8.0, 13),
                               atol=1e-12)
    assert np.all((rows[:, 4] >= 0.0) & (rows[:, 4] <= 1.0))
    # mixture identity g = (1-p) f0 + p f at every grid point
    p = doc["p_hat"]
    np.testing.assert_allclose(rows[:, 3],
                               (1 - p) * rows[:, 1] + p * rows[:, 2],
                               rtol=1e-10, atol=1e-15)


def test_fit_unlabeled_omits_cla(tmp_path, unlabeled_csv, capsys):
    out = tmp_path / "fit.json"
    assert main(["fit", unlabeled_csv, "--f0", "normal:0,2",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "cla_error" not in stdout
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert "cla_error" not in doc


def test_fit_is_deterministic(tmp_path, labeled_csv):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fit", labeled_csv, "--f0", "normal:0,2",
                 "--out", str(out1)]) == 0
    assert main(["fit", labeled_csv, "--f0", "normal:0,2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fit_flat_init_flag(tmp_path, labeled_csv, capsys):
    assert main(["fit", labeled_csv, "--f0", "normal:0,2",
                 "--init", "flat"]) == 0
    assert "p_hat = " in capsys.readouterr().out


def test_fit_missing_file_exits_2(labeled_csv, capsys):
    assert main(["fit", "/nonexistent/x.csv", "--f0", "normal:0,1"]) == 2
    assert "error:" in capsys.readouterr().err
    # an output path that cannot be written is bad input too, not a traceback
    assert main(["fit", labeled_csv, "--f0", "normal:0,2",
                 "--out", "/nonexistent/dir/m.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_fit_infinite_tolerance_exits_2(unlabeled_csv, capsys):
    # unchecked, EM stopped after its first iterations and reported
    # convergence, and the command exited 0
    code = main(["fit", unlabeled_csv, "--f0", "normal:0,2", "--tol-loglik", "inf"])
    assert code == 2
    assert "tol_loglik must be positive and finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("init", [[], ["--init", "pilot"]])
def test_fit_p_init_without_flat_start_exits_2(unlabeled_csv, capsys, init):
    # unchecked, the pilot start ignored --p-init and wrote the bytes of a
    # run without it
    code = main(["fit", unlabeled_csv, "--f0", "normal:0,2", "--p-init", "0.2"] + init)
    assert code == 2
    assert "--p-init applies only with --init flat" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [
    ([], EmConfig()),
    (["--max-iters", "7"], EmConfig(max_iters=7)),
    (["--init", "flat", "--p-init", "0.25", "--tol-loglik", "1e-6"],
     EmConfig(init="flat", p_init=0.25, tol_loglik=1e-6)),
])
def test_fit_hands_run_em_the_flags_given_and_em_config_defaults(
        monkeypatch, unlabeled_csv, capsys, flags, config):
    seen = []

    def fake_run_em(values, f0, cfg):  # records the config, then stops
        seen.append(cfg)
        raise LogconmixError("stop")

    monkeypatch.setattr(cli, "run_em", fake_run_em)
    assert main(["fit", unlabeled_csv, "--f0", "normal:0,2"] + flags) == 3
    capsys.readouterr()
    assert seen == [config]


@pytest.mark.parametrize("command", [
    ["fit", "--f0", "normal:0,2", "--tol-kkt", "1e-8"],
    ["fit", "--f0", "normal:0,2", "--min-component-mass", "1e-6"],
    ["logcx", "--tol-kkt", "1e-8"],
])
def test_removed_solver_flags_exit_2(unlabeled_csv, capsys, command):
    assert main(command[:1] + [unlabeled_csv] + command[1:]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fit_bad_f0_spec_exits_2(labeled_csv, capsys):
    assert main(["fit", labeled_csv, "--f0", "cauchy:0,1"]) == 2
    err = capsys.readouterr().err
    assert "cauchy" in err
    assert main(["fit", labeled_csv, "--f0", "normal:0"]) == 2
    assert main(["fit", labeled_csv, "--f0", "normal:0,zero"]) == 2
    assert main(["fit", labeled_csv, "--f0", "table:/nonexistent/f0.csv"]) == 2


def test_fit_non_numeric_cell_exits_2_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x\n1.0\noops\n", encoding="utf-8")
    assert main(["fit", str(path), "--f0", "normal:0,1"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "oops" in err


def test_fit_bad_label_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,label\n1.0,0\n2.0,5\n", encoding="utf-8")
    assert main(["fit", str(path), "--f0", "normal:0,1"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_fit_reports_a_bad_entry_before_an_earlier_bad_label(tmp_path, capsys):
    # the file is read whole before its labels are checked, so a fault the
    # reader names wins over a bad label on an earlier line
    path = tmp_path / "bad.csv"
    path.write_text("x,label\n1.0,0\n2.0,5\noops,1\n", encoding="utf-8")
    assert main(["fit", str(path), "--f0", "normal:0,1"]) == 2
    assert "line 4: non-numeric entry 'oops' in column 'x'" in capsys.readouterr().err


def test_grid_requires_grid_out(labeled_csv, capsys):
    assert main(["fit", labeled_csv, "--f0", "normal:0,2",
                 "--grid=-4,8,13"]) == 2
    assert "--grid-out" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0,inf,4", "nan,1,3", "-inf,0,3", "inf,inf,3",
                                  "-1e308,1e308,3"])
@pytest.mark.parametrize("command", ["fit", "logcx"])
def test_grid_needs_finite_endpoints_and_span(tmp_path, capsys, command, spec):
    src = tmp_path / "in.csv"
    if command == "fit":
        src.write_text("x\n0.1\n0.5\n0.9\n1.3\n2.0\n", encoding="utf-8")
        args = ["fit", str(src), "--f0", "normal:0,1"]
    else:
        src.write_text("x,weight\n0.1,1\n0.5,1\n0.9,2\n", encoding="utf-8")
        args = ["logcx", str(src)]
    grid = tmp_path / "grid.csv"
    assert main(args + [f"--grid={spec}", "--grid-out", str(grid)]) == 2
    assert "LO, HI and HI - LO must be finite" in capsys.readouterr().err
    assert not grid.exists()


def test_logcx_two_point_uniform(tmp_path, capsys):
    src = tmp_path / "w.csv"
    src.write_text("x,weight\n0.0,0.5\n2.0,0.5\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["logcx", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "objective = " in stdout and "converged = True" in stdout
    fit = load_fit_json(str(out))
    # equal weights on {0, 2} fit the uniform density on [0, 2]
    np.testing.assert_allclose(fit.phi, -math.log(2.0), atol=1e-9)
    np.testing.assert_allclose(fit.knots, [0.0, 2.0], atol=0)


def test_logcx_grid_output(tmp_path):
    src = tmp_path / "w.csv"
    src.write_text("x,weight\n0.0,0.5\n2.0,0.5\n", encoding="utf-8")
    grid = tmp_path / "grid.csv"
    assert main(["logcx", str(src), "--grid", "0,2,5",
                 "--grid-out", str(grid)]) == 0
    lines = grid.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x,f_hat"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    np.testing.assert_allclose([r[1] for r in rows], 0.5, atol=1e-9)


def test_logcx_single_point_exits_2(tmp_path, capsys):
    src = tmp_path / "w.csv"
    src.write_text("x,weight\n1.0,1.0\n", encoding="utf-8")
    assert main(["logcx", str(src)]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_summary_and_is_byte_deterministic(tmp_path):
    args = ["simulate", "--model", "1", "--p", "0.5", "--n", "150",
            "--reps", "2", "--seed", "3"]
    o1, o2, o3 = (tmp_path / f"s{i}.csv" for i in range(3))
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert main(args + ["--workers", "2", "--out", str(o3)]) == 0
    assert o1.read_bytes() == o2.read_bytes() == o3.read_bytes()
    lines = o1.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("model,p,n,reps,")
    assert lines[1].split(",")[0] == "1"


def test_simulate_unknown_model_exits_2(capsys):
    assert main(["simulate", "--model", "7", "--p", "0.5", "--n", "100",
                 "--reps", "1", "--seed", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_bad_p_exits_2(capsys):
    assert main(["simulate", "--model", "1", "--p", "1.5", "--n", "100",
                 "--reps", "1", "--seed", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [[], ["--full-profile"]], ids=["one", "full-profile"])
def test_simulate_negative_seed_exits_2_naming_the_seed(capsys, extra):
    # the error used to read "expected non-negative integer", naming nothing
    assert main(["simulate", "--n", "100", "--reps", "1", "--seed", "-1"] + extra) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


def test_tstats_pooled_t_oracle(tmp_path):
    # g0: groups (1,2) vs (0,1) give t = sqrt(2) and, at df = 2,
    # p = 2 (1 - F(sqrt 2)) = 1 - sqrt(2)/2 exactly
    # g1: zero difference and zero spread -> t = 0, p = 1
    # g2: nonzero difference with zero spread -> t = inf, p = 0
    src = tmp_path / "expr.csv"
    src.write_text("gene,a,b,c,d\n"
                   "g0,1.0,2.0,0.0,1.0\n"
                   "g1,1.0,1.0,1.0,1.0\n"
                   "g2,2.0,2.0,0.0,0.0\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "gene,t,p_value"
    g0 = lines[1].split(",")
    assert g0[0] == "g0"
    assert float(g0[1]) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert float(g0[2]) == pytest.approx(1.0 - math.sqrt(2.0) / 2.0,
                                         rel=1e-14)
    assert lines[2].split(",")[1:] == ["0.0", "1.0"]
    assert lines[3].split(",")[1:] == ["inf", "0.0"]


def _scalar_pooled_t(group1, group2):
    """One gene's pooled-variance t, written out as a scalar formula."""
    n1, n2 = group1.size, group2.size
    diff = float(np.mean(group1) - np.mean(group2))
    sse = float(np.sum((group1 - np.mean(group1)) ** 2)
                + np.sum((group2 - np.mean(group2)) ** 2))
    s2 = sse / (n1 + n2 - 2) * (1.0 / n1 + 1.0 / n2)
    if s2 <= 0.0:
        if diff == 0.0:
            return 0.0
        return math.inf if diff > 0.0 else -math.inf
    return diff / math.sqrt(s2)


def test_tstats_matches_scalar_formula_line_by_line(tmp_path):
    rng = np.random.default_rng(4)
    rows = rng.normal(0.0, 1.0, (40, 7))
    rows[3] = 1.5                      # constant: equal means, zero spread
    rows[7] = [0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]   # zero spread, t = -inf
    rows[11] = [1.0, 3.0, 2.0, 4.0, 0.0, 2.0, 2.0]  # equal means, t = 0
    src = tmp_path / "expr.csv"
    src.write_text("a,b,c,d,e,f,g\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows),
        encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "3",
                 "--out", str(out)]) == 0
    want = ["gene,t,p_value"]
    for g, row in enumerate(rows, start=1):
        t = _scalar_pooled_t(row[:3], row[3:])
        want.append(f"{g},{t!r},{student_t_two_sided_p(t, 5.0)!r}")
    assert out.read_text(encoding="utf-8") == "\n".join(want) + "\n"
    assert want[4].split(",")[1:] == ["0.0", "1.0"]
    assert want[8].split(",")[1:] == ["-inf", "0.0"]
    assert want[12].split(",")[1] == "0.0"


def test_tstats_rows_near_the_float_limit(tmp_path):
    # scaled by a power of two first, these rows no longer overflow the sums:
    # equal huge entries give zero spread and t = +-inf; opposite ones give
    # a tiny t with p = 1, with no overflow warning
    src = tmp_path / "expr.csv"
    src.write_text("gene,a,b,c,d\n"
                   "g0,1e308,1e308,1.0,2.0\n"
                   "g1,1e308,-1e308,1.0,2.0\n"
                   "g2,-1e308,-1e308,1.0,2.0\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tstats", str(src), "--group1-cols", "2",
                     "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        "gene,t,p_value\ng0,inf,0.0\ng1,-1.5e-308,1.0\ng2,-inf,0.0\n")


def test_tstats_t_is_unchanged_by_power_of_two_scaling(tmp_path):
    rng = np.random.default_rng(9)
    rows = rng.normal(0.0, 1.0, (30, 6))
    texts = []
    for power in (0, 100, -100, 300, -300):
        src = tmp_path / f"expr{power}.csv"
        src.write_text("a,b,c,d,e,f\n" + "".join(
            ",".join(repr(float(v)) for v in np.ldexp(row, power)) + "\n"
            for row in rows), encoding="utf-8")
        out = tmp_path / f"t{power}.csv"
        assert main(["tstats", str(src), "--group1-cols", "3",
                     "--out", str(out)]) == 0
        texts.append(out.read_text(encoding="utf-8"))
    assert all(text == texts[0] for text in texts)


@pytest.mark.parametrize("bad_row, message", [
    ("g1,1.0,2.0,0.0\n", "line 3: expected 5 fields, got 4"),
    ("g1,1.0,x,0.0,1.0\n", "line 3: non-numeric entry"),
    ("g1,nan,2.0,0.0,1.0\n", "line 3: non-finite entry 'nan'"),
    ("g1,1.0,2.0,inf,1.0\n", "line 3: non-finite entry 'inf'"),
])
def test_tstats_reports_the_bad_line(tmp_path, capsys, bad_row, message):
    src = tmp_path / "expr.csv"
    src.write_text("gene,a,b,c,d\ng0,1.0,2.0,0.0,1.0\n" + bad_row,
                   encoding="utf-8")
    assert main(["tstats", str(src), "--group1-cols", "2"]) == 2
    assert message in capsys.readouterr().err


def test_tstats_numbers_genes_without_id_column(tmp_path):
    src = tmp_path / "expr.csv"
    src.write_text("a,b,c,d\n1.0,2.0,0.0,1.0\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "2",
                 "--out", str(out)]) == 0
    row = out.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
    assert row[0] == "1"
    assert float(row[1]) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_tstats_gene_ids_round_trip_through_read_csv(tmp_path):
    # an id holding a comma or a quote is written quoted, its quotes doubled
    src = tmp_path / "expr.csv"
    src.write_text('gene,a,b,c,d\n"x,1",1.0,2.0,3.0,4.5\n'
                   '"say ""hi""",1.0,2.0,0.0,1.0\nplain,2.0,1.0,0.0,1.0\n',
                   encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "2",
                 "--out", str(out)]) == 0
    header, genes, values = read_csv(out, key="gene")
    assert header == ["gene", "t", "p_value"]
    assert genes == ["x,1", 'say "hi"', "plain"]
    assert values.shape == (3, 2)
    assert out.read_text(encoding="utf-8").splitlines()[3].startswith("plain,")


def test_tstats_group_too_small_exits_2(tmp_path, capsys):
    src = tmp_path / "expr.csv"
    src.write_text("gene,a,b,c,d\ng0,1.0,2.0,0.0,1.0\n", encoding="utf-8")
    assert main(["tstats", str(src), "--group1-cols", "3"]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_tstats_reports_a_bad_row_before_too_few_columns(tmp_path, capsys):
    # the matrix is read whole before its width is checked against the groups
    src = tmp_path / "expr.csv"
    src.write_text("gene,a,b,c\ng0,1.0,2.0,0.0\ng1,1.0,x,0.0\n", encoding="utf-8")
    assert main(["tstats", str(src), "--group1-cols", "2"]) == 2
    assert "line 3: non-numeric entry 'x' in column 'b'" in capsys.readouterr().err


def test_tstats_feeds_fit(tmp_path, capsys):
    # the emitted p-value column round-trips into cmd_fit with a uniform null
    rng = np.random.default_rng(7)
    src = tmp_path / "expr.csv"
    rows = ["gene," + ",".join(f"s{i}" for i in range(20))]
    for g in range(60):
        rows.append(f"g{g}," + ",".join(
            repr(float(v)) for v in rng.normal(0.0, 1.0, 20)))
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    tcsv = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "10",
                 "--out", str(tcsv)]) == 0
    pvals = tmp_path / "p.csv"
    lines = tcsv.read_text(encoding="utf-8").strip().split("\n")[1:]
    pvals.write_text("x\n" + "\n".join(ln.split(",")[2] for ln in lines)
                     + "\n", encoding="utf-8")
    assert main(["fit", str(pvals), "--f0", "uniform:0,1"]) == 0
    capsys.readouterr()


def test_tstats_and_fit_output_bytes_are_pinned(tmp_path, capsys):
    # 500 genes x 20 samples, a fifth of them shifted in group 1; the
    # digests were taken from the row-by-row reader, so any change in how a
    # matrix is parsed or a t, p or fit is computed shows up here; the fit
    # digest holds on either kernel backend
    rng = np.random.default_rng(2024)
    x = rng.normal(0.0, 1.0, (500, 20))
    x[:100, :10] += rng.uniform(0.5, 3.0, 100)[:, None]
    src = tmp_path / "expr.csv"
    src.write_text("gene," + ",".join(f"s{j}" for j in range(20)) + "\n"
                   + "".join(f"g{g}," + ",".join(repr(float(v)) for v in row)
                             + "\n" for g, row in enumerate(x)),
                   encoding="utf-8")
    tcsv, pvals, mix = tmp_path / "t.csv", tmp_path / "p.csv", tmp_path / "f.json"
    assert main(["tstats", str(src), "--group1-cols", "10",
                 "--out", str(tcsv)]) == 0
    lines = tcsv.read_text(encoding="utf-8").splitlines()[1:]
    pvals.write_text("x\n" + "".join(ln.split(",")[2] + "\n" for ln in lines),
                     encoding="utf-8")
    assert main(["fit", str(pvals), "--f0", "uniform:0,1",
                 "--out", str(mix)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(tcsv.read_bytes()).hexdigest() == (
        "f864da4d6045fd91c6b9c641d8b6e33706ecf29dfb17f619224d089ab19d5993")
    assert hashlib.sha256(mix.read_bytes()).hexdigest() == (
        "6b8912915c5cced3f2ace296029f85111589b678b9ad9e135ca9fd86ed325df3")


def test_streamed_outputs_keep_their_bytes_across_write_blocks(tmp_path, capsys,
                                                              monkeypatch):
    # tstats formats its rows in blocks of cli._WRITE_ROWS, cut to 16 here:
    # 53 genes are three whole blocks and a remainder, and the ids that
    # need quotes sit on either side of the first block edge; the digests
    # were taken from the writers that built each output whole
    monkeypatch.setattr(cli, "_WRITE_ROWS", 16)
    rng = np.random.default_rng(32)
    x = rng.normal(0.0, 1.0, (53, 6))
    x[:12, :3] += 2.0
    genes = [f"g{g}" for g in range(53)]
    genes[15], genes[16] = 'edge,"15"', '"16",edge'
    src = tmp_path / "expr.csv"
    src.write_text("gene," + ",".join(f"s{j}" for j in range(6)) + "\n"
                   + "".join('"' + g.replace('"', '""') + '",'
                             + ",".join(repr(float(v)) for v in row) + "\n"
                             for g, row in zip(genes, x)), encoding="utf-8")
    tcsv, pvals = tmp_path / "t.csv", tmp_path / "p.csv"
    mix, grid = tmp_path / "f.json", tmp_path / "g.csv"
    assert main(["tstats", str(src), "--group1-cols", "3", "--out", str(tcsv)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["tstats", str(src), "--group1-cols", "3"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == tcsv.read_bytes()
    _, ids, tp = read_csv(tcsv, key="gene")
    assert ids == genes
    # without an id column the genes are numbered on across the blocks
    numbered = tmp_path / "numbered.csv"
    numbered.write_text("a,b,c,d,e,f\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in x), encoding="utf-8")
    assert main(["tstats", str(numbered), "--group1-cols", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [str(g) for g in range(1, 54)]
    assert [row.rsplit(",", 2)[1:] for row in rows] == [
        row.rsplit(",", 2)[1:] for row in tcsv.read_text(encoding="utf-8").splitlines()]
    pvals.write_text("x\n" + "".join(f"{p!r}\n" for p in tp[:, 1].tolist()),
                     encoding="utf-8")
    assert main(["fit", str(pvals), "--f0", "uniform:0,1", "--out", str(mix),
                 "--grid-out", str(grid)]) == 0
    capsys.readouterr()
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tcsv, mix, grid)]
    assert digests == [
        "3c4f49356665101a382e29bd26c05127e84c22a08f1ecf59f4d30c91c8ba8c2c",
        "f4b92093bd90c258a8aad4a6ae767ae2c008562cfb0436e852767e9c765abaf0",
        "daaf57c986050efffae50013a5e5e6f6be3c4b9872c5c10c583c9dd909d9f3be"]


def test_a_failed_command_writes_no_file(tmp_path, capsys):
    # each command fails after its input is read, and its outputs are
    # opened only after the step that failed
    matrix = tmp_path / "expr.csv"
    matrix.write_text("gene,a,b,c,d\ng0,1.0,2.0,0.0,1.0\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["tstats", str(matrix), "--group1-cols", "3", "--out", str(out)]) == 2
    assert "at least 2" in capsys.readouterr().err
    assert not out.exists()
    values = tmp_path / "x.csv"
    values.write_text("x\n0.1\n0.2\n0.3\n0.1\n0.2\n", encoding="utf-8")
    mix, grid = tmp_path / "f.json", tmp_path / "g.csv"
    assert main(["fit", str(values), "--f0", "uniform:0,1", "--out", str(mix),
                 "--grid-out", str(grid)]) == 2
    assert "at least 4 distinct" in capsys.readouterr().err
    assert not mix.exists() and not grid.exists()


def test_tstats_never_holds_its_output_text(tmp_path):
    # 60000 genes x 4 samples write 2.6 MB of output; a tstats that built
    # the whole text before writing it traced a 17.9 MB peak, one that
    # writes as it formats 10.6 MB
    rng = np.random.default_rng(5)
    src = tmp_path / "expr.csv"
    src.write_text("gene,a,b,c,d\n" + "".join(
        f"g{g}," + ",".join(repr(float(v)) for v in row) + "\n"
        for g, row in enumerate(rng.normal(0.0, 1.0, (60000, 4)))), encoding="utf-8")
    out = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        assert main(["tstats", str(src), "--group1-cols", "2", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 2.5 * 2**20
    assert peak < 14 * 2**20, peak / 2**20


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
