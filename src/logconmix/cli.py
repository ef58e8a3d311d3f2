"""Command-line front end.

Subcommands:

- ``fit``       mixture estimation on a column of raw values
- ``logcx``     standalone weighted log-concave density fit
- ``simulate``  Monte-Carlo scenario sweeps
- ``tstats``    two-sample t statistics / p-values from an expression matrix

Exit codes: 0 success, 2 malformed input or bad parameters, 3 estimation
failure. All output files use UTF-8 with LF line endings and shortest
round-trip decimals, so a fixed invocation produces identical bytes.

Every output, a file or stdout, is written row by row as it is formatted,
never built whole first, except ``simulate``'s: its table of at most 54
scenario rows is ``simulate.summary_table``'s one string. A command opens
its output only after every step that can fail, so a failed command leaves
no file. ``tstats`` holds the matrix until its t statistics are formed and
the ids until they are written, but never the output text, and it turns t
and p into Python floats ``_WRITE_ROWS`` rows at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from dataclasses import fields
from typing import Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from ._readcsv import _records, read_csv
from .em import EmConfig, classification_error, em_result_to_dict, run_em
from .errors import (CliInputError, DegenerateSampleError, LogconmixError)
from .families import (Exponential, KnownComponent, Normal, StudentT,
                       Uniform, load_tabulated_csv, log_pdf_known)
from .logcon import (eval_log_density, fit_weighted_logconcave,
                     load_weighted_csv, save_fit_json)
from .rng import child_seed
from .simulate import ScenarioSpec, ScenarioSummary, run_scenario, summary_table
from .special import student_t_two_sided_p

__all__ = ["main", "parse_f0_spec"]

# --f0 family name -> (family, its parameters in order); ``table:PATH`` reads
# a Tabulated density from a file instead of taking numbers.
_F0_FAMILIES = {
    "normal": (Normal, ("MU", "SIGMA")),
    "uniform": (Uniform, ("A", "B")),
    "exp": (Exponential, ("LAMBDA",)),
    "t": (StudentT, ("NU",)),
}
_F0_USAGE = " | ".join([f"{name}:{','.join(params)}"
                        for name, (_, params) in _F0_FAMILIES.items()]
                       + ["table:PATH"])
# a tstats matrix whose first header field is this names its genes in that column
_GENE_ID = "gene"
# a gene id holding one of these is written quoted, its quotes doubled
# (RFC 4180), as read_csv reads it back
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# tstats turns this many rows of t and p into Python floats at a time
_WRITE_ROWS = 4096


def parse_f0_spec(text: str) -> KnownComponent:
    """Parse an f0 description such as ``normal:0,2`` or ``table:f0.csv``."""
    name, sep, rest = text.partition(":")
    if not sep:
        raise CliInputError(f"f0 spec {text!r} has no ':'; expected {_F0_USAGE}")
    name = name.strip().lower()
    if name == "table":
        if not rest:
            raise CliInputError("f0 spec 'table:' is missing a file path")
        return load_tabulated_csv(rest)
    if name not in _F0_FAMILIES:
        raise CliInputError(f"unknown f0 family {name!r}; expected "
                            f"{', '.join(_F0_FAMILIES)} or table")
    family, param_names = _F0_FAMILIES[name]
    try:
        params = [float(tok) for tok in rest.split(",")] if rest else []
    except ValueError as exc:
        raise CliInputError(f"f0 spec {text!r}: non-numeric parameter ({exc})")
    if len(params) != len(param_names):
        raise CliInputError(f"f0 spec {name!r} needs {','.join(param_names)}; "
                            f"got {len(params)} values")
    try:
        return family(*params)
    except ValueError as exc:
        raise CliInputError(f"f0 spec {text!r}: {exc}")


def _parse_grid(text: str) -> Tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliInputError(f"grid spec {text!r} must be LO,HI,COUNT")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise CliInputError(f"grid spec {text!r}: {exc}")
    if not math.isfinite(hi - lo):
        raise CliInputError(f"grid spec {text!r}: LO, HI and HI - LO must be finite")
    if not (lo < hi):
        raise CliInputError(f"grid spec {text!r}: LO must be < HI")
    if count < 2:
        raise CliInputError(f"grid spec {text!r}: COUNT must be >= 2")
    return lo, hi, count


def _read_value_csv(path: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Read a `x` or `x,label` CSV; returns (values, labels-or-None)."""
    _, _, values = read_csv(path, headers=(("x",), ("x", "label")))
    if values.shape[1] == 1:
        return values[:, 0], None
    labels = values[:, 1]
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        lineno = [line for line, _ in _records(path)][bad[0]]
        raise CliInputError(f"{path} line {lineno}: field 'label' must be "
                            f"0 or 1, got {float(labels[bad[0]])!r}")
    return values[:, 0], labels


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The stream an output is written to as it is formatted: the file at
    ``path``, UTF-8 with LF line endings, or stdout without a path."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        yield handle


def _write_density_grid(args: argparse.Namespace, f0: Optional[KnownComponent],
                        fit, p_hat: Optional[float]) -> None:
    """With --grid-out, write the grid CSV on --grid, by default on 201
    points across the fitted support: for mixture fits
    'x,f0,f_hat,g_hat,posterior', for bare log-concave fits 'x,f_hat'.
    Posterior is 0 wherever the fitted mixture density vanishes (outside
    both supports)."""
    if not args.grid_out:
        return
    lo, hi, count = args.grid if args.grid is not None else (*fit.support, 201)
    grid = np.linspace(lo, hi, count)
    f_hat = np.exp(eval_log_density(fit, grid))
    if f0 is None:
        header, columns = "x,f_hat", (grid, f_hat)
    else:
        f0_vals = np.exp(log_pdf_known(f0, grid))
        g_hat = (1.0 - p_hat) * f0_vals + p_hat * f_hat
        with np.errstate(invalid="ignore", divide="ignore"):
            posterior = np.where(g_hat > 0.0, p_hat * f_hat / np.where(
                g_hat > 0.0, g_hat, 1.0), 0.0)
        header = "x,f0,f_hat,g_hat,posterior"
        columns = (grid, f0_vals, f_hat, g_hat, posterior)
    with _output(args.grid_out) as out:
        out.write(header + "\n")
        for row in zip(*(c.tolist() for c in columns)):
            out.write(",".join(map(repr, row)) + "\n")


def _cmd_fit(args: argparse.Namespace) -> int:
    f0 = parse_f0_spec(args.f0)
    values, labels = _read_value_csv(args.input)
    # each EmConfig field has a flag of its name; one not given keeps the
    # field's default
    given = {f.name: getattr(args, f.name) for f in fields(EmConfig)}
    config = EmConfig(**{k: v for k, v in given.items() if v is not None})
    if args.p_init is not None and config.init != "flat":
        # the pilot start never reads p_init, so the flag would change nothing
        raise CliInputError("--p-init applies only with --init flat")
    result = run_em(values, f0, config)
    payload = em_result_to_dict(result)
    if labels is not None:
        payload["cla_error"] = classification_error(result.omega, labels)
    if args.out:
        with _output(args.out) as out:
            json.dump(payload, out, indent=2)
            out.write("\n")
    _write_density_grid(args, f0, result.fit, result.p_hat)
    print(f"p_hat = {result.p_hat!r}")
    print(f"identifiability = {result.identifiability.verdict}")
    if labels is not None:
        print(f"cla_error = {payload['cla_error']!r}")
    return 0


def _cmd_logcx(args: argparse.Namespace) -> int:
    fit = fit_weighted_logconcave(load_weighted_csv(args.input))
    if args.out:
        save_fit_json(fit, args.out)
    _write_density_grid(args, None, fit, None)
    print(f"objective = {fit.objective!r}")
    print(f"converged = {fit.converged}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.full_profile:
        reps = args.reps if args.reps is not None else 200
        scenarios = []
        idx = 0
        for model_id in (1, 2, 3, 4, 5, 6):
            for p in (0.2, 0.5, 0.8):
                for n in (250, 500, 1000):
                    seed = int(child_seed(args.seed, idx).generate_state(1)[0])
                    scenarios.append(ScenarioSpec(model_id=model_id, p=p,
                                                  n=n, reps=reps, seed=seed))
                    idx += 1
    else:
        reps = args.reps if args.reps is not None else 50
        try:
            scenarios = [ScenarioSpec(model_id=args.model, p=args.p,
                                      n=args.n, reps=reps, seed=args.seed)]
        except ValueError as exc:
            raise CliInputError(str(exc))
    summaries: List[ScenarioSummary] = []
    for scenario in scenarios:
        summaries.append(run_scenario(scenario, workers=args.workers))
    table = summary_table(summaries)
    with _output(args.out) as out:
        out.write(table)
    return 0


def _cmd_tstats(args: argparse.Namespace) -> int:
    m1 = args.group1_cols
    _, genes, values = read_csv(args.input, key=_GENE_ID)
    n_data = values.shape[1]
    if m1 < 2 or n_data - m1 < 2:
        raise CliInputError(
            f"need at least 2 columns per group: matrix has {n_data} "
            f"data columns, group1 takes {m1}")
    t_values = _pooled_t(values, m1)
    del values  # free the matrix before the p-values and the output are formed
    p_values = student_t_two_sided_p(t_values, float(n_data - 2))
    with _output(args.out) as out:
        out.write("gene,t,p_value\n")
        for lo in range(0, t_values.size, _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            ids = genes[lo:hi] if genes is not None else map(str, range(lo + 1, hi + 1))
            ts, ps = t_values[lo:hi].tolist(), p_values[lo:hi].tolist()
            for gene, t, p in zip(ids, ts, ps):
                if _NEEDS_QUOTES.search(gene):
                    gene = '"' + gene.replace('"', '""') + '"'
                out.write(f"{gene},{t!r},{p!r}\n")
    return 0


def _pooled_t(values: np.ndarray, n1: int) -> np.ndarray:
    """Two-sample t with pooled variance for every row (gene) at once, the
    first ``n1`` columns of ``values`` being group 1:
    t = (mean1 - mean2) / s, s^2 = pooled SSE / (m-2) * (1/n1 + 1/n2).
    Where s^2 <= 0, t is 0 for equal means and +-inf otherwise.

    ``values`` is first scaled in place, each row by the power of two that
    brings its largest |value| into [0.5, 1), so finite entries near the
    float limit cannot overflow the sums. The scaling is exact and t is
    scale-free, so a row that overflows in neither form gives the same t to
    the last bit."""
    top = np.maximum(values.max(axis=1), -values.min(axis=1))
    np.ldexp(values, -np.frexp(top)[1][:, None], out=values)
    group1, group2 = values[:, :n1], values[:, n1:]
    n2 = group2.shape[1]
    mean1 = np.mean(group1, axis=1)
    mean2 = np.mean(group2, axis=1)
    diff = mean1 - mean2
    sse = (np.sum((group1 - mean1[:, None]) ** 2, axis=1)
           + np.sum((group2 - mean2[:, None]) ** 2, axis=1))
    s2 = sse / (n1 + n2 - 2) * (1.0 / n1 + 1.0 / n2)
    flat = s2 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(s2)
    t[flat] = np.copysign(np.inf, diff[flat])
    t[flat & (diff == 0.0)] = 0.0
    return t


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logconmix",
        description="Two-component mixture estimation with a known component "
                    "and a log-concave unknown component.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser(
        "fit", help="fit the mixture to a CSV of raw values",
        description="Input: CSV with header 'x' (optionally 'x,label' with "
                    "label 1 = drawn from f0, enabling classification-error "
                    "reporting). Writes the estimate as JSON and, with "
                    "--grid-out, a density grid CSV "
                    "'x,f0,f_hat,g_hat,posterior'.")
    p_fit.add_argument("input", help="input CSV path")
    p_fit.add_argument("--f0", required=True,
                       help=f"known component: {_F0_USAGE}")
    p_fit.add_argument("--out", help="output JSON path")
    p_fit.add_argument("--grid", type=_parse_grid, default=None,
                       metavar="LO,HI,COUNT",
                       help="density-export grid (default: fitted support, "
                            "201 points)")
    p_fit.add_argument("--grid-out", help="density grid CSV path")
    p_fit.add_argument("--init", choices=("pilot", "flat"),
                       help="starting responsibilities: 'pilot' "
                            "(density-ratio) or 'flat' (1 - p_init "
                            f"everywhere); default {EmConfig.init!r}")
    p_fit.add_argument("--p-init", type=float,
                       help=f"with --init flat only; default {EmConfig.p_init}")
    p_fit.add_argument("--max-iters", type=int, help=f"default {EmConfig.max_iters}")
    p_fit.add_argument("--tol-loglik", type=float,
                       help=f"default {EmConfig.tol_loglik}")

    p_logcx = sub.add_parser(
        "logcx", help="weighted log-concave density fit",
        description="Input: CSV with header 'x,weight'. Duplicate x values "
                    "are merged by summing weights. Writes the fit as JSON "
                    "and, with --grid-out, a grid CSV 'x,f_hat'.")
    p_logcx.add_argument("input", help="input CSV path")
    p_logcx.add_argument("--out", help="output JSON path")
    p_logcx.add_argument("--grid", type=_parse_grid, default=None,
                         metavar="LO,HI,COUNT")
    p_logcx.add_argument("--grid-out", help="density grid CSV path")

    p_sim = sub.add_parser(
        "simulate", help="Monte-Carlo scenario sweep",
        description="Writes a scenario summary CSV (columns model,p,n,reps,"
                    "bias_p,mse_p,bias_mu,mse_mu,mean_cla_error,failures). "
                    "Identical flags give identical output bytes, for any "
                    "--workers value.")
    p_sim.add_argument("--model", type=int, default=1, help="model id 1-6")
    p_sim.add_argument("--p", type=float, default=0.5)
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--reps", type=int, default=None,
                       help="replications (default 50; 200 with "
                            "--full-profile)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker processes, capped at the CPUs this "
                            "process may use")
    p_sim.add_argument("--out", help="output CSV path (default: stdout)")
    p_sim.add_argument("--full-profile", action="store_true",
                       help="run the full grid: models 1-6 x p in "
                            "{0.2,0.5,0.8} x n in {250,500,1000}")

    p_t = sub.add_parser(
        "tstats", help="two-sample t statistics from an expression matrix",
        description="Input: CSV matrix with one header row; if the first "
                    "header field is 'gene' it names an identifier column, "
                    "otherwise genes are numbered from 1. The first "
                    "--group1-cols data columns form group 1, the rest group "
                    "2. Output: 'gene,t,p_value' with two-sided p-values "
                    "from the t distribution with m-2 degrees of freedom.")
    p_t.add_argument("input", help="input CSV path")
    p_t.add_argument("--group1-cols", type=int, required=True,
                     help="number of leading data columns in group 1")
    p_t.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        if getattr(args, "grid", None) is not None and not args.grid_out:
            raise CliInputError("--grid requires --grid-out")
        command = {"fit": _cmd_fit, "logcx": _cmd_logcx,
                   "simulate": _cmd_simulate, "tstats": _cmd_tstats}
        return command[args.subcommand](args)
    except (CliInputError, DegenerateSampleError, ValueError, OSError) as exc:
        # OSError: an input file that cannot be read or an output path that
        # cannot be written is bad input, not an estimation failure
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except (LogconmixError, FloatingPointError) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
