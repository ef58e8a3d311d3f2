"""Monte-Carlo harness: the model catalog, replication bookkeeping,
determinism, serial/parallel agreement, and the summary table format."""

from __future__ import annotations

import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logconmix import simulate
from logconmix.em import EmConfig
from logconmix.errors import AllReplicationsFailedError, ZeroMixtureDensityError
from logconmix.families import (Beta15, Exponential, Normal, ShiftedChiSq3,
                                StudentT, Uniform)
from logconmix.simulate import (ScenarioSpec, model_catalog, run_scenario,
                                summary_table)


def test_model_catalog_contents():
    catalog = model_catalog()
    assert sorted(catalog) == [1, 2, 3, 4, 5, 6]
    f0_types = {mid: type(entry.known) for mid, entry in catalog.items()}
    f_types = {mid: type(entry.unknown) for mid, entry in catalog.items()}
    true_mu = {mid: entry.true_mu for mid, entry in catalog.items()}
    assert f0_types == {1: Normal, 2: Uniform, 3: Exponential, 4: Normal,
                        5: Normal, 6: Normal}
    assert f_types == {1: Normal, 2: Beta15, 3: Exponential,
                       4: ShiftedChiSq3, 5: Exponential, 6: StudentT}
    assert true_mu[1] == 3.0
    assert true_mu[2] == pytest.approx(1.0 / 6.0)
    assert true_mu[3] == 3.0
    assert true_mu[4] == 5.0
    assert true_mu[5] == 5.0
    assert true_mu[6] == 3.0


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(model_id=7, p=0.5, n=100, reps=2, seed=0)
    with pytest.raises(ValueError):
        ScenarioSpec(model_id=1, p=0.0, n=100, reps=2, seed=0)
    with pytest.raises(ValueError):
        ScenarioSpec(model_id=1, p=0.5, n=1, reps=2, seed=0)
    with pytest.raises(ValueError):
        ScenarioSpec(model_id=1, p=0.5, n=100, reps=0, seed=0)


@pytest.mark.parametrize("field, bad", [
    ("n", 200.5), ("reps", 2.5), ("reps", True), ("model_id", 1.0),
    ("seed", 1.5), ("seed", -1), ("seed", True), ("n", "200")])
def test_scenario_spec_rejects_what_is_not_an_integer_and_names_it(field, bad):
    # n=200.5 and reps=2.5 used to fail later, inside run_scenario; reps=True,
    # model_id=1.0 and seed=1.5 (which ran as seed 1) used to pass
    kwargs = dict(model_id=1, p=0.5, n=200, reps=2, seed=3)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ScenarioSpec(**kwargs)


def test_scenario_spec_stores_numpy_integers_as_python_ints():
    spec = ScenarioSpec(model_id=np.int64(1), p=0.5, n=np.int32(200),
                        reps=np.uint8(2), seed=np.uint32(7))
    assert spec == ScenarioSpec(model_id=1, p=0.5, n=200, reps=2, seed=7)
    assert all(type(getattr(spec, name)) is int
               for name in ("model_id", "n", "reps", "seed"))


def test_single_replication_mse_is_squared_bias():
    spec = ScenarioSpec(model_id=1, p=0.5, n=400, reps=1, seed=12)
    summary = run_scenario(spec)
    assert summary.failures == 0
    assert summary.mse_p == pytest.approx(summary.bias_p ** 2, rel=1e-12)
    assert summary.mse_mu == pytest.approx(summary.bias_mu ** 2, rel=1e-12)
    assert abs(summary.bias_p) < 0.5


def test_run_scenario_is_deterministic():
    spec = ScenarioSpec(model_id=3, p=0.2, n=300, reps=3, seed=4)
    s1 = run_scenario(spec)
    s2 = run_scenario(spec)
    assert s1 == s2


def test_parallel_matches_serial_exactly():
    spec = ScenarioSpec(model_id=1, p=0.5, n=250, reps=4, seed=9)
    serial = run_scenario(spec, workers=1)
    parallel = run_scenario(spec, workers=3)
    assert serial == parallel


def _record_pools(monkeypatch):
    """Replace the worker pool, which run_scenario imports where it starts
    one, by one that records its size and maps in this process; returns the
    list of sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_worker_pool_is_capped_at_the_usable_cpus(monkeypatch):
    assert 1 <= simulate._usable_cpus() <= (os.cpu_count() or 1)
    sizes = _record_pools(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    spec = ScenarioSpec(model_id=1, p=0.5, n=120, reps=5, seed=9)
    serial = summary_table([run_scenario(spec, workers=1)])
    for workers, size in ((200, 3), (2, 2)):
        assert summary_table([run_scenario(spec, workers=workers)]) == serial
        assert sizes[-1] == size
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    assert summary_table([run_scenario(spec, workers=200)]) == serial
    assert sizes == [3, 2]  # one usable CPU runs serially


@pytest.mark.parametrize("workers", [2.5, True, "3"])
def test_run_scenario_rejects_worker_counts_that_are_not_integers(monkeypatch, workers):
    # unchecked, 2.5 failed inside the pool with a TypeError and True ran
    # serially
    sizes = _record_pools(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    spec = ScenarioSpec(model_id=1, p=0.5, n=120, reps=5, seed=9)
    with pytest.raises(ValueError, match="workers must be an integer"):
        run_scenario(spec, workers=workers)
    assert sizes == []


def test_run_scenario_takes_numpy_integer_workers_as_their_value(monkeypatch):
    sizes = _record_pools(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    spec = ScenarioSpec(model_id=1, p=0.5, n=120, reps=2, seed=9)
    serial = summary_table([run_scenario(spec)])
    assert summary_table([run_scenario(spec, workers=np.int64(2))]) == serial
    assert sizes == [2]


def test_importing_the_cli_loads_no_multiprocessing():
    # run_scenario imports the worker pool where it starts one, so neither
    # a CLI start nor an import of the package loads multiprocessing
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, logconmix.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'multiprocessing'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_different_seeds_differ():
    a = run_scenario(ScenarioSpec(model_id=1, p=0.5, n=300, reps=2, seed=1))
    b = run_scenario(ScenarioSpec(model_id=1, p=0.5, n=300, reps=2, seed=2))
    assert a.bias_p != b.bias_p


def test_custom_config_feeds_replications():
    spec = ScenarioSpec(model_id=1, p=0.5, n=200, reps=1, seed=5)
    # a one-iteration budget cannot converge, so the replication fails and
    # an all-failure scenario raises
    with pytest.raises(AllReplicationsFailedError):
        run_scenario(spec, config=EmConfig(max_iters=1))


def test_failures_are_counted_not_fatal():
    # mix of convergent and non-convergent replications: cap the iteration
    # budget low enough that some replications miss the tolerance
    spec = ScenarioSpec(model_id=1, p=0.5, n=250, reps=6, seed=9)
    tight = run_scenario(spec, config=EmConfig(max_iters=80))
    assert 1 <= tight.failures <= 5
    loose = run_scenario(spec)
    assert loose.failures <= tight.failures
    # summary statistics are computed over the survivors only, so they stay
    # finite when at least one replication succeeds
    assert math.isfinite(tight.bias_p)
    assert math.isfinite(tight.mean_cla_error)


@pytest.mark.parametrize("error, counted", [
    (ZeroMixtureDensityError("mixture density is zero"), True),
    (TypeError("a bug"), False)])
def test_only_estimation_errors_count_as_failures(monkeypatch, error, counted):
    # the first replication raises; an estimation error is one failure of
    # two, and any other exception is a bug that must not become a count
    real, calls = simulate.run_em, []

    def failing_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise error
        return real(*args)

    monkeypatch.setattr(simulate, "run_em", failing_once)
    spec = ScenarioSpec(model_id=1, p=0.5, n=200, reps=2, seed=5)
    if counted:
        assert run_scenario(spec, workers=1).failures == 1
    else:
        with pytest.raises(TypeError, match="a bug"):
            run_scenario(spec, workers=1)


def test_summary_table_format_round_trips():
    spec = ScenarioSpec(model_id=2, p=0.3, n=300, reps=2, seed=8)
    summary = run_scenario(spec)
    text = summary_table([summary])
    lines = text.strip().split("\n")
    assert lines[0] == ("model,p,n,reps,bias_p,mse_p,bias_mu,mse_mu,"
                        "mean_cla_error,failures")
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert float(fields[1]) == 0.3
    assert int(fields[2]) == 300 and int(fields[3]) == 2
    assert float(fields[4]) == summary.bias_p
    assert float(fields[8]) == summary.mean_cla_error
    assert int(fields[9]) == summary.failures
