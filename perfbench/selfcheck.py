"""Tests of the benchmark itself, kept out of the package's test run.

    PYTHONPATH=src python3 -m pytest perfbench/selfcheck.py

Run from the root of a checkout.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import calibration
import cli_probe
import percentiles
import run
import worker
from workloads import WORKLOADS, A

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# counts that must repeat exactly across traced runs with the same seed
REPEATING = ("synth.rng_streams", "oracle.quad.evals",
             "correlators.correlation.calls", "inference.tau_dropped")


@pytest.mark.parametrize("n", [21, 22, 40, 57, 200])
def test_tail_has_ten_samples_above_and_is_not_below_median(n):
    values = list(np.random.default_rng(n).lognormal(size=n))
    tail = percentiles.tail(values)
    assert sum(v > tail.value for v in values) == percentiles.MIN_ABOVE
    assert tail.above == percentiles.MIN_ABOVE
    assert tail.value >= statistics.median(values)
    assert tail.percentile == pytest.approx(100.0 * (n - 10) / n)
    assert tail.samples == n


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        percentiles.tail([1.0] * (percentiles.MIN_SAMPLES - 1))


def test_wrong_expected_value_is_a_failed_op_not_an_error(tmp_path):
    workload = WORKLOADS["fit_ensemble"]
    state = workload.setup(1, str(tmp_path))
    assert worker.run_ops(workload, state, [1]).failed == 0
    state["truth"][A] = (2.0, state["truth"][A][1])  # tau is 1 ps
    log = worker.run_ops(workload, state, [1])
    assert (log.attempted, log.failed) == (1, 1)


def test_exception_in_op_is_a_failed_op(tmp_path):
    workload = WORKLOADS["fit_ensemble"]
    state = workload.setup(1, str(tmp_path))
    os.remove(state["paths"][workload.SEEDS_PER_OP][A])  # read by op 1
    log = worker.run_ops(workload, state, [1, 2])
    assert (log.attempted, log.failed) == (2, 1)


def test_op_times_are_scaled_by_the_calibration_next_to_them(
        tmp_path, monkeypatch):
    workload = WORKLOADS["fit_ensemble"]
    state = workload.setup(1, str(tmp_path))
    monkeypatch.setattr(calibration, "calibrate",
                        lambda: 2 * calibration.REFERENCE_S)
    log = worker.run_ops(workload, state, [1, 2])
    assert log.scaled() == [t / 2 for t in log.seconds]


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Per-layer metrics of two traced runs of each workload, same seed."""
    out = {}
    for name, workload in WORKLOADS.items():
        runs = []
        for _ in range(2):
            workdir = str(tmp_path_factory.mktemp(name))
            state = workload.setup(7, workdir)
            runs.append(worker.traced_phase(workload, state, workdir, 7))
        out[name] = runs
    return out


def test_traced_counts_repeat_exactly(traced_twice):
    for name, (first, second) in traced_twice.items():
        assert first["failed"] == second["failed"] == 0
        for metric, (value, unit) in first["metrics"].items():
            if unit in ("count", "bytes"):
                assert second["metrics"][metric][0] == value, (name, metric)
    assert traced_twice["surface_scan"][0]["metrics"][
        "synth.rng_streams"][0] > 0
    assert traced_twice["oracle_validation"][0]["metrics"][
        "oracle.quad.evals"][0] > 0
    for metric in REPEATING:
        assert all(metric in runs[0]["metrics"]
                   for runs in traced_twice.values())


def test_traced_metrics_are_the_per_layer_metrics(traced_twice):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    cli = {"cli.interp_start_s", "cli.import_s"}
    cli |= {f"cli.import.{key}_s" for key in
            {**run.PACKAGE_IMPORTS, **run.SCIPY_IMPORTS}}
    cli |= {f"cli.main.{name}_s" for name in cli_probe.commands(".", 0)}
    for runs in traced_twice.values():
        emitted = {name: unit for name, (_, unit)
                   in runs[0]["metrics"].items()}
        emitted.update({name: "s" for name in cli})
        assert emitted == declared


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
