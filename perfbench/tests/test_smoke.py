"""Seconds-scale smoke test of the benchmark's own code.

Runs every workload through the functions the command line uses, at a tiny
scale, and checks that the metric names and units match BENCHMARK.json,
that every output check passes and that the traced run's wrappers fire.
From the repository root::

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.settings import ExperimentConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE = workloads.Scale(
    paper=ExperimentConfig(
        network_sizes=(40,), default_size=40, n_providers=12,
        testbed_providers=10, xi_sweep=(0.3,), repetitions=1,
        provider_sweep=(10,),
    ),
    sim_nodes=300,
    arrival_rate=30.0,
    mean_lifetime=10.0,
    shard_epochs=6,
    oracle_every=2,
)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_command():
    assert SPEC["run_seconds"] == run.NOMINAL_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(tracing.EXPECTED_LAYERS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload(name, tmp_path):
    plain = run.plain_run(name, SMOKE, tmp_path)
    assert plain["correct"], plain["problems"]
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    units = {key: m["unit"] for key, m in plain["metrics"].items()}
    assert units == _units("end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.trace_run(name, SMOKE, tmp_path)
    assert traced["correct"], traced["problems"]
    units = {key: m["unit"] for key, m in traced["metrics"].items()}
    assert units == _units("per_layer")
    for layer in tracing.EXPECTED_LAYERS[name]:
        assert traced["metrics"][tracing.calls_metric(layer)]["value"] > 0, layer


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_command_line_prints_the_result_last():
    done = _cli(ROOT, "--workload", "paper_figs", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    *_, meta_line, result_line = done.stdout.strip().splitlines()
    assert json.loads(meta_line)["meta"]["seed"] == 2
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli(tmp_path, "--workload", "paper_figs", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
