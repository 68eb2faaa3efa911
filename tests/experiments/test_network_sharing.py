"""Sharing differential: the sweeps that build each seed's network once
against runs that build a fresh network for every cell.

Fig. 3, A2 and A4 draw every cell's market on ``random_mec_network(
default_size, seed)``, and Figs. 5-7 on ``as1755_mec_network(seed)``, with
seeds that repeat across the sweep points; the figures share one network
per seed per sweep (``figures._SeededNetworks``). Swapping in a builder
that makes a new network on every call must not change any result, run
times aside, whether the sweep runs serially or on two workers (whose
tasks arrive with an empty memo).
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from typing import Callable

import pytest

from repro.experiments import figures
from repro.experiments.harness import SweepResult
from repro.experiments.settings import QUICK
from repro.network.topology import MECNetwork

SWEEPS = {
    "fig3": figures.fig3_selfish_fraction,
    "ablation-selection": figures.ablation_selection_strategies,
    "ablation-gap": figures.ablation_gap_solvers,
    "fig5": figures.fig5_testbed,
    "fig6": figures.fig6_testbed_parameters,
    "fig7": figures.fig7_max_demands,
}


class FreshNetworks:
    """A builder that makes a new network on every call, as every cell
    did before the sweeps shared them."""

    def __init__(self, build: Callable[[int], MECNetwork]) -> None:
        self._build = build

    def __call__(self, seed: int) -> MECNetwork:
        return self._build(seed)


def without_run_times(result):
    """The sweep result(s) with every ``runtime_s`` zeroed."""
    if isinstance(result, dict):
        return {key: without_run_times(value) for key, value in result.items()}
    assert isinstance(result, SweepResult)
    points = [
        {alg: replace(metrics, runtime_s=0.0) for alg, metrics in point.items()}
        for point in result.points
    ]
    return replace(result, points=points)


def counting_builds(monkeypatch):
    """Count the networks the figures build, by builder name."""
    built = {"random_mec_network": 0, "as1755_mec_network": 0}
    for name in built:
        real = getattr(figures, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(figures, name, counted)
    return built


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_shared_networks_change_no_result(name, monkeypatch):
    run = SWEEPS[name]
    with monkeypatch.context() as patch:
        built = counting_builds(patch)
        shared = without_run_times(run(QUICK))
    # One network per seed per sweep: a seed per repetition.
    sweeps = len(shared) if isinstance(shared, dict) else 1
    assert sum(built.values()) == sweeps * QUICK.repetitions
    with monkeypatch.context() as patch:
        patch.setattr(figures, "_SeededNetworks", FreshNetworks)
        fresh = without_run_times(run(QUICK))
    assert shared == fresh
    assert without_run_times(run(replace(QUICK, workers=2))) == shared


def test_a_pickled_memo_holds_no_network():
    networks = figures._default_size_networks(QUICK)
    first = networks(13)
    assert networks(13) is first
    clone = pickle.loads(pickle.dumps(networks))
    assert clone._networks == {}
    assert clone(13) is not first
