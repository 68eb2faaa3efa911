"""Ablation A1 — empirical approximation ratio and Price of Anarchy.

On the default 8-provider markets (EXPERIMENTS.md also reports 60-provider
ones), against the exact optimum: verifies Lemma 2 (Appro with the literal
Eq. 9 costs stays within 2*delta*kappa of the optimum) and Theorem 1 (the
worst sampled equilibrium stays within the PoA bound), and reports how
loose the closed forms are in practice.
"""

from repro.experiments.figures import poa_study
from repro.utils.tables import Table


def test_bench_poa(benchmark, emit):
    out = benchmark.pedantic(
        poa_study,
        kwargs=dict(n_providers=8, n_nodes=30, repetitions=5, seed=11),
        rounds=1,
        iterations=1,
    )
    table = Table(["quantity", "value"])
    for key, value in out.items():
        table.add_row([key, value])
    emit(table.render(title="[A1] empirical vs closed-form bounds"))

    assert 1.0 <= out["empirical_appro_ratio"] <= out["lemma2_bound"]
    assert 1.0 - 1e-9 <= out["empirical_poa"] <= out["theorem1_bound"]
    # The LP-certified gap of marginal-priced Appro is far tighter than
    # Lemma 2's closed form.
    assert 1.0 - 1e-9 <= out["appro_marginal_certified_gap"] <= 1.25
