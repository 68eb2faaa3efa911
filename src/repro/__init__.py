"""repro — stable service caching in two-tiered mobile edge-clouds.

A complete, from-scratch reproduction of

    Xu et al., "To Cache or Not to Cache: Stable Service Caching in Mobile
    Edge-Clouds of a Service Market", IEEE ICDCS 2020.

Public API highlights
---------------------
* :func:`repro.network.random_mec_network` / :func:`repro.network.as1755_mec_network`
  — build two-tiered MEC networks (GT-ITM-style or AS1755).
* :func:`repro.market.generate_market` — draw a service market with the
  paper's Section IV.A parameter distributions.
* :func:`repro.core.appro` — Algorithm 1 (the ``2*delta*kappa``
  approximation for non-selfish players).
* :func:`repro.core.lcf` — Algorithm 2 (the LCF approximation-restricted
  Stackelberg strategy).
* :func:`repro.core.jo_offload_cache` / :func:`repro.core.offload_cache`
  — the paper's baselines.
* :mod:`repro.experiments` — drivers regenerating every evaluation figure.
* :mod:`repro.testbed` — the discrete-event emulator standing in for the
  paper's hardware/OVS testbed.

Quickstart
----------
>>> from repro.network import random_mec_network
>>> from repro.market import generate_market
>>> from repro.core import lcf
>>> net = random_mec_network(100, rng=1)
>>> market = generate_market(net, n_providers=40, rng=2)
>>> result = lcf(market, xi=0.7)
>>> result.assignment.social_cost  # doctest: +SKIP
"""

from repro.exceptions import (
    CapacityError,
    ConfigurationError,
    EmulationError,
    InfeasibleError,
    ReproError,
    SolverError,
    TopologyError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CapacityError",
    "InfeasibleError",
    "SolverError",
    "TopologyError",
    "EmulationError",
    "__version__",
]
