"""Quickstart: cache a service market into an MEC network.

Builds a GT-ITM-style two-tiered MEC network, draws a market of network
service providers with the paper's Section IV.A distributions, runs the LCF
Stackelberg mechanism (Algorithm 2) against the two baselines, and prints
the cost breakdown.

Run:  python examples/quickstart.py
"""

from repro.core import jo_offload_cache, lcf, offload_cache
from repro.core.bounds import bounds_for_market
from repro.market import generate_market
from repro.network import random_mec_network
from repro.utils.tables import Table


def main() -> None:
    # A 200-node network: 20 cloudlets at the edge, 5 remote data centers.
    network = random_mec_network(200, rng=42)
    print(network)

    # 80 selfish network service providers, each with one service to cache.
    market = generate_market(network, n_providers=80, rng=7)
    print(market)

    # The infrastructure provider coordinates 70% of them (1 - xi = 0.3).
    result = lcf(market, xi=0.7, allow_remote=True)
    assignment = result.assignment
    print(f"\nLCF: stable = {result.is_equilibrium}, "
          f"coordinated = {len(result.coordinated_ids)}, "
          f"rejected (left remote) = {len(assignment.rejected)}")

    table = Table(["algorithm", "social cost ($)", "runtime (s)"])
    table.add_row(["LCF", assignment.social_cost, assignment.runtime_s])
    for name, run in (("JoOffloadCache", jo_offload_cache),
                      ("OffloadCache", offload_cache)):
        out = run(market)
        table.add_row([name, out.social_cost, out.runtime_s])
    print()
    print(table.render(title="Algorithm comparison"))

    bounds = bounds_for_market(market, xi=0.7)
    print(f"\nLemma 2 approximation-ratio bound: "
          f"{bounds['appro_ratio_bound']:.1f}")
    print(f"Theorem 1 PoA bound (optimal v = {bounds['optimal_v']:.3f}): "
          f"{bounds['poa_bound']:.1f}")

    print("\nMost expensive providers under LCF:")
    costs = sorted(
        ((assignment.provider_cost(p.provider_id), p.provider_id)
         for p in market.providers),
        reverse=True,
    )
    for cost, pid in costs[:5]:
        where = assignment.placement.get(pid, "remote cloud")
        print(f"  sp{pid}: ${cost:.2f} at {where}")


if __name__ == "__main__":
    main()
