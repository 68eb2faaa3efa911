"""The Stackelberg service market, step by step.

Walks through the game mechanics the paper builds on: the congestion game
of Section II.E, Rosenthal's potential, best-response dynamics, the
approximation-restricted Stackelberg strategy, and how the social cost
degrades as the selfish fraction 1 - xi grows — including the empirical
Price of Anarchy against Theorem 1's bound on a small instance.

Run:  python examples/service_market_game.py
"""

import numpy as np

from repro.core import appro, lcf, market_game, optimal_caching
from repro.core.bounds import stackelberg_poa_bound
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.game.equilibrium import certify_equilibrium
from repro.game.poa import worst_equilibrium_cost
from repro.market import generate_market
from repro.network import random_mec_network
from repro.utils.ascii_plot import line_chart
from repro.utils.tables import Table


def game_mechanics() -> None:
    print("=" * 68)
    print("1. The congestion game and its potential")
    print("=" * 68)
    network = random_mec_network(100, rng=5)
    market = generate_market(network, n_providers=40, rng=6)
    game = market_game(market)

    start = greedy_feasible_profile(game)
    result = best_response_dynamics(game, start)
    print(f"best-response dynamics: {result.rounds} rounds, "
          f"{result.moves} improving moves, converged={result.converged}")
    print(f"Rosenthal potential: {result.potential_trace[0]:.2f} -> "
          f"{result.final_potential:.2f} (monotone decrease)")
    print(f"equilibrium verified: "
          f"{certify_equilibrium(game, result.profile)}")
    print(f"social cost at the equilibrium: "
          f"{game.social_cost(result.profile):.2f}")


def stackelberg_sweep() -> None:
    print()
    print("=" * 68)
    print("2. Coordination vs selfishness (the Fig. 3 mechanism)")
    print("=" * 68)
    network = random_mec_network(150, rng=11)
    market = generate_market(network, n_providers=60, rng=12)

    xs = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    costs = []
    table = Table(["1 - xi", "social cost", "coordinated", "selfish"])
    for one_minus_xi in xs:
        outcome = lcf(market, xi=1.0 - one_minus_xi, allow_remote=True).assignment
        costs.append(outcome.social_cost)
        table.add_row([
            one_minus_xi,
            outcome.social_cost,
            outcome.coordinated_cost,
            outcome.selfish_cost,
        ])
    print(table.render(
        title="posted-price market: more selfishness, higher social cost"
    ))
    print()
    print(line_chart(
        {"LCF social cost": costs}, x_values=list(xs),
        title="the Fig. 3(a) trend", height=8, width=42,
    ))


def poa_on_small_instance() -> None:
    print()
    print("=" * 68)
    print("3. Empirical Price of Anarchy vs Theorem 1")
    print("=" * 68)
    network = random_mec_network(30, rng=21)
    market = generate_market(network, n_providers=8, rng=22)

    optimum = optimal_caching(market)
    print(f"exact optimal social cost: {optimum.social_cost:.2f}")

    approx = appro(market, slot_pricing="flat")
    print(f"Appro (Eq. 9 costs):       {approx.social_cost:.2f} "
          f"(ratio {approx.social_cost / optimum.social_cost:.3f}, "
          f"Lemma 2 bound {approx.info['ratio_bound']:.0f})")

    game = market_game(market)
    worst, _ = worst_equilibrium_cost(game, trials=20, rng=23)
    split = VirtualCloudletSplit(market)
    bound = stackelberg_poa_bound(split.delta, split.kappa, xi=0.5)
    print(f"worst sampled equilibrium: {worst:.2f} "
          f"(PoA {worst / optimum.social_cost:.3f}, "
          f"Theorem 1 bound {bound:.0f})")


if __name__ == "__main__":
    game_mechanics()
    stackelberg_sweep()
    poa_on_small_instance()
