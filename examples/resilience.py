"""Cloudlet failures: what does an outage cost the market?

The testbed is wired so "network data can still be transmitted if one
switch is down" (Section IV.C); this example exercises the service layer's
side of that story, in two acts:

1. **A scripted drill** — fail two cloudlets for one epoch with a
   ``ScheduledOutageTrace`` and compare the greedy-failover bill to a
   full LCF replan.
2. **An outage-laden run** — drive the dynamic market through an
   MTTF/MTTR outage process and report the availability ledger: provider
   displacement, SLA violations, cloudlet downtime and mean
   time-to-recover, under the chosen recovery policy.

Run:  python examples/resilience.py
      python examples/resilience.py --mttf 6 --mttr 2 --policy replan
      python examples/resilience.py --correlated --policy hysteresis
"""

import argparse

from repro.dynamics import (
    CorrelatedOutageTrace,
    DynamicMarketSimulation,
    IndependentOutageTrace,
    PopulationProcess,
    ScheduledOutageTrace,
)
from repro.network import random_mec_network
from repro.utils.tables import Table


def scheduled_drill() -> None:
    # A near-static population (slow arrivals, long lifetimes), so the
    # outage epoch's bill is the outage's cost rather than churn.
    table = Table(["recovery", "displaced", "SLA viol.", "social cost",
                   "migration cost"])
    for recovery in ("failover", "replan"):
        network = random_mec_network(100, rng=1)
        victims = [cl.node_id for cl in network.cloudlets[:2]]
        trace = ScheduledOutageTrace(
            network, {2: (victims, ()), 3: ((), victims)}
        )
        population = PopulationProcess(
            network,
            arrival_rate=0.5,
            mean_lifetime=1000.0,
            rng=3,
            initial_population=40,
        )
        sim = DynamicMarketSimulation(
            network,
            population,
            policy="incremental",
            outages=trace,
            recovery=recovery,
        )
        outage = sim.run(3).epochs[1]
        table.add_row([
            recovery, outage.displaced, outage.sla_violations,
            outage.social_cost, outage.migration_cost,
        ])
    print(table.render(
        title=f"Cloudlets {victims} down for epoch 2 (recovered at epoch 3)"
    ))


def outage_run(args) -> None:
    network = random_mec_network(100, rng=1)
    population = PopulationProcess(
        network,
        arrival_rate=5.0,
        mean_lifetime=8.0,
        rng=3,
        initial_population=40,
    )
    trace_cls = CorrelatedOutageTrace if args.correlated else IndependentOutageTrace
    trace = trace_cls(network, mttf=args.mttf, mttr=args.mttr, rng=5)
    sim = DynamicMarketSimulation(
        network,
        population,
        policy="incremental",
        outages=trace,
        recovery=args.policy,
    )
    summary = sim.run(args.epochs)

    kind = "correlated" if args.correlated else "independent"
    print()
    table = Table(["epoch", "down cloudlets", "displaced", "SLA viol.",
                   "replanned", "social cost"])
    for e in summary.epochs:
        if e.outages or e.recoveries or e.displaced:
            table.add_row([
                e.epoch, len(e.failed_cloudlets), e.displaced,
                e.sla_violations, "yes" if e.replanned else "", e.social_cost,
            ])
    print(table.render(
        title=f"Outage epochs ({kind} trace, MTTF={args.mttf:g}, "
              f"MTTR={args.mttr:g}, recovery={args.policy})"
    ))

    print("\navailability ledger:")
    print(f"  cloudlet downtime:     {summary.cloudlet_downtime} cloudlet-epochs")
    print(f"  displaced instances:   {summary.total_displaced}")
    print(f"  SLA violations:        {summary.total_sla_violations}")
    print(f"  provider downtime:     {summary.provider_downtime} provider-epochs")
    print(f"  mean time to recover:  {summary.mean_time_to_recover:.2f} epochs")
    print(f"  replans triggered:     {summary.total_replans}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=20,
                        help="epochs of the outage-laden run (default 20)")
    parser.add_argument("--mttf", type=float, default=5.0,
                        help="mean epochs between cloudlet failures (default 5)")
    parser.add_argument("--mttr", type=float, default=2.0,
                        help="mean epochs to repair a cloudlet (default 2)")
    parser.add_argument("--policy", choices=("failover", "replan", "hysteresis"),
                        default="failover",
                        help="recovery policy for displaced providers")
    parser.add_argument("--correlated", action="store_true",
                        help="regional outages (neighbourhoods fail together)")
    args = parser.parse_args()

    scheduled_drill()
    outage_run(args)


if __name__ == "__main__":
    main()
