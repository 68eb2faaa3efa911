"""Run the algorithms on the emulated hardware testbed (Section IV.C).

Assembles the paper's Fig. 4 setup — five vendor switches, five servers, an
AS1755 OVS/VXLAN overlay under a Ryu-style controller — and compares the
three algorithms end to end: controller wall-clock, social cost, and the
flow-level behaviour of the access and consistency-update traffic their
placements generate.

Run:  python examples/testbed_emulation.py
"""

from repro.core import jo_offload_cache, lcf, offload_cache
from repro.market import generate_market
from repro.testbed import Testbed
from repro.utils.tables import Table


def main() -> None:
    testbed = Testbed(rng=17)
    print("underlay switches:")
    for sw in testbed.switches:
        print(f"  {sw.name:>12}  {sw.model.product:<22} "
              f"{sw.model.ports} ports @ {sw.model.port_speed_mbps:.0f} Mbps")
    print(f"overlay: {testbed.overlay}")
    print(f"controller sees: {testbed.controller.discovered_topology()}")

    market = generate_market(testbed.network, n_providers=40, rng=18)
    print(f"\nmarket: {market}")

    testbed.register_algorithm(
        "LCF", lambda m: lcf(m, xi=0.7, allow_remote=True).assignment
    )
    testbed.register_algorithm("JoOffloadCache", jo_offload_cache)
    testbed.register_algorithm("OffloadCache", offload_cache)

    table = Table([
        "algorithm", "social cost ($)", "controller time (s)",
        "flow makespan (s)", "mean rate (Mbps)", "rejected",
    ])
    # One controller pass per algorithm; the three epochs' traffic is
    # emulated side by side, each flow set on its own clock.
    runs = testbed.run_all(["LCF", "JoOffloadCache", "OffloadCache"], market)
    for name, run in runs.items():
        table.add_row([
            name,
            run.social_cost,
            run.runtime_s,
            run.flow_metrics["makespan"],
            run.flow_metrics["mean_rate_mbps"],
            len(run.assignment.rejected),
        ])
    print()
    print(table.render(title="AS1755 testbed comparison (1 - xi = 0.3)"))

    print("\ninstalled flow-rule chains (first 6):")
    for path in testbed.controller.installed[:6]:
        nodes = " -> ".join(str(n) for n in path.overlay_nodes)
        print(f"  sp{path.provider_id} [{path.purpose}]: {nodes}")

    util = testbed.vm_manager.utilization()
    print(f"\nserver pool utilisation: cores {util['cores']:.0%}, "
          f"memory {util['memory']:.0%}")


if __name__ == "__main__":
    main()
