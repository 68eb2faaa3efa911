"""What is left of the GAP solver degradation ladder.

The ladder (LP timeout -> greedy) is gone: Appro's GAP is a unit-slot
instance, solved by one assignment that no budget can interrupt, so there
was never a timeout for it to catch. The test kept here checks the
invariant that made it unnecessary, on the market it always ran on.
"""

import pytest

from repro.core.appro import appro
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.gap import lp
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network


class TestApproSurfacesDegradation:
    def test_budget_cannot_fire_on_a_unit_slot_market(self):
        # Appro's GAP is a slot table (one slot per virtual cloudlet, n
        # for the remote bin), solved by the exact assignment; the library's LP module has no HiGHS path to reach,
        # so there is no LP for a budget to stop, and the keyword that
        # carried one is refused.
        market = generate_market(random_mec_network(150, rng=1), 60, rng=2)
        untimed = appro(market, allow_remote=True)
        instance = VirtualCloudletSplit(market, allow_remote=True).build_gap_instance()
        assert instance.slots.tolist() == [1] * (instance.n_bins - 1) + [
            instance.n_items
        ]
        assert not hasattr(lp, "linprog")
        again = appro(market, allow_remote=True)
        assert "degradation" not in again.info
        assert again.placement == untimed.placement
        assert again.rejected == untimed.rejected
        with pytest.raises(TypeError):
            appro(market, allow_remote=True, lp_time_limit_s=1e-6)
