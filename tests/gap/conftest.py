"""The library's GAP path against the general-GAP reference, on every
instance a test here builds.

The library solves slot-form instances only. While a test runs, each
:class:`GAPInstance` it constructs (directly, through hypothesis, or
through a market's virtual-cloudlet split) is recorded; once the test
body has passed, every recorded instance goes through
:func:`assert_library_agrees`, which states it as a weighted instance and
solves that with the reference's own code.
"""

from __future__ import annotations

from typing import List

import pytest
from unittest import mock

from repro.exceptions import InfeasibleError
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance
from repro.gap.shmoys_tardos import shmoys_tardos

from tests.oracles import gap_reference


def assert_library_agrees(instance: GAPInstance) -> None:
    """The library's Shmoys–Tardos solution equals the reference's on the
    weighted view (assignment and lower bound, with ``==``), and so does
    the library's greedy assignment; or both raise
    :class:`InfeasibleError`."""
    try:
        weighted, bins = gap_reference.weighted_view(instance)
    except InfeasibleError:  # no bin has a slot
        weighted = None
    for solve, reference in (
        (shmoys_tardos, gap_reference.shmoys_tardos),
        (greedy_gap, gap_reference.greedy_gap),
    ):
        try:
            if weighted is None:
                raise InfeasibleError("no bin has a slot")
            expected = reference(weighted)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve(instance)
            continue
        solution = solve(instance)
        assert solution.assignment == bins[expected.assignment].tolist()
        assert solution.lower_bound == expected.lower_bound


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Item):
    built: List[GAPInstance] = []
    construct = GAPInstance.__init__

    def recording_init(self: GAPInstance, *args, **kwargs) -> None:
        construct(self, *args, **kwargs)
        built.append(self)

    with mock.patch.object(GAPInstance, "__init__", recording_init):
        result = yield
    for instance in built:
        assert_library_agrees(instance)
    return result
