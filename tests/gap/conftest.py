"""The library's GAP path against the general-GAP reference, on every
instance a test here builds.

The library solves unit-slot instances only. While a test runs, each
:class:`GAPInstance` it constructs (directly, through hypothesis, or
through a market's virtual-cloudlet split) is recorded; once the test
body has passed, every recorded instance goes through
:func:`assert_library_agrees`.
"""

from __future__ import annotations

from typing import List

import pytest
from unittest import mock

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPInstance
from repro.gap.lp import _slot_multiplicities, solve_lp_relaxation
from repro.gap.shmoys_tardos import shmoys_tardos

from tests.oracles import gap_reference


def assert_library_agrees(instance: GAPInstance) -> None:
    """A unit-slot instance gets the reference's Shmoys–Tardos solution
    (assignment and lower bound, with ``==``), or the same infeasibility;
    the library's relaxation refuses any other instance."""
    if _slot_multiplicities(instance) is None:
        with pytest.raises(ConfigurationError):
            solve_lp_relaxation(instance)
        return
    try:
        expected = gap_reference.shmoys_tardos(instance)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            shmoys_tardos(instance)
        return
    solution = shmoys_tardos(instance)
    assert solution.assignment == expected.assignment
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
