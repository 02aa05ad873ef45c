"""The benchmark's inputs are a function of the seed alone."""

import pytest

from inputs import GENERATORS


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_inputs(workload):
    assert GENERATORS[workload](7) == GENERATORS[workload](7)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_different_seed_different_inputs(workload):
    assert GENERATORS[workload](7) != GENERATORS[workload](8)
