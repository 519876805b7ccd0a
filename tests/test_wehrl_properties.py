"""Property test: two-spin Husimi values agree with the direct complex
contraction for every pair of small spins, ranks and grid sizes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qssa.randgen import random_density
from qssa.wehrl import base_grid_sizes, husimi, make_grid
from test_wehrl import husimi_oracle

TWO_J = st.integers(0, 6)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(two_js=st.tuples(TWO_J, TWO_J), rank=st.integers(1, 49), seed=st.integers(0, 2**32 - 1),
       extra=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_two_spin_husimi_matches_oracle(two_js, rank, seed, extra):
    dims = tuple(j + 1 for j in two_js)
    rho = random_density(dims, min(rank, dims[0] * dims[1]), seed)
    grids = tuple(make_grid(j, n_theta + k, n_phi + k)
                  for j, k, (n_theta, n_phi) in zip(two_js, extra, map(base_grid_sizes, two_js)))
    assert np.abs(husimi(rho, grids) - husimi_oracle(rho, grids)).max() <= 1e-14
