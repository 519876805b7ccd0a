"""Property tests: the SSA-type checks keep lhs and rhs, to 1e-12, under a local unitary
U1⊗U2⊗U3 (Kraus operators and POVM elements conjugated to match), under reversed
outcome order and with factor 3 padded from d to d+1 by zeros, at unequal factor dims."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qssa.checks import check_cqq, check_ssa, check_stronger_ssa
from qssa.linalg import DensityMatrix, kron
from qssa.measurement import KrausSet, Povm
from qssa.randgen import random_density, random_kraus, random_povm, random_unitary

# lhs and rhs moved by at most 2.7e-15 under these moves at dims 2,3,4
MOVE = 1e-12
# no two factors equal, each from 2 to 4
DIMS = st.permutations((2, 3, 4))
SEED = st.integers(0, 2**32 - 1)
SETTINGS = settings(deadline=None, max_examples=25, derandomize=True)


def local_unitaries(dims, seed):
    """U1, U2, U3 on the factors, and W1, W2 on the outputs of a Kraus family."""
    us = [random_unitary(d, seed, (1, f)) for f, d in enumerate(dims)]
    return us, [random_unitary(d, seed, (2, f)) for f, d in enumerate(dims[:2])]


def rotated(rho, us):
    u = kron(kron(us[0], us[1]), us[2])
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims)


def rotated_kraus(k, us, ws):
    """K -> (W1⊗W2) K (U1⊗U2)† on the factors the family acts on."""
    u_in, w_out = us[0], ws[0]
    if k.acts_on == (1, 2):
        u_in, w_out = kron(u_in, us[1]), kron(w_out, ws[1])
    return KrausSet([w_out @ op @ u_in.conj().T for op in k.ops], acts_on=k.acts_on)


def padded(rho):
    """rho with factor 3 embedded from d into d+1 dimensions, padded with zeros."""
    d1, d2, d3 = rho.dims
    t = np.pad(rho.mat.reshape(d1, d2, d3, d1, d2, d3), [(0, 0), (0, 0), (0, 1)] * 2)
    n = d1 * d2 * (d3 + 1)
    return DensityMatrix(t.reshape(n, n), (d1, d2, d3 + 1))


def assert_unmoved(base, *moved):
    for r in moved:
        assert abs(r.lhs - base.lhs) <= MOVE and abs(r.rhs - base.rhs) <= MOVE, (r, base)


@SETTINGS
@given(dims=DIMS, rank=st.integers(1, 24), seed=SEED)
def test_ssa_invariances(dims, rank, seed):
    rho = random_density(dims, rank, seed)
    us, _ = local_unitaries(dims, seed)
    assert_unmoved(check_ssa(rho), check_ssa(rotated(rho, us)), check_ssa(padded(rho)))


@SETTINGS
@given(dims=DIMS, count=st.integers(1, 4), acts_on=st.sampled_from([(1,), (1, 2)]), seed=SEED)
def test_stronger_ssa_invariances(dims, count, acts_on, seed):
    rho = random_density(dims, 24, seed)
    k = random_kraus(math.prod(dims[: len(acts_on)]), count, seed, 1, acts_on=acts_on)
    us, ws = local_unitaries(dims, seed)
    assert_unmoved(
        check_stronger_ssa(rho, k),
        check_stronger_ssa(rotated(rho, us), rotated_kraus(k, us, ws)),
        check_stronger_ssa(rho, KrausSet(k.ops[::-1], acts_on=acts_on)),
        check_stronger_ssa(padded(rho), k),
    )


@SETTINGS
@given(dims=DIMS, count=st.integers(1, 4), seed=SEED)
def test_cqq_invariances(dims, count, seed):
    rho = random_density(dims, 24, seed)
    p = random_povm(dims[0], count, seed, 1)
    us, _ = local_unitaries(dims, seed)
    assert_unmoved(
        check_cqq(rho, p),
        check_cqq(rotated(rho, us), Povm([us[0] @ el @ us[0].conj().T for el in p.elements])),
        check_cqq(rho, Povm(p.elements[::-1])),
        check_cqq(padded(rho), p),
    )
