"""Property tests: the SSA-type, sandwich and cpt checks keep lhs and rhs, to 1e-12, under a
local unitary U1⊗U2⊗U3 (Kraus operators and POVM elements conjugated to match), under
reversed outcome order and with factor 3 padded from d to d+1 by zeros, at unequal factor
dims; stronger SSA, the sandwich and cpt also under the Kraus gauge K_a -> (W_a⊗I) K_a; the
two-factor POVM checks under U1⊗U2 and reversed outcome order; the Gibbs, Holevo and
concave-map checks and relative entropy under a joint conjugation; the Wehrl checks under a
z-rotation of each spin that maps its lean grid onto itself. Reversed outcome order keeps the
bits of every check whose outcome sum is one `math.fsum`, and `entropy_from_eigs` and
`shannon` keep theirs under any permutation of their values and with zeros appended."""

import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qssa.checks import (
    check_classical_mutual_info,
    check_concave_map,
    check_convexity_cl_minus_q,
    check_cpt_monotonicity,
    check_cq_chain,
    check_cqq,
    check_gibbs_variational,
    check_holevo,
    check_improved_subadd,
    check_sandwich,
    check_ssa,
    check_stronger_ssa,
)
from qssa.entropy import entropy_from_eigs, relative_entropy, shannon
from qssa.linalg import DensityMatrix, kron, kron_state, partial_trace
from qssa.measurement import KrausSet, Povm
from qssa.randgen import (random_density, random_hermitian, random_kraus, random_positive, random_povm,
                          random_unitary, rng_for)
from qssa.wehrl import base_grid_sizes, check_wehrl_convexity, check_wehrl_dominates, check_wehrl_mutual_info

# lhs and rhs moved by at most 2.7e-15 under these moves at dims 2,3,4, and 2.0e-15 at DIMS2
MOVE = 1e-12
# no two factors equal, each from 2 to 4
DIMS = st.permutations((2, 3, 4))
# two unequal factors, for the checks of a two-factor state
DIMS2 = st.sampled_from([(2, 3), (3, 2), (3, 4), (4, 3), (2, 4)])
SEED = st.integers(0, 2**32 - 1)
SETTINGS = settings(deadline=None, max_examples=25, derandomize=True)


def local_unitaries(dims, seed):
    """U1, U2, ... on the factors, and W1, W2 on the outputs of a Kraus family."""
    us = [random_unitary(d, seed, (1, f)) for f, d in enumerate(dims)]
    return us, [random_unitary(d, seed, (2, f)) for f, d in enumerate(dims[:2])]


def rotated(rho, us):
    u = functools.reduce(kron, us)
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims)


def conjugated(p, u):
    return Povm([u @ el @ u.conj().T for el in p.elements])


def rotated_kraus(k, us, ws):
    """K -> (W1⊗W2) K (U1⊗U2)† on the factors the family acts on."""
    u_in, w_out = us[0], ws[0]
    if k.acts_on == (1, 2):
        u_in, w_out = kron(u_in, us[1]), kron(w_out, ws[1])
    return KrausSet([w_out @ op @ u_in.conj().T for op in k.ops], acts_on=k.acts_on)


def gauged(k, dims, seed):
    """K_a -> (W_a⊗I) K_a, W_a a unitary on factor 1 per outcome: Tr_1 leaves every outcome block as it is."""
    ws = [np.kron(random_unitary(dims[0], seed, (3, a)), np.eye(k.dim // dims[0])) for a in range(len(k))]
    return KrausSet([w @ op for w, op in zip(ws, k.ops)], acts_on=k.acts_on)


def padded(rho):
    """rho with factor 3 embedded from d into d+1 dimensions, padded with zeros."""
    d1, d2, d3 = rho.dims
    t = np.pad(rho.mat.reshape(d1, d2, d3, d1, d2, d3), [(0, 0), (0, 0), (0, 1)] * 2)
    n = d1 * d2 * (d3 + 1)
    return DensityMatrix(t.reshape(n, n), (d1, d2, d3 + 1))


def assert_unmoved(base, *moved):
    """Each moved report, or tuple of reports like `base`, keeps base's lhs and rhs to MOVE."""
    base = base if isinstance(base, tuple) else (base,)
    for r in moved:
        for b, m in zip(base, r if isinstance(r, tuple) else (r,), strict=True):
            assert abs(m.lhs - b.lhs) <= MOVE and abs(m.rhs - b.rhs) <= MOVE, (m, b)


def assert_same(base, moved):
    """`moved`, a report or a tuple of reports like `base`, keeps base's lhs and rhs bit for bit."""
    pairs = zip(base, moved, strict=True) if isinstance(base, tuple) else [(base, moved)]
    for b, m in pairs:
        assert (m.lhs, m.rhs) == (b.lhs, b.rhs), (m, b)


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
    base = check_stronger_ssa(rho, k)
    assert_unmoved(
        base,
        check_stronger_ssa(rotated(rho, us), rotated_kraus(k, us, ws)),
        check_stronger_ssa(padded(rho), k),
        check_stronger_ssa(rho, gauged(k, dims, seed)),
    )
    assert_same(base, check_stronger_ssa(rho, KrausSet(k.ops[::-1], acts_on=acts_on)))


@SETTINGS
@given(dims=DIMS, count=st.integers(1, 4), seed=SEED)
def test_cqq_invariances(dims, count, seed):
    rho = random_density(dims, 24, seed)
    p = random_povm(dims[0], count, seed, 1)
    us, _ = local_unitaries(dims, seed)
    base = check_cqq(rho, p)
    assert_unmoved(base, check_cqq(rotated(rho, us), conjugated(p, us[0])), check_cqq(padded(rho), p))
    assert_same(base, check_cqq(rho, Povm(p.elements[::-1])))


@SETTINGS
@given(dims=DIMS, count=st.integers(1, 4), acts_on=st.sampled_from([(1,), (1, 2)]), seed=SEED)
def test_cpt_monotonicity_invariances(dims, count, acts_on, seed):
    rho = random_density(dims, 24, seed)
    k = random_kraus(math.prod(dims[: len(acts_on)]), count, seed, 1, acts_on=acts_on)
    us, ws = local_unitaries(dims, seed)
    assert_unmoved(
        check_cpt_monotonicity(rho, k),
        check_cpt_monotonicity(rotated(rho, us), rotated_kraus(k, us, ws)),
        check_cpt_monotonicity(rho, KrausSet(k.ops[::-1], acts_on=acts_on)),
        check_cpt_monotonicity(rho, gauged(k, dims, seed)),
    )


@SETTINGS
@given(dims=DIMS, count=st.integers(1, 4), seed=SEED)
def test_sandwich_invariances(dims, count, seed):
    rho = random_density(dims, 24, seed)
    k = random_kraus(dims[0], count, seed, 1)
    us, ws = local_unitaries(dims, seed)
    base = check_sandwich(rho, k)
    assert_unmoved(
        base,
        check_sandwich(rotated(rho, us), rotated_kraus(k, us, ws)),
        check_sandwich(rho, gauged(k, dims, seed)),
    )
    assert_same(base, check_sandwich(rho, KrausSet(k.ops[::-1])))


@SETTINGS
@given(dims=DIMS2, rank=st.integers(1, 12), count=st.integers(1, 4), seed=SEED)
def test_improved_subadd_invariances(dims, rank, count, seed):
    rho = random_density(dims, min(rank, math.prod(dims)), seed)
    p = random_povm(dims[0], count, seed, 1)
    us, _ = local_unitaries(dims, seed)
    base = check_improved_subadd(rho, p)
    assert_unmoved(base, check_improved_subadd(rotated(rho, us), conjugated(p, us[0])))
    assert_same(base, check_improved_subadd(rho, Povm(p.elements[::-1])))


@SETTINGS
@given(dims=DIMS2, rank=st.integers(1, 12), counts=st.tuples(st.integers(1, 4), st.integers(1, 4)), seed=SEED)
def test_two_povm_invariances(dims, rank, counts, seed):
    # the cq chain and the measured mutual information, P on factor 1 and Q on factor 2. Reversal keeps
    # the chain's first link bit for bit; its second link and the mutual information read outcome-table
    # marginals, numpy sums, which may move
    rho = random_density(dims, min(rank, math.prod(dims)), seed)
    p, q = (random_povm(d, c, seed, f) for f, (d, c) in enumerate(zip(dims, counts), 1))
    us, _ = local_unitaries(dims, seed)
    reversed_p, reversed_q = Povm(p.elements[::-1]), Povm(q.elements[::-1])
    for check in (check_cq_chain, check_classical_mutual_info):
        assert_unmoved(
            check(rho, p, q),
            check(rotated(rho, us), conjugated(p, us[0]), conjugated(q, us[1])),
            check(rho, reversed_p, reversed_q),
        )
    assert_same(check_cq_chain(rho, p, q)[0], check_cq_chain(rho, reversed_p, reversed_q)[0])


@SETTINGS
@given(dims=DIMS2, rank=st.integers(1, 12), count=st.integers(1, 4), seed=SEED)
def test_convexity_cl_minus_q_invariances(dims, rank, count, seed):
    a, b = random_density(dims, math.prod(dims), seed), random_density(dims, min(rank, math.prod(dims)), seed, 1)
    p = random_povm(dims[0], count, seed, 2)
    us, _ = local_unitaries(dims, seed)
    base = check_convexity_cl_minus_q(a, b, p)
    assert_unmoved(base, check_convexity_cl_minus_q(rotated(a, us), rotated(b, us), conjugated(p, us[0])))
    assert_same(base, check_convexity_cl_minus_q(a, b, Povm(p.elements[::-1])))


@SETTINGS
@given(dims=DIMS2, m=st.integers(1, 4), count=st.integers(1, 4), seed=SEED)
def test_holevo_invariance(dims, m, count, seed):
    # states -> U s U† with Q -> U Q U†, U a unitary on the whole space
    d = math.prod(dims)
    weights = rng_for(seed, 0).dirichlet(np.ones(m))
    states = [random_density(dims, d if j % 2 == 0 else 1, seed, (1, j)) for j in range(m)]
    q, u = random_povm(d, count, seed, 2), random_unitary(d, seed, 3)
    moved = [DensityMatrix(u @ s.mat @ u.conj().T, dims) for s in states]
    assert_unmoved(check_holevo(weights, states, q), check_holevo(weights, moved, conjugated(q, u)))


@SETTINGS
@given(dims=DIMS, rank=st.integers(1, 24), seed=SEED)
def test_gibbs_variational_invariance(dims, rank, seed):
    # rho -> U rho U† with H -> U H U†, U a unitary on the whole space
    rho, h, u = random_density(dims, rank, seed), random_hermitian(24, seed, 1), random_unitary(24, seed, 2)
    moved = DensityMatrix(u @ rho.mat @ u.conj().T, dims)
    assert_unmoved(check_gibbs_variational(rho, h), check_gibbs_variational(moved, u @ h @ u.conj().T))


@SETTINGS
@given(dims=DIMS, rank=st.integers(1, 24), seed=SEED)
def test_relative_entropy_invariance(dims, rank, seed):
    # H(U rho U†, U sigma U†) = H(rho, sigma): U on the whole space for a plain sigma, and
    # U1⊗U2⊗U3 for a kron_state sigma, whose factors are conjugated to match. The rounding
    # of -Tr rho ln sigma grows as 1/lambda_min(sigma) (a random full-rank sigma with
    # lambda_min = 8.9e-7 moved by 3.5e-12), so sigma is mixed with I/24: lambda_min >= 1/48
    rho = random_density(dims, rank, seed)
    sigma = DensityMatrix((random_density(dims, 24, seed, 1).mat + np.eye(24) / 24) / 2, dims)
    u = random_unitary(24, seed, 2)
    moved = relative_entropy(DensityMatrix(u @ rho.mat @ u.conj().T, dims),
                             DensityMatrix(u @ sigma.mat @ u.conj().T, dims))
    assert abs(moved - relative_entropy(rho, sigma)) <= MOVE
    us, _ = local_unitaries(dims, seed)
    u12 = kron(us[0], us[1])
    product = kron_state(partial_trace(sigma, {1, 2}), partial_trace(sigma, {3}))
    moved_product = kron_state(DensityMatrix(u12 @ partial_trace(sigma, {1, 2}).mat @ u12.conj().T, dims[:2]),
                               DensityMatrix(us[2] @ partial_trace(sigma, {3}).mat @ us[2].conj().T, dims[2:]))
    assert abs(relative_entropy(rotated(rho, us), moved_product) - relative_entropy(rho, product)) <= MOVE


@SETTINGS
@given(dim=st.integers(2, 4), m=st.integers(1, 3), sub_complete=st.booleans(), seed=SEED)
def test_concave_map_invariance(dim, m, sub_complete, seed):
    # L, K, A and B all conjugated by one U: the exponent becomes U (L + sum K†(ln A)K) U†. Values
    # reach ~120 here, so the move is taken relative to max(1, |value|): at most 4.9e-15 over 300
    # suite-like instances, 3.7e-13 absolute
    l_op, u = random_hermitian(dim, seed, 0), random_unitary(dim, seed, 1)
    ops = [op * (np.sqrt(0.9) if sub_complete else 1.0) for op in random_kraus(dim, m, seed, 2).ops]
    a, b = ([random_positive(dim, seed, (side, j)) for j in range(m)] for side in (3, 4))
    def conj(xs):
        return [u @ x @ u.conj().T for x in xs]

    base, moved = check_concave_map(l_op, ops, a, b), check_concave_map(u @ l_op @ u.conj().T, *map(conj, (ops, a, b)))
    for x, y in ((base.lhs, moved.lhs), (base.rhs, moved.rhs)):
        assert abs(x - y) <= MOVE * max(1.0, abs(x)), (base, moved)


@SETTINGS
@given(n=st.integers(1, 64), zeros=st.integers(0, 8), seed=SEED)
def test_entropy_keeps_its_bits_under_permutation_and_zero_padding(n, zeros, seed):
    # one math.fsum over the kept values: the entropy is a function of their multiset
    rng = rng_for(seed, 0)
    p = rng.dirichlet(np.ones(n))
    moved = rng.permutation(np.concatenate([p, np.zeros(zeros)]))
    for entropy in (entropy_from_eigs, shannon):
        assert entropy(moved) == entropy(p), (p, moved)


def z_rotated(rho, steps):
    """rho under exp(-i alpha_f J_z) on each spin f, alpha_f = 2 pi steps[f] / n_phi of its lean grid: the
    Husimi function moves by alpha_f in phi, which maps the lean grid onto itself."""
    phases = [np.exp(-2j * np.pi * s * np.arange(d) / base_grid_sizes(d - 1)[1]) for d, s in zip(rho.dims, steps)]
    diag = functools.reduce(np.kron, phases)
    return DensityMatrix(diag[:, None] * rho.mat * diag.conj(), rho.dims)


@SETTINGS
@given(dims=st.tuples(st.integers(1, 5), st.integers(1, 5)), rank=st.integers(1, 25),
       steps=st.tuples(st.integers(1, 13), st.integers(1, 13)), seed=SEED)
def test_wehrl_invariances(dims, rank, steps, seed):
    rho12 = random_density(dims, min(rank, math.prod(dims)), seed)
    a, b = random_density(dims[:1], dims[0], seed, 1), random_density(dims[:1], 1, seed, 2)
    moved12 = z_rotated(rho12, steps)
    for check in (check_wehrl_dominates, check_wehrl_mutual_info):
        assert_unmoved(check(rho12), check(moved12))
    assert_unmoved(check_wehrl_convexity(a, b), check_wehrl_convexity(z_rotated(a, steps), z_rotated(b, steps)))
