"""Coherent states, sphere quadrature, and phase-space entropy bounds."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qssa.checks
import qssa.linalg
import qssa.wehrl
from qssa.checks import check_convexity_cl_minus_q
from qssa.entropy import von_neumann
from qssa.linalg import CLAMP_REL, DensityMatrix, kron_state
from qssa.randgen import random_density, random_povm, rng_for
from qssa.wehrl import (
    MAX_TWO_J,
    BlochGrid,
    _basis_coords,
    _theta_factors,
    base_grid_sizes,
    check_wehrl_convexity,
    check_wehrl_dominates,
    check_wehrl_mutual_info,
    coherent_wehrl_value,
    husimi,
    make_grid,
    require_two_j,
    resolution_residual,
    wehrl_entropy,
    wehrl_min_scan,
)

from test_linalg import forbid_eigensolves, traced_peak


def bloch_state(two_j, theta, phi):
    """Coherent unit vector at sphere direction (theta, phi), one row per direction if they are
    arrays: entry k = j - m is sqrt(C(2j,k)) cos^(2j-k)(theta/2) sin^k(theta/2) e^{-ik phi}, in
    BlochGrid's operation order."""
    k = np.arange(two_j + 1)
    half = np.asarray(theta)[..., None] / 2
    amps = np.sqrt([float(math.comb(two_j, kk)) for kk in k]) * np.cos(half) ** (two_j - k) * np.sin(half) ** k
    return amps * np.exp(-1j * (np.asarray(phi)[..., None] * k))


def grid_states(grid):
    """bloch_state at every node of the grid, (nodes, d), in node order."""
    return bloch_state(grid.two_j, *grid.nodes.T)


def coherent_density(two_j, theta, phi):
    v = bloch_state(two_j, theta, phi)
    return DensityMatrix(np.outer(v, v.conj()), (two_j + 1,))


def trig_basis(d):
    """The orthonormal Hermitian basis, (d^2, d, d), in trig-grouped order: the
    units |b><b|, then (|b><c| + |c><b|)/sqrt2 and then i(|c><b| - |b><c|)/sqrt2
    over the pairs b < c ordered by c - b, then b."""
    unit = np.eye(d)
    pairs = [(b, b + m) for m in range(1, d) for b in range(d - m)]
    cos = [(np.outer(unit[b], unit[c]) + np.outer(unit[c], unit[b])) / math.sqrt(2) for b, c in pairs]
    sin = [1j * (np.outer(unit[c], unit[b]) - np.outer(unit[b], unit[c])) / math.sqrt(2) for b, c in pairs]
    return np.array([np.outer(u, u) for u in unit] + cos + sin, dtype=complex).reshape(-1, d, d)


def husimi_oracle(rho, grids):
    """<Omega|rho|Omega> per node as a direct complex contraction of bloch_state vectors."""
    if len(grids) == 1:
        v = grid_states(grids[0])
        return np.einsum("na,ab,nb->n", v.conj(), rho.mat, v, optimize=True).real
    u, v = map(grid_states, grids)
    d1, d2 = rho.dims
    t = rho.mat.reshape(d1, d2, d1, d2)
    return np.einsum("ia,kb,abcd,ic,kd->ik", u.conj(), v.conj(), t, u, v, optimize=True).real.ravel()


def node_weights(grids):
    """Joint weight per node of the product grid, in husimi's C order (first factor outer)."""
    return functools.reduce(np.multiply.outer, [g.weights for g in grids]).ravel()


def corrupt_husimi(monkeypatch, kind, size=1e-9):
    """Patch `qssa.wehrl._husimi_blocks`, the Husimi values `wehrl_entropy` reads, so their least
    value becomes -size ("node") or they are scaled by 1 + size, moving a unit mass by size ("mass")."""
    real = qssa.wehrl._husimi_blocks

    def patched(rho, grids):
        blocks = [(nodes, h.copy()) for nodes, h in real(rho, grids)]  # each h reuses one buffer
        if kind == "node":
            h = min((h for _, h in blocks), key=np.min)
            h.flat[np.argmin(h)] = -size
        for nodes, h in blocks:
            if kind == "mass":
                h *= 1 + size
            yield nodes, h

    monkeypatch.setattr(qssa.wehrl, "_husimi_blocks", patched)


def wehrl_oracle(rho, grids, floor=CLAMP_REL):
    """-sum of w h ln h over the nodes with h >= floor * max(1, max h), on joint weights."""
    h, w = husimi_oracle(rho, grids), node_weights(grids)
    mask = h >= floor * max(1.0, h.max())
    return float(-np.sum(w[mask] * h[mask] * np.log(h[mask])))


def assert_matches_oracle(two_js, lean, full_rank):
    """husimi and wehrl_entropy against the oracles, on lean or default grids."""
    dims = tuple(j + 1 for j in two_js)
    rho = random_density(dims, math.prod(dims) if full_rank else 1, sum(two_js), substream=105)
    grids = tuple(make_grid(j, *(base_grid_sizes(j) if lean else ())) for j in two_js)
    assert np.abs(husimi(rho, grids) - husimi_oracle(rho, grids)).max() <= 1e-14
    ref = wehrl_oracle(rho, grids)
    assert abs(wehrl_entropy(rho, grids) - ref) <= 1e-14 * abs(ref)


class TestBlochState:
    def test_north_pole(self):
        v = bloch_state(4, 0.0, 0.3)
        expect = np.zeros(5)
        expect[0] = 1.0
        assert np.abs(v - expect).max() < 1e-14

    def test_south_pole(self):
        v = bloch_state(4, math.pi, 0.7)
        assert abs(abs(v[-1]) - 1.0) < 1e-14
        assert np.abs(v[:-1]).max() < 1e-14

    def test_unit_norm(self):
        rng = rng_for(1)
        for two_j in (1, 3, 8):
            for _ in range(5):
                th = math.acos(rng.uniform(-1, 1))
                ph = rng.uniform(0, 2 * math.pi)
                v = bloch_state(two_j, th, ph)
                assert abs(np.linalg.norm(v) - 1.0) < 1e-13

    def test_overlap_law(self):
        # |<a|b>|^2 = cos(gamma/2)^(4j) with gamma the angle between directions
        rng = rng_for(2)
        for two_j in (1, 2, 5):
            for _ in range(5):
                t1, t2 = np.arccos(rng.uniform(-1, 1, 2))
                p1, p2 = rng.uniform(0, 2 * math.pi, 2)
                a = bloch_state(two_j, t1, p1)
                b = bloch_state(two_j, t2, p2)
                cos_gamma = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
                expect = ((1 + cos_gamma) / 2) ** two_j
                assert abs(abs(np.vdot(a, b)) ** 2 - expect) < 1e-12


class TestGrid:
    def test_two_j_zero(self):
        g = make_grid(0)
        assert resolution_residual(g) < 1e-14

    def test_two_j_one(self):
        assert resolution_residual(make_grid(1)) <= 1e-14

    @pytest.mark.parametrize("two_j", [10, 68, 100])
    def test_two_j_resolves(self, two_j):
        # from 2j = 68 on, C(2j, k) no longer fits in an int64
        assert resolution_residual(make_grid(two_j)) <= 1e-12

    def test_minimal_sizes_still_resolve(self):
        g = make_grid(6, n_theta=7, n_phi=14)  # two_j + 1, 2 two_j + 2
        assert resolution_residual(g) <= 1e-12

    def test_repr(self):
        assert repr(make_grid(2, n_theta=3, n_phi=6)) == "BlochGrid(two_j=2, nodes=18)"

    def test_rejects_three_factors_before_any_eigensolve(self, monkeypatch):
        rho = random_density((2, 2, 2), 8, 111)
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="one or two spin factors"):
            husimi(rho, None)

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_a_grid_per_factor_mismatch_before_any_eigensolve(self, monkeypatch, count):
        rho = random_density((2, 2), 4, 112)
        grids = (make_grid(1),) * count
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=f"{count} grids for 2 factors"):
            wehrl_entropy(rho, grids)

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError):
            make_grid(4, n_theta=4)
        with pytest.raises(ValueError):
            make_grid(4, n_phi=9)

    def test_rejects_negative_two_j(self):
        with pytest.raises(ValueError, match="two_j must be >= 0"):
            make_grid(-1)

    def test_two_j_is_an_integer(self):
        with pytest.raises(ValueError, match="expected an integer, got 1.5"):
            make_grid(1.5)
        assert require_two_j(np.float64(4.0)) == 4 and type(require_two_j(4.0)) is int
        assert make_grid(4.0).two_j == 4 and type(make_grid(4.0).two_j) is int

    @pytest.mark.parametrize("sizes", [(5.5,), (None, 6.5)], ids=["n_theta", "n_phi"])
    def test_grid_sizes_are_integers(self, sizes):
        with pytest.raises(ValueError, match="expected an integer"):
            make_grid(2, *sizes)

    def test_integral_float_sizes_build_the_int_grid(self):
        a, b = make_grid(2, 5.0, 6.0), make_grid(2, 5, 6)
        assert a.nodes.tobytes() == b.nodes.tobytes() and a.weights.tobytes() == b.weights.tobytes()

    def test_rejects_two_j_above_float_binomials(self, monkeypatch):
        def never(n):
            raise AssertionError("nodes computed")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", never)
        with pytest.raises(ValueError, match=f"<= {MAX_TWO_J}, got {MAX_TWO_J + 1}"):
            make_grid(MAX_TWO_J + 1)

    def test_max_two_j_is_the_float_binomial_limit(self):
        require_two_j(MAX_TWO_J)  # nothing is built
        assert math.isfinite(float(math.comb(MAX_TWO_J, MAX_TWO_J // 2)))
        with pytest.raises(OverflowError):
            float(math.comb(MAX_TWO_J + 1, (MAX_TWO_J + 1) // 2))

    @pytest.mark.parametrize("two_j", [0, 1, 2, 5, 16, 40])
    @pytest.mark.parametrize("lean", [False, True])
    def test_states_are_bloch_states(self, two_j, lean):
        # node i * n_phi + p's vector amps[i, k] (cos k phi_p - i sin k phi_p), read from the
        # grid's amplitudes and tau, is bloch_state at that node
        g = make_grid(two_j, *(base_grid_sizes(two_j) if lean else ()))
        d, n_phi = two_j + 1, len(g.phis)
        sin = np.hstack([np.zeros((n_phi, 1)), g.phi_factors[:, d:]])
        states = (g.amps[:, None, :] * (g.phi_factors[:, :d] - 1j * sin)).reshape(-1, d)
        for (theta, phi), state in zip(g.nodes, states):
            assert np.array_equal(state, bloch_state(two_j, theta, phi))

    @pytest.mark.parametrize("two_j", [0, 1, 3, 16, 40])
    def test_residual_matches_dense_sum(self, two_j):
        # on make_grid's grid and on a random product grid that resolves nothing, the factored
        # residual agrees with max |sum_n w_n |Omega_n><Omega_n| - I| summed node by node
        rng = rng_for(two_j, (111,))
        n_theta, n_phi = base_grid_sizes(two_j)
        for g in (make_grid(two_j),
                  BlochGrid(two_j, rng.uniform(0, math.pi, n_theta), rng.uniform(0, 2 * math.pi, n_phi),
                            rng.uniform(0.5, 1.5, n_theta) / n_phi)):
            v = grid_states(g)
            dense = np.abs((v.conj().T * g.weights) @ v - np.eye(two_j + 1)).max()
            assert abs(resolution_residual(g) - dense) <= 1e-14 * max(1.0, dense)

    def test_large_spin_grid_and_entropy_stay_small(self):
        # a grid holds O(n_theta d + n_phi d) numbers and one-spin Husimi values need no
        # node x dim table: at 2j = 128, (n_theta n_phi) x d complex vectors alone are 70 MB
        rho = random_density((129,), 129, 112)
        tracemalloc.start()
        try:
            assert math.isfinite(wehrl_entropy(rho, (make_grid(128),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_two_spin_entropy_streams_its_husimi_values(self):
        # wehrl_entropy reads the Husimi values in blocks of theta1 rows: at 2j = 32 on the
        # lean grids the 2448^2 product-grid values alone would be 48 MB
        a, b = (random_density((33,), 33, 114, k) for k in range(2))
        rho, grid = kron_state(a, b), make_grid(32, *base_grid_sizes(32))
        tracemalloc.start()
        try:
            assert math.isfinite(wehrl_entropy(rho, (grid, grid)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_weights_sum_to_dim(self):
        for two_j in (1, 5, 12):
            g = make_grid(two_j)
            assert abs(g.weights.sum() - (two_j + 1)) < 1e-10


class TestWehrlEntropy:
    def test_maximally_mixed_equals_vn(self):
        for two_j in (1, 2, 6):
            d = two_j + 1
            rho = DensityMatrix(np.eye(d) / d, (d,))
            sw = wehrl_entropy(rho, (make_grid(two_j),))
            assert abs(sw - math.log(d)) < 1e-8
            assert abs(sw - von_neumann(rho)) < 1e-8

    @pytest.mark.parametrize("two_j", [1, 2, 3, 6])
    def test_coherent_analytic_value(self, two_j):
        rho = coherent_density(two_j, 0.9, 2.1)
        assert abs(wehrl_entropy(rho, (make_grid(two_j),)) - coherent_wehrl_value(two_j)) < 1e-6

    def test_dominates_von_neumann(self):
        grids = (make_grid(3, *base_grid_sizes(3)),)
        for seed in range(10):
            rho = random_density((4,), 4 if seed % 2 else 1, seed, substream=90)
            assert wehrl_entropy(rho, grids=grids) >= von_neumann(rho) - 1e-8

    def test_husimi_mass(self):
        rho = random_density((3,), 3, 91)
        grid = make_grid(2)
        h = husimi(rho, (grid,))
        assert abs(float(grid.weights @ h) - 1.0) < 1e-10
        assert h.min() > -1e-12

    def test_bipartite_husimi_mass(self):
        rho = random_density((2, 2), 4, 92)
        grids = tuple(make_grid(1, *base_grid_sizes(1)) for _ in range(2))
        h = husimi(rho, grids)
        assert abs(float(node_weights(grids) @ h) - 1.0) < 1e-10

    def test_grid_refinement_stable(self):
        for two_j in (1, 4, 10):
            rho = coherent_density(two_j, 1.1, 0.4)
            g1 = make_grid(two_j)
            n_t, n_p = len(set(g1.nodes[:, 0])), len(set(g1.nodes[:, 1]))
            g2 = make_grid(two_j, 2 * n_t, 2 * n_p)
            assert abs(wehrl_entropy(rho, (g1,)) - wehrl_entropy(rho, (g2,))) <= 1e-6
            mixed = random_density((two_j + 1,), two_j + 1, two_j, substream=93)
            assert abs(wehrl_entropy(mixed, (g1,)) - wehrl_entropy(mixed, (g2,))) <= 1e-6

    def test_rotation_invariance_about_z(self):
        rho = random_density((4,), 4, 94)
        grids = (make_grid(3),)
        for chi in (0.37, math.pi / 5):
            u = np.diag(np.exp(-1j * chi * np.arange(4)))
            rot = DensityMatrix(u @ rho.mat @ u.conj().T, (4,))
            assert abs(wehrl_entropy(rot, grids) - wehrl_entropy(rho, grids)) < 2e-6

    def test_rotation_by_grid_multiple_is_exact(self):
        # the phi grid is uniform, so rotating by a grid step permutes nodes
        rho = random_density((4,), 4, 94)
        g = make_grid(3)
        n_phi = len(set(g.nodes[:, 1].tolist()))
        chi = 2 * math.pi / n_phi
        u = np.diag(np.exp(-1j * chi * np.arange(4)))
        rot = DensityMatrix(u @ rho.mat @ u.conj().T, (4,))
        assert abs(wehrl_entropy(rot, (g,)) - wehrl_entropy(rho, (g,))) < 1e-12

    def test_dimension_mismatch(self):
        rho = random_density((3,), 3, 95)
        with pytest.raises(ValueError):
            wehrl_entropy(rho, (make_grid(1),))

    @pytest.mark.parametrize("fn", [wehrl_entropy, husimi])
    def test_bare_grid_is_not_one_factor(self, fn):
        # grids is always one grid per factor; a lone BlochGrid is not a sequence
        rho = random_density((3,), 3, 95)
        with pytest.raises(TypeError):
            fn(rho, make_grid(2))


GUARDS = [("node", "below"), ("mass", "disagrees with trace")]


class TestHusimiGuard:
    """wehrl_entropy rejects Husimi values below -CLAMP_REL or whose weighted mass misses
    Tr rho by more than 1e-10, so every S_W the checks and the scan read is guarded."""

    @pytest.mark.parametrize("kind, message", GUARDS)
    @pytest.mark.parametrize("dims", [(3,), (2, 3)])
    def test_wehrl_entropy_raises(self, monkeypatch, kind, message, dims):
        rho = random_density(dims, math.prod(dims), 109)
        grids = tuple(make_grid(d - 1) for d in dims)
        corrupt_husimi(monkeypatch, kind)
        with pytest.raises(RuntimeError, match=message):
            wehrl_entropy(rho, grids)

    @pytest.mark.parametrize("kind, message", GUARDS)
    def test_dominates_check_raises(self, monkeypatch, kind, message):
        rho = random_density((2, 2), 4, 110)
        corrupt_husimi(monkeypatch, kind)
        with pytest.raises(RuntimeError, match=message):
            check_wehrl_dominates(rho)

    @pytest.mark.parametrize("kind, message", GUARDS)
    def test_min_scan_raises(self, monkeypatch, kind, message):
        corrupt_husimi(monkeypatch, kind)
        with pytest.raises(RuntimeError, match=message):
            wehrl_min_scan(2, 3, 0)

    @pytest.mark.parametrize("kind, size", [("node", CLAMP_REL / 2), ("mass", 5e-11)])
    @pytest.mark.parametrize("two_js", [(16,), (16, 3)])
    def test_within_bounds_passes(self, monkeypatch, kind, size, two_js):
        # the bounds are -CLAMP_REL per node and 1e-10 on the mass, no tighter; the
        # north-pole state nearly vanishes at its least node, so moving that node
        # leaves the mass in bounds
        v = functools.reduce(np.kron, [bloch_state(j, 0.0, 0.0) for j in two_js])
        rho = DensityMatrix(np.outer(v, v.conj()), tuple(j + 1 for j in two_js))
        grids = tuple(make_grid(j) for j in two_js)
        corrupt_husimi(monkeypatch, kind, size)
        assert math.isfinite(wehrl_entropy(rho, grids))


class TestHusimiKernel:
    @pytest.mark.parametrize("two_js", [(0,), (3,), (0, 0), (0, 3), (1, 2), (2, 5), (4, 4), (7, 3)])
    @pytest.mark.parametrize("lean", [False, True])
    @pytest.mark.parametrize("full_rank", [False, True])
    def test_matches_oracle(self, two_js, lean, full_rank):
        assert_matches_oracle(two_js, lean, full_rank)

    @pytest.mark.parametrize("two_js, lean", [((16, 16), True), ((12, 5), False)])
    @pytest.mark.parametrize("full_rank", [False, True])
    def test_matches_oracle_at_scale(self, two_js, lean, full_rank):
        # the wehrl-spin size on its lean grids, and unequal spins on the 3072-node default grids
        assert_matches_oracle(two_js, lean, full_rank)

    @pytest.mark.parametrize("two_js", [(0, 0), (1, 2), (4, 3)])
    def test_trig_basis_identity(self, two_js):
        # R[mu, nu] = Tr rho (E_mu x E_nu), and G[i, mu] tau[p, s] = <s|E_mu|s> on
        # node i * n_phi + p, with E in the trig-grouped order built from its definition
        dims = tuple(j + 1 for j in two_js)
        rho = random_density(dims, math.prod(dims), 106)
        grids = tuple(make_grid(j, *base_grid_sizes(j)) for j in two_js)
        e1, e2 = (trig_basis(d) for d in dims)
        dense = np.einsum("xyuv,mux,nvy->mn", rho.mat.reshape(*dims, *dims), e1, e2).real
        assert np.abs(_basis_coords(rho) - dense).max() <= 1e-15
        for g, e in zip(grids, (e1, e2)):
            v = grid_states(g)
            direct = np.einsum("na,mab,nb->nm", v.conj(), e, v).real
            factors, groups = _theta_factors(g.amps)
            group = np.zeros(len(e), dtype=int)
            for k, sl in enumerate(groups):
                group[sl] = k
            factored = np.hstack(factors)[:, None, :] * g.phi_factors[None, :, group]
            assert np.abs(factored.reshape(len(g), -1) - direct).max() <= 1e-15

    def test_basis_coords_have_the_bytes_of_the_block_formula(self):
        # R's four blocks are written in place; np.block of Re/Im of x +- y is the reference. The
        # maximally mixed state has x = y = 0 off the diagonal, where -(x - y) is -0.0, not y - x = +0.0
        for (d1, d2), full_rank in itertools.product(itertools.product(range(1, 13), repeat=2), (True, False)):
            rho = (random_density((d1, d2), d1 * d2, d1 * 13 + d2) if full_rank
                   else DensityMatrix(np.eye(d1 * d2) / (d1 * d2), (d1, d2)))
            t = rho.mat.reshape(d1, d2, d1, d2)
            (b1, c1), (b2, c2) = (np.array([(b, b + m) for m in range(d) for b in range(d - m)]).T for d in (d1, d2))
            x, y = t[c1[:, None], c2, b1[:, None], b2], t[c1[:, None], b2, b1[:, None], c2]
            plus, minus = x + y, x - y
            r = np.block([[plus.real, minus.imag[:, d2:]], [plus.imag[d1:], -minus.real[d1:, d2:]]])
            r[:d1, :d2] /= 2
            r[:d1, d2:] /= np.sqrt(2.0)
            r[d1:, :d2] /= np.sqrt(2.0)
            assert _basis_coords(rho).tobytes() == r.tobytes(), (d1, d2)

    def test_basis_coords_hold_the_two_gathers_besides_r(self):
        # at 17 x 17 each gather of rho's entries is 0.56x R's bytes; no sum, difference or np.block copy
        rho = random_density((17, 17), 289, 109)
        peak = traced_peak(lambda: _basis_coords(rho))
        assert peak < 3 * 289 * 289 * 8, f"peak {peak / (289 * 289 * 8):.2f}x R's bytes"

    @pytest.mark.parametrize("two_js", [(0, 4), (3, 3), (6, 2)])
    def test_product_state_is_outer_product(self, two_js):
        dims = tuple(j + 1 for j in two_js)
        a, b = (random_density((d,), d, 107, k) for k, d in enumerate(dims))
        grids = tuple(make_grid(j, *base_grid_sizes(j)) for j in two_js)
        joint = husimi(DensityMatrix(np.kron(a.mat, b.mat), dims), grids)
        outer = np.outer(husimi(a, grids[:1]), husimi(b, grids[1:])).ravel()
        assert np.abs(joint - outer).max() <= 1e-15

    @pytest.mark.parametrize("two_js", [(1,), (16,), (2, 3), (16, 16)])
    def test_entropy_has_the_bits_of_the_product_form(self, two_js):
        # the in-place, blockwise h ln h gives the bits of h * log(h) on a fresh array
        dims = tuple(j + 1 for j in two_js)
        rho = random_density(dims, math.prod(dims), 108)
        grids = tuple(make_grid(j, *base_grid_sizes(j)) for j in two_js)
        h = np.ascontiguousarray(husimi(rho, grids)).reshape([len(g) for g in grids])
        x = h * np.log(h, out=np.zeros_like(h), where=h >= qssa.linalg.clamp_threshold(h))
        for g in reversed(grids):
            x = x @ g.weights
        assert wehrl_entropy(rho, grids) == float(-x)

    @pytest.mark.parametrize("two_js", [(16,), (8, 3)])
    @pytest.mark.parametrize("floor", [CLAMP_REL, 1e-3])
    def test_nodes_below_floor_contribute_nothing(self, two_js, floor, monkeypatch):
        # a north-pole coherent state nearly vanishes at the antipodal nodes;
        # the raised floor drops enough of them to move the value visibly
        monkeypatch.setattr(qssa.linalg, "CLAMP_REL", floor)
        v = bloch_state(two_js[0], 0.0, 0.0)
        for j in two_js[1:]:
            v = np.kron(v, bloch_state(j, 0.0, 0.0))
        rho = DensityMatrix(np.outer(v, v.conj()), tuple(j + 1 for j in two_js))
        grids = tuple(make_grid(j) for j in two_js)
        assert (husimi_oracle(rho, grids) < CLAMP_REL).any()
        ref = wehrl_oracle(rho, grids, floor)
        assert abs(wehrl_entropy(rho, grids) - ref) <= 1e-14 * ref


class TestWehrlChecks:
    def test_mutual_info_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        r = check_wehrl_mutual_info(rho)
        assert abs(r.lhs) < 1e-8 and abs(r.rhs) < 1e-8

    def test_mutual_info_product(self):
        a = random_density((2,), 2, 96)
        b = random_density((2,), 2, 97)
        rho = DensityMatrix(np.kron(a.mat, b.mat), (2, 2))
        assert check_wehrl_mutual_info(rho).slack >= -1e-8

    def test_mutual_info_random(self):
        for seed in range(5):
            rho = random_density((2, 2), 4, seed, substream=98)
            assert check_wehrl_mutual_info(rho).passed

    def test_dominates_report(self):
        rho = random_density((2, 2), 2, 99)
        r = check_wehrl_dominates(rho)
        assert r.passed and r.slack >= -1e-8

    @pytest.mark.parametrize("two_j", [8, 16])
    def test_dominates_at_its_equality_case(self, two_j):
        # a product of two coherent states is pure (S = 0) and its Wehrl entropy is the sum of the
        # factors', 2 * 2j/(2j+1), which the base grid reproduces to 1.7e-10 here. At 2j = 4 it is off
        # by up to 2.6e-7 at these angles, so 2j = 4 is left out
        for a, b in (((1.2, 0.0), (0.7, 2.5)), ((0.4, 3.9), (2.8, 1.1)), ((2.2, 5.3), (1.6, 0.2)),
                     ((0.0, 0.0), (3.0, 4.4))):
            r = check_wehrl_dominates(kron_state(coherent_density(two_j, *a), coherent_density(two_j, *b)))
            assert abs(r.lhs) <= 1e-12, (a, b, r.lhs)
            assert abs(r.rhs - 2 * coherent_wehrl_value(two_j)) <= 1e-9, (a, b, r.rhs)

    def test_convexity_equal_args(self):
        a = random_density((3,), 3, 100)
        assert abs(check_wehrl_convexity(a, a).slack) < 1e-10

    def test_convexity_endpoints(self, monkeypatch):
        # both convexity checks read the one scan's lambdas; at 0 and 1 the mixture is an endpoint
        monkeypatch.setattr(qssa.checks, "DEFAULT_LAMBDAS", (0.0, 1.0))
        a = random_density((3,), 3, 101)
        b = random_density((3,), 1, 102)
        a12 = random_density((2, 2), 4, 67)
        b12 = random_density((2, 2), 2, 68)
        p = random_povm(2, 3, 69)
        for r in (check_wehrl_convexity(a, b), check_convexity_cl_minus_q(a12, b12, p)):
            assert abs(r.slack) < 1e-10

    def test_convexity_rejects_unequal_dims_before_any_eigensolve(self, monkeypatch):
        # the lean grids' Gauss-Legendre nodes come from an eigensolve, so the dims are checked first
        a, b = random_density((2,), 2, 105), random_density((3,), 3, 106)
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=r"dimension mismatch: \(2,\) vs \(3,\)"):
            check_wehrl_convexity(a, b)

    def test_convexity_random(self):
        for seed in range(5):
            a = random_density((3,), 3, seed, substream=103)
            b = random_density((3,), 2, seed, substream=104)
            assert check_wehrl_convexity(a, b).slack >= -1e-8


class TestWehrlScan:
    def test_spin_half_all_coherent(self):
        scan = wehrl_min_scan(1, 20, 5)
        for row in scan["rows"]:
            assert abs(row["S_W"] - 0.5) < 1e-6
        assert abs(scan["summary"]["coherent_value"] - 0.5) < 1e-15

    def test_coherent_input_matches_analytic(self):
        rho = coherent_density(6, 2.2, 4.4)
        assert abs(wehrl_entropy(rho, (make_grid(6),)) - coherent_wehrl_value(6)) < 1e-6

    def test_replay(self):
        a = wehrl_min_scan(4, 10, 7)
        b = wehrl_min_scan(4, 10, 7)
        assert (a["rows"], a["summary"]) == (b["rows"], b["summary"])
        assert np.array_equal(grid_states(a["grid"]), grid_states(b["grid"]))
        assert np.array_equal(a["grid"].weights, b["grid"].weights)
        assert np.array_equal(a["best"].mat, b["best"].mat)

    def test_integral_floats_scan_as_ints(self):
        a, b = wehrl_min_scan(2, 3, 5), wehrl_min_scan(2.0, 3.0, 5.0)
        assert (a["rows"], a["summary"]) == (b["rows"], b["summary"])
        assert [type(b["rows"][0][k]) for k in ("seed", "two_j")] == [int, int]
        with pytest.raises(ValueError, match="expected an integer"):
            wehrl_min_scan(2, 3, 5.5)

    def test_scan_reports_margin(self):
        scan = wehrl_min_scan(2, 50, 11)
        s = scan["summary"]
        assert s["min_S_W"] >= s["coherent_value"] - 1e-6
        assert s["min_is_at_least_coherent"]
        assert s["resolution_residual"] <= 1e-12
