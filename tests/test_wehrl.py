"""Coherent states, sphere quadrature, and phase-space entropy bounds."""

import math

import numpy as np
import pytest

import qssa.linalg
from qssa.entropy import von_neumann
from qssa.linalg import CLAMP_REL, DensityMatrix
from qssa.randgen import random_density, rng_for
from qssa.wehrl import (
    _coherent_states,
    _hermitian_coords,
    _hermitian_features,
    base_grid_sizes,
    check_wehrl_convexity,
    check_wehrl_dominates,
    check_wehrl_mutual_info,
    coherent_wehrl_value,
    husimi,
    husimi_field,
    joint_weights,
    make_grid,
    resolution_residual,
    wehrl_entropy,
    wehrl_min_scan,
)


def bloch_state(two_j, theta, phi):
    """Coherent unit vector at sphere direction (theta, phi)."""
    return _coherent_states(two_j, [theta], [phi])[0]


def coherent_density(two_j, theta, phi):
    v = bloch_state(two_j, theta, phi)
    return DensityMatrix(np.outer(v, v.conj()), (two_j + 1,))


def husimi_oracle(rho, grids):
    """<Omega|rho|Omega> per node as a direct complex contraction."""
    if len(grids) == 1:
        v = grids[0].states
        return np.einsum("na,ab,nb->n", v.conj(), rho.mat, v, optimize=True).real
    u, v = grids[0].states, grids[1].states
    d1, d2 = rho.dims
    t = rho.mat.reshape(d1, d2, d1, d2)
    return np.einsum("ia,kb,abcd,ic,kd->ik", u.conj(), v.conj(), t, u, v, optimize=True).real.ravel()


def wehrl_oracle(rho, grids, floor=CLAMP_REL):
    """-sum of w h ln h over the nodes with h >= floor * max(1, max h), on joint weights."""
    h, w = husimi_oracle(rho, grids), joint_weights(grids)
    mask = h >= floor * max(1.0, h.max())
    return float(-np.sum(w[mask] * h[mask] * np.log(h[mask])))


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

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError):
            make_grid(4, n_theta=4)
        with pytest.raises(ValueError):
            make_grid(4, n_phi=9)

    def test_rejects_negative_two_j(self):
        with pytest.raises(ValueError, match="two_j must be >= 0"):
            make_grid(-1)

    @pytest.mark.parametrize("two_j", [0, 1, 2, 5, 16, 40])
    @pytest.mark.parametrize("lean", [False, True])
    def test_states_are_bloch_states(self, two_j, lean):
        g = make_grid(two_j, *(base_grid_sizes(two_j) if lean else ()))
        for (theta, phi), state in zip(g.nodes, g.states):
            assert np.array_equal(state, bloch_state(two_j, theta, phi))

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
        h, w = husimi_field(rho, (make_grid(2),))
        assert abs(float(w @ h) - 1.0) < 1e-10
        assert h.min() > -1e-12

    def test_bipartite_husimi_mass(self):
        rho = random_density((2, 2), 4, 92)
        grids = tuple(make_grid(1, *base_grid_sizes(1)) for _ in range(2))
        h = husimi(rho, grids)
        w = joint_weights(grids)
        assert abs(float(w @ h) - 1.0) < 1e-10

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


class TestHusimiKernel:
    @pytest.mark.parametrize("two_js", [(0,), (3,), (0, 0), (0, 3), (1, 2), (2, 5), (4, 4), (7, 3)])
    @pytest.mark.parametrize("lean", [False, True])
    @pytest.mark.parametrize("full_rank", [False, True])
    def test_matches_oracle(self, two_js, lean, full_rank):
        dims = tuple(j + 1 for j in two_js)
        rho = random_density(dims, math.prod(dims) if full_rank else 1, sum(two_js), substream=105)
        grids = tuple(make_grid(j, *(base_grid_sizes(j) if lean else ())) for j in two_js)
        assert np.abs(husimi(rho, grids) - husimi_oracle(rho, grids)).max() <= 1e-14
        ref = wehrl_oracle(rho, grids)
        assert abs(wehrl_entropy(rho, grids) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_basis_identity(self, d):
        # <s|X|s> = F(s) . x(X) for Hermitian X
        rng = rng_for(106, (d,))
        s = rng.normal(size=(7, d)) + 1j * rng.normal(size=(7, d))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = g + g.conj().T
        coords = _hermitian_coords(x)
        assert np.abs(coords.imag).max() == 0
        direct = np.einsum("na,ab,nb->n", s.conj(), x, s).real
        assert np.abs(_hermitian_features(s) @ coords.real - direct).max() <= 1e-12

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

    def test_convexity_equal_args(self):
        a = random_density((3,), 3, 100)
        assert abs(check_wehrl_convexity(a, a).slack) < 1e-10

    def test_convexity_endpoints(self, monkeypatch):
        monkeypatch.setattr(qssa.wehrl, "DEFAULT_LAMBDAS", (0.0, 1.0))
        a = random_density((3,), 3, 101)
        b = random_density((3,), 1, 102)
        assert abs(check_wehrl_convexity(a, b).slack) < 1e-10

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
        assert np.array_equal(a["grid"].states, b["grid"].states)
        assert np.array_equal(a["best"].mat, b["best"].mat)

    def test_scan_reports_margin(self):
        scan = wehrl_min_scan(2, 50, 11)
        s = scan["summary"]
        assert s["min_S_W"] >= s["coherent_value"] - 1e-6
        assert s["min_is_at_least_coherent"]
        assert s["resolution_residual"] <= 1e-12
