"""Entropy functionals: golden values, identities, and classical bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from qssa.entropy import (
    bipartite_entropies,
    block_entropy,
    entropy_from_eigs,
    mutual_information,
    relative_entropy,
    shannon,
    von_neumann,
)
from qssa.checks import classical_quantum_entropy
from qssa.linalg import CLAMP_REL, DensityMatrix, clamp_threshold, kron, kron_state, matrix_log, partial_trace
from qssa.measurement import Povm, povm_conditionals, povm_joint_distribution, povm_weights
from qssa.randgen import random_density, random_povm, random_unitary

from test_linalg import KRON_FACTORS, KRON_IDS, trace_distance, traced_peak
from test_measurement import basis_povm


def bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(psi, psi.conj()), (2, 2))


class TestVonNeumann:
    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d) / d, (d,))
            assert von_neumann(rho) == pytest.approx(math.log(d), abs=1e-12)

    def test_pure_state(self):
        rho = random_density((2, 3), 1, 4)
        assert abs(von_neumann(rho)) < 1e-10

    def test_direct_scalar_oracle(self):
        p = (0.5, 1 / 3, 1 / 6)
        expected = -sum(x * math.log(x) for x in p)
        rho = DensityMatrix(np.diag(p), (3,))
        assert von_neumann(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.01140, abs=5e-6)


class TestShannon:
    def test_deterministic(self):
        assert shannon([1.0, 0.0, 0.0]) == 0.0

    def test_uniform(self):
        for d in (2, 4, 7):
            assert shannon(np.full(d, 1.0 / d)) == pytest.approx(math.log(d), abs=1e-12)

    def test_matches_diagonal_state(self):
        p = np.array([0.5, 1 / 3, 1 / 6])
        rho = DensityMatrix(np.diag(p), (3,))
        assert shannon(p) == pytest.approx(von_neumann(rho), abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shannon([0.5, 0.6, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            shannon([0.5, 0.6])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [[0.5, 0.5, math.nan], [0.5, 0.5, math.inf],
                                   [math.nan, math.inf, -math.inf]])
    def test_rejects_non_finite(self, p):
        with pytest.raises(ValueError, match="finite"):
            shannon(p)


class TestZeroFloor:
    def test_values_below_the_floor_are_dropped(self):
        # 5e-13 is under CLAMP_REL: spectra and probability vectors drop it alike
        big = 1 - 5e-13
        expect = -big * math.log(big)
        assert entropy_from_eigs([big, 5e-13]) == expect
        assert shannon([big, 5e-13]) == expect
        assert von_neumann(DensityMatrix(np.diag([big, 5e-13]), (2,))) == expect

    def test_values_at_the_floor_are_kept(self):
        assert entropy_from_eigs([CLAMP_REL]) == -CLAMP_REL * math.log(CLAMP_REL)
        assert entropy_from_eigs([]) == 0.0


class TestNonFiniteAndAsymmetricInputs:
    # max(1.0, nan) is 1.0 and NaN fails every >= test, so a NaN once dropped out of x ln x unseen
    @pytest.mark.parametrize("eigs", [[np.nan, 0.5], [0.5, np.inf], [np.nan]])
    def test_spectrum_with_a_non_finite_top_raises(self, eigs):
        with pytest.raises(ValueError, match="not finite"):
            entropy_from_eigs(eigs)

    def test_block_with_a_nan_entry_raises(self):
        b = np.diag([0.5, 0.25]).astype(complex)
        b[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            block_entropy(b)

    def test_asymmetric_block_raises(self):
        b = np.diag([0.5, 0.5]).astype(complex)
        b[0, 1] = 0.1
        with pytest.raises(ValueError, match="asymmetry"):
            block_entropy(b)

    # linalg.clamp_threshold rejects a least value below -STATE_TOL * max(1, largest value), so a
    # negative eigenvalue or weight is never dropped from x ln x unseen
    def test_negative_spectrum_value_raises(self):
        with pytest.raises(ValueError, match="negative value -2.000e-01"):
            entropy_from_eigs([0.7, -0.2, 0.5])

    def test_negative_block_raises(self):
        with pytest.raises(ValueError, match="negative value -3.000e-01"):
            block_entropy(np.diag([0.5, -0.3]))

    @pytest.mark.parametrize("eigs,raises", [
        ([1.0, -0.5e-9], False), ([1.0, -2e-9], True), ([4.0, -2e-9], False), ([4.0, -5e-9], True),
        ([-0.5e-9], False), ([-2e-9], True),
    ])
    def test_negative_bound_is_relative_to_the_largest_value(self, eigs, raises):
        if raises:
            with pytest.raises(ValueError, match="negative value"):
                clamp_threshold(eigs)
        else:
            assert clamp_threshold(eigs) == CLAMP_REL * max(1.0, max(eigs))
            assert entropy_from_eigs(eigs) == entropy_from_eigs([x for x in eigs if x > 0])

    def test_block_is_symmetrized_to_the_same_bytes(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = g @ g.conj().T / 10
        b[0, 1] += 1e-15
        eigs = np.linalg.eigvalsh((b + b.conj().T) / 2)
        assert block_entropy(b) == (entropy_from_eigs(eigs), float(eigs.sum()))


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = random_density((2, 2), 4, 6)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_pure_vs_mixed(self):
        for d in (2, 4):
            m = np.zeros((d, d), dtype=complex)
            m[0, 0] = 1.0
            pure = DensityMatrix(m, (d,))
            mixed = DensityMatrix(np.eye(d) / d, (d,))
            assert relative_entropy(pure, mixed) == pytest.approx(math.log(d), abs=1e-10)

    def test_support_violation_is_infinite(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((2, 2), dtype=complex)
        b[1, 1] = 1.0
        val = relative_entropy(DensityMatrix(a, (2,)), DensityMatrix(b, (2,)))
        assert math.isinf(val)

    @pytest.mark.parametrize("dims", [(3,), (2, 3), (4, 4, 4)], ids=["3", "2x3", "4x4x4"])
    def test_matches_matrix_log_oracle(self, dims):
        d = math.prod(dims)
        rho = random_density(dims, d, 60, substream=1)
        sigma = random_density(dims, d, 60, substream=2)
        oracle = np.trace(rho.mat @ (matrix_log(rho.mat) - matrix_log(sigma.mat))).real
        assert relative_entropy(rho, sigma) == pytest.approx(oracle, rel=1e-12)

    def test_rank_deficient_sigma_with_leak_is_infinite(self):
        # sigma has rank 3 of 6; a full-rank rho puts weight outside its support
        rho = random_density((2, 3), 6, 61, substream=1)
        sigma = random_density((2, 3), 3, 61, substream=2)
        assert math.isinf(relative_entropy(rho, sigma))
        assert math.isfinite(relative_entropy(sigma, rho))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy(random_density((2,), 2, 1), random_density((3,), 3, 1))

    def test_klein_nonnegative(self):
        for seed in range(10):
            a = random_density((2, 2), 4, seed, substream=50)
            b = random_density((2, 2), 4, seed, substream=51)
            assert relative_entropy(a, b) >= -1e-9


class TestRelativeEntropyToKronState:
    @staticmethod
    def instance(dims_a, dims_b, seed=70):
        dims = dims_a + dims_b
        rho = random_density(dims, math.prod(dims), seed, substream=1)
        a = random_density(dims_a, math.prod(dims_a), seed, substream=2)
        b = random_density(dims_b, math.prod(dims_b), seed, substream=3)
        return rho, a, b

    @pytest.mark.parametrize("dims_a, dims_b", KRON_FACTORS, ids=KRON_IDS)
    def test_matches_the_plain_product_state(self, dims_a, dims_b):
        # relative, not 1e-13 absolute: at 8x8 the plain path's 64-dim eigh
        # is itself 1.3e-13 off the factor oracle below (value 2.31)
        rho, a, b = self.instance(dims_a, dims_b)
        plain = relative_entropy(rho, DensityMatrix(kron(a.mat, b.mat), dims_a + dims_b))
        assert relative_entropy(rho, kron_state(a, b)) == pytest.approx(plain, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("dims_a, dims_b", KRON_FACTORS, ids=KRON_IDS)
    def test_matches_the_factor_oracle(self, dims_a, dims_b):
        # ln(a x b) = ln a x I + I x ln b, so
        # H(rho, a x b) = -S[rho] - Tr rho_a ln a - Tr rho_b ln b
        rho, a, b = self.instance(dims_a, dims_b)
        n = len(dims_a)
        rho_a = partial_trace(rho, range(1, n + 1)).mat
        rho_b = partial_trace(rho, range(n + 1, len(rho.dims) + 1)).mat
        oracle = (-von_neumann(rho) - np.trace(rho_a @ matrix_log(a.mat)).real
                  - np.trace(rho_b @ matrix_log(b.mat)).real)
        assert abs(relative_entropy(rho, kron_state(a, b)) - oracle) <= 1e-14

    def test_pure_factor_against_full_rank_state_is_infinite(self):
        # a pure rho3 leaves half of rho12 x rho3's spectrum at zero, where a
        # full-rank rho123 has weight: the support-leak path
        rho123 = random_density((2, 2, 2), 8, 71, substream=1)
        rho12 = partial_trace(rho123, {1, 2})
        pure3 = random_density((2,), 1, 71, substream=2)
        assert math.isinf(relative_entropy(rho123, kron_state(rho12, pure3)))
        assert math.isfinite(relative_entropy(rho123, kron_state(rho12, partial_trace(rho123, {3}))))

    @pytest.mark.parametrize("product", [True, False], ids=["kron_state", "plain"])
    @pytest.mark.parametrize("rank3, finite", [(2, True), (1, False)], ids=["finite", "inf"])
    def test_eigensolves_per_path(self, monkeypatch, product, rank3, finite):
        # a kron_state sigma is never solved; rho is solved only on the finite path, after
        # the support test (a pure rho3 puts weight of rho123 on zero eigenvalues of sigma)
        rho123 = random_density((2, 2, 2), 8, 72, substream=1)
        rho3 = random_density((2,), rank3, 72, substream=2)
        sigma = kron_state(partial_trace(rho123, {1, 2}), rho3)
        if not product:
            sigma = DensityMatrix(sigma.mat, sigma.dims)
        calls = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, solve=solve, name=name: calls.append(name) or solve(m))
        assert math.isfinite(relative_entropy(rho123, sigma)) == finite
        assert calls == ([] if product else ["eigh"]) + (["eigvalsh"] if finite else [])

    def test_holds_one_full_size_array_besides_its_inputs(self, monkeypatch):
        # at 8,8,8 only V is full-size: diag(V† rho V) is taken over column blocks of V,
        # and V is dropped before rho's eigensolve
        rho = random_density((8, 8, 8), 512, 73)
        product = kron_state(partial_trace(rho, {1, 2}), partial_trace(rho, {3}))
        held, solve = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: held.append(tracemalloc.get_traced_memory()[0]) or solve(m))
        peak = traced_peak(lambda: relative_entropy(rho, product))
        assert peak < 1.5 * rho.mat.nbytes, f"peak {peak / rho.mat.nbytes:.2f}x the state's bytes"
        assert len(held) == 1 and held[0] < 0.5 * rho.mat.nbytes, f"{held} bytes held while rho is solved"


class TestMutualInformation:
    def test_product_state(self):
        a = random_density((2,), 2, 1)
        b = random_density((3,), 3, 2)
        rho = DensityMatrix(kron(a.mat, b.mat), (2, 3))
        assert abs(mutual_information(rho)) < 1e-9

    def test_bell(self):
        assert mutual_information(bell_state()) == pytest.approx(2 * math.log(2), abs=1e-10)

    def test_relative_entropy_identity(self):
        for seed in range(5):
            rho = random_density((2, 3), 6, seed, substream=60)
            r1 = partial_trace(rho, {1})
            r2 = partial_trace(rho, {2})
            prod = DensityMatrix(kron(r1.mat, r2.mat), (2, 3))
            assert mutual_information(rho) == pytest.approx(relative_entropy(rho, prod), abs=1e-9)

    def test_wrong_factor_count(self):
        with pytest.raises(ValueError):
            mutual_information(random_density((2, 2, 2), 8, 1))

    def test_bipartite_entropies_order(self):
        # (S12, S1, S2): a pure entangled pair has maximally mixed marginals
        s12, s1, s2 = bipartite_entropies(bell_state())
        assert abs(s12) < 1e-12
        assert s1 == pytest.approx(math.log(2), abs=1e-12) and s2 == pytest.approx(math.log(2), abs=1e-12)
        rho = random_density((2, 3), 6, 3)
        assert bipartite_entropies(rho) == (von_neumann(rho), von_neumann(partial_trace(rho, {1})),
                                            von_neumann(partial_trace(rho, {2})))


def classical_entropy_oracle(rho, p, q):
    """Brute-force double sum over materialized P x Q products."""
    total = 0.0
    for pa in p.elements:
        for qb in q.elements:
            r = float(np.trace(kron(pa, qb) @ rho.mat).real)
            if r > 1e-15:
                total -= r * math.log(r)
    return total


class TestClassicalEntropy:
    def test_trivial_partition_is_zero(self):
        rho = random_density((2, 3), 6, 3)
        p = Povm([np.eye(2)])
        q = Povm([np.eye(3)])
        assert shannon(povm_joint_distribution(rho, p, q).ravel()) == 0.0

    def test_matching_basis_on_diagonal_state(self):
        probs = np.array([0.4, 0.1, 0.3, 0.2])
        rho = DensityMatrix(np.diag(probs), (2, 2))
        r = povm_joint_distribution(rho, basis_povm(2), basis_povm(2))
        assert shannon(r.ravel()) == pytest.approx(von_neumann(rho), abs=1e-12)

    def test_double_sum_oracle(self):
        rho = random_density((2, 3), 6, 8)
        p = random_povm(2, 3, 9)
        q = random_povm(3, 2, 10)
        assert shannon(povm_joint_distribution(rho, p, q).ravel()) == pytest.approx(
            classical_entropy_oracle(rho, p, q), abs=1e-12
        )


class TestClassicalQuantumEntropy:
    def test_trivial_povm(self):
        rho = random_density((2, 3), 6, 11)
        val = classical_quantum_entropy(rho, Povm([np.eye(2)]))
        assert val == pytest.approx(von_neumann(partial_trace(rho, {2})), abs=1e-10)

    def test_fully_classical_case(self):
        probs = np.array([0.35, 0.05, 0.25, 0.35])
        rho = DensityMatrix(np.diag(probs), (2, 2))
        p = basis_povm(2)
        assert classical_quantum_entropy(rho, p) == pytest.approx(
            shannon(povm_joint_distribution(rho, p, p).ravel()), abs=1e-12
        )

    def test_decomposition_oracle(self):
        rho = random_density((2, 3), 6, 12)
        p = random_povm(2, 3, 13)
        n = povm_weights(rho, p)
        total = entropy_from_eigs(n)
        for w, b in zip(n, povm_conditionals(rho, p, factor=1)):
            cond = DensityMatrix(b / w, (3,))
            total += w * von_neumann(cond)
        assert classical_quantum_entropy(rho, p) == pytest.approx(total, abs=1e-9)


class TestEntropyProperties:
    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_concavity(self, lam):
        for seed in range(5):
            a = random_density((2, 2), 4, seed, substream=70)
            b = random_density((2, 2), 2, seed, substream=71)
            mix = DensityMatrix(lam * a.mat + (1 - lam) * b.mat, (2, 2))
            assert von_neumann(mix) >= lam * von_neumann(a) + (1 - lam) * von_neumann(b) - 1e-9

    def test_klein_equality_at_equal_inputs(self):
        rho = random_density((3,), 3, 14)
        assert relative_entropy(rho, rho) <= 1e-10
        assert trace_distance(rho, rho) <= 1e-7

    def test_pinsker_inequality(self):
        # D(rho || sigma) >= 2 T(rho, sigma)^2, with T the trace distance
        for seed in range(10):
            rho = random_density((2, 3), 6 if seed % 2 else 2, seed, substream=73)
            sigma = random_density((2, 3), 6, seed, substream=74)
            assert relative_entropy(rho, sigma) >= 2 * trace_distance(rho, sigma) ** 2 - 1e-12

    def test_triangle_inequality(self):
        for seed in range(10):
            rho = random_density((2, 3), 4, seed, substream=72)
            s1 = von_neumann(partial_trace(rho, {1}))
            s2 = von_neumann(partial_trace(rho, {2}))
            assert abs(s1 - s2) <= von_neumann(rho) + 1e-8

    def test_subadditivity(self):
        for seed in range(10):
            rho = random_density((2, 3), 6, seed, substream=73)
            s1 = von_neumann(partial_trace(rho, {1}))
            s2 = von_neumann(partial_trace(rho, {2}))
            assert von_neumann(rho) <= s1 + s2 + 1e-9

    def test_rank_one_projective_classical_dominates(self):
        # outcome entropy of a rank-1 projective measurement is at least S
        for seed in range(5):
            rho = random_density((3,), 3, seed, substream=74)
            u = random_unitary(3, seed, substream=75)
            p = Povm([np.outer(u[:, i], u[:, i].conj()) for i in range(3)])
            outcome = np.array([float(np.trace(el @ rho.mat).real) for el in p.elements])
            assert shannon(outcome) >= von_neumann(rho) - 1e-9
