"""Measurement machinery: completeness, ensembles, the block channel."""

import numpy as np
import pytest

import qssa.linalg
from qssa.entropy import entropy_from_eigs, von_neumann
from qssa.linalg import CLAMP_REL, DensityMatrix, kron, matrix_to_json, partial_trace
from qssa.measurement import (
    KrausSet,
    Povm,
    apply_kraus_op,
    cpt_phi,
    embed_operator,
    kraus_from_json,
    kraus_to_json,
    measurement_ensemble,
    povm_from_json,
    povm_joint_distribution,
    povm_to_kraus,
    povm_to_json,
    povm_weights,
)
from qssa.randgen import (
    complex_gaussian,
    product_basis_kraus,
    random_cq_state,
    random_density,
    random_kraus,
    random_povm,
    random_unitary,
    rng_for,
)

from test_linalg import NON_FINITE, forbid_eigensolves


def completeness_residual(k):
    """Max-abs entry of sum K†K - I."""
    return float(np.abs(sum(op.conj().T @ op for op in k.ops) - np.eye(k.dim)).max())


def basis_povm(dim):
    """Projectors onto the computational basis."""
    return Povm(np.diag(e) for e in np.eye(dim))


class TestCompleteness:
    def test_identity(self):
        k = KrausSet([np.eye(3)], acts_on=(1,))
        assert completeness_residual(k) == 0.0

    def test_scaled_unitaries(self):
        u = random_unitary(4, 3)
        k = KrausSet([np.eye(4) / np.sqrt(2), u / np.sqrt(2)], acts_on=(1,))
        assert completeness_residual(k) <= 1e-15

    def test_generator_contract(self):
        assert completeness_residual(random_kraus(6, 4, 5)) <= 1e-12

    def test_construction_rejects_incomplete(self):
        with pytest.raises(ValueError):
            KrausSet([np.eye(2) / 2], acts_on=(1,))

    def test_sub_complete_accepted_with_flag(self):
        ops = [op * np.sqrt(0.5) for op in random_kraus(3, 2, 7).ops]
        with pytest.raises(ValueError):
            KrausSet(ops, acts_on=(1,))
        k = KrausSet(ops, acts_on=(1,), sub_complete=True)
        assert k.sub_complete

    @pytest.mark.parametrize("acts_on", [(1.9,), (), (0, 1), (1, 1)],
                             ids=["non-integral", "empty", "zero", "repeated"])
    def test_rejects_bad_acts_on(self, acts_on):
        with pytest.raises(ValueError):
            KrausSet([np.eye(2)], acts_on=acts_on)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sub_complete", [False, True])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_before_any_eigensolve(self, monkeypatch, bad, sub_complete):
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            KrausSet([np.diag([bad, 1.0])], sub_complete=sub_complete)


class TestOperatorExtension:
    @pytest.mark.parametrize("acts_on", [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)])
    def test_embed_vs_index_arithmetic(self, acts_on):
        dims = (2, 3, 2)
        rng = rng_for(31)
        sub = int(np.prod([dims[a - 1] for a in acts_on]))
        op = complex_gaussian(rng, (sub, sub))
        rho = random_density(dims, 12, 33)
        full = embed_operator(op, dims, acts_on)
        direct = full @ rho.mat @ full.conj().T
        fast = apply_kraus_op(op, rho.mat, dims, acts_on)
        assert np.abs(direct - fast).max() < 1e-13

    def test_embed_identity_is_identity(self):
        out = embed_operator(np.eye(3), (2, 3, 2), (2,))
        assert np.array_equal(out, np.eye(12))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            embed_operator(np.eye(3), (2, 2), (1,))


class TestMeasurementEnsemble:
    def test_identity_measurement(self):
        rho = random_density((2, 2, 2), 8, 8)
        ens = measurement_ensemble(rho, KrausSet([np.eye(4)], acts_on=(1, 2)))
        assert len(ens.entries) == 1
        n, r23, r2 = ens.entries[0]
        assert n == pytest.approx(1.0, abs=1e-12)
        assert np.abs(r23.mat - partial_trace(rho, {2, 3}).mat).max() < 1e-12
        assert np.abs(r2.mat - partial_trace(rho, {2}).mat).max() < 1e-12

    def test_product_basis_on_cq_state(self):
        rho = random_cq_state((2, 2, 2), 17)
        k = product_basis_kraus(2, 2)
        ens = measurement_ensemble(rho, k)
        joint = np.real(np.diag(partial_trace(rho, {1, 2}).mat))
        weights = sorted(n for n, _, _ in ens.entries)
        assert np.allclose(weights, sorted(joint[joint > 1e-12]), atol=1e-12)
        for n, r23, r2 in ens.entries:
            # conditional on factors (2,3) is |j><j| x sigma_ij: factor 2 stays pure
            assert von_neumann(r2) < 1e-10

    def test_cyclicity_oracle(self):
        rho = random_density((2, 2, 2), 8, 9)
        k = random_kraus(4, 3, 10, acts_on=(1, 2))
        ens = measurement_ensemble(rho, k)
        assert abs(sum(n for n, _, _ in ens.entries) + ens.skipped_mass - 1.0) < 1e-10
        for op, (n, _, _) in zip(k.ops, ens.entries):
            gram = op.conj().T @ op
            expect = float(np.trace(embed_operator(gram, (2, 2, 2), (1, 2)) @ rho.mat).real)
            assert abs(n - expect) < 1e-12

    def test_consistency_and_mixing(self):
        rho = random_density((2, 3, 2), 12, 11)
        k = random_kraus(2, 3, 12, acts_on=(1,))
        ens = measurement_ensemble(rho, k)
        for n, r23, r2 in ens.entries:
            assert np.abs(partial_trace(r23, {1}).mat - r2.mat).max() < 1e-10
        mixed = sum(n * r23.mat for n, r23, _ in ens.entries)
        assert np.abs(mixed - partial_trace(rho, {2, 3}).mat).max() < 1e-10

    def test_rejects_wrong_factors(self):
        rho = random_density((2, 2, 2), 8, 13)
        with pytest.raises(ValueError):
            measurement_ensemble(rho, KrausSet([np.eye(2)], acts_on=(2,)))
        with pytest.raises(ValueError):
            measurement_ensemble(partial_trace(rho, {1, 2}), KrausSet([np.eye(4)], acts_on=(1, 2)))

    @pytest.mark.parametrize("fn", [measurement_ensemble, cpt_phi])
    def test_rejects_operator_dim_mismatch(self, fn):
        rho = random_density((2, 2, 2), 8, 13)
        with pytest.raises(ValueError, match="does not match factors"):
            fn(rho, KrausSet([np.eye(3)], acts_on=(1,)))

    def test_rejects_acts_on_past_last_factor(self):
        rho = random_density((2, 2, 2), 8, 13)
        with pytest.raises(ValueError, match="out of range"):
            cpt_phi(rho, KrausSet([np.eye(2)], acts_on=(4,)))
        with pytest.raises(ValueError, match="out of range"):
            apply_kraus_op(np.eye(2), rho.mat, (2, 2, 2), (4,))

    @pytest.mark.parametrize("floor", [CLAMP_REL, 1e-3])
    def test_terms_below_the_clamp_floor_are_skipped(self, monkeypatch, floor):
        # a basis measurement on factor 1 with outcome weights floor / 2
        # (5e-13 at the real floor), exactly floor, and the rest: a term is
        # kept iff its weight is >= the floor, as in entropy_from_eigs
        monkeypatch.setattr(qssa.linalg, "CLAMP_REL", floor)
        p = np.zeros(12)
        p[0], p[4] = floor / 2, floor
        p[8] = p[11] = (1 - 1.5 * floor) / 2
        rho = DensityMatrix(np.diag(p), (3, 2, 2))
        ens = measurement_ensemble(rho, KrausSet(np.diag(e) for e in np.eye(3)))
        assert (ens.skipped, ens.skipped_mass) == (1, floor / 2)
        assert [n for n, _, _ in ens.entries] == [floor, pytest.approx(1 - 1.5 * floor)]

    def test_rejects_sub_complete(self):
        rho = random_density((2, 2, 2), 8, 14)
        ops = [op * np.sqrt(0.5) for op in random_kraus(2, 2, 15).ops]
        k = KrausSet(ops, acts_on=(1,), sub_complete=True)
        with pytest.raises(ValueError):
            measurement_ensemble(rho, k)


class TestCptPhi:
    def test_identity_kraus_gives_reduction(self):
        rho = random_density((2, 2, 2), 8, 16)
        out = cpt_phi(rho, KrausSet([np.eye(4)], acts_on=(1, 2)))
        assert out.dims == (1, 2, 2)
        assert np.abs(out.mat - partial_trace(rho, {2, 3}).mat).max() < 1e-12

    def test_product_input_blocks(self):
        rho12 = random_density((2, 2), 4, 18)
        rho3 = random_density((3,), 3, 19)
        product = DensityMatrix(kron(rho12.mat, rho3.mat), (2, 2, 3))
        k = random_kraus(4, 2, 20, acts_on=(1, 2))
        out = cpt_phi(product, k)
        ens = measurement_ensemble(product, k)
        d23 = 2 * 3
        for a, (n, _, r2) in enumerate(ens.entries):
            block = out.mat[a * d23 : (a + 1) * d23, a * d23 : (a + 1) * d23]
            assert np.abs(block - n * kron(r2.mat, rho3.mat)).max() < 1e-12

    def test_block_entropy_oracle(self):
        rho = random_density((2, 2, 2), 8, 21)
        k = random_kraus(4, 3, 22, acts_on=(1, 2))
        out = cpt_phi(rho, k)
        ens = measurement_ensemble(rho, k)
        weights = np.array([n for n, _, _ in ens.entries])
        expect = entropy_from_eigs(weights) + sum(
            n * von_neumann(r23) for n, r23, _ in ens.entries
        )
        assert von_neumann(out) == pytest.approx(expect, abs=1e-9)

    def test_trace_and_psd(self):
        rho = random_density((2, 2, 2), 4, 23)
        k = random_kraus(2, 3, 24, acts_on=(1,))
        out = cpt_phi(rho, k)
        assert abs(out.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.mat).min() >= -1e-10


class TestPovm:
    def test_povm_to_kraus_identity(self):
        k = povm_to_kraus(Povm([np.eye(3)]))
        assert np.abs(k.ops[0] - np.eye(3)).max() < 1e-12

    def test_povm_to_kraus_projectors(self):
        p = basis_povm(3)
        k = povm_to_kraus(p)
        for el, op in zip(p.elements, k.ops):
            assert np.abs(el - op).max() < 1e-12

    def test_povm_to_kraus_random(self):
        k = povm_to_kraus(random_povm(4, 3, 25))
        assert completeness_residual(k) <= 1e-10

    def test_rejects_non_psd_element(self):
        bad = [np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]
        with pytest.raises(ValueError):
            Povm(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_before_any_eigensolve(self, monkeypatch, bad):
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            Povm([np.diag([bad, 0.0]), np.diag([0.0, 1.0])])

    def test_rejects_non_hermitian_element(self):
        # each hermitized part is PSD and the elements sum to I, but neither is Hermitian
        bad = [np.array([[0.5, 1.0], [0.0, 0.5]]), np.array([[0.5, -1.0], [0.0, 0.5]])]
        with pytest.raises(ValueError, match="asymmetry"):
            Povm(bad)
        with pytest.raises(ValueError, match="asymmetry"):
            povm_from_json({"ops": [matrix_to_json(m) for m in bad]})

    def test_joint_distribution_normalized(self):
        rho = random_density((2, 3), 6, 26)
        r = povm_joint_distribution(rho, random_povm(2, 3, 27), random_povm(3, 2, 28))
        assert abs(r.sum() - 1.0) < 1e-9
        assert r.min() > -1e-12

    def test_weights_match_conditional_traces(self):
        rho = random_density((2, 3), 6, 29)
        p = random_povm(2, 4, 30)
        from qssa.measurement import povm_conditionals

        n = povm_weights(rho, p, factor=1)
        for w, b in zip(n, povm_conditionals(rho, p, factor=1)):
            assert abs(w - np.trace(b).real) < 1e-12


class TestJson:
    def test_kraus_round_trip(self):
        k = random_kraus(4, 3, 31, acts_on=(1, 2))
        back = kraus_from_json(kraus_to_json(k))
        assert back.acts_on == (1, 2)
        for a, b in zip(k.ops, back.ops):
            assert np.array_equal(a, b)

    def test_povm_round_trip(self):
        p = random_povm(3, 3, 32)
        back = povm_from_json(povm_to_json(p))
        for a, b in zip(p.elements, back.elements):
            assert np.array_equal(a, b)
