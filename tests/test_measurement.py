"""Measurement machinery: completeness, outcome blocks, the block channel."""

import math

import numpy as np
import pytest

import qssa.linalg
import qssa.measurement
from qssa.checks import _measured_split, check_concave_map, check_stronger_ssa
from qssa.entropy import entropy_from_eigs, von_neumann
from qssa.linalg import CLAMP_REL, DensityMatrix, kron, partial_trace, ptrace_mat
from qssa.measurement import (
    KrausSet,
    Povm,
    apply_kraus_op,
    cpt_phi,
    povm_conditionals,
    povm_joint_distribution,
    povm_to_kraus,
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
from qssa.suites import from_json, to_json

from test_linalg import NON_FINITE, forbid_eigensolves, traced_peak


def completeness_residual(k):
    """Max-abs entry of sum K†K - I."""
    return float(np.abs(sum(op.conj().T @ op for op in k.ops) - np.eye(k.dim)).max())


def basis_povm(dim):
    """Projectors onto the computational basis."""
    return Povm(np.diag(e) for e in np.eye(dim))


def embed_operator(op, dims, acts_on):
    """op ⊗ I materialized on the full space, op acting on the 1-based factors `acts_on`.

    The oracle for every reduced contraction in `qssa.measurement`.
    """
    acts_on = sorted(acts_on)
    sub = math.prod(dims[a - 1] for a in acts_on)
    if op.shape != (sub, sub):
        raise ValueError(f"operator shape {op.shape} does not match factors {acts_on} of {dims}")
    rest = [i for i in range(1, len(dims) + 1) if i not in acts_on]
    full = np.kron(op, np.eye(math.prod(dims[i - 1] for i in rest)))
    # `full` lives on factor order acts_on + rest; permute back to 1..n
    order = [a - 1 for a in acts_on + rest]
    perm_dims = [dims[i] for i in order]
    inv = list(np.argsort(order))
    t = full.reshape(perm_dims + perm_dims)
    t = np.transpose(t, axes=inv + [len(dims) + i for i in inv])
    return t.reshape(full.shape)


def tensordot_image(op, rho_mat, dims, acts_on):
    """K rho K† by tensordot on the reshaped state, without building op ⊗ I."""
    n, k = len(dims), len(acts_on)
    sub = [dims[a - 1] for a in acts_on]
    op_t = op.reshape(sub + sub)
    t = rho_mat.reshape(list(dims) * 2)
    for o, axes in ((op_t, [a - 1 for a in acts_on]), (op_t.conj(), [n + a - 1 for a in acts_on])):
        t = np.moveaxis(np.tensordot(o, t, axes=(list(range(k, 2 * k)), axes)), range(k), axes)
    return t.reshape(rho_mat.shape)


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

    # every KrausSet is one apply_kraus_op can apply: on factor 1 or {1,2}
    @pytest.mark.parametrize("acts_on", [(1.9,), (), (0, 1), (1, 1), (2,), (1, 3), (4,)],
                             ids=["non-integral", "empty", "zero", "repeated", "2", "1-3", "4"])
    def test_rejects_bad_acts_on(self, monkeypatch, acts_on):
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError):
            KrausSet([np.eye(2)], acts_on=acts_on)

    @pytest.mark.parametrize("acts_on", ["12", b"1"])
    def test_rejects_a_string_acts_on(self, acts_on):
        # "12" would be split into the factors (1, 2); string elements, as from JSON text, are fine
        with pytest.raises(ValueError, match="acts_on must be a sequence of integers"):
            KrausSet([np.eye(2)], acts_on=acts_on)
        assert KrausSet([np.eye(2)], acts_on=["1"]).acts_on == (1,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sub_complete", [False, True])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_before_any_eigensolve(self, monkeypatch, bad, sub_complete):
        # a sub-complete family is plain arrays, which only check_concave_map takes
        forbid_eigensolves(monkeypatch)
        op = np.diag([bad, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            if sub_complete:
                check_concave_map(np.zeros((2, 2)), [op], [np.eye(2)], [np.eye(2)])
            else:
                KrausSet([op])


def concave_map_with_ops(ops):
    """check_concave_map on a K list, with one 1x1 identity A and B per K."""
    return check_concave_map(np.zeros((1, 1)), ops, [np.eye(1)] * len(ops), [np.eye(1)] * len(ops))


class TestOperatorLists:
    # every operator list is checked by linalg.square_ops, before any eigensolve
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ops", [
        [1.0], [np.ones(2)], [np.ones((1, 1, 1))], [np.ones((1, 2))], [np.eye(1), np.eye(2)],
        [[[1.0, 0.0], [0.0]]], [], [np.zeros((0, 0))], [np.array([[np.nan]])],
    ], ids=["0-d", "1-d", "3-d", "non-square", "unequal", "ragged", "empty-list", "0x0",
            "non-finite"])
    @pytest.mark.parametrize("make", [KrausSet, Povm, concave_map_with_ops],
                             ids=["kraus", "povm", "concave-map"])
    def test_malformed_list_raises_value_error_before_any_eigensolve(self, monkeypatch, make, ops):
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError):
            make(ops)

    @pytest.mark.parametrize("make,held", [(KrausSet, "ops"), (Povm, "elements")])
    def test_keeps_a_frozen_copy_of_the_callers_array(self, make, held):
        a = np.eye(2, dtype=complex)
        ops = getattr(make([a]), held)
        assert a.flags.writeable and not ops[0].flags.writeable
        a[0, 0] = 5.0
        assert ops[0][0, 0] == 1.0


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
        assert np.abs(direct - tensordot_image(op, rho.mat, dims, acts_on)).max() < 1e-13

    def test_embed_identity_is_identity(self):
        out = embed_operator(np.eye(3), (2, 3, 2), (2,))
        assert np.array_equal(out, np.eye(12))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            embed_operator(np.eye(3), (2, 2), (1,))


class TestReducedBlocks:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("acts_on", [(1,), (1, 2)])
    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4)])
    def test_blocks_are_traced_images(self, dims, acts_on, count):
        rho = random_density(dims, math.prod(dims), 34)
        k = random_kraus(math.prod(dims[a - 1] for a in acts_on), count, 35, acts_on=acts_on)
        blocks = apply_kraus_op(rho, k)
        assert len(blocks) == count
        for op, b in zip(k.ops, blocks):
            full = embed_operator(op, dims, acts_on)
            expect = ptrace_mat(full @ rho.mat @ full.conj().T, dims, (2, 3))
            assert np.abs(b - expect).max() < 1e-13

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_stacked_povm_conditionals_match_each_element(self, factor):
        dims = (3, 2, 4)
        rho = random_density(dims, 24, 36)
        p = random_povm(dims[factor - 1], 3, 37)
        conds = povm_conditionals(rho, p, factor=factor)
        assert len(conds) == len(p)
        keep = [i for i in (1, 2, 3) if i != factor]
        for el, b in zip(p.elements, conds):
            expect = ptrace_mat(embed_operator(el, dims, (factor,)) @ rho.mat, dims, keep)
            assert np.abs(b - expect).max() < 1e-13

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (4, 3, 2), (3, 2, 3)])
    def test_kraus_blocks_are_povm_conditionals_of_the_gram_operators(self, dims):
        # Tr_1 (K ⊗ I) rho (K ⊗ I)† = Tr_1 (K†K ⊗ I) rho: the two contractions agree block by block
        rho = random_density(dims, math.prod(dims), 40)
        k = random_kraus(dims[0], 3, 41, acts_on=(1,))
        conds = povm_conditionals(rho, Povm([op.conj().T @ op for op in k.ops]), factor=1)
        blocks = apply_kraus_op(rho, k)
        assert len(blocks) == len(conds)
        for b, c in zip(blocks, conds):
            assert np.abs(b - c).max() < 1e-13

    @pytest.mark.parametrize("fn", [apply_kraus_op, cpt_phi])
    def test_peak_memory_stays_below_one_state(self, fn):
        # one operator and one ~64 KB block of rho's rows at a time: neither K rho nor
        # K rho K† is ever full-size
        rho = random_density((8, 8, 8), 512, 38)
        k = random_kraus(8, 4, 39, acts_on=(1,))
        peak = traced_peak(lambda: fn(rho, k))
        assert peak < rho.mat.nbytes, f"peak {peak / rho.mat.nbytes:.2f}x the state's bytes"


class TestOutcomeBlocks:
    # the blocks apply_kraus_op hands to checks._measured_split, the one path to the split bound
    def test_identity_measurement(self):
        rho = random_density((2, 2, 2), 8, 8)
        blocks = apply_kraus_op(rho, KrausSet([np.eye(4)], acts_on=(1, 2)))
        assert len(blocks) == 1
        assert np.abs(blocks[0] - partial_trace(rho, {2, 3}).mat).max() < 1e-12
        _, [(n, s23, s2)], skipped, _ = _measured_split(blocks, (2, 2))
        assert n == pytest.approx(1.0, abs=1e-12) and skipped == 0
        assert s23 == pytest.approx(von_neumann(partial_trace(rho, {2, 3})), abs=1e-12)
        assert s2 == pytest.approx(von_neumann(partial_trace(rho, {2})), abs=1e-12)

    def test_product_basis_on_cq_state(self):
        rho = random_cq_state((2, 2, 2), 17)
        _, terms, _, _ = _measured_split(apply_kraus_op(rho, product_basis_kraus(2, 2)), (2, 2))
        joint = np.real(np.diag(partial_trace(rho, {1, 2}).mat))
        weights = sorted(n for n, _, _ in terms)
        assert np.allclose(weights, sorted(joint[joint > 1e-12]), atol=1e-12)
        for n, s23, s2 in terms:
            # conditional on factors (2,3) is |j><j| x sigma_ij: factor 2 stays pure
            assert s2 < 1e-10

    def test_cyclicity_oracle(self):
        rho = random_density((2, 2, 2), 8, 9)
        k = random_kraus(4, 3, 10, acts_on=(1, 2))
        _, terms, skipped, skipped_mass = _measured_split(apply_kraus_op(rho, k), (2, 2))
        assert skipped == 0
        assert abs(sum(n for n, _, _ in terms) + skipped_mass - 1.0) < 1e-10
        for op, (n, _, _) in zip(k.ops, terms):
            gram = op.conj().T @ op
            expect = float(np.trace(embed_operator(gram, (2, 2, 2), (1, 2)) @ rho.mat).real)
            assert abs(n - expect) < 1e-12

    def test_consistency_and_mixing(self):
        rho = random_density((2, 3, 2), 12, 11)
        k = random_kraus(2, 3, 12, acts_on=(1,))
        blocks = apply_kraus_op(rho, k)
        _, terms, skipped, _ = _measured_split(blocks, (3, 2))
        assert skipped == 0
        for b, (n, s23, s2) in zip(blocks, terms):
            assert s23 == pytest.approx(von_neumann(DensityMatrix(b / n, (3, 2))), abs=1e-12)
            assert s2 == pytest.approx(von_neumann(DensityMatrix(ptrace_mat(b, (3, 2), (1,)) / n, (3,))), abs=1e-12)
        assert np.abs(sum(blocks) - partial_trace(rho, {2, 3}).mat).max() < 1e-10

    @pytest.mark.parametrize("fn", [apply_kraus_op, cpt_phi])
    def test_rejects_operator_dim_mismatch(self, fn):
        rho = random_density((2, 2, 2), 8, 13)
        with pytest.raises(ValueError, match="does not match factors"):
            fn(rho, KrausSet([np.eye(3)], acts_on=(1,)))

    def test_rejects_acts_on_past_last_factor(self):
        rho = random_density((4,), 4, 13)
        with pytest.raises(ValueError, match="out of range"):
            apply_kraus_op(rho, KrausSet([np.eye(4)], acts_on=(1, 2)))

    def test_factor_label_follows_the_integer_rule(self):
        # an integral float label is its int; a non-integral one is the integer rule's ValueError
        rho, p = random_density((2, 3), 6, 1), random_povm(3, 2, 2)
        assert np.array_equal(povm_conditionals(rho, p, factor=2.0), povm_conditionals(rho, p, factor=2))
        with pytest.raises(ValueError, match="expected an integer, got 1.5"):
            povm_conditionals(rho, p, factor=1.5)

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
        k = KrausSet(np.diag(e) for e in np.eye(3))
        r = check_stronger_ssa(rho, k)
        assert (r.meta["skipped_terms"], r.meta["skipped_mass"]) == (1, floor / 2)
        _, terms, _, _ = _measured_split(apply_kraus_op(rho, k), (2, 2))
        assert [n for n, _, _ in terms] == [floor, pytest.approx(1 - 1.5 * floor)]

    def test_rejects_sub_complete(self, monkeypatch):
        # no check or channel is ever handed a sub-complete family:
        # KrausSet refuses one, from a max-abs residual, before any eigensolve
        ops = [op * np.sqrt(0.5) for op in random_kraus(2, 2, 15).ops]
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="completeness residual"):
            KrausSet(ops, acts_on=(1,))


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
        d23 = 2 * 3
        for a, op in enumerate(k.ops):
            # Tr_1 K (rho12 ⊗ rho3) K† = Tr_1 (K rho12 K†) ⊗ rho3
            reduced = ptrace_mat(op @ rho12.mat @ op.conj().T, (2, 2), (2,))
            block = out.mat[a * d23 : (a + 1) * d23, a * d23 : (a + 1) * d23]
            assert np.abs(block - kron(reduced, rho3.mat)).max() < 1e-12

    def test_block_entropy_oracle(self):
        rho = random_density((2, 2, 2), 8, 21)
        k = random_kraus(4, 3, 22, acts_on=(1, 2))
        out = cpt_phi(rho, k)
        _, terms, _, _ = _measured_split(apply_kraus_op(rho, k), (2, 2))
        weights = np.array([n for n, _, _ in terms])
        expect = entropy_from_eigs(weights) + sum(n * s23 for n, s23, _ in terms)
        assert von_neumann(out) == pytest.approx(expect, abs=1e-9)

    def test_trace_and_psd(self):
        rho = random_density((2, 2, 2), 4, 23)
        k = random_kraus(2, 3, 24, acts_on=(1,))
        out = cpt_phi(rho, k)
        assert abs(out.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.mat).min() >= -1e-10


class TestPovm:
    def test_reprs(self):
        assert repr(basis_povm(3)) == "Povm(count=3, dim=3)"
        assert repr(product_basis_kraus(2, 3)) == "KrausSet(count=6, dim=6, acts_on=(1, 2))"

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
            from_json({"ops": to_json(bad)})

    def test_joint_distribution_normalized(self):
        rho = random_density((2, 3), 6, 26)
        r = povm_joint_distribution(rho, random_povm(2, 3, 27), random_povm(3, 2, 28))
        assert abs(r.sum() - 1.0) < 1e-9
        assert r.min() > -1e-12

    def test_weights_match_conditional_traces(self):
        rho = random_density((2, 3), 6, 29)
        p = random_povm(2, 4, 30)
        n = povm_weights(rho, p)
        for w, b in zip(n, povm_conditionals(rho, p, factor=1)):
            assert abs(w - np.trace(b).real) < 1e-12

    def test_weights_reject_a_mismatched_povm_before_any_work(self, monkeypatch):
        rho = random_density((2, 3), 6, 29)
        p = random_povm(3, 2, 30)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the POVM check")

        monkeypatch.setattr(qssa.measurement, "ptrace_mat", no_work)
        with pytest.raises(ValueError, match="does not match factor 1"):
            povm_weights(rho, p)

