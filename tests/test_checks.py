"""Every inequality checker: golden cases, equality cases, cross-checks."""

import math

import numpy as np
import pytest

import qssa.checks
from qssa.checks import (
    _measured_split,
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
    counterexample_two_sided,
    trace_exp_map,
)
from qssa.entropy import mutual_information, shannon, von_neumann
from qssa.linalg import DensityMatrix, hermitize, kron, matrix_log, partial_trace
from qssa.measurement import KrausSet, Povm, povm_to_kraus
from qssa.randgen import (
    product_basis_kraus,
    random_cq_state,
    random_density,
    random_hermitian,
    random_kraus,
    random_positive,
    random_povm,
)

from test_linalg import expm_oracle, forbid_eigensolves, traced_peak
from test_measurement import basis_povm


def product_state(seeds, dims):
    mats = [random_density((d,), d, s).mat for s, d in zip(seeds, dims)]
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return DensityMatrix(out, dims)


def ghz_state():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), (2, 2, 2))


def bell_state():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), (2, 2))


class TestSsa:
    def test_product_saturates(self):
        r = check_ssa(product_state((1, 2, 3), (2, 2, 2)))
        assert abs(r.slack) < 1e-9

    def test_ghz(self):
        r = check_ssa(ghz_state())
        assert r.lhs == pytest.approx(-math.log(2), abs=1e-10)
        assert r.rhs == pytest.approx(0.0, abs=1e-10)
        assert r.passed

    def test_random(self):
        r = check_ssa(random_density((2, 2, 2), 4, 5))
        assert r.passed and r.slack >= 0

    def test_factor_count(self):
        with pytest.raises(ValueError):
            check_ssa(random_density((2, 2), 4, 1))


class TestStrongerSsa:
    def test_identity_reduces_to_ssa(self):
        rho = random_density((2, 2, 2), 8, 6)
        base = check_ssa(rho)
        ref = check_stronger_ssa(rho, KrausSet([np.eye(4)], acts_on=(1, 2)))
        assert ref.lhs == pytest.approx(base.lhs, abs=1e-12)
        assert ref.rhs == pytest.approx(base.rhs, abs=1e-12)

    def test_classical_equality(self):
        rho = random_cq_state((2, 2, 2), 7)
        r = check_stronger_ssa(rho, product_basis_kraus(2, 2))
        assert abs(r.slack) <= 1e-8

    def test_random_passes(self):
        rho = random_density((2, 2, 2), 8, 8)
        k = random_kraus(4, 3, 9, acts_on=(1, 2))
        assert check_stronger_ssa(rho, k).passed


class TestSandwich:
    def test_identity_collapses(self):
        rho = random_density((2, 2, 2), 8, 12)
        base = check_ssa(rho)
        left, right = check_sandwich(rho, KrausSet([np.eye(2)], acts_on=(1,)))
        assert left.rhs == pytest.approx(base.rhs, abs=1e-12)
        assert right.lhs == pytest.approx(base.rhs, abs=1e-12)
        assert abs(right.slack) < 1e-12

    def test_random_both_links(self):
        rho = random_density((2, 3, 2), 12, 13)
        k = random_kraus(2, 3, 14, acts_on=(1,))
        left, right = check_sandwich(rho, k)
        assert left.passed and right.passed

    def test_product_on_factor_one(self):
        rho1 = random_density((2,), 2, 15)
        rho23 = random_density((2, 2), 4, 16)
        rho = DensityMatrix(kron(rho1.mat, rho23.mat), (2, 2, 2))
        k = random_kraus(2, 3, 17, acts_on=(1,))
        left, right = check_sandwich(rho, k)
        s23 = von_neumann(rho23)
        s2 = von_neumann(partial_trace(rho, {2}))
        assert left.rhs == pytest.approx(s23 - s2, abs=1e-9)
        assert abs(left.slack) < 1e-9
        assert abs(right.slack) < 1e-9

    def test_rejects_two_factor_kraus(self):
        rho = random_density((2, 2, 2), 8, 18)
        with pytest.raises(ValueError):
            check_sandwich(rho, KrausSet([np.eye(4)], acts_on=(1, 2)))

    def test_chain_consistency_with_ssa(self):
        rho = random_density((2, 2, 2), 8, 19)
        k = random_kraus(2, 2, 20, acts_on=(1,))
        base = check_ssa(rho)
        left, right = check_sandwich(rho, k)
        assert abs(left.lhs - base.lhs) < 1e-12
        assert abs(right.rhs - base.rhs) < 1e-12


class TestConcaveMap:
    def test_linear_case(self):
        k = [np.eye(2)]
        l_op = np.zeros((2, 2))
        a = [random_positive(2, 21, 0)]
        b = [random_positive(2, 21, 1)]
        # exp(L + ln A) with L = 0 is A itself, so the map is Tr A: linear
        assert trace_exp_map(l_op, k, a) == pytest.approx(np.trace(a[0]).real, abs=1e-10)
        assert abs(check_concave_map(l_op, k, a, b).slack) <= 1e-10

    def test_equal_arguments(self):
        k = random_kraus(3, 2, 22).ops
        l_op = random_hermitian(3, 23)
        a_ops = [random_positive(3, 24, j) for j in range(2)]
        assert abs(check_concave_map(l_op, k, a_ops, a_ops).slack) < 1e-10

    def test_random_dim3(self):
        k = random_kraus(3, 2, 25).ops
        l_op = random_hermitian(3, 26)
        a = [random_positive(3, 27, j) for j in range(2)]
        b = [random_positive(3, 28, j) for j in range(2)]
        r = check_concave_map(l_op, k, a, b)
        assert r.slack >= -1e-9

    def test_sub_complete_kraus(self):
        ops = [op * np.sqrt(0.7) for op in random_kraus(2, 2, 29).ops]
        l_op = random_hermitian(2, 30)
        a = [random_positive(2, 31, j) for j in range(2)]
        b = [random_positive(2, 32, j) for j in range(2)]
        assert check_concave_map(l_op, ops, a, b).slack >= -1e-9

    @pytest.mark.parametrize("dim,m", [(2, 1), (3, 2), (4, 3)])
    def test_trace_exp_matches_matrix_exp_oracle(self, dim, m):
        ops = random_kraus(dim, m, 37).ops
        l_op = random_hermitian(dim, 38)
        a_ops = [random_positive(dim, 39, j) for j in range(m)]
        h = l_op + sum(op.conj().T @ matrix_log(a) @ op for op, a in zip(ops, a_ops))
        oracle = np.trace(expm_oracle(h)).real
        assert trace_exp_map(l_op, ops, a_ops) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_indefinite_argument(self):
        with pytest.raises(ValueError):
            check_concave_map(np.zeros((2, 2)), [np.eye(2)], [np.diag([1.0, -0.2])], [random_positive(2, 21, 1)])

    @pytest.mark.parametrize("case,evaluations", [
        ("b-indefinite", 2), ("a-count", 0), ("b-count", 0), ("operator-shape", 0), ("l-shape", 0),
    ])
    def test_rejects_bad_arguments_before_any_mixture(self, monkeypatch, case, evaluations):
        k = random_kraus(2, 2, 43).ops
        l_op = random_hermitian(2, 44)
        a = [random_positive(2, 45, j) for j in range(2)]
        b = [random_positive(2, 46, j) for j in range(2)]
        if case == "b-indefinite":
            b[1] = np.diag([1.0, -0.2])
        elif case == "a-count":
            a = a[:1]
        elif case == "b-count":
            b.append(random_positive(2, 47))
        elif case == "operator-shape":
            b[0] = random_positive(3, 47)
        else:
            l_op = random_hermitian(3, 44)
        calls = []
        real = qssa.checks.trace_exp_map
        monkeypatch.setattr(qssa.checks, "trace_exp_map",
                            lambda *args: calls.append(args) or real(*args))
        with pytest.raises(ValueError):
            check_concave_map(l_op, k, a, b)
        # shapes and counts fail before f(A); a non-PD B fails in f(B), before any mixture
        assert len(calls) == evaluations

    @pytest.mark.parametrize("case", ["over-complete", "non-finite"])
    def test_rejects_k_outside_the_hypothesis_before_any_log(self, monkeypatch, case):
        # the theorem needs finite K with sum K†K <= I; here sum K†K = 1.1 I
        ops = [op * np.sqrt(1.1) for op in random_kraus(2, 2, 50).ops]
        if case == "non-finite":
            ops[1] = np.diag([np.nan, 0.1])

        def no_log(*args):
            raise AssertionError("matrix_log ran before the K operators were checked")

        monkeypatch.setattr(qssa.checks, "matrix_log", no_log)
        a = [random_positive(2, 51, j) for j in range(2)]
        with pytest.raises(ValueError, match="exceeds I" if case == "over-complete" else "non-finite"):
            check_concave_map(np.zeros((2, 2)), ops, a, a)

    def test_trace_exp_map_rejects_short_argument_tuple(self):
        k = random_kraus(2, 2, 48).ops
        with pytest.raises(ValueError):
            trace_exp_map(np.zeros((2, 2)), k, [random_positive(2, 49)])


class TestGibbs:
    def test_gibbs_state_saturates(self):
        h = random_hermitian(4, 33)
        eh = expm_oracle(h)
        rho = DensityMatrix(eh / np.trace(eh).real, (4,))
        r = check_gibbs_variational(rho, h)
        assert abs(r.slack) < 1e-9

    def test_zero_hamiltonian(self):
        rho = random_density((4,), 4, 34)
        r = check_gibbs_variational(rho, np.zeros((4, 4)))
        assert r.lhs == pytest.approx(von_neumann(rho), abs=1e-12)
        assert r.rhs == pytest.approx(math.log(4), abs=1e-12)

    def test_random(self):
        rho = random_density((2, 3), 6, 35)
        h = random_hermitian(6, 36)
        assert check_gibbs_variational(rho, h).passed

    def test_rejects_h_beyond_the_state_asymmetry_bound(self, monkeypatch):
        rho = random_density((2,), 2, 34)
        h = np.array([[0.0, 5e-9], [0.0, 1.0]])
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="asymmetry 5.000e-09"):
            check_gibbs_variational(rho, h)

    @pytest.mark.parametrize("dims,rank", [((2, 3), 6), ((2, 3), 1), ((4, 4, 4), 64)])
    def test_sides_match_dense_oracle(self, dims, rank):
        d = math.prod(dims)
        rho = random_density(dims, rank, 40)
        h = random_hermitian(d, 41)
        r = check_gibbs_variational(rho, h)
        assert r.rhs == pytest.approx(math.log(np.trace(expm_oracle(h)).real), rel=1e-12)
        trace_term = np.trace(rho.mat @ h).real
        assert r.lhs - von_neumann(rho) == pytest.approx(trace_term, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (8, 8, 8)])
    @pytest.mark.parametrize("asym", [0.0, 1e-12])
    def test_trace_term_has_the_bytes_of_the_transposed_product(self, dims, asym):
        # Tr(rho H) is summed from rho * conj(H) in H's own buffer: the hermitized H is exactly
        # Hermitian, so this is sum(rho * H.T) bit for bit, also for an input H that is not
        d = math.prod(dims)
        rho = random_density(dims, d, 42)
        h = random_hermitian(d, 43) + asym * np.triu(np.ones((d, d)), 1)
        herm, _ = hermitize(h)
        r = check_gibbs_variational(rho, h)
        assert r.lhs == von_neumann(rho) + float(np.sum(rho.mat * herm.T).real)

    def test_holds_one_full_size_array_besides_its_inputs(self):
        # the hermitized H, overwritten by rho * conj(H) once it is solved
        rho = random_density((8, 8, 8), 512, 44)
        h = random_hermitian(512, 45)
        peak = traced_peak(lambda: check_gibbs_variational(rho, h))
        assert peak < 1.5 * rho.mat.nbytes, f"peak {peak / rho.mat.nbytes:.2f}x the state's bytes"


class TestCptMonotonicity:
    def test_trivial_first_factor_is_relabeling(self):
        rho = random_density((1, 2, 3), 6, 37)
        r = check_cpt_monotonicity(rho, KrausSet([np.eye(2)], acts_on=(1, 2)))
        assert abs(r.slack) < 1e-9

    def test_product_state_both_sides_vanish(self):
        rho12 = random_density((2, 2), 4, 38)
        rho3 = random_density((2,), 2, 39)
        rho = DensityMatrix(kron(rho12.mat, rho3.mat), (2, 2, 2))
        k = random_kraus(4, 2, 40, acts_on=(1, 2))
        r = check_cpt_monotonicity(rho, k)
        assert abs(r.lhs) < 1e-9 and abs(r.rhs) < 1e-9 and abs(r.slack) < 1e-9

    def test_random_with_identity_oracle(self):
        rho = random_density((2, 2, 2), 8, 41)
        k = random_kraus(4, 3, 42, acts_on=(1, 2))
        r = check_cpt_monotonicity(rho, k)
        assert r.passed
        assert r.meta["identity_residual"] <= 1e-8
        # left side is the mutual information between (1,2) and 3
        s12 = von_neumann(partial_trace(rho, {1, 2}))
        s3 = von_neumann(partial_trace(rho, {3}))
        assert r.lhs == pytest.approx(s12 + s3 - von_neumann(rho), abs=1e-9)

    def test_skip_is_oriented_like_a_passing_report(self, monkeypatch):
        rho = random_density((2, 2, 2), 8, 41)
        k = random_kraus(4, 3, 42, acts_on=(1, 2))
        ok = check_cpt_monotonicity(rho, k)
        values = iter([math.inf, 0.5])  # H(rho, product) is the lhs, H(Phi rho, Phi product) the rhs
        monkeypatch.setattr(qssa.checks, "relative_entropy", lambda rho, sigma: next(values))
        skipped = check_cpt_monotonicity(rho, k)
        assert skipped.status == "skipped" and skipped.meta["reason"] == "support"
        assert skipped.relation == ok.relation == ">="
        assert skipped.meta["lhs_finite"] is False and skipped.meta["rhs_finite"] is True
        assert list(skipped.meta) == ["lhs_finite", "rhs_finite", "reason"]  # reason last, as every skip
        assert (skipped.lhs, skipped.rhs, skipped.slack) == (None, None, None)
        assert (skipped.tol, skipped.passed) == (0.0, True)

    def test_each_state_is_measured_once(self, monkeypatch):
        # rho123's outcome blocks serve both Phi(rho123) and the ensemble
        import qssa.measurement

        measured = []
        apply = qssa.measurement.apply_kraus_op

        def counting(rho, k):
            measured.append(rho)
            return apply(rho, k)

        for mod in (qssa.checks, qssa.measurement):
            monkeypatch.setattr(mod, "apply_kraus_op", counting)
        rho = random_density((2, 2, 2), 8, 41)
        check_cpt_monotonicity(rho, random_kraus(4, 3, 42, acts_on=(1, 2)))
        assert len(measured) == 2
        assert measured[0] is rho and measured[1].dims == rho.dims

    @pytest.mark.parametrize("count", [2, 3])
    def test_product_state_is_never_solved_at_full_size(self, monkeypatch, count):
        # At 4,4,4 with m <= 3 Kraus operators no Phi image is 64-dim, so every
        # 64x64 eigensolve is of rho123 or of rho12 x rho3. The product takes
        # its eigensystem from rho12 and rho3: no 64x64 eigh, and the one
        # 64x64 eigvalsh is S[rho123] inside H(rho123, rho12 x rho3).
        rho = random_density((4, 4, 4), 64, 90)
        k = random_kraus(16, count, 91, acts_on=(1, 2))
        shapes = {"eigh": [], "eigvalsh": []}

        def recording(fn, out):
            def call(a, *args, **kw):
                out.append(np.shape(a))
                return fn(a, *args, **kw)
            return call

        for name, out in shapes.items():
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name), out))
        r = check_cpt_monotonicity(rho, k)
        assert r.passed and r.status == "ok"
        assert (64, 64) not in shapes["eigh"]
        assert shapes["eigvalsh"].count((64, 64)) == 1
        assert sorted(shapes["eigh"])[:2] == [(4, 4), (16, 16)]

    def test_peak_memory_stays_below_three_states(self):
        # at 8,8,8 besides rho123: rho12 x rho3, its V while H(rho123, rho12 x rho3) is
        # summed (released before rho123 is solved), and blocks of ~64-256 KB
        rho = random_density((8, 8, 8), 512, 92)
        k = random_kraus(64, 3, 93, acts_on=(1, 2))
        peak = traced_peak(lambda: check_cpt_monotonicity(rho, k))
        assert peak < 3 * rho.mat.nbytes, f"peak {peak / rho.mat.nbytes:.2f}x the state's bytes"


class TestImprovedSubadd:
    def test_trivial_povm(self):
        rho = random_density((2, 3), 6, 43)
        left, right = check_improved_subadd(rho, Povm([np.eye(2)]))
        assert abs(right.slack) < 1e-9
        s1 = von_neumann(partial_trace(rho, {1}))
        s2 = von_neumann(partial_trace(rho, {2}))
        assert left.rhs == pytest.approx(s1 + s2, abs=1e-9)

    def test_product_state(self):
        rho = product_state((44, 45), (2, 3))
        p = random_povm(2, 3, 46)
        left, right = check_improved_subadd(rho, p)
        assert abs(left.slack) < 1e-9
        assert abs(right.slack) < 1e-9

    def test_random(self):
        rho = random_density((2, 3), 6, 47)
        p = random_povm(2, 4, 48)
        left, right = check_improved_subadd(rho, p)
        assert left.passed and right.passed

    def test_measured_conditional_entropy_is_never_negative(self):
        # outcome 1 has weight 2e-13 spread over two eigenvalues of 1e-13,
        # all under the clamp floor: its n ln n must be dropped with the
        # block's spectrum, not added on its own (that gave -5.8e-12)
        rho = DensityMatrix(np.diag([1 - 2e-13, 0, 1e-13, 1e-13]), (2, 2))
        value = qssa.checks._measured_conditional_entropy(rho, basis_povm(2))
        assert 0 <= value <= 2e-13 * math.log(2)

    def test_block_mass_below_the_floor_adds_nothing(self):
        # outcome 1 weighs 2e-12, above the floor, in four eigenvalues of 5e-13, each
        # below it: n ln n of the kept mass (0) is subtracted, not that of n (-5.4e-11)
        rho = DensityMatrix(np.diag([1 - 2e-12, 0, 0, 0] + [5e-13] * 4), (2, 4))
        assert qssa.checks._measured_conditional_entropy(rho, basis_povm(2)) == 0.0
        first, second = check_cq_chain(rho, basis_povm(2), basis_povm(4))
        s2 = von_neumann(partial_trace(rho, {2}))
        assert first.rhs == second.lhs == -s2  # S_cQ - S_cl[rho1] = 0


class TestCounterexample:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gap_is_ln_d(self, d):
        r = counterexample_two_sided(d)
        assert r.lhs == pytest.approx(math.log(d), abs=1e-10)
        assert abs(r.rhs) < 1e-12
        assert r.meta["gap"] == r.lhs - r.rhs == pytest.approx(math.log(d), abs=1e-10)
        assert (r.status, r.passed, r.dims) == ("expected-violation", True, (d, d))

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            counterexample_two_sided(1)

    def test_d_is_an_integer(self):
        with pytest.raises(ValueError, match="expected an integer, got 2.5"):
            counterexample_two_sided(2.5)
        assert counterexample_two_sided(3.0) == counterexample_two_sided(3)


class TestClassicalMutualInfo:
    def test_product_state(self):
        rho = product_state((49, 50), (2, 2))
        r = check_classical_mutual_info(rho, random_povm(2, 2, 51), random_povm(2, 3, 52))
        assert abs(r.lhs) < 1e-9 and abs(r.rhs) < 1e-9

    def test_bell_with_basis_projectors(self):
        r = check_classical_mutual_info(bell_state(), basis_povm(2), basis_povm(2))
        assert r.lhs == pytest.approx(2 * math.log(2), abs=1e-10)
        assert r.rhs == pytest.approx(math.log(2), abs=1e-10)
        assert r.passed

    def test_random(self):
        rho = random_density((2, 3), 6, 53)
        r = check_classical_mutual_info(rho, random_povm(2, 3, 54), random_povm(3, 2, 55))
        assert r.passed
        assert r.meta["marginal_residual"] <= 1e-10


class TestCqChain:
    def test_trivial_povms(self):
        rho = random_density((2, 3), 6, 56)
        first, second = check_cq_chain(rho, Povm([np.eye(2)]), Povm([np.eye(3)]))
        assert first.slack == pytest.approx(mutual_information(rho), abs=1e-9)
        assert abs(second.slack) < 1e-9

    def test_classical_diagonal_state(self):
        probs = np.array([0.4, 0.1, 0.2, 0.3])
        rho = DensityMatrix(np.diag(probs), (2, 2))
        first, second = check_cq_chain(rho, basis_povm(2), basis_povm(2))
        assert abs(first.slack) < 1e-9
        assert abs(second.slack) < 1e-9

    def test_random(self):
        rho = random_density((2, 3), 6, 57)
        first, second = check_cq_chain(rho, random_povm(2, 2, 58), random_povm(3, 3, 59))
        assert first.passed and second.passed

    @pytest.mark.parametrize("corrupt", [
        lambda r: r * (1 + 1e-6),
        lambda r: r + np.array([[-r[0, 0] - 1e-11, r[0, 0] + 1e-11]] + [[0.0, 0.0]] * (len(r) - 1)),
    ], ids=["unnormalized", "negative"])
    def test_outcome_tables_are_checked_as_distributions(self, monkeypatch, corrupt):
        # each table goes through shannon: finite, none below -CLAMP_REL, summing to 1
        rho = random_density((2, 2), 4, 90)
        p, q = random_povm(2, 2, 91), random_povm(2, 2, 92)
        table = qssa.checks.povm_joint_distribution(rho, p, q)
        monkeypatch.setattr(qssa.checks, "povm_joint_distribution", lambda *args: corrupt(table))
        with pytest.raises(ValueError, match="probabilit"):
            check_cq_chain(rho, p, q)


class TestMeasuredSplit:
    # checks._measured_split: the one path to sum_a n_a (S[rho23_a] - S[rho2_a])
    def test_block_with_trace_below_minus_state_tol_raises(self):
        with pytest.raises(ValueError, match="negative value"):
            _measured_split([np.diag([-2e-9, 0.0])], (1, 2))

    def test_block_with_trace_just_below_zero_is_skipped(self):
        bound, terms, skipped, skipped_mass = _measured_split([np.diag([-5e-10, 0.0])], (1, 2))
        assert (bound, terms, skipped, skipped_mass) == (0, [], 1, 0.0)

    def test_cqq_validates_each_povm_conditional_as_a_state(self, monkeypatch):
        # B / Tr B has eigenvalue -0.6: each conditional is checked as a state, PSD within STATE_TOL
        rho = random_density((2, 2, 2), 8, 87)
        bad = np.diag([0.8, -0.3, 0.0, 0.0]).astype(complex)
        monkeypatch.setattr(qssa.checks, "povm_conditionals", lambda *args, **kwargs: np.array([bad]))
        with pytest.raises(ValueError, match="not PSD"):
            check_cqq(rho, Povm([np.eye(2)]))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (4, 3, 2), (3, 2, 3)])
    def test_kraus_and_povm_paths_give_one_bound(self, dims):
        # K on factor 1 and the POVM {K_a† K_a} have the same outcome blocks, so the same split bound
        rho = random_density(dims, math.prod(dims), 88)
        k = random_kraus(dims[0], 3, 89, acts_on=(1,))
        p = Povm([op.conj().T @ op for op in k.ops])
        left, _ = check_sandwich(rho, k)
        bounds = [left.rhs, check_stronger_ssa(rho, k).rhs, check_cqq(rho, p).rhs]
        assert max(bounds) - min(bounds) < 1e-13


class TestCqq:
    def test_trivial_povm_reduces_to_ssa(self):
        rho = random_density((2, 2, 2), 8, 60)
        base = check_ssa(rho)
        r = check_cqq(rho, Povm([np.eye(2)]))
        assert r.lhs == pytest.approx(base.lhs, abs=1e-10)
        assert r.rhs == pytest.approx(base.rhs, abs=1e-10)

    def test_agrees_with_sqrt_kraus(self):
        rho = random_density((2, 2, 2), 8, 61)
        p = random_povm(2, 3, 62)
        a = check_cqq(rho, p)
        b = check_stronger_ssa(rho, povm_to_kraus(p))
        assert a.lhs == pytest.approx(b.lhs, abs=1e-10)
        assert a.rhs == pytest.approx(b.rhs, abs=1e-10)

    def test_random(self):
        rho = random_density((2, 3, 2), 12, 63)
        assert check_cqq(rho, random_povm(2, 4, 64)).passed


class TestConvexityClMinusQ:
    def test_equal_arguments(self):
        a = random_density((2, 2), 4, 65)
        p = random_povm(2, 2, 66)
        assert abs(check_convexity_cl_minus_q(a, a, p).slack) < 1e-10

    def test_endpoints(self, monkeypatch):
        monkeypatch.setattr(qssa.checks, "DEFAULT_LAMBDAS", (0.0, 1.0))
        a = random_density((2, 2), 4, 67)
        b = random_density((2, 2), 2, 68)
        p = random_povm(2, 3, 69)
        assert abs(check_convexity_cl_minus_q(a, b, p).slack) < 1e-10

    def test_random_midpoint(self):
        a = random_density((2, 3), 6, 70)
        b = random_density((2, 3), 3, 71)
        p = random_povm(2, 2, 72)
        assert check_convexity_cl_minus_q(a, b, p).slack >= -1e-9


class TestHolevo:
    def test_identical_states(self):
        rho = random_density((3,), 3, 73)
        q = random_povm(3, 3, 74)
        r = check_holevo([0.3, 0.7], [rho, rho], q)
        assert abs(r.lhs) < 1e-9 and abs(r.rhs) < 1e-9

    def test_orthogonal_pure_states(self):
        q = basis_povm(3)
        states = [DensityMatrix(pmat, (3,)) for pmat in q.elements]
        weights = [0.5, 0.25, 0.25]
        r = check_holevo(weights, states, q)
        assert r.lhs == pytest.approx(shannon(weights), abs=1e-10)
        assert r.rhs == pytest.approx(shannon(weights), abs=1e-10)

    def test_random(self):
        states = [random_density((4,), 4, 75, substream=j) for j in range(3)]
        q = random_povm(4, 3, 76)
        assert check_holevo([0.2, 0.5, 0.3], states, q).passed

    def test_rejects_bad_weights(self):
        rho = random_density((2,), 2, 77)
        with pytest.raises(ValueError):
            check_holevo([0.4, 0.4], [rho, rho], random_povm(2, 2, 78))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, -math.inf]])
    def test_rejects_non_finite_weights_before_any_eigensolve(self, monkeypatch, weights):
        rho = random_density((2,), 2, 77)
        q = random_povm(2, 2, 78)
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="finite"):
            check_holevo(weights, [rho, rho], q)

    @pytest.mark.parametrize("weights", [[[0.5], [0.5]], [1.5, -0.5]], ids=["2-d", "negative"])
    def test_rejects_malformed_weights_before_any_table(self, monkeypatch, weights):
        rho = random_density((2,), 2, 77)
        q = random_povm(2, 2, 78)
        forbid_eigensolves(monkeypatch)
        monkeypatch.setattr(qssa.checks, "shannon", lambda p: pytest.fail("table built"))
        with pytest.raises(ValueError, match="weights"):
            check_holevo(weights, [rho, rho], q)


class TestReportInvariants:
    def test_pass_recomputable(self):
        rho = random_density((2, 2, 2), 8, 79)
        k = random_kraus(4, 2, 80, acts_on=(1, 2))
        for r in (check_ssa(rho), check_stronger_ssa(rho, k), check_cpt_monotonicity(rho, k)):
            margin = (r.rhs - r.lhs) if r.relation == "<=" else (r.lhs - r.rhs)
            assert r.slack == pytest.approx(margin, abs=0.0)
            assert r.passed == (r.slack >= -r.tol)

    def test_json_schema(self):
        r = check_ssa(random_density((2, 2, 2), 8, 81))
        obj = r.to_json_dict()
        assert list(obj) == ["name", "seed", "dims", "lhs", "rhs", "slack", "tol", "pass", "status", "meta"]
        assert obj["status"] == "ok"
        assert obj["meta"]["relation"] == "<="


def test_factor_guards_raise_before_any_work(monkeypatch):
    import qssa.entropy
    import qssa.measurement
    import qssa.wehrl
    from qssa.entropy import classical_quantum_entropy
    from qssa.measurement import cpt_phi, povm_joint_distribution
    from qssa.wehrl import check_wehrl_mutual_info

    rho2 = random_density((2, 2), 4, 82)
    rho3 = random_density((2, 2, 2), 8, 83)
    k = random_kraus(4, 2, 84, acts_on=(1, 2))
    k1 = random_kraus(2, 2, 86, acts_on=(1,))
    p = random_povm(2, 2, 85)
    # each of the 12 guards, given a state with the wrong factor count
    calls = [
        (3, check_ssa, (rho2,)),
        (3, check_stronger_ssa, (rho2, k)),
        (3, check_sandwich, (rho2, k1)),
        (3, check_cpt_monotonicity, (rho2, k)),
        (2, check_improved_subadd, (rho3, p)),
        (2, check_cq_chain, (rho3, p, p)),
        (3, check_cqq, (rho2, p)),
        (2, mutual_information, (rho3,)),
        (2, classical_quantum_entropy, (rho3, p)),
        (3, cpt_phi, (rho2, k)),
        (2, povm_joint_distribution, (rho3, p, p)),
        (2, check_wehrl_mutual_info, (rho3,)),
    ]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the factor-count guard")

    for mod in (qssa.checks, qssa.entropy, qssa.measurement, qssa.wehrl):
        for name in ("partial_trace", "ptrace_mat", "von_neumann", "povm_conditionals",
                     "apply_kraus_op", "relative_entropy", "_grids_for"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, no_work)
    for n, fn, args in calls:
        with pytest.raises(ValueError, match=f"need a {n}-factor state, got dims"):
            fn(*args)
