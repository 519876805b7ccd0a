"""Core linear algebra against brute-force index oracles and golden cases."""

import tracemalloc

import numpy as np
import pytest

from qssa.linalg import (
    CLAMP_REL,
    STATE_TOL,
    DensityMatrix,
    as_dims,
    hermitian_eig,
    hermitian_eigvalsh,
    hermitize,
    kron,
    kron_state,
    matrix_log,
    partial_trace,
    ptrace_mat,
    require_distribution,
    require_factors,
    require_same_dims,
    require_psd,
    require_residual,
    require_same_mass,
    sqrtm_psd,
)
from qssa.randgen import complex_gaussian, random_density, rng_for

NON_FINITE = [float("nan"), float("inf"), complex(0.0, float("nan"))]


def forbid_eigensolves(monkeypatch):
    """Fail the test on any eigvalsh or eigh call."""
    def never(*args, **kw):
        raise AssertionError("eigensolve on input that should have been rejected")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, never)


def traced_peak(fn) -> int:
    """Bytes at the `tracemalloc` peak while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expm_oracle(h):
    """exp(H) of a Hermitian matrix from numpy's eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w)) @ v.conj().T


def trace_distance(a, b):
    """Half the trace norm of a - b, from singular values (an oracle for tests)."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return 0.5 * float(np.linalg.svd(a.mat - b.mat, compute_uv=False).sum())


def kron_oracle(a, b):
    """Entrywise (A x B)[ip+k, jq+l] = A[i,j] B[k,l]."""
    n, m = a.shape
    p, q = b.shape
    out = np.zeros((n * p, m * q), dtype=complex)
    for i in range(n):
        for j in range(m):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def ptrace_oracle(mat, dims, keep):
    """Explicit multi-index summation over the traced factors (1-based keep)."""
    n = len(dims)
    keep0 = sorted(k - 1 for k in keep)
    traced = [i for i in range(n) if i not in keep0]
    kept_dims = [dims[i] for i in keep0]
    dk = int(np.prod(kept_dims))
    out = np.zeros((dk, dk), dtype=complex)

    def flat(idx):
        r = 0
        for i, d in enumerate(dims):
            r = r * d + idx[i]
        return r

    for a in np.ndindex(*kept_dims):
        for b in np.ndindex(*kept_dims):
            acc = 0.0 + 0.0j
            for t in np.ndindex(*[dims[i] for i in traced]):
                ia = [0] * n
                ib = [0] * n
                for pos, i in enumerate(keep0):
                    ia[i] = a[pos]
                    ib[i] = b[pos]
                for pos, i in enumerate(traced):
                    ia[i] = t[pos]
                    ib[i] = t[pos]
                acc += mat[flat(ia), flat(ib)]
            ra = int(np.ravel_multi_index(a, kept_dims)) if kept_dims else 0
            rb = int(np.ravel_multi_index(b, kept_dims)) if kept_dims else 0
            out[ra, rb] = acc
    return out


class TestHilbertDims:
    def test_total(self):
        rho = DensityMatrix(np.eye(12) / 12, (2, 3, 2))
        assert rho.mat.shape == (12, 12)
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(6) / 6, (2, 3, 2))

    def test_tuple_of_ints(self):
        dims = as_dims([2, "3", np.int64(2)])
        assert dims == (2, 3, 2) and type(dims) is tuple
        assert all(type(d) is int for d in dims)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            as_dims(())
        with pytest.raises(ValueError):
            as_dims((2, 0))

    @pytest.mark.parametrize("dims", [[2.7, 3], [2, np.float64(1.5)], ["2.5"]], ids=["float", "np-float", "str"])
    def test_rejects_non_integral(self, dims):
        # int() would truncate 2.7 to 2 and accept the wrong factor
        with pytest.raises(ValueError):
            as_dims(dims)

    def test_integral_floats_are_ints(self):
        assert as_dims([2.0, np.float64(3.0)]) == (2, 3)

    @pytest.mark.parametrize("dims", ["222", "10", b"22"])
    def test_rejects_a_string(self, dims):
        # iterating "222" would give the dims (2, 2, 2); a list of digit strings, as the CLI passes, is fine
        with pytest.raises(ValueError, match="dims must be a sequence of integers"):
            as_dims(dims)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar_factor(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0]))
        assert np.array_equal(out, np.diag([3.0, 6.0]))

    def test_index_formula_oracle(self):
        rng = rng_for(101)
        a = complex_gaussian(rng, (2, 2))
        b = complex_gaussian(rng, (2, 2))
        assert np.abs(kron(a, b) - kron_oracle(a, b)).max() < 1e-15

    def test_associativity(self):
        rng = rng_for(102)
        a, b, c = (complex_gaussian(rng, (2, 2)) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.abs(left - right).max() < 1e-13


class TestPartialTrace:
    def test_product_state(self):
        sa = random_density((2,), 2, 1)
        sb = random_density((3,), 3, 2)
        rho = DensityMatrix(kron(sa.mat, sb.mat), (2, 3))
        out = partial_trace(rho, {1})
        assert np.abs(out.mat - sa.mat).max() < 1e-12

    def test_bell_reduction(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi.conj()), (2, 2))
        out = partial_trace(rho, {1})
        assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12

    def test_triple_index_oracle(self):
        rho = random_density((2, 3, 2), 12, 7)
        out = partial_trace(rho, {1, 3})
        expect = ptrace_oracle(rho.mat, (2, 3, 2), (1, 3))
        assert np.abs(out.mat - expect).max() < 1e-12
        assert out.dims == (2, 2)

    def test_composition(self):
        rho = random_density((2, 2, 3), 12, 9)
        direct = partial_trace(rho, {2})
        via = partial_trace(partial_trace(rho, {2, 3}), {1})
        assert np.abs(direct.mat - via.mat).max() < 1e-12

    def test_trace_preserved(self):
        rho = random_density((2, 3, 2), 5, 11)
        for keep in ({1}, {2}, {3}, {1, 2}, {2, 3}):
            assert abs(partial_trace(rho, keep).trace() - rho.trace()) < 1e-12

    def test_errors(self):
        rho = random_density((2, 2), 4, 3)
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {3})

    def test_ptrace_mat_labels_are_1_based(self):
        rho = random_density((2, 3, 2), 12, 7)
        out = ptrace_mat(rho.mat, (2, 3, 2), {1, 3})
        assert np.array_equal(out, partial_trace(rho, {1, 3}).mat)

    @pytest.mark.parametrize("keep", [{1.9}, {1, 2.5}], ids=["1.9", "2.5"])
    def test_rejects_non_integral_labels(self, keep):
        # int() would truncate 1.9 to 1 and keep factor 1
        rho = random_density((2, 3, 2), 12, 7)
        with pytest.raises(ValueError):
            partial_trace(rho, keep)
        with pytest.raises(ValueError):
            ptrace_mat(rho.mat, rho.dims, keep)

    def test_rejects_a_string_of_labels_or_dims(self):
        # "13" would keep factors 1 and 3; ptrace_mat takes its dims through as_dims
        rho = random_density((2, 2, 2), 8, 3)
        with pytest.raises(ValueError, match="keep must be a sequence of integers"):
            partial_trace(rho, "13")
        with pytest.raises(ValueError, match="keep must be a sequence of integers"):
            ptrace_mat(rho.mat, rho.dims, b"13")
        with pytest.raises(ValueError, match="dims must be a sequence of integers"):
            ptrace_mat(np.eye(4), "22", (1,))
        assert np.array_equal(partial_trace(rho, iter([3, 1])).mat, ptrace_mat(rho.mat, ["2", "2", "2"], (1, 3)))

    @pytest.mark.parametrize("keep", [{0}, {4}, {-1}, set()], ids=["0", "4", "-1", "empty"])
    def test_ptrace_mat_rejects_bad_labels(self, keep):
        rho = random_density((2, 2, 2), 8, 3)
        with pytest.raises(ValueError):
            ptrace_mat(rho.mat, (2, 2, 2), keep)


class TestHermitianEig:
    def test_diagonal(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_x(self):
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = rng_for(103)
        g = complex_gaussian(rng, (6, 6))
        m = (g + g.conj().T) / 2
        w, v = hermitian_eig(m)
        assert np.linalg.norm((v * w) @ v.conj().T - m) < 1e-9
        assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10
        scale = 1e-10 * max(1.0, np.linalg.norm(m, 2))
        for i in range(6):
            assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) < scale

    def test_eigenvalue_sum_is_trace(self):
        rng = rng_for(104)
        g = complex_gaussian(rng, (8, 8))
        m = (g + g.conj().T) / 2
        w, _ = hermitian_eig(m)
        assert abs(w.sum() - np.trace(m).real) < 1e-10 * 8

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3)))


class TestMatrixFunctions:
    def test_log_identity(self):
        out = matrix_log(np.eye(3))
        assert np.abs(out).max() < 1e-14

    def test_log_diagonal(self):
        out = matrix_log(np.diag([1.0, np.e]))
        assert np.abs(out - np.diag([0.0, 1.0])).max() < 1e-14

    def test_exp_log_round_trip(self):
        rng = rng_for(105)
        g = complex_gaussian(rng, (5, 5))
        a = g @ g.conj().T + 0.5 * np.eye(5)
        assert np.linalg.norm(expm_oracle(matrix_log(a)) - a) < 1e-9

    def test_log_unclamped_rejects_singular(self):
        with pytest.raises(ValueError):
            matrix_log(np.diag([1.0, 0.0]))

    def test_sqrtm(self):
        rng = rng_for(106)
        g = complex_gaussian(rng, (4, 4))
        a = g @ g.conj().T
        r = sqrtm_psd(a)
        assert np.abs(r @ r - a).max() < 1e-10


class TestTraceDistance:
    def test_identity_case(self):
        rho = random_density((2, 2), 4, 21)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        z = np.zeros((2, 2), dtype=complex)
        a = z.copy()
        a[0, 0] = 1
        b = z.copy()
        b[1, 1] = 1
        assert abs(trace_distance(DensityMatrix(a, (2,)), DensityMatrix(b, (2,))) - 1.0) < 1e-14

    def test_eigenvalue_oracle(self):
        a = random_density((2, 2), 4, 22)
        b = random_density((2, 2), 2, 23)
        expect = 0.5 * np.abs(np.linalg.eigvalsh(a.mat - b.mat)).sum()
        assert abs(trace_distance(a, b) - expect) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(random_density((2,), 2, 1), random_density((3,), 3, 1))


class TestDensityMatrix:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_asymmetric(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(m, (2,))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_before_any_eigensolve(self, monkeypatch, bad):
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix([[bad, 0], [0, 0.5]], (2,))

    def test_validation_holds_one_copy_of_the_state(self):
        # hermitize writes M† into its result and symmetrizes in place, so validating a
        # 1089-dim state (two 2j = 32 spins) allocates its bytes once, with no temporaries
        # of its size
        m = np.eye(1089, dtype=complex) / 1089
        peak = traced_peak(lambda: DensityMatrix(m, (33, 33)))
        assert peak < 1.2 * m.nbytes, f"peak {peak / m.nbytes:.2f}x the state's bytes"

    def test_repr(self):
        assert repr(DensityMatrix(np.eye(6) / 6, (2, 3))) == "DensityMatrix(dims=(2, 3), trace=1.000000)"

    def test_matrix_is_frozen(self):
        rho = random_density((2,), 2, 5)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0

    def test_require_factors(self):
        rho = random_density((2, 3), 6, 5)
        require_factors(rho, 2)
        with pytest.raises(ValueError, match=r"need a 3-factor state, got dims \(2, 3\)"):
            require_factors(rho, 3)

    def test_require_same_dims(self):
        a, b = random_density((2, 3), 6, 5), random_density((6,), 6, 5)
        require_same_dims(a, random_density((2, 3), 3, 6))
        with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 3\) vs \(6,\)"):
            require_same_dims(a, b)


# Factor dims of the two states of a product: 2x2, 4x2 and 8x8.
KRON_FACTORS = [((2,), (2,)), ((2, 2), (2,)), ((8,), (8,))]
KRON_IDS = ["2x2", "4x2", "8x8"]


class TestKronState:
    @staticmethod
    def factors(dims_a, dims_b, seed=7):
        a = random_density(dims_a, int(np.prod(dims_a)), seed, substream=1)
        b = random_density(dims_b, int(np.prod(dims_b)), seed, substream=2)
        return a, b

    @pytest.mark.parametrize("dims_a, dims_b", KRON_FACTORS, ids=KRON_IDS)
    def test_state_is_the_kronecker_product(self, dims_a, dims_b):
        a, b = self.factors(dims_a, dims_b)
        prod = kron_state(a, b)
        assert prod.dims == dims_a + dims_b
        assert np.array_equal(prod.mat, kron(a.mat, b.mat))

    @pytest.mark.parametrize("dims_a, dims_b", KRON_FACTORS, ids=KRON_IDS)
    def test_eigensystem_rebuilds_the_product(self, dims_a, dims_b):
        a, b = self.factors(dims_a, dims_b)
        w, v = kron_state(a, b).eigh()
        assert np.abs(v @ np.diag(w) @ v.conj().T - kron(a.mat, b.mat)).max() <= 1e-13
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-13

    @pytest.mark.parametrize("dims_a, dims_b", KRON_FACTORS, ids=KRON_IDS)
    def test_spectrum_is_ascending_and_matches_eigvalsh(self, dims_a, dims_b):
        a, b = self.factors(dims_a, dims_b)
        w, _ = kron_state(a, b).eigh()
        assert np.all(np.diff(w) >= 0)
        assert np.abs(w - np.linalg.eigvalsh(kron(a.mat, b.mat))).max() <= 1e-14

    def test_eigensystem_is_frozen(self):
        w, v = kron_state(*self.factors((2,), (3,))).eigh()
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    @pytest.mark.parametrize("dims_a, dims_b", KRON_FACTORS + [((2, 3), (4,))], ids=KRON_IDS + ["6x4"])
    def test_eigenvectors_are_the_sorted_factor_kron(self, monkeypatch, dims_a, dims_b):
        # V is formed on each eigh() call, with no eigensolve: the columns of V_a ⊗ V_b in
        # the stable ascending order of w_a ⊗ w_b, bit for bit, and read-only every time
        a, b = self.factors(dims_a, dims_b)
        prod = kron_state(a, b)
        (wa, va), (wb, vb) = a.eigh(), b.eigh()
        order = np.argsort(np.outer(wa, wb).ravel(), kind="stable")
        forbid_eigensolves(monkeypatch)
        for _ in range(2):
            w, v = prod.eigh()
            assert w.tobytes() == np.outer(wa, wb).ravel()[order].tobytes()
            assert v.tobytes() == np.kron(va, vb)[:, order].tobytes()
            assert not w.flags.writeable and not v.flags.writeable

    def test_psd_check_reads_the_given_spectrum(self):
        # the derived spectrum replaces the validation eigensolve, so it is
        # what the PSD check sees
        w = np.array([-1e-3, 0.5, 0.501])
        with pytest.raises(ValueError, match="not PSD"):
            DensityMatrix(np.eye(3) / 3, (3,), _eig=(w, np.eye(3, dtype=complex)))


class TestDensityMatrixEigh:
    def test_matches_hermitian_eig_and_is_solved_once(self, monkeypatch):
        rho = random_density((2, 3), 6, 9)
        w, v = hermitian_eig(rho.mat)
        calls, eigh = [], np.linalg.eigh

        def counting(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        first = rho.eigh()
        assert rho.eigh() is first
        assert calls == [(6, 6)]
        assert np.array_equal(first[0], w) and np.array_equal(first[1], v)


class TestHermitize:
    def test_records_asymmetry(self):
        m = np.array([[1.0, 1e-10], [0.0, 1.0]])
        _, asym = hermitize(m)
        assert asym == pytest.approx(1e-10)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError):
            hermitize(np.array([[1.0, 1e-4], [0.0, 1.0]]))

    def test_operators_share_the_state_bound(self, monkeypatch):
        # an operator 5e-9 off Hermitian is malformed, as a state would be,
        # and is rejected before any eigensolve
        m = np.array([[1.0, 5e-9], [0.0, 1.0]])
        forbid_eigensolves(monkeypatch)
        for fn in (hermitize, hermitian_eig, hermitian_eigvalsh):
            with pytest.raises(ValueError, match="asymmetry 5.000e-09 exceeds tolerance 1.000e-09"):
                fn(m)
        with pytest.raises(ValueError, match="asymmetry"):
            DensityMatrix(m / 2, (2,))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_rejects_non_finite(self, bad, at):
        m = np.eye(2, dtype=complex)
        m[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hermitize(m)

    def test_row_blocks_give_the_bits_of_one_pass(self):
        # 100 rows span three row blocks; the result and the asymmetry are those of (M + M†)/2
        # and max |M - M†| over the whole matrix
        m = complex_gaussian(rng_for(113), (100, 100))
        m = m + m.conj().T
        m[97, 3] += 1e-10
        herm, asym = hermitize(m)
        assert np.array_equal(herm, (m + m.conj().T) / 2) and herm.flags.c_contiguous
        assert asym == np.abs(m - m.conj().T).max() > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("at", [(99, 0), (0, 99), (99, 99)])
    def test_rejects_non_finite_in_a_later_block(self, at):
        m = np.eye(100, dtype=complex)
        m[at] = float("inf")
        with pytest.raises(ValueError, match="non-finite"):
            hermitize(m)



class TestGuards:
    # each bound is compared in one guard, which takes no tolerance; a value at the bound passes
    def test_residual_bound_is_two_sided(self):
        for r in (0.0, STATE_TOL, -STATE_TOL):
            require_residual(r, "x")
        for r in (2e-9, -2e-9):
            with pytest.raises(ValueError, match=f"x {r:.3e} exceeds tolerance 1.000e-09"):
                require_residual(r, "x")

    def test_psd_reads_the_least_eigenvalue(self):
        require_psd(np.array([-STATE_TOL, 1.0]), "m")
        with pytest.raises(ValueError, match="m is not PSD: min eigenvalue -2.000e-09"):
            require_psd(np.array([-2e-9, 1.0]), "m")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p, message", [
        ([0.5, float("nan")], "p must be finite"),
        ([1.5, -0.5], "p have a negative entry -5.000e-01"),
        ([0.5, 0.5 + 2e-9], "sum of p minus 1 2.000e-09 exceeds tolerance"),
        ([], "sum of p minus 1 -1.000e"),
    ], ids=["nan", "negative", "sum", "empty"])
    def test_distribution_rejects(self, p, message):
        with pytest.raises(ValueError, match=message):
            require_distribution(np.array(p, dtype=float), "p")

    def test_distribution_allows_roundoff(self):
        require_distribution(np.array([-CLAMP_REL, 0.5, 0.5 + CLAMP_REL]), "p")

    def test_same_mass_is_a_runtime_error(self):
        # a mass computed two ways that disagrees is a fault of the program, not of its input
        residual = require_same_mass(np.array([1.0, 2.0]), np.array([1.0, 2.0 + 5e-11]), "m disagrees")
        assert residual == pytest.approx(5e-11, rel=1e-4)
        with pytest.raises(RuntimeError, match="m disagrees by 2.000e-10, beyond 1e-10"):
            require_same_mass(1.0, 1.0 + 2e-10, "m disagrees")

    def test_state_trace_goes_through_the_residual_guard(self):
        with pytest.raises(ValueError, match="trace minus 1 -2.000e-09 exceeds tolerance"):
            DensityMatrix(np.eye(2) * (0.5 - 1e-9), (2,))
