"""Generator contracts: validity of outputs and bit-identical replay."""

import numpy as np
import pytest

import qssa.cli
import qssa.randgen
from qssa.entropy import von_neumann
from qssa.linalg import partial_trace
from qssa.randgen import (
    _gram,
    complex_gaussian,
    random_cq_state,
    random_density,
    random_hermitian,
    random_kraus,
    random_positive,
    random_povm,
    random_unitary,
    require_count,
    require_rank,
    require_seed,
    require_trials,
    rng_for,
)

from test_linalg import forbid_eigensolves, traced_peak
from test_measurement import completeness_residual


@pytest.mark.parametrize("shape", [(), (0, 3), (1,), (7, 3), (8193,), (289, 289), (512, 4)])
def test_complex_gaussian_has_the_bytes_of_its_formula(shape):
    # (x + iy)/sqrt2 with x drawn before y, as the module docstring states
    x_then_y = rng_for(3, shape)
    x, y = x_then_y.standard_normal(shape), x_then_y.standard_normal(shape)
    assert complex_gaussian(rng_for(3, shape), shape).tobytes() == ((x + 1j * y) / np.sqrt(2.0)).tobytes()


@pytest.mark.parametrize("dim", [1, 6, 512])
def test_random_hermitian_has_the_bytes_of_its_formula(dim):
    g = complex_gaussian(rng_for(4, 2), (dim, dim))
    assert random_hermitian(dim, 4, 2).tobytes() == ((g + g.conj().T) / 2).tobytes()


def test_complex_gaussian_holds_one_chunk_besides_its_result():
    # x and then y go through ~64 KB chunks, never a half-size array
    peak = traced_peak(lambda: complex_gaussian(rng_for(1), (512, 512)))
    assert peak < 1.1 * 512 * 512 * 16, f"peak {peak / (512 * 512 * 16):.2f}x the result's bytes"


@pytest.mark.parametrize("n", [1, 2, 8, 63, 64, 65, 127, 128, 129, 257, 289, 512])
def test_gram_has_the_bytes_of_one_product(n):
    # 64-column blocks, a last single column merged into the block before: at n = 65 a one-column
    # block would take numpy's matrix-vector path. One BLAS thread, as in every CLI run: at other
    # thread counts the full product itself moves from n = 130 up
    qssa.cli._one_blas_thread()
    for rank in sorted({1, 2, n // 2, n} - {0}):
        g = complex_gaussian(rng_for(8, (n, rank)), (n, rank))
        assert _gram(rng_for(8, (n, rank)), n, rank).tobytes() == (g @ g.conj().T).tobytes(), rank


@pytest.mark.parametrize("fn, bound", [(lambda: _gram(rng_for(1), 512, 512), 2.25),
                                       (lambda: random_density((8, 8, 8), 512, 1), 2.25)], ids=["gram", "density"])
def test_gram_holds_g_and_one_block_besides_its_result(fn, bound):
    # G, the result and one 64-column block of G†, never a full G†
    peak = traced_peak(fn)
    assert peak < bound * 512 * 512 * 16, f"peak {peak / (512 * 512 * 16):.2f}x the result's bytes"


def test_random_hermitian_holds_one_buffer_besides_g():
    # G† is written into the result, G added and the sum halved in place
    peak = traced_peak(lambda: random_hermitian(512, 4))
    assert peak < 2.5 * 512 * 512 * 16, f"peak {peak / (512 * 512 * 16):.2f}x the matrix's bytes"


class TestRandomDensity:
    def test_full_rank(self):
        rho = random_density((2, 2), 4, 5)
        assert np.linalg.eigvalsh(rho.mat).min() > 0

    def test_rank_one_is_pure(self):
        rho = random_density((2, 2), 1, 5)
        assert von_neumann(rho) < 1e-10

    def test_replay(self):
        a = random_density((2, 2), 4, 42)
        b = random_density((2, 2), 4, 42)
        assert np.array_equal(a.mat, b.mat)

    def test_invariants_tight(self):
        for seed in range(5):
            rho = random_density((2, 3), 6, seed)
            assert abs(rho.trace() - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.mat).min() > -1e-12
            assert np.abs(rho.mat - rho.mat.conj().T).max() < 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_density((2, 2), 0, 1)
        with pytest.raises(ValueError):
            random_density((2, 2), 5, 1)

    @pytest.mark.parametrize("dims", ["222", "10", b"22"])
    def test_rejects_a_string_of_dims(self, dims):
        # "222" would be split into the dims (2, 2, 2), and "10" into a 0-dim factor
        with pytest.raises(ValueError, match="dims must be a sequence of integers"):
            random_density(dims, 1, 1)

    def test_substreams_differ(self):
        a = random_density((2,), 2, 7, substream=0)
        b = random_density((2,), 2, 7, substream=1)
        assert not np.array_equal(a.mat, b.mat)


class TestRandomUnitary:
    def test_dim_one(self):
        u = random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-13

    def test_unitarity(self):
        for dim in (2, 5, 9):
            u = random_unitary(dim, 11)
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) < 1e-12

    def test_replay(self):
        assert np.array_equal(random_unitary(4, 42), random_unitary(4, 42))


class TestRandomKraus:
    def test_rejects_a_string_acts_on(self):
        # "12" would be split into the factors (1, 2)
        with pytest.raises(ValueError, match="acts_on must be a sequence of integers"):
            random_kraus(4, 2, 1, acts_on="12")

    def test_count_one_is_unitary(self):
        k = random_kraus(3, 1, 5)
        u = k.ops[0]
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 6, 12, 36])
    @pytest.mark.parametrize("count", [1, 2, 4, 8])
    def test_completeness_grid(self, dim, count):
        k = random_kraus(dim, count, 17)
        assert completeness_residual(k) <= 1e-12

    def test_replay(self):
        a = random_kraus(4, 3, 42)
        b = random_kraus(4, 3, 42)
        for x, y in zip(a.ops, b.ops):
            assert np.array_equal(x, y)


class TestRandomPovm:
    def test_count_one_is_identity(self):
        p = random_povm(3, 1, 5)
        assert np.abs(p.elements[0] - np.eye(3)).max() < 1e-12

    def test_contract(self):
        for count in (2, 4):
            p = random_povm(4, count, 9)
            total = sum(p.elements)
            assert np.abs(total - np.eye(4)).max() < 1e-11
            for el in p.elements:
                assert np.linalg.eigvalsh(el).min() >= -1e-12

    def test_replay(self):
        a = random_povm(3, 4, 42)
        b = random_povm(3, 4, 42)
        for x, y in zip(a.elements, b.elements):
            assert np.array_equal(x, y)

    def test_ill_conditioned_normalizer_is_redrawn_from_the_next_substream(self, monkeypatch):
        # attempt a draws from key + (a,): with attempt 0's T made ill-conditioned, the POVM is
        # the one drawn from key + (1,)
        eig, keys = qssa.randgen.hermitian_eig, []
        monkeypatch.setattr(qssa.randgen, "rng_for", lambda seed, key: keys.append(key) or rng_for(seed, key))

        def first_ill_conditioned(m):
            w, v = eig(m)
            return (np.array([0.0, *w[1:]]) if len(keys) == 1 else w), v

        monkeypatch.setattr(qssa.randgen, "hermitian_eig", first_ill_conditioned)
        p = random_povm(3, 2, 7, 4)
        assert keys == [(4, 0), (4, 1)]
        rng = rng_for(7, (4, 1))
        gs = [complex_gaussian(rng, (3, 3)) for _ in range(2)]
        a_ops = [g @ g.conj().T for g in gs]
        w, v = np.linalg.eigh(sum(a_ops))
        inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        for el, a in zip(p.elements, a_ops, strict=True):
            assert np.abs(el - inv_sqrt @ a @ inv_sqrt).max() < 1e-12

    def test_gives_up_after_five_ill_conditioned_normalizers(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qssa.randgen, "hermitian_eig",
                            lambda m: calls.append(m) or (np.array([0.0, 1.0, 1.0]), np.eye(3)))
        with pytest.raises(RuntimeError, match=r"singular normalizer after 5 attempts \(dim=3, count=2\)"):
            random_povm(3, 2, 7)
        assert len(calls) == 5


class TestRandomCqState:
    def test_block_diagonal_in_product_basis(self):
        rho = random_cq_state((2, 2, 2), 13)
        d3 = 2
        for a in range(4):
            for b in range(4):
                if a != b:
                    block = rho.mat[a * d3 : (a + 1) * d3, b * d3 : (b + 1) * d3]
                    assert np.abs(block).max() == 0.0

    def test_first_two_factors_classical(self):
        rho = random_cq_state((2, 3, 2), 29)
        r12 = partial_trace(rho, {1, 2}).mat
        off = r12 - np.diag(np.diag(r12))
        assert np.abs(off).max() < 1e-14

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2)])
    def test_rejects_other_factor_counts_before_any_eigensolve(self, monkeypatch, dims):
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="need exactly 3 factors"):
            random_cq_state(dims, 13)

    def test_replay(self):
        a = random_cq_state((2, 2, 2), 42)
        b = random_cq_state((2, 2, 2), 42)
        assert np.array_equal(a.mat, b.mat)


def test_rng_for_is_stateless():
    r1 = rng_for(1, (2, 3)).standard_normal(4)
    r2 = rng_for(1, (2, 3)).standard_normal(4)
    assert np.array_equal(r1, r2)
    r3 = rng_for(1, (2, 4)).standard_normal(4)
    assert not np.array_equal(r1, r3)


class TestIntegerRule:
    # seeds, counts, ranks and sizes are integers: a non-integral value is an error, never
    # truncated, and an integral float or numpy value is taken as that int
    @pytest.mark.parametrize("make", [
        lambda: random_density((2, 2), 2.5, 0),
        lambda: random_kraus(2, 2.5, 0),
        lambda: random_povm(2, 2.5, 0),
        lambda: random_unitary(2.5, 0),
        lambda: rng_for(1.5),
        lambda: random_density((2, 2), 4, 1.5),
        lambda: random_kraus(2.5, 2, 0),
        lambda: random_povm(2.5, 2, 0),
        lambda: rng_for(1, (1.5,)),
        lambda: rng_for(1, 1.5),
        lambda: random_hermitian(2.5, 0),
        lambda: random_positive(2.5, 0),
    ], ids=["rank", "kraus-count", "povm-count", "unitary-dim", "rng-seed", "density-seed", "kraus-dim", "povm-dim",
            "substream-entry", "substream", "hermitian-dim", "positive-dim"])
    def test_non_integral_value_rejected(self, make):
        with pytest.raises(ValueError, match="expected an integer"):
            make()

    @pytest.mark.parametrize("make", [random_hermitian, random_positive])
    def test_matrix_dim_follows_the_rule(self, make):
        # dim 2.0 draws the bytes of dim 2; dim 0 is rejected, not drawn as a 0x0 matrix
        assert make(2.0, 5, 3).tobytes() == make(2, 5, 3).tobytes()
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            make(0, 5)

    @pytest.mark.parametrize("substream, key", [
        (3, (3,)), (np.int64(3), (3,)), ((2, np.int32(5)), (2, 5)), ((), ()), (2.0, (2,)), ((1.0, 4), (1, 4)),
    ])
    def test_substream_keys_keep_their_streams(self, substream, key):
        # an integer entry, Python or numpy, keys the stream of its int; an integral float is that int
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=key)))
        assert rng_for(7, substream).standard_normal(4).tobytes() == stream.standard_normal(4).tobytes()

    def test_rules_return_ints(self):
        values = (require_seed(np.float64(3.0)), require_trials(2.0), require_count(np.int64(4)), require_rank(1.0, 4))
        assert values == (3, 2, 4, 1) and all(type(v) is int for v in values)

    @pytest.mark.parametrize("rule, value, message", [
        (require_seed, -1, "seed must be >= 0, got -1"),
        (require_trials, 0, "trials must be >= 1, got 0"),
        (require_count, 0, "count must be >= 1, got 0"),
    ])
    def test_bounds_keep_their_messages(self, rule, value, message):
        with pytest.raises(ValueError, match=message):
            rule(value)

    def test_integral_floats_draw_the_int_streams(self):
        assert rng_for(5.0, 2).standard_normal(3).tobytes() == rng_for(5, 2).standard_normal(3).tobytes()
        assert random_density((2, 2), 2.0, 5.0).mat.tobytes() == random_density((2, 2), 2, 5).mat.tobytes()
        for a, b in zip(random_kraus(2, 3.0, 5).ops, random_kraus(2, 3, 5).ops):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(random_povm(2, 3.0, 5).elements, random_povm(2, 3, 5).elements):
            assert a.tobytes() == b.tobytes()
