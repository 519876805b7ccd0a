"""Generator contracts: validity of outputs and bit-identical replay."""

import numpy as np
import pytest

from qssa.entropy import von_neumann
from qssa.linalg import partial_trace
from qssa.randgen import (
    complex_gaussian,
    random_cq_state,
    random_density,
    random_hermitian,
    random_kraus,
    random_povm,
    random_unitary,
    require_count,
    require_rank,
    require_seed,
    require_trials,
    rng_for,
)

from test_linalg import traced_peak
from test_measurement import completeness_residual


@pytest.mark.parametrize("shape", [(1,), (7, 3), (289, 289), (512, 4)])
def test_complex_gaussian_has_the_bytes_of_its_formula(shape):
    # (x + iy)/sqrt2 with x drawn before y, as the module docstring states
    x_then_y = rng_for(3, shape)
    x, y = x_then_y.standard_normal(shape), x_then_y.standard_normal(shape)
    assert complex_gaussian(rng_for(3, shape), shape).tobytes() == ((x + 1j * y) / np.sqrt(2.0)).tobytes()


@pytest.mark.parametrize("dim", [1, 6, 512])
def test_random_hermitian_has_the_bytes_of_its_formula(dim):
    g = complex_gaussian(rng_for(4, 2), (dim, dim))
    assert random_hermitian(dim, 4, 2).tobytes() == ((g + g.conj().T) / 2).tobytes()


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
    ], ids=["rank", "kraus-count", "povm-count", "unitary-dim", "rng-seed", "density-seed"])
    def test_non_integral_value_rejected(self, make):
        with pytest.raises(ValueError, match="expected an integer"):
            make()

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
