"""Deterministic, seeded generation of random states, unitaries and measurements.

All generators are stateless: the returned object is a pure function of the
parameters, the seed and the substream key. The PRNG is numpy's PCG64;
stream splitting uses `numpy.random.SeedSequence(seed, spawn_key=key)`, so
disjoint substream keys give independent streams that are safe to draw in
parallel. Complex Gaussian entries are (x + iy)/sqrt(2) with x, y standard
normal (numpy ziggurat `standard_normal`).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DensityMatrix, _as_int, _int_in, _per_block, as_dims, hermitian_eig
from .measurement import KrausSet, Povm

RNG_NAME = "numpy-PCG64"

Seed = int


def require_seed(seed: Seed) -> int:
    """seed as an int; ValueError unless it is an integer >= 0, the one seed rule of library and CLI."""
    return _int_in(seed, "seed", 0)


def require_trials(trials: int) -> int:
    """trials as an int; ValueError unless it is an integer >= 1: a run draws at least one random instance."""
    return _int_in(trials, "trials", 1)


def require_rank(rank: int, total: int) -> int:
    """rank as an int; ValueError unless it is an integer in 1..total, a random state's rank on `total` dims."""
    return _int_in(rank, "rank", 1, total)


def require_count(count: int) -> int:
    """count as an int; ValueError unless it is an integer >= 1: a random Kraus set or POVM has an operator."""
    return _int_in(count, "count", 1)


def _key(substream) -> tuple[int, ...]:
    """A substream key, an integer or a sequence of integers, as a tuple of ints (`_as_int`: never truncated)."""
    if np.ndim(substream) == 0:
        return (_as_int(substream),)
    return tuple(_as_int(s) for s in substream)


def rng_for(seed: Seed, substream=()) -> np.random.Generator:
    """Generator for a (seed, substream) pair; substream is an int or tuple."""
    ss = np.random.SeedSequence(entropy=require_seed(seed), spawn_key=_key(substream))
    return np.random.Generator(np.random.PCG64(ss))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """(x + iy)/sqrt2, x drawn first, with that expression's bytes: x and then y are drawn in ~64 KB
    chunks (the stream of one draw), each copied into the real or imaginary part before the next."""
    z = np.empty(shape, dtype=complex)
    flat, step = z.reshape(-1), 2 * _per_block(1)
    for part in (flat.real, flat.imag):
        for lo in range(0, flat.size, step):
            part[lo : lo + step] = rng.standard_normal(min(step, flat.size - lo))
    z /= np.sqrt(2.0)
    return z


def _gram(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """G G† of a complex Gaussian G (rows x cols) with the bytes of `g @ g.conj().T`, 64 columns at a time, as one
    product's BLAS tiles fall; a last single column joins the block before it (a one-column product is a gemv)."""
    g = complex_gaussian(rng, (rows, cols))
    m, ends = np.empty((rows, rows), dtype=complex), [*range(0, max(rows - 1, 1), 64), rows]
    for lo, hi in zip(ends, ends[1:]):
        np.matmul(g, g[lo:hi].conj().T, out=m[:, lo:hi])
    return m


def random_density(dims, rank: int, seed: Seed, substream=0) -> DensityMatrix:
    """Random state G G† / Tr(G G†) with G a (total x rank) complex Gaussian (`_gram`)."""
    dims = as_dims(dims)
    total = math.prod(dims)
    rank = require_rank(rank, total)
    m = _gram(rng_for(seed, substream), total, rank)
    m /= np.trace(m).real
    return DensityMatrix(m, dims)


def random_unitary(dim: int, seed: Seed, substream=0) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R."""
    dim = _int_in(dim, "dim", 1)
    g = complex_gaussian(rng_for(seed, substream), (dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_kraus(dim: int, count: int, seed: Seed, substream=0, acts_on=(1,)) -> KrausSet:
    """Complete Kraus family sliced from a Haar isometry.

    The first `dim` columns of a Haar unitary on dim*count dimensions form
    an isometry V with V†V = I; its `count` row blocks of `dim` rows are the
    operators, so completeness holds to machine precision.
    """
    dim, count = _int_in(dim, "dim", 1), require_count(count)
    u = random_unitary(dim * count, seed, substream)
    iso = u[:, :dim]
    ops = [iso[a * dim : (a + 1) * dim, :] for a in range(count)]
    return KrausSet(ops, acts_on=acts_on)


def random_povm(dim: int, count: int, seed: Seed, substream=0) -> Povm:
    """Random partition of unity P_i = T^{-1/2} A_i T^{-1/2}, A_i = G G† (`_gram`)."""
    dim, count = _int_in(dim, "dim", 1), require_count(count)
    key = _key(substream)
    for attempt in range(5):
        rng = rng_for(seed, key + (attempt,))
        mats = [_gram(rng, dim, dim) for _ in range(count)]
        total = sum(mats)
        w, v = hermitian_eig(total)
        if w[0] > 1e-10 * w[-1]:
            inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
            return Povm([inv_sqrt @ a @ inv_sqrt for a in mats])
    raise RuntimeError(f"random_povm: singular normalizer after 5 attempts (dim={dim}, count={count})")


def random_cq_state(dims, seed: Seed, substream=0) -> DensityMatrix:
    """State that is classical (diagonal) on factors 1 and 2.

    Returns sum_ij p(i,j) |i><i| x |j><j| x sigma_ij with a random
    probability table p and random full-rank states sigma_ij on factor 3.
    """
    dims = as_dims(dims)
    if len(dims) != 3:
        raise ValueError(f"need exactly 3 factors, got {dims}")
    d1, d2, d3 = dims
    rng = rng_for(seed, substream)
    p = rng.dirichlet(np.ones(d1 * d2)).reshape(d1, d2)
    mat = np.zeros((d1 * d2 * d3, d1 * d2 * d3), dtype=complex)
    for i in range(d1):
        for j in range(d2):
            sigma = _gram(rng, d3, d3)
            sigma /= np.trace(sigma).real
            base = (i * d2 + j) * d3
            mat[base : base + d3, base : base + d3] = p[i, j] * sigma
    return DensityMatrix(mat, dims)


def random_hermitian(dim: int, seed: Seed, substream=0) -> np.ndarray:
    """(G + G†)/2 with G a (dim x dim) complex Gaussian, with that expression's bytes in one
    buffer besides G: G† is written into it, then G added and the sum halved."""
    dim = _int_in(dim, "dim", 1)
    g = complex_gaussian(rng_for(seed, substream), (dim, dim))
    h = np.conjugate(g.T, order="C")
    return np.divide(np.add(h, g, out=h), 2, out=h)


def random_positive(dim: int, seed: Seed, substream=0) -> np.ndarray:
    """Random positive-definite matrix U diag(w) U†: U Haar, w uniform in [0.1, 10)."""
    dim, key = _int_in(dim, "dim", 1), _key(substream)
    u = random_unitary(dim, seed, key + (0,))
    w = rng_for(seed, key + (1,)).uniform(0.1, 10.0, size=dim)
    return (u * w) @ u.conj().T


def product_basis_kraus(d1: int, d2: int) -> KrausSet:
    """Rank-1 product-basis projectors |ij><ij| as a Kraus set on factors {1,2}."""
    return KrausSet([np.diag(row) for row in np.eye(d1 * d2, dtype=complex)], acts_on=(1, 2))
