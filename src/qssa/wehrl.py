"""Spin coherent states, exact sphere quadrature, Husimi functions and the
phase-space (Wehrl) entropy.

A spin-j factor carries the discrete resolution of identity
sum_i w_i |Omega_i><Omega_i| = I built from a Gauss-Legendre grid in
cos(theta) and a uniform grid in phi. The resolution is exact (up to
roundoff) because the projector entries are polynomials of degree two_j in
cos(theta) and trigonometric degree two_j in phi. The entropy integrand
h ln h is not polynomial, so make_grid's default grid is finer than the
resolution minimum; the floor below keeps the coherent-state entropy
accurate to better than 1e-6 for all j (smoothness improves quickly with j,
small j is the worst case). The inequality checks always take the resolution-exact
base grids (`grids=None` of `husimi` and `wehrl_entropy`): every inequality among
Wehrl-type entropies holds exactly on them, only absolute values converge less.
The convexity check takes its worst mixture from the shared `checks.least_convex_mixture`.
Every S_W comes from `wehrl_entropy`, which streams Husimi values in blocks of theta1 rows and
is the one place that checks them: none below -CLAMP_REL, weighted mass Tr rho (`require_same_mass`).

Husimi values are a real bilinear form. With the orthonormal Hermitian
basis {E_mu} of d x d matrices (the diagonal units |b><b|, then
(|b><c| + |c><b|)/sqrt2 and i(|c><b| - |b><c|)/sqrt2 for b < c),
<u x v|rho|u x v> = sum_{mu,nu} f_mu(u) R_{mu,nu} f_nu(v), where
f_mu(u) = <u|E_mu|u> and R_{mu,nu} = Tr rho (E_mu x E_nu) are real. At node
(theta_i, phi_p), u_k = a_k(theta_i) e^{-ik phi_p}, so f_mu = G[i,mu] tau_s(phi_p) with
G = a_b^2 or +-sqrt2 a_b a_c and tau_s = 1, cos m phi or sin m phi (m = c - b). Two
spins take W[i,s,j,t] = sum_{mu in s, nu in t} G1[i,mu] R[mu,nu] G2[j,nu] group by
group, then h[i,p,j,q] = sum_{s,t} tau1[p,s] W[i,s,j,t] tau2[q,t] one theta1 row at
a time: about d/4 times fewer flops than F1 R F2^T on the N x d^2 features. One factor
sums f_mu R_mu within each group: h[i,p] = sum_s x[i,s] tau[p,s], x = [D_0, 2 Re D_m, 2 Im D_m],
D_m(theta_i) = sum_b a_b a_{b+m} rho[b, b+m], from one theta x (d - m) product per m.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .checks import least_convex_mixture
from .linalg import (CLAMP_REL, DensityMatrix, _int_in, _per_block, clamp_threshold, partial_trace,
                     require_factors, require_same_dims, require_same_mass)
from .entropy import mutual_information, von_neumann
from .randgen import Seed, random_density, require_seed, require_trials
from .report import InequalityReport, make_report

# Minimum node counts of the default grids; below ~48 theta nodes the
# log-singular h ln h integrand of near-pure states loses the 1e-6 target.
THETA_FLOOR = 48
PHI_FLOOR = 64

_SQRT2 = math.sqrt(2.0)
MAX_TWO_J = 1029


def require_two_j(two_j: int) -> int:
    """two_j as an int; ValueError unless it is an integer in 0..MAX_TWO_J (float(C(2j, k)) overflows at 1030)."""
    return _int_in(two_j, "two_j", 0, MAX_TWO_J)


class BlochGrid:
    """Quadrature nodes and weights on one spin factor. Node i * n_phi + p sits at (thetas[i],
    phis[p]) and its coherent vector is amps[i, k] e^{-ik phis[p]}; phi_factors[p] is tau(phis[p])
    = (cos m phi, m = 0..2j, then sin m phi, m = 1..2j)."""

    __slots__ = ("two_j", "thetas", "phis", "weights", "amps", "phi_factors")

    def __init__(self, two_j: int, thetas: np.ndarray, phis: np.ndarray, w_theta: np.ndarray):
        # Basis order is m = j, ..., -j, and the amplitude on k = j - m is a_k(theta) = sqrt(C(2j,k))
        # cos^(2j-k)(theta/2) sin^k(theta/2): the north pole is the highest weight. float(C(2j,k))
        # is correctly rounded up to 2j = 1029; as int64 the binomials overflow from 2j = 68 on.
        d, k = two_j + 1, np.arange(two_j + 1)
        half = thetas[:, None] / 2
        binom = np.sqrt([float(math.comb(two_j, kk)) for kk in range(d)])
        m_phi = np.outer(phis, k)
        self.two_j, self.thetas, self.phis = two_j, thetas, phis
        self.weights = np.repeat(w_theta, len(phis))
        self.amps = binom * np.cos(half) ** (two_j - k) * np.sin(half) ** k
        self.phi_factors = np.concatenate([np.cos(m_phi), np.sin(m_phi[:, 1:])], axis=1)
        for a in (thetas, phis, self.weights, self.amps, self.phi_factors):
            a.flags.writeable = False

    @property
    def nodes(self) -> np.ndarray:  # (theta, phi) per node
        return np.column_stack([np.repeat(self.thetas, len(self.phis)), np.tile(self.phis, len(self.thetas))])

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"BlochGrid(two_j={self.two_j}, nodes={len(self)})"


def base_grid_sizes(two_j: int) -> tuple[int, int]:
    """Smallest sizes used by the inequality checks (resolution-exact)."""
    return two_j + 4, 2 * two_j + 4


def make_grid(two_j: int, n_theta: int | None = None, n_phi: int | None = None) -> BlochGrid:
    """Product quadrature grid realizing the resolution of identity.

    Defaults apply an accuracy floor on top of the resolution-exact base
    sizes; pass explicit counts for leaner grids (n_theta >= two_j + 1
    Gauss-Legendre nodes, n_phi >= 2 two_j + 2 uniform nodes keep the
    resolution exact: below that minimum, or not an integer, a count is an
    error). two_j is twice the spin, so j may be half-integer.
    """
    two_j = require_two_j(two_j)
    base_t, base_p = base_grid_sizes(two_j)
    n_theta = _int_in(max(base_t, THETA_FLOOR) if n_theta is None else n_theta, "n_theta", two_j + 1)
    n_phi = _int_in(max(base_p, PHI_FLOOR) if n_phi is None else n_phi, "n_phi", 2 * two_j + 2)
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    # Node weight = (2j+1)/(4pi) * (GL weight in cos theta) * (2pi / n_phi).
    return BlochGrid(two_j, np.arccos(x), 2 * np.pi * np.arange(n_phi) / n_phi,
                     (two_j + 1) / (2.0 * n_phi) * wx)


def resolution_residual(grid: BlochGrid) -> float:
    """Max-abs entry of sum_i w_i |Omega_i><Omega_i| - I = ((A^T w_theta) A) o (Phi^dagger Phi) - I."""
    d, w_theta = grid.two_j + 1, grid.weights[:: len(grid.phis)]
    phases = np.exp(-1j * np.outer(grid.phis, np.arange(d)))
    acc = ((grid.amps.T * w_theta) @ grid.amps) * (phases.conj().T @ phases)
    return float(np.abs(acc - np.eye(d)).max())


def _grids_for(rho: DensityMatrix, grids) -> tuple[BlochGrid, ...]:
    """`grids`, one per factor, as a tuple checked against rho's factors.

    None builds one grid of the resolution-exact base sizes per factor.
    """
    if len(rho.dims) > 2:
        raise ValueError("husimi supports one or two spin factors")
    if grids is None:
        return tuple(make_grid(d - 1, *base_grid_sizes(d - 1)) for d in rho.dims)
    grids = tuple(grids)
    if len(grids) != len(rho.dims):
        raise ValueError(f"{len(grids)} grids for {len(rho.dims)} factors")
    for g, d in zip(grids, rho.dims):
        if g.two_j + 1 != d:
            raise ValueError(f"grid dim {g.two_j + 1} does not match factor dim {d}")
    return grids


def _basis_coords(rho: DensityMatrix) -> np.ndarray:
    """R[mu, nu] = Tr rho (E_mu x E_nu) in the trig-grouped bases. As
    E_mu = alpha |b><c| + h.c. (alpha = 1/2, 1/sqrt2 or -i/sqrt2), R is 2|alpha alpha'|
    times Re or Im of rho[(c,c'),(b,b')] +- rho[(c,b'),(b,c')]."""
    (d1, d2), t = rho.dims, rho.mat.reshape(rho.dims * 2)
    (b1, c1), (b2, c2) = (np.array([(b, b + m) for m in range(d) for b in range(d - m)]).T for d in (d1, d2))
    x, y = t[c1[:, None], c2, b1[:, None], b2], t[c1[:, None], b2, b1[:, None], c2]
    (p1, p2), r = x.shape, np.empty((d1 * d1, d2 * d2))  # blocks [[Re +, Im -], [Im +, -Re -]], written in place
    np.add(x.real, y.real, out=r[:p1, :p2])
    np.subtract(x.imag[:, d2:], y.imag[:, d2:], out=r[:p1, p2:])
    np.add(x.imag[d1:], y.imag[d1:], out=r[p1:, :p2])
    np.negative(np.subtract(x.real[d1:, d2:], y.real[d1:, d2:], out=r[p1:, p2:]), out=r[p1:, p2:])
    r[:d1, :d2] /= 2  # |alpha| = 1/2 on diagonal elements, 1/sqrt2 on the others
    r[:d1, d2:] /= _SQRT2
    r[d1:, :d2] /= _SQRT2
    return r


def _theta_factors(amps: np.ndarray) -> tuple[list[np.ndarray], list[slice]]:
    """G and the slice among the d^2 basis elements of each trig group m = c - b, which holds the pairs
    (b, b + m): cos m = 0..d-1 with G = a_b^2 or sqrt2 a_b a_c, then sin m = 1..d-1 with G = -sqrt2 a_b a_c."""
    d = amps.shape[1]
    cos = [amps * amps] + [amps[:, : d - m] * amps[:, m:] * _SQRT2 for m in range(1, d)]
    factors = cos + [-f for f in cos[1:]]
    ends = itertools.accumulate(f.shape[1] for f in factors)
    return factors, [slice(e - f.shape[1], e) for f, e in zip(factors, ends)]


def _husimi_blocks(rho: DensityMatrix, grids: tuple[BlochGrid, ...]):
    """Yield (nodes, h): Husimi values at the first factor's nodes `nodes` (a slice) times the N2 nodes
    of the second (N2 = 1 for one spin, one block: its x is as large as h). Two spins take an even
    number of theta1 rows per ~64 KB block, in one buffer that the next block overwrites."""
    if len(grids) == 1:
        (g,), d, r = grids, rho.dim, rho.mat
        x = np.empty((len(g.amps), 2 * d - 1))
        x[:, 0] = (g.amps * g.amps) @ r.real.diagonal()
        for m in range(1, d):  # one theta x (d - m) product at a time
            p = g.amps[:, : d - m] * g.amps[:, m:]
            x[:, m], x[:, d - 1 + m] = p @ r.real.diagonal(m), p @ r.imag.diagonal(m)
        x[:, 1:] *= 2
        h, x = x @ g.phi_factors.T, None  # x is freed before h is read
        yield slice(None), h.reshape(-1, 1)
        return
    g1, g2 = grids
    (f1, s1), (f2, s2) = _theta_factors(g1.amps), _theta_factors(g2.amps)
    r, n1, n_phi, n2 = _basis_coords(rho), len(g1.amps), len(g1.phis), len(g2)
    x = np.empty((n1, len(s1), r.shape[1]))  # x[i, s, nu] sums over mu in group s
    for k, (f, s) in enumerate(zip(f1, s1)):
        np.matmul(f, r[s], out=x[:, k])
    del r
    step = 2 * _per_block(n_phi * n2)  # even: with n_phi even, h @ w2 groups rows as on all h
    buf = np.empty((min(step, n1), n_phi, n2))
    for lo in range(0, n1, step):
        # w[i, t, s, j] sums over nu in group t. w[i] fills the head of h[i] (2j + 1 < n_phi),
        # which is written after w[i] is read.
        h = buf[: min(step, n1 - lo)]
        w = h.reshape(len(h), -1)[:, : len(s2) * len(s1) * len(g2.amps)].reshape(len(h), len(s2), len(s1), -1)
        for k, (f, t) in enumerate(zip(f2, s2)):
            np.matmul(x[lo : lo + len(h), :, t], f.T, out=w[:, k])
        for i in range(len(h)):  # row i's (s, j, q) intermediate stays in cache
            y = w[i].reshape(len(s2), -1).T @ g2.phi_factors.T
            np.matmul(g1.phi_factors, y.reshape(len(s1), -1), out=h[i])
        yield slice(lo * n_phi, (lo + len(h)) * n_phi), h.reshape(-1, n2)


def husimi(rho: DensityMatrix, grids) -> np.ndarray:
    """Diagonal coherent-state expectations h = <Omega|rho|Omega> per node, on one grid per factor,
    flattened from the product grid in C order (first factor outer)."""
    grids = _grids_for(rho, grids)
    h = np.empty((len(grids[0]), math.prod(len(g) for g in grids[1:])))
    for nodes, block in _husimi_blocks(rho, grids):
        h[nodes] = block
    return h.ravel()


def wehrl_entropy(rho: DensityMatrix, grids) -> float:
    """Quadrature value of -integral h ln h over the sphere(s), on one grid per factor; RuntimeError
    if a Husimi value lies below -CLAMP_REL or their mass misses Tr rho (`require_same_mass`).
    Each block's h and h ln h are summed over the second factor, then all over the first. h ln h is 0
    below CLAMP_REL * max(1, Tr rho): as h <= lambda_max(rho) <= Tr rho, that is CLAMP_REL * max(1,
    max h) unless rounding lifts some h above max(1, Tr rho)."""
    grids, tr = _grids_for(rho, grids), rho.trace()
    w2 = grids[1].weights if len(grids) == 2 else np.ones(1)
    least, floor, (mass, ent) = math.inf, clamp_threshold(tr), np.empty((2, len(grids[0])))
    for nodes, h in _husimi_blocks(rho, grids):
        least = min(least, float(h.min()))
        np.matmul(h, w2, out=mass[nodes])
        h *= np.log(h, out=np.zeros_like(h), where=h >= floor)  # in place
        np.matmul(h, w2, out=ent[nodes])
    if least < -CLAMP_REL:
        raise RuntimeError(f"Husimi value {least:.3e} below -{CLAMP_REL:.0e}")
    require_same_mass(float(mass @ grids[0].weights), tr, "Husimi mass disagrees with trace")
    return -float(ent @ grids[0].weights)


def coherent_wehrl_value(two_j: int) -> float:
    """Exact Wehrl entropy of any coherent state: 2j/(2j+1)."""
    return two_j / (two_j + 1)


def check_wehrl_dominates(rho: DensityMatrix) -> InequalityReport:
    """S[rho] <= S_W[rho] on the base grid of each factor; holds for any resolution grids and state."""
    grids = _grids_for(rho, None)
    s = von_neumann(rho)
    sw = wehrl_entropy(rho, grids)
    return make_report("wehrl_dominates", s, sw, dims=rho.dims,
                       grid_nodes=[len(g) for g in grids])


def check_wehrl_mutual_info(rho12: DensityMatrix) -> InequalityReport:
    """Wehrl mutual information, on the base grid of each factor, is at most the quantum one."""
    require_factors(rho12, 2)
    grids = _grids_for(rho12, None)
    sw12 = wehrl_entropy(rho12, grids)
    sw1 = wehrl_entropy(partial_trace(rho12, {1}), (grids[0],))
    sw2 = wehrl_entropy(partial_trace(rho12, {2}), (grids[1],))
    wehrl_mi = sw1 + sw2 - sw12
    quantum_mi = mutual_information(rho12)
    return make_report("wehrl_mutual_info", wehrl_mi, quantum_mi,
                       dims=rho12.dims, grid_nodes=[len(g) for g in grids])


def check_wehrl_convexity(a: DensityMatrix, b: DensityMatrix) -> InequalityReport:
    """Convexity of rho -> S_W[rho] - S[rho] on [a, b], by `checks.least_convex_mixture`,
    on the base grid of each factor."""
    require_same_dims(a, b)  # before the grids, whose Gauss-Legendre nodes come from an eigensolve
    grids = _grids_for(a, None)
    lam, gmix, combo, _, _ = least_convex_mixture(
        lambda rho: wehrl_entropy(rho, grids) - von_neumann(rho), a, b)
    return make_report("wehrl_convexity", gmix, combo, dims=a.dims,
                       lambda_at_min=lam, grid_nodes=[len(g) for g in grids])


def wehrl_min_scan(two_j: int, trials: int, seed: Seed) -> dict:
    """Wehrl entropies of random pure states versus the coherent value.

    Coherent states minimize the spin Wehrl entropy, S_W >= 2j/(2j+1)
    (Lieb and Solovej, Acta Math. 212 (2014), arXiv:1208.3632). The scan
    checks that theorem numerically on make_grid's default grid;
    `min_is_at_least_coherent` allows 1e-6 below the coherent value for
    quadrature error. Besides "rows" and "summary", the result carries that
    "grid" and the first state of least S_W as "best".
    """
    trials, seed, two_j = require_trials(trials), require_seed(seed), require_two_j(two_j)
    grid = make_grid(two_j)
    rows = []
    min_sw, best = math.inf, None
    for t in range(trials):
        rho = random_density((two_j + 1,), 1, seed, (t,))
        sw = wehrl_entropy(rho, (grid,))
        s = von_neumann(rho)
        rows.append({"trial": t, "seed": seed, "two_j": two_j,
                     "S_W": sw, "S": s, "diff": sw - s})
        if sw < min_sw:
            min_sw, best = sw, rho
    coherent = coherent_wehrl_value(two_j)
    return {
        "rows": rows,
        "grid": grid,
        "best": best,
        "summary": {
            "two_j": two_j,
            "trials": trials,
            "seed": seed,
            "min_S_W": min_sw,
            "coherent_value": coherent,
            "margin": min_sw - coherent,
            "min_is_at_least_coherent": bool(min_sw >= coherent - 1e-6),
            "resolution_residual": resolution_residual(grid),
        },
    }
