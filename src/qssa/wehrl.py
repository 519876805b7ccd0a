"""Spin coherent states, exact sphere quadrature, Husimi functions and the
phase-space (Wehrl) entropy.

A spin-j factor carries the discrete resolution of identity
sum_i w_i |Omega_i><Omega_i| = I built from a Gauss-Legendre grid in
cos(theta) and a uniform grid in phi. The resolution is exact (up to
roundoff) because the projector entries are polynomials of degree two_j in
cos(theta) and trigonometric degree two_j in phi. The entropy integrand
h ln h is not polynomial, so the default grid is finer than the resolution
minimum; the floor below keeps the coherent-state entropy accurate to
better than 1e-6 for all j (smoothness improves quickly with j, small j is
the worst case). The inequality checks default to the resolution-exact base
grids instead: every inequality among Wehrl-type entropies holds exactly on
them, only the absolute values are less converged.

Husimi values are a real bilinear form. With the orthonormal Hermitian
basis {E_mu} of d x d matrices (the diagonal units |b><b|, then
(|b><c| + |c><b|)/sqrt2 and i(|c><b| - |b><c|)/sqrt2 for b < c),
<u x v|rho|u x v> = sum_{mu,nu} f_mu(u) R_{mu,nu} f_nu(v), where
f_mu(u) = <u|E_mu|u> and R_{mu,nu} = Tr rho (E_mu x E_nu) are real. On two
grids that is two real matrix products F1 R F2^T. One factor needs no basis:
h_i = sum_b (v_i^* rho)_b v_ib is one matrix product and a row sum.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import DEFAULT_LAMBDAS
from .linalg import CLAMP_REL, DensityMatrix, clamp_threshold, partial_trace, require_factors
from .entropy import mutual_information, von_neumann
from .randgen import Seed, random_pure_state, rng_for
from .report import InequalityReport, make_report

# Minimum node counts of the default grids; below ~48 theta nodes the
# log-singular h ln h integrand of near-pure states loses the 1e-6 target.
THETA_FLOOR = 48
PHI_FLOOR = 64

_SQRT2 = math.sqrt(2.0)


class BlochGrid:
    """Quadrature nodes, weights and coherent vectors on one spin factor."""

    __slots__ = ("two_j", "nodes", "weights", "states")

    def __init__(self, two_j: int, nodes: np.ndarray, weights: np.ndarray, states: np.ndarray):
        self.two_j = two_j
        nodes.flags.writeable = False
        weights.flags.writeable = False
        states.flags.writeable = False
        self.nodes = nodes
        self.weights = weights
        self.states = states

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"BlochGrid(two_j={self.two_j}, nodes={len(self)})"


def _coherent_states(two_j: int, thetas, phis) -> np.ndarray:
    """Coherent vectors at (thetas[i], phis[p]) in row i * len(phis) + p.

    Basis order is m = j, j-1, ..., -j; the amplitude on index k = j - m is
    sqrt(C(2j,k)) cos^(2j-k)(theta/2) sin^k(theta/2) e^{-ik phi}, so the
    north pole gives the highest-weight basis vector.

    float(C(2j,k)) is correctly rounded up to 2j = 1029, past any grid that
    fits in memory; as int64 the binomials overflow from 2j = 68 on.
    """
    k = np.arange(two_j + 1)
    binom = np.sqrt([float(math.comb(two_j, kk)) for kk in range(two_j + 1)])
    half = np.asarray(thetas, dtype=float)[:, None] / 2
    amps = binom * np.cos(half) ** (two_j - k) * np.sin(half) ** k
    phases = np.exp(-1j * np.outer(phis, k))
    return (amps[:, None, :] * phases).reshape(-1, two_j + 1)


def base_grid_sizes(two_j: int) -> tuple[int, int]:
    """Smallest sizes used by the inequality checks (resolution-exact)."""
    return two_j + 4, 2 * two_j + 4


def make_grid(two_j: int, n_theta: int | None = None, n_phi: int | None = None) -> BlochGrid:
    """Product quadrature grid realizing the resolution of identity.

    Defaults apply an accuracy floor on top of the resolution-exact base
    sizes; pass explicit counts for leaner grids (n_theta >= two_j + 1
    Gauss-Legendre nodes, n_phi >= 2 two_j + 2 uniform nodes keep the
    resolution exact). two_j is twice the spin, so j may be half-integer.
    """
    if two_j < 0:
        raise ValueError(f"two_j must be >= 0, got {two_j}")
    base_t, base_p = base_grid_sizes(two_j)
    if n_theta is None:
        n_theta = max(base_t, THETA_FLOOR)
    if n_phi is None:
        n_phi = max(base_p, PHI_FLOOR)
    if n_theta < two_j + 1:
        raise ValueError(f"n_theta={n_theta} below resolution minimum {two_j + 1}")
    if n_phi < 2 * two_j + 2:
        raise ValueError(f"n_phi={n_phi} below resolution minimum {2 * two_j + 2}")
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    # Node weight = (2j+1)/(4pi) * (GL weight in cos theta) * (2pi / n_phi).
    w_theta = (two_j + 1) / (2.0 * n_phi) * wx
    nodes = np.column_stack([np.repeat(thetas, n_phi), np.tile(phis, n_theta)])
    weights = np.repeat(w_theta, n_phi)
    states = _coherent_states(two_j, thetas, phis)
    return BlochGrid(two_j, nodes, weights, states)


def resolution_residual(grid: BlochGrid) -> float:
    """Max-abs entry of sum_i w_i |Omega_i><Omega_i| - I."""
    acc = (grid.states.conj().T * grid.weights) @ grid.states
    return float(np.abs(acc - np.eye(grid.two_j + 1)).max())


def _grids_for(rho: DensityMatrix, grids, lean: bool = False) -> tuple[BlochGrid, ...]:
    """`grids`, one per factor, as a tuple checked against rho's factors.

    None builds one grid per factor: of the resolution-exact base sizes if
    `lean`, else of make_grid's defaults.
    """
    if grids is None:
        return tuple(make_grid(d - 1, *(base_grid_sizes(d - 1) if lean else ())) for d in rho.dims)
    grids = tuple(grids)
    if len(grids) != len(rho.dims):
        raise ValueError(f"{len(grids)} grids for {len(rho.dims)} factors")
    for g, d in zip(grids, rho.dims):
        if g.two_j + 1 != d:
            raise ValueError(f"grid dim {g.two_j + 1} does not match factor dim {d}")
    return grids


def _hermitian_coords(x: np.ndarray) -> np.ndarray:
    """Coordinates Tr(X E_mu) of x's first two axes (row, column) in the
    module's Hermitian basis; that axis pair becomes one axis of length d^2."""
    d = x.shape[0]
    b, c = np.triu_indices(d, 1)
    upper, lower = x[b, c], x[c, b]
    return np.concatenate([x[np.arange(d), np.arange(d)],
                           (upper + lower) / _SQRT2, 1j * (upper - lower) / _SQRT2])


def _hermitian_features(states: np.ndarray) -> np.ndarray:
    """Real F[i, mu] = <s_i|E_mu|s_i> for the rows s_i of `states`."""
    b, c = np.triu_indices(states.shape[1], 1)
    cross = _SQRT2 * states[:, b].conj() * states[:, c]
    return np.concatenate([np.abs(states) ** 2, cross.real, cross.imag], axis=1)


def husimi(rho: DensityMatrix, grids) -> np.ndarray:
    """Diagonal coherent-state expectations h = <Omega|rho|Omega> per node.

    `grids` holds one grid per factor. One factor: h = rowsum((V^* rho) * V)
    over the coherent vectors V. Two factors: h = F1 R F2^T in the module's
    Hermitian basis, flattened from the product grid in C order (first
    factor outer).
    """
    grids = _grids_for(rho, grids)
    if len(grids) == 1:
        v = grids[0].states
        return ((v.conj() @ rho.mat) * v).sum(axis=1).real
    if len(grids) == 2:
        d1, d2 = rho.dims
        # Axes (row 1, column 1, row 2, column 2): map factor 1's pair, then factor 2's.
        t = rho.mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3)
        r = _hermitian_coords(_hermitian_coords(t).transpose(1, 2, 0)).real
        h = _hermitian_features(grids[0].states) @ r.T @ _hermitian_features(grids[1].states).T
        return h.ravel()
    raise ValueError("husimi supports one or two spin factors")


def joint_weights(grids) -> np.ndarray:
    w = grids[0].weights
    for g in grids[1:]:
        w = np.outer(w, g.weights).ravel()
    return w


def husimi_field(rho: DensityMatrix, grids) -> tuple[np.ndarray, np.ndarray]:
    """Husimi values and joint node weights on one grid per factor, checked
    to be non-negative and to carry rho's trace as mass."""
    grids = _grids_for(rho, grids)
    values, weights = husimi(rho, grids), joint_weights(grids)
    if values.min() < -CLAMP_REL:
        raise RuntimeError(f"Husimi value {values.min():.3e} below -{CLAMP_REL:.0e}")
    mass = float(np.dot(weights, values))
    if abs(mass - rho.trace()) > 1e-10:
        raise RuntimeError(f"Husimi mass {mass!r} disagrees with trace {rho.trace()!r}")
    return values, weights


def wehrl_entropy(rho: DensityMatrix, grids=None) -> float:
    """Quadrature value of -integral h ln h over the sphere(s).

    `grids` holds one grid per factor; without it, each factor gets
    make_grid's accuracy-floored default.
    """
    grids = _grids_for(rho, grids)
    h = husimi(rho, grids).reshape([len(g) for g in grids])
    # Nodes below the clamp floor contribute exactly 0.
    x = h * np.log(h, out=np.zeros_like(h), where=h >= clamp_threshold(h))
    for g in reversed(grids):
        x = x @ g.weights
    return float(-x)


def coherent_wehrl_value(two_j: int) -> float:
    """Exact Wehrl entropy of any coherent state: 2j/(2j+1)."""
    return two_j / (two_j + 1)


def check_wehrl_dominates(rho: DensityMatrix, grids=None) -> InequalityReport:
    """S[rho] <= S_W[rho] on one grid per factor; holds for any resolution grids and state."""
    grids = _grids_for(rho, grids, lean=True)
    s = von_neumann(rho)
    sw = wehrl_entropy(rho, grids)
    return make_report("wehrl_dominates", s, sw, dims=rho.dims,
                       grid_nodes=[len(g) for g in grids])


def check_wehrl_mutual_info(rho12: DensityMatrix, grids=None) -> InequalityReport:
    """Wehrl mutual information, on one grid per factor, is at most the quantum one."""
    require_factors(rho12, 2)
    grids = _grids_for(rho12, grids, lean=True)
    sw12 = wehrl_entropy(rho12, grids)
    sw1 = wehrl_entropy(partial_trace(rho12, {1}), (grids[0],))
    sw2 = wehrl_entropy(partial_trace(rho12, {2}), (grids[1],))
    wehrl_mi = sw1 + sw2 - sw12
    quantum_mi = mutual_information(rho12)
    return make_report("wehrl_mutual_info", wehrl_mi, quantum_mi,
                       dims=rho12.dims, grid_nodes=[len(g) for g in grids])


def check_wehrl_convexity(a: DensityMatrix, b: DensityMatrix, grids=None) -> InequalityReport:
    """Convexity of rho -> S_W[rho] - S[rho] at the DEFAULT_LAMBDAS points of [a, b],
    on one grid per factor."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    grids = _grids_for(a, grids, lean=True)

    def g(rho: DensityMatrix) -> float:
        return wehrl_entropy(rho, grids) - von_neumann(rho)

    ga = g(a)
    gb = g(b)
    worst = None
    for lam in DEFAULT_LAMBDAS:
        mix = DensityMatrix(lam * a.mat + (1 - lam) * b.mat, a.dims)
        margin = lam * ga + (1 - lam) * gb - g(mix)
        if worst is None or margin < worst[0]:
            worst = (margin, lam, g(mix), lam * ga + (1 - lam) * gb)
    _, lam, gmix, combo = worst
    return make_report("wehrl_convexity", gmix, combo, dims=a.dims,
                       lambda_at_min=lam, grid_nodes=[len(g_) for g_ in grids])


def wehrl_min_scan(two_j: int, trials: int, seed: Seed) -> dict:
    """Wehrl entropies of random pure states versus the coherent value.

    Coherent states minimize the spin Wehrl entropy, S_W >= 2j/(2j+1)
    (Lieb and Solovej, Acta Math. 212 (2014), arXiv:1208.3632). The scan
    checks that theorem numerically on make_grid's default grid;
    `min_is_at_least_coherent` allows 1e-6 below the coherent value for
    quadrature error. Besides "rows" and "summary", the result carries that
    "grid" and the first state of least S_W as "best".
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = make_grid(two_j)
    rows = []
    min_sw, best = math.inf, None
    for t in range(trials):
        psi = random_pure_state(two_j + 1, rng_for(seed, (t,)))
        rho = DensityMatrix(np.outer(psi, psi.conj()), (two_j + 1,))
        sw = wehrl_entropy(rho, (grid,))
        s = von_neumann(rho)
        rows.append({"trial": t, "seed": int(seed), "two_j": two_j,
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
            "seed": int(seed),
            "min_S_W": min_sw,
            "coherent_value": coherent,
            "margin": min_sw - coherent,
            "min_is_at_least_coherent": bool(min_sw >= coherent - 1e-6),
            "resolution_residual": resolution_residual(grid),
        },
    }
