"""Inequality checkers for entropies of measured states.

The central statement verified here refines strong subadditivity: measuring
factors {1,2} (or {1}) of a tripartite state with a complete Kraus family
splits the conditional entropy S[rho123] - S[rho12] into a weighted average
over outcomes, and that average still dominates it. The remaining checks
cover the chain of consequences: the sandwich between the refined bound and
plain SSA, the joint concavity of the trace-exponential map behind it, the
Gibbs variational principle, monotonicity of relative entropy under the
block-diagonal measurement channel, and the classical/quantum entropy
comparisons down to the Holevo bound. Both convexity checks, S_cQ - S here and
S_W - S in `wehrl`, take their worst mixture from the one scan `least_convex_mixture`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .entropy import (
    bipartite_entropies,
    block_entropy,
    classical_quantum_entropy,
    entropy_from_eigs,
    mutual_information,
    relative_entropy,
    shannon,
    von_neumann,
)
from .linalg import (
    STATE_TOL,
    DensityMatrix,
    hermitize,
    kron_state,
    matrix_log,
    partial_trace,
    ptrace_mat,
    require_factors,
    square_ops,
)
from .measurement import (
    KrausSet,
    MeasurementEnsemble,
    Povm,
    apply_kraus_op,
    cpt_phi,
    ensemble_from_blocks,
    measurement_ensemble,
    phi_from_blocks,
    povm_conditionals,
    povm_joint_distribution,
    povm_weights,
)
from .report import InequalityReport, make_report, skipped_report

DEFAULT_LAMBDAS = (0.25, 0.5, 0.75)


def trace_exp_map(l_op: np.ndarray, ops: Sequence[np.ndarray], a_ops: Sequence[np.ndarray]) -> float:
    """Tr exp(L + sum_a K_a† (ln A_a) K_a), one positive-definite A_a per K_a.

    `matrix_log` rejects an A_a that is not positive definite.
    """
    h = np.asarray(l_op, dtype=complex)
    for k, a in zip(ops, a_ops, strict=True):
        h = h + k.conj().T @ matrix_log(a) @ k
    # Tr exp(H) = sum exp(spectrum); exp(H) itself is never needed
    return float(np.sum(np.exp(np.linalg.eigvalsh(hermitize(h)[0]))))


def _ensemble_bound(ens: MeasurementEnsemble) -> float:
    """sum_a n_a (S[rho23_a] - S[rho2_a]) over retained outcomes."""
    return sum(n * (von_neumann(r23) - von_neumann(r2)) for n, r23, r2 in ens.entries)


def _s123_minus_s12(rho123: DensityMatrix) -> float:
    """S123 - S12, the side every SSA-type bound here starts from."""
    return von_neumann(rho123) - von_neumann(partial_trace(rho123, {1, 2}))


def _s23_minus_s2(rho123: DensityMatrix) -> float:
    """S23 - S2, the plain SSA bound."""
    return von_neumann(partial_trace(rho123, {2, 3})) - von_neumann(partial_trace(rho123, {2}))


def least_convex_mixture(g: Callable[[DensityMatrix], float], a: DensityMatrix, b: DensityMatrix) -> tuple:
    """Worst mixture of g on [a, b]: (lambda, g(mix), chord, g(a), g(b)) at the lambda in
    DEFAULT_LAMBDAS where the convexity margin chord - g(mix) is least (the first on ties),
    with mix = lambda a + (1 - lambda) b and chord = lambda g(a) + (1 - lambda) g(b). The second
    g(mix) at each new least margin only keeps the eigensolve and grid counts that the
    benchmark's tracer tests pin; ROADMAP item 2 removes it here, in the one scan."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    ga, gb = g(a), g(b)
    worst = None
    for lam in DEFAULT_LAMBDAS:
        mix = DensityMatrix(lam * a.mat + (1 - lam) * b.mat, a.dims)
        margin = lam * ga + (1 - lam) * gb - g(mix)
        if worst is None or margin < worst[0]:
            worst = (margin, lam, g(mix), lam * ga + (1 - lam) * gb)
    _, lam, gmix, combo = worst
    return lam, gmix, combo, ga, gb


def check_ssa(rho123: DensityMatrix) -> InequalityReport:
    """Strong subadditivity: S123 - S12 <= S23 - S2."""
    require_factors(rho123, 3)
    return make_report("ssa", _s123_minus_s12(rho123), _s23_minus_s2(rho123), dims=rho123.dims)


def check_stronger_ssa(rho123: DensityMatrix, k: KrausSet) -> InequalityReport:
    """Measured refinement: S123 - S12 <= sum_a n_a (S[rho23_a] - S[rho2_a])."""
    ens = measurement_ensemble(rho123, k)
    return make_report(
        "stronger_ssa", _s123_minus_s12(rho123), _ensemble_bound(ens), dims=rho123.dims,
        kraus_count=len(k), acts_on=list(k.acts_on),
        skipped_terms=ens.skipped, skipped_mass=ens.skipped_mass,
    )


def check_sandwich(rho123: DensityMatrix, k: KrausSet) -> tuple[InequalityReport, InequalityReport]:
    """Both links of S123 - S12 <= sum_a n_a (S23_a - S2_a) <= S23 - S2.

    The right link needs the Kraus family to act on factor 1 only, so that
    the weighted conditionals average back to rho23 and concavity of the
    conditional entropy applies.
    """
    if k.acts_on != (1,):
        raise ValueError(f"sandwich requires a Kraus set acting on factor 1 only, got {k.acts_on}")
    ens = measurement_ensemble(rho123, k)
    middle = _ensemble_bound(ens)
    left = make_report("sandwich_left", _s123_minus_s12(rho123), middle, dims=rho123.dims,
                       kraus_count=len(k))
    right = make_report("sandwich_right", middle, _s23_minus_s2(rho123), dims=rho123.dims,
                        kraus_count=len(k))
    return left, right


def check_concave_map(l_op: np.ndarray, ops: Sequence[np.ndarray], a_ops: Sequence[np.ndarray],
                      b_ops: Sequence[np.ndarray]) -> InequalityReport:
    """Joint concavity of (A_1,...,A_M) -> Tr exp(L + sum K†(ln A)K) for sum K†K <= I.

    Lieb's theorem is the case of one K = I. Checked before any log: the K
    list (`linalg.square_ops`), L, A and B of K's size, one A and one B per
    K, and the hypothesis: no eigenvalue of I - sum K†K below -STATE_TOL.
    f(A) and f(B), evaluated before any mixture, reject an argument that is
    not positive definite. Reports the minimum concavity margin over the
    mixing weights DEFAULT_LAMBDAS.
    """
    ops = square_ops(ops, "K operator")
    d = ops[0].shape[0]
    for name, group in (("L", [l_op]), ("A", a_ops), ("B", b_ops)):
        for x in group:
            if np.shape(x) != (d, d):
                raise ValueError(f"{name} shape {np.shape(x)} does not match K dim {d}")
    if len(a_ops) != len(ops) or len(b_ops) != len(ops):
        raise ValueError(f"{len(a_ops)} A and {len(b_ops)} B operators for {len(ops)} K operators")
    gap = np.linalg.eigvalsh(np.eye(d) - sum(k.conj().T @ k for k in ops))[0]
    if gap < -STATE_TOL:
        raise ValueError(f"sum K†K exceeds I: I - sum K†K has eigenvalue {gap:.3e}")
    a_ops, b_ops = ([np.asarray(a, dtype=complex) for a in group] for group in (a_ops, b_ops))
    fa = trace_exp_map(l_op, ops, a_ops)
    fb = trace_exp_map(l_op, ops, b_ops)
    worst = None
    for lam in DEFAULT_LAMBDAS:
        mixed = [lam * a + (1 - lam) * b for a, b in zip(a_ops, b_ops)]
        fmix = trace_exp_map(l_op, ops, mixed)
        combo = lam * fa + (1 - lam) * fb
        if worst is None or fmix - combo < worst[0]:
            worst = (fmix - combo, lam, combo, fmix)
    _, lam, combo, fmix = worst
    return make_report("concave_map", combo, fmix, dims=(d,),
                       lambda_at_min=lam, terms=len(a_ops), f_a=fa, f_b=fb)


def check_gibbs_variational(rho: DensityMatrix, h: np.ndarray) -> InequalityReport:
    """S[rho] + Tr(rho H) <= ln Tr e^H, saturated by the Gibbs state of H."""
    h, h_asym = hermitize(h)
    if h.shape != rho.mat.shape:
        raise ValueError(f"dimension mismatch: state {rho.mat.shape} vs H {h.shape}")
    # Tr(rho H) = sum_ij rho_ij H_ji, without the n^3 product
    lhs = von_neumann(rho) + float(np.sum(rho.mat * h.T).real)
    w = np.linalg.eigvalsh(h)
    # log-sum-exp for a stable ln Tr e^H
    top = w[-1]
    rhs = float(top + np.log(np.sum(np.exp(w - top))))
    return make_report("gibbs_variational", lhs, rhs, dims=rho.dims, h_asymmetry=h_asym)


def check_cpt_monotonicity(rho123: DensityMatrix, k: KrausSet) -> InequalityReport:
    """Relative entropy contracts under the block-diagonal measurement channel.

    Checks H(Phi(rho123), Phi(rho12 x rho3)) <= H(rho123, rho12 x rho3) and
    records, in the metadata, the residual of the identity expressing the
    contracted side through the ensemble entropies
    sum_a n_a (S[rho2_a] - S[rho23_a] + S[rho3]).
    """
    require_factors(rho123, 3)
    d = rho123.dims
    # rho123's outcome blocks feed both its channel image and the ensemble;
    # apply_kraus_op also checks the family before any eigensolve
    blocks = apply_kraus_op(rho123, k)
    rho12 = partial_trace(rho123, {1, 2})
    rho3 = partial_trace(rho123, {3})
    product = kron_state(rho12, rho3)
    big = relative_entropy(rho123, product)
    small = relative_entropy(phi_from_blocks(blocks, d[1:]), cpt_phi(product, k))
    if not (math.isfinite(big) and math.isfinite(small)):
        return skipped_report("cpt_monotonicity", "support", relation=">=", dims=d,
                              lhs_finite=math.isfinite(big), rhs_finite=math.isfinite(small))
    ens = ensemble_from_blocks(blocks, d[1:])
    s3 = von_neumann(rho3)
    identity_value = sum(n * (von_neumann(r2) - von_neumann(r23) + s3) for n, r23, r2 in ens.entries)
    return make_report(
        "cpt_monotonicity", big, small, relation=">=", dims=d,
        kraus_count=len(k), identity_residual=abs(small - identity_value),
    )


def _measured_conditional_entropy(rho12: DensityMatrix, p: Povm, factor: int = 1) -> float:
    """sum_a n_a S[rho_a] for the POVM measured on `factor`, rho_a on the other."""
    cond_entropy = 0.0
    for b in povm_conditionals(rho12, p, factor=factor):
        s_b, n = block_entropy(b)
        # adding n ln n to -Tr B ln B recovers the weighted conditional
        # entropy n S[rho_a]; n ln n is dropped under the same floor as B's spectrum
        cond_entropy += s_b - entropy_from_eigs([n])
    return cond_entropy


def check_improved_subadd(rho12: DensityMatrix, p: Povm) -> tuple[InequalityReport, InequalityReport]:
    """S12 <= S1 + sum_a n_a S[rho2_a] <= S1 + S2 for a POVM on factor 1."""
    s12, s1, s2 = bipartite_entropies(rho12)
    middle = s1 + _measured_conditional_entropy(rho12, p)
    left = make_report("improved_subadd_left", s12, middle, dims=rho12.dims,
                       povm_count=len(p))
    right = make_report("improved_subadd_right", middle, s1 + s2, dims=rho12.dims,
                        povm_count=len(p))
    return left, right


def counterexample_two_sided(d: int) -> tuple[float, float]:
    """Uniformly correlated basis pairs defeat the two-sided split bound.

    For rho12 = (1/d) sum_a |aa><aa| and basis projectors on both factors,
    S[rho12] = ln d while every conditional state is pure, so splitting
    both factors yields zero on the right: ln d <= 0 fails for d >= 2.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    eye = np.eye(d, dtype=complex)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        mat[a * d + a, a * d + a] = 1.0 / d
    rho12 = DensityMatrix(mat, (d, d))
    lhs = von_neumann(rho12)
    projectors = Povm([np.outer(eye[:, a], eye[:, a].conj()) for a in range(d)])
    rhs = sum(_measured_conditional_entropy(rho12, projectors, factor) for factor in (1, 2))
    return lhs, rhs


def check_classical_mutual_info(rho12: DensityMatrix, p: Povm, q: Povm) -> InequalityReport:
    """Quantum mutual information dominates the measured mutual information."""
    r = povm_joint_distribution(rho12, p, q)
    marg_p = r.sum(axis=1)
    marg_q = r.sum(axis=0)
    classical_mi = shannon(marg_p) + shannon(marg_q) - shannon(r.ravel())
    quantum_mi = mutual_information(rho12)
    direct = povm_weights(rho12, p)
    marginal_residual = float(np.abs(direct - marg_p).max())
    if marginal_residual > 1e-10:
        raise RuntimeError(f"outcome-table marginal disagrees with direct weights by {marginal_residual:.3e}")
    return make_report(
        "classical_mutual_info", quantum_mi, classical_mi, relation=">=",
        dims=rho12.dims, p_count=len(p), q_count=len(q),
        marginal_residual=marginal_residual,
    )


def check_cq_chain(rho12: DensityMatrix, p: Povm, q: Povm) -> tuple[InequalityReport, InequalityReport]:
    """Two links interpolating quantum and fully classical mutual information.

    First: S12 - S1 - S2 <= S_cQ - S_cl[rho1] - S2, where S_cQ measures
    factor 1 and keeps factor 2 quantum. Second: the same quantity is
    bounded by the fully classical S_cl[rho12] - S_cl[rho1] - S_cl[rho2].
    """
    s12, s1, s2 = bipartite_entropies(rho12)
    s_cq = classical_quantum_entropy(rho12, p)
    n = povm_weights(rho12, p)
    s_cl_1 = entropy_from_eigs(n)
    r = povm_joint_distribution(rho12, p, q)
    s_cl_12 = entropy_from_eigs(r)
    s_cl_2 = entropy_from_eigs(r.sum(axis=0))
    first = make_report(
        "cq_chain_quantum_to_cq", s12 - s1 - s2, s_cq - s_cl_1 - s2,
        dims=rho12.dims, p_count=len(p),
    )
    second = make_report(
        "cq_chain_cq_to_classical", s_cq - s_cl_1 - s2, s_cl_12 - s_cl_1 - s_cl_2,
        dims=rho12.dims, p_count=len(p), q_count=len(q),
    )
    return first, second


def check_cqq(rho123: DensityMatrix, p: Povm) -> InequalityReport:
    """S123 - S12 <= S_cQQ - S_cQ with factor 1 measured by a POVM.

    S_cQQ keeps factors {2,3} quantum, S_cQ keeps factor 2; both decompose
    through the subnormalized conditionals of the POVM, and the difference
    equals the measured refinement bound for the square-root Kraus family.
    """
    require_factors(rho123, 3)
    s_cqq = 0.0
    s_cq = 0.0
    d = rho123.dims
    for b in povm_conditionals(rho123, p, factor=1):
        s_cqq += block_entropy(b)[0]
        s_cq += block_entropy(ptrace_mat(b, d[1:], (1,)))[0]
    return make_report("cqq", _s123_minus_s12(rho123), s_cqq - s_cq, dims=d, povm_count=len(p))


def check_convexity_cl_minus_q(a12: DensityMatrix, b12: DensityMatrix, p: Povm) -> InequalityReport:
    """Convexity of rho -> S_cQ[rho] - S[rho] on [a12, b12], by `least_convex_mixture`."""
    lam, gmix, combo, ga, gb = least_convex_mixture(
        lambda rho: classical_quantum_entropy(rho, p) - von_neumann(rho), a12, b12)
    return make_report("convexity_cl_minus_q", gmix, combo, dims=a12.dims,
                       lambda_at_min=lam, g_a=ga, g_b=gb)


def check_holevo(weights, states: Sequence[DensityMatrix], q: Povm) -> InequalityReport:
    """Accessible information of an ensemble is at most its Holevo quantity."""
    weights = np.asarray(weights, dtype=float)
    if not np.isfinite(weights).all():
        raise ValueError("ensemble weights must be finite")
    if abs(weights.sum() - 1.0) > STATE_TOL:
        raise ValueError(f"ensemble weights sum to {weights.sum()!r}")
    if len(weights) != len(states):
        raise ValueError(f"{len(weights)} weights for {len(states)} states")
    dims = states[0].dims
    for s in states:
        if s.dims != dims:
            raise ValueError("ensemble states must share dimensions")
    if q.dim != states[0].dim:
        raise ValueError(f"POVM dim {q.dim} does not match state dim {states[0].dim}")
    r = weights[:, None] * (np.array([s.mat.ravel() for s in states]) @ q.rows.T).real
    accessible = shannon(r.sum(axis=1)) + shannon(r.sum(axis=0)) - shannon(r.ravel())
    avg = DensityMatrix(sum(w * s.mat for w, s in zip(weights, states)), dims)
    chi = von_neumann(avg) - sum(w * von_neumann(s) for w, s in zip(weights, states))
    return make_report("holevo", accessible, chi, dims=dims,
                       ensemble_size=len(states), povm_count=len(q))
