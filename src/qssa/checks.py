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
`_measured_split` is the one path to the split bound sum_a n_a (S[rho23_a] - S[rho2_a]): stronger
SSA, the sandwich and cpt's identity feed it Kraus outcome blocks, `check_cqq` POVM conditionals.
`_measured_conditional_entropy` is the one path to sum_a n_a S[rho_a] of a measured
factor; it subtracts n ln n of the mass each block's entropy keeps, so it is never negative.
It and `classical_quantum_entropy` read the conditionals' block entropies from `_conditional_entropies`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .entropy import (
    bipartite_entropies,
    block_entropy,
    entropy_from_eigs,
    mutual_information,
    relative_entropy,
    shannon,
    von_neumann,
)
from .linalg import (
    DensityMatrix,
    _int_in,
    clamp_threshold,
    hermitian_eigvalsh,
    hermitize,
    kron_state,
    matrix_log,
    partial_trace,
    require_distribution,
    require_factors,
    require_psd,
    require_same_dims,
    require_same_mass,
    square_ops,
)
from .measurement import (
    KrausSet,
    Povm,
    apply_kraus_op,
    cpt_phi,
    phi_from_blocks,
    povm_conditionals,
    povm_joint_distribution,
    povm_weights,
)
from .report import InequalityReport, make_report

DEFAULT_LAMBDAS = (0.25, 0.5, 0.75)


def trace_exp_map(l_op: np.ndarray, ops: Sequence[np.ndarray], a_ops: Sequence[np.ndarray]) -> float:
    """Tr exp(L + sum_a K_a† (ln A_a) K_a), one positive-definite A_a per K_a.

    `matrix_log` rejects an A_a that is not positive definite.
    """
    h = np.asarray(l_op, dtype=complex)
    for k, a in zip(ops, a_ops, strict=True):
        h = h + k.conj().T @ matrix_log(a) @ k
    # Tr exp(H) = sum exp(spectrum); exp(H) itself is never needed
    return math.fsum(np.exp(hermitian_eigvalsh(h)))


def _measured_split(blocks: Sequence[np.ndarray], dims23: tuple[int, ...]) -> tuple[float, list, int, float]:
    """The measured split bound sum_a n_a (S[rho23_a] - S[rho2_a]) from outcome blocks B_a on factors
    {2,3}: (bound, its terms [(n_a, S[rho23_a], S[rho2_a])], skipped, skipped_mass). n_a = Tr B_a, and
    B_a / n_a is validated as a DensityMatrix. A block whose n_a is below `clamp_threshold` is not
    solved: it is counted in `skipped` and its weight in `skipped_mass`, so that sum n_a +
    skipped_mass is the trace of the measured state; `clamp_threshold` rejects a trace below -STATE_TOL."""
    terms, skipped = [], []
    for b in blocks:
        n = float(np.trace(b).real)
        if n < clamp_threshold(n):
            skipped.append(max(n, 0.0))
            continue
        r23 = DensityMatrix(b / n, dims23)
        terms.append((n, von_neumann(r23), von_neumann(partial_trace(r23, {1}))))
    return math.fsum(n * (s23 - s2) for n, s23, s2 in terms), terms, len(skipped), math.fsum(skipped)


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
    require_same_dims(a, b)
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
    require_factors(rho123, 3)
    bound, _, skipped, skipped_mass = _measured_split(apply_kraus_op(rho123, k), rho123.dims[1:])
    return make_report(
        "stronger_ssa", _s123_minus_s12(rho123), bound, dims=rho123.dims,
        kraus_count=len(k), acts_on=list(k.acts_on),
        skipped_terms=skipped, skipped_mass=skipped_mass,
    )


def check_sandwich(rho123: DensityMatrix, k: KrausSet) -> tuple[InequalityReport, InequalityReport]:
    """Both links of S123 - S12 <= sum_a n_a (S23_a - S2_a) <= S23 - S2.

    The right link needs the Kraus family to act on factor 1 only, so that
    the weighted conditionals average back to rho23 and concavity of the
    conditional entropy applies.
    """
    require_factors(rho123, 3)
    if k.acts_on != (1,):
        raise ValueError(f"sandwich requires a Kraus set acting on factor 1 only, got {k.acts_on}")
    middle = _measured_split(apply_kraus_op(rho123, k), rho123.dims[1:])[0]
    left = make_report("sandwich_left", _s123_minus_s12(rho123), middle, dims=rho123.dims,
                       kraus_count=len(k))
    right = make_report("sandwich_right", middle, _s23_minus_s2(rho123), dims=rho123.dims,
                        kraus_count=len(k))
    return left, right


def check_concave_map(l_op: np.ndarray, ops: Sequence[np.ndarray], a_ops: Sequence[np.ndarray],
                      b_ops: Sequence[np.ndarray]) -> InequalityReport:
    """Joint concavity of (A_1,...,A_M) -> Tr exp(L + sum K†(ln A)K) for sum K†K <= I.

    Lieb's theorem is the case of one K = I. Checked before any log: the K,
    A and B lists (`linalg.square_ops`), L, A and B of K's size, one A and
    one B per K, and the hypothesis: I - sum K†K, through `hermitize`'s
    guards, is PSD (`require_psd`). f(A) and f(B), evaluated before any
    mixture, reject an argument that is not positive definite. Reports the
    minimum concavity margin over the mixing weights DEFAULT_LAMBDAS.
    """
    ops, a_ops, b_ops = (square_ops(group, f"{name} operator") for name, group in
                         (("K", ops), ("A", a_ops), ("B", b_ops)))
    d = ops[0].shape[0]
    for name, x in (("L", l_op), ("A", a_ops[0]), ("B", b_ops[0])):
        if np.shape(x) != (d, d):
            raise ValueError(f"{name} shape {np.shape(x)} does not match K dim {d}")
    if len(a_ops) != len(ops) or len(b_ops) != len(ops):
        raise ValueError(f"{len(a_ops)} A and {len(b_ops)} B operators for {len(ops)} K operators")
    gap = np.eye(d) - sum(k.conj().T @ k for k in ops)
    require_psd(hermitian_eigvalsh(gap), "sum K†K exceeds I: I - sum K†K")
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
    """S[rho] + Tr(rho H) <= ln Tr e^H, saturated by the Gibbs state of H. Holds one full-size
    array besides the inputs: the hermitized H, overwritten by rho * conj(H) once it is solved."""
    h, h_asym = hermitize(h)
    if h.shape != rho.mat.shape:
        raise ValueError(f"dimension mismatch: state {rho.mat.shape} vs H {h.shape}")
    w = np.linalg.eigvalsh(h)
    # Tr(rho H) = sum_ij rho_ij H_ji, no n^3 product; H is exactly Hermitian, so H.T = conj(H)
    lhs = von_neumann(rho) + float(np.sum(np.multiply(rho.mat, np.conjugate(h, out=h), out=h)).real)
    # log-sum-exp for a stable ln Tr e^H
    top = w[-1]
    rhs = float(top + np.log(math.fsum(np.exp(w - top))))
    return make_report("gibbs_variational", lhs, rhs, dims=rho.dims, h_asymmetry=h_asym)


def check_cpt_monotonicity(rho123: DensityMatrix, k: KrausSet) -> InequalityReport:
    """Relative entropy contracts under the block-diagonal measurement channel.

    Checks H(Phi(rho123), Phi(rho12 x rho3)) <= H(rho123, rho12 x rho3) and
    records, in the metadata, the residual of the identity expressing the
    contracted side through the `_measured_split` terms of the outcome blocks,
    sum_a n_a (S[rho2_a] - S[rho23_a] + S[rho3]).
    """
    require_factors(rho123, 3)
    d = rho123.dims
    # rho123's outcome blocks feed both its channel image and the split terms;
    # apply_kraus_op also checks the family before any eigensolve
    blocks = apply_kraus_op(rho123, k)
    rho12 = partial_trace(rho123, {1, 2})
    rho3 = partial_trace(rho123, {3})
    product = kron_state(rho12, rho3)
    big = relative_entropy(rho123, product)
    small = relative_entropy(phi_from_blocks(blocks, d[1:]), cpt_phi(product, k))
    if not (math.isfinite(big) and math.isfinite(small)):
        return make_report("cpt_monotonicity", None, None, ">=", "skipped", d,
                           lhs_finite=math.isfinite(big), rhs_finite=math.isfinite(small), reason="support")
    terms = _measured_split(blocks, d[1:])[1]
    s3 = von_neumann(rho3)
    identity_value = math.fsum(n * (s2 - s23 + s3) for n, s23, s2 in terms)
    return make_report(
        "cpt_monotonicity", big, small, relation=">=", dims=d,
        kraus_count=len(k), identity_residual=abs(small - identity_value),
    )


def _conditional_entropies(rho12: DensityMatrix, p: Povm, factor: int = 1) -> list[tuple[float, float]]:
    """(-Tr B ln B, n) of each POVM conditional B of measuring `factor` (`block_entropy`)."""
    return [block_entropy(b) for b in povm_conditionals(rho12, p, factor=factor)]


def classical_quantum_entropy(rho12: DensityMatrix, p: Povm) -> float:
    """Entropy that is classical on factor 1 and quantum on factor 2.

    Equals -sum_a Tr[B_a ln B_a] over the subnormalized conditionals
    B_a = Tr_1[(P_a x I) rho12], which decomposes as Shannon(n) plus the
    weighted conditional entropies sum_a n_a S[rho2_a].
    """
    require_factors(rho12, 2)
    return math.fsum(s_b for s_b, _ in _conditional_entropies(rho12, p))


def _measured_conditional_entropy(rho12: DensityMatrix, p: Povm, factor: int = 1) -> float:
    """sum_a n_a S[rho_a] >= 0 (S_cQ - S_cl) for the POVM measured on `factor`, rho_a on the other."""
    # adding n ln n to -Tr B ln B recovers n S[rho_a]; n is the mass of the
    # eigenvalues B's entropy keeps, so a block below the floor adds exactly 0
    return math.fsum(s_b - entropy_from_eigs([n]) for s_b, n in _conditional_entropies(rho12, p, factor))


def check_improved_subadd(rho12: DensityMatrix, p: Povm) -> tuple[InequalityReport, InequalityReport]:
    """S12 <= S1 + sum_a n_a S[rho2_a] <= S1 + S2 for a POVM on factor 1."""
    s12, s1, s2 = bipartite_entropies(rho12)
    middle = s1 + _measured_conditional_entropy(rho12, p)
    left = make_report("improved_subadd_left", s12, middle, dims=rho12.dims,
                       povm_count=len(p))
    right = make_report("improved_subadd_right", middle, s1 + s2, dims=rho12.dims,
                        povm_count=len(p))
    return left, right


def require_counterexample_d(d: int) -> int:
    """d as an int; ValueError unless it is an integer >= 2, the factor dimension of `counterexample_two_sided`."""
    return _int_in(d, "counterexample d", 2)


def counterexample_two_sided(d: int) -> InequalityReport:
    """Uniformly correlated basis pairs defeat the two-sided split bound.

    For rho12 = (1/d) sum_a |aa><aa| and basis projectors on both factors,
    S[rho12] = ln d while every conditional state is pure, so splitting
    both factors yields zero on the right: ln d <= 0 fails, an "expected-violation".
    """
    d = require_counterexample_d(d)
    eye = np.eye(d, dtype=complex)
    rho12 = DensityMatrix(np.diag(eye.ravel() / d), (d, d))
    lhs = von_neumann(rho12)
    projectors = Povm([np.diag(row) for row in eye])
    rhs = sum(_measured_conditional_entropy(rho12, projectors, factor) for factor in (1, 2))
    return make_report("counterexample_two_sided", lhs, rhs, status="expected-violation", dims=(d, d),
                       note="two-sided split of the subadditivity bound fails by ln d", gap=lhs - rhs)


def _table_information(r: np.ndarray) -> tuple[float, np.ndarray]:
    """(mutual information, row marginal) of an outcome table r[a, b]; a marginal entry is one `math.fsum`.
    The one rule for a table's information: the measured and accessible information and cq-chain's classical end."""
    marg_a, marg_b = (np.array([math.fsum(x) for x in t]) for t in (r, r.T))
    return shannon(marg_a) + shannon(marg_b) - shannon(r), marg_a


def check_classical_mutual_info(rho12: DensityMatrix, p: Povm, q: Povm) -> InequalityReport:
    """Quantum mutual information dominates the measured mutual information."""
    classical_mi, marg_p = _table_information(povm_joint_distribution(rho12, p, q))
    quantum_mi = mutual_information(rho12)
    marginal_residual = require_same_mass(povm_weights(rho12, p), marg_p,
                                          "outcome-table marginal disagrees with direct weights")
    return make_report(
        "classical_mutual_info", quantum_mi, classical_mi, relation=">=",
        dims=rho12.dims, p_count=len(p), q_count=len(q),
        marginal_residual=marginal_residual,
    )


def check_cq_chain(rho12: DensityMatrix, p: Povm, q: Povm) -> tuple[InequalityReport, InequalityReport]:
    """Two links interpolating quantum and fully classical mutual information.

    First: S12 - S1 - S2 <= S_cQ - S_cl[rho1] - S2, where S_cQ measures
    factor 1 and keeps factor 2 quantum (S_cQ - S_cl[rho1] from `_measured_conditional_entropy`).
    Second: the same quantity is bounded by the fully classical S_cl[rho12] - S_cl[rho1] - S_cl[rho2],
    the negated information of the outcome table of p and q (`_table_information`).
    """
    s12, s1, s2 = bipartite_entropies(rho12)
    middle = _measured_conditional_entropy(rho12, p) - s2
    first = make_report(
        "cq_chain_quantum_to_cq", s12 - s1 - s2, middle,
        dims=rho12.dims, p_count=len(p),
    )
    second = make_report(
        "cq_chain_cq_to_classical", middle, -_table_information(povm_joint_distribution(rho12, p, q))[0],
        dims=rho12.dims, p_count=len(p), q_count=len(q),
    )
    return first, second


def check_cqq(rho123: DensityMatrix, p: Povm) -> InequalityReport:
    """S123 - S12 <= S_cQQ - S_cQ with factor 1 measured by a POVM.

    S_cQQ keeps factors {2,3} quantum, S_cQ keeps factor 2; both decompose
    through the subnormalized conditionals of the POVM, so the difference is
    `_measured_split` of those conditionals: the measured refinement bound
    for any Kraus family with K_a† K_a = P_a, the square roots among them.
    """
    require_factors(rho123, 3)
    bound = _measured_split(povm_conditionals(rho123, p, factor=1), rho123.dims[1:])[0]
    return make_report("cqq", _s123_minus_s12(rho123), bound, dims=rho123.dims, povm_count=len(p))


def check_convexity_cl_minus_q(a12: DensityMatrix, b12: DensityMatrix, p: Povm) -> InequalityReport:
    """Convexity of rho -> S_cQ[rho] - S[rho] on [a12, b12], by `least_convex_mixture`."""
    lam, gmix, combo, ga, gb = least_convex_mixture(
        lambda rho: classical_quantum_entropy(rho, p) - von_neumann(rho), a12, b12)
    return make_report("convexity_cl_minus_q", gmix, combo, dims=a12.dims,
                       lambda_at_min=lam, g_a=ga, g_b=gb)


def check_holevo(weights, states: Sequence[DensityMatrix], q: Povm) -> InequalityReport:
    """Accessible information of an ensemble is at most its Holevo quantity. The weights are
    checked first: a 1-D probability vector (`require_distribution`), one per state."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise ValueError(f"ensemble weights must be a 1-D vector, got {weights.tolist()}")
    require_distribution(weights, "ensemble weights")
    if len(weights) != len(states):
        raise ValueError(f"{len(weights)} weights for {len(states)} states")
    dims = states[0].dims
    if any(s.dims != dims for s in states):
        raise ValueError("ensemble states must share dimensions")
    if q.dim != states[0].dim:
        raise ValueError(f"POVM dim {q.dim} does not match state dim {states[0].dim}")
    r = weights[:, None] * (np.array([s.mat.ravel() for s in states]) @ q.rows.T).real
    accessible = _table_information(r)[0]
    avg = DensityMatrix(sum(w * s.mat for w, s in zip(weights, states)), dims)
    chi = von_neumann(avg) - math.fsum(w * von_neumann(s) for w, s in zip(weights, states))
    return make_report("holevo", accessible, chi, dims=dims,
                       ensemble_size=len(states), povm_count=len(q))
