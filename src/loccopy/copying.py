"""Copyability analysis and protocol synthesis for pairs of orthogonal
maximally entangled states.

The pair operator T = D * PT_2(|psi1><psi2|) = U1 U2^dag captures the
relation between two maximally entangled states.  A local copying
protocol with a maximally entangled blank exists iff, after removing a
global phase rotation, the spectrum of T consists of the Mth roots of
unity, each with the same multiplicity D/M, for some M dividing D.
When it does, a unitary A on the doubled space with

    A (T~ (x) 1) A^dag = T~ (x) T~        (T~ the rotated T)

exists and can be built by pairing eigenspaces of equal eigenvalue, and
the protocol's local unitaries follow from A by fixed conjugations.

Synthesis takes the qudit-CNOT pairing: A = sum_s X^s (x) Pi_s, with
Pi_s the projector onto T~'s eigenspace for the root w^s and X the
shift from each root's eigenspace to the previous root's.  Which root
an eigenvalue belongs to is decided once, by the verdict's clustering
at PHASE_TOL, and synthesis reuses those labels.  A satisfies the
defining relation to roundoff for the snapped operator
T^ = sum_s w^s Pi_s, against which it is checked, and for T~ itself to
within T~'s distance from T^, which the verdict bounds by PHASE_TOL.
The protocol's A and B are then each a sum of M Kronecker products of
d x d factors.  The checks of the construction run on those factors
at O(M d^3 + M^2 d^2): unitarity by a certified bound and the defining
relation for T^ exactly, both judged by UNITARITY_TOL.  The d^2 x d^2
work is assembling the returned A and B, at O(M d^4), and verifying
them on both states by the four-party overlap of simulator._simulate,
at O(d^5) in three work arrays.  Each state is validated once, by
states.unitary_of_state, which pair_operator and synthesize_protocol
call directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import (
    FIDELITY_TOL,
    MAX_DIM,
    ORTHO_TOL,
    PHASE_TOL,
    TAU,
    UNITARITY_TOL,
    AmbiguityError,
    PreconditionError,
    SynthesisError,
)
from .states import BipartiteState, _gram_defect, assert_unitary, unitary_of_state
from .tensor import _kron_sum, eig_normal

ORTHOGONAL = "orthogonal"
IDENTICAL = "identical_up_to_phase"
NEITHER = "neither"


@dataclass
class SpectrumReport:
    """Outcome of the spectral copyability test for a pair operator."""

    eigenphases: np.ndarray          # sorted ascending, in [0, 2pi)
    clusters: tuple[tuple[float, int], ...]  # (representative phase, multiplicity)
    rotation: float                  # angle removed so the anchor cluster sits at 0
    detected_m: int | None           # M when copyable, else None
    copyable: bool
    trace: complex


@dataclass
class CopyProtocol:
    """Local unitaries copying two designed states onto a blank.

    A acts on particles (1,3), B on particles (2,4); the transformation
    achieved is A^13 (x) B^24 |psi_j^12>|b^34> = e^{i theta_j}
    |psi_j^12>|psi_j^34> for j in {1, 2}.
    """

    d: int
    blank: BipartiteState
    a_op: np.ndarray
    b_op: np.ndarray
    phases: tuple[float, float]
    wiring: ClassVar[str] = "A:(1,3) B:(2,4)"  # the one wiring; not a field

    def __post_init__(self) -> None:
        if self.blank.d != self.d:
            raise ValueError(f"blank has d={self.blank.d}, but the protocol has d={self.d}")
        n = self.d * self.d
        self.a_op = np.asarray(self.a_op, dtype=complex)
        self.b_op = np.asarray(self.b_op, dtype=complex)
        if self.a_op.shape != (n, n) or self.b_op.shape != (n, n):
            raise ValueError(
                f"operators must be {n} x {n} for d={self.d}, "
                f"got {self.a_op.shape} and {self.b_op.shape}"
            )


def pair_operator(psi1: BipartiteState, psi2: BipartiteState) -> np.ndarray:
    """T = D * PT_2(|psi1><psi2|) = U1 U2^dag, from the polished unitaries.

    Tracing out the second factor of |psi1><psi2| contracts the two
    amplitude grids over their second index, so T = D * C1 C2^dag.
    Both inputs must be maximally entangled; that is exactly the
    condition under which the partial trace is proportional to a unitary.
    T is formed from U1 and U2 as unitary_of_state validates and
    polishes them, as synthesize_protocol forms W: it differs from
    D * C1 C2^dag by about the states' deviation from maximal
    entanglement, and is unitary to roundoff for every pair that passes
    MAX_ENT_TOL, so spectral_verdict accepts the pairs that
    synthesize_protocol accepts.
    """
    if psi1.d != psi2.d:
        raise ValueError(f"dimension mismatch: {psi1.d} vs {psi2.d}")
    return unitary_of_state(psi1) @ unitary_of_state(psi2).conj().T


def orthogonality(t: np.ndarray) -> str:
    """Classify the state pair behind t by |Tr(T)|.

    <psi2|psi1> = Tr(T)/D, and for copyable pairs the trace magnitude is
    either 0 or D: returns "orthogonal" when |Tr| < D*ORTHO_TOL,
    "identical_up_to_phase" when |Tr| > D*(1 - ORTHO_TOL), else "neither".
    """
    t = np.asarray(t)
    d = t.shape[0]
    mag = abs(np.trace(t))
    if mag < d * ORTHO_TOL:
        return ORTHOGONAL
    if mag > d * (1.0 - ORTHO_TOL):
        return IDENTICAL
    return NEITHER


def _verdict(lam: np.ndarray, trace: complex) -> tuple[SpectrumReport, list[int]]:
    """The spectral verdict on the eigenvalues lam of a unitary pair
    operator, and the cluster label of each eigenvalue.

    Three array operations give the phases in [0, 2pi), their sort order
    and the points e^{i phase}, and a fourth the M cluster angles; the
    rest is one plain-Python pass over those d values and the M
    clusters, which for the d of a verdict costs less than the per-call
    overhead of further array operations.  The sorted phases are cut
    into clusters at gaps > PHASE_TOL, and the first and last clusters
    merge when they meet across the 0/2pi seam; cluster 0 holds the
    smallest phase.  Each cluster is represented by
    the circular mean of its phases, accumulated in eigenvalue order.
    Two representatives within 2 PHASE_TOL raise AmbiguityError.
    Otherwise the rotation puts cluster 0 at 0, and the pair is copyable
    iff the rotated representatives lie within PHASE_TOL of the M-th
    roots of unity (M the number of clusters) and every multiplicity
    is D/M.  Clusters are numbered in ascending phase order from cluster
    0, so for a copyable report cluster k is the root w^k: the labels
    are the root indices by which synthesis pairs eigenspaces.
    """
    tol = PHASE_TOL
    phases = np.angle(lam) % TAU
    order = np.argsort(phases)
    points = np.exp(1j * phases).tolist()
    values = phases.tolist()
    d = len(values)

    sorted_idx = order.tolist()
    labels = [0] * d
    m = 0
    previous = values[sorted_idx[0]]
    for i in sorted_idx[1:]:
        if values[i] - previous > tol:
            m += 1
        labels[i] = m
        previous = values[i]
    m += 1
    if m > 1 and values[sorted_idx[0]] + TAU - previous <= tol:
        m -= 1
        labels = [0 if label == m else label for label in labels]

    real, imag, multiplicities = [0.0] * m, [0.0] * m, [0] * m
    for label, z in zip(labels, points):
        real[label] += z.real
        imag[label] += z.imag
        multiplicities[label] += 1
    # numpy's arctan2, not math.atan2, which can differ in the last ulp
    reps = (np.arctan2(imag, real) % TAU).tolist()

    by_phase = sorted(range(m), key=reps.__getitem__)
    if m > 1:
        ordered = [reps[k] for k in by_phase]
        smallest = min(b - a for a, b in zip(ordered, ordered[1:] + [ordered[0] + TAU]))
        if smallest <= 2.0 * tol:
            raise AmbiguityError(
                f"two eigenphase clusters are separated by only {smallest:.3e} rad, "
                f"between PHASE_TOL {tol:.1e} and twice that; "
                "the clustering is ambiguous at this tolerance"
            )

    rotation = -reps[0] % TAU  # cluster 0 holds the smallest phase
    rotated = sorted((r + rotation) % TAU for r in reps)
    offsets = (abs(r - TAU * k / m) % TAU for k, r in enumerate(rotated))
    aligned = all(min(offset, TAU - offset) <= tol for offset in offsets)
    copyable = aligned and d % m == 0 and all(c == d // m for c in multiplicities)

    report = SpectrumReport(
        eigenphases=phases[order],
        clusters=tuple((reps[k], multiplicities[k]) for k in by_phase),
        rotation=rotation,
        detected_m=m if copyable else None,
        copyable=copyable,
        trace=complex(trace),
    )
    return report, labels


def spectral_verdict(t: np.ndarray) -> SpectrumReport:
    """Decide copyability of the pair behind t from its eigenphases.

    Clusters the eigenphases, removes the rotation that puts the cluster
    containing the smallest phase at 0, and reports copyable iff the
    cluster representatives match the Mth-roots-of-unity grid (M = number
    of clusters) within PHASE_TOL and all multiplicities equal D/M.
    Needs only the eigenvalues of t, never its eigenvectors.
    """
    t = np.asarray(t, dtype=complex)
    assert_unitary(t, "pair operator")
    return _verdict(np.linalg.eigvals(t), np.trace(t))[0]


def degeneracy_form_check(multiplicities: list[int], m: int, d: int) -> bool:
    """Evaluate the quadratic degeneracy condition on root multiplicities.

    With lambda_r = e^{2 pi i (r-1)/M}, the spectra of T~ (x) T~ and
    T~ (x) 1 agree iff for every r

        sum_{s,s'} G_{rss'} d_s d_{s'} = D * d_r,
        G_{rss'} = 1 iff (s + s' - r) mod M == 1.

    Exact integer arithmetic; an independent oracle for the equal-
    degeneracy answer of spectral_verdict.
    """
    mult = [int(x) for x in multiplicities]
    if len(mult) != m:
        raise ValueError(f"expected {m} multiplicities, got {len(mult)}")
    if sum(mult) != d:
        raise ValueError(f"multiplicities sum to {sum(mult)}, expected {d}")
    for r in range(1, m + 1):
        total = 0
        for s in range(1, m + 1):
            for sp in range(1, m + 1):
                if (s + sp - r) % m == 1:
                    total += mult[s - 1] * mult[sp - 1]
        if total != d * mult[r - 1]:
            return False
    return True


def _decompose(t: np.ndarray) -> tuple[np.ndarray, list[int], SpectrumReport]:
    """One eigendecomposition of a unitary t, shared by verdict and synthesis.

    Returns the eigenvectors, the verdict's root label of each, and the
    report.  Raises PreconditionError when the spectral condition fails.
    """
    assert_unitary(t, "pair operator")
    lam, v = eig_normal(t)
    report, labels = _verdict(lam, np.trace(t))
    if not report.copyable:
        raise PreconditionError(
            "pair operator spectrum is not equally degenerate roots of unity; "
            "no copying protocol exists"
        )
    return v, labels, report


def _synthesize_from(
    v: np.ndarray, labels: list[int], m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The controlled shift C1 = sum_s X^s (x) Pi_s, checked from its factors.

    labels gives the root index of each column of V, and each root has
    d/M of them (the verdict's equal degeneracy).  Returns V with its
    columns grouped by root (root 0 first) and the stacks of X^s and
    Pi_s, s = 0..M-1.  The relation is checked against the snapped
    T^ = sum_s w^s Pi_s, for which it holds exactly, so its residual is
    roundoff judged by UNITARITY_TOL; T~'s own distance from the root
    grid is the verdict's to judge, by PHASE_TOL.
    """
    v = v[:, np.argsort(labels, kind="stable")]
    _check_unitary(v, v, "synthesized C1")
    shifts, projectors = _shift_factors(v, v, m)
    t_snapped = np.tensordot(np.exp(1j * TAU / m * np.arange(m)), projectors, axes=1)
    residual = _relation_residual(shifts, projectors, t_snapped)
    if not residual <= UNITARITY_TOL:
        raise SynthesisError(
            f"synthesized A fails its defining relation: residual {residual:.3e}"
        )
    return v, shifts, projectors


def _shift_factors(left: np.ndarray, right: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2M d x d factors of X = (L (x) L) P (L (x) R)^dag = sum_s x_s (x) y_s,
    P the controlled shift, as two (M, d, d) stacks.

    The columns of L and R come in M blocks of k = d/M, block s for
    root s.  x_s = roll(L, s*k, axis=1) L^dag and y_s = L_s R_s^dag, with
    L_s the s-th block of L.  For L = R = V, x_s = X^s maps root r to
    root r - s, y_s = Pi_s projects onto root s, and X is C1.
    """
    d = left.shape[0]
    k = d // m
    # roll(L, s*k, axis=1)[:, j] is L[:, j - s*k]
    columns = (np.arange(d) - k * np.arange(m)[:, None]) % d
    shifts = left[:, columns].transpose(1, 0, 2) @ left.conj().T
    blocks = left.reshape(d, m, k).transpose(1, 0, 2)
    projectors = blocks @ right.reshape(d, m, k).conj().transpose(1, 2, 0)
    return shifts, projectors


def _kron_gram_residual(e_left: np.ndarray, e_right: np.ndarray) -> float:
    """||G_l (x) G_r - I||_F for G = I + E, from the defects E, at O(d^2).

    G_l (x) G_r - I = E_l (x) G_r + I (x) E_r, whose squared norm is
    ||E_l||^2 ||G_r||^2 + d ||E_r||^2 + 2 tr(E_l) tr(G_r E_r): every
    term is of the order of the residual itself, so no O(1) quantity
    cancels, as it would in ||G_l (x) G_r||^2 - 2 Re tr(G_l (x) G_r) + d^2.
    """
    g_right = e_right + np.eye(e_right.shape[0])
    squared = (np.vdot(e_left, e_left).real * np.vdot(g_right, g_right).real
               + e_left.shape[0] * np.vdot(e_right, e_right).real
               + 2.0 * np.trace(e_left).real * np.vdot(g_right, e_right).real)
    return math.sqrt(max(squared, 0.0))


def _check_unitary(left: np.ndarray, right: np.ndarray, what: str) -> float:
    """Certified bound on ||X^dag X - I||_F for X = (L (x) L) P (L (x) R)^dag,
    P any permutation, from the d x d factors.

    With K1 = L (x) L, K2 = L (x) R and E1 = K1^dag K1 - I,
    X^dag X - I = (K2 K2^dag - I) + K2 P^dag E1 P K2^dag.  K2 K2^dag and
    K2^dag K2 share their spectrum, so with e = ||K^dag K - I||_F the
    residual is at most e2 + (1 + e2) e1, and each e is exact by
    _kron_gram_residual.  Returns the bound; above UNITARITY_TOL it
    raises SynthesisError.  A bound within the tolerance puts the dense
    residual within it too, up to the roundoff of a dense product, so
    the check is no looser than a dense one.
    """
    e_left = _gram_defect(left)
    e1 = _kron_gram_residual(e_left, e_left)
    e2 = _kron_gram_residual(e_left, _gram_defect(right))
    bound = e2 + (1.0 + e2) * e1
    if not bound <= UNITARITY_TOL:
        raise SynthesisError(f"{what} is not unitary: ||U^dag U - I|| <= {bound:.3e}")
    return bound


def _relation_residual(shifts: np.ndarray, projectors: np.ndarray, t: np.ndarray) -> float:
    """||C1 (T (x) 1) - (T (x) T) C1||_F for C1 = sum_s X^s (x) Pi_s and any
    d x d T, at O(M d^3 + M^2 d^2).

    The difference is sum_s D_s (x) Pi_s - (T X^s) (x) R_s with
    D_s = X^s T - w^s T X^s and R_s = T Pi_s - w^s Pi_s (w = e^{2 pi i/M}),
    so its norm is taken on the small D_s and R_s, not on the two O(1)
    sides, by ||sum_j a_j (x) b_j||_F^2 = sum_{j,k} <a_j, a_k> <b_j, b_k>.
    """
    m = shifts.shape[0]
    roots = np.exp(1j * TAU / m * np.arange(m))[:, None, None]
    t_shifts = t @ shifts
    first = np.concatenate((shifts @ t - roots * t_shifts, t_shifts)).reshape(2 * m, -1)
    second = np.concatenate(
        (projectors, roots * projectors - t @ projectors)).reshape(2 * m, -1)
    squared = np.sum((first.conj() @ first.T) * (second.conj() @ second.T)).real
    return math.sqrt(max(squared, 0.0))


def synthesize_a(t: np.ndarray) -> np.ndarray:
    """Build a unitary A with A (T~ (x) 1) A^dag = T~ (x) T~.

    T~ is t rotated per spectral_verdict.  A is the controlled shift
    sum_s X^s (x) Pi_s: Pi_s projects onto T~'s eigenspace for the root
    w^s, and X maps the eigenspace for each root w^r onto the one for
    w^(r-1), so that X^s T~ X^-s = w^s T~.  Each eigenvector's root is
    the one spectral_verdict assigned it.  A is checked for unitarity
    and against its defining relation from these d x d factors before
    it is assembled.  It satisfies the relation to roundoff for the
    snapped T^ = sum_s w^s Pi_s, and for T~ itself to within T~'s
    distance from T^, which the verdict bounds by putting every
    cluster within PHASE_TOL of its root.  Deterministic for a given t.
    Raises PreconditionError when the spectral condition fails.
    """
    t = np.asarray(t, dtype=complex)
    v, labels, report = _decompose(t)
    return _kron_sum(*_synthesize_from(v, labels, report.detected_m)[1:])


def synthesize_protocol(
    psi1: BipartiteState,
    psi2: BipartiteState,
    blank: BipartiteState,
) -> CopyProtocol:
    """Construct local unitaries A, B copying both psi1 and psi2 onto blank.

    Requires psi1 and psi2 orthogonal, all three states maximally
    entangled, and the pair operator copyable.  The abstract eigenspace
    problem is solved for W = U2^dag U1, whose solution is the
    controlled shift C_1 = sum_s X^s (x) Pi_s of synthesize_a; then
    A = (U1 (x) U1) C_1 (U1 (x) U_b)^dag and B = conj(C_1), with
    theta_1 = 0 and theta_2 = -rotation.  W is similar to the pair
    operator T = U1 U2^dag, so its trace and spectrum decide
    orthogonality and copyability in T's place.

    Each state is validated once by unitary_of_state, as pair_operator
    validates its two, from one Gram matrix that also gives its unitary
    one Newton-Schulz step toward unitarity before W is formed, so
    states that pass MAX_ENT_TOL yield a unitary W and A.  A and B are
    each a sum of M Kronecker products of d x d factors.  From those
    factors alone, C_1 and A are checked for unitarity by a certified
    bound (B = conj(C_1) shares C_1's residual) and C_1 against its
    defining relation for the snapped W^, as in synthesize_a.  Only then are the d^2 x d^2 operators A and B
    assembled, at O(M d^4), and the returned A and B verified on both
    states by the closed-form four-party overlap of run_copy
    (simulator._simulate), at O(d^5) in three d^2 x d^2 work arrays.
    A failed check raises SynthesisError.  Raises ValueError when the
    operators would exceed MAX_DIM.
    """
    if not psi1.d == psi2.d == blank.d:
        raise ValueError(
            f"dimension mismatch: {psi1.d}, {psi2.d} and blank {blank.d}"
        )
    n = psi1.d * psi1.d
    if n > MAX_DIM:
        raise ValueError(f"protocol operators are {n} x {n}, exceeds max dimension {MAX_DIM}")
    u1, u2, ub = (unitary_of_state(s) for s in (psi1, psi2, blank))

    w = u2.conj().T @ u1
    kind = orthogonality(w)
    if kind != ORTHOGONAL:
        raise PreconditionError(
            f"states to copy must be orthogonal, got verdict {kind!r}"
        )
    v, labels, report = _decompose(w)
    v, shifts, projectors = _synthesize_from(v, labels, report.detected_m)

    # A = (U1 (x) U1) C_1 (U1 (x) U_b)^dag = (U1 V (x) U1 V) P (U1 V (x) U_b V)^dag
    u1v, ubv = u1 @ v, ub @ v
    _check_unitary(u1v, ubv, "A operator")
    a_factors = _shift_factors(u1v, ubv, report.detected_m)
    b_factors = (shifts.conj(), projectors.conj())
    theta2 = -report.rotation
    theta2 = (theta2 + math.pi) % TAU - math.pi  # wrap to [-pi, pi)
    protocol = CopyProtocol(
        d=psi1.d, blank=blank, a_op=_kron_sum(*a_factors), b_op=_kron_sum(*b_factors),
        phases=(0.0, theta2),
    )

    # deferred: simulator imports this module; states and operators are
    # validated above
    from .simulator import _simulate

    for label, (fidelity, _) in zip(("psi1", "psi2"), _simulate(protocol, (psi1, psi2))):
        if not fidelity >= 1.0 - FIDELITY_TOL:
            raise SynthesisError(
                f"synthesized protocol failed verification on {label}: "
                f"fidelity {fidelity!r}"
            )
    return protocol
