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

spectral_verdict calls T copyable iff every eigenphase lies within
PHASE_TOL of such a spectrum; its clusters, cut at gaps of 2 PHASE_TOL,
are then exactly the roots.  It alone decides: synthesis reads its
report.  Synthesis takes the qudit-CNOT pairing: A = sum_s X^s (x) Pi_s,
with Pi_s the projector onto T~'s eigenspace for the root w^s (each
eigenvector takes the nearest root of the report's rotated grid) and X
the shift from each root's eigenspace to the previous root's.
NotCopyableError alone says no protocol exists.  With V the
eigenvectors grouped by root, A = (V (x) V) P (V (x) V)^dag for a fixed
permutation P, and T^ = sum_s w^s Pi_s is built from the same column
blocks of V, so A (T^ (x) 1) A^dag = T^ (x) T^ holds for any unitary V;
T^ lies within PHASE_TOL of T~ in each eigenphase.  So the construction
rests on V alone: its unitarity, certified at O(d^3) by a bound judged
by UNITARITY_TOL, and the four-party verification below, which alone
sees a wrong pairing of roots.  The protocol's A and B are each a sum
of M Kronecker products of d x d factors, made at O(M d^3); the
CopyProtocol that holds them is defined in simulator, beside the
overlap that verifies it.  The d^2 x d^2 work is assembling the
returned A and B, at O(M d^4), and verifying them on both states by
the four-party overlap of simulator._simulate, at O(d^5) in three work
arrays.  Each state is validated once, by
states.unitary_of_state, which pair_operator and synthesize_protocol
call directly with the state's role (psi1, psi2, blank) as the name a
refusal gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    FIDELITY_TOL,
    PHASE_TOL,
    TAU,
    UNITARITY_TOL,
    NotCopyableError,
    SynthesisError,
    check_dense_bytes,
    int_text,
    protocol_bytes,
)
from .simulator import CopyProtocol, _simulate
from .states import BipartiteState, _gram_defect, assert_unitary, unitary_of_state
from .tensor import _kron_sum, eig_normal

ORTHOGONAL = "orthogonal"
IDENTICAL = "identical_up_to_phase"
NEITHER = "neither"


@dataclass
class SpectrumReport:
    """Outcome of the spectral copyability test for a pair operator."""

    eigenphases: np.ndarray          # sorted ascending, in [0, 2pi)
    # (representative phase in [0, 2pi), multiplicity), the anchor cluster
    # first; when copyable, clusters[k] is the rotated root w^k
    clusters: tuple[tuple[float, int], ...]
    rotation: float                  # angle in [0, 2pi) that puts clusters[0] at 0
    detected_m: int | None           # M when copyable, else None
    trace: complex

    @property
    def copyable(self) -> bool:
        return self.detected_m is not None

    @property
    def orthogonality(self) -> str:
        """The pair's answer, the one that check-pair and survey give:
        "orthogonal" for a copyable report with M >= 2, whose roots sum
        to 0, "identical_up_to_phase" for M = 1, and for a report that is
        not copyable, orthogonality's trace rule on its trace."""
        if self.detected_m is not None:
            return ORTHOGONAL if self.detected_m > 1 else IDENTICAL
        return _by_trace(abs(self.trace), len(self.eigenphases))


def pair_operator(psi1: BipartiteState, psi2: BipartiteState) -> np.ndarray:
    """T = D * PT_2(|psi1><psi2|) = U1 U2^dag, from the polished unitaries.

    Tracing out the second factor of |psi1><psi2| contracts the two
    amplitude grids over their second index, so T = D * C1 C2^dag.
    Both inputs must be maximally entangled; that is exactly the
    condition under which the partial trace is proportional to a unitary.
    T is formed from U1 and U2 as unitary_of_state validates and
    polishes them, and synthesize_protocol forms it the same way, so
    check-pair and synthesize read one verdict on one operator.
    """
    if psi1.d != psi2.d:
        raise ValueError(f"dimension mismatch: {psi1.d} vs {psi2.d}")
    return unitary_of_state(psi1, "psi1") @ unitary_of_state(psi2, "psi2").conj().T


def orthogonality(t: np.ndarray) -> str:
    """Classify the state pair behind t by |Tr(T)|, judged at PHASE_TOL.

    <psi2|psi1> = Tr(T)/D: returns "orthogonal" when |Tr| <= D*PHASE_TOL,
    "identical_up_to_phase" when |Tr| >= D*(1 - PHASE_TOL), else
    "neither".  The rule alone can disagree with spectral_verdict at its
    arc bound, where a copyable T with M >= 2 may have |Tr|/D just above
    PHASE_TOL by roundoff; SpectrumReport.orthogonality, which
    check-pair and survey print, applies the rule only to a report that
    is not copyable.
    """
    t = np.asarray(t)
    return _by_trace(abs(np.trace(t)), t.shape[0])


def _by_trace(mag: float, d: int) -> str:
    if mag <= d * PHASE_TOL:
        return ORTHOGONAL
    if mag >= d * (1.0 - PHASE_TOL):
        return IDENTICAL
    return NEITHER


def _mod_tau(x):
    r = x % TAU  # elementwise; exactly TAU for a tiny negative x, which maps to 0.0
    return r - TAU * (r == TAU)


def spectral_verdict(t: np.ndarray) -> SpectrumReport:
    """Decide copyability of the pair behind t from its eigenphases.

    Reports copyable iff every eigenphase lies within PHASE_TOL of a
    rotated grid of Mth roots of unity, each root holding D/M of them.
    Needs only the eigenvalues of t, never its eigenvectors.  The one
    judge of copyability: check-pair, survey, synthesize_a and
    synthesize_protocol all read this report.

    One pass over the phases, sorted once as keys in
    [-2 PHASE_TOL, 2pi - 2 PHASE_TOL), so that a phase within roundoff
    of the 0/2pi seam sorts first on either side of it.  The pass cuts
    the keys into clusters at gaps > 2 PHASE_TOL, merges the last
    cluster into the first when they meet across the seam within the
    same bound, and sums each cluster's points e^{i key}; the circular
    mean represents the cluster, and rotation puts the first cluster's
    at 0.  The rest is plain Python, cheaper at a verdict's d than more
    array calls.  The pair is copyable iff every multiplicity is D/M
    (M the number of clusters) and the offsets key - 2 pi k / M +
    rotation, k the key's cluster, lie on an arc of at most 2 PHASE_TOL,
    that is, iff every phase lies within PHASE_TOL of a rotated grid of
    Mth roots with equal multiplicities: such a grid's groups are at most
    2 PHASE_TOL wide and more than 2 PHASE_TOL apart, so they are the
    clusters, and no other M fits.  The clusters are listed in key order,
    so clusters[0] is the one rotation puts at 0, and in a copyable
    report clusters[k] is the root w^k of the rotated grid.
    """
    t = np.asarray(t, dtype=complex)
    assert_unitary(t, "pair operator")
    cut = 2.0 * PHASE_TOL
    angles = np.angle(np.linalg.eigvals(t))
    keys = np.sort(angles + TAU * (angles < -cut))  # the phases in [-cut, 2pi - cut), ascending
    values = keys.tolist()
    points = np.exp(1j * keys).tolist()
    d = len(values)

    labels = [0] * d
    m = 0
    for i in range(1, d):
        if values[i] - values[i - 1] > cut:
            m += 1
        labels[i] = m
    m += 1
    if m > 1 and values[0] + TAU - values[-1] <= cut:  # the last cluster meets the first
        m -= 1
        labels = [0 if label == m else label for label in labels]

    real, imag, multiplicities = [0.0] * m, [0.0] * m, [0] * m
    for label, z in zip(labels, points):
        real[label] += z.real
        imag[label] += z.imag
        multiplicities[label] += 1
    # numpy's arctan2, not math.atan2, which can differ in the last ulp
    reps = _mod_tau(np.arctan2(imag, real)).tolist()

    rotation = _mod_tau(-reps[0])
    # each phase's offset from its rotated root, shifted by pi so that the
    # offsets near 0 cannot wrap
    offsets = [(v - TAU * k / m + rotation + math.pi) % TAU for v, k in zip(values, labels)]
    copyable = (d % m == 0 and all(c == d // m for c in multiplicities)
                and max(offsets) - min(offsets) <= cut)

    return SpectrumReport(
        eigenphases=np.sort(_mod_tau(angles)),
        # tuple() of a list: of an iterator it resizes its result, which
        # moves a tuple between CPython's per-size free lists on every call,
        # so the free lists, and peak RSS, grow until they are full
        clusters=tuple(list(zip(reps, multiplicities))),
        rotation=rotation,
        detected_m=m if copyable else None,
        trace=complex(np.trace(t)),
    )


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


def _root_basis(w: np.ndarray, report: SpectrumReport) -> np.ndarray:
    """The eigenvectors V of a unitary w, columns grouped by root (root 0
    first), from report, the verdict on w or on an operator similar to it.

    Raises NotCopyableError for a report that is not copyable.  Else
    runs eig_normal(w) and gives each eigenvector the nearest root of the
    report's rotated grid, rint(M (phase + rotation) / 2pi) mod M, the
    stable sort keeping eig_normal's order within a root.  C1 =
    (V (x) V) P (V (x) V)^dag, from _shift_factors(V, V, M), satisfies
    its relation exactly for any unitary V (see the module docstring),
    so V's unitarity is the one check here, a bound that C1 inherits
    (SynthesisError above UNITARITY_TOL).
    """
    if not report.copyable:
        raise NotCopyableError(
            "pair operator spectrum is not equally degenerate roots of unity; "
            "no copying protocol exists"
        )
    m = report.detected_m
    lam, v = eig_normal(w)
    roots = np.rint(m * (np.angle(lam) + report.rotation) / TAU).astype(int) % m
    v = v[:, np.argsort(roots, kind="stable")]
    _check_unitary(v, v, "synthesized C1")
    return v


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


def synthesize_a(t: np.ndarray) -> np.ndarray:
    """Build a unitary A with A (T~ (x) 1) A^dag = T~ (x) T~.

    T~ is t rotated per spectral_verdict(t), whose report alone decides
    that A exists.  A = sum_s X^s (x) Pi_s, from the d x d factors
    _shift_factors(V, V, M) of _root_basis's V: Pi_s projects onto T~'s
    eigenspace for the root w^s, and X maps the eigenspace for each root
    w^r onto the one for w^(r-1), so that X^s T~ X^-s = w^s T~.  V is
    checked for unitarity before A is assembled.  The relation holds
    exactly for T^ = sum_s w^s Pi_s, whatever the unitary V, and T^ lies
    within PHASE_TOL of T~ in each eigenphase.  Deterministic for a
    given t.  Raises NotCopyableError when the spectral condition fails,
    and ValueError for an empty t or one whose A would exceed
    DENSE_BYTES, before any eigendecomposition.
    """
    t = np.asarray(t, dtype=complex)
    check_dense_bytes(f"C1 for a {t.shape} pair operator", 16 * t.size**2)
    report = spectral_verdict(t)
    v = _root_basis(t, report)
    return _kron_sum(*_shift_factors(v, v, report.detected_m))


def synthesize_protocol(
    psi1: BipartiteState,
    psi2: BipartiteState,
    blank: BipartiteState,
) -> CopyProtocol:
    """Construct local unitaries A, B copying both psi1 and psi2 onto blank.

    Whether a protocol exists is read from spectral_verdict on the pair
    operator T = U1 U2^dag, formed as pair_operator forms it: none exists
    when that report is not copyable or has M = 1 (the pair is identical
    up to phase).  A copyable report with M >= 2 reads "orthogonal"
    (SpectrumReport.orthogonality), so no trace is checked.

    The eigenspace problem is solved for W = U2^dag U1, similar to T:
    _root_basis groups its eigenvectors V by the nearest root of the
    report's rotated grid, and they make the controlled shift
    C_1 = sum_s X^s (x) Pi_s of synthesize_a; then
    A = (U1 (x) U1) C_1 (U1 (x) U_b)^dag and B = conj(C_1), with
    theta_1 = 0 and theta_2 = -rotation, wrapped to [-pi, pi).

    Each state is validated once by unitary_of_state, as pair_operator
    validates its two, and its unitary polished, so states that pass
    MAX_ENT_TOL yield a unitary T, W and A.  C_1 and A are checked for
    unitarity from their d x d factors (B = conj(C_1) shares C_1's
    residual) before the d^2 x d^2 A and B are assembled, at O(M d^4),
    and verified on both states by the four-party overlap of
    simulator._simulate, at O(d^5), which alone sees a wrong pairing of
    roots; a failed check raises SynthesisError.

    NotCopyableError, and no other error, says that no protocol exists.
    Invalid input raises ValueError (unequal dimensions, or
    protocol_bytes(d) beyond DENSE_BYTES, before any state is validated)
    or PreconditionError naming psi1, psi2 or blank, whichever is not
    maximally entangled.
    """
    if not psi1.d == psi2.d == blank.d:
        raise ValueError(f"dimension mismatch: {psi1.d}, {psi2.d} and blank {blank.d}")
    check_dense_bytes(f"synthesis at d = {int_text(psi1.d)}", protocol_bytes(psi1.d))
    u1, u2, ub = (unitary_of_state(psi1, "psi1"), unitary_of_state(psi2, "psi2"),
                  unitary_of_state(blank, "blank"))

    report = spectral_verdict(u1 @ u2.conj().T)
    if report.detected_m == 1:
        raise NotCopyableError("states to copy must be orthogonal, got a pair identical up to phase")
    m = report.detected_m
    v = _root_basis(u2.conj().T @ u1, report)

    # A = (U1 (x) U1) C_1 (U1 (x) U_b)^dag = (U1 V (x) U1 V) P (U1 V (x) U_b V)^dag
    u1v, ubv = u1 @ v, ub @ v
    _check_unitary(u1v, ubv, "A operator")
    a_factors = _shift_factors(u1v, ubv, m)
    b_factors = (factor.conj() for factor in _shift_factors(v, v, m))
    theta2 = (-report.rotation + math.pi) % TAU - math.pi  # wrap to [-pi, pi)
    protocol = CopyProtocol(
        d=psi1.d, blank=blank, a_op=_kron_sum(*a_factors), b_op=_kron_sum(*b_factors),
        phases=(0.0, theta2),
    )

    for label, (fidelity, _) in zip(("psi1", "psi2"), _simulate(protocol, (psi1, psi2))):
        if not fidelity >= 1.0 - FIDELITY_TOL:
            raise SynthesisError(
                f"synthesized protocol failed verification on {label}: "
                f"fidelity {fidelity!r}"
            )
    return protocol


def survey(ds, samples: int, seed: int) -> list[dict]:
    """One row {"d", "samples", "orthogonal_fraction", "copyable_fraction"}
    per d in ds, over samples pairs from orthogonal_pair.  Sample k at d
    draws from SeedSequence((seed, d, k)) and is judged by one
    spectral_verdict on its pair_operator, whose report gives both
    answers.  ValueError refuses samples < 1, d < 2 and a d past
    DENSE_BYTES before the first draw."""
    from . import generators  # here, so that check-pair and synthesize never load it

    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    ds = list(ds)
    for d in ds:
        generators._check_dimension(d)
    rows = []
    for d in ds:
        orthogonal_count = copyable_count = 0
        for k in range(samples):
            # flat, well-mixed per-sample seed derived from (seed, d, k)
            sample_seed = int(np.random.SeedSequence((seed, d, k)).generate_state(1)[0])
            report = spectral_verdict(pair_operator(*generators.orthogonal_pair(d, sample_seed)))
            orthogonal_count += report.orthogonality == ORTHOGONAL
            copyable_count += report.copyable
        rows.append({"d": d, "samples": samples,
                     "orthogonal_fraction": orthogonal_count / samples,
                     "copyable_fraction": copyable_count / samples})
    return rows
