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

Every operator synthesis returns is d x d factors around one
permutation, so it is built, checked for unitarity and verified by
Kronecker-structured products at O(d^5), never by a product of two
dense d^2 x d^2 matrices.  Those products run in three d^2 x d^2 work
arrays that each synthesis call allocates once and passes from stage
to stage; no array outlives the call except the returned A and B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    DEFAULT,
    TAU,
    AmbiguityError,
    NumericConfig,
    PreconditionError,
    SynthesisError,
)
from .states import BipartiteState, assert_max_entangled, assert_unitary, unitary_of_state
from .tensor import _kron_matmul_into, _permuted_kron, _work_buffers, eig_normal

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
    wiring: str = "A:(1,3) B:(2,4)"

    def __post_init__(self) -> None:
        n = self.d * self.d
        self.a_op = np.asarray(self.a_op, dtype=complex)
        self.b_op = np.asarray(self.b_op, dtype=complex)
        if self.a_op.shape != (n, n) or self.b_op.shape != (n, n):
            raise ValueError(
                f"operators must be {n} x {n} for d={self.d}, "
                f"got {self.a_op.shape} and {self.b_op.shape}"
            )


def pair_operator(
    psi1: BipartiteState, psi2: BipartiteState, config: NumericConfig | None = None
) -> np.ndarray:
    """T = D * PT_2(|psi1><psi2|), equal to U1 U2^dag; unitary.

    Tracing out the second factor of |psi1><psi2| contracts the two
    amplitude grids over their second index, so T = D * C1 C2^dag.
    Both inputs must be maximally entangled; that is exactly the
    condition under which the partial trace is proportional to a unitary.
    """
    cfg = config or DEFAULT
    if psi1.d != psi2.d:
        raise ValueError(f"dimension mismatch: {psi1.d} vs {psi2.d}")
    assert_max_entangled(psi1, cfg)
    assert_max_entangled(psi2, cfg)
    return psi1.d * psi1.grid @ psi2.grid.conj().T


def orthogonality(t: np.ndarray, config: NumericConfig | None = None) -> str:
    """Classify the state pair behind t by |Tr(T)|.

    <psi2|psi1> = Tr(T)/D, and for copyable pairs the trace magnitude is
    either 0 or D: returns "orthogonal" when |Tr| < D*ortho_tol,
    "identical_up_to_phase" when |Tr| > D*(1 - ortho_tol), else "neither".
    """
    cfg = config or DEFAULT
    t = np.asarray(t)
    d = t.shape[0]
    mag = abs(np.trace(t))
    if mag < d * cfg.ortho_tol:
        return ORTHOGONAL
    if mag > d * (1.0 - cfg.ortho_tol):
        return IDENTICAL
    return NEITHER


def _cluster_phases(phases: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group phases (radians, [0, 2pi)) into clusters cut at gaps > tol.

    The first and last groups merge when they meet across the 0/2pi seam.
    Returns (circular mean per cluster, cluster index per phase); cluster 0
    holds the smallest phase.
    """
    order = np.argsort(phases)
    sp = phases[order]
    sorted_labels = np.concatenate(([0], np.cumsum(np.diff(sp) > tol)))
    count = int(sorted_labels[-1]) + 1
    if count > 1 and (sp[0] + TAU - sp[-1]) <= tol:
        count -= 1
        sorted_labels[sorted_labels == count] = 0
    labels = np.empty_like(sorted_labels)
    labels[order] = sorted_labels
    z = np.exp(1j * phases)
    sums = (np.bincount(labels, weights=z.real, minlength=count)
            + 1j * np.bincount(labels, weights=z.imag, minlength=count))
    return np.angle(sums) % TAU, labels


def _verdict(lam: np.ndarray, trace: complex, config: NumericConfig) -> SpectrumReport:
    """The spectral verdict on the eigenvalues lam of a unitary pair operator."""
    d = lam.size
    phases = np.angle(lam) % TAU
    reps, labels = _cluster_phases(phases, config.phase_tol)
    m = reps.size
    multiplicities = np.bincount(labels, minlength=m)

    by_phase = np.argsort(reps, kind="stable")
    if m > 1:
        sorted_reps = reps[by_phase]
        smallest = float(np.min(np.diff(sorted_reps, append=sorted_reps[0] + TAU)))
        if smallest <= 2.0 * config.phase_tol:
            raise AmbiguityError(
                f"two eigenphase clusters are separated by only {smallest:.3e} rad, "
                f"between phase_tol {config.phase_tol:.1e} and twice that; "
                "the clustering is ambiguous at this tolerance"
            )

    rotation = float((-reps[0]) % TAU)  # cluster 0 holds the smallest phase
    rotated = (reps + rotation) % TAU
    by_rotated = np.argsort(rotated, kind="stable")
    offset = np.abs(rotated[by_rotated] - TAU * np.arange(m) / m) % TAU
    aligned = bool(np.all(np.minimum(offset, TAU - offset) <= config.phase_tol))
    copyable = aligned and d % m == 0 and bool(np.all(multiplicities == d // m))

    return SpectrumReport(
        eigenphases=np.sort(phases),
        clusters=tuple(zip(reps[by_phase].tolist(), multiplicities[by_phase].tolist())),
        rotation=rotation,
        detected_m=m if copyable else None,
        copyable=copyable,
        trace=complex(trace),
    )


def spectral_verdict(t: np.ndarray, config: NumericConfig | None = None) -> SpectrumReport:
    """Decide copyability of the pair behind t from its eigenphases.

    Clusters the eigenphases, removes the rotation that puts the cluster
    containing the smallest phase at 0, and reports copyable iff the
    cluster representatives match the Mth-roots-of-unity grid (M = number
    of clusters) within phase_tol and all multiplicities equal D/M.
    Needs only the eigenvalues of t, never its eigenvectors.
    """
    cfg = config or DEFAULT
    t = np.asarray(t, dtype=complex)
    assert_unitary(t, cfg, "pair operator")
    return _verdict(np.linalg.eigvals(t), np.trace(t), cfg)


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


def _root_labels(lam: np.ndarray, report: SpectrumReport) -> np.ndarray:
    """Assign each eigenvalue its root-of-unity index after rotation."""
    m = report.detected_m
    rotated = (np.angle(lam) + report.rotation) % TAU
    return np.round(rotated / (TAU / m)).astype(int) % m


def _decompose(t: np.ndarray, config: NumericConfig) -> tuple[np.ndarray, np.ndarray, SpectrumReport]:
    """One eigendecomposition of a unitary t, shared by verdict and synthesis.

    Raises PreconditionError when the spectral condition fails.
    """
    assert_unitary(t, config, "pair operator")
    lam, v = eig_normal(t, config)
    report = _verdict(lam, np.trace(t), config)
    if not report.copyable:
        raise PreconditionError(
            "pair operator spectrum is not equally degenerate roots of unity; "
            "no copying protocol exists"
        )
    return lam, v, report


def _synthesize_from(
    t: np.ndarray, lam: np.ndarray, v: np.ndarray, report: SpectrumReport,
    config: NumericConfig, buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """C1 = (V (x) V) P (V (x) V)^dag and the permutation defining P.

    buffers are three d^2 x d^2 work arrays; C1 is a new array.
    """
    d = t.shape[0]
    n = d * d
    m = report.detected_m
    labels = _root_labels(lam, report)
    if np.any(np.bincount(labels, minlength=m) != d // m):
        raise SynthesisError(
            f"eigenspace dimensions {np.bincount(labels, minlength=m)} "
            f"disagree with equal degeneracy {d}//{m}"
        )

    # Eigenvectors of T~ (x) 1 and of T~ (x) T~ are both v_k (x) v_l at
    # flat index mu = k + d*l, with eigenvalues lambda_{labels[k]} and
    # lambda_{(labels[k] + labels[l]) mod M}.  The spectral condition
    # makes the eigenvalue multiplicities match, so a basis permutation
    # pairing equal eigenvalues, taken in mu order within each root,
    # conjugates one operator into the other.
    source = np.tile(labels, d)
    target = ((labels[None, :] + labels[:, None]) % m).ravel()  # row l, column k: mu
    source_dims = np.bincount(source, minlength=m)
    target_dims = np.bincount(target, minlength=m)
    if np.any(source_dims != target_dims):
        r = int(np.flatnonzero(source_dims != target_dims)[0])
        raise SynthesisError(
            f"eigenspace of root {r} has dimension {source_dims[r]} "
            f"as source but {target_dims[r]} as target"
        )
    # C1 = W P W^dag with W = V (x) V, whose column k + d*l is v_k (x) v_l,
    # and P e_mu = e_permutation[mu].
    permutation = np.empty(n, dtype=int)
    permutation[np.argsort(source, kind="stable")] = np.argsort(target, kind="stable")
    c1 = _factored_operator(v, v, v, permutation, "synthesized C1", config, buffers)

    # For a unitary C1, ||C1 (T~ (x) 1) - (T~ (x) T~) C1||_F equals
    # ||C1 (T~ (x) 1) C1^dag - T~ (x) T~||_F, the defining relation.
    # Column mu = i + d*l of C1 (T~ (x) 1) sums T~[i', i] over column
    # i' + d*l of C1, which is one product with C1's rows cut into d-blocks.
    x, y, z = buffers
    t_rot = np.exp(1j * report.rotation) * t
    lhs = np.matmul(c1.reshape(n * d, d), t_rot, out=x.reshape(n * d, d)).reshape(n, n)
    rhs = _kron_matmul_into(t_rot, t_rot, c1, y, z)
    residual = float(np.linalg.norm(np.subtract(lhs, rhs, out=lhs)))
    if residual > config.synthesis_tol:
        raise SynthesisError(
            f"synthesized A fails its defining relation: residual {residual:.3e}"
        )
    return c1, permutation


def _factored_operator(
    left: np.ndarray, ra: np.ndarray, rb: np.ndarray,
    permutation: np.ndarray, what: str, config: NumericConfig,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """X = (L (x) L) P (ra (x) rb)^dag as a new array, checked for
    unitarity from its factors before it is formed.

    P e_mu = e_permutation[mu].  The check leaves Q = P (ra (x) rb)^dag,
    a row-permuted Kronecker product, in buffers[0], so X = (L (x) L) Q
    costs one Kronecker-structured product.
    """
    _check_factored_unitary(left, ra, rb, permutation, what, config, buffers=buffers)
    q, work, _ = buffers
    return _kron_matmul_into(left, left, q, np.empty_like(q), work)


def _check_factored_unitary(
    left: np.ndarray, ra: np.ndarray, rb: np.ndarray,
    permutation: np.ndarray, what: str, config: NumericConfig,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> float:
    """Unitarity check of X = (L (x) L) P (ra (x) rb)^dag from its factors.

    With G = L^dag L and Q = P (ra (x) rb)^dag,
    X^dag X = (ra (x) rb) P^dag [(G (x) G) Q].  Q is a row-permuted
    Kronecker product and P^dag permutes rows, so ||X^dag X - I||_F
    costs two Kronecker-structured products, O(d^5) against O(d^6) for
    the dense product.  The work runs in buffers, three d^2 x d^2
    arrays (new ones when None), and Q is left in buffers[0].  Returns
    that residual; above unitarity_tol it raises SynthesisError with
    assert_unitary's text.
    """
    q, y, z = buffers if buffers is not None else _work_buffers(permutation.size)
    g = left.conj().T @ left
    _permuted_kron(ra.conj().T, rb.conj().T, np.argsort(permutation), q)
    _kron_matmul_into(g, g, q, y, z)
    # a permutation never clips; mode="raise" would copy through a temporary
    np.take(y, permutation, axis=0, out=z, mode="clip")
    gram = _kron_matmul_into(ra, rb, z, z, y)
    gram[np.diag_indices_from(gram)] -= 1.0
    residual = float(np.linalg.norm(gram))
    if residual > config.unitarity_tol:
        raise SynthesisError(f"{what} is not unitary: ||U^dag U - I|| = {residual:.3e}")
    return residual


def _polish(u: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step U (3I - U^dag U) / 2 toward the nearest unitary.

    A deviation e of U's singular values from 1 shrinks to about 3e^2/2.
    """
    return u @ (1.5 * np.eye(u.shape[0]) - 0.5 * (u.conj().T @ u))


def synthesize_a(t: np.ndarray, config: NumericConfig | None = None) -> np.ndarray:
    """Build a unitary A with A (T~ (x) 1) A^dag = T~ (x) T~.

    T~ is t rotated per spectral_verdict.  A maps the eigenspace of
    T~ (x) 1 for each root of unity onto the eigenspace of T~ (x) T~ for
    the same root (A P_r A^dag = Q_r).  Deterministic for a given t.
    Raises PreconditionError when the spectral condition fails.
    """
    cfg = config or DEFAULT
    t = np.asarray(t, dtype=complex)
    lam, v, report = _decompose(t, cfg)
    return _synthesize_from(t, lam, v, report, cfg, _work_buffers(t.shape[0] ** 2))[0]


def synthesize_protocol(
    psi1: BipartiteState,
    psi2: BipartiteState,
    blank: BipartiteState,
    config: NumericConfig | None = None,
) -> CopyProtocol:
    """Construct local unitaries A, B copying both psi1 and psi2 onto blank.

    Requires psi1 and psi2 orthogonal, all three states maximally
    entangled, and the pair operator copyable.  The abstract eigenspace
    problem is solved for W = U2^dag U1, whose solution is the operator
    C_1 relating A and B; then A = (U1 (x) U1) C_1 (U1 (x) U_b)^dag and
    B = conj(C_1), with theta_1 = 0 and theta_2 = -rotation.  W is
    similar to the pair operator T = U1 U2^dag, so its trace and
    spectrum decide orthogonality and copyability in T's place.

    Every Kronecker factor is applied without being formed, and each
    state is validated once.  C_1 and A are checked for unitarity from
    their d x d factors, at O(d^5); B = conj(C_1) shares C_1's residual.
    U1 and U_b take one Newton-Schulz step toward unitarity before A is
    assembled, so a blank that passes max_ent_tol yields a unitary A.
    The protocol is verified on both states by the closed-form
    four-party overlap before being returned; a failed check raises
    SynthesisError.  Raises ValueError when the d^2 x d^2
    operators would exceed max_dim.

    The d^2 x d^2 work of synthesis, checks and verification runs in
    three work arrays allocated once per call; besides them the call
    allocates only the returned A and B.  It makes nine passes of the
    Kronecker kernel and four products with a single d x d factor.
    """
    cfg = config or DEFAULT
    if not psi1.d == psi2.d == blank.d:
        raise ValueError(
            f"dimension mismatch: {psi1.d}, {psi2.d} and blank {blank.d}"
        )
    n = psi1.d * psi1.d
    if n > cfg.max_dim:
        raise ValueError(
            f"protocol operators are {n} x {n}, exceeds max dimension {cfg.max_dim}"
        )
    u1 = unitary_of_state(psi1, cfg)
    u2 = unitary_of_state(psi2, cfg)
    ub = unitary_of_state(blank, cfg)

    w = u2.conj().T @ u1
    kind = orthogonality(w, cfg)
    if kind != ORTHOGONAL:
        raise PreconditionError(
            f"states to copy must be orthogonal, got verdict {kind!r}"
        )
    lam, v, report = _decompose(w, cfg)
    buffers = _work_buffers(n)
    c1, permutation = _synthesize_from(w, lam, v, report, cfg, buffers)

    # A = (U1 (x) U1) C_1 (U1 (x) U_b)^dag = (U1 V (x) U1 V) P (U1 V (x) U_b V)^dag.
    # U1 and U_b inherit their states' deviation from maximal entanglement,
    # which max_ent_tol allows to exceed unitarity_tol; they are polished
    # only here, after W and V came from the grids as given, because a
    # changed W would rotate V inside its degenerate eigenspaces.
    u1, ub = _polish(u1), _polish(ub)
    u1v = u1 @ v
    a_op = _factored_operator(u1v, u1v, ub @ v, permutation, "A operator", cfg, buffers)
    # B = conj(C_1), so ||B^dag B - I||_F equals C_1's residual exactly and
    # needs no check of its own.  C_1 is not kept, so it is conjugated in
    # place; verification below then holds two d^2 x d^2 operators, not four.
    b_op = np.conjugate(c1, out=c1)
    theta2 = -report.rotation
    theta2 = (theta2 + math.pi) % TAU - math.pi  # wrap to [-pi, pi)
    protocol = CopyProtocol(
        d=psi1.d, blank=blank, a_op=a_op, b_op=b_op, phases=(0.0, theta2)
    )

    # deferred: simulator imports this module; states and operators are
    # validated above
    from .simulator import _simulate

    results = _simulate(protocol, (psi1, psi2), buffers)
    for label, (fidelity, _) in zip(("psi1", "psi2"), results):
        if fidelity < 1.0 - cfg.fidelity_tol:
            raise SynthesisError(
                f"synthesized protocol failed verification on {label}: "
                f"fidelity {fidelity!r}"
            )
    return protocol
