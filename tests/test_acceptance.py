"""Acceptance suite: one test per criterion, run in numeric order.

Later criteria reuse artifacts from earlier ones through module-level
registries: criterion 7 re-verifies the protocols built in criteria 2
and 3, and criterion 8 checks the dichotomy over every pair operator
that received a copyable verdict anywhere in this module.
"""
import time
from fractions import Fraction

import numpy as np

from loccopy.copying import (
    IDENTICAL,
    ORTHOGONAL,
    orthogonality,
    pair_operator,
    spectral_verdict,
    synthesize_a,
    synthesize_protocol,
)
from loccopy.copying import degeneracy_form_check
from loccopy.generators import (
    copyable_pair,
    copyable_unitary,
    haar_unitary,
    nonprime_counterexample,
    nonprime_unitary,
    orthogonal_pair,
)
from loccopy.majorization import CATALYTIC, catalytic_copy_check, nielsen_transformable
from loccopy.simulator import run_copy
from loccopy.states import SchmidtVector, from_unitary, max_entangled, overlap
from loccopy.tensor import eig_normal

from oracles import kron

TAU = 2.0 * np.pi

# valid root counts per dimension for criterion 5
VALID_M = {2: [2], 3: [3], 4: [2, 4], 6: [2, 3, 6], 8: [2, 4, 8], 12: [2, 3, 4, 6, 12]}

# filled by criteria 2/3, consumed by criterion 7
PROTOCOLS = []
# every operator that received a copyable verdict, consumed by criterion 8
COPYABLE_OPERATORS = []


def exact_majorizes(w, v):
    """Exact-arithmetic majorization on Fraction sequences."""
    a = sorted(w, reverse=True)
    b = sorted(v, reverse=True)
    assert sum(a) == sum(b) == 1
    ca = cb = Fraction(0)
    for x, y in zip(a, b):
        ca += x
        cb += y
        if ca < cb:
            return False
    return True


def test_criterion_1():
    psi = SchmidtVector([0.39, 0.26, 0.18, 0.17, 0.0])
    blank = SchmidtVector([0.32, 0.28, 0.24, 0.085, 0.075])

    # exact oracle: the third partial sums are 83/100 vs 84/100, so the
    # bare Nielsen move is blocked, while the tensored vectors majorize
    psi_f = [Fraction(x) for x in ("0.39", "0.26", "0.18", "0.17", "0")]
    blank_f = [Fraction(x) for x in ("0.32", "0.28", "0.24", "0.085", "0.075")]
    assert sum(sorted(psi_f, reverse=True)[:3]) == Fraction(83, 100)
    assert sum(sorted(blank_f, reverse=True)[:3]) == Fraction(84, 100)
    assert not exact_majorizes(psi_f, blank_f)
    joint_src = sorted((p * b for p in psi_f for b in blank_f), reverse=True)
    joint_dst = sorted((p * q for p in psi_f for q in psi_f), reverse=True)
    assert exact_majorizes(joint_dst, joint_src)

    # warm-up excludes lazy one-time numpy setup from the timing window
    nielsen_transformable(blank, psi)
    catalytic_copy_check(psi, blank)

    start = time.perf_counter()
    transformable = nielsen_transformable(blank, psi)
    verdict = catalytic_copy_check(psi, blank)
    elapsed = time.perf_counter() - start

    assert transformable is False
    assert verdict == CATALYTIC
    assert elapsed < 1e-3


def _universality(d, count, budget):
    start = time.perf_counter()
    for k in range(count):
        psi1, psi2 = orthogonal_pair(d, seed=k)
        t = pair_operator(psi1, psi2)
        report = spectral_verdict(t)
        assert report.copyable, f"d={d} pair {k} not copyable"
        COPYABLE_OPERATORS.append(t)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(d))
        assert run_copy(protocol, psi1)[0] >= 1 - 1e-9
        assert run_copy(protocol, psi2)[0] >= 1 - 1e-9
        PROTOCOLS.append((protocol, psi1, psi2))
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"d={d}: {elapsed:.2f} s over the {budget} s budget"


def test_criterion_2():
    _universality(d=2, count=200, budget=1.0)


def test_criterion_3():
    _universality(d=3, count=200, budget=5.0)


def test_criterion_4():
    start = time.perf_counter()
    for d1, d2, spectrum_only in ((2, 2, False), (2, 3, False), (3, 3, False),
                                  (4, 5, True)):
        d = d1 * d2
        rng = np.random.default_rng((d1, d2))
        for k in range(50):
            delta = float(rng.uniform(0.0, TAU / d))
            while delta == 0.0:
                delta = float(rng.uniform(0.0, TAU / d))
            if spectrum_only:
                t = nonprime_unitary(d1, d2, delta, seed=k)
            else:
                psi1, psi2 = nonprime_counterexample(d1, d2, delta, seed=k)
                t = pair_operator(psi1, psi2)
            assert abs(np.trace(t)) < 1e-9 * d
            assert not spectral_verdict(t).copyable
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_5():
    start = time.perf_counter()
    planted = 0
    for seed in range(7):
        for d, valid in VALID_M.items():
            for m in valid:
                t = copyable_unitary(d, m, seed=(seed, d, m))
                report = spectral_verdict(t)
                assert report.copyable and report.detected_m == m
                COPYABLE_OPERATORS.append(t)
                a = synthesize_a(t)
                t_rot = np.exp(1j * report.rotation) * t
                eye = np.eye(d)
                assert np.linalg.norm(
                    a @ kron(t_rot, eye) @ a.conj().T - kron(t_rot, t_rot)
                ) < 1e-9

                # eigenspace projectors must map cluster-by-cluster
                lam, v = eig_normal(t)
                labels = np.round(
                    ((np.angle(lam) + report.rotation) % TAU) / (TAU / m)
                ).astype(int) % m
                projs = [
                    sum(np.outer(v[:, j], v[:, j].conj())
                        for j in np.flatnonzero(labels == r))
                    for r in range(m)
                ]
                for r in range(m):
                    p_r = kron(projs[r], eye)
                    q_r = sum(kron(projs[r1], projs[(r - r1) % m])
                              for r1 in range(m))
                    assert np.linalg.norm(a @ p_r @ a.conj().T - q_r) < 1e-8
                planted += 1
    assert planted >= 100

    rng = np.random.default_rng(5)
    dims = sorted(VALID_M)
    for _ in range(500):
        d = int(rng.choice(dims))
        m = int(rng.choice(VALID_M[d]))
        if m == d:
            mult = [1] * m
        else:
            cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False))
            mult = np.diff(np.concatenate([[0], cuts, [d]])).tolist()
        equally_degenerate = all(x == d // m for x in mult)
        assert degeneracy_form_check(mult, m, d) == equally_degenerate

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_6():
    start = time.perf_counter()
    checked = 0
    for d in range(2, 9):
        for k in range(15):
            psi1 = from_unitary(haar_unitary(d, seed=(6, d, k, 1)))
            psi2 = from_unitary(haar_unitary(d, seed=(6, d, k, 2)))
            t = pair_operator(psi1, psi2)
            assert abs(overlap(psi2, psi1) - np.trace(t) / d) < 1e-10
            checked += 1
    assert checked >= 100
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_criterion_7():
    assert len(PROTOCOLS) == 400, "criteria 2 and 3 must populate the registry"
    for protocol, psi1, psi2 in PROTOCOLS:
        assert run_copy(protocol, psi1)[0] >= 1 - 1e-9
        assert run_copy(protocol, psi2)[0] >= 1 - 1e-9

    built = 0
    d6_elapsed = 0.0
    for d, m_values in ((5, [5]), (7, [7]), (6, [2, 3, 6])):
        for m in m_values:
            for k in range(10):
                seed = int(np.random.SeedSequence((7, d, m, k)).generate_state(1)[0])
                start = time.perf_counter()
                psi1, psi2 = copyable_pair(d, m, seed)
                t = pair_operator(psi1, psi2)
                report = spectral_verdict(t)
                assert report.copyable
                COPYABLE_OPERATORS.append(t)
                protocol = synthesize_protocol(psi1, psi2, max_entangled(d))
                assert run_copy(protocol, psi1)[0] >= 1 - 1e-9
                assert run_copy(protocol, psi2)[0] >= 1 - 1e-9
                if d == 6:
                    d6_elapsed += time.perf_counter() - start
                built += 1
    assert built == 50
    assert d6_elapsed < 10.0


def test_criterion_8():
    assert COPYABLE_OPERATORS, "earlier criteria must register copyable operators"
    for t in COPYABLE_OPERATORS:
        assert orthogonality(t) in (ORTHOGONAL, IDENTICAL)
