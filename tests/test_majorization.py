import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccopy.majorization import (
    CATALYTIC,
    DIRECT,
    IMPOSSIBLE,
    catalytic_copy_check,
    find_catalytic_pair,
    majorizes,
    nielsen_transformable,
    partial_sums,
)
from loccopy.states import SchmidtVector


def probs(*values):
    return SchmidtVector(list(values))


class TestMajorizes:
    def test_uniform_is_bottom(self):
        assert majorizes(probs(0.5, 0.3, 0.2), probs(1 / 3, 1 / 3, 1 / 3))
        assert not majorizes(probs(1 / 3, 1 / 3, 1 / 3), probs(0.5, 0.3, 0.2))

    def test_point_mass_is_top(self):
        assert majorizes(probs(1.0, 0.0, 0.0), probs(0.5, 0.3, 0.2))

    def test_reflexive(self):
        v = probs(0.4, 0.35, 0.25)
        assert majorizes(v, v)

    def test_order_of_entries_irrelevant(self):
        assert majorizes(probs(0.2, 0.5, 0.3), probs(0.3, 0.3, 0.4))

    def test_unequal_lengths_padded(self):
        assert majorizes(probs(0.6, 0.4), probs(0.5, 0.3, 0.2))
        assert not majorizes(probs(0.5, 0.3, 0.2), probs(0.6, 0.4))

    def test_incomparable_pair(self):
        # first partial sum favors w, second favors v
        w = probs(0.5, 0.25, 0.25)
        v = probs(0.45, 0.45, 0.1)
        assert not majorizes(w, v)
        assert not majorizes(v, w)

    def test_accepts_plain_arrays(self):
        assert majorizes(np.array([0.7, 0.3]), np.array([0.5, 0.5]))

    def test_tolerance_slack_on_partial_sums(self):
        base = probs(0.5, 0.5)
        shaved = np.array([0.5 - 5e-11, 0.5 + 5e-11])
        assert majorizes(base, shaved)
        assert majorizes(shaved, base)


class TestPartialSums:
    def test_rows_are_padded_and_sorted(self):
        sums_v, sums_w, holds = partial_sums([0.2, 0.5, 0.3], [0.6, 0.4])
        np.testing.assert_allclose(sums_v, [0.5, 0.8, 1.0])
        np.testing.assert_allclose(sums_w, [0.6, 1.0, 1.0])
        assert holds.tolist() == [True, True, True]

    def test_last_condition_is_equal_totals(self):
        # the raw totals differ by 1.8e-10 > SUM_TOL, but both pass
        # NORM_TOL and compare as distributions: each total is 1
        v = [0.49999999995, 0.49999999996]
        w = [0.50000000004, 0.50000000005]
        sums_v, sums_w, holds = partial_sums(v, w)
        assert sums_v[-1] == pytest.approx(1.0, abs=1e-15)
        assert sums_w[-1] == pytest.approx(1.0, abs=1e-15)
        assert holds.tolist() == [True, True]
        assert majorizes(w, v) and majorizes(v, w)


class TestNielsen:
    def test_toward_less_entangled(self):
        src = probs(0.5, 0.5)
        dst = probs(0.8, 0.2)
        assert nielsen_transformable(src, dst)
        assert not nielsen_transformable(dst, src)

    def test_identity_transform(self):
        v = probs(0.6, 0.3, 0.1)
        assert nielsen_transformable(v, v)


class TestCatalyticCopyCheck:
    def test_direct_when_blank_more_entangled(self):
        psi = probs(0.8, 0.2)
        blank = probs(0.5, 0.5)
        assert catalytic_copy_check(psi, blank) == DIRECT

    def test_impossible_when_blank_majorizes(self):
        psi = probs(0.5, 0.5)
        blank = probs(0.9, 0.1)
        assert catalytic_copy_check(psi, blank) == IMPOSSIBLE

    def test_known_catalytic_pair(self):
        # blank vs psi is Nielsen-blocked at the third partial sum
        # (0.84 vs 0.83) yet the tensored pair is majorized
        psi = probs(0.39, 0.26, 0.18, 0.17, 0.0)
        blank = probs(0.32, 0.28, 0.24, 0.085, 0.075)
        assert not nielsen_transformable(blank, psi)
        assert catalytic_copy_check(psi, blank) == CATALYTIC

    def test_verdict_vocabulary(self):
        assert {DIRECT, CATALYTIC, IMPOSSIBLE} == {
            "direct",
            "catalytic",
            "impossible",
        }

    def test_tensored_condition_behind_catalytic(self):
        psi = probs(0.39, 0.26, 0.18, 0.17, 0.0)
        blank = probs(0.32, 0.28, 0.24, 0.085, 0.075)
        joint_src = np.outer(psi.probs, blank.probs).ravel()
        joint_dst = np.outer(psi.probs, psi.probs).ravel()
        assert majorizes(joint_dst, joint_src)

    @pytest.mark.parametrize("psi,blank,match", [
        ([np.nan, 1.0], [0.5, 0.5], "finite"),
        ([0.7, 0.3], [0.5, 0.6], "sum to 1"),
        ([1.2, -0.2], [0.5, 0.5], "non-negative"),
    ])
    def test_invalid_raw_arrays_rejected(self, psi, blank, match):
        with pytest.raises(ValueError, match=match):
            catalytic_copy_check(psi, blank)
        with pytest.raises(ValueError, match=match):
            majorizes(psi, blank)


class TestFindCatalyticPair:
    def test_d5_search_hits(self):
        found = find_catalytic_pair(5, attempts=4000, seed=42)
        assert found is not None
        psi, blank = found
        assert catalytic_copy_check(psi, blank) == CATALYTIC
        assert not nielsen_transformable(blank, psi)

    def test_d2_never_catalytic(self):
        # with two Schmidt coefficients majorization is total, so the
        # catalytic verdict can never occur
        assert find_catalytic_pair(2, attempts=300, seed=0) is None

    def test_deterministic_in_seed(self):
        a = find_catalytic_pair(4, attempts=200, seed=7)
        b = find_catalytic_pair(4, attempts=200, seed=7)
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a[0].probs, b[0].probs)
            assert np.array_equal(a[1].probs, b[1].probs)


@st.composite
def schmidt_probs(draw, n=4):
    raw = np.array(draw(st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)))
    return SchmidtVector(raw / raw.sum())


class TestProperties:
    @given(schmidt_probs())
    @settings(max_examples=50, deadline=None)
    def test_self_majorization(self, v):
        assert majorizes(v, v)

    @given(schmidt_probs(), schmidt_probs())
    @settings(max_examples=50, deadline=None)
    def test_mutual_majorization_means_equal(self, w, v):
        if majorizes(w, v) and majorizes(v, w):
            assert np.allclose(w.probs, v.probs, atol=1e-8)

    @given(schmidt_probs(), schmidt_probs())
    @settings(max_examples=50, deadline=None)
    def test_majorization_survives_tensoring_with_shared_factor(self, w, v):
        if majorizes(w, v):
            aux = np.array([0.7, 0.3])
            joint_w = np.outer(w.probs, aux).ravel()
            joint_v = np.outer(v.probs, aux).ravel()
            assert majorizes(joint_w, joint_v)
