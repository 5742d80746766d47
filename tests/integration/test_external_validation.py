"""Cross-validation of our from-scratch numerics against scipy/numpy.

The library itself has zero third-party dependencies; these tests use the
scientific stack available in the test environment to independently
verify the statistics implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import likelihood_ratio


class TestLikelihoodRatioAgainstScipy:
    @staticmethod
    def _scipy_g_statistic(c11, c12, c21, c22):
        """G-test statistic on the 2x2 table (independence expected)."""
        observed = np.array([[c11, c12], [c21, c22]], dtype=float)
        total = observed.sum()
        row = observed.sum(axis=1, keepdims=True)
        col = observed.sum(axis=0, keepdims=True)
        expected = row @ col / total
        mask = observed > 0
        return float(2.0 * (observed[mask] * np.log(observed[mask] / expected[mask])).sum())

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 500), st.integers(0, 500), st.integers(1, 500), st.integers(1, 500)
    )
    def test_matches_g_test_when_positively_associated(self, c11, c12, c21, c22):
        containing = c11 + c12
        missing = c21 + c22
        r1 = c11 / containing
        r2 = c21 / missing
        ours = likelihood_ratio(c11, c12, c21, c22)
        if r2 >= r1:
            assert ours == 0.0  # the paper's guard
        else:
            expected = self._scipy_g_statistic(c11, c12, c21, c22)
            assert ours == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_chi2_critical_values_match_scipy(self):
        from scipy.stats import chi2

        from repro.core.features import CHI2_CRITICAL

        for confidence, critical in CHI2_CRITICAL.items():
            assert critical == pytest.approx(chi2.ppf(confidence, df=1), abs=5e-3)

