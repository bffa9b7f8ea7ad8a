"""Closed-form Figure 2 expectations vs the Monte-Carlo estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import average_invalidations

from tests.exact_model import _hypergeom_zero, exact_expected_invalidations


class TestClosedForms:
    def test_full_is_identity(self):
        for k in (0, 1, 7, 30):
            assert exact_expected_invalidations("full", 32, k) == k

    def test_broadcast_step(self):
        assert exact_expected_invalidations("Dir3B", 32, 3) == 3
        assert exact_expected_invalidations("Dir3B", 32, 4) == 30
        assert exact_expected_invalidations("Dir3B", 64, 62) == 62

    def test_cv_exact_below_overflow(self):
        for k in (0, 1, 2, 3):
            assert exact_expected_invalidations("Dir3CV2", 32, k) == k

    def test_cv_saturates_to_broadcast(self):
        assert exact_expected_invalidations("Dir3CV2", 32, 30) == pytest.approx(30.0)

    def test_cv_between_full_and_broadcast(self):
        for k in range(4, 31):
            cv = exact_expected_invalidations("Dir3CV2", 32, k)
            assert k <= cv <= 30

    def test_monte_carlo_converges_to_closed_form(self):
        for name in ("Dir3CV2", "Dir3CV4"):
            for k in (4, 8, 16):
                exact = exact_expected_invalidations(name, 32, k)
                mc = average_invalidations(name, 32, k, trials=4000, seed=1)
                assert mc == pytest.approx(exact, rel=0.03), (name, k)

    def test_region_one_equals_full(self):
        for k in (4, 10, 20):
            assert exact_expected_invalidations("Dir3CV1", 32, k) == pytest.approx(k)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="no closed form"):
            exact_expected_invalidations("Dir3X", 32, 5)

    def test_sharers_bounds(self):
        with pytest.raises(ValueError):
            exact_expected_invalidations("full", 8, 7)


class TestHypergeometric:
    def test_zero_draws(self):
        assert _hypergeom_zero(10, 3, 0) == 1.0

    def test_forced_hit(self):
        # 10 candidates, 4 marked, 7 draws: must hit at least one marked
        assert _hypergeom_zero(10, 4, 7) == 0.0

    def test_single_draw(self):
        assert _hypergeom_zero(10, 3, 1) == pytest.approx(0.7)

    @settings(max_examples=60)
    @given(
        M=st.integers(2, 40),
        g=st.integers(1, 10),
        k=st.integers(0, 40),
    )
    def test_is_probability(self, M, g, k):
        if g > M or k > M:
            return
        p = _hypergeom_zero(M, g, k)
        assert 0.0 <= p <= 1.0


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(4, 20),
    r=st.sampled_from([2, 4, 8]),
)
def test_cv_expectation_monotone_in_region_size(k, r):
    """Bigger regions can only cover more nodes in expectation."""
    small = exact_expected_invalidations(f"Dir3CV{r}", 32, k)
    big = exact_expected_invalidations(f"Dir3CV{2 * r}", 32, k)
    assert big >= small - 1e-9
