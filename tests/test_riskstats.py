from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracparity.riskstats import (
    log_returns,
    mean_return,
    rescale_volatility,
    unbiased_std,
)


class TestLogReturns:
    def test_single_step(self):
        r = log_returns([100.0, 101.0])
        assert r.tolist() == [pytest.approx(100 * math.log(101 / 100), rel=1e-12)]

    def test_symmetry(self):
        r = log_returns([100.0, 101.0, 100.0])
        assert r[0] == pytest.approx(-r[1], rel=1e-12)

    def test_constant_prices(self):
        assert np.all(log_returns([5.0, 5.0, 5.0]) == 0.0)

    def test_fewer_than_two_prices_give_no_returns(self):
        assert log_returns([100.0]).shape == (0,)
        assert log_returns(np.ones((3, 1))).shape == (3, 0)

    @given(
        c=st.floats(min_value=0.01, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25)
    def test_scale_invariance(self, c, seed):
        prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(seed).normal(0, 0.01, 20)))
        base = log_returns(prices)
        scaled = log_returns(c * prices)
        assert np.allclose(base, scaled, atol=1e-9)


class TestMeanReturn:
    def test_basic(self):
        assert mean_return([1.0, 2.0, 3.0]) == 2.0

    def test_symmetric(self):
        assert mean_return([-1.0, 1.0]) == 0.0

    def test_accepts_return_series(self):
        # the array log_returns gives: 100 * ln(e^0.02), 100 * ln(e^0.04)
        returns = log_returns(100.0 * np.exp([0.0, 0.02, 0.06]))
        assert mean_return(returns) == pytest.approx(3.0, rel=1e-12)


class TestUnbiasedStd:
    def test_two_points(self):
        assert unbiased_std([1.0, -1.0]) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_constant(self):
        assert unbiased_std([3.0, 3.0, 3.0]) == 0.0

    def test_hand_computed(self):
        # mean 1, squared deviations 1 + 1 + 4, over n-1 = 2
        assert unbiased_std([0.0, 0.0, 3.0]) == pytest.approx(math.sqrt(3), rel=1e-12)


class TestRescaleVolatility:
    def test_square_root_rule_at_half(self):
        assert rescale_volatility(0.5, 252, 0.5) == pytest.approx(7.937253933193772, rel=1e-12)

    def test_identity_at_unit_horizon(self):
        for h in (0.1, 0.5, 1.0):
            assert rescale_volatility(1.0, 1, h) == 1.0

    def test_persistent_exponent(self):
        # frozen from a 50-digit power evaluation of 0.5 * 252**0.6
        assert rescale_volatility(0.5, 252, 0.6) == pytest.approx(13.797815353957125, rel=1e-12)

    @given(
        h1=st.floats(min_value=0.1, max_value=0.99),
        dh=st.floats(min_value=0.001, max_value=0.5),
        n=st.integers(min_value=2, max_value=1000),
    )
    @settings(max_examples=50)
    def test_monotone_in_h(self, h1, dh, n):
        h2 = min(h1 + dh, 1.0)
        assert rescale_volatility(1.0, n, h2) > rescale_volatility(1.0, n, h1)

    @given(
        h=st.floats(min_value=0.1, max_value=1.0),
        n=st.integers(min_value=1, max_value=999),
    )
    @settings(max_examples=50)
    def test_monotone_in_n(self, h, n):
        assert rescale_volatility(1.0, n + 1, h) > rescale_volatility(1.0, n, h)
