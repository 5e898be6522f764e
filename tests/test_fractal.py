from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracparity import fractal
from fracparity.errors import (
    DegeneratePath,
    FracparityError,
    InvalidHurst,
    InvalidStableParams,
    NumericError,
    TooShort,
)
from fracparity.fractal import (
    HurstConfig,
    StableParams,
    build_path,
    cover_variations,
    estimate_hurst,
    fit_hurst_rows,
    hurst_scales,
    stable_cdf_with_error,
)


class TestBuildPath:
    def test_cumulative_sum(self):
        r = [1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert build_path(r).tolist() == [0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_zero_returns_give_constant_path(self):
        assert np.all(build_path(np.zeros(10)) == 0.0)

    def test_any_length(self):
        # the scale ladder, not the path builder, judges whether a path is long enough
        assert build_path([]).tolist() == [0.0]
        assert build_path([2.0, -1.0]).tolist() == [0.0, 2.0, 1.0]
        assert build_path(np.ones((3, 0))).shape == (3, 1)


def cover(path, delta: int) -> float:
    """V(delta) of one path: a one-row, one-scale call of ``cover_variations``."""
    return float(cover_variations(np.asarray(path, dtype=float)[None], [delta])[0, 0])


class TestMinimalCoverVariation:
    def test_zigzag(self):
        assert cover([0, 1, 0, 1, 0], 2) == 2.0

    def test_constant_path(self):
        assert cover(np.full(20, 3.3), 2) == 0.0
        assert cover(np.full(20, 3.3), 5) == 0.0

    def test_linear_path_independent_of_delta(self):
        c = 0.75
        path = c * np.arange(25.0)  # 24 intervals
        for delta in (2, 3, 4, 6, 8, 12):
            assert cover(path, delta) == pytest.approx(c * 24, rel=1e-12)

    def test_trailing_remainder_discarded(self):
        # 7 intervals at delta=2 -> 3 windows covering 6 intervals
        path = np.array([0, 1, 0, 1, 0, 1, 0, 5.0])
        assert cover(path, 2) == 1 + 1 + 1


class TestScaleLadder:
    def test_keeps_top_rungs(self):
        assert hurst_scales(1024) == [16, 32, 64, 128]
        assert hurst_scales(126) == [2, 4, 8, 16]
        assert hurst_scales(63) == [2, 4, 8]

    def test_uncapped(self):
        cfg = HurstConfig(max_rungs=None)
        assert hurst_scales(1024, cfg) == [2, 4, 8, 16, 32, 64, 128]

    def test_shortest_ladder(self):
        # two windows of delta 4 need 8 intervals: 9 points, built from 8 returns
        cfg = HurstConfig(min_windows=2, min_scales=2, max_rungs=None)
        assert hurst_scales(9, cfg) == [2, 4]
        with pytest.raises(TooShort, match="path of 8 points affords 1 scales, need 2"):
            hurst_scales(8, cfg)

    @pytest.mark.parametrize("min_windows", [2, 3, 4, 8])
    @pytest.mark.parametrize("min_scales", [2, 3, 5])
    def test_ladder_implies_the_length_rules(self, min_windows, min_scales):
        # every ladder that fits has 9 points or more and fits its largest scale twice
        for max_rungs in (None, *range(min_scales, 8)):
            cfg = HurstConfig(min_windows=min_windows, min_scales=min_scales, max_rungs=max_rungs)
            for n_points in range(400):
                try:
                    scales = hurst_scales(n_points, cfg)
                except TooShort:
                    continue
                assert n_points >= 9
                assert n_points > 2 * scales[-1]
            hurst_scales(399, cfg)  # every config fits some path of the grid


class TestEstimateHurst:
    def test_linear_ramp_is_exactly_one(self):
        # remainder-free interval count keeps the fit exactly flat
        fit = estimate_hurst(np.arange(1025.0))
        assert fit.h[0] == 1.0
        assert fit.r_squared[0] == 1.0

    def test_scaled_ramp(self):
        assert estimate_hurst(np.arange(129.0) * 0.37 + 5.0).h[0] == 1.0

    def test_random_walk_median(self):
        # cumulative sums of unit Gaussians, length 1024, 100 seeds
        estimates = [
            estimate_hurst(np.cumsum(np.random.default_rng(seed).standard_normal(1024))).h[0]
            for seed in range(100)
        ]
        assert 0.45 <= float(np.median(estimates)) <= 0.55

    def test_fbm_oracle_recovery(self):
        estimates = [
            estimate_hurst(oracles.fbm_path(1024, 0.7, np.random.default_rng(seed))).h[0]
            for seed in range(100)
        ]
        assert 0.60 <= float(np.median(estimates)) <= 0.80

    def test_self_affine_slope_matches_one_minus_h(self):
        # fitted slope on exact fBm reproduces H - 1 within the same band
        slopes = [
            -estimate_hurst(oracles.fbm_path(1024, 0.7, rng)).mu_index[0]
            for rng in map(np.random.default_rng, range(50))
        ]
        assert float(np.median(slopes)) == pytest.approx(0.7 - 1.0, abs=0.1)

    def test_degenerate_path(self):
        with pytest.raises(DegeneratePath):
            estimate_hurst(np.full(100, 2.0))

    def test_batched_fit_rejects_a_constant_row(self):
        walk = np.cumsum(np.random.default_rng(5).standard_normal(64))
        fit = fit_hurst_rows(walk[None, :])
        assert (fit.variations > 0.0).all()
        assert (cover_variations(np.full((1, 64), 2.0), fit.scales) == 0.0).all()
        with pytest.raises(DegeneratePath, match="^zero variation at some scale"):
            fit_hurst_rows(np.vstack([walk, np.full(64, 2.0)]))

    def test_overflowing_variation_names_its_scale(self):
        # a finite path whose amplitude overflows: V(delta) is inf, and no warning leaks
        path = np.ones(41)
        path[10:12] = 1e308, -1e308
        with pytest.raises(NumericError, match="^variation at scale 2 is not finite"):
            estimate_hurst(path)

    def test_too_short(self):
        with pytest.raises(TooShort):
            estimate_hurst(np.arange(20.0))

    def test_clamping(self):
        cfg = HurstConfig(h_min=0.5, h_max=0.5)
        path = np.cumsum(np.random.default_rng(3).standard_normal(256))
        assert estimate_hurst(path, cfg).h[0] == 0.5

    @pytest.mark.parametrize("options", [
        {"h_min": math.nan}, {"h_max": math.inf}, {"h_min": "0.1"},
        pytest.param({"h_max": 10**400}, id="h_max=10**400"),
        {"min_windows": 2.5}, {"max_rungs": 3.5}, {"min_scales": "3"},
        # only max_rungs may be None
        {"min_windows": None}, {"min_scales": None},
        # counts below their minimum
        {"min_windows": 0}, {"min_windows": 1}, {"min_scales": 1},
        {"max_rungs": 2}, {"min_scales": 5, "max_rungs": 4},
    ])
    def test_config_rejects_non_finite_and_wrong_types(self, options):
        with pytest.raises(InvalidHurst):
            HurstConfig(**options)

    def test_reports_ladder(self):
        path = np.cumsum(np.random.default_rng(4).standard_normal(256))
        fit = estimate_hurst(path)
        assert fit.variations.shape == (1, len(fit.scales))
        assert len(fit.scales) >= 3
        assert 0.0 <= fit.r_squared[0] <= 1.0

    @given(
        a=st.floats(min_value=0.1, max_value=50).flatmap(
            lambda x: st.sampled_from([x, -x])
        ),
        b=st.floats(min_value=-100, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        path = np.cumsum(np.random.default_rng(seed).standard_normal(128))
        base = estimate_hurst(path)
        moved = estimate_hurst(a * path + b)
        assert moved.h[0] == pytest.approx(base.h[0], abs=1e-9)
        assert moved.mu_index[0] == pytest.approx(base.mu_index[0], abs=1e-9)


class TestBiasAtEngineHorizons:
    """What the engine's ``h`` means on lookbacks of N = 63, 126 and 252 prices.

    Each cell is the median estimate over 300 seeded fBm paths of N points
    (Davies-Harte, ``oracles.fbm_path``), fitted with the default ladder and
    a clamp wide enough never to bind. At these lengths the estimate reads
    high for anti-persistent and random-walk paths, so the range of H is
    compressed: at N = 126 the median rises by only about 0.6 per unit of
    true H.
    """

    MEDIANS = {  # N -> median h for true H = 0.3, 0.5, 0.7
        63: (0.50, 0.61, 0.73),
        126: (0.49, 0.60, 0.73),
        252: (0.43, 0.56, 0.70),
    }

    @pytest.mark.parametrize("n", sorted(MEDIANS))
    def test_median_h_is_pinned(self, n):
        config = HurstConfig(h_min=1e-6, h_max=1.5)
        for h_true, want in zip((0.3, 0.5, 0.7), self.MEDIANS[n]):
            rngs = map(np.random.default_rng, range(300))
            paths = np.array([oracles.fbm_path(n - 1, h_true, rng) for rng in rngs])
            fit = fit_hurst_rows(paths, config)
            assert not fit.clamped.any()
            assert float(np.median(fit.h)) == pytest.approx(want, abs=0.03), h_true


class TestStableParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=2.5),
            dict(alpha=1.5, beta=1.5),
            dict(alpha=1.5, sigma=0.0),
            dict(alpha=1.5, sigma=-1.0),
            dict(alpha=1.5, sigma=math.inf),
            dict(alpha=1.5, mu_loc=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidStableParams):
            StableParams(**kwargs)


class TestStableCdf:
    def test_symmetric_center_is_half(self):
        params = StableParams(alpha=2.0, beta=0.0, sigma=2.0, mu_loc=3.5)
        assert stable_cdf_with_error(3.5, params)[0] == 0.5

    def test_gaussian_anchor(self):
        # alpha = 2 is a Normal with variance 2 sigma^2
        got = stable_cdf_with_error(1.0, StableParams(alpha=2.0))[0]
        assert got == pytest.approx(oracles.gaussian_cdf(1.0, std=math.sqrt(2.0)), abs=1e-10)
        assert got == pytest.approx(0.760250, abs=5e-7)

    def test_cauchy_anchor(self):
        got = stable_cdf_with_error(1.0, StableParams(alpha=1.0))[0]
        assert got == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("r", [150.0, -150.0, 200.0, -200.0, 1000.0, -1000.0])
    def test_cauchy_tail(self, r):
        # the plain integral fails from about |r| = 150 on the alpha = 1 branch; the split holds
        value, err = stable_cdf_with_error(r, StableParams(alpha=1.0))
        assert value == pytest.approx(oracles.cauchy_cdf(r), abs=5e-16)
        assert err < 1e-10

    @pytest.mark.parametrize("beta", [1.0, 0.5, -1.0])
    def test_skewed_alpha_one_tails_evaluate(self, beta):
        p = StableParams(alpha=1.0, beta=beta)
        points = (-1000.0, -200.0, -50.0, 50.0, 200.0, 1000.0)
        values = [stable_cdf_with_error(r, p)[0] for r in points]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b - a >= -1e-10 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_levy_anchor(self, beta):
        # alpha = 1/2 with full skew is the Levy law; in the 0-shift parametrization
        # its support starts at r = -tan(pi/4) = -1, and beta = -1 mirrors it. Points
        # such as r = 1, 2 and 5 take the split quadrature, whose error estimate is
        # about 5e-9; the largest miss on a 0.1-step grid over [-3, 100] is 2.4e-9
        # (r = 6.8 and 8.8), while integer r stay within 2e-10
        p = StableParams(alpha=0.5, beta=beta)
        grid = {*np.linspace(-3.0, 100.0, 31).tolist(), -1.0, 1.0, 2.0, 5.0, 6.8, 8.8}
        for r in sorted(grid):
            if beta > 0:
                want = oracles.levy_cdf(r, loc=-1.0)
            else:
                want = 1.0 - oracles.levy_cdf(-r, loc=-1.0)
            assert stable_cdf_with_error(r, p)[0] == pytest.approx(want, abs=5e-9), r

    def test_location_scale_standardization(self):
        p = StableParams(alpha=1.0, beta=0.0, sigma=2.0, mu_loc=-1.0)
        want = oracles.cauchy_cdf(1.0)
        assert stable_cdf_with_error(-1.0 + 2.0, p)[0] == pytest.approx(want, abs=1e-10)

    def test_error_estimate_reported(self):
        value, err = stable_cdf_with_error(0.7, StableParams(alpha=1.7, beta=0.4))
        assert 0.0 < value < 1.0
        assert 0.0 <= err < 1e-6

    def test_tail_limits(self):
        p = StableParams(alpha=1.5, beta=0.2)
        assert stable_cdf_with_error(-40.0, p)[0] < 0.01
        assert stable_cdf_with_error(40.0, p)[0] > 0.99

    @given(
        alpha=st.floats(min_value=0.5, max_value=2.0),
        r=st.floats(min_value=-8.0, max_value=8.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_symmetry_at_zero_beta(self, alpha, r):
        p = StableParams(alpha=alpha, beta=0.0)
        total = stable_cdf_with_error(r, p)[0] + stable_cdf_with_error(-r, p)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    @given(
        alpha=st.floats(min_value=0.5, max_value=2.0),
        beta=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_r(self, alpha, beta):
        p = StableParams(alpha=alpha, beta=beta)
        grid = np.linspace(-6.0, 6.0, 25)
        values = [stable_cdf_with_error(r, p)[0] for r in grid]
        assert all(b - a >= -1e-7 for a, b in zip(values, values[1:]))


GOLDEN = Path(__file__).parent / "fixtures" / "stable_cdf_golden.json"


class TestStableCdfGolden:
    """Every point of ``scripts/make_stable_cdf_golden.py`` reproduces bit for bit.

    A point records the ``repr`` of the value and of the error estimate, or
    the type and message of the error it raised, and whether it took the
    split quadrature.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_covers_every_branch(self, golden):
        assert len(golden) >= 250
        assert sum(row["split"] for row in golden) >= 5
        assert any(row["alpha"] == 1.0 and row["beta"] != 0.0 for row in golden)
        assert any(row["r"] == 0.0 and row["beta"] == 0.0 for row in golden)
        raised = [row["raises"] for row in golden if "raises" in row]
        assert raised.count("QuadratureFailure") == 2 and "InvalidStableParams" in raised

    def test_bitwise(self, golden, monkeypatch):
        split_args = []
        split = fractal._cdf_quad_split
        monkeypatch.setattr(
            fractal, "_cdf_quad_split", lambda *args: split_args.append(args) or split(*args)
        )
        mismatches = []
        for row in golden:
            params = StableParams(row["alpha"], row["beta"], row["sigma"], row["mu_loc"])
            split_args.clear()
            try:
                value, err = stable_cdf_with_error(row["r"], params)
                got = dict(value=repr(value), error=repr(err))
            except FracparityError as exc:
                got = dict(raises=type(exc).__name__, message=str(exc))
            got["split"] = bool(split_args)
            if got != {key: row[key] for key in got}:
                mismatches.append((row, got))
        assert not mismatches, mismatches[:5]


class _Recorder:
    """Stands in for ``fractal._quadpack()``, recording each routine call and its result."""

    def __init__(self, quadpack):
        self.quadpack = quadpack
        self.calls = []

    def __getattr__(self, name):
        routine = getattr(self.quadpack, name)

        def call(*args):
            out = routine(*args)
            self.calls.append((name, args, out))
            return out

        return call


def _public_quad(name, args):
    """The ``scipy.integrate.quad`` call that the private routine call replaced."""
    from scipy import integrate

    f, a = args[0], args[1]
    kw = dict(limit=200, epsabs=1e-12, epsrel=1e-12)
    if name == "_qagse":
        return integrate.quad(f, a, args[2], **kw)
    if name == "_qagie":
        assert args[2] == 1  # [a, inf)
        return integrate.quad(f, a, np.inf, **kw)
    assert name == "_qawfe"
    weight = {1: "cos", 2: "sin"}[args[3]]
    return integrate.quad(f, a, np.inf, weight=weight, wvar=args[2], limit=200)


class TestQuadpackMatchesQuad:
    """Each private QUADPACK call gives ``scipy.integrate.quad``'s (value, error) bit for bit.

    The CDF calls the routines of ``scipy.integrate._quadpack`` that ``quad``
    dispatches to, with ``quad``'s arguments spelled out. Every call a point
    makes is recorded and replayed through the public ``quad`` call it
    replaced, so a scipy whose private signatures or defaults drift fails here.
    """

    @pytest.fixture
    def recorder(self, monkeypatch):
        recorder = _Recorder(fractal._quadpack())
        monkeypatch.setattr(fractal, "_quadpack", lambda: recorder)
        return recorder

    @pytest.mark.parametrize("point, routines", [
        # the plain [0, inf) integral
        ((0.7, 1.7, 0.4), [("_qagie", 0)]),
        # the Levy law at r = 1: the plain integral ends with ier = 1, on which quad
        # warns, and the split takes the [0, 1] head and both Fourier tails
        ((1.0, 0.5, 1.0), [("_qagie", 1), ("_qagse", 0), ("_qawfe", 0), ("_qawfe", 0)]),
    ])
    def test_cdf_calls(self, recorder, point, routines):
        r, alpha, beta = point
        stable_cdf_with_error(r, StableParams(alpha, beta))
        self.assert_replayed(recorder.calls, routines)

    def test_unweighted_tail_of_the_split(self, recorder):
        # a_lin == 0 (alpha = 1, z = 0 with skew): the [1, inf) tail has no Fourier
        # weight; no golden point reaches this branch
        fractal._cdf_quad_split(0.0, 1.0, 0.5)
        self.assert_replayed(recorder.calls, [("_qagse", 0), ("_qagie", 0)])

    @staticmethod
    def assert_replayed(calls, routines):
        assert [(name, out[2]) for name, _, out in calls] == routines
        for name, args, (value, error, ier) in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = _public_quad(name, args)
            assert (repr(value), repr(error)) == tuple(map(repr, want)), name
            assert [w.category.__name__ for w in caught] == ["IntegrationWarning"] * (ier != 0)
