from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        # a cap at least the ladder's length keeps every scale
        cfg = HurstConfig(max_rungs=64)
        assert hurst_scales(1024, cfg) == [2, 4, 8, 16, 32, 64, 128]

    def test_shortest_ladder(self):
        # two windows of delta 4 need 8 intervals: 9 points, built from 8 returns
        cfg = HurstConfig(min_windows=2, min_scales=2, max_rungs=64)
        assert hurst_scales(9, cfg) == [2, 4]
        with pytest.raises(TooShort, match="path of 8 points affords 1 scales, need 2"):
            hurst_scales(8, cfg)

    @pytest.mark.parametrize("min_windows", [2, 3, 4, 8])
    @pytest.mark.parametrize("min_scales", [2, 3, 5])
    def test_ladder_implies_the_length_rules(self, min_windows, min_scales):
        # every ladder that fits has 9 points or more and fits its largest scale twice
        for max_rungs in (64, *range(min_scales, 8)):
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
        # no count may be None
        {"min_windows": None}, {"min_scales": None},
        # counts below their minimum
        {"min_windows": 0}, {"min_windows": 1}, {"min_scales": 1},
        {"max_rungs": 2}, {"min_scales": 5, "max_rungs": 4},
        # an uncapped ladder is a cap at least its length, not None
        {"max_rungs": None},
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


# F(6; alpha, beta = 1) near alpha = 1, from the Fourier integral in mpmath: 30 digits,
# which agree at 40 and at 50 working digits on two partitions of the t axis. Keys step
# |alpha - 1| from 1e-16 (one ulp either side of 1) to 1e-3; at alpha = 1 the value is
# 0.881440531622793612780309...
NEAR_ONE = {
    0.9999999999999999: "0.881440531622793586055521883223",
    1.0000000000000002: "0.881440531622793666229883230367",
    0.999999999999: "0.881440531622552902622757579706",
    1.000000000001: "0.881440531623034349662647177527",
    0.99999999: "0.881440529215638756950515471188",
    1.00000001: "0.881440534029948406251993606212",
    0.99999: "0.881438124450150968522103888693",
    1.00001: "0.881442938759802961920479125551",
    0.999: "0.881199637897035484143118919572",
    1.001: "0.881681069015285423732809825111",
}

# F(r; alpha, beta) at generic points, from the Fourier integral
# 1/2 + (1/pi) int_0^T sin(r t + c (t - t^alpha)) e^{-t^alpha} / t dt, c = beta tan(pi alpha / 2),
# by mpmath.quad over [0, 1e-6, 1e-3] and steps of 0.5 at 40 working digits, and of 0.37 at 50,
# with T where e^{-T^alpha} = 10^-(digits + 5): the two agree to 30 digits. scipy's
# levy_stable in its S0 parameterization, which integrates Nolan's non-oscillating form,
# is within 2e-16 of each of the first eight and 3.4e-16 of the next six, and rounds the
# last to the same double. Those seven lie within 0.2 of alpha = 1 (0.8 - 1.0 rounds to
# just above -0.2), where the kernel's residual is -c t expm1((alpha - 1) ln t)
GENERIC = {
    (-1.5, 0.7, 0.5): "0.109656677997406189178097426142",
    (2.0, 0.7, -0.8): "0.963734617239365202526375221944",
    (0.3, 0.7, 0.9): "0.424409792691765820430800254685",
    (-0.8, 1.3, 0.6): "0.221428598787962180697650454305",
    (3.0, 1.3, -0.4): "0.95950685953110066958767883554",
    (0.4, 1.7, 0.9): "0.565154349431522779813945233594",
    (-2.5, 1.7, -0.5): "0.0776709858128624796939302962814",
    (6.0, 1.7, 0.3): "0.990182575662853845247044012586",
    (1.3, 0.85, 0.5): "0.686060716681846136725685434514",
    (-0.7, 0.95, -0.6): "0.411650259098733115393759002501",
    (2.2, 1.05, 0.4): "0.816577105641510521031712626928",
    (-1.1, 1.15, 0.8): "0.119893632888182458093264433695",
    (0.6, 0.9, -0.9): "0.801184204388992587819602022825",
    (4.0, 1.1, 0.3): "0.910780846666649069265561265626",
    # the 1/64 and 1/32 rules differ by 1.8e-8 here, so the 1/128 rule gives the value
    (-1.0, 0.8, 1.0): "0.0620139861523708110617749066826",
}

# F(r; alpha, beta) at small alpha, where the linear phase of points with |r| < 0.1 is
# below the rules' floored frequency of 0.1. Without skew, from the series that converges
# for alpha < 1, 1 - F(x) = (1/pi) sum_{k>=1} (-1)^{k+1} Gamma(k alpha) / k! sin(k pi alpha / 2)
# x^{-k alpha} for x > 0, summed by mpmath at 90 digits; Nolan's non-oscillating integral
# (S0 form) agrees with it to 35 digits at every point. The last two, with skew, are that
# integral at 40 and at 50 digits on two partitions, which agree to 35 digits; the second
# lies within 0.2 of alpha = 1, with |a| = |r| = 0.038
SMALL_ALPHA = {
    (-0.02, 0.05, 0.0): "0.346559210016541087352646547657",
    (0.02, 0.05, 0.0): "0.653440789983458912647353452343",
    (-0.09, 0.05, 0.0): "0.332865027201880924089039440976",
    (0.09, 0.05, 0.0): "0.667134972798119075910960559024",
    (-0.3, 0.05, 0.0): "0.321826695682375340173115418664",
    (0.3, 0.05, 0.0): "0.678173304317624659826884581336",
    (-1.0, 0.05, 0.0): "0.310766265219592734701101338657",
    (1.0, 0.05, 0.0): "0.689233734780407265298898661343",
    (-3.0, 0.05, 0.0): "0.300688450832133896348145536195",
    (3.0, 0.05, 0.0): "0.699311549167866103651854463805",
    (-0.02, 0.15, 0.0): "0.403205542896369208419429246423",
    (0.02, 0.15, 0.0): "0.596794457103630791580570753577",
    (-0.09, 0.15, 0.0): "0.365653458507057409788421235474",
    (0.09, 0.15, 0.0): "0.634346541492942590211578764526",
    (-0.3, 0.15, 0.0): "0.333397694719456056521363437261",
    (0.3, 0.15, 0.0): "0.666602305280543943478636562739",
    (-1.0, 0.15, 0.0): "0.300483824422574316799388530012",
    (1.0, 0.15, 0.0): "0.699516175577425683200611469988",
    (-3.0, 0.15, 0.0): "0.270784721854903166646939355011",
    (3.0, 0.15, 0.0): "0.729215278145096833353060644989",
    (-0.02, 0.25, 0.0): "0.446891101139195683016106442902",
    (0.02, 0.25, 0.0): "0.553108898860804316983893557098",
    (-0.09, 0.25, 0.0): "0.395823090443885832355795849516",
    (0.09, 0.25, 0.0): "0.604176909556114167644204150484",
    (-0.3, 0.25, 0.0): "0.345020811294458442754316282168",
    (0.3, 0.25, 0.0): "0.654979188705541557245683717832",
    (-1.0, 0.25, 0.0): "0.290936357621671100892254667704",
    (1.0, 0.25, 0.0): "0.709063642378328899107745332296",
    (-3.0, 0.25, 0.0): "0.242851127929960657243876989053",
    (3.0, 0.25, 0.0): "0.757148872070039342756123010947",
    (-0.02, 0.35, 0.0): "0.472885788219257757739037807369",
    (0.02, 0.35, 0.0): "0.527114211780742242260962192631",
    (-0.09, 0.35, 0.0): "0.421439478698095386722986631796",
    (0.09, 0.35, 0.0): "0.578560521301904613277013368204",
    (-0.3, 0.35, 0.0): "0.35659344035034203869244079776",
    (0.3, 0.35, 0.0): "0.64340655964965796130755920224",
    (-1.0, 0.35, 0.0): "0.282321379657615779868984223931",
    (1.0, 0.35, 0.0): "0.717678620342384220131015776069",
    (-3.0, 0.35, 0.0): "0.217316554782385374655512040661",
    (3.0, 0.35, 0.0): "0.782683445217614625344487959339",
    (-0.02, 0.45, 0.0): "0.484530567208717599919287197843",
    (0.02, 0.45, 0.0): "0.515469432791282400080712802157",
    (-0.09, 0.45, 0.0): "0.440895610236744060453070219714",
    (0.09, 0.45, 0.0): "0.559104389763255939546929780286",
    (-0.3, 0.45, 0.0): "0.367867601637880137345490933922",
    (0.3, 0.45, 0.0): "0.632132398362119862654509066078",
    (-1.0, 0.45, 0.0): "0.274707715180699978633008349658",
    (1.0, 0.45, 0.0): "0.725292284819300021366991650342",
    (-3.0, 0.45, 0.0): "0.194220109497259596539355319058",
    (3.0, 0.45, 0.0): "0.805779890502740403460644680942",
    (-0.3859119638545374, 0.32434713171870133, 0.8304006457831798): "0.168684198762592300250167831457",
    (0.038117915021506056, 0.8172876444139664, -0.9995601020052114): "0.663464666017289630774455075913",
}


class TestStableCdf:
    def test_symmetric_center_is_half(self):
        params = StableParams(alpha=2.0, beta=0.0, sigma=2.0, mu_loc=3.5)
        assert stable_cdf_with_error(3.5, params)[0] == 0.5

    @pytest.mark.parametrize("beta", [0.0, -0.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_symmetric_center_is_exact(self, alpha, beta):
        # at z = 0 without skew the integrand is identically zero, and the general
        # quadrature returns exactly 1/2 with an error estimate of exactly 0
        params = StableParams(alpha=alpha, beta=beta, sigma=2.0, mu_loc=3.5)
        assert stable_cdf_with_error(3.5, params) == (0.5, 0.0)

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
        # numpy's pairwise sum keeps these within 2.2e-16; a BLAS dot product of the
        # same weights and nodes misses r = 1000 by 6.7e-16
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
        # its support starts at r = -tan(pi/4) = -1, and beta = -1 mirrors it. The
        # largest miss on a 0.1-step grid over [-3, 100] is 2.6e-16
        p = StableParams(alpha=0.5, beta=beta)
        grid = {*np.linspace(-3.0, 100.0, 31).tolist(), -1.0, 1.0, 2.0, 5.0, 6.8, 8.8}
        for r in sorted(grid):
            if beta > 0:
                want = oracles.levy_cdf(r, loc=-1.0)
            else:
                want = 1.0 - oracles.levy_cdf(-r, loc=-1.0)
            assert stable_cdf_with_error(r, p)[0] == pytest.approx(want, abs=5e-9), r

    @pytest.mark.parametrize("r", [s * r for r in np.logspace(0.0, 6.0, 25).tolist()
                                   for s in (1.0, -1.0)])
    def test_closed_forms_on_the_whole_line(self, r):
        cauchy = stable_cdf_with_error(r, StableParams(alpha=1.0))[0]
        assert cauchy == pytest.approx(oracles.cauchy_cdf(r), abs=1e-10)
        gauss = stable_cdf_with_error(r, StableParams(alpha=2.0))[0]
        assert gauss == pytest.approx(oracles.gaussian_cdf(r, std=math.sqrt(2.0)), abs=1e-10)
        levy = stable_cdf_with_error(r, StableParams(alpha=0.5, beta=1.0))[0]
        assert levy == pytest.approx(oracles.levy_cdf(r, loc=-1.0), abs=5e-9)

    @pytest.mark.parametrize("r", [6.0, -6.0])
    @pytest.mark.parametrize("beta", [1.0, -1.0])
    @pytest.mark.parametrize("alpha", list(NEAR_ONE))
    def test_near_alpha_one_matches_mpmath(self, alpha, beta, r):
        # F(r; alpha, -1) = 1 - F(-r; alpha, 1), and F(-6; alpha, 1) < 1e-30 at each alpha
        at_six = float(NEAR_ONE[alpha])
        want = at_six if r * beta > 0 else 0.0
        want = want if beta > 0 else 1.0 - want
        assert stable_cdf_with_error(r, StableParams(alpha, beta))[0] == pytest.approx(
            want, abs=1e-9
        )

    @pytest.mark.parametrize("point", list(GENERIC))
    def test_generic_points_match_mpmath(self, point):
        r, alpha, beta = point
        value = stable_cdf_with_error(r, StableParams(alpha, beta))[0]
        assert value == pytest.approx(float(GENERIC[point]), abs=1e-15)

    @pytest.mark.parametrize("point", list(SMALL_ALPHA))
    def test_small_alpha_within_its_estimate(self, point):
        r, alpha, beta = point
        value, err = stable_cdf_with_error(r, StableParams(alpha, beta))
        assert abs(value - float(SMALL_ALPHA[point])) <= err + 1e-15

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
    @example(alpha=0.9999999999999999, beta=1.0)
    def test_monotone_in_r(self, alpha, beta):
        p = StableParams(alpha=alpha, beta=beta)
        grid = np.linspace(-6.0, 6.0, 25)
        values = [stable_cdf_with_error(r, p)[0] for r in grid]
        assert all(b - a >= -1e-7 for a, b in zip(values, values[1:]))


class TestSkippedNodes:
    """The kernel skips only nodes whose envelope ``e^{-t^alpha}`` is exactly 0.0."""

    @staticmethod
    def nodes(z, alpha, beta):
        """``alpha ln t`` and the mask of evaluated nodes, for every table the point sums.

        ``alpha ln t`` is formed as ``alpha * (log node - shift)`` over the whole table,
        not by the kernel's one comparison against a per-point bound.
        """
        calls, kernel_live = [], fractal._live

        def live(log_nodes, alpha, shift):
            calls.append((alpha * (log_nodes - shift), kernel_live(log_nodes, alpha, shift)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fractal, "_live", live)
            fractal._cdf_quad_split(z, alpha, beta)
        # only z = 0 without skew, where the phase is identically zero, sums no table
        assert calls or not (z or beta)
        return calls

    @given(
        z=st.one_of(st.floats(-0.1, 0.1), st.floats(-1e300, 1e300)),
        alpha=st.floats(0.05, 2.0),
        beta=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    @example(z=0.05, alpha=2.0, beta=0.0)  # |a| below 0.1: the floored frequency
    @example(z=0.0, alpha=0.7, beta=0.0)  # no phase: no table
    @example(z=1.3, alpha=1.5, beta=0.3)  # the coarse pair
    @example(z=-3.0, alpha=1.3, beta=1.0)  # refined by the 1/128 rule
    def test_every_skipped_envelope_is_zero(self, z, alpha, beta):
        calls = self.nodes(z, alpha, beta)
        assert len(calls) <= 2
        for scaled, live in calls:
            assert (np.exp(-np.exp(scaled[~live])) == 0.0).all()
            # the one comparison differs from alpha ln t <= ln 746 only where the envelope is 0.0
            moved = live != (scaled <= math.log(746.0))
            assert (np.exp(-np.exp(scaled[moved])) == 0.0).all()

    @pytest.mark.parametrize(
        "point, size", [((1.3, 1.5, 0.3), 1538), ((0.05, 2.0, 0.0), 1538), ((-3.0, 1.3, 1.0), 2049)]
    )
    def test_nodes_are_skipped(self, point, size):
        # the coarse table (1/64 and 1/32 rules) at |a| = 1.3 and at |a| = 0.05, floored to
        # the frequency 0.1, and the fine table (1/128 rule), which only a refined point sums
        (live,) = [live for _, live in self.nodes(*point) if live.size == size]
        assert 0 < np.count_nonzero(live) < size


class TestCoarsePair:
    """A Fourier point returns the 1/64 rule's value only where the 1/32 rule agrees within 1e-12."""

    @staticmethod
    def split(z, alpha, beta, converged):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fractal, "_CONVERGED", converged)
            return fractal._cdf_quad_split(z, alpha, beta)

    def test_accepted_values_match_the_fine_rule(self):
        # 300 points drawn as the stable_grid benchmark draws them
        rng = np.random.default_rng(39)
        alphas = rng.uniform(0.5, 2.0, 300).tolist()
        betas = rng.uniform(-1.0, 1.0, 300).tolist()
        rs = (2.0 * rng.standard_t(3, 300)).tolist()
        accepted = refined = 0
        for point in zip(rs, alphas, betas):
            got = fractal._cdf_quad_split(*point)
            coarse = self.split(*point, math.inf)  # the 1/64 value and the coarse estimate
            fine = self.split(*point, -1.0)  # the 1/128 value and the fine estimate
            if coarse[1] <= 1e-12:
                assert got == coarse
                assert abs(got[0] - fine[0]) <= 1e-15, point
                accepted += 1
            else:
                assert got == fine
                refined += 1
        assert accepted >= 250 and refined >= 5


GOLDEN = Path(__file__).parent / "fixtures" / "stable_cdf_golden.json"


class TestStableCdfGolden:
    """Every point of ``scripts/make_stable_cdf_golden.py`` reproduces bit for bit.

    A point records the ``repr`` of the value and of the error estimate, or
    the type and message of the error it raised.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_covers_every_branch(self, golden):
        assert len(golden) >= 250
        assert any(row["alpha"] == 1.0 and row["beta"] != 0.0 for row in golden)
        # no linear phase (alpha = 1, z = 0, with skew): the frequency floored at 0.1
        assert any(row["alpha"] == 1.0 and row["r"] == 0.0 and row["beta"] != 0.0 for row in golden)
        assert any(row["r"] == 0.0 and row["beta"] == 0.0 for row in golden)
        # the near-one residual one ulp from alpha = 1, and far tails, each pinned by a value
        assert any(0.0 < abs(row["alpha"] - 1.0) < 1e-15 and "value" in row for row in golden)
        assert sum(abs(row["r"]) >= 1e6 and "value" in row for row in golden) >= 8
        # a Fourier point whose 1/64 and 1/32 rules differ by more than 1e-12: the 1/128
        # rule decides it, on a second table
        assert any(
            len(TestSkippedNodes.nodes(
                (row["r"] - row["mu_loc"]) / row["sigma"], row["alpha"], row["beta"])) == 2
            for row in golden if "value" in row
        )
        raised = [row["raises"] for row in golden if "raises" in row]
        assert sorted(raised) == ["InvalidStableParams", "QuadratureFailure"]

    def test_bitwise(self, golden):
        mismatches = []
        for row in golden:
            params = StableParams(row["alpha"], row["beta"], row["sigma"], row["mu_loc"])
            try:
                value, err = stable_cdf_with_error(row["r"], params)
                got = dict(value=repr(value), error=repr(err))
            except FracparityError as exc:
                got = dict(raises=type(exc).__name__, message=str(exc))
            want = {key: row[key] for key in row.keys() & {"value", "error", "raises", "message"}}
            if got != want:
                mismatches.append((row, got))
        assert not mismatches, mismatches[:5]
