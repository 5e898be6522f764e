"""Fractal numerics: minimal-cover Hurst estimation and stable-law CDF.

The Hurst exponent is estimated from the scaling of the minimal cover of a
path: partition the path into windows of ``delta`` intervals, sum the
max-minus-min amplitude over the windows, and regress the log of that total
variation against ``log(delta)``. For a self-affine path the variation
behaves like ``delta**(H - 1)``, so the fitted slope recovers ``H``
directly. The estimator stays usable on lookbacks of a few dozen points;
the scale ladder alone (:func:`hurst_scales`) decides whether a path is
long enough. The kernel works on a block with one path per row (the
trend-surviving assets of every lookback of a walk), block max/min per
scale, each built from the scale below, and one batched log-log fit, and
returns a :class:`HurstFit` of per-row vectors (``h``, variation index,
r², clamp hits, V(delta)), which the walk-forward engine slices per
period. A row whose variation vanishes at some scale has no fit, so the
kernel raises ``DegeneratePath`` for the whole block before it fits any row,
and ``NumericError`` when some variation overflows to infinity.
:func:`estimate_hurst`, which the ``hurst`` CLI uses, fits one path as a
one-row block and returns that block's :class:`HurstFit`.

The stable CDF is evaluated by Fourier inversion of the characteristic
function in the continuous ("0-shift") parametrization: a sine-kernel
oscillatory integral handled by adaptive quadrature, with the ``alpha = 1``
branch carrying its own logarithmic phase term. Validation anchors it on
closed forms: alpha = 2 is a Gaussian with variance two, alpha = 1 with zero
skew is the Cauchy law and alpha = 1/2 with full skew the Levy law. The
integrand binds each point's constants once and computes ``t**alpha`` once
per call, keeping the formula's order of operations. The quadrature is
scipy's QUADPACK extension alone, loaded on the first CDF evaluation without
the rest of ``scipy.integrate`` (which would pull in scipy.special,
scipy.optimize and scipy.sparse.linalg), so the backtest never loads scipy and
one ``stable-cdf`` call takes a median 0.30 s instead of 0.93 s on a 2-vCPU
machine.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePath,
    InvalidHurst,
    InvalidStableParams,
    NumericError,
    QuadratureFailure,
    TooShort,
    finite_number,
)


def __getattr__(name: str):
    # serves only perfbench's tracing, which wraps ``fracparity.fractal.integrate.quad``;
    # the CDF itself calls QUADPACK through :func:`_quadpack`
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class HurstConfig:
    """Scale-ladder and clamping knobs for :func:`fit_hurst_rows` and :func:`estimate_hurst`.

    The ladder is dyadic: powers of two from 2 up to the largest scale that
    still yields ``min_windows`` windows. When more than ``max_rungs``
    scales fit, only the largest ``max_rungs`` are kept: the smallest scales
    carry a known finite-sample bias (a sampled path misses excursions
    inside short windows, deflating small-scale amplitudes and tilting the
    fit upward), so on long paths the ladder slides toward the coarse end
    where the scaling law is clean. Set ``max_rungs=None`` to keep every
    scale from 2 upward. ``min_windows`` and ``min_scales`` are at least 2.
    """

    h_min: float = 0.1
    h_max: float = 1.0
    min_windows: int = 4
    max_rungs: int | None = 4
    min_scales: int = 3

    def __post_init__(self):
        bounds = (self.h_min, self.h_max)
        if not all(map(finite_number, bounds)) or not 0.0 < self.h_min <= self.h_max:
            bounds = f"[{self.h_min!r}, {self.h_max!r}]"
            raise InvalidHurst(f"clamp bounds [h_min, h_max] = {bounds} invalid")
        rungs = () if self.max_rungs is None else (self.max_rungs,)  # only it may be None
        counts = (self.min_windows, self.min_scales, *rungs)
        if any(isinstance(x, bool) or not isinstance(x, int) for x in counts):
            raise InvalidHurst("min_windows, min_scales and max_rungs must be integers")
        if self.min_windows < 2 or self.min_scales < 2:
            raise InvalidHurst("need min_windows >= 2 and min_scales >= 2")
        if self.max_rungs is not None and self.max_rungs < self.min_scales:
            raise InvalidHurst(
                f"max_rungs {self.max_rungs} below the {self.min_scales}-scale minimum"
            )


@dataclass(frozen=True)
class StableParams:
    """Parameters of a stable law: stability alpha, skew beta, scale, location."""

    alpha: float
    beta: float = 0.0
    sigma: float = 1.0
    mu_loc: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise InvalidStableParams(f"alpha must be in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise InvalidStableParams(f"beta must be in [-1, 1], got {self.beta}")
        if not 0.0 < self.sigma < math.inf:
            raise InvalidStableParams(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu_loc):
            raise InvalidStableParams(f"mu_loc must be finite, got {self.mu_loc}")


def build_path(returns) -> np.ndarray:
    """Integrate returns into a path starting at zero, along the last axis.

    ``path[..., 0] = 0`` and ``path[..., k] = path[..., k-1] + r[..., k]``,
    so the estimator sees the cumulative (log-price-like) path rather than
    the raw noise. A 1-d series gives one path; a block with one row per
    asset gives one path per row; :func:`hurst_scales` judges its length.
    """
    r = np.asarray(returns, dtype=float)
    path = np.zeros(r.shape[:-1] + (r.shape[-1] + 1,))
    np.cumsum(r, axis=-1, out=path[..., 1:])
    return path


def cover_variations(paths: np.ndarray, scales) -> np.ndarray:
    """Minimal-cover amplitude V(delta) of every row of ``paths`` at every scale.

    ``paths`` holds one path per row, all of the same length; the result has
    one row per path and one column per scale. At scale ``delta`` a path of
    ``len - 1`` intervals is cut into ``(len - 1) // delta`` consecutive
    windows of ``delta`` intervals (adjacent windows share their boundary
    point; a trailing remainder is discarded), and the max-minus-min
    amplitudes of the windows are summed.

    A window is a block of ``delta`` points plus the first point of the next
    block. Block extremes come from halving: the max of neighbouring pairs
    of blocks while the number of blocks to merge is even, then one
    reduction over what is left. A scale that the previous scale divides
    starts from the previous scale's block extremes instead of the path, so
    a dyadic ladder costs about two whole-array passes in all; any other
    scale restarts from the path.
    """
    n_paths, size = paths.shape
    out = np.empty((n_paths, len(scales)))
    hi = lo = paths  # block extremes, blocks of ``width`` points
    width = 1
    for j, delta in enumerate(scales):
        n_windows = (size - 1) // delta
        if delta % width:
            hi = lo = paths
            width = 1
        merge = delta // width
        hi, lo = hi[:, : n_windows * merge], lo[:, : n_windows * merge]
        while merge % 2 == 0:
            hi = np.maximum(hi[:, 0::2], hi[:, 1::2])
            lo = np.minimum(lo[:, 0::2], lo[:, 1::2])
            merge //= 2
        if merge > 1:
            hi = hi.reshape(n_paths, n_windows, merge).max(axis=2)
            lo = lo.reshape(n_paths, n_windows, merge).min(axis=2)
        width = delta
        right = paths[:, delta : n_windows * delta + 1 : delta]
        out[:, j] = (np.maximum(hi, right) - np.minimum(lo, right)).sum(axis=1)
    return out


def hurst_scales(n_points: int, config: HurstConfig = HurstConfig()) -> list[int]:
    """The dyadic ladder the estimator fits on paths of ``n_points`` points.

    Scales run from 2 while ``n_points - 1`` intervals give ``min_windows``
    windows, and only the largest ``max_rungs`` are kept. Raises ``TooShort``
    when fewer than ``min_scales`` scales fit, the one length rule for a Hurst
    path: as ``min_windows`` and ``min_scales`` are at least 2, a ladder that
    fits has ``n_points >= 9`` (8 returns) and ``n_points > 2 * scales[-1]``.
    """
    scales: list[int] = []
    d = 2
    while (n_points - 1) // d >= config.min_windows:
        scales.append(d)
        d *= 2
    if config.max_rungs is not None:
        scales = scales[-config.max_rungs :]
    if len(scales) < config.min_scales:
        raise TooShort(
            f"path of {n_points} points affords {len(scales)} scales, "
            f"need {config.min_scales}"
        )
    return scales


@dataclass(frozen=True, eq=False)
class HurstFit:
    """Minimal-cover fits of a block of paths: one entry per row, as vectors.

    ``h`` is clamped into ``[h_min, h_max]``; ``clamped`` marks the rows
    whose unclamped exponent ``1 - mu_index`` fell outside that range.
    ``variations`` holds V(delta) with one row per path and one column per
    entry of ``scales``.
    """

    h: np.ndarray
    mu_index: np.ndarray
    r_squared: np.ndarray
    clamped: np.ndarray
    scales: tuple[int, ...]
    variations: np.ndarray


def fit_hurst_rows(paths, config: HurstConfig = HurstConfig()) -> HurstFit:
    """Fit the minimal-cover scaling of every row of ``paths``, each row on its own.

    Computes V(delta) on the dyadic ladder for all rows at once, fits
    ``ln V`` against ``ln delta`` by least squares (one batched fit), and
    maps each slope ``s`` to the variation index ``mu = -s``, the
    micro-fractal dimension ``D = 1 + mu`` and the exponent
    ``h = 2 - D = 1 - mu``, clamped into ``[h_min, h_max]``.

    A row's entries depend on that row alone, so one call over the rows of
    many blocks gives each block's fits bit for bit. Raises what
    :func:`hurst_scales` raises, ``DegeneratePath`` when some row's
    variation vanishes at some scale: ``ln V`` is undefined there, and
    :class:`NumericError` naming the first scale at which some row's
    variation is not finite (a finite path whose amplitude overflows).
    """
    p = np.asarray(paths, dtype=float)
    scales = hurst_scales(p.shape[1], config)
    with np.errstate(over="ignore"):  # an overflow is reported below, by scale
        variations = cover_variations(p, scales)
    if (variations <= 0.0).any():
        raise DegeneratePath("zero variation at some scale (constant path)")
    overflow = ~np.isfinite(variations).all(axis=0)
    if overflow.any():
        scale = scales[int(np.argmax(overflow))]
        raise NumericError(f"variation at scale {scale} is not finite: the amplitude overflows")

    x = np.log(np.array(scales, dtype=float))
    x_c = x - x.mean()
    # flat ln V at every scale is a perfect fit with zero slope
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(variations)
        y_mean = y.mean(axis=1, keepdims=True)
        y_c = y - y_mean
        slope = (y_c * x_c).sum(axis=1) / np.dot(x_c, x_c)
        resid = y - (y_mean + slope[:, None] * x_c)
        ss_res = (resid * resid).sum(axis=1)
        ss_tot = (y_c * y_c).sum(axis=1)
        r_squared = np.where(ss_tot > 0.0, np.clip(1.0 - ss_res / ss_tot, 0.0, 1.0), 1.0)

    mu_index = -slope
    raw = 1.0 - mu_index
    return HurstFit(
        h=np.clip(raw, config.h_min, config.h_max),
        mu_index=mu_index,
        r_squared=r_squared,
        clamped=(raw < config.h_min) | (raw > config.h_max),
        scales=tuple(scales),
        variations=variations,
    )


def estimate_hurst(path, config: HurstConfig = HurstConfig()) -> HurstFit:
    """The one-row :class:`HurstFit` of one path; see :func:`fit_hurst_rows`."""
    return fit_hurst_rows(np.reshape(path, (1, -1)), config)


# --- stable CDF -----------------------------------------------------------

_DEFAULT_CDF_TOL = 1e-6
# QUADPACK's routines, called with the arguments ``scipy.integrate.quad``
# passes them: ``args=()`` and ``full_output=0`` in every call. Each returns
# (value, error estimate, ier); ``quad`` returns the same pair and warns when
# ier != 0, or raises on ier = 6 (invalid input), which these constants rule out.
_QUAD_TOL = (1e-12, 1e-12, 200)  # epsabs, epsrel, limit of _qagse and _qagie
_UPPER_INF = 1  # _qagie's code for the range [bound, inf)
_QAWF_COS, _QAWF_SIN = 1, 2  # _qawfe's weight codes
# _qawfe's epsabs, limlst, limit, maxp1: quad's defaults (QAWF takes no
# epsrel; 50 cycles, 50 Chebyshev moments) but for limit=200
_QAWF_TOL = (1.49e-8, 50, 200, 50)


@functools.cache
def _quadpack():
    """scipy's QUADPACK extension, loaded without running ``scipy.integrate/__init__``.

    That package imports scipy.special, scipy.optimize and scipy.sparse.linalg
    (about 0.45 s), while the CDF needs three routines of one extension that
    loads in about 1 ms. The extension is found beside the package and put in
    ``sys.modules`` under its own name, so a later ``from scipy import
    integrate`` shares it; once that package is imported, its entry is reused.
    """
    import importlib.util
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

    name = "scipy.integrate._quadpack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
    spec = FileFinder(os.path.join(scipy_dir, "integrate"), loaders).find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _sine_integrand(z: float, alpha: float, beta: float):
    """``sin(phase) e^{-t^alpha} / t`` with the point's constants bound once."""
    sin, exp, log = math.sin, math.exp, math.log
    if alpha == 1.0:
        k = 2.0 * beta / math.pi
        return lambda t: sin(z * t + k * t * log(t)) * exp(-t) / t
    c = beta * math.tan(math.pi * alpha / 2.0)

    def f(t):
        ta = t**alpha
        return sin(z * t + c * (t - ta)) * exp(-ta) / t

    return f


def _cdf_quad_split(z: float, alpha: float, beta: float) -> tuple[float, float]:
    """Singular head on [0, 1] plus Fourier-weighted tails on [1, inf).

    For slowly decaying envelopes (small alpha) and far tails the plain
    integrator loses accuracy; splitting off the asymptotically linear part
    of the phase (``k t ln t`` remains at alpha = 1, ``-c t^alpha`` elsewhere)
    lets QUADPACK's oscillatory machinery extrapolate over the cycles.
    """
    sin, cos, exp, log = math.sin, math.cos, math.exp, math.log
    if alpha == 1.0:
        k = 2.0 * beta / math.pi
        a_lin = z

        def g_sin(t):
            return exp(-t) * cos(k * t * log(t)) / t

        def g_cos(t):
            return exp(-t) * sin(k * t * log(t)) / t

    else:
        c = beta * math.tan(math.pi * alpha / 2.0)
        a_lin = z + c  # linear phase coefficient for t -> inf

        def g_sin(t):
            ta = t**alpha
            return exp(-ta) * cos(c * ta) / t

        def g_cos(t):
            ta = t**alpha
            return -exp(-ta) * sin(c * ta) / t

    quadpack = _quadpack()
    v1, e1, _ = quadpack._qagse(_sine_integrand(z, alpha, beta), 0.0, 1.0, (), 0, *_QUAD_TOL)
    if a_lin == 0.0:
        v2, e2, _ = quadpack._qagie(g_cos, 1.0, _UPPER_INF, (), 0, *_QUAD_TOL)
        return v1 + v2, e1 + e2
    v2, e2, _ = quadpack._qawfe(g_sin, 1.0, a_lin, _QAWF_SIN, (), 0, *_QAWF_TOL)
    v3, e3, _ = quadpack._qawfe(g_cos, 1.0, a_lin, _QAWF_COS, (), 0, *_QAWF_TOL)
    return v1 + v2 + v3, e1 + e2 + e3


def stable_cdf_with_error(r: float, params: StableParams) -> tuple[float, float]:
    """CDF value at ``r`` plus the achieved quadrature error estimate.

    Standardizes to ``z = (r - mu_loc) / sigma`` and evaluates

        F(z) = 1/2 + (1/pi) * integral_0^inf sin(phase(z, t)) e^{-t^alpha} / t dt

    where the phase is ``z t + beta tan(pi alpha / 2)(t - t^alpha)`` away
    from ``alpha = 1`` and ``z t + (2 beta / pi) t ln t`` on that branch.
    Raises :class:`InvalidStableParams` when ``z`` is not finite,
    :class:`QuadratureFailure` when the error estimate ends up above
    ``_DEFAULT_CDF_TOL``, and :class:`NumericError` when, at huge ``|z|``,
    the phase overflows to infinity at some node and no estimate is made;
    the value is clipped into [0, 1] at machine-level overshoot.
    """
    z = (r - params.mu_loc) / params.sigma
    if not math.isfinite(z):
        raise InvalidStableParams(f"r must give a finite (r - mu_loc) / sigma, got r = {r}")
    alpha, beta = params.alpha, params.beta
    if z == 0.0 and beta == 0.0:
        # integrand vanishes identically at the symmetry point
        return 0.5, 0.0

    f = _sine_integrand(z, alpha, beta)
    try:
        val, err, _ = _quadpack()._qagie(f, 0.0, _UPPER_INF, (), 0, *_QUAD_TOL)
        if err > 1e-8:
            val, err = _cdf_quad_split(z, alpha, beta)
    except ValueError as exc:
        # the integrands' one ValueError: math.sin or math.cos of a phase that is inf
        raise NumericError(
            f"the phase z t overflows to infinity at |z| = {abs(z):.3e}; no quadrature estimate"
        ) from exc
    err /= math.pi
    if err > _DEFAULT_CDF_TOL:
        raise QuadratureFailure(err, _DEFAULT_CDF_TOL)
    cdf = 0.5 + val / math.pi
    return min(max(cdf, 0.0), 1.0), err
