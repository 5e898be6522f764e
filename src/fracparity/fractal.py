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
function in the continuous ("0-shift") parametrization, with the ``alpha = 1``
branch carrying its own logarithmic phase term. Validation anchors it on
closed forms: alpha = 2 is a Gaussian with variance two, alpha = 1 with zero
skew is the Cauchy law and alpha = 1/2 with full skew the Levy law. Each
point splits its phase into a linear part and a residual, and sums the
residual's factors against the Ooura–Mori double-exponential rule for
Fourier integrals (Ooura and Mori, J. Comput. Appl. Math. 38, 1991, and
112, 1999), whose frequency is the linear part floored at 0.1: below the
floor, the rest of the linear part joins the residual. The nodes are fixed
numpy tables, each built on its first use, so a point is a few array
operations, and the package never imports scipy. A point is summed in two
levels. The steps 1/64 and 1/32 come first, on one table; where they agree
within 1e-12, counting the bound on the mass below the first node, the 1/64
rule gives the value and that agreement is the estimate. Elsewhere the 1/128
rule, on a table of its own, gives the value, and its distance from the 1/64
rule is the estimate. A point evaluates only the nodes where ``t^alpha <=
746``, found by one comparison of the table's log nodes with ``ln 746 /
alpha`` plus the log of the frequency: past 745.14 the envelope
``e^{-t^alpha}`` is exactly 0.0, so every other node's term is a zero, and
rounding in the comparison moves only nodes whose envelope is 0.0 either
way. The evaluated nodes run through their steps in place, and the sums,
taken over the whole table with the zeros in place, keep the bits they had
with every node evaluated.
"""

from __future__ import annotations

import functools
import math
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
    # nothing in the package calls scipy
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
    where the scaling law is clean. A cap at least the ladder's length keeps
    every scale from 2 upward (a path of ``n`` points has fewer than
    ``log2(n)`` rungs). ``min_windows`` and ``min_scales`` are at least 2, and
    ``max_rungs`` at least ``min_scales``.
    """

    h_min: float = 0.1
    h_max: float = 1.0
    min_windows: int = 4
    max_rungs: int = 4
    min_scales: int = 3

    def __post_init__(self):
        bounds = (self.h_min, self.h_max)
        if not all(map(finite_number, bounds)) or not 0.0 < self.h_min <= self.h_max:
            bounds = f"[{self.h_min!r}, {self.h_max!r}]"
            raise InvalidHurst(f"clamp bounds [h_min, h_max] = {bounds} invalid")
        counts = (self.min_windows, self.min_scales, self.max_rungs)
        if any(isinstance(x, bool) or not isinstance(x, int) for x in counts):
            raise InvalidHurst("min_windows, min_scales and max_rungs must be integers")
        if self.min_windows < 2 or self.min_scales < 2:
            raise InvalidHurst("need min_windows >= 2 and min_scales >= 2")
        if self.max_rungs < self.min_scales:
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
_STEP = 1.0 / 128  # h of the fine rule; the coarse pair is 2h and 4h
_U_MAX = 4.0  # every rule's nodes run from u = -4 to u = 4
_NEAR_ONE = 0.2  # below this |alpha - 1| the linear part of the phase is z t alone
# the rules' frequency is |a| floored at this: below it, x = 0.1 t and (|a| - 0.1) t
# joins the residual
_MIN_LINEAR = 0.1
# a point whose coarse estimate is at most this returns the 2h rule's value: on the
# stable_grid points, each such value is within 4.4e-16 of the h rule's
_CONVERGED = 1e-12
# past t^alpha = 745.14, e^{-t^alpha} is exactly 0.0: a node whose alpha ln t is above
# this adds only a zero to the sums, so it is not evaluated. The cut compares the table's
# log nodes with ln 746 / alpha + ln(lin) once; that moves only nodes within rounding of
# t^alpha = 746, whose envelope is 0.0 either way
_LOG_LIVE = math.log(746.0)


def _ooura_mori(h: float, cosine: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``x`` and weights of the Ooura–Mori rule of step ``h`` for ``sin x`` or ``cos x``.

    ``x = M phi(u)`` with ``phi(u) = u / (1 - exp(-6 sinh u))`` and ``M h = pi``.
    Sine nodes sit at ``u = n h`` and cosine nodes at ``u = (n + 1/2) h``, so
    as ``u`` grows, ``x`` nears the kernel's zeros ``n pi`` or ``(n + 1/2) pi``
    double-exponentially fast. With the weight ``phi'(u) sin(x) / x`` (or
    ``cos(x) / x``), ``sum w_n x_n G(x_n)`` is the rule for
    ``(1/pi) int_0^inf sin(x) G(x) dx`` (or ``cos``). Past ``u = 1`` the
    kernel is taken as ``(-1)^n sin(M (phi(u) - u))`` (negated for cosine),
    because ``sin`` of the rounded ``x`` would have lost those digits.
    """
    n = np.arange(-round(_U_MAX / h), round(_U_MAX / h) + (not cosine))
    u = (n + 0.5 * cosine) * h
    s = 6.0 * np.sinh(u)
    with np.errstate(divide="ignore", invalid="ignore"):  # at u = 0, set below
        d = -np.expm1(-s)
        phi, dphi = u / d, (d - u * 6.0 * np.cosh(u) * (1.0 - d)) / (d * d)
        tail = (-1.0) ** (n + cosine) * np.sin(math.pi / h * (u / np.expm1(s)))
    phi[u == 0.0], dphi[u == 0.0] = 1.0 / 6.0, 0.5
    x = math.pi / h * phi
    return x, dphi * np.where(u > 1.0, tail, np.cos(x) if cosine else np.sin(x)) / x


@functools.cache
def _fourier_nodes(steps: tuple[float, ...]) -> tuple[np.ndarray, int, np.ndarray]:
    """``log x`` of the Ooura–Mori rules of these steps, the count of sine nodes, and the weights.

    The nodes lie end to end, sine nodes first and the first rule's first of
    all. Row j of the weights holds rule j's, zero on the other rules' nodes.
    """
    blocks = [_ooura_mori(h, cosine) for cosine in (False, True) for h in steps]
    rows = [np.concatenate([w * (k % len(steps) == j) for k, (_, w) in enumerate(blocks)])
            for j in range(len(steps))]
    n_sin = sum(x.size for x, _ in blocks[: len(steps)])
    return np.log(np.concatenate([x for x, _ in blocks])), n_sin, np.stack(rows)


def _live(log_nodes: np.ndarray, alpha: float, shift: float) -> np.ndarray:
    """The nodes to evaluate, given the table's log nodes and ``ln t = log node - shift``.

    One comparison against a per-point bound, ``ln t <= ln 746 / alpha``: the
    others' ``e^{-t^alpha}`` is 0.0.
    """
    return log_nodes <= _LOG_LIVE / alpha + shift


def _cdf_quad_split(z: float, alpha: float, beta: float) -> tuple[float, float]:
    """The CDF at standardized ``z`` and its error estimate, on fixed nodes.

    The phase ``z t + c (t - t^alpha)``, with ``c = beta tan(pi alpha / 2)``
    computed as ``beta / tan(pi (1 - alpha) / 2)``, or ``z t + k t ln t``
    with ``k = 2 beta / pi`` at alpha = 1, is split into a linear part
    ``a t`` and a residual ``psi``. Within ``_NEAR_ONE`` of alpha = 1,
    ``a = z`` and ``psi = -c t expm1((alpha - 1) ln t)``, which keeps its
    digits as ``c`` grows without bound; elsewhere ``a = z + c`` and
    ``psi = -c t^alpha``. As sine is odd, a negative ``a`` (where ``a`` is
    zero, a negative ``c`` or ``k``) negates the phase and the sums, so
    mirror points ``(z, beta)`` and ``(-z, -beta)`` give sums of opposite
    sign, bit for bit. The Ooura–Mori rules of :func:`_ooura_mori` weigh
    ``sin(x)`` and ``cos(x)`` at ``x = lin t`` against ``e^{-t^alpha}
    cos(psi)`` and ``e^{-t^alpha} sin(psi)``, where the frequency ``lin`` is
    ``|a|`` floored at ``_MIN_LINEAR``; below the floor the residual gains
    ``(|a| - lin) t``. Each node's envelope is ``e^{-t^alpha} / x`` with
    ``x`` folded into the weights, so no node divides by zero or overflows
    at any finite ``z``. The phase is identically zero only at ``z = 0``
    without skew, and there the value is exactly 1/2 and the estimate 0.

    A point is summed in two levels, each on its own cached table. The
    coarse table holds the rules of steps 1/64 and 1/32. When their
    distance, plus the 1/64 rule's bound on the mass below its first node,
    is at most ``_CONVERGED`` (1e-12), that is the estimate and the 1/64
    rule gives the value. Otherwise the fine table, the 1/128 rule alone,
    gives the value, and the estimate is its distance from the coarse
    pass's 1/64 sum plus the 1/128 rule's own bound below its first node;
    no node is evaluated twice.

    On each table only the nodes with ``t^alpha <= 746`` are evaluated,
    decided by one comparison of the table's log nodes with a per-point
    bound (:func:`_live`): ``ln x <= ln 746 / alpha + ln(lin)``. It can
    differ from ``alpha ln t <= ln 746`` only at nodes within rounding of
    ``t^alpha = 746``, past 745.14, so every node left out has an envelope
    of exactly 0.0 and its term is a zero; its slot holds 0.0 and each rule
    sums the whole table in its order, so the sums are those of every node
    evaluated, up to the sign of a zero total, which neither the value nor
    the estimate shows. In each Ooura–Mori block ``t`` ascends, so the
    evaluated nodes are a prefix of each. ``ln t`` and ``alpha ln t`` are
    formed on those nodes only, and each later step runs in place on them,
    the same ufunc on the same operands as on fresh arrays, so every term
    keeps its bits.

    Each estimate adds to the distance between two rules a bound on the
    mass below the first node ``lo``, which both rules leave out and the
    distance alone cannot see: ``|sin(phase)| / t <= |z| + |c| |1 -
    t^(alpha - 1)|`` (``|z| + |k ln t|`` at alpha = 1).
    """
    if not (z or beta):
        return 0.5, 0.0
    d = alpha - 1.0
    near = abs(d) < _NEAR_ONE
    coef = 2.0 * beta / math.pi if alpha == 1.0 else beta / math.tan(-0.5 * math.pi * d)
    a = z if near else z + coef
    sign = -1.0 if (a or coef) < 0.0 else 1.0
    lin = max(abs(a), _MIN_LINEAR)
    shift = math.log(lin)  # ln t = ln x - ln(lin)

    def sums(log_nodes, n_sin, weights):
        """Each weight row's sum over the table."""
        live = _live(log_nodes, alpha, shift)
        # each step below is the same ufunc on the same operands as on fresh arrays, written
        # in place on the evaluated nodes: lt holds ln t, then (far from 1) alpha ln t
        lt = log_nodes[live]
        lt -= shift
        slow = (abs(a) - lin) * np.exp(lt) if lin > abs(a) else None  # before lt is overwritten
        ta = np.multiply(lt, alpha, out=None if near else lt)
        np.exp(ta, out=ta)  # t^alpha
        if alpha == 1.0:
            psi = sign * coef * ta  # ta is t at alpha = 1
            psi *= lt
        elif near:
            psi = np.exp(lt)
            psi *= -sign * coef
            lt *= d
            psi *= np.expm1(lt, out=lt)
        else:
            psi = -sign * coef * ta
        if slow is not None:
            psi += slow
        # sine nodes weigh cos(psi), cosine nodes sin(psi)
        k = np.count_nonzero(live[:n_sin])
        np.cos(psi[:k], out=psi[:k])
        np.sin(psi[k:], out=psi[k:])
        np.negative(ta, out=ta)
        psi *= np.exp(ta, out=ta)
        terms = np.zeros(log_nodes.size)
        terms[live] = psi
        return sign * (weights * terms).sum(axis=1)

    def below(log_nodes):
        """Bound on the mass below the table's first node, times pi: the integral of |phase| / t."""
        lo = log_nodes[0] - shift
        head = (abs(coef) * math.exp(lo) * (1.0 - lo) if alpha == 1.0
                else abs(coef * (math.exp(alpha * lo) - alpha * math.exp(lo))) / alpha)
        return abs(z) * math.exp(lo) + head

    log_nodes, n_sin, weights = _fourier_nodes((2.0 * _STEP, 4.0 * _STEP))
    s_2h, s_4h = sums(log_nodes, n_sin, weights)
    err = abs(s_2h - s_4h) + below(log_nodes) / math.pi
    if err <= _CONVERGED:
        return float(0.5 + s_2h), float(err)
    log_nodes, n_sin, weights = _fourier_nodes((_STEP,))
    (s_h,) = sums(log_nodes, n_sin, weights)
    return float(0.5 + s_h), float(abs(s_h - s_2h) + below(log_nodes) / math.pi)


def stable_cdf_with_error(r: float, params: StableParams) -> tuple[float, float]:
    """CDF value at ``r`` plus the quadrature's error estimate.

    Standardizes to ``z = (r - mu_loc) / sigma`` and evaluates

        F(z) = 1/2 + (1/pi) * integral_0^inf sin(phase(z, t)) e^{-t^alpha} / t dt

    where the phase is ``z t + beta tan(pi alpha / 2)(t - t^alpha)`` away
    from ``alpha = 1`` and ``z t + (2 beta / pi) t ln t`` on that branch
    (:func:`_cdf_quad_split`). One rule takes every point: Ooura–Mori's at
    the frequency of the phase's linear part, floored at 0.1. The value is
    its step-1/64 sum where the 1/32 sum agrees with it within 1e-12,
    counting the mass below the first node, and that agreement is the
    estimate; elsewhere it is the 1/128 sum, and the estimate is its
    distance from the 1/64 sum. Raises :class:`InvalidStableParams` when ``z``
    is not finite and :class:`QuadratureFailure` when the error estimate is
    above ``_DEFAULT_CDF_TOL``; the value is clipped into [0, 1] at
    machine-level overshoot.
    """
    z = (r - params.mu_loc) / params.sigma
    if not math.isfinite(z):
        raise InvalidStableParams(f"r must give a finite (r - mu_loc) / sigma, got r = {r}")
    cdf, err = _cdf_quad_split(z, params.alpha, params.beta)
    if err > _DEFAULT_CDF_TOL:
        raise QuadratureFailure(err, _DEFAULT_CDF_TOL)
    return min(max(cdf, 0.0), 1.0), err
