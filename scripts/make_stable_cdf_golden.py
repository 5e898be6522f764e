#!/usr/bin/env python3
"""Record the stable-CDF golden fixture.

Writes tests/fixtures/stable_cdf_golden.json: 341 inputs of
``fractal.stable_cdf_with_error`` with the ``repr`` of the value and of the
error estimate each one returned, or the type and message of the error it
raised. ``tests/test_fractal.py`` asserts exact equality on every point, so
a rewrite of the quadrature has to reproduce the recorded bits.

The points cover every branch: seeded (r, alpha, beta) draws in the ranges
of the ``stable_grid`` benchmark workload, alpha = 1 with and without skew
(z = 0 with skew leaves no linear phase, so the rules' frequency is the
floor of 0.1),
alpha within 1e-16 to 1e-3 of 1, the symmetry point ``z == 0, beta == 0``,
the totally skewed Levy law, far tails out to |r| = 1e308, non-unit scale
and location, and the inputs that raise. Rerunning on unchanged code
reproduces the file byte for byte; run it only on code whose values are
the reference.

The values come from numpy's own exp, expm1, log, sin and cos kernels and
its pairwise summation, not from the C library: numpy's exp differs from
the C library's in the last bit on 8,883 of 200,000 inputs uniform on
[-745, 709], and on the same count with its AVX-512 kernels disabled
(``NPY_DISABLE_CPU_FEATURES``). A numpy that changes those kernels moves
the recorded bits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracparity import fractal  # noqa: E402
from fracparity.errors import FracparityError  # noqa: E402

OUT = ROOT / "tests" / "fixtures" / "stable_cdf_golden.json"
SEED = 20171
N_RANDOM = 258


def points() -> list[dict]:
    rng = np.random.default_rng(SEED)
    alphas = rng.uniform(0.5, 2.0, N_RANDOM)
    betas = rng.uniform(-1.0, 1.0, N_RANDOM)
    rs = 2.0 * rng.standard_t(3, N_RANDOM)
    grid = [(float(r), float(a), float(b)) for r, a, b in zip(rs, alphas, betas)]
    grid += [(r, 1.0, b) for r in (-6.0, -1.5, -0.2, 0.0, 0.4, 2.5, 9.0)
             for b in (-1.0, 0.35)]
    grid += [(r, 1.0, 0.0) for r in (-3.0, 0.75, 4.0)]
    # far alpha = 1 points with skew: the logarithmic phase's residual
    grid += [(r, 1.0, b) for r in (80.0, -200.0, 800.0) for b in (0.5, -0.5)]
    grid += [(0.0, a, 0.0) for a in (0.5, 1.0, 1.3, 2.0)]
    grid += [(r, 0.5, b) for r in (-2.0, 0.5, 1.0, 2.0, 5.0, 40.0) for b in (1.0, -1.0)]
    grid += [(r, 2.0, 0.0) for r in (-1.0, 0.3, 3.0)]
    # the near-one residual, one ulp to 1e-3 from alpha = 1 on either side
    grid += [(r, a, 1.0) for a in (0.9999999999999999, 1.0000000000000002, 1 - 1e-8, 1.001)
             for r in (-6.0, 6.0)]
    # far tails: every point evaluates, to the closed forms' limits
    grid += [(r, a, b) for r in (-1e6, 1e6) for a, b in ((0.5, 1.0), (1.0, 0.0), (2.0, 0.0))]
    grid += [(1e300, 1.5, 0.0), (1e10, 1.0, -1.0), (-1e308, 2.0, 0.0), (1e308, 1.0, 0.5)]
    # about the envelope's underflow, t^alpha past 746: points with 58%, 55%, 24% and
    # none of the nodes there, and two whose linear phase |a| is below the floor of 0.1
    grid += [(0.1000000001, 2.0, 0.0), (0.3, 1.9, -0.8), (2.5, 1.2, 0.9), (0.05, 0.16, 0.3),
             (0.05, 2.0, 0.0), (-0.09, 0.6, 0.0)]
    # the near-one residual psi = -c t expm1((alpha - 1) ln t) with |a| below 0.1, and
    # alpha = 1's c t ln t there; then a near-one point with every node evaluated
    grid += [(-0.07, 0.85, -0.4), (0.03, 1.1, 0.5), (0.09, 0.81, 0.2), (-0.02, 1.19, 1.0),
             (0.08, 1.0, 0.3), (-0.6, 0.832, -0.689)]
    # points about the coarse pair's acceptance (1/64 against 1/32 within 1e-12):
    # estimates 1.8e-8 and 2.06e-12, which the 1/128 rule refines, and 9.8e-13, which it does not
    grid += [(-1.0, 0.8, 1.0), (-3.0, 1.3, 1.0), (0.2, 2.0, 0.0)]
    # small alpha: |a| = 1.03 at alpha = 0.06, where the bound on the mass below the first
    # node fails the tolerance (the file's one QuadratureFailure); and two points with |a|
    # below 0.1 without skew
    grid += [(-1.0, 0.06, -0.3), (-0.09, 0.35, 0.0), (0.05, 0.05, 0.0)]
    # alpha = 0.2 without skew just left of 0, and the one non-finite r
    grid += [(-0.05, 0.2, 0.0), (float("inf"), 1.5, 0.0)]
    out = [dict(r=r, alpha=a, beta=b, sigma=1.0, mu_loc=0.0) for r, a, b in grid]
    out += [
        dict(r=2.0, alpha=1.5, beta=0.0, sigma=0.5, mu_loc=2.0),
        dict(r=1.2, alpha=0.8, beta=-0.6, sigma=2.0, mu_loc=-0.5),
        dict(r=-3.0, alpha=1.0, beta=0.9, sigma=0.25, mu_loc=1.0),
    ]
    return out


def record(point: dict) -> dict:
    params = fractal.StableParams(point["alpha"], point["beta"], point["sigma"], point["mu_loc"])
    try:
        value, err = fractal.stable_cdf_with_error(point["r"], params)
        outcome = dict(value=repr(value), error=repr(err))
    except FracparityError as exc:
        outcome = dict(raises=type(exc).__name__, message=str(exc))
    return dict(point, **outcome)


def main() -> None:
    rows = [record(p) for p in points()]
    OUT.write_text(json.dumps(rows, indent=1) + "\n")
    n_raise = sum("raises" in row for row in rows)
    print(f"{len(rows)} points ({n_raise} raising) written to {OUT}")


if __name__ == "__main__":
    main()
