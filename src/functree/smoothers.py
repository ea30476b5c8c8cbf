"""Weighted univariate conditional-mean estimators and evaluable 1-d functions.

Every fitted node function is one of two evaluable forms: a level table for
categorical inputs or a knotted piecewise-linear curve for numeric inputs.
Curves extrapolate as constants beyond their knot range, so evaluation is
total for any finite input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

CATEGORICAL_MEAN = "categorical_mean"
NEAR_NEIGHBOR = "near_neighbor"
LOCAL_LINEAR = "local_linear"

_DEFAULT_SPANS = {NEAR_NEIGHBOR: 0.1, LOCAL_LINEAR: 0.2}

MAX_CURVE_KNOTS = 500


@dataclass(frozen=True)
class LevelTable:
    """Per-level values for a categorical variable; unseen levels map to a
    default value."""

    values: np.ndarray
    default: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0 or not np.all(np.isfinite(v)):
            raise ValueError("level table needs a finite 1-d value vector")
        if not np.isfinite(self.default):
            raise ValueError("default value must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "default", float(self.default))

    def __call__(self, x):
        scalar = np.isscalar(x)
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.rint(xa).astype(int)
        valid = (idx >= 0) & (idx < len(self.values)) & (np.rint(xa) == xa)
        out = np.where(valid, self.values[np.clip(idx, 0, len(self.values) - 1)], self.default)
        return float(out[0]) if scalar else out

    def shift(self, c: float) -> "LevelTable":
        return LevelTable(self.values + c, self.default + c)

    def scale(self, s: float) -> "LevelTable":
        return LevelTable(self.values * s, self.default * s)


@dataclass(frozen=True)
class Curve:
    """Piecewise-linear function on strictly increasing knots with constant
    extrapolation beyond the knot range."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or len(k) == 0 or k.shape != v.shape:
            raise ValueError("knots and values must be equal-length 1-d vectors")
        if len(k) > 1 and not np.all(np.diff(k) > 0):
            raise ValueError("knots must be strictly increasing")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(v))):
            raise ValueError("knots and values must be finite")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = np.interp(np.atleast_1d(np.asarray(x, dtype=float)), self.knots, self.values)
        return float(out[0]) if scalar else out

    def shift(self, c: float) -> "Curve":
        return Curve(self.knots, self.values + c)

    def scale(self, s: float) -> "Curve":
        return Curve(self.knots, self.values * s)


UnivariateFunction = LevelTable | Curve


def combine(a: UnivariateFunction, b: UnivariateFunction, ca: float, cb: float) -> UnivariateFunction:
    """Exact linear combination ca*a + cb*b of two same-kind functions.

    Curves combine on the union of their knot sets, which is exact for
    piecewise-linear functions with constant extrapolation.
    """
    if isinstance(a, LevelTable) and isinstance(b, LevelTable):
        size = max(len(a.values), len(b.values))
        av = np.full(size, a.default)
        av[: len(a.values)] = a.values
        bv = np.full(size, b.default)
        bv[: len(b.values)] = b.values
        return LevelTable(ca * av + cb * bv, ca * a.default + cb * b.default)
    if isinstance(a, Curve) and isinstance(b, Curve):
        if len(a.knots) == len(b.knots) and np.array_equal(a.knots, b.knots):
            return Curve(a.knots, ca * a.values + cb * b.values)
        knots = np.union1d(a.knots, b.knots)
        return Curve(knots, ca * a(knots) + cb * b(knots))
    raise ValueError("cannot combine a level table with a curve")


def thin_knots(knots: np.ndarray, cap: int = MAX_CURVE_KNOTS) -> np.ndarray:
    """Quantile-thin a sorted knot vector to at most ``cap`` entries,
    always keeping both endpoints."""
    if len(knots) <= cap:
        return knots
    idx = np.unique(np.round(np.linspace(0, len(knots) - 1, cap)).astype(int))
    return knots[idx]


@dataclass(frozen=True)
class SmootherSpec:
    """Choice of estimator plus its neighborhood fraction.

    ``span`` is the fraction of observations per neighborhood; when omitted
    it defaults to 0.1 for near-neighbor averaging and 0.2 for local linear
    fits.
    """

    method: str = NEAR_NEIGHBOR
    span: float | None = None

    def __post_init__(self):
        if self.method not in (CATEGORICAL_MEAN, NEAR_NEIGHBOR, LOCAL_LINEAR):
            raise ValueError(f"unknown smoother method {self.method!r}")
        if self.span is not None and not 0.0 < self.span <= 1.0:
            raise ValueError("span must lie in (0, 1]")

    def resolved_span(self) -> float:
        if self.span is not None:
            return self.span
        return _DEFAULT_SPANS.get(self.method, 0.1)


def weight_floor(w: np.ndarray) -> float:
    """Rows with |w| below this are excluded from a fit: tiny basis weights
    make the r/w smoothing target blow up."""
    return 1e-6 * float(np.sqrt(np.mean(np.square(w))))


def _window_bounds(rows: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    # symmetric rank windows of the given sorted rows, shrunk (not shifted)
    # at the edges
    lo = np.maximum(rows - (m - 1) // 2, 0)
    hi = np.minimum(rows + m // 2, n - 1)
    return lo, hi


def _windowed_sums(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    c = np.concatenate([[0.0], np.cumsum(v)])
    return c[hi + 1] - c[lo]


def _near_neighbor_fit(xs, ts, omega, m, rows):
    lo, hi = _window_bounds(rows, len(xs), m)
    return _windowed_sums(omega * ts, lo, hi) / _windowed_sums(omega, lo, hi)


def _local_linear_fit(xs, ts, omega, m, rows):
    lo, hi = _window_bounds(rows, len(xs), m)
    s0 = _windowed_sums(omega, lo, hi)
    xbar = _windowed_sums(omega * xs, lo, hi) / s0
    tbar = _windowed_sums(omega * ts, lo, hi) / s0
    varx = _windowed_sums(omega * xs * xs, lo, hi) / s0 - xbar**2
    covxt = _windowed_sums(omega * xs * ts, lo, hi) / s0 - xbar * tbar
    span_x = float(xs[-1] - xs[0])
    good = varx > max(1e-12 * span_x * span_x, 1e-300)
    slope = np.where(good, covxt / np.where(good, varx, 1.0), 0.0)
    return tbar + slope * (xs[rows] - xbar)


def _knot_rows(xs: np.ndarray, knots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of sorted ``xs`` that linear interpolation at ``knots``
    reads, as whole distinct-x groups: the group equal to a knot, or the
    groups on either side of a knot that ``xs`` lacks. Returns those rows
    (the groups concatenated), where each group starts among them and where
    it starts in ``xs``."""
    n = len(xs)
    at = np.searchsorted(xs, knots)
    present = (at < n) & (xs[np.minimum(at, n - 1)] == knots)
    absent = at[~present]
    anchors = np.concatenate([at[present], absent[absent > 0] - 1, absent[absent < n]])
    gx = np.unique(xs[anchors])
    start = np.searchsorted(xs, gx)
    size = np.searchsorted(xs, gx, side="right") - start
    offset = np.cumsum(size) - size
    rows = np.arange(int(size.sum())) + np.repeat(start - offset, size)
    return rows, offset, start


def _fit_level_table(x, t, omega):
    # levels without weight take the global mean
    idx = np.rint(x).astype(int)
    if np.any(idx < 0):
        raise ValueError("categorical values must be nonnegative level indices")
    size = int(idx.max()) + 1
    sw = np.bincount(idx, weights=omega, minlength=size)
    swt = np.bincount(idx, weights=omega * t, minlength=size)
    gmean = float(swt.sum() / sw.sum())
    values = np.full(size, gmean)
    ok = sw > 0
    values[ok] = swt[ok] / sw[ok]
    return LevelTable(values, gmean)


def smooth(
    x: np.ndarray,
    r: np.ndarray,
    w: np.ndarray,
    spec: SmootherSpec,
    *,
    order: np.ndarray | None = None,
    knots: np.ndarray | None = None,
) -> UnivariateFunction:
    """Estimate the weighted conditional expectation E_{w^2}[ r/w | x ].

    Rows whose basis weight falls below the floor are excluded. For numeric
    methods the result is a piecewise-linear curve on the ``knots`` grid,
    which defaults to the distinct sorted x values (quantile-thinned past 500
    knots). ``order`` may carry a precomputed stable argsort of the full x
    vector to skip the per-call sort.

    The curve value at a knot interpolates the w^2-weighted means, per
    distinct x, of a rank-window fit at each included row. Interpolation
    reads only the x group equal to the knot, or the two groups around a
    knot that no included row holds (rows below the weight floor can remove
    one). So the windowed fit is computed only at the rows of those groups,
    from cumulative sums over all included rows. Each value that reaches the
    curve goes through the same floating-point operations as when every row
    is fitted, so the result is exact, not an approximation.

    The returned function is not centred; the fitter recentres its nodes
    itself.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (len(x) == len(r) == len(w)):
        raise ValueError("x, r, w must have equal lengths")
    mask = (np.abs(w) >= weight_floor(w)) & (w != 0.0)
    if not mask.any():
        raise ValueError("all rows excluded by the basis-weight floor")

    if spec.method == CATEGORICAL_MEAN:
        wm = w[mask]
        return _fit_level_table(x[mask], r[mask] / wm, wm * wm)
    if order is None:
        order = np.argsort(x, kind="stable")
    # a stable sort of all rows restricted to the included ones is the
    # stable sort of the included rows
    gidx = order[mask[order]]
    ws = w[gidx]
    xs, ts, omega = x[gidx], r[gidx] / ws, np.square(ws)
    if knots is None:
        knots = thin_knots(np.unique(xs))
    rows, offset, start = _knot_rows(xs, knots)
    m = max(2, int(round(spec.resolved_span() * len(xs))))
    if spec.method == NEAR_NEIGHBOR:
        vals = _near_neighbor_fit(xs, ts, omega, m, rows)
    else:
        vals = _local_linear_fit(xs, ts, omega, m, rows)
    om = omega[rows]
    gvals = np.add.reduceat(om * vals, offset) / np.add.reduceat(om, offset)
    return Curve(knots, np.interp(knots, xs[start], gvals))


def spline_knots(x: np.ndarray) -> np.ndarray:
    """Interior knots of ``spline_fit``: the distinct vigintiles (5th, 10th,
    ..., 95th percentiles) of x strictly inside its range. Tied x values
    make vigintiles coincide, so there can be fewer than 19."""
    x = np.asarray(x, dtype=float)
    interior = np.unique(np.quantile(x, np.arange(1, 20) / 20.0))
    return interior[(interior > x.min()) & (interior < x.max())]


def spline_fit(x: np.ndarray, t: np.ndarray) -> Curve:
    """Least-squares cubic regression spline of t on x with interior knots
    ``spline_knots(x)``, returned as a densely sampled curve. The design has
    4 + len(spline_knots(x)) columns."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if len(x) != len(t):
        raise ValueError("x and t must have equal lengths")
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        raise ValueError("x must not be constant")
    interior = spline_knots(x)
    scale = hi - lo

    def design(v):
        u = (v - lo) / scale
        cols = [np.ones_like(u), u, u**2, u**3]
        for k in interior:
            uk = (k - lo) / scale
            cols.append(np.clip(u - uk, 0.0, None) ** 3)
        return np.column_stack(cols)

    A = design(x)
    if len(x) < A.shape[1]:
        raise ValueError("need at least as many rows as spline basis functions")
    beta, _, rank, _ = np.linalg.lstsq(A, t, rcond=None)
    if rank < A.shape[1]:
        warnings.warn("rank-deficient spline design; collinear columns dropped", stacklevel=2)
    grid = np.unique(np.concatenate([np.linspace(lo, hi, 2001), interior]))
    return Curve(grid, design(grid) @ beta)
