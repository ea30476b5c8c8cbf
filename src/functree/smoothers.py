"""Weighted univariate conditional-mean estimators and evaluable 1-d functions.

Every fitted node function is one of two evaluable forms: a level table for
categorical inputs or a knotted piecewise-linear curve for numeric inputs.
Curves extrapolate as constants beyond their knot range, so evaluation is
total for any finite input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

CATEGORICAL_MEAN = "categorical_mean"
NEAR_NEIGHBOR = "near_neighbor"
LOCAL_LINEAR = "local_linear"

MAX_CURVE_KNOTS = 500

# spline_fit refines once more, on B'r summed exactly, when its float64
# refinement step exceeds this fraction of the largest coefficient: about
# 450 eps. On 480 random draws of unclustered x the step stayed below
# 2.3e-14; on the clustered draw whose fit fell short of its bound it was 7e-11
REFINE_TOL = 1e-13

# Curves read long inputs through their location on the knots (``locate``),
# then cost a gather, a multiply and an add. On random normal points (numpy
# 2.4, one core of a 2-vCPU x86-64 host, 500 knots) location and one curve
# cost what np.interp did at 1,024 points (65 us) and half at 2,048 (80
# against 143 us). On ascending points, such as a grid's columns, np.interp
# stays cheaper longer (801 points: 10 against 90 us). At 20,000 points it
# paid from 8 knots (0.46 ms either way; 0.44 against 0.64 ms at 16), and
# 2, 4 and 8 buckets per knot located them on 500 knots in about 0.2 ms
SORTED_INTERP_POINTS = 2048
SORTED_INTERP_KNOTS = 8
LOCATE_BUCKETS = 4


def locate(knots: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's knot interval q = np.searchsorted(knots, x, side="right")
    and offset dx = x - knots[max(q - 1, 0)], exactly, for x not NaN. Knots
    and points get buckets (LOCATE_BUCKETS per knot over the knot range) by
    one arithmetic that never decreases as x grows, so q is the count of
    knots before the point's bucket plus those of its own at most x, found
    by bisection: one step unless knots cluster."""
    x = np.ascontiguousarray(x)  # a matrix column is read three times
    nb = LOCATE_BUCKETS * len(knots)
    with np.errstate(all="ignore"):
        scale = nb / (knots[-1] - knots[0])
        scale = scale if np.isfinite(scale) else 0.0  # one bucket

        def bucket(v):
            t = np.subtract(v, knots[0])
            t *= scale
            return np.fmin(np.fmax(t, 0.0, out=t), nb - 1, out=t).astype(np.intp)

        counts = np.bincount(bucket(knots), minlength=nb)
        q = np.concatenate([[0], np.cumsum(counts)])[bucket(x)]
    steps = int(counts.max()).bit_length()
    padded = np.concatenate([knots, np.full(1 << steps, np.nan)])
    for s in reversed(range(steps)):
        q += (1 << s) * (padded[q + ((1 << s) - 1)] <= x)
    dx = np.concatenate([knots[:1], knots]).take(q)
    return q, np.subtract(x, dx, out=dx)


class Points:
    """Evaluation points. Curves read long inputs through a location kept
    per knot vector (by value), level tables through level indices.
    ``SortedColumn`` is the fitter's kind, with the location on its own
    knots found up front."""

    __slots__ = ("x", "_locations", "_levels")

    def __init__(self, x: np.ndarray):
        self.x = x
        # by knot bytes; short inputs keep np.interp (a ``SortedColumn``
        # holds its own location at any length)
        self._locations: dict[bytes, tuple | None] | None = {} if len(x) >= SORTED_INTERP_POINTS else None
        self._levels = None

    def interp(self, knots: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``np.interp(self.x, knots, values)``, bit for bit."""
        if self._locations is None or len(knots) < SORTED_INTERP_KNOTS:
            return np.interp(self.x, knots, values)
        key = knots.tobytes()
        if key not in self._locations:
            q, dx = locate(knots, self.x)
            self._locations[key] = (np.diff(knots), q, dx) if np.isfinite(dx).all() else None
        out = None if self._locations[key] is None else _gather(values, *self._locations[key])
        return np.interp(self.x, knots, values) if out is None else out

    def levels(self) -> tuple[np.ndarray, int, int, np.ndarray]:
        """Each point's nearest integer, the smallest and largest (0 and -1
        for no points) and which points are integers."""
        if self._levels is None:
            r = np.rint(self.x)
            idx = r.astype(int)
            lo, hi = (int(idx.min()), int(idx.max())) if idx.size else (0, -1)
            self._levels = idx, lo, hi, r == self.x
        return self._levels


class InvalidFunctionError(ValueError):
    """Values that a level table or a curve cannot hold."""


class _Function:
    """A univariate function: a float at a scalar, an array at an array."""

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = self.at(Points(np.atleast_1d(np.asarray(x, dtype=float))))
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class LevelTable(_Function):
    """Per-level values for a categorical variable; unseen levels map to a
    default value."""

    values: np.ndarray
    default: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0 or not np.all(np.isfinite(v)):
            raise InvalidFunctionError("level table needs a finite 1-d value vector")
        if not np.isfinite(self.default):
            raise InvalidFunctionError("default value must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "default", float(self.default))

    def at(self, points: Points) -> np.ndarray:
        idx, lo, hi, exact = points.levels()
        if lo >= 0 and hi < len(self.values) and exact.all():
            return self.values[idx]
        valid = exact & (idx >= 0) & (idx < len(self.values))
        return np.where(valid, self.values[np.clip(idx, 0, len(self.values) - 1)], self.default)

    def shift(self, c: float) -> "LevelTable":
        return LevelTable(self.values + c, self.default + c)

    def scale(self, s: float) -> "LevelTable":
        return LevelTable(self.values * s, self.default * s)


@dataclass(frozen=True)
class Curve(_Function):
    """Piecewise-linear function on strictly increasing knots with constant
    extrapolation beyond the knot range."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or len(k) == 0 or k.shape != v.shape:
            raise InvalidFunctionError("knots and values must be equal-length nonempty 1-d vectors")
        if len(k) > 1 and not (k[1:] > k[:-1]).all():
            raise InvalidFunctionError("knots must be strictly increasing")
        if not (np.isfinite(k).all() and np.isfinite(v).all()):
            raise InvalidFunctionError("knots and values must be finite")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def at(self, points: Points) -> np.ndarray:
        return points.interp(self.knots, self.values)

    def shift(self, c: float) -> "Curve":
        return Curve(self.knots, self.values + c)

    def scale(self, s: float) -> "Curve":
        return Curve(self.knots, self.values * s)


def _pieces(values: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a curve's slope and left-end value on each knot interval q of
    # ``locate``; both outer intervals are flat
    slope = np.zeros(len(values) + 1)
    slope[1:-1] = np.diff(values) / gaps
    return slope, np.concatenate([values[:1], values])


def _gather(values: np.ndarray, gaps: np.ndarray, q: np.ndarray, dx: np.ndarray) -> np.ndarray | None:
    """slope[q] * dx + base[q] at finite dx: np.interp's values bit for bit,
    or None for a slope that overflows or a value of -0.0 (np.interp returns
    it as is, where this adds a signed zero)."""
    slope, base = _pieces(values, gaps)
    if not np.isfinite(slope).all() or np.signbit(values[values == 0.0]).any():
        return None
    out = slope.take(q)
    out *= dx
    out += base.take(q)
    return out


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

    ``span`` is the fraction of observations per neighborhood, 0.15 for
    either numeric method unless given.
    """

    method: str = NEAR_NEIGHBOR
    span: float = 0.15

    def __post_init__(self):
        if self.method not in (CATEGORICAL_MEAN, NEAR_NEIGHBOR, LOCAL_LINEAR):
            raise ValueError(f"unknown smoother method {self.method!r}")
        if not 0.0 < self.span <= 1.0:
            raise ValueError("span must lie in (0, 1]")


def weight_floor(w: np.ndarray) -> float:
    """Rows with |w| below this (and rows with w = 0) weigh nothing in a
    fit: they keep their rank among the rows, with omega = rw = 0. A tiny
    basis weight would otherwise make the r/w smoothing target blow up, and
    a window holding only such weights rounds its weight to zero."""
    return 1e-6 * float(np.sqrt(np.mean(np.square(w))))


class SortedColumn(Points):
    """The part of numeric smoothing that depends only on x, for every row
    of a column. Its knot grid is the distinct x, quantile-thinned past 500
    knots, so every knot is a data value. Each row is located on the grid
    once (``locate``): its knot interval q (len(knots) at the last knot) and
    its offset dx from the interval's left knot, which the column's curves
    read like any ``Points`` location. The rows in stable x order give the
    distinct-x groups at the knots and their rank windows, which a fit onto
    the grid reads, and cut the ranks into segments: runs between
    consecutive window bounds and interval starts. A window is a run of
    whole segments, and on a segment every curve on the grid is linear in
    dx. ``seg`` holds each row's segment, in row order, and ``seg_q`` each
    segment's interval. Rows that a target weighs zero keep their place, so
    a fitter builds one column per variable for all its training rows and
    every target reads it. A fit's line-search sums run over the segments."""

    def __init__(self, x: np.ndarray, span: float):
        super().__init__(x)
        order = np.argsort(x, kind="stable")
        xs = x[order]
        n = len(xs)
        self.knots = thin_knots(np.unique(xs))
        self.gaps = np.diff(self.knots)
        self.q, self.dx = locate(self.knots, x)
        # dx is not finite on a range past the largest float
        self._locations = {self.knots.tobytes(): (self.gaps, self.q, self.dx) if np.isfinite(self.dx).all()
                           else None}
        # the rows of every knot's x group in xs, concatenated; ``offset``
        # says where each group starts among them
        start = np.searchsorted(xs, self.knots)
        size = np.searchsorted(xs, self.knots, side="right") - start
        self.offset = np.cumsum(size) - size
        rows = np.arange(int(size.sum())) + np.repeat(start - self.offset, size)
        # their symmetric rank windows, shrunk (not shifted) at the edges
        m = max(2, int(round(span * n)))
        lo, hi = np.maximum(rows - (m - 1) // 2, 0), np.minimum(rows + m // 2, n - 1)
        self.x_rows, self.knot_rows = xs[rows], order[rows]
        span_x = float(xs[-1] - xs[0])
        # a window fits a slope only where its x variance exceeds this
        self.min_varx = max(1e-12 * span_x * span_x, 1e-300)
        qs = self.q[order]
        cut = np.concatenate([[True], qs[1:] != qs[:-1]])
        cut[lo] = True
        cut[hi[hi < n - 1] + 1] = True
        bounds = np.flatnonzero(cut)
        self.wlo, self.whi = np.searchsorted(bounds, lo), np.searchsorted(bounds, hi + 1)
        self.seg_q = qs[bounds]
        self.origin = self.knots[self.seg_q - 1]
        self.seg = np.empty(n, dtype=np.intp)
        self.seg[order] = np.repeat(np.arange(len(bounds)), np.diff(np.append(bounds, n)))


class SmoothingTarget:
    """The part of smoothing that depends only on (r, w), in row order: the
    weight omega = w^2 and rw = r * w, both 0 on rows below the weight
    floor. Smoothing fits ts = r / w with weight omega, and every
    omega-weighted sum of ts is a sum of rw, so ts is never formed. A target
    may weigh every row zero; its fits then return None."""

    def __init__(self, r: np.ndarray, w: np.ndarray):
        keep = (np.abs(w) >= weight_floor(w)) & (w != 0.0)
        if not keep.all():
            w = np.where(keep, w, 0.0)
        self.omega = np.square(w)
        self.rw = r * w

    def level_means(self, points: Points) -> tuple[LevelTable, float, float] | None:
        """``fit`` on categorical ``points`` (level indices): f is the
        omega-weighted mean of ts per level, or the global mean for a level
        without weight."""
        idx, lo, hi, _ = points.levels()
        if lo < 0:
            raise ValueError("categorical values must be nonnegative level indices")
        size = hi + 1
        sw = np.bincount(idx, weights=self.omega, minlength=size)
        if not sw.any():
            return None
        swt = np.bincount(idx, weights=self.rw, minlength=size)
        gmean = float(swt.sum() / sw.sum())
        values = np.full(size, gmean)
        ok = sw > 0
        values[ok] = swt[ok] / sw[ok]
        f = LevelTable(values, gmean)
        fx = f.at(points)
        return f, float(self.rw @ fx), float(self.omega @ (fx * fx))

    def fit(self, col: Points, method: str) -> tuple[UnivariateFunction, float, float] | None:
        """The fit f of ts on a variable's column, with its line-search sums
        over every row, sum rw * f and sum omega * f^2: (f, num, den), or
        None when no row the fit reads has weight. ``Points`` of level
        indices get ``level_means``, a ``SortedColumn`` the rank-window fit
        by ``method`` at its knots.

        That fit and its sums come from five moments per segment, of omega,
        omega * dx, omega * dx^2, rw and rw * dx. A segment's moments about
        its interval's left knot a give its sums of omega * x, omega * x^2
        and rw * x, and their cumulative sums over segments give every
        window. A row whose window has no weight weighs nothing in its
        group, and a group without weight is interpolated over."""
        if not isinstance(col, SortedColumn):
            return self.level_means(col)
        om, rw, dx = self.omega, self.rw, col.dx
        omdx = om * dx
        a, n = col.origin, len(col.origin)
        m0, m1, m2, t0, t1 = (np.bincount(col.seg, v, n) for v in (om, omdx, omdx * dx, rw, rw * dx))
        c = np.empty((2 if method == NEAR_NEIGHBOR else 5, n + 1))
        c[:, 0] = 0.0
        c[0, 1:], c[1, 1:] = m0, t0
        if method != NEAR_NEIGHBOR:
            c[2, 1:] = a * m0 + m1
            c[3, 1:] = a * (c[2, 1:] + m1) + m2
            c[4, 1:] = a * t0 + t1
        # each row's sums over its window, from the per-segment sums after a
        # leading 0
        np.cumsum(c, axis=1, out=c)
        s0, st, *sums = np.take(c, col.whi, axis=1) - np.take(c, col.wlo, axis=1)
        has = s0 > 0.0
        if method == NEAR_NEIGHBOR:
            vals = st / np.where(has, s0, 1.0)
        else:
            sx, sxx, sxt = sums
            s0 = np.where(has, s0, 1.0)
            xbar = sx / s0
            tbar = st / s0
            varx = sxx / s0 - xbar**2
            covxt = sxt / s0 - xbar * tbar
            good = varx > col.min_varx
            slope = np.where(good, covxt / np.where(good, varx, 1.0), 0.0)
            vals = tbar + slope * (col.x_rows - xbar)
        om = np.where(has, om[col.knot_rows], 0.0)
        gw = np.add.reduceat(om, col.offset)
        ok = gw > 0.0
        if not ok.any():
            return None
        gmean = np.add.reduceat(om * vals, col.offset)[ok] / gw[ok]
        values = np.interp(col.knots, col.knots[ok], gmean)
        slope, base = _pieces(values, col.gaps)
        sl, v = slope[col.seg_q], base[col.seg_q]
        return (Curve(col.knots, values), float(v @ t0 + sl @ t1),
                float((v * v) @ m0 + (2.0 * v * sl) @ m1 + (sl * sl) @ m2))


def smooth(x: np.ndarray, r: np.ndarray, w: np.ndarray, spec: SmootherSpec) -> UnivariateFunction:
    """Estimate the weighted conditional expectation E_{w^2}[ r/w | x ].

    Rows whose basis weight falls below the floor weigh nothing but keep
    their rank. For numeric methods the result is a piecewise-linear curve
    on the distinct sorted x values of all rows, quantile-thinned past 500
    knots.

    The curve value at a knot interpolates the w^2-weighted means, per
    distinct x, of a rank-window fit at each row. Interpolation reads only
    the x groups equal to the knots; a group without weight (all its rows
    below the floor, or their windows without weight) is skipped, so its
    neighbours among those groups are interpolated over, and ValueError is
    raised when none has weight. So the windowed fit is computed only at
    the rows of those groups, from window sums over segments of rows
    (``SmoothingTarget.fit``).
    Those sums round differently from cumulative sums over all rows:
    against that full-row fit the curve values agree within 1e-12 * kappa *
    max|r/w| over the rows at or above the floor. kappa is 1 for
    near-neighbour averaging; for local linear fits it is the largest
    E[x^2] / Var[x] (weighted by w^2) of a window that fits a slope, or 1 if
    that is smaller. On integer x and r with w in {0, 1, 2, 4} every window
    sum is exact and the two agree bit for bit.

    This is ``SmoothingTarget(r, w)`` fitted on the ``SortedColumn`` of x,
    or on its ``Points`` for categorical means; a fitter that smooths
    many targets against the same columns builds those once each. The
    returned function is not centred; the fitter recentres its nodes itself.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (len(x) == len(r) == len(w)):
        raise ValueError("x, r, w must have equal lengths")
    target = SmoothingTarget(r, w)
    if not target.omega.any():
        raise ValueError("all rows excluded by the basis-weight floor")
    col = Points(x) if spec.method == CATEGORICAL_MEAN else SortedColumn(x, spec.span)
    res = target.fit(col, spec.method)
    if res is None:
        raise ValueError("no knot group has weight")
    return res[0]


def _bspline_basis(v: np.ndarray, breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cubic B-splines on the clamped knot vector (lo x 4, interior,
    hi x 4), where ``breaks`` is (lo, interior, hi), at sorted points v in
    [lo, hi]. Returns where each knot interval s begins and ends among v
    (``bounds[s]``, ``bounds[s + 1]``; hi falls in the last interval) and a
    (4, len(v)) array whose row a holds B_{s+a}, the four B-splines nonzero
    on the point's interval, from the Cox-de Boor recurrence."""
    bounds = np.concatenate([[0], np.searchsorted(v, breaks[1:-1]), [len(v)]])
    counts = np.diff(bounds)
    t = np.concatenate([np.repeat(breaks[0], 3), breaks, np.repeat(breaks[-1], 3)])
    nint = len(breaks) - 1
    # interval s is [t[s + 3], t[s + 4]); every denominator below spans it
    left = [None] + [v - np.repeat(t[4 - k : 4 - k + nint], counts) for k in (1, 2, 3)]
    right = [None] + [np.repeat(t[3 + k : 3 + k + nint], counts) - v for k in (1, 2, 3)]
    basis = [np.ones_like(v)]
    for k in (1, 2, 3):
        saved = 0.0
        nxt = []
        for r in range(k):
            temp = basis[r] / (right[r + 1] + left[k - r])
            nxt.append(saved + right[r + 1] * temp)
            saved = left[k - r] * temp
        nxt.append(saved)
        basis = nxt
    return bounds, np.array(basis)


def _bspline_times(bounds, basis, beta) -> np.ndarray:
    # the spline with B-spline coefficients beta at the points of ``basis``
    out = np.empty(basis.shape[1])
    for s in range(len(bounds) - 1):
        out[bounds[s] : bounds[s + 1]] = beta[s : s + 4] @ basis[:, bounds[s] : bounds[s + 1]]
    return out


def _two_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    # a * b as the unevaluated sum p + e of two float arrays, exactly
    # (Dekker's splitting)
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _bspline_rhs_exact(bounds, basis, r) -> np.ndarray:
    # B'r, each entry the correctly rounded sum of the exact products b * r
    terms = np.stack(_two_product(basis, r), axis=1)
    parts = [[] for _ in range(len(bounds) + 2)]
    for s in range(len(bounds) - 1):
        for a in range(4):
            parts[s + a] += terms[a, :, bounds[s] : bounds[s + 1]].ravel().tolist()
    return np.array([math.fsum(part) for part in parts])


def _bspline_gram(bounds, basis) -> np.ndarray:
    # B'B, one 4 x 4 block per knot interval (three more B-splines than
    # intervals)
    gram = np.zeros((len(bounds) + 2,) * 2)
    for s in range(len(bounds) - 1):
        b = basis[:, bounds[s] : bounds[s + 1]]
        gram[s : s + 4, s : s + 4] += b @ b.T
    return gram


def _bspline_rhs(bounds, basis, v) -> np.ndarray:
    # B'v, accumulated like the Gram matrix
    bv = np.zeros(len(bounds) + 2)
    for s in range(len(bounds) - 1):
        bv[s : s + 4] += basis[:, bounds[s] : bounds[s + 1]] @ v[bounds[s] : bounds[s + 1]]
    return bv


class SplineDesign:
    """Least-squares cubic regression splines of any t on x (``fit``), with
    interior knots at the distinct vigintiles of x strictly inside its range
    (fewer than 19 where ties make vigintiles coincide), returned as densely
    sampled curves on 2001 equispaced points of [min x, max x] and the
    interior knots. The spline space has ``dof`` = 4 + len(interior)
    dimensions; ``quantiles`` holds the 5th and 95th percentiles. All that
    depends on x alone is built once, for every fit.

    The fit is solved in the cubic B-spline basis on the clamped knot vector
    (min x four times, the interior knots, max x four times; Eilers & Marx
    1996). It spans the same space as the power basis 1, u, u^2,
    u^3, (u - u_k)_+^3, whose design condition numbers reach 1e9 on
    effect-search products, but is far better conditioned. Each row has four nonzero basis
    values, so the Gram matrix is banded and is accumulated knot interval by
    knot interval from rows sorted by x. With its diagonal scaled to one it
    is solved by Cholesky, and one step of iterative refinement on the
    residual recovers the accuracy that forming the Gram matrix loses. Where
    a B-spline has almost no data under it (clustered x, a Gram diagonal
    entry of 1e-16), its coefficient dwarfs the fit, and the rounding of
    B'r, whose terms nearly cancel at the solution, is amplified into an
    error of 1e-11 relative to the fitted values. When the refinement step
    exceeds ``REFINE_TOL`` times the largest coefficient, one more step
    takes B'r summed exactly from exact products and removes that error.

    Tied x can leave too few distinct sites for the basis, and the fit is
    then not identified between the sites; tightly clumped x can leave the
    Gram matrix too ill-conditioned to factor. When Cholesky fails or a
    pivot of the scaled Gram matrix has square below 1e-10 (``chol`` is
    then None), the design takes one SVD of its dense form, columns scaled
    to unit norm, and ``rank`` counts the singular values above lstsq's
    default cut (``dof`` at full rank). Every fit then warns, naming columns
    dropped or full rank but ill-conditioned, and takes the minimum-norm
    least-squares solution from that SVD. ``fit`` also returns the residual
    sum of squares of the spline's own values at the rows, which the
    partial-association pretest reads.
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        lo, hi = float(x.min()), float(x.max())
        if not hi > lo:
            raise ValueError("x must not be constant")
        self.order = np.argsort(x)
        xs = x[self.order]  # np.quantile finds order statistics faster in sorted input
        vigintiles = np.quantile(xs, np.arange(1, 20) / 20.0)
        self.quantiles = vigintiles[[0, -1]]
        interior = np.unique(vigintiles)
        self.interior = interior[(interior > lo) & (interior < hi)]
        self.dof = self.rank = 4 + len(self.interior)
        if len(x) < self.dof:
            raise ValueError("need at least as many rows as spline basis functions")
        self.grid = np.unique(np.concatenate([np.linspace(lo, hi, 2001), self.interior]))
        self.breaks = np.concatenate([[lo], self.interior, [hi]])
        self.bounds, self.basis = _bspline_basis(xs, self.breaks)
        gram = _bspline_gram(self.bounds, self.basis)
        # a basis function without data keeps a zero row, so Cholesky fails
        diag = np.diag(gram)
        self.inv = np.zeros(self.dof)
        self.inv[diag > 0] = 1.0 / np.sqrt(diag[diag > 0])
        try:
            chol = np.linalg.cholesky(gram * np.outer(self.inv, self.inv))
            self.chol = chol if np.min(np.diag(chol)) ** 2 >= 1e-10 else None
        except np.linalg.LinAlgError:
            self.chol = None
        if self.chol is None:
            bounds, dense = self.bounds, np.zeros((len(xs), self.dof))
            for s in range(len(bounds) - 1):
                dense[bounds[s] : bounds[s + 1], s : s + 4] = self.basis[:, bounds[s] : bounds[s + 1]].T
            u, sv, vt = np.linalg.svd(dense * self.inv, full_matrices=False)
            self.rank = int(np.sum(sv > np.finfo(float).eps * max(dense.shape) * sv[0]))
            self._svd = u[:, : self.rank], sv[: self.rank], vt[: self.rank]
        self.grid_basis = _bspline_basis(self.grid, self.breaks)

    def _solve(self, v: np.ndarray) -> np.ndarray:
        return self.inv * np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, self.inv * v))

    def fit(self, t: np.ndarray) -> tuple[Curve, float]:
        """The spline of t on this design's x, and its residual sum of
        squares at the rows."""
        t = np.asarray(t, dtype=float)
        if len(t) != len(self.order):
            raise ValueError("x and t must have equal lengths")
        bounds, basis, ts = self.bounds, self.basis, t[self.order]
        if self.chol is None:
            rank, dof = self.rank, self.dof
            warnings.warn(f"ill-conditioned spline design at full rank {dof}" if rank == dof else
                          f"rank-deficient spline design: rank {rank} of {dof}; collinear columns dropped",
                          stacklevel=2)
            u, sv, vt = self._svd
            beta = self.inv * (vt.T @ ((u.T @ ts) / sv))
        else:
            beta = self._solve(_bspline_rhs(bounds, basis, ts))
            step = self._solve(_bspline_rhs(bounds, basis, ts - _bspline_times(bounds, basis, beta)))
            beta += step
            if np.max(np.abs(step)) > REFINE_TOL * np.max(np.abs(beta)):
                beta += self._solve(_bspline_rhs_exact(bounds, basis, ts - _bspline_times(bounds, basis, beta)))
        resid = ts - _bspline_times(bounds, basis, beta)
        return Curve(self.grid, _bspline_times(*self.grid_basis, beta)), float(resid @ resid)


def spline_fit(x: np.ndarray, t: np.ndarray) -> Curve:
    """The least-squares cubic regression spline of t on x."""
    return SplineDesign(x).fit(t)[0]
