"""Smoother and univariate-function contracts."""

import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import functree as ft
from functree.smoothers import (
    SORTED_INTERP_KNOTS,
    SORTED_INTERP_POINTS,
    Curve,
    LevelTable,
    SmootherSpec,
    Points,
    SmoothingTarget,
    SortedColumn,
    combine,
    smooth,
    spline_fit,
    _gather,
    locate,
    spline_knots,
    thin_knots,
    weight_floor,
)

from conftest import reference_smooth


def spec(method, span=0.15):
    return SmootherSpec(method, span=span)


# ---------------------------------------------------------------------------
# Evaluable functions
# ---------------------------------------------------------------------------

def test_curve_interpolates_and_extrapolates_constant():
    c = Curve(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 1.0]))
    assert c(0.5) == 1.0
    assert c(-100.0) == 0.0
    assert c(100.0) == 1.0
    np.testing.assert_allclose(c(np.array([0.0, 1.5, 3.0])), [0.0, 1.5, 1.0])


def test_curve_single_knot_is_constant():
    c = Curve(np.array([3.0]), np.array([7.5]))
    assert c(-5.0) == 7.5 and c(99.0) == 7.5


def test_curve_rejects_unsorted_knots():
    with pytest.raises(ValueError, match="increasing"):
        Curve(np.array([1.0, 1.0]), np.array([0.0, 1.0]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sorted_column_interp_equals_interp(data):
    start = data.draw(st.floats(-100.0, 100.0))
    n_gaps = data.draw(st.integers(0, 599))  # one knot to 600, on both sides of Curve's cutoff
    gaps = data.draw(st.lists(st.floats(1e-6, 10.0), min_size=n_gaps, max_size=n_gaps))
    knots = np.unique(start + np.cumsum([0.0] + gaps))
    scale = 10.0 ** data.draw(st.floats(-3.0, 3.0))
    values = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(knots),
                                                 max_size=len(knots))))
    x = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2, knots[:-1] + 0.3 * np.diff(knots),
                        [knots[-1], knots[0] - 1.0, knots[-1] + 1.0, -1e9, 1e9]])
    # the column's own grid (thinned past 500 knots) and an equal copy of it
    # read the column's own location, and the drawn knots and a second knot
    # vector one of their own (np.interp under 8 knots), each in either order
    col = SortedColumn(x, 0.2)
    own = scale * np.sin(np.arange(len(col.knots)))
    knots2 = np.unique(np.concatenate([knots[::2] - 0.5, [knots[-1] + 2.0]]))
    values2 = np.cos(knots2)
    for k, v in ((col.knots, own), (col.knots.copy(), -own), (knots, values),
                 (col.knots, 2.0 * own), (knots2, values2)):
        assert np.array_equal(col.interp(k, v), np.interp(x, k, v))
    assert np.array_equal(Curve(col.knots, own).at(col), np.interp(x, col.knots, own))
    # Curve locates long inputs on its knots and reads the values off the
    # location; a shuffled draw with ties, on either side of the cutoff, must
    # match
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 3 * SORTED_INTERP_POINTS))
    for points in (x, rng.choice(x, size=n)):
        assert np.array_equal(Curve(knots, values)(points), np.interp(points, knots, values))


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_located_points_equal_interp_bit_for_bit(data):
    # one knot, up to 600 uniform knots, or Cauchy quantiles (clustered in
    # the middle, sparse in the tails) scaled by 10^-6 to 10^6
    kind = data.draw(st.sampled_from(["one", "uniform", "cauchy"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "one":
        knots = np.array([data.draw(st.floats(-100.0, 100.0))])
    elif kind == "uniform":
        knots = np.unique(rng.uniform(-5.0, 5.0, data.draw(st.integers(2, 600))))
    else:
        levels = np.linspace(0.0, 1.0, data.draw(st.sampled_from([21, 200, 600])))
        knots = np.unique(np.quantile(rng.standard_cauchy(data.draw(st.integers(50, 5000))), levels))
        knots = knots * 10.0 ** data.draw(st.floats(-6.0, 6.0))
    values = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(knots),
                                         max_size=len(knots))))
    # the knots themselves, draws inside and beyond both ends, and +-inf,
    # enough of them for the location to be used
    lo, hi = knots[0], knots[-1]
    width = max(hi - lo, 1.0)
    n = max(SORTED_INTERP_POINTS, 3 * len(knots))
    x = np.concatenate([knots, rng.uniform(lo, hi, n), rng.uniform(lo - width, lo, 50),
                        rng.uniform(hi, hi + width, 50), [-np.inf, np.inf, lo - 1e300, hi + 1e300]])
    rng.shuffle(x)
    q, dx = locate(knots, x)
    assert np.array_equal(q, np.searchsorted(knots, x, side="right"))
    finite = np.isfinite(dx)
    assert np.array_equal(dx[finite], (x - knots[np.maximum(q - 1, 0)])[finite])
    points = Points(x)
    for v in (values, -values, np.zeros_like(values) * -1.0):
        assert _same_bits(points.interp(knots, v), np.interp(x, knots, v))
        assert _same_bits(Curve(knots, v)(x), np.interp(x, knots, v))
        # the gather itself, at every knot count, where the offsets are finite
        out = _gather(v, np.diff(knots), q[finite], dx[finite])
        assert out is None or _same_bits(out, np.interp(x[finite], knots, v))
    # a curve whose slopes overflow goes to np.interp
    tiny = 1e-300 * np.arange(1.0, SORTED_INTERP_KNOTS + 2)
    wild = np.where(np.arange(len(tiny)) % 2, 1e308, -1e308)
    xt = np.concatenate([x, np.repeat((tiny[:-1] + tiny[1:]) / 2, 300)])
    assert _same_bits(Points(xt).interp(tiny, wild), np.interp(xt, tiny, wild))


def test_level_table_default_for_unseen():
    t = LevelTable(np.array([1.0, 2.0]), default=9.0)
    assert t(0.0) == 1.0 and t(1.0) == 2.0
    assert t(2.0) == 9.0 and t(-1.0) == 9.0


def test_level_table_reads_the_points_level_index():
    table = LevelTable(np.array([1.0, -2.0, 3.5]), default=9.0)
    for x in ([0.0, 2.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.5, 2.0], [-1.0, 1.0], [-0.0, 2.0], []):
        points = Points(np.array(x))
        assert _same_bits(table.at(points), table(np.array(x)))
        # found once, and read by every table and by the categorical means
        assert points.levels() is points.levels()
    r = np.array([1.0, 3.0, 5.0, 7.0])
    assert SmoothingTarget(r, np.ones(4)).fit(Points(np.array([0.0, 0.0, 1.0, 2.0])),
                                              "categorical_mean")[0].values.tolist() == [2.0, 5.0, 7.0]


def test_combine_curves_exact_on_knot_union():
    a = Curve(np.array([0.0, 2.0]), np.array([0.0, 2.0]))
    b = Curve(np.array([1.0, 3.0]), np.array([1.0, -1.0]))
    c = combine(a, b, 2.0, 3.0)
    xs = np.linspace(-1.0, 4.0, 101)
    np.testing.assert_allclose(c(xs), 2.0 * a(xs) + 3.0 * b(xs), atol=1e-14)


def test_combine_tables_pads_with_default():
    a = LevelTable(np.array([1.0, 2.0, 3.0]), default=0.0)
    b = LevelTable(np.array([10.0]), default=5.0)
    c = combine(a, b, 1.0, 1.0)
    assert c(0.0) == 11.0
    assert c(1.0) == 7.0  # 2 + b's default
    assert c(5.0) == 5.0  # both defaults


def test_thin_knots_keeps_endpoints():
    k = np.arange(1000.0)
    t = thin_knots(k, cap=100)
    assert len(t) <= 100 and t[0] == 0.0 and t[-1] == 999.0


# ---------------------------------------------------------------------------
# smooth(): categorical
# ---------------------------------------------------------------------------

def test_categorical_unweighted_means():
    x = np.array([0.0, 0.0, 1.0])
    r = np.array([1.0, 3.0, 5.0])
    f = smooth(x, r, np.ones(3), spec("categorical_mean"))
    np.testing.assert_allclose(f.values, [2.0, 5.0])


def test_categorical_weighted_mean_hand_value():
    # (1^2 * (2/1) + 2^2 * (6/2)) / (1 + 4) = 14/5 = 2.8
    x = np.array([0.0, 0.0])
    r = np.array([2.0, 6.0])
    w = np.array([1.0, 2.0])
    f = smooth(x, r, w, spec("categorical_mean"))
    assert f.values[0] == pytest.approx(2.8)


def test_weight_one_reduces_to_plain_level_means():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, 60).astype(float)
    r = rng.normal(size=60)
    f = smooth(x, r, np.ones(60), spec("categorical_mean"))
    for lev in range(4):
        assert f.values[lev] == pytest.approx(r[x == lev].mean())


# ---------------------------------------------------------------------------
# smooth(): numeric
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["near_neighbor", "local_linear"])
def test_constant_ratio_gives_constant_then_zero(method):
    rng = np.random.default_rng(1)
    x = rng.normal(size=80)
    w = rng.uniform(0.5, 2.0, size=80)
    r = 3.25 * w
    raw = smooth(x, r, w, spec(method, span=0.1 if method == "near_neighbor" else 0.2))
    np.testing.assert_allclose(raw.values, 3.25, atol=1e-12)


def test_local_linear_reproduces_exact_line():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2.0, 3.0, 200)
    w = np.ones(200)
    r = 2.0 * x + 1.0
    for span in (0.1, 0.3, 1.0):
        f = smooth(x, r, w, spec("local_linear", span=span))
        np.testing.assert_allclose(f.values, 2.0 * f.knots + 1.0, atol=1e-10)


def test_near_neighbor_smooths_means():
    x = np.linspace(0.0, 1.0, 101)
    r = np.sin(2.0 * np.pi * x)
    f = smooth(x, r, np.ones(101), spec("near_neighbor", span=0.05))
    interior = (x > 0.05) & (x < 0.95)
    assert np.max(np.abs(f(x)[interior] - r[interior])) < 0.05
    # edge windows shrink on one side, so edge bias is larger but bounded
    assert np.max(np.abs(f(x) - r)) < 0.12


def test_weight_floor_excludes_rows():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    r = np.array([1.0, 1.0, 500.0, 1.0])
    w = np.array([1.0, 1.0, 1e-12, 1.0])  # third row would blow up r/w
    f = smooth(x, r, w, spec("near_neighbor", span=1.0))
    np.testing.assert_allclose(f.values, 1.0, atol=1e-9)


def test_sub_floor_row_alone_in_its_window_is_interpolated_over():
    # with n = 2 the second row's window holds it alone; below the floor it
    # weighs nothing, so its window has no weight and its group is skipped
    f = smooth(np.array([0.0, 1.0]), np.array([2.0, 1.0]), np.array([1.0, 1e-9]),
               spec("local_linear", span=0.2))
    np.testing.assert_array_equal(f.values, [2.0, 2.0])


def test_no_knot_group_with_weight_errors():
    # 600 distinct x thin to 500 knots; the one weighted row is not among
    # the groups the knots read
    x = np.arange(600.0)
    w = np.zeros(600)
    w[3] = 1.0
    assert 3.0 not in thin_knots(x)
    with pytest.raises(ValueError, match="no knot group has weight"):
        smooth(x, np.ones(600), w, spec("near_neighbor", span=0.1))


def test_all_rows_excluded_errors():
    with pytest.raises(ValueError, match="excluded"):
        smooth(np.ones(3), np.ones(3), np.zeros(3), spec("near_neighbor", span=0.1))


@pytest.mark.parametrize("kind", ["numeric", "categorical"])
def test_fit_on_a_target_without_weight_returns_none(kind):
    # a target that weighs every row zero is built without error, and each
    # column kind's fit returns None: there is nothing to fit
    rng = np.random.default_rng(4)
    target = SmoothingTarget(rng.normal(size=50), np.zeros(50))
    assert not target.omega.any()
    if kind == "numeric":
        col = SortedColumn(rng.normal(size=50), 0.15)
        for method in ("near_neighbor", "local_linear"):
            assert target.fit(col, method) is None
    else:
        assert target.fit(Points(rng.integers(0, 4, 50).astype(float)), "categorical_mean") is None


def test_level_means_return_their_line_search_sums():
    # the categorical fit returns (f, num, den) as the windowed fit does:
    # sum rw * f and sum omega * f^2 over every row
    rng = np.random.default_rng(5)
    x, r, w = rng.integers(0, 5, 80).astype(float), rng.normal(size=80), rng.uniform(0.5, 2.0, 80)
    f, num, den = SmoothingTarget(r, w).fit(Points(x), "categorical_mean")
    np.testing.assert_array_equal(f.values, smooth(x, r, w, spec("categorical_mean")).values)
    fx = f(x)
    assert num == pytest.approx(np.sum(r * w * fx), rel=1e-12)
    assert den == pytest.approx(np.sum(w * w * fx * fx), rel=1e-12)


def test_output_finite_far_outside_range():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    f = smooth(x, rng.normal(size=50), np.ones(50), spec("near_neighbor", span=0.1))
    assert np.isfinite(f(np.array([-1e9, 1e9]))).all()


def test_smooth_is_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=70)
    r = rng.normal(size=70)
    w = rng.uniform(0.2, 1.0, 70)
    a = smooth(x, r, w, spec("local_linear", span=0.2))
    b = smooth(x, r, w, spec("local_linear", span=0.2))
    np.testing.assert_array_equal(a.knots, b.knots)
    np.testing.assert_array_equal(a.values, b.values)


def test_knot_cap_by_quantile_thinning():
    rng = np.random.default_rng(5)
    x = rng.normal(size=2000)
    f = smooth(x, rng.normal(size=2000), np.ones(2000), spec("near_neighbor", span=0.1))
    assert len(f.knots) <= 500


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_near_neighbor_rank_equivariance(seed):
    # ordinates depend only on x-ranks: any strictly monotone transform of x
    # leaves the fitted values unchanged
    rng = np.random.default_rng(seed)
    x = rng.normal(size=60)
    x += 0.001 * np.arange(60)  # ensure distinctness
    r = rng.normal(size=60)
    w = rng.uniform(0.5, 1.5, size=60)
    base = smooth(x, r, w, spec("near_neighbor", span=0.2))
    trans = smooth(np.exp(x), r, w, spec("near_neighbor", span=0.2))
    np.testing.assert_allclose(np.sort(base.values), np.sort(trans.values), atol=1e-10)


# ---------------------------------------------------------------------------
# smooth(): the knot-row numeric path against the full-row reference
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 1200),
    xkind=st.sampled_from(["distinct", "tied", "rounded"]),
    weights=st.sampled_from(["ones", "positive", "zeros", "sub_floor"]),
    method=st.sampled_from(["near_neighbor", "local_linear"]),
    span=st.one_of(st.sampled_from([0.1, 0.15, 0.2]), st.floats(0.01, 1.0)),
    via=st.sampled_from(["smooth", "column"]),
)
def test_smooth_equals_full_row_reference(seed, n, xkind, weights, method, span, via):
    # "smooth" calls smooth() itself; "column" smooths the way the fitter
    # does, on a column of all rows built once for any target. Draws with
    # more than 500 distinct x are fitted on a thinned grid
    rng = np.random.default_rng(seed)
    if xkind == "distinct":
        x = rng.normal(size=n)
    elif xkind == "tied":
        x = rng.integers(0, int(rng.integers(1, 30)), n).astype(float)
    else:
        x = np.round(rng.normal(size=n), 1)
    r = rng.normal(size=n)
    w = np.ones(n) if weights == "ones" else rng.uniform(0.1, 2.0, n)
    if weights == "zeros":
        w[rng.random(n) < 0.3] = 0.0
    elif weights == "sub_floor":
        w[rng.random(n) < 0.1] = 1e-9
    if not (w != 0.0).any():
        w[0] = 1.0
    sp = spec(method, span=span)
    if via == "smooth":
        def call():
            return smooth(x, r, w, sp)
    else:
        col = SortedColumn(x, sp.span)

        def call():
            res = SmoothingTarget(r, w).fit(col, method)
            if res is None:
                raise ValueError("no knot group has weight")
            return res[0]
    try:
        want, kappa = reference_smooth(x, r, w, sp)
    except ValueError:
        with pytest.raises(ValueError, match="no knot group has weight"):
            call()
        return
    got = call()
    assert np.array_equal(got.knots, want.knots)
    # the tolerance smooth() states against the full-row fit
    included = (w != 0.0) & (np.abs(w) >= weight_floor(w))
    bound = 1e-12 * kappa * np.max(np.abs(r[included] / w[included]))
    assert np.max(np.abs(got.values - want.values)) <= bound


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 600),
    levels=st.integers(1, 40),
    method=st.sampled_from(["near_neighbor", "local_linear"]),
    span=st.one_of(st.sampled_from([0.1, 0.15, 0.2]), st.floats(0.01, 1.0)),
)
def test_smooth_is_exact_on_integer_data(seed, n, levels, method, span):
    # on integer x and r with w in {0, 1, 2, 4}, r / w is exact and every
    # term a window sum adds (omega, omega * x, omega * x^2, r * w and
    # r * w * x, however it is formed) is a small integer, so the segment
    # sums and the full-row cumulative sums are both exact
    rng = np.random.default_rng(seed)
    x = rng.integers(-levels, levels + 1, n).astype(float)
    r = rng.integers(-50, 51, n).astype(float)
    w = rng.choice([0.0, 1.0, 2.0, 4.0], n)
    if not (w != 0.0).any():
        w[0] = 1.0
    sp = spec(method, span=span)
    got, (want, _) = smooth(x, r, w, sp), reference_smooth(x, r, w, sp)
    assert np.array_equal(got.knots, want.knots)
    assert np.array_equal(got.values, want.values)


def test_fit_with_reference_smoother_gives_same_model(monkeypatch):
    data = ft.gen_friedman(600, seed=5)
    config = ft.FitConfig(max_nodes=6, patience=6)
    fast = ft.fit(data, config)
    callers = []

    # the fitter smooths each candidate on per-variable columns and
    # per-target pieces, and line-searches from segment moments; here every
    # smoothing call (each candidate's and each backfit update's) is
    # smoothed from the raw (r, w) that each target records, and its
    # line-search sums are evaluated at every row
    class RecordingTarget(SmoothingTarget):
        def __init__(self, r, w):
            super().__init__(r, w)
            self.r, self.w = r, w

        def fit(self, col, method):
            callers.append(sys._getframe(1).f_code.co_name)
            x = col.x
            if isinstance(col, SortedColumn):
                f = reference_smooth(x, self.r, self.w, config.numeric_smoother, knots=col.knots)[0]
            else:
                f = reference_smooth(x, self.r, self.w, spec("categorical_mean"))[0]
            fx = f(x)
            return f, float(np.sum(self.r * self.w * fx)), float(np.sum(self.w**2 * fx * fx))

    monkeypatch.setattr("functree.tree.SmoothingTarget", RecordingTarget)
    slow = ft.fit(data, config)
    # the stated tolerance: the same (parent, variable) sequence, and
    # predictions within 1e-9 * std(y)
    assert [(h["parent"], h["var"]) for h in slow.fit_history] == \
        [(h["parent"], h["var"]) for h in fast.fit_history]
    gap = np.max(np.abs(slow.predict(data.X) - fast.predict(data.X)))
    assert gap <= 1e-9 * np.std(data.y)
    # one smoothing call per scored candidate
    assert callers.count("score_candidate") == sum(h["candidates"] for h in slow.fit_history)
    assert callers.count("backfit_pass") > 0


# ---------------------------------------------------------------------------
# spline_fit
# ---------------------------------------------------------------------------

def test_spline_constant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=100)
    f = spline_fit(x, np.full(100, 4.5))
    np.testing.assert_allclose(f(x), 4.5, atol=1e-8)


def test_spline_linear_exact():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 200)
    f = spline_fit(x, x)
    np.testing.assert_allclose(f(x), x, atol=1e-8)


def test_spline_matches_normal_equations_oracle():
    # independent oracle: same truncated-power design solved by normal
    # equations, evaluated densely
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, 1000)
    t = np.sin(np.pi * x)
    f = spline_fit(x, t)

    lo, hi = x.min(), x.max()
    interior = np.unique(np.quantile(x, np.arange(1, 20) / 20.0))
    interior = interior[(interior > lo) & (interior < hi)]
    scale = hi - lo

    def design(v):
        u = (v - lo) / scale
        cols = [np.ones_like(u), u, u**2, u**3]
        cols += [np.clip(u - (k - lo) / scale, 0.0, None) ** 3 for k in interior]
        return np.column_stack(cols)

    A = design(x)
    beta = np.linalg.solve(A.T @ A, A.T @ t)
    dense = np.linspace(lo, hi, 1500)
    assert np.max(np.abs(f(dense) - design(dense) @ beta)) < 0.01


def _two_product(a, b):
    """a * b as the unevaluated sum p + e of two float arrays, exactly
    (Dekker's splitting; no overflow or underflow at these magnitudes)."""
    p = a * b
    c = 134217729.0 * a
    ah, al = c - (c - a), a - (c - (c - a))
    c = 134217729.0 * b
    bh, bl = c - (c - b), b - (c - (c - b))
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dot(a, b):
    """The dot product of two float vectors to 106 bits, as a Decimal."""
    terms = np.concatenate(_two_product(a, b)).tolist()
    hi = math.fsum(terms)
    return Decimal(hi) + Decimal(math.fsum(terms + [-hi]))


def _accurate_least_squares(D, t, E):
    """E @ beta for the least-squares solution beta of D @ beta ~ t, from
    normal equations summed to 106 bits and solved in 60-digit decimal
    arithmetic, so that only the rounding of D and E is left in it."""
    p = D.shape[1]
    with localcontext() as ctx:
        ctx.prec = 60
        A = [[Decimal(0)] * p + [_dot(D[:, i], t)] for i in range(p)]
        for i in range(p):
            for j in range(i, p):
                A[i][j] = A[j][i] = _dot(D[:, i], D[:, j])
        # Gaussian elimination: the Gram matrix of a full-rank D is positive
        # definite, so no pivot is zero
        for k in range(p):
            for i in range(k + 1, p):
                m = A[i][k] / A[k][k]
                for j in range(k, p + 1):
                    A[i][j] -= m * A[k][j]
        beta = [Decimal(0)] * p
        for k in reversed(range(p)):
            beta[k] = (A[k][p] - sum(A[k][j] * beta[j] for j in range(k + 1, p))) / A[k][k]
        hi = np.array([float(b) for b in beta])
        lo = np.array([float(b - Decimal(h)) for b, h in zip(beta, hi)])
    rows = np.hstack([*_two_product(E, hi), E * lo]).tolist()
    return np.array([math.fsum(row) for row in rows])


def _truncated_power_reference(x, t, accurate=False):
    """The least-squares spline in the truncated-power basis solved by SVD,
    as the rank-deficient fallback of spline_fit must compute it. Returns
    the grid, the curve values and the condition number of the design.
    ``accurate`` solves a full-rank design with _accurate_least_squares
    instead: SVD in float64 is off the exact fit by about eps times the
    condition number, 1.65x that on one lognormal draw, where the accurate
    solve is 4.8e-9 relative off the exact B-spline fit. The condition number
    returned is the smaller of the unscaled design's and that of its columns
    scaled to unit norm (the lower one on one lognormal draw, 1.4x higher on
    clumped ones), so a bound set by it is never looser than either."""
    lo, hi = x.min(), x.max()
    interior = np.unique(np.quantile(x, np.arange(1, 20) / 20.0))
    interior = interior[(interior > lo) & (interior < hi)]
    scale = hi - lo

    def design(v):
        u = (v - lo) / scale
        cols = [np.ones_like(u), u, u**2, u**3]
        cols += [np.clip(u - (k - lo) / scale, 0.0, None) ** 3 for k in interior]
        return np.column_stack(cols)

    D = design(x)
    grid = np.unique(np.concatenate([np.linspace(lo, hi, 2001), interior]))
    cond = min(np.linalg.cond(D), np.linalg.cond(D / np.linalg.norm(D, axis=0)))
    if accurate:
        return grid, _accurate_least_squares(D, t, design(grid)), cond
    beta = np.linalg.lstsq(D, t, rcond=None)[0]
    return grid, design(grid) @ beta, cond


def _bspline_design(v, lo, hi, interior):
    """Dense cubic B-spline design on the clamped knots (lo x 4, interior,
    hi x 4), from the textbook Cox-de Boor definition over the whole knot
    vector (0/0 read as 0; hi belongs to the last nonempty interval)."""
    t = np.concatenate([[lo] * 4, interior, [hi] * 4])
    basis = np.array([(t[i] <= v) & (v < t[i + 1]) for i in range(len(t) - 1)], dtype=float)
    basis[len(t) - 5, v == hi] = 1.0
    for k in (1, 2, 3):
        nxt = np.zeros((len(t) - 1 - k, len(v)))
        for i in range(len(t) - 1 - k):
            if t[i + k] > t[i]:
                nxt[i] += (v - t[i]) / (t[i + k] - t[i]) * basis[i]
            if t[i + k + 1] > t[i + 1]:
                nxt[i] += (t[i + k + 1] - v) / (t[i + k + 1] - t[i + 1]) * basis[i + 1]
        basis = nxt
    return basis.T


def _draw_x(kind, n, rng):
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "lognormal":
        return rng.lognormal(0.0, 1.5, n)
    if kind == "normal_product":
        return rng.normal(size=n) * rng.normal(size=n)
    # clumped: 2-7 tight clusters, spreads from 1e-6 to 1 of the centre scale
    centres = 3.0 * rng.normal(size=int(rng.integers(2, 8)))
    return rng.choice(centres, n) + 10.0 ** rng.uniform(-6.0, 0.0) * rng.normal(size=n)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["uniform", "normal", "lognormal", "normal_product", "clumped"]),
    n=st.integers(30, 3000),
    seed=st.integers(0, 2**32 - 1),
)
# the float64 truncated-power reference was 4.5e-7 relative off this fit
# (condition number 1.2e9), against a bound of 2.8e-7, and 1.08e-7 off the
# next (condition number 4.6e8, 3.5e8 scaled), against a bound of 1e-7
@example(kind="lognormal", n=30, seed=110146)
@example(kind="clumped", n=94, seed=94)
@example(kind="clumped", n=30, seed=22728226)
# a float64 refinement left this fit 8.6e-7 off the exact one, against a
# bound of 2.5e-7: a B-spline over a gap between clusters carries a
# coefficient of 1.7e5 (Gram diagonal 1e-16)
@example(kind="clumped", n=945, seed=1474)
def test_spline_fit_matches_least_squares_oracles(kind, n, seed):
    rng = np.random.default_rng(seed)
    x = _draw_x(kind, n, rng)
    t = np.sin(3.0 * (x - x.mean()) / x.std()) + rng.normal(size=n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = spline_fit(x, t)
    # the rank-deficient fallback is the float64 truncated-power fit, bit
    # for bit; a full-rank fit is unique, so its reference is solved accurately
    grid, tp_values, tp_cond = _truncated_power_reference(x, t, accurate=not caught)
    assert np.array_equal(f.knots, grid)
    if caught:
        assert np.array_equal(f.values, tp_values)
        return
    # the same fit on the dense B-spline design, solved accurately: a float64
    # SVD of the design with columns scaled to unit norm was 6.9e-12 relative
    # off the exact fit of one clumped draw (condition number 24), where
    # spline_fit was 9.5e-13 off
    lo, hi, interior = x.min(), x.max(), spline_knots(x)
    design = _bspline_design(x, lo, hi, interior)
    kappa = np.linalg.cond(design / np.linalg.norm(design, axis=0))
    scale = np.max(np.abs(f.values))
    exact = _accurate_least_squares(design, t, _bspline_design(grid, lo, hi, interior))
    gap = np.max(np.abs(f.values - exact))
    # each tolerance grows into its reference's own error on ill-conditioned
    # designs, the least-squares perturbation bounds: eps * kappa^2 for a
    # noisy fit's coefficients (SVD and Householder QR differed by 4e-12 at
    # kappa 430), eps * kappa for fitted values (the truncated-power fit
    # was 1.45e-7 off the B-spline SVD and QR fits at kappa 5.1e9)
    eps = np.finfo(float).eps
    assert gap <= max(1e-12, eps * kappa**2) * scale
    if tp_cond < 1e10:
        assert np.max(np.abs(f.values - tp_values)) <= max(1e-7, eps * tp_cond) * scale


@pytest.mark.parametrize("levels, seed", [(5, 9), (5, 13), (20, 5), (20, 8)])
def test_rank_deficient_spline_falls_back_to_truncated_power(monkeypatch, levels, seed):
    # tied x: more basis functions than distinct sites. On these seeds
    # Cholesky of the singular Gram matrix returns a factor with a tiny
    # pivot instead of raising, so only the pivot check catches it.
    rng = np.random.default_rng(seed)
    x = rng.choice(rng.normal(size=levels), 500)
    t = rng.normal(size=500)
    assert len(np.unique(x)) < 4 + len(spline_knots(x))
    factors = []
    cholesky = np.linalg.cholesky

    def recording_cholesky(a):
        factors.append(cholesky(a))
        return factors[-1]

    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    with pytest.warns(UserWarning, match="rank-deficient spline design"):
        f = spline_fit(x, t)
    assert len(factors) == 1
    grid, values, _ = _truncated_power_reference(x, t)
    assert np.array_equal(f.knots, grid)
    assert np.array_equal(f.values, values)


def test_spline_knots_equal_vigintiles_of_unsorted_x():
    rng = np.random.default_rng(10)
    q = np.arange(1, 20) / 20.0
    for x in (rng.normal(size=997), rng.integers(0, 7, 300).astype(float), rng.lognormal(size=50)):
        interior = np.unique(np.quantile(x, q))
        assert np.array_equal(spline_knots(x), interior[(interior > x.min()) & (interior < x.max())])


def test_spline_constant_x_errors():
    with pytest.raises(ValueError, match="constant"):
        spline_fit(np.ones(50), np.arange(50.0))
