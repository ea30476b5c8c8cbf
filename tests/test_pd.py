"""Partial dependence and partial association contracts."""

import copy
import gc
import warnings
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import functree as ft
from functree import pdengine
from functree.data import Dataset, Variable
from functree.interactions import conditional_interaction, pure_interaction, pure_interaction_brute
from functree.pdengine import (
    EffectEngine,
    _mean,
    _product,
    coefficient_curve,
    default_axis,
    pa,
    pd_brute,
    pd_fast,
    resolve_points,
    write_effect_csv,
)
from functree.smoothers import SplineDesign, spline_fit
from functree.tree import FitConfig

from conftest import random_dataset, random_tree


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def test_decompose_full_subset_has_no_complement():
    rng = np.random.default_rng(0)
    tree = random_tree(rng, p=4, max_nodes=10)
    data = random_dataset(rng, tree, n=80)
    split = EffectEngine(tree, data).split(frozenset(range(4)))
    assert split.alpha == 0.0
    assert len(split.terms) == tree.n_nodes
    assert not any(t.comp_nodes for t in split.terms)
    np.testing.assert_allclose([t.gbar for t in split.terms], 1.0)


def test_decompose_disjoint_subset_is_constant():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, p=3, max_nodes=8)
    # add two unused variables to the schema
    variables = tree.variables + (
        Variable("u1", "numeric"), Variable("u2", "numeric"),
    )
    tree = ft.FunctionTree(variables, tree.b0, tree.nodes)
    data = random_dataset(rng, tree, n=60)
    grid = pd_fast(tree, (3, 4), None, data, resolution=5)
    np.testing.assert_allclose(grid.values, 0.0, atol=1e-10)
    assert grid.alpha == 0.0


def test_reconstruction_identity():
    # b0 + bases touching no subset variable + sum_k f_k * g_k == predict
    rng = np.random.default_rng(2)
    for _ in range(5):
        tree = random_tree(rng, p=5, max_nodes=12, categorical=(2,))
        data = random_dataset(rng, tree, n=100)
        eng = EffectEngine(tree, data)
        for subset in [(0,), (1, 3), (0, 2, 4)]:
            split = eng.split(frozenset(subset))
            touched = {t.node_id for t in split.terms}
            total = np.full(data.n, tree.b0)
            for m in range(1, len(tree.nodes)):
                if m not in touched:
                    total += eng.basis[m]
            for t in split.terms:
                f = _product(eng.node_values, t.z_nodes)
                g = _product(eng.node_values, t.comp_nodes) if t.comp_nodes else 1.0
                total += f * g
            np.testing.assert_allclose(total, tree.predict(data.X), atol=1e-10)


def test_decompose_alpha_counts_mixed_bases(friedman_data, friedman_model):
    split = EffectEngine(friedman_model, friedman_data).split(frozenset({0}))
    mixed = sum(
        1 for k in range(1, len(friedman_model.nodes))
        if 0 in friedman_model.path_vars(k) and friedman_model.path_vars(k) != {0}
    )
    assert split.alpha == pytest.approx(mixed / friedman_model.n_nodes)


# ---------------------------------------------------------------------------
# Fast vs brute oracle
# ---------------------------------------------------------------------------

def test_pd_fast_equals_brute_on_random_trees():
    rng = np.random.default_rng(3)
    for trial in range(5):
        tree = random_tree(rng, p=4, max_nodes=10, categorical=(1,) if trial % 2 else ())
        data = random_dataset(rng, tree, n=70)
        for subset in [(0,), (2,), (0, 2), (1, 3), (0, 1, 2)]:
            gf = pd_fast(tree, subset, None, data, resolution=6)
            gb = pd_brute(tree.predict, subset, [ax for ax in gf.axes], data)
            np.testing.assert_allclose(gf.values, gb.values, atol=1e-8)


def test_pd_fast_equals_brute_on_fitted_model(friedman_data, friedman_model):
    for subset in [(2,), (6, 7)]:
        gf = pd_fast(friedman_model, subset, None, friedman_data, resolution=7)
        gb = pd_brute(friedman_model.predict, subset, list(gf.axes), friedman_data)
        np.testing.assert_allclose(gf.values, gb.values, atol=1e-8)


def test_brute_linear_model_closed_form():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(120, 2))
    data = Dataset(
        (Variable("x1", "numeric"), Variable("x2", "numeric")), X, X[:, 0]
    )
    a = 3.0
    pts = np.array([[-1.0], [0.0], [2.0]])
    grid = pd_brute(lambda M: a * M[:, 0], (0,), pts, data)
    expected = a * pts[:, 0] - a * X[:, 0].mean()
    np.testing.assert_allclose(grid.values, expected, atol=1e-10)


def test_brute_constant_predictor_centers_to_zero():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    data = Dataset((Variable("a", "numeric"), Variable("b", "numeric")), X, X[:, 0])
    grid = pd_brute(lambda M: np.full(len(M), 7.0), (0,), np.array([[0.0], [1.0]]), data)
    np.testing.assert_allclose(grid.values, 0.0, atol=1e-12)


def test_brute_eval_counter_is_n_times_points():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 2))
    data = Dataset((Variable("a", "numeric"), Variable("b", "numeric")), X, X[:, 0])
    pts = np.array([[0.0], [1.0], [2.0]])
    grid = pd_brute(lambda M: M[:, 0], (0,), pts, data)
    # the grid, then the 50 distinct row values that centre it
    assert grid.eval_count == 50 * (3 + 50)


# ---------------------------------------------------------------------------
# Centering and additivity
# ---------------------------------------------------------------------------

def test_effect_grid_centering_over_data_distribution(friedman_data, friedman_model):
    # evaluating the centered effect at the rows' own subset values must
    # average to zero against the row weights
    for subset in [(2,), (3, 5)]:
        pts = friedman_data.X[:, list(subset)]
        grid = pd_fast(friedman_model, subset, pts, friedman_data)
        assert abs(np.average(grid.values, weights=friedman_data.weight)) < 1e-8


def test_root_only_tree_pd_is_zero():
    variables = (Variable("a", "numeric"), Variable("b", "numeric"))
    tree = ft.FunctionTree(variables, 5.0, [ft.TreeNode(0, -1, None, None)])
    X = np.random.default_rng(7).normal(size=(30, 2))
    data = Dataset(variables, X, X[:, 0])
    grid = pd_fast(tree, (0,), None, data, resolution=5)
    np.testing.assert_allclose(grid.values, 0.0, atol=1e-12)


def test_additive_tree_pd_is_additive(friedman_data):
    tree = ft.fit(friedman_data, FitConfig(max_order=1, max_nodes=20))
    ax0 = default_axis(friedman_data, 0, 9)
    ax2 = default_axis(friedman_data, 2, 9)
    joint = pd_fast(tree, (0, 2), [ax0, ax2], friedman_data)
    g0 = pd_fast(tree, (0,), [ax0], friedman_data)
    g2 = pd_fast(tree, (2,), [ax2], friedman_data)
    combined = g0.values[:, None] + g2.values[None, :]
    np.testing.assert_allclose(joint.grid_values(), combined, atol=1e-8)


def test_pd_matches_analytic_component_for_quadratic(friedman_data, friedman_model):
    # x3 enters the target additively as 7*x3^2; the strict 0.15 tolerance
    # runs at full benchmark scale in acceptance, this fixture is n=2500
    grid = pd_fast(friedman_model, (2,), None, friedman_data)
    x3 = friedman_data.X[:, 2]
    analytic = 7.0 * grid.points[:, 0] ** 2 - np.mean(7.0 * x3**2)
    rmsdiff = np.sqrt(np.mean((grid.values - analytic) ** 2))
    assert rmsdiff < 0.3


# ---------------------------------------------------------------------------
# Partial association
# ---------------------------------------------------------------------------

def test_pa_equals_pd_exactly_when_no_mixing(friedman_data):
    tree = ft.fit(friedman_data, FitConfig(max_order=1, max_nodes=15))
    for subset in [(0,), (2,)]:
        gpd = pd_fast(tree, subset, None, friedman_data)
        gpa = pa(tree, subset, [gpd.axes[0]], friedman_data)
        assert gpd.alpha == 0.0
        np.testing.assert_allclose(gpa.values, gpd.values, atol=1e-12)


def test_pa_subset_size_limited(friedman_data, friedman_model):
    with pytest.raises(ValueError, match="<= 2"):
        pa(friedman_model, (0, 1, 2), None, friedman_data)


def _pretest_f(f, g, spline, dof):
    """The pretest's F statistic of ``spline`` against the mean of g, on dof
    columns."""
    sse_const = np.sum((g - g.mean()) ** 2)
    sse_spline = np.sum((g - spline(f)) ** 2)
    return ((sse_const - sse_spline) / (dof - 1)) / (sse_spline / (len(f) - dof))


def test_pa_pretest_counts_only_distinct_spline_knots():
    # a z-side product with five tied values: its vigintiles coincide, so
    # the spline design has 4 + 3 columns, not 4 + 19
    rng = np.random.default_rng(1)
    f = rng.integers(1, 6, 500).astype(float)
    g = 0.3 * np.array([0.0, 0.0, 1.0, 0.0, -1.0, 1.0])[f.astype(int)] + rng.normal(size=500)
    assert len(SplineDesign(f).interior) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spline = spline_fit(f, g)
    # the dependence is significant with the true dof and not with 4 + 19
    assert _pretest_f(f, g, spline, 7) >= 3.0 > _pretest_f(f, g, spline, 23)
    with pytest.warns(UserWarning, match="rank-deficient"):
        curve = coefficient_curve(SplineDesign(f), g)
    assert len(curve.knots) > 1
    np.testing.assert_array_equal(curve.values, spline(curve.knots))


def test_pa_pretest_counts_the_rank_of_a_rank_deficient_spline():
    # five tied values leave the design's 4 + 3 columns with rank 5: the
    # dependence is significant on the 5 columns the fit uses, not on 7
    rng = np.random.default_rng(3)
    f = rng.integers(1, 6, 500).astype(float)
    g = 0.2 * np.array([0.0, 0.0, 1.0, 0.0, -1.0, 1.0])[f.astype(int)] + rng.normal(size=500)
    design = SplineDesign(f)
    assert (design.dof, design.rank) == (7, 5)
    with pytest.warns(UserWarning, match="rank-deficient spline design: rank 5 of 7"):
        spline, _ = design.fit(g)
    assert _pretest_f(f, g, spline, 5) >= 3.0 > _pretest_f(f, g, spline, 7)
    with pytest.warns(UserWarning, match="rank-deficient"):
        curve = coefficient_curve(SplineDesign(f), g)
    assert len(curve.knots) > 1
    np.testing.assert_array_equal(curve.values, spline(curve.knots))


@pytest.mark.parametrize("n", [30, 38, 46])
def test_pa_coefficient_on_too_few_rows_to_test_collapses_to_its_mean(n):
    # at most 2 * rank rows leave the F pretest too little data, so the
    # coefficient is g's mean, as below 30 rows: every kept curve has passed
    # the test. Here g is unrelated to f, and the spline would be kept
    rng = np.random.default_rng(n)
    f, g = rng.normal(size=n), rng.normal(size=n)
    design = SplineDesign(f)
    assert n <= 2 * design.rank == 46
    curve = coefficient_curve(design, g)
    assert curve.values.tolist() == [np.mean(g)]


@pytest.fixture(scope="module")
def hu_pa_case():
    # the analyze-hu30 benchmark's model; on this draw its PA coefficient
    # curves are not all constant, unlike those of the friedman model
    tree = ft.fit(ft.gen_hu(5000, seed=0), FitConfig(max_nodes=24, patience=24))
    return tree, ft.gen_hu(20000, seed=7)


def test_pa_equals_pd_on_too_few_rows_to_test(hu_pa_case):
    # every coefficient of a PA on 40 rows collapses to its complement mean
    tree, _ = hu_pa_case
    data = ft.gen_hu(40, seed=3)
    for subset in [(0, 1), (1, 2), (2, 5)]:
        np.testing.assert_allclose(pa(tree, subset, None, data).values,
                                   pd_fast(tree, subset, None, data).values, rtol=0, atol=1e-12)


class _PaReference:
    """Partial association term by term, with no sharing: each mixed term's
    coefficient curve comes from its own spline design on the full-data
    z-side product, is called at f like any curve, and the terms are added
    in split order."""

    def __init__(self, tree, data):
        self.tree, self.data = tree, data
        self.values, self.basis = tree.node_columns(data.X)
        self.engine = EffectEngine(tree, data)
        self.curves = {}

    def coeff(self, term):
        pair = (term.z_nodes, term.comp_nodes)
        if pair not in self.curves:
            fr = _product(self.values, term.z_nodes)
            if np.ptp(fr) <= 1e-12 * max(1.0, np.abs(fr).max()):
                self.curves[pair] = ft.Curve(np.array([0.0]), np.array([term.gbar]))
            else:
                g = _product(self.values, term.comp_nodes)
                self.curves[pair] = coefficient_curve(SplineDesign(fr), g)
        return self.curves[pair]

    def effect(self, subset, n, f_at):
        split = self.engine.split(frozenset(subset))
        out = np.full(n, split.abar)
        for term in split.terms:
            f = f_at(term)
            out += f * self.coeff(term)(f) if term.comp_nodes else term.gbar * f
        return out

    def at_rows(self, subset, rows):
        def f_at(term):
            if not term.comp_nodes:
                return self.basis[term.node_id][rows]
            return _product([v[rows] for v in self.values], term.z_nodes)
        raw = self.effect(subset, len(rows), f_at)
        return raw - np.average(raw, weights=self.data.weight[rows])

    def strength(self, subset, rows):
        tree = self.tree
        if not any(set(subset) <= tree.path_vars(k) for k in range(1, len(tree.nodes))):
            return 0.0
        iv = self.at_rows(subset, rows)
        for j in subset if len(subset) > 1 else ():
            iv = iv - self.at_rows((j,), rows)
        w, pred = self.data.weight[rows], tree.predict(self.data.X)[rows]
        var = np.average((pred - np.average(pred, weights=w)) ** 2, weights=w)
        return float(np.sqrt(np.average(iv**2, weights=w) / var))


def test_pa_search_builds_one_design_per_z_side_product(hu_pa_case, monkeypatch):
    # every coefficient on one z-side product fits through one design, and
    # no product gets a second
    tree, data = hu_pa_case
    products, fits = [], []

    def recording_design(x):
        products.append(x.tobytes())
        return SplineDesign(x)

    def recording_fit(design, g):
        fits.append(design)
        return coefficient_curve(design, g)

    monkeypatch.setattr(pdengine, "SplineDesign", recording_design)
    monkeypatch.setattr(pdengine, "coefficient_curve", recording_fit)
    ft.search_effects(tree, data, max_order=2, with_pa=True)
    assert len(set(products)) == len(products) == 26
    assert len(fits) == 42


@pytest.mark.parametrize("strength_rows", [None, 2000])
def test_pa_search_equals_term_by_term_reference(hu_pa_case, strength_rows):
    tree, data = hu_pa_case
    rep = ft.search_effects(tree, data, max_order=2, with_pa=True, strength_rows=strength_rows, seed=5)
    rows = np.arange(data.n)
    if strength_rows is not None:
        rows = np.sort(np.random.default_rng(5).choice(data.n, strength_rows, replace=False))
    ref = _PaReference(tree, data)
    assert any(e.order == 2 for e in rep.entries)
    for e in rep.entries:
        assert e.strength_pa == ref.strength(e.subset, rows), e.subset
    assert any(len(c.knots) > 1 for c in ref.curves.values())


def test_pa_grid_equals_term_by_term_reference(hu_pa_case):
    tree, data = hu_pa_case
    grid = pa(tree, (3, 4), None, data, resolution=30)
    subset, pts, _ = resolve_points(data, (3, 4), None, 30)
    ref = _PaReference(tree, data)
    nodes = tree.nodes

    def f_at(term):
        return _product({m: nodes[m].func(pts[:, subset.index(nodes[m].var)]) for m in term.z_nodes},
                        term.z_nodes)

    raw = ref.effect(subset, len(pts), f_at)
    rows = np.arange(data.n)
    raw_rows = ref.effect(subset, data.n, lambda t: ref.basis[t.node_id] if not t.comp_nodes
                          else _product(ref.values, t.z_nodes))
    center = np.average(raw_rows, weights=data.weight[rows])
    assert grid.center == center
    assert np.array_equal(grid.values, raw - center)
    assert any(len(c.knots) > 1 for c in ref.curves.values())


def test_pa_degenerate_constant_factor_falls_back():
    # a mixed basis whose z-side factor is constant uses the plain mean
    variables = (Variable("a", "numeric"), Variable("b", "numeric"))
    const = ft.Curve(np.array([0.0]), np.array([2.0]))
    ident = ft.Curve(np.array([-5.0, 5.0]), np.array([-5.0, 5.0]))
    nodes = [
        ft.TreeNode(0, -1, None, None),
        ft.TreeNode(1, 0, 0, const),
        ft.TreeNode(2, 1, 1, ident),
    ]
    tree = ft.FunctionTree(variables, 0.0, nodes)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 2))
    data = Dataset(variables, X, tree.predict(X))
    gpd = pd_fast(tree, (0,), None, data, resolution=9)
    gpa = pa(tree, (0,), [gpd.axes[0]], data)
    np.testing.assert_allclose(gpa.values, gpd.values, atol=1e-10)


# ---------------------------------------------------------------------------
# Cost accounting and plumbing
# ---------------------------------------------------------------------------

def test_eval_cost_formula(friedman_data, friedman_model):
    # each fast effect costs its points plus the mixed-basis share of one
    # data pass; the data pass that centres a grid is one more effect
    n = friedman_data.n
    for subset, mixed in [((0,), True), (tuple(range(8)), False)]:
        eng = EffectEngine(friedman_model, friedman_data)
        alpha = eng.split(frozenset(subset)).alpha
        assert (alpha > 0.0) == mixed
        pts = friedman_data.X[:50, list(subset)]
        eng.effect_at(subset, pts)
        assert eng.fast_evals == (50 + alpha * n) + (n + alpha * n)
        assert eng.brute_equiv == 50.0 * n + float(n) * n
        grid = pd_fast(friedman_model, subset, pts, friedman_data)
        assert grid.eval_count == eng.fast_evals
    # every fast grid reports what a fresh engine making its calls counted,
    # its centring pass included; a dead subset's pure interaction is zero
    # with a zero centre, and costs nothing
    probe = EffectEngine(friedman_model, friedman_data)
    dead = next(s for s in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] if not probe.live(frozenset(s)))
    for subset in [(0, 1), dead]:
        assert probe.split(frozenset(subset)).alpha > 0.0
        pts = friedman_data.X[:50, list(subset)]
        for build, use_pa, read in [(pd_fast, False, "effect_at"), (pa, True, "effect_at"),
                                    (pure_interaction, False, "i_at")]:
            eng = EffectEngine(friedman_model, friedman_data, use_pa=use_pa)
            getattr(eng, read)(subset, pts)
            eng.center(frozenset(subset))
            grid = build(friedman_model, subset, pts, friedman_data)
            assert grid.alpha == probe.split(frozenset(subset)).alpha
            if build is pure_interaction and subset == dead:
                assert (grid.eval_count, grid.center) == (0.0, 0.0)
            else:
                assert (grid.eval_count, grid.center) == (eng.fast_evals, eng.center(frozenset(subset)))


def test_fast_grids_check_their_subset_limits(friedman_data, friedman_model):
    # partial association takes at most two variables, a pure interaction
    # at most four, and partial dependence every variable
    pts = friedman_data.X[:10]
    with pytest.raises(ValueError, match="size <= 2"):
        pa(friedman_model, (0, 1, 2), pts[:, :3], friedman_data)
    with pytest.raises(ValueError, match="size <= 4"):
        pure_interaction(friedman_model, (0, 1, 2, 3, 4), pts[:, :5], friedman_data)
    grid = pd_fast(friedman_model, tuple(range(8)), pts, friedman_data)
    assert grid.subset == tuple(range(8)) and grid.n_points == 10


def test_pd_fast_equals_single_variable_pure_interaction(friedman_data, friedman_model):
    # a main effect's pure interaction is its partial dependence: both are
    # read off the same split, so they agree to the last bit
    for j in range(friedman_data.p):
        pts = default_axis(friedman_data, j, 11)[:, None]
        pd_vals = pd_fast(friedman_model, (j,), pts, friedman_data).values
        pure_vals = pure_interaction(friedman_model, (j,), pts, friedman_data).values
        np.testing.assert_array_equal(pd_vals, pure_vals)


def test_default_axis_quantiles_and_levels():
    rng = np.random.default_rng(9)
    variables = (
        Variable("n", "numeric"),
        Variable("c", "categorical", levels=("a", "b", "c")),
    )
    X = np.column_stack([rng.normal(size=200), rng.integers(0, 3, 200).astype(float)])
    data = Dataset(variables, X, X[:, 0])
    ax_n = default_axis(data, 0, 50)
    ax_c = default_axis(data, 1)
    assert len(ax_n) == 50
    assert X[:, 0].min() <= ax_n[0] < ax_n[-1] <= X[:, 0].max()
    np.testing.assert_array_equal(ax_c, [0.0, 1.0, 2.0])


def test_zero_weight_rows_do_not_move_default_grids(friedman_data, friedman_model):
    # default axes are quantiles of the rows with positive weight, so a grid
    # on data with weight-0 rows matches the grid on the data without them:
    # the axes bit for bit, values and centre within 1e-10 of the prediction
    # sd (the sums over rows hold extra zeros, which moves their rounding),
    # and the same eval_count: a weight-0 row is not evaluated
    rng = np.random.default_rng(12)
    n = 300
    X, y = friedman_data.X[:n], friedman_data.y[:n]
    w = rng.uniform(0.5, 2.0, n) * (rng.random(n) < 0.8)
    keep = w > 0
    full = Dataset(friedman_data.variables, X, y, weight=w)
    kept = Dataset(friedman_data.variables, X[keep], y[keep], weight=w[keep])
    tol = 1e-10 * friedman_model.predict(X[keep]).std()
    for make in (lambda d: pd_fast(friedman_model, (0, 1), None, d, 7),
                 lambda d: pd_brute(friedman_model.predict, (3,), None, d, 7),
                 lambda d: pure_interaction(friedman_model, (0, 1), None, d, 7),
                 lambda d: conditional_interaction(friedman_model, (0, 1), {2: 0.5}, None, d, 7)):
        got, want = make(full), make(kept)
        assert all(np.array_equal(a, b) for a, b in zip(got.axes, want.axes))
        np.testing.assert_array_equal(got.points, want.points)
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=tol)
        assert abs(got.center - want.center) <= tol
        assert got.eval_count == want.eval_count


def test_pd_brute_skips_zero_weight_rows(friedman_data, friedman_model):
    # a weight-0 row adds nothing to a brute-force average, so it is neither
    # evaluated nor counted: the call equals, bit for bit and with the same
    # eval_count, the call on the positive-weight rows alone
    rng = np.random.default_rng(12)
    n = 300
    w = rng.uniform(0.5, 2.0, n) * (rng.random(n) < 0.8)
    full = Dataset(friedman_data.variables, friedman_data.X[:n], friedman_data.y[:n], weight=w)
    kept = ft.take_rows(full, np.flatnonzero(w > 0))
    for make in (lambda d: pd_brute(friedman_model.predict, (3,), None, d, 7),
                 lambda d: pure_interaction_brute(friedman_model.predict, (0, 1), None, d, 4)):
        got, want = make(full), make(kept)
        assert _bits(got.values) == _bits(want.values) and _bits(got.points) == _bits(want.points)
        assert (got.center, got.eval_count) == (want.center, want.eval_count)
    # the fast path centres over the same rows, and its brute-force
    # equivalent averages over them
    eng = EffectEngine(friedman_model, full)
    eng.effect_at((3,), full.X[:7, [3]])
    assert eng.brute_equiv == (7.0 + kept.n) * kept.n


def test_fast_paths_skip_zero_weight_rows(friedman_data, friedman_model):
    # an engine leaves weight-0 rows out of its rows, so a fast grid and a
    # search count what they count on the positive-weight rows alone (with
    # the weight-0 rows counted they read 403.5, 1,319.7 and 4,500 against
    # 332.6, 1,085.2 and 3,600), and a search reports the same subsets and
    # strengths to rounding
    rng = np.random.default_rng(12)
    n = 300
    w = rng.uniform(0.5, 2.0, n) * (rng.random(n) < 0.8)
    assert np.count_nonzero(w == 0.0) == 60
    full = Dataset(friedman_data.variables, friedman_data.X[:n], friedman_data.y[:n], weight=w)
    kept = ft.take_rows(full, np.flatnonzero(w > 0))
    for make in (lambda d: pd_fast(friedman_model, (0, 1), None, d, 7),
                 lambda d: pure_interaction(friedman_model, (0, 1), None, d, 7)):
        assert make(full).eval_count == make(kept).eval_count
    got, want = (ft.search_effects(friedman_model, d, max_order=2) for d in (full, kept))
    assert (got.fast_evals, got.brute_equiv) == (want.fast_evals, want.brute_equiv)
    assert [e.subset for e in got.entries] == [e.subset for e in want.entries]
    np.testing.assert_allclose([e.strength for e in got.entries], [e.strength for e in want.entries],
                               rtol=1e-12, atol=0)


def test_resolve_points_forms(friedman_data):
    subset, pts, axes = resolve_points(friedman_data, [0, 1], None, resolution=5)
    assert subset == (0, 1)
    assert pts.shape == (25, 2) and len(axes) == 2
    explicit = np.array([[0.0, 1.0], [2.0, 3.0]])
    _, pts2, axes2 = resolve_points(friedman_data, (0, 1), explicit)
    np.testing.assert_array_equal(pts2, explicit)
    assert axes2 is None
    with pytest.raises(ValueError, match="one column"):
        resolve_points(friedman_data, (0, 1), np.zeros((4, 3)))
    # the subset is checked first, against the caller's size limit
    with pytest.raises(ValueError, match="size <= 2"):
        resolve_points(friedman_data, (0, 1, 2), None, 5, max_size=2)
    with pytest.raises(ValueError, match="distinct"):
        resolve_points(friedman_data, (0, 0), None, 5)


def test_pd_fast_takes_one_variable_points_as_a_vector(friedman_data, friedman_model):
    # on a one-variable subset a 1-d points array is the (n, 1) matrix
    pts = np.linspace(-1.0, 1.0, 9)
    flat = pd_fast(friedman_model, (3,), pts, friedman_data)
    column = pd_fast(friedman_model, (3,), pts[:, None], friedman_data)
    np.testing.assert_array_equal(flat.points, column.points)
    np.testing.assert_array_equal(flat.values, column.values)


def test_effect_csv_export(tmp_path, friedman_data, friedman_model):
    grid = pd_fast(friedman_model, (6, 7), None, friedman_data, resolution=4)
    out = tmp_path / "g.csv"
    write_effect_csv(grid, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# kind: pd"
    assert lines[1] == "# subset: x7;x8"
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "x7,x8,value"
    assert len(lines) == header_at + 1 + grid.n_points
    # values round-trip through repr
    first = lines[header_at + 1].split(",")
    assert float(first[2]) == grid.values[0]


def test_effect_csv_labels_levels_by_name(tmp_path):
    # a categorical subset variable is written by level name, read off the
    # grid's own variables
    tree = random_tree(np.random.default_rng(5), p=3, max_nodes=8, categorical=(1,))
    data = random_dataset(np.random.default_rng(6), tree, n=60)
    grid = pd_fast(tree, (1, 0), None, data, resolution=3)
    out = tmp_path / "g.csv"
    write_effect_csv(grid, out)
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == ["v1", "v0", "value"]
    levels = data.variables[1].levels
    assert [r[0] for r in rows[1:]] == [levels[int(c)] for c in grid.points[:, 0]]
    assert {r[0] for r in rows[1:]} == set(levels)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 1e-3])),
                min_size=1, max_size=300))
def test_weighted_mean_equals_np_average(pairs):
    # the engine's fast weighted mean is np.average bit for bit, zero
    # weights included, and fails as it does when the weights sum to zero
    a, w = (np.array(v) for v in zip(*pairs))
    if w.sum() == 0.0:
        with pytest.raises(ZeroDivisionError):
            _mean(a, w, w.sum())
        with pytest.raises(ZeroDivisionError):
            np.average(a, weights=w)
    else:
        got, want = _mean(a, w, w.sum()), np.average(a, weights=w)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# One evaluation per (tree, data)
# ---------------------------------------------------------------------------

def _fresh_pair(model_data):
    """Deep copies of a model and its data: a pair no call has evaluated."""
    return copy.deepcopy(model_data[0]), copy.deepcopy(model_data[1])


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _entry_point_results(tree, data) -> list:
    """Every public effect entry point on one pair, as exact comparables."""
    out = []
    for kwargs in ({"max_order": 3}, {"max_order": 3, "use_screens": False, "strength_rows": 150, "seed": 2},
                   {"max_order": 2, "with_pa": True}):
        rep = ft.search_effects(tree, data, **kwargs)
        out.append(([(e.subset, e.strength, e.strength_pa) for e in rep.entries],
                    rep.fast_evals, rep.brute_equiv))
    for fn, subset in ((pd_fast, (0, 1)), (pa, (0, 1)), (pure_interaction, (0, 1, 2))):
        g = fn(tree, subset, None, data, resolution=5)
        out.append((_bits(g.points), _bits(g.values), g.center, g.alpha, g.eval_count))
    out.append(ft.strength(tree, (0, 1), data))
    h = ft.screen_h(tree, data)
    out.append((_bits(h.scores), h.threshold, h.flagged))
    return out


def test_one_evaluation_per_tree_and_data(monkeypatch, hu_model_data):
    # every entry point on one unchanged pair evaluates the tree once, and
    # reads what a fresh pair (deep copies, so nothing is shared) computes
    tree, data = _fresh_pair(hu_model_data)
    calls = []
    original = ft.FunctionTree.node_columns

    def counted(self, X):
        calls.append(self)
        return original(self, X)

    monkeypatch.setattr(ft.FunctionTree, "node_columns", counted)
    got = _entry_point_results(tree, data)
    assert len(calls) == 1
    assert EffectEngine(tree, data).basis[1] is EffectEngine(tree, data).basis[1]
    assert len(calls) == 1
    assert got == _entry_point_results(copy.deepcopy(tree), copy.deepcopy(data))
    assert len(calls) == 2


def _swap_func(tree):
    node = tree.nodes[1]
    node.func = node.func.scale(-2.0)


def _append_node(tree):
    k = len(tree.nodes)
    tree.nodes.append(ft.TreeNode(k, k - 1, 0, ft.Curve(np.array([-1.0, 1.0]), np.array([0.7, -0.4]))))


def _move_b0(tree):
    tree.b0 += 1.5


@pytest.mark.parametrize("edit", [_swap_func, _append_node, _move_b0])
def test_a_tree_edited_in_place_is_evaluated_again(edit, hu_model_data):
    # after an in-place edit every entry point must give what a from-scratch
    # evaluation of the edited tree gives, not the stale shared one
    tree, data = _fresh_pair(hu_model_data)
    before = _entry_point_results(tree, data)
    edit(tree)
    after = _entry_point_results(tree, data)
    assert after == _entry_point_results(copy.deepcopy(tree), copy.deepcopy(data))
    assert after != before


def test_pair_memos_are_shared_by_later_calls(monkeypatch, hu_model_data):
    # after one PA search, every entry point on the same pair (a second PA
    # search and a PA grid among them) fits no coefficient curve and builds
    # no spline design, and gives what it gives on a copy of the tree (a pair
    # of its own); an in-place edit empties the memos, and the calls fit again
    tree, data = _fresh_pair(hu_model_data)
    ft.search_effects(tree, data, max_order=2, with_pa=True)
    fits, designs = [], []
    curve, design = pdengine.coefficient_curve, pdengine.SplineDesign
    monkeypatch.setattr(pdengine, "coefficient_curve", lambda *a: fits.append(a) or curve(*a))
    monkeypatch.setattr(pdengine, "SplineDesign", lambda *a: designs.append(a) or design(*a))
    got = _entry_point_results(tree, data)
    assert (len(fits), len(designs)) == (0, 0)
    assert got == _entry_point_results(tree.copy(), data)
    assert len(fits) > 0 and len(designs) > 0
    for edit in (_swap_func, _move_b0):
        edit(tree)
        fits.clear()
        got = _entry_point_results(tree, data)
        assert len(fits) > 0
        assert got == _entry_point_results(tree.copy(), data)
    # what the memos keep outlives every call, and holds no row-length array
    memos = pdengine._EVALUATIONS[id(tree), id(data)][2]
    assert memos["_splits"] and memos["_gbar"] and memos["_pa_curves"]
    for name, kind in (("_splits", pdengine._Split), ("_gbar", float), ("_pa_curves", ft.Curve)):
        assert all(isinstance(v, kind) for v in memos[name].values())
    for split in memos["_splits"].values():
        assert isinstance(split.abar, float) and isinstance(split.alpha, float)
        assert all(isinstance(t, pdengine._Term) and isinstance(t.gbar, float) for t in split.terms)
    assert all(len(c.knots) < data.n for c in memos["_pa_curves"].values())


def test_an_evaluation_lives_no_longer_than_its_tree_or_data():
    rng = np.random.default_rng(13)
    tree = random_tree(rng, p=5, max_nodes=12, categorical=(4,))
    data = random_dataset(rng, tree, n=400)
    column = weakref.ref(EffectEngine(tree, data).basis[1])
    assert column() is not None
    del tree
    gc.collect()
    assert column() is None
    # 50 short-lived trees on one dataset leave no entry and no finalizer on it
    entries = len(pdengine._EVALUATIONS)
    for _ in range(50):
        t = random_tree(rng, p=5, max_nodes=6, categorical=(4,))
        if np.ptp(t.predict(data.X)) > 0:  # strength needs a non-constant model
            ft.strength(t, (0,), data)
        pd_fast(t, (1,), None, data, resolution=3)
        del t
    gc.collect()
    assert len(pdengine._EVALUATIONS) == entries
    assert not [f for f, info in weakref.finalize._registry.items() if info.weakref() is data]
    # nor does an entry keep its data alive
    tree = random_tree(rng, p=5, max_nodes=6, categorical=(4,))
    EffectEngine(tree, data)
    gone = weakref.ref(data)
    del data
    gc.collect()
    assert gone() is None
    assert len(pdengine._EVALUATIONS) == entries


def test_live_set_matches_the_path_containment_test():
    # the engine's live subsets are the path sets' subsets of at most
    # MAX_ORDER variables; a larger key takes the containment test
    rng = np.random.default_rng(15)
    for _ in range(5):
        tree = random_tree(rng, p=6, max_nodes=14)
        eng = EffectEngine(tree, random_dataset(rng, tree, n=40))
        for size in range(1, 7):
            for s in combinations(range(6), size):
                key = frozenset(s)
                assert eng.live(key) == any(key <= tree.path_vars(k) for k in range(1, len(tree.nodes)))
