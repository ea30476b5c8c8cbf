"""Pure interactions, strengths, screening, search, and bootstrap."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import functree as ft
from functree import interactions
from functree.data import Dataset, Variable
from functree.interactions import (
    EffectEngine,
    _live_subsets,
    _screen_h,
    bootstrap_compare,
    conditional_interaction,
    pin,
    pure_interaction,
    pure_interaction_brute,
    screen_h,
    screen_r,
    search_effects,
    strength,
)
from functree.pdengine import pd_fast, resolve_points
from functree.smoothers import Curve, LevelTable
from functree.tree import FitConfig, FunctionTree, TreeNode

from conftest import random_dataset, random_tree


def identity_curve():
    return Curve(np.array([-10.0, 10.0]), np.array([-10.0, 10.0]))


@pytest.fixture(scope="module")
def additive_model(friedman_data):
    return ft.fit(friedman_data, FitConfig(max_order=1, max_nodes=20))


def bilinear_setup():
    """Tree computing exactly x1*x2, on four-fold symmetric data so every
    odd empirical moment vanishes identically."""
    variables = (Variable("x1", "numeric"), Variable("x2", "numeric"))
    nodes = [
        TreeNode(0, -1, None, None),
        TreeNode(1, 0, 0, identity_curve()),
        TreeNode(2, 1, 1, identity_curve()),
        TreeNode(3, 0, 0, identity_curve().scale(-1.0)),
    ]
    tree = FunctionTree(variables, 0.0, nodes)
    rng = np.random.default_rng(12)
    u = rng.uniform(0.05, 1.0, size=(500, 2))
    X = np.vstack([u * s for s in ([1, 1], [1, -1], [-1, 1], [-1, -1])])
    data = Dataset(variables, X, tree.predict(X))
    return tree, data


# ---------------------------------------------------------------------------
# Pure interactions
# ---------------------------------------------------------------------------

def test_additive_tree_has_no_pair_interaction(friedman_data, additive_model):
    for s in [(0, 1), (3, 5), (2, 6)]:
        grid = pure_interaction(additive_model, s, None, friedman_data, resolution=8)
        assert np.all(grid.values == 0.0)


def test_bilinear_tree_recovers_product():
    tree, data = bilinear_setup()
    assert np.max(np.abs(tree.predict(data.X) - data.X[:, 0] * data.X[:, 1])) < 1e-12
    axes = [np.linspace(-0.9, 0.9, 7), np.linspace(-0.9, 0.9, 7)]
    g12 = pure_interaction(tree, (0, 1), axes, data)
    expected = g12.points[:, 0] * g12.points[:, 1]
    np.testing.assert_allclose(g12.values, expected, atol=0.01)
    for s in [(0,), (1,)]:
        g = pure_interaction(tree, s, [axes[s[0]]], data)
        assert np.max(np.abs(g.values)) < 0.01


def test_inclusion_exclusion_identity(friedman_data, friedman_model):
    eng = EffectEngine(friedman_model, friedman_data)
    for s in [(0, 1), (3, 4, 5), (2, 6, 7), (0, 2, 5, 7)]:
        _, pts, _ = resolve_points(friedman_data, s, None, 5)
        total = np.zeros(len(pts))
        for size in range(1, len(s) + 1):
            for u in combinations(s, size):
                cols = [s.index(v) for v in u]
                total += eng.i_at(u, pts[:, cols])
        np.testing.assert_allclose(total, eng.effect_at(s, pts), atol=1e-8)


def test_engine_grid_matches_pd_fast(friedman_data, friedman_model):
    eng = EffectEngine(friedman_model, friedman_data)
    for s in [(2,), (3, 5)]:
        grid = pd_fast(friedman_model, s, None, friedman_data, resolution=6)
        vals = eng.effect_at(s, grid.points)
        np.testing.assert_allclose(vals, grid.values, atol=1e-10)


def test_interaction_rows_have_zero_weighted_mean(friedman_data, friedman_model):
    eng = EffectEngine(friedman_model, friedman_data)
    for s in [(0, 1), (3, 4, 5)]:
        vals = eng.i_rows(frozenset(s))
        assert abs(np.average(vals, weights=friedman_data.weight)) < 1e-8


# ---------------------------------------------------------------------------
# Strength
# ---------------------------------------------------------------------------

def test_strength_additive_tree_is_tiny(friedman_data, additive_model):
    for s in [(0, 1), (3, 5), (1, 2, 4)]:
        assert strength(additive_model, s, friedman_data) == 0.0


def test_strength_invariant_to_subset_order(friedman_data, friedman_model):
    a = strength(friedman_model, (3, 4, 5), friedman_data)
    b = strength(friedman_model, (5, 3, 4), friedman_data)
    assert a == pytest.approx(b, rel=1e-12)


def test_strength_invariant_to_constant_shift(friedman_data, friedman_model):
    shifted = friedman_model.copy()
    shifted.b0 += 100.0
    a = strength(friedman_model, (6, 7), friedman_data)
    b = strength(shifted, (6, 7), friedman_data)
    assert a == pytest.approx(b, rel=1e-9)


def test_strength_triple_exceeds_weak_pair(friedman_data, friedman_model):
    # the three-variable effect is substantial while its (x4,x5) margin is weak
    s_triple = strength(friedman_model, (3, 4, 5), friedman_data)
    s_pair = strength(friedman_model, (3, 4), friedman_data)
    assert s_triple > s_pair


def test_strength_constant_predictions_error():
    variables = (Variable("a", "numeric"), Variable("b", "numeric"))
    tree = FunctionTree(variables, 1.0, [TreeNode(0, -1, None, None)])
    X = np.random.default_rng(0).normal(size=(30, 2))
    data = Dataset(variables, X, X[:, 0])
    with pytest.raises(ValueError, match="constant"):
        strength(tree, (0,), data)
    # a live pair of a two-node tree with both variables pinned: predictions
    # are exactly constant, though their weighted variance reads 1.2e-32
    rng = np.random.default_rng(0)
    nodes = [TreeNode(0, -1, None, None),
             TreeNode(1, 0, 0, Curve(np.array([-2.0, 2.0]), rng.uniform(-1.2, 1.2, 2))),
             TreeNode(2, 1, 1, Curve(np.array([-2.0, 2.0]), rng.uniform(-1.2, 1.2, 2)))]
    tree = FunctionTree(variables, float(rng.normal()), nodes)
    tree = pin(tree, {0: float(rng.normal()), 1: float(rng.normal())})
    X = rng.normal(size=(60, 2))
    assert np.ptp(tree.predict(X)) == 0.0
    with pytest.raises(ValueError, match="constant"):
        strength(tree, (0, 1), Dataset(variables, X, X[:, 0]))


# ---------------------------------------------------------------------------
# Conditional interactions
# ---------------------------------------------------------------------------

def test_conditioning_on_absent_variable_is_identity(friedman_data):
    # build a model that never uses x6 (index 5)
    cfg = FitConfig(forbidden_subsets=(frozenset({5}),), max_nodes=10)
    tree = ft.fit(friedman_data, cfg)
    assert all(5 not in tree.path_vars(k) for k in range(1, len(tree.nodes)))
    base = pure_interaction(tree, (3, 4), None, friedman_data, resolution=6)
    cond = conditional_interaction(tree, (3, 4), {5: 1.0}, [base.axes[0], base.axes[1]],
                                   friedman_data)
    np.testing.assert_allclose(cond.values, base.values, atol=1e-12)


def test_conditional_fast_equals_brute(friedman_data, friedman_model):
    base = pure_interaction(friedman_model, (3, 4), None, friedman_data, resolution=4)
    axes = [base.axes[0], base.axes[1]]
    fast = conditional_interaction(friedman_model, (3, 4), {5: 0.5}, axes, friedman_data)
    brute = conditional_interaction(friedman_model, (3, 4), {5: 0.5}, axes, friedman_data,
                                    method="brute")
    np.testing.assert_allclose(fast.values, brute.values, atol=1e-8)


def test_conditioning_outside_range_warns(friedman_data, friedman_model):
    with pytest.warns(UserWarning, match="outside the observed range"):
        conditional_interaction(friedman_model, (3, 4), {5: 99.0}, None,
                                friedman_data, resolution=4)


def test_conditioning_variables_must_be_disjoint(friedman_data, friedman_model):
    with pytest.raises(ValueError, match="disjoint"):
        conditional_interaction(friedman_model, (3, 4), {3: 0.0}, None, friedman_data)


@pytest.mark.parametrize("call", [
    lambda tree, data: ft.pd_brute(tree.predict, (0, 0), None, data, resolution=4),
    lambda tree, data: ft.pd_brute(tree.predict, (99,), None, data, resolution=4),
    lambda tree, data: pd_fast(tree, (1.5,), np.zeros((3, 1)), data),
    lambda tree, data: pure_interaction_brute(tree.predict, (-1, 0), None, data, resolution=4),
    lambda tree, data: conditional_interaction(tree, (0,), {-1: 0.5}, None, data, resolution=4),
    lambda tree, data: conditional_interaction(tree, (0,), {-1: 0.5}, None, data, resolution=4,
                                               method="brute"),
    lambda tree, data: conditional_interaction(tree, (0,), {99: 0.5}, None, data, resolution=4),
    lambda tree, data: search_effects(tree, data, max_order=7),
], ids=["pd_brute-repeated", "pd_brute-out-of-range", "pd_fast-float-index", "pure_brute-negative",
        "cond-fast-negative", "cond-brute-negative", "cond-out-of-range", "search-max-order-7"])
def test_effect_inputs_are_checked(call):
    # each used to return an answer for a variable the caller did not name
    # (a repeat, index -1 read as the last column, index 1.5 read as no
    # variable, an order past 4 run as 4) or to fail with an IndexError
    rng = np.random.default_rng(5)
    tree = random_tree(rng, p=4, max_nodes=8)
    data = random_dataset(rng, tree, n=40)
    with pytest.raises(ValueError):
        call(tree, data)


def test_pin_replaces_functions_with_constants():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, p=4, max_nodes=8)
    data = random_dataset(rng, tree, n=50)
    pinned = pin(tree, {1: 0.3})
    Xmod = data.X.copy()
    Xmod[:, 1] = 0.3
    np.testing.assert_allclose(pinned.predict(data.X), tree.predict(Xmod), atol=1e-12)


# ---------------------------------------------------------------------------
# Dead subsets
# ---------------------------------------------------------------------------

def _in_a_path(tree, s) -> bool:
    """Whether some root path's variable set contains the subset (live)."""
    return any(set(s) <= tree.path_vars(k) for k in range(1, len(tree.nodes)))


def _assert_dead_subsets_give_exact_zeros(tree, sample):
    """Every dead subset of up to 4 variables: exact zeros from the engine's
    rows, strength, pure and conditional grids, the grids at no cost and
    with a zero centre. Returns the dead subsets."""
    p = len(tree.variables)
    dead = [s for size in range(1, min(p, 4) + 1) for s in combinations(range(p), size)
            if not _in_a_path(tree, s)]
    eng = EffectEngine(tree, sample)
    constant = np.ptp(tree.predict(sample.X)) == 0.0
    for s in dead:
        assert np.all(eng.i_rows(frozenset(s)) == 0.0)
        if constant:
            with pytest.raises(ValueError, match="constant"):
                eng.strength(s)
        else:
            assert eng.strength(s) == 0.0
        _, pts, _ = resolve_points(sample, s, None, 3)
        grid = pure_interaction(tree, s, pts, sample)
        assert np.all(grid.values == 0.0) and (grid.center, grid.eval_count) == (0.0, 0.0)
        rest = [j for j in range(p) if j not in s]
        if rest:
            cond = conditional_interaction(tree, s, {rest[0]: 1.0}, pts, sample)
            assert np.all(cond.values == 0.0) and (cond.center, cond.eval_count) == (0.0, 0.0)
    return dead


def _draw_tree(data):
    """A random tree on 2-5 variables, each numeric or categorical, with
    paths up to depth 4, level tables and, on some draws, a pinned
    variable, and 60 rows of data for it; ``data`` is Hypothesis's."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = data.draw(st.integers(2, 5))
    levels = ("a", "b", "c")
    variables = tuple(
        Variable(f"g{j}", "categorical", levels=levels) if data.draw(st.booleans())
        else Variable(f"x{j}", "numeric", observed_range=(-3.0, 3.0)) for j in range(p))
    nodes, depth = [TreeNode(0, -1, None, None)], [0]
    for k in range(1, data.draw(st.integers(1, 8)) + 1):
        parent = int(rng.choice([m for m in range(k) if depth[m] < 4]))
        j = int(rng.integers(0, p))
        if variables[j].is_categorical:
            func = LevelTable(rng.uniform(-1.2, 1.2, len(levels)), 0.25)
        else:
            knots = np.unique(rng.uniform(-2.0, 2.0, int(rng.integers(2, 8))))
            func = Curve(knots, rng.uniform(-1.2, 1.2, len(knots)))
        nodes.append(TreeNode(k, parent, j, func))
        depth.append(depth[parent] + 1)
    tree = FunctionTree(variables, float(rng.normal()), nodes)
    if data.draw(st.booleans()):
        tree = pin(tree, {int(rng.integers(0, p)): 1.0})
    return tree, random_dataset(rng, tree, n=60)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_dead_subsets_give_exact_zeros(data):
    # a subset that no root path's variable set contains has an identically
    # zero pure interaction: the fast paths must give exact zeros for every
    # such subset of up to 4 variables, on trees with paths up to depth 4,
    # level tables and a pinned variable, and brute-force averaging must
    # agree to rounding
    tree, sample = _draw_tree(data)
    dead = _assert_dead_subsets_give_exact_zeros(tree, sample)
    sub = ft.take_rows(sample, np.arange(20))
    pred = tree.predict(sub.X)
    sd = float(np.std(pred))
    for s in data.draw(st.lists(st.sampled_from(dead), max_size=2)) if dead and np.ptp(pred) > 0 else ():
        brute = pure_interaction_brute(tree.predict, s, sub.X[:5][:, list(s)], sub)
        assert np.max(np.abs(brute.values)) <= 1e-12 * sd


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_screen_h_equals_the_pd_residual(data):
    # the h-screen reads each variable's score off the paths that mix it
    # with others; it must equal the residual it stands for, F - PD(x_j) -
    # PD(rest) with each term centred, computed from the engine's centred
    # effects at the rows, within 1e-12 of the prediction sd, on weighted
    # rows some of weight 0. A variable on no mixed path scores exactly 0
    tree, sample = _draw_tree(data)
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.5, 2.0, sample.n)
    w[:: data.draw(st.integers(2, 7))] = 0.0
    sample = Dataset(sample.variables, sample.X, sample.y, weight=w)
    res = screen_h(tree, sample)
    p = sample.p
    mixed = {j for k in range(1, len(tree.nodes)) if len(tree.path_vars(k)) > 1 for j in tree.path_vars(k)}
    assert all(res.scores[j] == 0.0 for j in range(p) if j not in mixed)
    eng = EffectEngine(tree, sample)
    if np.ptp(eng.pred) == 0.0:
        return
    pred_c = eng.pred - np.average(eng.pred, weights=eng.w)
    sd_pred = float(np.sqrt(np.average(pred_c**2, weights=eng.w)))
    for j in range(p):
        rest = frozenset(range(p)) - {j}
        resid = pred_c - eng.rows_centered(frozenset([j])) - (eng.rows_centered(rest) if rest else 0.0)
        want = float(np.sqrt(np.average(resid**2, weights=eng.w)))
        assert abs(res.scores[j] - want) <= 1e-12 * sd_pred
    assert res.threshold == pytest.approx(0.05 * sd_pred, rel=1e-12)


def test_dead_subset_property_fails_on_a_union_of_two_paths(monkeypatch):
    # a live test that also accepts a subset lying only in the union of two
    # paths evaluates dead subsets; their rounding noise must fail the
    # property's exact zeros. On this additive tree {x0, x1} is dead.
    def union_live(self, key):
        return any(key <= a | b for a in self.pathvars for b in self.pathvars)

    variables = (Variable("x0", "numeric"), Variable("x1", "numeric"))
    tree = FunctionTree(variables, 0.5, [
        TreeNode(0, -1, None, None),
        TreeNode(1, 0, 0, Curve(np.array([-1.0, 0.0, 1.0]), np.array([0.3, -0.7, 1.1]))),
        TreeNode(2, 0, 1, Curve(np.array([-1.0, 1.0]), np.array([-0.9, 0.4]))),
    ])
    sample = random_dataset(np.random.default_rng(0), tree, n=60)
    monkeypatch.setattr(EffectEngine, "live", union_live)
    assert np.any(EffectEngine(tree, sample).i_rows(frozenset({0, 1})) != 0.0)
    with pytest.raises(AssertionError):
        _assert_dead_subsets_give_exact_zeros(tree, sample)


# ---------------------------------------------------------------------------
# Screening
# ---------------------------------------------------------------------------

def test_screen_h_zero_for_additive_tree(friedman_data, additive_model):
    # every variable appears only in single-variable paths, so the identity
    # F = PD(x_j) + PD(rest) holds exactly
    res = screen_h(additive_model, friedman_data)
    assert np.all(res.scores == 0.0)
    assert res.flagged == ()


def test_screen_h_x3_smallest(friedman_data, friedman_model):
    # x3 enters the target additively, so its score sits far below the rest
    res = screen_h(friedman_model, friedman_data)
    assert np.argmin(res.scores) == 2
    others = np.delete(res.scores, 2)
    assert res.scores[2] < 0.25 * others.min()


def test_screen_r_depth_one_tree(friedman_data, additive_model):
    res = screen_r(additive_model, friedman_data)
    assert res.matrix.shape[1] >= 2
    assert np.all(res.matrix[:, 2:] == 0.0)
    assert res.included(2) == ()


def test_screen_r_single_pair_path():
    variables = (Variable("x1", "numeric"), Variable("x2", "numeric"))
    nodes = [
        TreeNode(0, -1, None, None),
        TreeNode(1, 0, 0, identity_curve()),
        TreeNode(2, 1, 1, identity_curve()),
    ]
    tree = FunctionTree(variables, 0.0, nodes)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 2))
    data = Dataset(variables, X, tree.predict(X))
    res = screen_r(tree, data)
    recomputed = tree.copy()
    recomputed.recompute_influence(data.X, data.weight)
    pair_node_influence = recomputed.nodes[2].influence
    assert res.matrix[0, 2] == pytest.approx(pair_node_influence)
    assert res.matrix[1, 2] == pytest.approx(pair_node_influence)
    assert res.matrix[1, 1] == 0.0


def test_search_leaves_missing_influences_missing(friedman_data, friedman_model):
    # a model file may hold null influences; the screen recomputes them on
    # the analysis data without writing them into the caller's tree
    doc = friedman_model.to_dict()
    for node in doc["nodes"]:
        node["influence"] = None
    tree = FunctionTree.from_dict(doc)
    report = search_effects(tree, friedman_data, max_order=2)
    assert all(np.isnan(node.influence) for node in tree.nodes[1:])
    recomputed = tree.copy()
    recomputed.recompute_influence(friedman_data.X, friedman_data.weight)
    np.testing.assert_array_equal(report.screening["r"].matrix, screen_r(recomputed).matrix)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def test_search_recovers_friedman_structure(friedman_data, friedman_model):
    report = search_effects(friedman_model, friedman_data, max_order=3)
    pairs = [e.subset for e in report.entries if e.order == 2][:3]
    assert (0, 1) in pairs and (6, 7) in pairs
    triples = [e.subset for e in report.entries if e.order == 3]
    assert triples[0] == (3, 4, 5)


@pytest.fixture(scope="module")
def hu_bench_model():
    """The analysis benchmark's model: 24 nodes fitted on 5,000 rows."""
    return ft.fit(ft.gen_hu(5000, seed=0), FitConfig(max_nodes=24, patience=24))


def test_search_screening_matches_exhaustive(friedman_data, friedman_model, hu_bench_model):
    screened = search_effects(friedman_model, friedman_data, max_order=3)
    full = search_effects(friedman_model, friedman_data, max_order=3, use_screens=False)
    top_s = [frozenset(e.subset) for e in screened.top(k=10)]
    top_f = [frozenset(e.subset) for e in full.top(k=10)]
    assert top_s == top_f
    # the exhaustive search pays for its live subsets alone, each once and
    # in the search's order
    eng = EffectEngine(friedman_model, friedman_data)
    n = friedman_data.n
    cost = 0.0
    for order in (1, 2, 3):
        for s in combinations(range(friedman_data.p), order):
            if _in_a_path(friedman_model, s):
                cost += n + eng.split(frozenset(s)).alpha * n
    assert full.fast_evals == cost
    # on the friedman model the screens drop only dead subsets; on this one
    # they drop live ones too, and save their cost
    data = ft.gen_hu(2000, seed=7)
    screened = search_effects(hu_bench_model, data, max_order=3)
    full = search_effects(hu_bench_model, data, max_order=3, use_screens=False)
    assert [frozenset(e.subset) for e in screened.top(k=10)] == \
        [frozenset(e.subset) for e in full.top(k=10)]
    assert screened.fast_evals < full.fast_evals


def test_search_walks_only_live_subsets(monkeypatch, hu_bench_model):
    # on the 30-variable model the search asks for the strength of exactly
    # the live subsets of each order's pool, in combinations order, and
    # reports what a walk over every subset reports once its dead rows (all
    # at strength 0, at no cost) are removed: entries and counters alike
    data = ft.gen_hu(2000, seed=7)
    eng = EffectEngine(hu_bench_model, data)
    asked = []
    strength_of = EffectEngine.strength
    monkeypatch.setattr(EffectEngine, "strength",
                        lambda self, s: asked.append(tuple(s)) or strength_of(self, s))
    for use_screens in (True, False):
        asked.clear()
        rep = search_effects(hu_bench_model, data, max_order=4, use_screens=use_screens, strength_rows=500)
        pools = rep.screening["pools"] if use_screens else dict.fromkeys(range(1, 5), tuple(range(data.p)))
        want = []
        for k in range(1, 5):
            live = [s for s in combinations(pools[k], k) if eng.live(frozenset(s))]
            assert _live_subsets(eng, pools[k], k) == live
            want += live
        assert asked == want and len(rep.entries) == len(want)
        with monkeypatch.context() as m:
            m.setattr(interactions, "_live_subsets", lambda eng, pool, k: list(combinations(pool, k)))
            full = search_effects(hu_bench_model, data, max_order=4, use_screens=use_screens,
                                  strength_rows=500)
        assert len(full.entries) > len(rep.entries)
        assert rep.entries == [e for e in full.entries if eng.live(frozenset(e.subset))]
        assert (rep.fast_evals, rep.brute_equiv) == (full.fast_evals, full.brute_equiv)


def test_search_entries_sorted_within_order(friedman_data, friedman_model):
    report = search_effects(friedman_model, friedman_data, max_order=2)
    for order in (1, 2):
        vals = [e.strength for e in report.entries if e.order == order]
        assert vals == sorted(vals, reverse=True)


def test_search_excludes_screened_variables(friedman_data, friedman_model):
    report = search_effects(friedman_model, friedman_data, max_order=2)
    flagged = set(report.screening["h"].flagged)
    for e in report.entries:
        if e.order >= 2:
            assert set(e.subset) <= flagged


def test_search_report_csv_and_log(tmp_path, friedman_data, friedman_model):
    report = search_effects(friedman_model, friedman_data, max_order=2, with_pa=True)
    out = tmp_path / "r.csv"
    report.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "subset,order,strength,strength_pa"
    assert len(lines) == len(report.entries) + 1
    text = report.screening_text()
    assert "interacting variables" in text and "order-2 search pool" in text
    # the report labels variables by the searched data's names
    assert "h-scores: x1=" in text


def test_search_strength_subsample_reproducible(friedman_data, friedman_model):
    a = search_effects(friedman_model, friedman_data, max_order=2, strength_rows=400, seed=3)
    b = search_effects(friedman_model, friedman_data, max_order=2, strength_rows=400, seed=3)
    assert [e.strength for e in a.entries] == [e.strength for e in b.entries]


@pytest.mark.parametrize("which", ["friedman", "hu"])
def test_search_memos_match_a_fresh_engine_per_subset(request, which):
    # every engine on the pair shares splits, complement means and
    # coefficient curves with the search's engines and the screen's full-row
    # engine; a cache that depends on the rows or on PA must not leak between
    # them. Each reference engine is on a copy of the model, a pair of its own
    if which == "friedman":
        model, data = request.getfixturevalue("friedman_model"), request.getfixturevalue("friedman_data")
    else:
        model, data = request.getfixturevalue("hu_model_data")
    report = search_effects(model, data, max_order=3, with_pa=True, strength_rows=600, seed=5)
    rows = np.sort(np.random.default_rng(5).choice(data.n, 600, replace=False))
    assert report.screening is not None and len(report.entries) > 8
    for e in report.entries:
        assert e.strength == EffectEngine(model.copy(), data, rows=rows).strength(e.subset)
        assert e.strength_pa == EffectEngine(model.copy(), data, rows=rows, use_pa=True).strength(e.subset)
    # an engine on other rows, after another engine on the pair has filled
    # every memo
    eng = EffectEngine(model, data, rows=rows, use_pa=True)
    subsets = [e.subset for e in report.entries]
    for s in subsets:
        eng.strength(s)
    other = EffectEngine(model, data, rows=np.arange(0, data.n, 3), use_pa=True)
    fresh = EffectEngine(model.copy(), data, rows=np.arange(0, data.n, 3), use_pa=True)
    assert [other.strength(s) for s in subsets] == [fresh.strength(s) for s in subsets]
    # on all rows an engine reads the node columns in place, and with PA it
    # keeps each term's f * coeff(f): after a search nothing may have written
    # into the columns, and every centre must be numpy's weighted mean of the
    # effect rebuilt from fresh columns
    cols = model.node_columns(data.X)
    for eng_rows, use_pa in ((None, True), (rows, True), (None, False)):
        eng = EffectEngine(model, data, rows=eng_rows, use_pa=use_pa)
        for s in subsets:
            eng.strength(s)
        if not use_pa:
            _screen_h(eng)
        assert all(np.array_equal(a, b) for a, b in zip(eng.node_values, cols[0]))
        assert all(np.array_equal(a, b) for a, b in zip(eng.basis, cols[1]))
        assert len(eng._centers) >= sum(_in_a_path(model, s) for s in subsets)
        assert all(_in_a_path(model, key) for key in eng._i_rows)
        for key in eng._centers:
            raw = _uncentred_at_rows(eng, key, cols)
            assert eng.center(key) == np.average(raw, weights=data.weight[eng.rows])


def _uncentred_at_rows(eng, key, cols):
    """A + sum_k f_k * g_k at the engine's rows, from the node columns
    ``cols`` and the engine's split and coefficient curves."""
    values, basis = cols
    split = eng.split(key)
    out = np.full(len(eng.rows), split.abar)
    for t in split.terms:
        if not t.comp_nodes:
            f = basis[t.node_id][eng.rows]
        else:
            f = values[t.z_nodes[0]][eng.rows]
            for m in t.z_nodes[1:]:
                f = f * values[m][eng.rows]
        out += f * eng._pa_curves[t.z_nodes, t.comp_nodes](f) if eng.use_pa and t.comp_nodes else t.gbar * f
    return out


# ---------------------------------------------------------------------------
# Model differencing
# ---------------------------------------------------------------------------

def test_model_diff_identical_models_zero(friedman_model, friedman_data):
    d = ft.difference(friedman_model, friedman_model)
    np.testing.assert_allclose(d.predict(friedman_data.X[:100]), 0.0, atol=1e-10)


def test_model_diff_localizes_removed_interaction(friedman_data):
    free = ft.fit(friedman_data, FitConfig(max_nodes=25))
    constrained = ft.fit(
        friedman_data, FitConfig(max_nodes=25, forbidden_subsets=(frozenset({3, 4, 5}),))
    )
    diff = ft.difference(free, constrained)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = conditional_interaction(diff, (3, 4), {5: 1.0}, None, friedman_data, resolution=9)
    assert g.rms() > 0.3


# ---------------------------------------------------------------------------
# Bootstrap comparison
# ---------------------------------------------------------------------------

def test_bootstrap_identical_configs_identical_results(friedman_data):
    small = ft.take_rows(friedman_data, np.arange(400))
    cfg = FitConfig(max_nodes=5, patience=1)
    res = bootstrap_compare(small, [cfg, cfg], reps=3, seed=11)
    np.testing.assert_array_equal(res.test_rmse[0], res.test_rmse[1])
    assert res.test_rmse.shape == (2, 3)


def test_bootstrap_needs_two_reps(friedman_data):
    with pytest.raises(ValueError, match="replicates"):
        bootstrap_compare(friedman_data, [FitConfig()], reps=1)


def test_bootstrap_csv(tmp_path, friedman_data):
    small = ft.take_rows(friedman_data, np.arange(300))
    res = bootstrap_compare(small, [FitConfig(max_nodes=3, patience=1)], reps=2, seed=1)
    out = tmp_path / "b.csv"
    res.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "config,replicate,test_rmse"
    assert len(lines) == 3
