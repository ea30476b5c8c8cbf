"""Function-tree structure, fitting, backfitting, and serialization."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import functree as ft
from functree import smoothers
from functree.data import Dataset, SplitSpec, Variable, rmse, split_indices
from functree.pdengine import EffectEngine
from functree.smoothers import (
    SORTED_INTERP_POINTS,
    Curve,
    LevelTable,
    SmootherSpec,
    SmoothingTarget,
    SortedColumn,
)
from functree.tree import (
    QUEUE_TOP,
    FitConfig,
    FormatVersionError,
    FunctionTree,
    SchemaMismatchError,
    TreeFitter,
    TreeNode,
    backfit_pass,
    difference,
    model_sum,
)

from conftest import random_dataset, random_tree, reference_smooth


def identity_curve(lo=-10.0, hi=10.0):
    return Curve(np.array([lo, hi]), np.array([lo, hi]))


def two_numeric_vars():
    return (
        Variable("x1", "numeric", observed_range=(-5.0, 5.0)),
        Variable("x2", "numeric", observed_range=(-5.0, 5.0)),
    )


def chain_tree(b0=1.5):
    # node1: f(x1) = x1 under root; node2: f(x2) = x2 under node1
    nodes = [
        TreeNode(0, -1, None, None),
        TreeNode(1, 0, 0, identity_curve()),
        TreeNode(2, 1, 1, identity_curve()),
    ]
    return FunctionTree(two_numeric_vars(), b0, nodes)


# ---------------------------------------------------------------------------
# Structure and evaluation
# ---------------------------------------------------------------------------

def test_root_only_tree_predicts_constant():
    tree = FunctionTree(two_numeric_vars(), 3.0, [TreeNode(0, -1, None, None)])
    X = np.random.default_rng(0).normal(size=(20, 2))
    np.testing.assert_array_equal(tree.predict(X), np.full(20, 3.0))


def test_chain_tree_expands_to_products():
    tree = chain_tree(b0=1.5)
    X = np.array([[2.0, 3.0], [-1.0, 0.5], [0.0, 4.0]])
    expected = 1.5 + X[:, 0] + X[:, 0] * X[:, 1]
    np.testing.assert_allclose(tree.predict(X), expected, atol=1e-12)


def test_basis_values_consistency():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, p=5, max_nodes=12)
    X = random_dataset(rng, tree, n=100).X
    values, basis = tree.node_columns(X)
    B = np.column_stack(basis[1:])
    np.testing.assert_allclose(tree.b0 + B.sum(axis=1), tree.predict(X), atol=1e-12)
    assert B.shape == (100, tree.n_nodes)
    assert len(values) == len(basis) == len(tree.nodes)


def test_single_row_predict_equals_the_batch_row():
    # a 1-d row is read as a one-row matrix; the batch of 200 rows takes the
    # sorted evaluation, the single row the direct one, bit for bit the same
    rng = np.random.default_rng(4)
    tree = random_tree(rng, p=5, max_nodes=12)
    X = random_dataset(rng, tree, n=200).X
    fitted = ft.fit(ft.gen_friedman(300, seed=2), FitConfig(max_nodes=8))
    Xf = ft.gen_friedman(200, seed=3).X
    for model, rows in ((tree, X), (fitted, Xf)):
        batch = model.predict(rows)
        for i in range(0, len(rows), 7):
            single = model.predict(rows[i])
            assert single.shape == (1,) and single[0] == batch[i]


def test_single_node_basis_is_function_column():
    nodes = [TreeNode(0, -1, None, None), TreeNode(1, 0, 0, identity_curve())]
    tree = FunctionTree(two_numeric_vars(), 0.0, nodes)
    X = np.array([[1.0, 9.0], [2.0, 9.0]])
    values, basis = tree.node_columns(X)
    np.testing.assert_allclose(basis[1], [1.0, 2.0])
    np.testing.assert_allclose(values[1], [1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_node_columns_equal_each_node_evaluated_alone(data):
    # node_columns sorts each variable's column once for all its nodes; every
    # value column must be the node's own function of its own column, bit for
    # bit, with 1 to 4 nodes per variable, curves on either side of the knot
    # cutoff, a level table and row counts on either side of the point cutoff
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = data.draw(st.integers(1, 3))
    levels = ("a", "b", "c")
    variables = tuple(Variable(f"x{j}", "numeric") for j in range(p)) + (
        Variable("g", "categorical", levels=levels),)
    node_vars = [j for j in range(p) for _ in range(data.draw(st.integers(1, 4)))] + [p]
    nodes = [TreeNode(0, -1, None, None)]
    for k, j in enumerate(rng.permutation(node_vars), start=1):
        if j == p:
            func = LevelTable(rng.uniform(-1.5, 1.5, len(levels)), 0.25)
        else:
            knots = np.unique(rng.uniform(-3.0, 3.0, data.draw(st.integers(1, 600))))
            func = Curve(knots, rng.uniform(-1.5, 1.5, len(knots)))
        nodes.append(TreeNode(k, int(rng.integers(0, k)), int(j), func))
    tree = FunctionTree(variables, float(rng.normal()), nodes)
    n = data.draw(st.integers(1, 2 * SORTED_INTERP_POINTS))
    # rounded normals give ties; level 3 is unseen and reads the default
    X = np.column_stack([np.round(rng.normal(0.0, 1.5, n), 1) for _ in range(p)]
                        + [rng.integers(0, 4, n).astype(float)])
    values, basis = tree.node_columns(X)
    expect = [np.ones(n)]
    for node in tree.nodes[1:]:
        col = X[:, node.var]
        v = node.func(col)
        assert np.array_equal(values[node.id], v)
        if isinstance(node.func, Curve):
            assert np.array_equal(v, np.interp(col, node.func.knots, node.func.values))
        expect.append(expect[node.parent] * v)
    assert all(np.array_equal(b, e) for b, e in zip(basis, expect))
    assert np.array_equal(tree.predict(X), model_sum(tree.b0, expect))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 300), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       zeros=st.sampled_from([0.0, 0.3, 1.0]), b0=st.sampled_from([-0.0, 0.0, 1.5, -2e-9]))
@example(k=8, n=1, seed=1, zeros=0.3, b0=0.0)
@example(k=128, n=3, seed=2, zeros=0.0, b0=1.5)
@example(k=129, n=2048, seed=3, zeros=0.3, b0=-0.0)
@example(k=256, n=5, seed=4, zeros=0.0, b0=-2e-9)
@example(k=257, n=1, seed=5, zeros=1.0, b0=-0.0)
@example(k=300, n=3000, seed=6, zeros=0.3, b0=1.5)
def test_model_sum_is_within_the_running_sum_bound(k, n, seed, zeros, b0):
    # a running sum of b0 and k terms is within gamma_k * sum |x| of the
    # exact sum, gamma_k = k*u / (1 - k*u) with u = eps / 2 (Higham 1993);
    # checked here with the looser k * eps * sum |x| against math.fsum
    rng = np.random.default_rng(seed)
    cols = [np.ones(n)]
    for _ in range(k):
        col = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        zero = rng.random(n) < zeros
        col[zero] = rng.choice([-0.0, 0.0], int(zero.sum()))
        cols.append(col)
    got = model_sum(b0, cols)
    assert got.shape == (n,)
    eps = np.finfo(float).eps
    # every row where it is cheap, else the first, the last and a sample
    rows = range(n) if n * k <= 20000 else sorted({0, n - 1, *rng.choice(n, 16).tolist()})
    for i in rows:
        terms = [b0] + [float(c[i]) for c in cols[1:]]
        assert abs(got[i] - math.fsum(terms)) <= k * eps * math.fsum(map(abs, terms))


def _curve_tree(rng, p: int, variables, knots: tuple[int, int]) -> FunctionTree:
    """A tree on p numeric variables with one curve node per entry of
    ``variables``, each under a random earlier node, with knots drawn from
    a standard normal, their count in ``knots``."""
    nodes = [TreeNode(0, -1, None, None)]
    for k, var in enumerate(variables, start=1):
        x = np.unique(rng.normal(0.0, 1.0, int(rng.integers(*knots))))
        nodes.append(TreeNode(k, int(rng.integers(0, k)), int(var), Curve(x, rng.uniform(-1.2, 1.2, len(x)))))
    return FunctionTree(tuple(Variable(f"x{j}", "numeric") for j in range(p)), 0.5, nodes)


@settings(max_examples=40, deadline=None)
@given(nodes=st.integers(1, 64), n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1),
       weights=st.sampled_from(["none", "unit", "scaled", "zeros"]))
@example(nodes=1, n=400, seed=7, weights="zeros")
@example(nodes=64, n=300, seed=8, weights="scaled")
def test_recompute_influence_matches_the_stacked_average(nodes, n, seed, weights):
    rng = np.random.default_rng(seed)
    tree = _curve_tree(rng, 6, rng.integers(0, 6, nodes), (2, 8))
    X = rng.normal(0.0, 1.0, (n, 6))
    w = {"none": None, "unit": np.ones(n), "scaled": rng.uniform(0.1, 3.0, n),
         "zeros": rng.uniform(0.1, 3.0, n) * (rng.random(n) < 0.8)}[weights]
    if w is not None and w.sum() == 0.0:
        w[0] = 1.0
    tree.recompute_influence(X, w)
    B = np.column_stack(tree.node_columns(X)[1][1:])
    want = np.sqrt(np.average((B - np.average(B, axis=0, weights=w)) ** 2, axis=0, weights=w))
    got = np.array([node.influence for node in tree.nodes[1:]])
    # each side's weighted mean is within about n * eps * max|b| of the
    # exact one, which moves an sd by at most that much, and its sum of n
    # squares within a relative n * eps: twice the sum of both bounds
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * n * eps * (want + np.abs(B).max(axis=0)))


def test_predict_and_influences_build_no_rows_by_nodes_matrix():
    # the basis columns are summed as a list, and influences read one column
    # at a time: neither call holds more than the basis list plus ten
    # columns. Stacking the columns first peaked at 51.1 columns in predict
    # and 73.5 in recompute_influence on this tree, against this bound of 35;
    # the running sum and per-column means peak at 28.1 and 29.1. The effect
    # engine's evaluation keeps the node values and the basis, so its bound
    # is twice the nodes plus ten columns: stacking the basis for its
    # weighted means peaked at 74.1 columns, per-column means at 51.3
    rng = np.random.default_rng(30)
    p, n = 30, 20000
    tree = _curve_tree(rng, p, rng.permutation(p)[:24], (20, 400))
    X = rng.normal(0.0, 1.0, (n, p))
    data = Dataset(tree.variables, X, np.zeros(n))
    column = n * 8
    bound = len(tree.nodes) * column + 10 * column
    for call, limit in ((lambda: tree.predict(X), bound),
                        (lambda: tree.recompute_influence(X, np.ones(n)), bound),
                        (lambda: EffectEngine(tree, data), bound + len(tree.nodes) * column)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (peak / column, limit / column)


def test_interaction_order_counts_distinct_path_variables():
    nodes = [
        TreeNode(0, -1, None, None),
        TreeNode(1, 0, 3, identity_curve()),       # path vars {x4}
        TreeNode(2, 1, 3, identity_curve()),       # {x4, x4} -> still order 1
        TreeNode(3, 2, 4, identity_curve()),       # {x4, x4, x5} -> order 2
        TreeNode(4, 3, 5, identity_curve()),       # order 3
    ]
    variables = tuple(Variable(f"x{j+1}", "numeric") for j in range(6))
    tree = FunctionTree(variables, 0.0, nodes)
    assert tree.interaction_order(1) == 1
    assert tree.interaction_order(2) == 1
    assert tree.interaction_order(3) == 2
    assert tree.interaction_order(4) == 3
    with pytest.raises(ValueError):
        tree.interaction_order(0)


def test_unseen_categorical_level_uses_default():
    var = (Variable("c", "categorical", levels=("a", "b")),)
    nodes = [TreeNode(0, -1, None, None),
             TreeNode(1, 0, 0, LevelTable(np.array([1.0, 2.0]), default=-7.0))]
    tree = FunctionTree(var, 0.0, nodes)
    np.testing.assert_allclose(tree.predict(np.array([[0.0], [1.0]])), [1.0, 2.0])
    # a level index outside the table (e.g. from a wider test vocabulary)
    assert tree.predict(np.array([[5.0]]))[0] == -7.0


def test_schema_mismatch_raises():
    tree = chain_tree()
    with pytest.raises(SchemaMismatchError):
        tree.predict(np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_fit_additive_noiseless_stays_additive():
    # y depends on one variable only, exactly representable: the first node
    # zeroes the residual and nothing else gets added
    rng = np.random.default_rng(5)
    X = rng.normal(size=(800, 3))
    y = 2.0 * X[:, 0] + 1.0
    data = Dataset(
        tuple(Variable(f"x{j+1}", "numeric") for j in range(3)), X, y
    )
    tree = ft.fit(data, FitConfig(split=SplitSpec(0.2, 3)))
    assert all(n.parent == 0 for n in tree.nodes[1:])
    assert tree.max_interaction_order() == 1
    assert {n.var for n in tree.nodes[1:]} == {0}
    assert 1.0 - rmse(y, tree.predict(X)) ** 2 > 0.999


def test_fit_smooth_single_variable_high_accuracy():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(800, 3))
    y = np.sin(X[:, 0])
    data = Dataset(
        tuple(Variable(f"x{j+1}", "numeric") for j in range(3)), X, y
    )
    tree = ft.fit(data, FitConfig(split=SplitSpec(0.2, 3)))
    assert 1.0 - rmse(y, tree.predict(X)) ** 2 > 0.999


def test_fit_train_sse_monotone(friedman_model):
    sse = [h["train_sse"] for h in friedman_model.fit_history]
    assert len(sse) >= 3
    for a, b in zip(sse, sse[1:]):
        assert b <= a + 1e-9 * max(1.0, a)


def test_fit_respects_max_order(friedman_data):
    tree = ft.fit(friedman_data, FitConfig(max_order=1, max_nodes=20))
    assert all(tree.interaction_order(k) == 1 for k in range(1, len(tree.nodes)))


def test_fit_respects_forbidden_subsets(friedman_data):
    cfg = FitConfig(forbidden_subsets=(frozenset({3, 4, 5}),), max_nodes=30)
    tree = ft.fit(friedman_data, cfg)
    for k in range(1, len(tree.nodes)):
        assert not {3, 4, 5} <= tree.path_vars(k)


def test_fit_is_deterministic(friedman_data):
    a = ft.fit(friedman_data, FitConfig(max_nodes=8))
    b = ft.fit(friedman_data, FitConfig(max_nodes=8))
    np.testing.assert_array_equal(a.predict(friedman_data.X), b.predict(friedman_data.X))
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_fit_best_first_choice_matches_exhaustive_rescoring():
    data = ft.gen_friedman(300, seed=13)
    fitter = TreeFitter(data, FitConfig())
    for _ in range(3):
        scores = list(fitter.score_all_candidates())
        best_red = max(s[0] for s in scores)
        winners = [(k, j) for red, k, j, *_ in scores if red >= best_red - 1e-12 * max(1.0, best_red)]
        assert fitter.step() == winners[0]


class _NoMemoryFitter(TreeFitter):
    """The fitter with every rescored parent scoring every variable."""

    def _plan(self, parents, full=False):
        return super()._plan(parents, True)


class _ExactFitter(_NoMemoryFitter):
    """The fitter with every variable of every parent scored at every step:
    the exact sweep."""

    def _queue(self):
        return list(range(len(self.nodes)))


class _CheckedFitter(TreeFitter):
    """Runs the exact sweep before every step and checks the step's choice
    against it. With ``floor`` the gain threshold sits at the best gain of
    any candidate but the exact winner, so a step whose plan misses that
    (parent, variable) finds no gain above it and must rescan every parent."""

    def __init__(self, data, config, floor):
        super().__init__(data, config)
        self.floor, self.noise, self.scored = floor, self.min_gain, None
        self.misses = self.variable_misses = 0

    def score_candidate(self, k, j, target):
        if self.scored is not None:
            self.scored.append((k, j))
        return super().score_candidate(k, j, target)

    def step(self):
        exact = list(self.score_all_candidates())
        best = max(exact, key=lambda cand: cand[0], default=None)
        if self.floor and best is not None:
            self.min_gain = max([self.noise] + [c[0] for c in exact if c[1:3] != best[1:3]])
        plan = dict(self._plan(self._queue()))
        missed = best is not None and best[2] not in plan.get(best[1], ())
        n_parents = len(self.nodes)
        self.scored = []
        got = super().step()
        scored, self.scored = self.scored, None
        assert self.last_step["candidates"] == len(scored)
        assert set(self.last_step["rescored"]) == {k for k, _ in scored}
        if got is None:
            assert {(k, j) for k in range(n_parents) for j in self._variables(k)} <= set(scored)
            assert self.last_step["rescanned"] == list(range(n_parents))
        elif best[1:3] in scored:
            assert got == best[1:3]
            assert self.last_step["gain"] == best[0]
        self.misses += missed
        self.variable_misses += missed and best[1] in plan
        return got


def _queue_case(name, seed):
    if name == "friedman":
        return ft.gen_friedman(2000, seed=seed), FitConfig()
    mode = "classification" if name == "hu_classification" else "regression"
    return ft.gen_hu(3000, seed=seed, mode=mode), FitConfig(max_nodes=20, patience=20)


@pytest.mark.parametrize("floor", [False, True])
def test_parent_queue_matches_exact_sweep(floor):
    misses = variable_misses = 0
    for name, seed in [("friedman", 1), ("friedman", 2), ("hu", 1), ("hu", 3), ("hu_classification", 1)]:
        fitter = _CheckedFitter(*_queue_case(name, seed), floor)
        history = fitter.run().fit_history
        misses += fitter.misses
        variable_misses += fitter.variable_misses
        # every parent on the first steps, then the newest node on each step
        assert [h["rescored"] for h in history[:QUEUE_TOP + 1]] == [
            list(range(k + 1)) for k in range(min(len(history), QUEUE_TOP + 1))]
        assert all(h["n_nodes"] - 1 in h["rescored"] for h in history)
        assert all(set(h["rescanned"]) <= set(h["rescored"]) for h in history)
    # the plan missed the exact winner (and, with the floor, fell back to
    # every variable of every parent) on some step, and on some step it
    # held the winner's parent but not its variable
    assert misses > 0
    assert variable_misses > 0


def test_variable_memory_leaves_fits_of_few_variables_unchanged():
    # a parent with at most QUEUE_TOP admissible variables scores them all
    # whenever it is rescored, so the memory changes nothing
    data = ft.gen_friedman(2000, seed=1)
    assert data.p <= QUEUE_TOP
    fast, full = TreeFitter(data, FitConfig()).run(), _NoMemoryFitter(data, FitConfig()).run()
    assert json.dumps(fast.to_dict()) == json.dumps(full.to_dict())
    assert fast.fit_history == full.fit_history


@pytest.mark.parametrize("name,seed", [("friedman", 3), ("hu", 2), ("hu", 4)])
def test_parent_queue_test_rmse_within_one_percent_of_exact(name, seed):
    data, config = _queue_case(name, seed)
    queue, exact = TreeFitter(data, config).run(), _ExactFitter(data, config).run()
    assert queue.train_stats["test_rmse"] <= 1.01 * exact.train_stats["test_rmse"]
    rescored = [sum(len(h["rescored"]) for h in t.fit_history) for t in (queue, exact)]
    assert rescored[0] <= rescored[1]
    # the model file holds no history
    assert set(queue.to_dict()) == {"format_version", "b0", "variables", "nodes", "train_stats"}


def _friedman_with_group(n, seed, zero_weights):
    """Friedman rows plus a 3-level categorical column that shifts y; with
    ``zero_weights`` a fifth of the rows weigh 0, so every parent's
    smoothing target weighs some rows zero."""
    base = ft.gen_friedman(n, seed=seed)
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, n).astype(float)
    variables = base.variables + (Variable("g", "categorical", levels=("a", "b", "c")),)
    weight = np.where(rng.random(n) < 0.2, 0.0, 1.0) if zero_weights else None
    return Dataset(variables, np.column_stack([base.X, g]), base.y + g, weight=weight)


@pytest.mark.parametrize("zero_weights", [False, True])
@pytest.mark.parametrize("method", ["near_neighbor", "local_linear"])
def test_candidate_sweep_equals_smooth(method, zero_weights):
    data = _friedman_with_group(400, 3, zero_weights)
    fitter = TreeFitter(data, FitConfig(numeric_smoother=SmootherSpec(method, span=0.2)))
    for _ in range(4):
        fitter.step()
        fitter.backfit_pass()
        fitter.recenter()
    swept = {(k, j): (gain, f) for gain, k, j, f, _ in fitter.score_all_candidates()}
    assert len(swept) == len(fitter.nodes) * data.p
    r = fitter.resid * fitter.sqrt_rho
    for k in range(len(fitter.nodes)):
        w = fitter.B_tr[k] * fitter.sqrt_rho
        assert (SmoothingTarget(r, w).omega == 0.0).any() == zero_weights
        weighed = SmoothingTarget(r, w).omega > 0.0
        ts_max = np.max(np.abs(r[weighed] / w[weighed]))
        for j in range(data.p):
            x, col = fitter.Xtr[:, j], fitter.columns[j]
            if data.variables[j].is_categorical:
                want, kappa = reference_smooth(x, r, w, SmootherSpec("categorical_mean"))
            else:
                want, kappa = reference_smooth(x, r, w, fitter.config.numeric_smoother, knots=col.knots)
            # the gain of the reference curve, evaluated at every row
            d = fitter.B_tr[k] * want(x)
            num = float(np.sum(fitter.rho * fitter.resid * d))
            gain, got = swept[(k, j)]
            assert gain == pytest.approx(num * num / float(np.sum(fitter.rho * d * d)), rel=1e-9)
            assert type(got) is type(want)
            if isinstance(want, Curve):
                assert np.array_equal(got.knots, want.knots)
                assert np.max(np.abs(got.values - want.values)) <= 1e-12 * kappa * ts_max
            else:
                assert np.array_equal(got.values, want.values)
                assert got.default == want.default


@pytest.mark.parametrize("case", ["friedman_zero_weights", "hu_sub_floor"])
def test_fit_builds_one_column_per_numeric_variable(monkeypatch, case):
    # every smoothing target reads the fit's columns: none is rebuilt for a
    # target that weighs rows zero, and no pass warns (a NaN knot would
    # make Curve raise)
    if case == "friedman_zero_weights":
        data, config = _friedman_with_group(400, 3, zero_weights=True), FitConfig()
    else:
        data, config = ft.gen_hu(2000, seed=1), FitConfig(max_nodes=20, patience=20)
    built, sub_floor = [], []
    column_init, target_init = SortedColumn.__init__, SmoothingTarget.__init__

    def counting(self, *args):
        built.append(self)
        column_init(self, *args)

    def recording(self, r, w):
        target_init(self, r, w)
        sub_floor.append(bool(((self.omega == 0.0) & (w != 0.0)).any()))

    monkeypatch.setattr(SortedColumn, "__init__", counting)
    monkeypatch.setattr(SmoothingTarget, "__init__", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitter = TreeFitter(data, config)
        fitter.run()
    assert sorted(map(id, built)) == sorted(id(c) for c in fitter.columns if isinstance(c, SortedColumn))
    # some targets weigh zero a row of nonzero weight below their floor
    assert any(sub_floor)


@pytest.mark.parametrize("fails_at", [1, 3])
def test_an_error_building_a_smoothing_target_propagates(monkeypatch, fails_at):
    # a parent or node without weight has nothing to fit, and its fits say
    # so by returning None; any error is a fault and leaves the fit. Target
    # 1 is the root's in the first sweep, target 3 the second backfit pass's
    built, target_init = [], SmoothingTarget.__init__

    def failing(self, r, w):
        built.append(None)
        if len(built) == fails_at:
            raise ValueError("operands could not be broadcast together")
        target_init(self, r, w)

    monkeypatch.setattr(SmoothingTarget, "__init__", failing)
    with pytest.raises(ValueError, match="broadcast"):
        ft.fit(ft.gen_friedman(500, seed=1), FitConfig(max_nodes=4))


def test_fit_with_every_variable_forbidden_is_root_only():
    data = ft.gen_friedman(200, seed=1)
    forbidden = tuple(frozenset({j}) for j in range(data.p))
    tree = ft.fit(data, FitConfig(forbidden_subsets=forbidden))
    assert tree.n_nodes == 0
    assert tree.fit_history == []
    np.testing.assert_array_equal(tree.predict(data.X), tree.b0)


@pytest.mark.parametrize("method", ["near_neighbor", "local_linear"])
def test_fit_evaluates_its_curves_by_the_column_gather(monkeypatch, method):
    # every curve a fit makes, scaled, shifted or combined, keeps its
    # column's knot array, so no evaluation falls back to np.interp: each
    # one, on a column far shorter than Curve's cutoff, is gathered
    own, gathered, interp, gather = [], [], SortedColumn.interp, smoothers._gather

    def recording(self, knots, values):
        own.append(knots is self.knots)
        return interp(self, knots, values)

    monkeypatch.setattr(SortedColumn, "interp", recording)
    monkeypatch.setattr(smoothers, "_gather", lambda *args: gathered.append(1) or gather(*args))
    data = _friedman_with_group(400, 3, zero_weights=False)
    assert data.n < SORTED_INTERP_POINTS
    span = 0.1 if method == "near_neighbor" else 0.2
    ft.fit(data, FitConfig(numeric_smoother=SmootherSpec(method, span=span)))
    assert own and all(own) and len(gathered) == len(own)


def test_fit_constant_outcome_gives_root_only():
    X = np.random.default_rng(2).normal(size=(50, 2))
    data = Dataset(two_numeric_vars(), X, np.full(50, 4.5))
    with pytest.warns(UserWarning, match="constant outcome"):
        tree = ft.fit(data, FitConfig())
    assert tree.n_nodes == 0
    assert tree.predict(X[:3]) == pytest.approx(4.5)


def test_fit_requires_enough_rows():
    X = np.random.default_rng(2).normal(size=(10, 2))
    data = Dataset(two_numeric_vars(), X, X[:, 0])
    with pytest.raises(ValueError, match="20 rows"):
        ft.fit(data, FitConfig())


@pytest.mark.parametrize("case", ["friedman", "group_zero_weights", "hu", "backfit"])
def test_stored_test_rmse_matches_recomputation(case, friedman_data, friedman_model):
    # the fitter reads the errors it stores and stops on, and the node
    # influences, off the returned tree itself; backfit_pass keeps its input's
    # errors and reads influences off all rows
    tree = None
    if case in ("friedman", "backfit"):
        data, config, tree = friedman_data, FitConfig(), friedman_model
    elif case == "hu":
        data, config = ft.gen_hu(5000, seed=3), FitConfig(max_nodes=24, patience=24)
    else:
        data, config = _friedman_with_group(400, 3, zero_weights=True), FitConfig()
    tree = tree or ft.fit(data, config)
    tr, te = split_indices(data.n, config.split)
    if case == "backfit":
        tree, tr = backfit_pass(tree, data), np.arange(data.n)
    else:
        for rows, key in ((tr, "train_rmse"), (te, "test_rmse")):
            recomputed = rmse(data.y[rows], tree.predict(data.X[rows]), data.weight[rows])
            assert recomputed == tree.train_stats[key]
    want = tree.copy()
    want.recompute_influence(data.X[tr], data.weight[tr])
    assert [n.influence for n in tree.nodes[1:]] == [n.influence for n in want.nodes[1:]]


def test_node_influences_are_basis_sds(friedman_data, friedman_model):
    tr, te = split_indices(friedman_data.n, FitConfig().split)
    B = np.column_stack(friedman_model.node_columns(friedman_data.X[tr])[1][1:])
    sds = B.std(axis=0)
    stored = np.array([n.influence for n in friedman_model.nodes[1:]])
    np.testing.assert_allclose(stored, sds, atol=1e-9)


# ---------------------------------------------------------------------------
# Backfitting
# ---------------------------------------------------------------------------

def test_backfit_root_only_is_identity():
    tree = FunctionTree(two_numeric_vars(), 2.0, [TreeNode(0, -1, None, None)])
    X = np.random.default_rng(0).normal(size=(30, 2))
    data = Dataset(two_numeric_vars(), X, X[:, 0])
    out = backfit_pass(tree, data)
    assert out.b0 == 2.0 and out.n_nodes == 0


def test_backfit_idempotent_single_node_unchanged():
    # categorical single-node tree already holding the exact level means
    rng = np.random.default_rng(3)
    x = np.tile(np.arange(3.0), 20)
    y = np.array([1.0, 4.0, -2.0])[x.astype(int)] + 0.0
    var = (Variable("c", "categorical", levels=("a", "b", "c")),)
    data = Dataset(var, x[:, None], y)
    b0 = y.mean()
    table = LevelTable(np.array([1.0, 4.0, -2.0]) - b0, 0.0)
    tree = FunctionTree(var, b0, [TreeNode(0, -1, None, None), TreeNode(1, 0, 0, table)])
    out = backfit_pass(tree, data)
    np.testing.assert_allclose(out.nodes[1].func.values, table.values, atol=1e-9)
    np.testing.assert_allclose(out.predict(data.X), tree.predict(data.X), atol=1e-9)


def test_backfit_never_increases_training_mse(friedman_data):
    tree = ft.fit(friedman_data, FitConfig(backfit_passes=0, max_nodes=12))
    current = tree
    mse_prev = np.mean((friedman_data.y - current.predict(friedman_data.X)) ** 2)
    for _ in range(3):
        current = backfit_pass(current, friedman_data)
        mse = np.mean((friedman_data.y - current.predict(friedman_data.X)) ** 2)
        assert mse <= mse_prev + 1e-9 * max(1.0, mse_prev)
        mse_prev = mse


def test_backfit_second_pass_changes_less(friedman_data, friedman_model):
    # stabilization: the second pass moves training MSE by clearly less than
    # the first (the strict < 10% check runs at full scale in acceptance)
    y = friedman_data.y
    mse0 = np.mean((y - friedman_model.predict(friedman_data.X)) ** 2)
    t1 = backfit_pass(friedman_model, friedman_data)
    mse1 = np.mean((y - t1.predict(friedman_data.X)) ** 2)
    t2 = backfit_pass(t1, friedman_data)
    mse2 = np.mean((y - t2.predict(friedman_data.X)) ** 2)
    assert mse0 - mse1 >= 0
    assert (mse1 - mse2) < 0.5 * (mse0 - mse1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_predictions(tmp_path):
    data = ft.gen_friedman(1500, seed=23)
    tree = ft.fit(data, FitConfig(max_nodes=9, patience=2))
    path = tmp_path / "m.json"
    ft.save(tree, path)
    back = ft.load(path)
    probe = ft.gen_friedman(1000, seed=77).X
    np.testing.assert_allclose(back.predict(probe), tree.predict(probe), atol=1e-12)
    assert [n.influence for n in back.nodes[1:]] == [n.influence for n in tree.nodes[1:]]


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.json"
    doc = {"format_version": 99, "b0": 0.0, "variables": [], "nodes": []}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatVersionError, match="version"):
        ft.load(path)


def test_roundtrip_root_only(tmp_path):
    tree = FunctionTree(two_numeric_vars(), -2.5, [TreeNode(0, -1, None, None)])
    path = tmp_path / "m.json"
    ft.save(tree, path)
    back = ft.load(path)
    assert back.predict(np.zeros((2, 2)))[0] == -2.5


def test_roundtrip_categorical_nodes(tmp_path):
    rng = np.random.default_rng(8)
    tree = random_tree(rng, p=4, max_nodes=10, categorical=(1, 3))
    X = random_dataset(rng, tree, n=60).X
    path = tmp_path / "m.json"
    ft.save(tree, path)
    np.testing.assert_allclose(ft.load(path).predict(X), tree.predict(X), atol=1e-12)


def test_save_writes_the_json_text_of_the_document(tmp_path):
    tree = random_tree(np.random.default_rng(9), p=4, max_nodes=10, categorical=(1, 3))
    path = tmp_path / "m.json"
    ft.save(tree, path)
    assert path.read_text(encoding="utf-8") == json.dumps(tree.to_dict()) + "\n"


def mixed_kind_tree_doc():
    variables = (
        Variable("n", "numeric", observed_range=(-1.0, 1.0)),
        Variable("c", "categorical", levels=("a", "b")),
    )
    nodes = [
        TreeNode(0, -1, None, None),
        TreeNode(1, 0, 0, identity_curve()),
        TreeNode(2, 1, 1, LevelTable(np.array([1.0, -1.0]), 0.0)),
    ]
    return FunctionTree(variables, 0.5, nodes).to_dict()


@pytest.mark.parametrize("node, change, message", [
    (0, {"var": 99}, "out of range"),
    (0, {"kind": "levels", "values": [1.0, 2.0], "default": 0.0}, "numeric variable"),
    (1, {"kind": "curve", "knots": [0.0, 1.0], "values": [1.0, -1.0]}, "categorical variable"),
])
def test_from_dict_rejects_nodes_inconsistent_with_variables(node, change, message):
    doc = mixed_kind_tree_doc()
    FunctionTree.from_dict(doc)  # the unmodified document loads
    doc["nodes"][node].update(change)
    with pytest.raises(ValueError, match=message):
        FunctionTree.from_dict(doc)


# ---------------------------------------------------------------------------
# Difference trees
# ---------------------------------------------------------------------------

def test_difference_of_identical_trees_is_zero():
    rng = np.random.default_rng(9)
    tree = random_tree(rng, p=4, max_nodes=8)
    X = random_dataset(rng, tree, n=50).X
    d = difference(tree, tree)
    np.testing.assert_allclose(d.predict(X), 0.0, atol=1e-12)


def test_difference_with_extra_node_recovers_basis():
    base = chain_tree(b0=0.0)
    extra = FunctionTree(
        base.variables,
        0.0,
        [
            TreeNode(0, -1, None, None),
            TreeNode(1, 0, 0, identity_curve()),
            TreeNode(2, 1, 1, identity_curve()),
            TreeNode(3, 0, 1, identity_curve()),
        ],
    )
    X = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]])
    d = difference(extra, base)
    np.testing.assert_allclose(d.predict(X), X[:, 1], atol=1e-12)


def test_difference_requires_matching_schema():
    a = chain_tree()
    b = FunctionTree(
        (Variable("z", "numeric"),), 0.0, [TreeNode(0, -1, None, None)]
    )
    with pytest.raises(SchemaMismatchError):
        difference(a, b)
