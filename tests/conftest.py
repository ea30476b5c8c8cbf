"""Shared fixtures: small fitted models reused across test modules."""

from __future__ import annotations

import numpy as np
import pytest

import functree as ft
from functree.data import NUMERIC, CATEGORICAL, Dataset, Variable
from functree.smoothers import Curve, LevelTable, smooth, thin_knots, weight_floor
from functree.tree import FunctionTree, TreeNode


@pytest.fixture(scope="session")
def friedman_data():
    return ft.gen_friedman(2500, seed=41)


@pytest.fixture(scope="session")
def friedman_model(friedman_data):
    return ft.fit(friedman_data, ft.FitConfig())


def random_tree(rng: np.random.Generator, p: int = 6, max_nodes: int = 15,
                categorical: tuple[int, ...] = ()) -> FunctionTree:
    """Random small tree over p variables; function values kept modest so
    deep path products stay well scaled."""
    variables = []
    for j in range(p):
        if j in categorical:
            levels = tuple(f"l{i}" for i in range(rng.integers(2, 5)))
            variables.append(Variable(f"v{j}", CATEGORICAL, levels=levels))
        else:
            variables.append(Variable(f"v{j}", NUMERIC, observed_range=(-2.0, 2.0)))
    nodes = [TreeNode(0, -1, None, None)]
    n_nodes = int(rng.integers(1, max_nodes + 1))
    for k in range(1, n_nodes + 1):
        parent = int(rng.integers(0, k))
        var = int(rng.integers(0, p))
        if variables[var].is_categorical:
            vals = rng.uniform(-1.2, 1.2, size=len(variables[var].levels))
            func = LevelTable(vals, float(vals.mean()))
        else:
            knots = np.sort(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 8))))
            knots = np.unique(knots)
            func = Curve(knots, rng.uniform(-1.2, 1.2, size=len(knots)))
        nodes.append(TreeNode(k, parent, var, func))
    return FunctionTree(tuple(variables), float(rng.normal()), nodes)


def random_dataset(rng: np.random.Generator, tree: FunctionTree, n: int = 150) -> Dataset:
    cols = []
    for v in tree.variables:
        if v.is_categorical:
            cols.append(rng.integers(0, v.n_levels, size=n).astype(float))
        else:
            cols.append(rng.normal(0.0, 1.0, size=n))
    X = np.column_stack(cols)
    y = tree.predict(X) + rng.normal(0.0, 0.1, size=n)
    return Dataset(tree.variables, X, y)


def reference_smooth(x, r, w, spec, *, knots=None):
    """The full-row numeric smoother: the windowed fit at every row, from
    cumulative sums over all rows, one weighted mean per distinct x, then
    interpolation at the knots (by default the distinct x, thinned as
    ``smooth`` thins them). Rows below the weight floor keep their rank and
    weigh nothing; so does a row whose window has no weight. Interpolation
    reads the x group at each knot, or the two groups around a knot that no
    row holds, and skips those of them without weight. Returns the curve
    and kappa, the scale of the tolerance ``smooth`` states against this
    fit: 1, or for a local linear fit the largest E[x^2] / Var[x] (weighted
    by w^2) of a window that fits a slope, if larger. Categorical specs go
    to ``smooth``, with kappa 1."""
    if spec.method == "categorical_mean":
        return smooth(x, r, w, spec), 1.0
    x, r, w = (np.asarray(a, dtype=float) for a in (x, r, w))
    keep = (np.abs(w) >= weight_floor(w)) & (w != 0.0)
    if not keep.any():
        raise ValueError("all rows excluded by the basis-weight floor")
    sidx = np.argsort(x, kind="stable")
    xs = x[sidx]
    omega = np.where(keep, w * w, 0.0)[sidx]
    rw = np.where(keep, r * w, 0.0)[sidx]
    n = len(xs)
    m = max(2, int(round(spec.resolved_span() * n)))
    i = np.arange(n)
    lo, hi = np.maximum(i - (m - 1) // 2, 0), np.minimum(i + m // 2, n - 1)

    def wsum(v):
        c = np.concatenate([[0.0], np.cumsum(v)])
        return c[hi + 1] - c[lo]

    s0 = wsum(omega)
    has = s0 > 0.0
    s0 = np.where(has, s0, 1.0)
    kappa = 1.0
    if spec.method == "near_neighbor":
        vals = wsum(rw) / s0
    else:
        xbar = wsum(omega * xs) / s0
        tbar = wsum(rw) / s0
        x2bar = wsum(omega * xs * xs) / s0
        varx = x2bar - xbar**2
        covxt = wsum(rw * xs) / s0 - xbar * tbar
        span_x = float(xs[-1] - xs[0])
        good = varx > max(1e-12 * span_x * span_x, 1e-300)
        slope = np.where(good, covxt / np.where(good, varx, 1.0), 0.0)
        vals = tbar + slope * (xs - xbar)
        if good.any():
            kappa = max(1.0, float(np.max(x2bar[good] / varx[good])))
    omega = np.where(has, omega, 0.0)
    uniq, start = np.unique(xs, return_index=True)
    gw = np.add.reduceat(omega, start)
    gsum = np.add.reduceat(omega * vals, start)
    if knots is None:
        knots = thin_knots(uniq)
    at = np.searchsorted(uniq, knots)
    hit = (at < len(uniq)) & (uniq[np.minimum(at, len(uniq) - 1)] == knots)
    read = np.zeros(len(uniq), dtype=bool)
    read[at[hit]] = True
    read[at[~hit & (at > 0)] - 1] = True
    read[at[~hit & (at < len(uniq))]] = True
    use = read & (gw > 0.0)
    if not use.any():
        raise ValueError("no knot group has weight")
    return Curve(knots, np.interp(knots, uniq[use], gsum[use] / gw[use])), kappa
