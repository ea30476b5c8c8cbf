"""Pure-interaction effects, strength ranking, screening, and bootstrap
comparison of constrained refits.

The pure interaction of a variable subset is its partial dependence with all
lower-order sub-effects recursively removed; its strength is the standard
deviation of that component over the data relative to the standard deviation
of the model predictions. The EffectEngine of ``pdengine`` memoizes the
subset lattice so a search over many subsets shares every sub-computation.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .data import Dataset, rmse, take_rows
from .pdengine import (
    CONDITIONAL,
    MAX_ORDER,
    PURE_INTERACTION,
    EffectEngine,
    EffectGrid,
    _fast_grid,
    _mean,
    _product,
    _pure_effect,
    check_subset,
    pd_brute,
    resolve_points,
)
from .smoothers import Curve, LevelTable
from .tree import FitConfig, FunctionTree, fit

__all__ = [
    "EffectEngine",
    "EffectEntry",
    "EffectReport",
    "ScreenH",
    "ScreenR",
    "bootstrap_compare",
    "conditional_interaction",
    "pin",
    "pure_interaction",
    "pure_interaction_brute",
    "screen_h",
    "screen_r",
    "search_effects",
    "strength",
]


# ---------------------------------------------------------------------------
# Public effect operations
# ---------------------------------------------------------------------------

def pure_interaction(tree: FunctionTree, s, points=None, data: Dataset | None = None,
                     resolution: int = 50) -> EffectGrid:
    """Partial dependence of the subset with all lower-order sub-effects
    recursively subtracted; identically zero when the model has no
    interaction among the subset's variables. When no root path contains
    the subset the grid is exact zeros with centre 0.0, at no evaluation
    cost; its alpha is still read off the path variable sets."""
    return _fast_grid(tree, s, points, data, resolution, PURE_INTERACTION)


def strength(tree: FunctionTree, s, data: Dataset) -> float:
    """Interaction strength: sd of the pure interaction over the data rows
    divided by the sd of the model predictions."""
    s = check_subset(s, data, MAX_ORDER)
    return EffectEngine(tree, data).strength(s)


def pin(tree: FunctionTree, cond: dict[int, float]) -> FunctionTree:
    """A tree with the given variables held at fixed values: every node on a
    pinned variable keeps its slot but its function becomes the constant it
    takes at the pinned value."""
    nodes = [replace(tree.nodes[0])]
    for node in tree.nodes[1:]:
        if node.var in cond:
            const = float(node.func(cond[node.var]))
            if isinstance(node.func, LevelTable):
                func = LevelTable(np.array([const]), const)
            else:
                func = Curve(np.array([0.0]), np.array([const]))
            nodes.append(replace(node, func=func))
        else:
            nodes.append(replace(node))
    return FunctionTree(tree.variables, tree.b0, nodes)


def conditional_interaction(tree: FunctionTree, s, cond, points=None,
                            data: Dataset | None = None, resolution: int = 50,
                            method: str = "fast") -> EffectGrid:
    """Pure interaction of the subset with other variables pinned to fixed
    values, ``cond`` mapping each pinned variable's index to its value. The
    pinned model is still a function tree, so the fast path gives
    exactly what brute-force averaging of the restricted predictor gives.
    """
    s = check_subset(s, data, MAX_ORDER)
    cond_map = {int(v): float(val) for v, val in cond.items()}
    if cond_map:
        check_subset(cond_map, data)
    if set(cond_map) & set(s):
        raise ValueError("conditioning variables must be disjoint from the subset")
    for j, val in cond_map.items():
        var = tree.variables[j]
        rng = var.observed_range
        if rng is not None and not rng[0] <= val <= rng[1]:
            warnings.warn(
                f"{var.name}: pinned value {val} lies outside the observed range; "
                "constant extrapolation applies", stacklevel=2,
            )
    if method == "fast":
        grid = pure_interaction(pin(tree, cond_map), s, points, data, resolution)
    elif method == "brute":
        def restricted(X: np.ndarray) -> np.ndarray:
            Xm = np.array(X, dtype=float, copy=True)
            for j, val in cond_map.items():
                Xm[:, j] = val
            return tree.predict(Xm)

        grid = pure_interaction_brute(restricted, s, points, data, resolution)
    else:
        raise ValueError("method must be 'fast' or 'brute'")
    grid.kind = CONDITIONAL
    return grid


def pure_interaction_brute(predict_fn, s, points=None, data: Dataset | None = None,
                           resolution: int = 50) -> EffectGrid:
    """Pure interaction of a black-box predictor via brute-force partial
    dependences (reference path: N * N_z evaluations per subset)."""
    s, pts, axes = resolve_points(data, s, points, resolution)
    evals = 0.0

    def centred_pd(u: tuple) -> np.ndarray:
        nonlocal evals
        uniq, inverse = np.unique(pts[:, [s.index(v) for v in u]], axis=0, return_inverse=True)
        grid = pd_brute(predict_fn, u, uniq, data)
        evals += grid.eval_count
        return grid.values[inverse]

    values = _pure_effect(s, centred_pd, {})
    return EffectGrid(
        subset=s,
        variables=tuple(data.variables[j] for j in s),
        points=pts,
        values=values,
        kind=PURE_INTERACTION,
        center=0.0,
        alpha=None,
        eval_count=evals,
        axes=axes,
    )


# ---------------------------------------------------------------------------
# Screening
# ---------------------------------------------------------------------------

# both screens keep what reaches this fraction of their scale
SCREEN_FRACTION = 0.05

@dataclass
class ScreenH:
    """Per-variable interaction scores from the two-sided partial-dependence
    residual; variables below the threshold are treated as non-interacting."""

    scores: np.ndarray
    threshold: float
    flagged: tuple[int, ...]


def screen_h(tree: FunctionTree, data: Dataset) -> ScreenH:
    """Score sqrt(E[(F - PD(x_j) - PD(rest))^2]) per variable, with each
    partial dependence centred, and flag the variables scoring at least
    ``SCREEN_FRACTION`` of the prediction sd. A path on x_j alone, or
    without it, adds the same to F as to PD(x_j) + PD(rest) up to a
    constant, so a variable on no mixed path scores exactly 0."""
    return _screen_h(EffectEngine(tree, data))


def _screen_h(eng: EffectEngine) -> ScreenH:
    """``screen_h`` from the node columns of an engine's pair, on all the
    data's rows. A path that mixes x_j with other variables (a mixed term
    of the split against x_j) puts f * g into F, where f is the product of
    its x_j nodes and g of the others, and f * g-bar + f-bar * g into
    PD(x_j) + PD(rest); what is left is (f - f-bar) * (g - g-bar) up to a
    constant, the bars weighted data means. The score is the weighted rms
    of their sum, centred."""
    data, cols = eng.data, eng.node_values
    w, w_sum = data.weight, eng._data_w_sum
    scores = np.zeros(data.p)
    for j in range(data.p):
        mixed = [t for t in eng.split(frozenset([j])).terms if t.comp_nodes]
        if mixed:
            resid = sum((_product(cols, t.z_nodes) - eng.node_mean(t.z_nodes))
                        * (_product(cols, t.comp_nodes) - t.gbar) for t in mixed)
            scores[j] = float(np.sqrt(_mean((resid - _mean(resid, w, w_sum)) ** 2, w, w_sum)))
    pred_c = eng.pred_full - _mean(eng.pred_full, w, w_sum)
    threshold = SCREEN_FRACTION * float(np.sqrt(_mean(pred_c**2, w, w_sum)))
    flagged = tuple(int(j) for j in range(data.p) if scores[j] >= threshold)
    return ScreenH(scores, threshold, flagged)


@dataclass
class ScreenR:
    """Influence mass of each variable at each interaction level: the sum of
    basis standard deviations over nodes whose paths contain the variable at
    that exact interaction order."""

    matrix: np.ndarray
    threshold: float

    def included(self, level: int) -> tuple[int, ...]:
        """Variables with substantial mass at ``level`` or any higher level."""
        if level >= self.matrix.shape[1]:
            return ()
        tail = self.matrix[:, level:].max(axis=1)
        return tuple(int(j) for j in range(len(tail)) if tail[j] > 0 and tail[j] >= self.threshold)


def screen_r(tree: FunctionTree, data: Dataset | None = None) -> ScreenR:
    """Per-(variable, level) influence mass from the stored node influences,
    recomputed from ``data`` on a copy of the tree when any influence is
    missing. The inclusion threshold is ``SCREEN_FRACTION`` of the largest
    entry over all variables and levels."""
    if any(np.isnan(n.influence) for n in tree.nodes[1:]):
        if data is None:
            raise ValueError("tree has no stored influences; pass data to recompute")
        tree = tree.copy()
        tree.recompute_influence(data.X, data.weight)
    p = len(tree.variables)
    max_level = max(tree.max_interaction_order(), 1)
    R = np.zeros((p, max_level + 1))
    for node in tree.nodes[1:]:
        order = tree.interaction_order(node.id)
        for j in tree.path_vars(node.id):
            R[j, order] += node.influence
    return ScreenR(R, SCREEN_FRACTION * float(R.max(initial=0.0)))


# ---------------------------------------------------------------------------
# Effect search
# ---------------------------------------------------------------------------

@dataclass
class EffectEntry:
    subset: tuple[int, ...]
    names: tuple[str, ...]
    order: int
    strength: float
    strength_pa: float | None = None


@dataclass
class EffectReport:
    """Ranked effect entries (descending strength within order) plus the
    screening provenance and the evaluation-cost accounting of the search;
    ``names`` labels the searched data's variables."""

    entries: list[EffectEntry]
    names: tuple[str, ...]
    screening: dict | None
    fast_evals: float
    brute_equiv: float

    def top(self, order: int | None = None, k: int = 10) -> list[EffectEntry]:
        pool = [e for e in self.entries if order is None or e.order == order]
        return pool[:k] if order is not None else sorted(pool, key=lambda e: -e.strength)[:k]

    def entry(self, subset) -> EffectEntry | None:
        """The subset's entry, or None when the search did not report it:
        outside its order's pool, or dead (no root path contains it, so its
        strength is exactly 0)."""
        key = frozenset(subset)
        for e in self.entries:
            if frozenset(e.subset) == key:
                return e
        return None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ["subset", "order", "strength"]
            if any(e.strength_pa is not None for e in self.entries):
                header.append("strength_pa")
            writer.writerow(header)
            for e in self.entries:
                row = [";".join(e.names), e.order, repr(e.strength)]
                if len(header) == 4:
                    row.append("" if e.strength_pa is None else repr(e.strength_pa))
                writer.writerow(row)

    def screening_text(self) -> str:
        if self.screening is None:
            return "screening disabled\n"
        h: ScreenH = self.screening["h"]
        r: ScreenR = self.screening["r"]
        pools: dict[int, tuple[int, ...]] = self.screening["pools"]
        names = self.names
        lines = [f"h-screen threshold: {h.threshold:.6g}"]
        lines.append("h-scores: " + ", ".join(f"{names[j]}={h.scores[j]:.4g}" for j in range(len(h.scores))))
        lines.append("interacting variables: " + (", ".join(names[j] for j in h.flagged) or "(none)"))
        lines.append(f"r-screen threshold: {r.threshold:.6g}")
        for level in range(1, r.matrix.shape[1]):
            row = ", ".join(
                f"{names[j]}={r.matrix[j, level]:.4g}" for j in range(r.matrix.shape[0])
                if r.matrix[j, level] > 0
            )
            lines.append(f"r level {level}: {row or '(none)'}")
        for order, pool in sorted(pools.items()):
            lines.append(f"order-{order} search pool: " + (", ".join(names[j] for j in pool) or "(none)"))
        return "\n".join(lines) + "\n"


def _live_subsets(eng: EffectEngine, pool: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """The size-k subsets of the ascending ``pool`` that some root path's
    variable set contains, in ``combinations(pool, k)`` order."""
    inside = set(pool)
    return sorted(tuple(sorted(s)) for s in eng._live if len(s) == k and s <= inside)


def search_effects(tree: FunctionTree, data: Dataset, max_order: int = 3,
                   use_screens: bool = True, with_pa: bool = False,
                   strength_rows: int | None = None, seed: int = 0) -> EffectReport:
    """Rank the live variable subsets up to ``max_order`` (at most
    ``MAX_ORDER``) by interaction strength, and report the screening path.

    A subset is live when some root path's variable set contains it; every
    other subset has strength exactly 0 and is left out of the report, so
    the search costs what the tree holds, not C(p, k). Each order's live
    subsets are taken in ``combinations`` order and sorted stably by
    strength. With screening on, main effects are searched over variables
    carrying any influence mass, and order-n subsets over the interacting
    variables that also carry mass at level n or higher. ``strength_rows``
    caps the number of rows used for the strength variance (seeded
    subsample).
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be between 1 and {MAX_ORDER}")
    rows = None
    if strength_rows is not None and strength_rows < data.n:
        rows = np.sort(np.random.default_rng(seed).choice(data.n, strength_rows, replace=False))
    eng = EffectEngine(tree, data, rows=rows)
    eng_pa = EffectEngine(tree, data, rows=rows, use_pa=True) if with_pa else None

    screening = None
    if use_screens:
        hres = _screen_h(eng)
        rres = screen_r(tree, data)
        pools = {1: rres.included(1)}
        for order in range(2, max_order + 1):
            pools[order] = tuple(sorted(set(hres.flagged) & set(rres.included(order))))
        screening = {"h": hres, "r": rres, "pools": pools}
    else:
        pools = {order: tuple(range(data.p)) for order in range(1, max_order + 1)}

    entries: list[EffectEntry] = []
    for order in range(1, max_order + 1):
        batch = []
        for s in _live_subsets(eng, pools[order], order):
            st = eng.strength(s)
            st_pa = eng_pa.strength(s) if eng_pa is not None else None
            batch.append(EffectEntry(s, tuple(data.variables[j].name for j in s), order, st, st_pa))
        batch.sort(key=lambda e: -e.strength)
        entries.extend(batch)
    return EffectReport(entries, data.names, screening, eng.fast_evals, eng.brute_equiv)


# ---------------------------------------------------------------------------
# Bootstrap comparison
# ---------------------------------------------------------------------------

@dataclass
class BootstrapResult:
    """Out-of-bootstrap test-error distributions, one row per configuration."""

    labels: list[str]
    test_rmse: np.ndarray

    def quantiles(self, qs=(0.25, 0.5, 0.75)) -> np.ndarray:
        return np.quantile(self.test_rmse, qs, axis=1).T

    def medians(self) -> np.ndarray:
        return np.median(self.test_rmse, axis=1)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["config", "replicate", "test_rmse"])
            for label, row in zip(self.labels, self.test_rmse):
                for rep, val in enumerate(row):
                    writer.writerow([label, rep, repr(float(val))])


def bootstrap_compare(data: Dataset, configs: list[FitConfig], reps: int, seed: int = 0,
                      labels: list[str] | None = None) -> BootstrapResult:
    """Fit every configuration on shared bootstrap resamples and score each
    on the rows left out of that resample; identical configurations produce
    identical distributions under the shared replicate seeds."""
    if reps < 2:
        raise ValueError("need at least 2 replicates")
    if labels is None:
        labels = [f"config{i}" for i in range(len(configs))]
    out = np.empty((len(configs), reps))
    seeds = np.random.SeedSequence(seed).spawn(reps)
    for rep in range(reps):
        rng = np.random.default_rng(seeds[rep])
        idx = rng.integers(0, data.n, size=data.n)
        oob = np.setdiff1d(np.arange(data.n), np.unique(idx))
        if len(oob) < 2:
            idx = rng.integers(0, data.n, size=data.n)
            oob = np.setdiff1d(np.arange(data.n), np.unique(idx))
        boot = take_rows(data, idx)
        held = take_rows(data, oob)
        for c, config in enumerate(configs):
            model = fit(boot, config)
            out[c, rep] = rmse(held.y, model.predict(held.X), held.weight)
    return BootstrapResult(list(labels), out)
