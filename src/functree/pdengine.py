"""Partial dependence and partial association over function trees.

A tree model restricted to a variable subset z splits every basis function
into a product of its z-side factors and its complement-side factors. Partial
dependence then needs only the data means of the complement products, turning
an N x N_z brute-force average into a small linear combination of z-side
functions. ``EffectEngine`` builds that split once per subset; partial
dependence, partial association and the pure-interaction search all read
their values off it.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .data import Dataset, Variable
from .smoothers import Curve, Points, SplineDesign
from .tree import FunctionTree, model_sum

PD = "pd"
PA = "pa"
PURE_INTERACTION = "pure_interaction"
CONDITIONAL = "conditional"

# the largest subset ``pa`` takes
MAX_PA_VARS = 2
# the largest subset whose pure or conditional interaction or strength is
# computed, and the highest order the effect search reaches
MAX_ORDER = 4


@dataclass
class EffectGrid:
    """Evaluation points over a variable subset plus centered effect values.

    ``points`` has one column per subset variable (in subset order); when the
    grid is a Cartesian product the per-variable axes are kept for reshaping.
    ``center`` is the constant subtracted so the effect has zero weighted
    mean over the data distribution of the subset.
    """

    subset: tuple[int, ...]
    variables: tuple[Variable, ...]
    points: np.ndarray
    values: np.ndarray
    kind: str
    center: float = 0.0
    alpha: float | None = None
    eval_count: float = 0.0
    axes: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def n_points(self) -> int:
        return len(self.values)

    def grid_values(self) -> np.ndarray:
        """Values reshaped to one axis per subset variable (product grids)."""
        if self.axes is None:
            raise ValueError("effect grid was built from explicit points, not a product grid")
        return self.values.reshape([len(a) for a in self.axes])

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))


def write_effect_csv(grid: EffectGrid, path) -> None:
    """Write an effect grid as CSV with '#' metadata lines (kind, subset,
    centering constant, alpha) followed by one column per variable, where a
    categorical variable's cells are level names, plus ``value``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# kind: {grid.kind}\n")
        fh.write(f"# subset: {';'.join(grid.names)}\n")
        fh.write(f"# center: {grid.center!r}\n")
        if grid.alpha is not None:
            fh.write(f"# alpha: {grid.alpha!r}\n")
        fh.write(f"# evaluations: {grid.eval_count!r}\n")
        writer = csv.writer(fh)
        writer.writerow(list(grid.names) + ["value"])
        for pt, val in zip(grid.points, grid.values):
            row = [v.levels[int(c)] if v.is_categorical else repr(float(c))
                   for v, c in zip(grid.variables, pt)]
            writer.writerow(row + [repr(float(val))])


# ---------------------------------------------------------------------------
# Evaluation points
# ---------------------------------------------------------------------------

def default_axis(data: Dataset, j: int, resolution: int = 50) -> np.ndarray:
    """Default evaluation values for one variable: every level for
    categoricals, otherwise ``resolution`` equally spaced midpoint quantiles
    ((i - 0.5) / resolution) of the training values, which keeps the grid off
    the extreme order statistics."""
    v = data.variables[j]
    if v.is_categorical:
        return np.arange(v.n_levels, dtype=float)
    probs = (np.arange(resolution) + 0.5) / resolution
    return np.unique(np.quantile(data.X[:, j], probs))


def product_points(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def resolve_points(data: Dataset, subset, points, resolution: int = 50,
                   max_size: int | None = None):
    """The subset, checked by ``check_subset``, and a points argument
    normalized: (subset, points_matrix, axes_or_None).

    ``points`` may be None (default product grid), a list of per-variable
    1-d arrays (product grid), or an explicit (n, |subset|) matrix.
    """
    subset = check_subset(subset, data, max_size)
    if points is None:
        axes = tuple(default_axis(data, j, resolution) for j in subset)
        return subset, product_points(axes), axes
    if isinstance(points, (list, tuple)) and len(points) == len(subset):
        axes = tuple(np.asarray(a, dtype=float).ravel() for a in points)
        return subset, product_points(axes), axes
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and len(subset) == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != len(subset):
        raise ValueError("points must have one column per subset variable")
    return subset, pts, None


# ---------------------------------------------------------------------------
# Subset decomposition
# ---------------------------------------------------------------------------

def _proper_subsets(s: tuple) -> list[tuple]:
    out: list[tuple] = []
    for size in range(1, len(s)):
        out.extend(combinations(s, size))
    return out


def _pure_effect(subset: tuple, total, memo: dict) -> np.ndarray:
    """Inclusion-exclusion over the subset lattice: ``total(subset)`` minus
    the pure effects of every proper subset, smallest first and in the
    subset's own order. Each result is memoized in ``memo`` by subset."""
    cached = memo.get(subset)
    if cached is None:
        cached = total(subset)
        for u in _proper_subsets(subset):
            cached = cached - _pure_effect(u, total, memo)
        memo[subset] = cached
    return cached


class _Term(NamedTuple):
    """One basis function split against a subset: path nodes inside the
    subset, path nodes outside it (none when the whole path is inside), and
    the data mean of the outside product."""

    node_id: int
    z_nodes: tuple[int, ...]
    comp_nodes: tuple[int, ...]
    gbar: float


class _Split(NamedTuple):
    abar: float
    terms: list[_Term]
    alpha: float


def _product(columns: list[np.ndarray], nodes: tuple[int, ...]) -> np.ndarray:
    """Product of the given nodes' columns (read-only: a single node's is
    the column itself)."""
    out = columns[nodes[0]]
    for m in nodes[1:]:
        out = out * columns[m]
    return out


def _mean(a: np.ndarray, w: np.ndarray, w_sum: float) -> np.floating:
    """``np.average(a, weights=w)`` given ``w_sum = w.sum()``: numpy's own
    arithmetic (numpy >= 1.23), without its per-call checks and weight sum."""
    if w_sum == 0.0:
        raise ZeroDivisionError("Weights sum to zero, can't be normalized")
    return np.multiply(a, w).sum() / w_sum


class EffectEngine:
    """Shared caches for subset-effect computation on one (tree, data) pair.

    ``split`` expresses the tree against a subset z as
    A + sum_k f_k(z) * g_k(complement); partial dependence, partial
    association and pure interactions are all read off that split.
    Strengths are evaluated at the data rows' own subset values (optionally a
    seeded row subsample via ``rows``); grids reuse the same centering
    constants. ``use_pa`` swaps the fixed complement means for partial
    association coefficient functions. ``fast_evals`` accumulates the
    decomposition-path evaluation cost per computed effect; ``brute_equiv``
    the matching brute-force cost.
    """

    def __init__(self, tree: FunctionTree, data: Dataset, *, rows: np.ndarray | None = None,
                 use_pa: bool = False):
        self.tree = tree
        self.data = data
        self.node_values, self.basis = tree.node_columns(data.X)
        B = np.column_stack(self.basis)
        self._data_w_sum = data.weight.sum()
        self.basis_mean = (data.weight @ B) / float(self._data_w_sum)
        self.pred_full = model_sum(tree.b0, B)
        # each basis's path as (node, variable) pairs, and its variable set
        self.paths = [tuple((m, tree.nodes[m].var) for m in tree.path(k))
                      for k in range(1, len(tree.nodes))]
        self.pathvars = [frozenset(var for _, var in p) for p in self.paths]
        # what depends only on (tree, data), shared by siblings: splits by
        # subset, complement means by node tuple and PA coefficient curves
        # by (z-side nodes, complement nodes)
        self._splits: dict[frozenset, _Split] = {}
        self._gbar: dict[tuple, float] = {}
        self._pa_curves: dict[tuple, Curve] = {}
        self._start(rows, use_pa)

    def _start(self, rows: np.ndarray | None, use_pa: bool) -> None:
        self.use_pa = use_pa
        self.rows = np.arange(self.data.n) if rows is None else np.asarray(rows)
        # on all rows the columns are read in place: nothing below writes
        # into them
        take = slice(None) if rows is None else self.rows
        self.w, self.pred = self.data.weight[take], self.pred_full[take]
        self._values_at_rows = [v[take] for v in self.node_values]
        self._basis_at_rows = [b[take] for b in self.basis]
        self.w_sum = self.w.sum()
        self._pred_var: float | None = None
        # centring constants by subset and pure interactions at the rows by
        # sorted subset tuple. Over one analyze-hu30 round (seed 7) _i_rows
        # had 120 hits in 205 lookups and _centers 4 in 16; of the shared
        # memos, _splits had 52 in 233, _gbar 230 in 381 and _pa_curves 24
        # in 72, whose 48 misses fit splines through 30 designs
        self._centers: dict[frozenset, float] = {}
        self._i_rows: dict[tuple, np.ndarray] = {}
        self.fast_evals = 0.0
        self.brute_equiv = 0.0

    def sibling(self, *, rows: np.ndarray | None = None, use_pa: bool = False) -> "EffectEngine":
        """A new engine on the same tree and data, with its own rows,
        row-dependent caches and counters, that shares this engine's node
        evaluations, splits, complement means and coefficient curves."""
        eng = copy.copy(self)
        eng._start(rows, use_pa)
        return eng

    # -- decomposition against a subset -------------------------------------

    def split(self, key: frozenset) -> _Split:
        """The tree as A + sum_k f_k(z) * g_k(complement) for subset ``key``:
        bases touching no subset variable fold into ``abar``, every other
        basis becomes a term; ``alpha`` is the share of bases that mix both
        sides."""
        cached = self._splits.get(key)
        if cached is not None:
            return cached
        abar = self.tree.b0
        terms = []
        n_mixed = 0
        for idx, pv in enumerate(self.pathvars):
            node_id = idx + 1
            if not (pv & key):
                abar += float(self.basis_mean[node_id])
                continue
            path = self.paths[idx]
            z_nodes = tuple(m for m, var in path if var in key)
            comp_nodes = tuple(m for m, var in path if var not in key)
            if not comp_nodes:
                gbar = 1.0
            else:
                n_mixed += 1
                gbar = self._gbar.get(comp_nodes)
                if gbar is None:
                    gbar = float(_mean(_product(self.node_values, comp_nodes),
                                       self.data.weight, self._data_w_sum))
                    self._gbar[comp_nodes] = gbar
            terms.append(_Term(node_id, z_nodes, comp_nodes, gbar))
        total = len(self.pathvars)
        out = _Split(abar, terms, n_mixed / total if total else 0.0)
        self._splits[key] = out
        return out

    def _term_f_rows(self, term: _Term) -> np.ndarray:
        """The term's z-side product at the engine's rows (read-only: it may
        be a node column itself)."""
        if not term.comp_nodes:
            return self._basis_at_rows[term.node_id]
        return _product(self._values_at_rows, term.z_nodes)

    def _coeff(self, term: _Term, group: list[_Term] | tuple = ()) -> Curve:
        """Partial-association coefficient function of a mixed term, fitted
        on the full data rows. The terms of ``group`` (mixed terms on the
        same z-side product) that lack one are fitted with it, through one
        spline design that is dropped on return."""
        pair = (term.z_nodes, term.comp_nodes)
        if pair not in self._pa_curves:
            # a constant product or n < 30 leaves the complement mean
            fr = _product(self.node_values, term.z_nodes)
            flat = float(np.ptp(fr)) <= 1e-12 * max(1.0, float(np.abs(fr).max())) or self.data.n < 30
            design = None if flat else SplineDesign(fr)
            for t in (term, *group):
                if (t.z_nodes, t.comp_nodes) not in self._pa_curves:
                    self._pa_curves[(t.z_nodes, t.comp_nodes)] = (
                        Curve(np.array([0.0]), np.array([t.gbar])) if design is None
                        else coefficient_curve(design, _product(self.node_values, t.comp_nodes)))
        return self._pa_curves[pair]

    # -- effect values -------------------------------------------------------

    def _effect(self, key: frozenset, n: int, f_of) -> np.ndarray:
        """Uncentered effect A + sum_k f_k * g_k at n points, where
        ``f_of(term)`` gives the term's z-side product f_k there; the cost
        is added to the counters. With ``use_pa`` the mixed terms on one
        z-side product share one spline design for their coefficients and
        f's ``Points`` until the last of them."""
        split = self.split(key)
        out = np.full(n, split.abar)
        mixed = [t.z_nodes if self.use_pa and t.comp_nodes else None for t in split.terms]
        shared: dict[tuple, Points] = {}
        for i, (term, z) in enumerate(zip(split.terms, mixed)):
            if z is None:
                out += term.gbar * f_of(term)
                continue
            coeff = self._coeff(term, [t for t, m in zip(split.terms, mixed) if m == z])
            if z not in shared:
                shared[z] = Points(f_of(term))
            at = shared[z] if z in mixed[i + 1:] else shared.pop(z)
            out += at.x * coeff.at(at)
        self.fast_evals += n + split.alpha * self.data.n
        self.brute_equiv += float(n) * self.data.n
        return out

    def center(self, key: frozenset) -> float:
        if key not in self._centers:
            self.rows_centered(key)
        return self._centers[key]

    def rows_centered(self, key: frozenset) -> np.ndarray:
        raw = self._effect(key, len(self.rows), self._term_f_rows)
        c = self._centers[key] = float(_mean(raw, self.w, self.w_sum))
        return raw - c

    def effect_at(self, subset: tuple, pts: np.ndarray) -> np.ndarray:
        """Centered effect (PD or PA) at explicit points whose columns follow
        the subset; each node on a subset variable is evaluated once, and
        the curves on one knot vector share one location of its column."""
        key = frozenset(subset)
        at = {j: Points(pts[:, i]) for i, j in enumerate(subset)}
        values = {m: node.func.at(at[node.var]) for m, node in enumerate(self.tree.nodes)
                  if node.var in at}
        out = self._effect(key, len(pts), lambda term: _product(values, term.z_nodes))
        return out - self.center(key)

    def live(self, key: frozenset) -> bool:
        """Whether some root path's variable set contains the subset. The
        pure interaction (PD or PA) of a dead subset is identically zero:
        each term's path misses some subset variable v, so the term adds
        the same to the effects of u and u + v, and inclusion-exclusion
        cancels them in pairs."""
        return any(key <= pv for pv in self.pathvars)

    def i_rows(self, key: frozenset) -> np.ndarray:
        """Pure interaction of the subset at the engine's rows."""
        if not self.live(key):
            return np.zeros(len(self.rows))
        return _pure_effect(tuple(sorted(key)), lambda u: self.rows_centered(frozenset(u)),
                           self._i_rows)

    def i_at(self, subset: tuple, pts: np.ndarray) -> np.ndarray:
        """Pure interaction at explicit points whose columns follow
        ``subset``."""
        subset = tuple(subset)
        if not self.live(frozenset(subset)):
            return np.zeros(len(pts))
        return _pure_effect(
            subset, lambda u: self.effect_at(u, pts[:, [subset.index(v) for v in u]]), {})

    def strength(self, subset) -> float:
        if self._pred_var is None:
            mean = _mean(self.pred, self.w, self.w_sum)
            # constancy is tested exactly: a constant's weighted mean can be
            # an ulp off and leave a variance of about 1e-33
            var = float(_mean((self.pred - mean) ** 2, self.w, self.w_sum))
            self._pred_var = var if np.ptp(self.pred[self.w > 0]) > 0.0 else 0.0
        if self._pred_var <= 0.0:
            raise ValueError("model predictions are constant; strength is undefined")
        key = frozenset(subset)
        if not self.live(key):
            return 0.0
        iv = self.i_rows(key)
        return float(np.sqrt(_mean(iv**2, self.w, self.w_sum) / self._pred_var))


# ---------------------------------------------------------------------------
# Partial dependence
# ---------------------------------------------------------------------------

def check_subset(subset, data: Dataset | None, max_size: int | None = None) -> tuple[int, ...]:
    """A subset as a tuple of 1 to ``max_size`` (default all) distinct
    variable indices of ``data``, which every effect needs: it defines the
    averaging distribution."""
    if data is None:
        raise ValueError("data is required (it defines the averaging distribution)")
    subset = tuple(subset)
    if not all(isinstance(j, (int, np.integer)) and 0 <= j < data.p for j in subset):
        raise ValueError(f"variable indices must be integers in 0..{data.p - 1}, got {subset}")
    size = data.p if max_size is None else max_size
    if not 1 <= len(subset) <= size or len(set(subset)) != len(subset):
        raise ValueError(f"subset must hold distinct variable indices, 1 <= size <= {size}")
    return subset


def _fast_grid(tree: FunctionTree, subset, points, data: Dataset | None, resolution: int,
               kind: str) -> EffectGrid:
    """A centred PD, PA or pure-interaction grid read off one engine's split
    of the tree. Partial association takes subsets of at most
    ``MAX_PA_VARS`` variables, a pure interaction at most ``MAX_ORDER``; the
    grid's ``eval_count`` is what the engine counted, centring included."""
    limit = {PA: MAX_PA_VARS, PURE_INTERACTION: MAX_ORDER}.get(kind)
    subset, pts, axes = resolve_points(data, subset, points, resolution, limit)
    eng = EffectEngine(tree, data, use_pa=kind == PA)
    key = frozenset(subset)
    values = eng.i_at(subset, pts) if kind == PURE_INTERACTION else eng.effect_at(subset, pts)
    return EffectGrid(
        subset=subset,
        variables=tuple(data.variables[j] for j in subset),
        points=pts,
        values=values,
        kind=kind,
        center=eng.center(key),
        alpha=eng.split(key).alpha,
        eval_count=eng.fast_evals,
        axes=axes,
    )


def pd_fast(tree: FunctionTree, subset, points=None, data: Dataset | None = None,
            resolution: int = 50) -> EffectGrid:
    """Partial dependence via the tree decomposition, centered to zero
    weighted mean over the data's subset distribution."""
    return _fast_grid(tree, subset, points, data, resolution, PD)


def pd_brute(predict_fn, subset, points=None, data: Dataset | None = None,
             resolution: int = 50) -> EffectGrid:
    """Brute-force partial dependence of a black-box row function.

    Every evaluation point is averaged over all data rows with the subset
    columns overwritten (N * N_z function evaluations). The estimate is also
    averaged at each of the U distinct subset values of the data rows, which
    centres it exactly like the fast path and costs N * U more: about N^2
    on a numeric column, whatever the grid size. ``eval_count`` carries the
    total N * (N_z + U).
    """
    subset, pts, axes = resolve_points(data, subset, points, resolution)
    cols = list(subset)

    def averaged(at_points: np.ndarray) -> np.ndarray:
        out = np.empty(len(at_points))
        buf = data.X.copy()
        for i, pt in enumerate(at_points):
            buf[:, cols] = pt
            out[i] = np.average(predict_fn(buf), weights=data.weight)
        return out

    values = averaged(pts)
    uniq, inverse = np.unique(data.X[:, cols], axis=0, return_inverse=True)
    c = float(np.average(averaged(uniq)[inverse], weights=data.weight))
    evals = float(len(pts)) * data.n + float(len(uniq)) * data.n
    return EffectGrid(
        subset=subset,
        variables=tuple(data.variables[j] for j in subset),
        points=pts,
        values=values - c,
        kind=PD,
        center=c,
        alpha=None,
        eval_count=evals,
        axes=axes,
    )


# ---------------------------------------------------------------------------
# Partial association
# ---------------------------------------------------------------------------

def coefficient_curve(design: SplineDesign, g_values: np.ndarray) -> Curve:
    """Varying-coefficient estimate E[g | f] as a regression spline on f,
    fitted through the ``SplineDesign`` of f.

    Two guards keep the estimate honest: the spline is only kept when it
    explains significantly more than the plain mean (an F pretest, so the
    coefficient collapses to the constant mean when f and g are unrelated),
    and evaluation is held constant beyond the outermost (5th/95th
    percentile) knots, where the heavy-tailed z-side products leave the
    cubic tails supported by a handful of rows.
    """
    gbar = float(np.mean(g_values))
    curve = design.fit(g_values)
    n, dof = len(g_values), design.dof  # cubic polynomial plus interior knots
    if n > 2 * dof:
        sse_const = float(np.sum((g_values - gbar) ** 2))
        sse_spline = float(np.sum((g_values - curve.at(design.points)) ** 2))
        if sse_spline <= 0.0:
            return curve
        f_stat = ((sse_const - sse_spline) / (dof - 1)) / (sse_spline / (n - dof))
        if f_stat < 3.0:
            return Curve(np.array([0.0]), np.array([gbar]))
    qlo, qhi = design.quantiles
    if qhi > qlo:
        grid = np.linspace(qlo, qhi, 801)
        return Curve(grid, curve(grid))
    return curve


def pa(tree: FunctionTree, subset, points=None, data: Dataset | None = None,
       resolution: int = 50) -> EffectGrid:
    """Partial association: like partial dependence but each complement mean
    is replaced by a varying coefficient estimated as a regression-spline fit
    of the complement product on the z-side product. Reduces to partial
    dependence exactly when no basis mixes z with its complement."""
    return _fast_grid(tree, subset, points, data, resolution, PA)
