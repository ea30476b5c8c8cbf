"""Function-tree models.

A function tree is a rooted tree whose non-root nodes each hold a univariate
function of one predictor. Every node contributes a basis function equal to
the product of the functions along its path to the root; the model is the
root constant plus the sum of all basis functions. Trees are grown in a
forward stepwise best-first manner, with optional backfitting passes that
re-estimate existing node functions after each addition.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    CATEGORICAL,
    Dataset,
    SplitSpec,
    Variable,
    rmse,
    split_indices,
)
from .smoothers import (
    CATEGORICAL_MEAN,
    LOCAL_LINEAR,
    Curve,
    InvalidFunctionError,
    LevelTable,
    SmootherSpec,
    SmoothingTarget,
    Points,
    SortedColumn,
    UnivariateFunction,
    combine,
)

FORMAT_VERSION = 1

ROOT = 0

# The fit's parent queue (Friedman 1993, "Fast MARS", Stanford Statistics
# Tech. Report 110): a step rescores the QUEUE_TOP parents with the highest
# best gain when last scored, every parent not scored for QUEUE_AGE steps and
# every parent never scored (all of them on the first step, then the newest
# node). Measured with 2 vCPUs and one BLAS thread: a 30-step fit of
# gen_hu(20000, s) rescores about 242 of the exact sweep's 465 parents and
# took 7.6 s against 13.8 s (perfbench fit-hu30, medians of ten pairs); test
# RMSE was at most 1.0032x the exact sweep's on that fit and on the default
# fit of gen_friedman(10000, s), s = 1-5. QUEUE_TOP = 5 missed the exact
# winner at step 10 of gen_friedman(10000, 11, snr=2), which then stopped at
# 9 nodes; 8 keeps that fit's exact sequence.
# The same report's second device: a rescored parent scores only the
# QUEUE_TOP variables that ranked highest when it last scored them all,
# unless that was QUEUE_AGE or more steps ago. On those gen_hu fits it cut
# the scored candidates from 7,230 to 3,872-3,998 of the exact sweep's
# 13,950, with test RMSE at most 1.0035x the exact sweep's (1.0066x on
# gen_hu(10000, s, mode="classification"), s = 1-5).
QUEUE_TOP = 8
QUEUE_AGE = 5


class SchemaMismatchError(ValueError):
    """Model and data disagree on the variable schema."""


class FormatVersionError(ValueError):
    """Model file carries an unsupported format version."""


@dataclass
class TreeNode:
    """One tree node: a univariate function of one predictor, plus the
    standard deviation of its basis function over the training data."""

    id: int
    parent: int
    var: int | None
    func: UnivariateFunction | None
    influence: float = float("nan")


@dataclass
class FunctionTree:
    """Fitted model: root constant plus path-product basis functions."""

    variables: tuple[Variable, ...]
    b0: float
    nodes: list[TreeNode]
    train_stats: dict | None = None
    fit_history: list[dict] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if not self.nodes or self.nodes[0].id != ROOT or self.nodes[0].var is not None:
            raise ValueError("nodes[0] must be the bare root")
        for k, node in enumerate(self.nodes):
            if node.id != k:
                raise ValueError(f"node {node.id}: node ids must be consecutive, expected {k}")
            if k > 0 and not 0 <= node.parent < k:
                raise ValueError(f"node {k}: parent {node.parent} must precede the node (topological order)")

    # -- structure ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of non-root nodes."""
        return len(self.nodes) - 1

    def path(self, node_id: int) -> list[int]:
        """Node ids from ``node_id`` up to (excluding) the root."""
        if not 0 < node_id < len(self.nodes):
            raise ValueError(f"invalid node id {node_id}")
        out = []
        k = node_id
        while k != ROOT:
            out.append(k)
            k = self.nodes[k].parent
        return out

    def path_vars(self, node_id: int) -> frozenset[int]:
        return frozenset(self.nodes[k].var for k in self.path(node_id))

    def interaction_order(self, node_id: int) -> int:
        """Count of distinct variables on the node's root path; repeats of a
        variable along one path do not raise the order."""
        return len(self.path_vars(node_id))

    def max_interaction_order(self) -> int:
        return max((self.interaction_order(k) for k in range(1, len(self.nodes))), default=0)

    # -- evaluation --------------------------------------------------------

    def _check_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.variables):
            raise SchemaMismatchError(
                f"expected {len(self.variables)} columns, got {X.shape[1]}"
            )
        return X

    def node_columns(self, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each node's function values and basis-function values at the rows
        of X: two lists with one vector per node id, the root's being ones.
        b0 plus the non-root basis vectors equals predict(). The nodes on one
        variable are evaluated together at one ``Points``, so a long column is
        located once per distinct knot vector and dropped before the next."""
        X = self._check_matrix(X)
        ones = np.ones(X.shape[0])
        by_var: dict[int, list[TreeNode]] = {}
        for node in self.nodes[1:]:
            by_var.setdefault(node.var, []).append(node)
        values = [ones] * len(self.nodes)
        for var, nodes in by_var.items():
            at = Points(X[:, var])
            for node in nodes:
                values[node.id] = node.func.at(at)
        basis = [ones]
        for node in self.nodes[1:]:
            basis.append(basis[node.parent] * values[node.id])
        return values, basis

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Model value b0 + sum of path products, vectorized over rows."""
        return model_sum(self.b0, np.column_stack(self.node_columns(X)[1]))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.predict(X)

    def check_schema(self, variables: tuple[Variable, ...]) -> None:
        ours = [(v.name, v.kind, v.levels) for v in self.variables]
        theirs = [(v.name, v.kind, v.levels) for v in variables]
        if ours != theirs:
            raise SchemaMismatchError("variable schema does not match the model")

    def copy(self) -> "FunctionTree":
        return FunctionTree(
            self.variables,
            self.b0,
            [replace(n) for n in self.nodes],
            None if self.train_stats is None else dict(self.train_stats),
        )

    def recompute_influence(self, X: np.ndarray, weight: np.ndarray | None = None) -> None:
        """Set each non-root node's influence to the weighted standard
        deviation of its basis function over the rows of X."""
        if len(self.nodes) == 1:
            return
        B = np.column_stack(self.node_columns(X)[1][1:])
        w = np.ones(len(B)) if weight is None else np.asarray(weight, dtype=float)
        mean = np.average(B, axis=0, weights=w)
        var = np.average((B - mean) ** 2, axis=0, weights=w)
        for node in self.nodes[1:]:
            node.influence = float(np.sqrt(var[node.id - 1]))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        variables = []
        for v in self.variables:
            entry: dict = {"name": v.name, "kind": v.kind}
            if v.is_categorical:
                entry["levels"] = list(v.levels)
            elif v.observed_range is not None:
                entry["range"] = [v.observed_range[0], v.observed_range[1]]
            variables.append(entry)
        nodes = []
        for n in self.nodes[1:]:
            entry = {"id": n.id, "parent": n.parent, "var": n.var}
            if isinstance(n.func, LevelTable):
                entry["kind"] = "levels"
                entry["values"] = n.func.values.tolist()
                entry["default"] = n.func.default
            else:
                entry["kind"] = "curve"
                entry["knots"] = n.func.knots.tolist()
                entry["values"] = n.func.values.tolist()
            entry["influence"] = None if np.isnan(n.influence) else n.influence
            nodes.append(entry)
        out = {"format_version": FORMAT_VERSION, "b0": self.b0, "variables": variables, "nodes": nodes}
        if self.train_stats is not None:
            out["train_stats"] = self.train_stats
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "FunctionTree":
        _check_object(doc, "model file")
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise FormatVersionError(f"unsupported model format version {version!r}")
        variables = []
        for i, entry in enumerate(_field(doc, "variables", "model file", list)):
            _check_object(entry, f"variable {i}")
            name = _field(entry, "name", f"variable {i}", str)
            where = f"variable {name!r}"
            kind = _field(entry, "kind", where)
            if kind == CATEGORICAL:
                levels = _field(entry, "levels", where, list)
                if not all(isinstance(level, str) for level in levels):
                    raise ValueError(f"{where}: 'levels' must be a list of strings")
                variables.append(Variable(name, CATEGORICAL, levels=tuple(levels)))
            else:
                rng = entry.get("range")
                if rng is not None and not (
                    isinstance(rng, list) and len(rng) == 2 and all(map(_finite_number, rng))
                ):
                    raise ValueError(f"{where}: 'range' must be a list of two finite numbers")
                variables.append(Variable(name, kind, observed_range=None if rng is None else tuple(rng)))
        nodes = [TreeNode(ROOT, -1, None, None)]
        for i, entry in enumerate(_field(doc, "nodes", "model file", list)):
            _check_object(entry, f"node entry {i}")
            node_id = _field(entry, "id", f"node entry {i}", int)
            where = f"node {node_id}"
            var, kind = _field(entry, "var", where), _field(entry, "kind", where)
            if not isinstance(var, int) or not 0 <= var < len(variables):
                raise ValueError(f"{where}: variable index {var!r} is out of range")
            if kind not in ("levels", "curve"):
                raise ValueError(f"{where}: unknown node kind {kind!r}")
            if (kind == "levels") != variables[var].is_categorical:
                raise ValueError(
                    f"{where}: a {kind!r} node cannot hold "
                    f"{variables[var].kind} variable {variables[var].name!r}"
                )
            values = _numbers(entry, "values", where)
            if kind == "levels":
                default = _field(entry, "default", where)
                if not _finite_number(default):
                    raise ValueError(f"{where}: 'default' must be a finite number")
                n_levels = variables[var].n_levels
                if len(values) > n_levels:
                    raise ValueError(
                        f"{where}: level table has {len(values)} values but variable "
                        f"{variables[var].name!r} has {n_levels} levels"
                    )
            else:
                knots = _numbers(entry, "knots", where)
            try:
                func = LevelTable(values, default) if kind == "levels" else Curve(knots, values)
            except InvalidFunctionError as exc:
                raise ValueError(f"{where}: {exc}") from None
            infl = entry.get("influence")
            if infl is not None and not _finite_number(infl):
                raise ValueError(f"{where}: 'influence' must be null or a finite number")
            nodes.append(
                TreeNode(node_id, _field(entry, "parent", where, int), var, func,
                         float("nan") if infl is None else float(infl))
            )
        b0 = _field(doc, "b0", "model file")
        if not _finite_number(b0):
            raise ValueError(f"model file: b0 must be a finite number, got {b0!r}")
        stats = doc.get("train_stats")
        if stats is not None:
            _check_object(stats, "model file: train_stats")
        return cls(tuple(variables), float(b0), nodes, stats)


def model_sum(b0: float, B: np.ndarray) -> np.ndarray:
    """The model value b0 plus the row sums of the non-root columns of the
    basis matrix ``B`` (one column per node id, the root's first). Every
    model value is summed here, so the fitter's errors are those of
    ``predict``."""
    return b0 + B[:, 1:].sum(axis=1)


def _finite_number(value) -> bool:
    """True for a number (not a bool) whose float is finite; an integer
    beyond the float range is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return bool(np.isfinite(float(value)))
    except OverflowError:
        return False


_JSON_TYPES = {list: "a list", str: "a string", int: "an integer"}


def _check_object(entry, where: str) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(entry).__name__}")


def _field(entry: dict, key: str, where: str, kind: type | None = None):
    """``entry[key]``, or a ValueError naming the key and where it is missing
    or, given ``kind``, where it has another JSON type."""
    try:
        value = entry[key]
    except KeyError:
        raise ValueError(f"{where}: missing key {key!r}") from None
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} must be {_JSON_TYPES[kind]}")
    return value


def _numbers(entry: dict, key: str, where: str) -> np.ndarray:
    """``entry[key]`` as a float array, or a ValueError unless it is a list
    of numbers; the function it builds checks shape and finiteness."""
    value = _field(entry, key, where, list)
    # each element is checked first: numpy fails on a ragged list with its
    # own text, and reads an integer past 64 bits as an object
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        array = np.array(value)
        if array.dtype.kind in "iuf":
            return array.astype(float)
    raise ValueError(f"{where}: {key!r} must be a list of numbers")


def save(tree: FunctionTree, path) -> None:
    """Write a tree as a versioned JSON document."""
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tree.to_dict()) + "\n")


def load(path) -> FunctionTree:
    """Read a tree written by save(); rejects unknown format versions and
    files that are not JSON text."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not a functree model file ({exc})") from None
    return FunctionTree.from_dict(doc)


def difference(a: FunctionTree, b: FunctionTree) -> FunctionTree:
    """A tree computing a.predict(x) - b.predict(x).

    Both forests are merged under one root with the sign flip folded into the
    depth-1 functions of ``b``; basis influences are unchanged by the flip.
    """
    a.check_schema(b.variables)
    nodes = [TreeNode(ROOT, -1, None, None)]
    for src, sign in ((a, 1.0), (b, -1.0)):
        offset = len(nodes) - 1
        for n in src.nodes[1:]:
            parent = ROOT if n.parent == ROOT else n.parent + offset
            func = n.func.scale(sign) if sign < 0 and n.parent == ROOT else n.func
            nodes.append(TreeNode(len(nodes), parent, n.var, func, n.influence))
    return FunctionTree(a.variables, a.b0 - b.b0, nodes)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    """Tree construction controls.

    ``max_order`` bounds each node's interaction order (0 = unlimited, 1 =
    additive only); ``forbidden_subsets`` lists variable-index sets no single
    path may contain. ``patience`` is the number of consecutive additions
    without test-error improvement tolerated before stopping; the returned
    tree is the snapshot at the best test error.
    """

    max_nodes: int = 200
    max_order: int = 0
    forbidden_subsets: tuple[frozenset[int], ...] = ()
    numeric_smoother: SmootherSpec = SmootherSpec(LOCAL_LINEAR)
    split: SplitSpec = SplitSpec()
    backfit_passes: int = 2
    patience: int = 5

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.max_order < 0 or self.backfit_passes < 0 or self.patience < 0:
            raise ValueError("max_order, backfit_passes, patience must be >= 0")
        if self.numeric_smoother.method == CATEGORICAL_MEAN:
            raise ValueError("numeric smoother must be near_neighbor or local_linear")
        object.__setattr__(
            self, "forbidden_subsets", tuple(frozenset(s) for s in self.forbidden_subsets)
        )


class TreeFitter:
    """Stateful forward-stepwise fitter; ``fit()`` is the public entry point.

    State kept per step: node list, per-node function values and basis
    columns on the training rows, and the training residual. All updates are
    line-searched, so training squared error never increases. Test error,
    training error and influences are read off snapshot trees.
    """

    def __init__(self, data: Dataset, config: FitConfig, *, tree: FunctionTree | None = None,
                 split: bool = True):
        self.data = data
        self.config = config
        if split:
            tr, te = split_indices(data.n, config.split)
        else:
            tr, te = np.arange(data.n), np.arange(0)
        self.Xtr, self.Xte = data.X[tr], data.X[te]
        self.ytr, self.yte = data.y[tr], data.y[te]
        self.rho, self.rho_te = data.weight[tr], data.weight[te]
        self.sqrt_rho = np.sqrt(self.rho)
        self.n_tr = len(tr)

        # each variable's training rows, which every smoothing call and
        # every evaluation of its functions shares: a numeric one on its
        # knot grid, a categorical one as its level indices
        span = config.numeric_smoother.span
        self.columns: list[Points] = [
            Points(x) if v.is_categorical else SortedColumn(x, span)
            for v, x in zip(data.variables, self.Xtr.T)]

        if tree is None:
            self.b0 = float(np.average(self.ytr, weights=self.rho))
            self.nodes: list[TreeNode] = [TreeNode(ROOT, -1, None, None)]
        else:
            tree.check_schema(data.variables)
            self.b0 = tree.b0
            self.nodes = [replace(n) for n in tree.nodes]
        self.fv_tr: list[np.ndarray | None] = [None]
        self.B_tr: list[np.ndarray] = [np.ones(self.n_tr)]
        self.children: dict[int, list[int]] = {ROOT: []}
        self.pathvars: list[frozenset[int]] = [frozenset()]
        for node in self.nodes[1:]:
            self._register(node)
        self.resid = self.ytr - model_sum(self.b0, np.column_stack(self.B_tr))
        # additions below this gain are float noise, not structure
        self.min_gain = 1e-12 * float(np.sum(self.rho * (self.ytr - np.average(self.ytr, weights=self.rho)) ** 2))
        self.history: list[dict] = []
        # the parent queue: each scored parent's best gain and the step it
        # was last scored at; each parent's admissible variables ranked by
        # gain when it last scored them all, and that step; the last step's
        # chosen candidate, the parents it scored and rescanned and its
        # candidate count
        self._kept: dict[int, tuple[float, int]] = {}
        self._ranked: dict[int, tuple[list[int], int]] = {}
        self._steps = 0
        self.last_step: dict = {}

    # -- plumbing ----------------------------------------------------------

    def _register(self, node: TreeNode) -> None:
        j = node.var
        self.fv_tr.append(node.func.at(self.columns[j]))
        self.B_tr.append(self.B_tr[node.parent] * self.fv_tr[node.id])
        self.children[node.id] = []
        self.children[node.parent].append(node.id)
        self.pathvars.append(self.pathvars[node.parent] | {j})

    def train_sse(self) -> float:
        return float(np.sum(self.rho * self.resid**2))

    def _subtree(self, k: int) -> list[int]:
        out = [k]
        i = 0
        while i < len(out):
            out.extend(self.children[out[i]])
            i += 1
        return out

    def _set_functions(self, top: int, funcs: dict[int, UnivariateFunction]) -> None:
        """Give each node in ``funcs``, all in the subtree of ``top``, its new
        function evaluated afresh, then refresh the bases below ``top``."""
        for k, func in funcs.items():
            node = self.nodes[k]
            node.func = func
            self.fv_tr[k] = func.at(self.columns[node.var])
        for m in self._subtree(top):
            self.B_tr[m] = self.B_tr[self.nodes[m].parent] * self.fv_tr[m]

    def _coweight(self, k: int) -> np.ndarray:
        """Sum over all bases containing node k of the path product with
        node k's own factor removed (computed analytically, never by
        division)."""
        parent_basis = self.B_tr[self.nodes[k].parent]
        partial = {k: np.ones(self.n_tr)}
        total = np.ones(self.n_tr)
        for m in self._subtree(k)[1:]:
            q = partial[self.nodes[m].parent] * self.fv_tr[m]
            partial[m] = q
            total = total + q
        return parent_basis * total

    # -- candidate search --------------------------------------------------

    def _allowed(self, k: int, j: int) -> bool:
        pv = self.pathvars[k] | {j}
        if self.config.max_order and len(pv) > self.config.max_order:
            return False
        return not any(s <= pv for s in self.config.forbidden_subsets)

    def score_candidate(self, k: int, j: int, target: SmoothingTarget):
        """Fit the (parent=k, variable=j) candidate on the parent's smoothing
        ``target`` and line-search its scale against the residual: the
        target's rw is the row weight times the residual times the parent
        basis, and omega the row weight times that basis squared. Each call
        smooths variable j alone. Returns (sse_reduction, function, scale) or
        None. The caller scales only the winning function."""
        res = target.fit(self.columns[j], self.config.numeric_smoother.method)
        if res is None:
            return None
        f, num, den = res
        if den <= 0.0 or not np.isfinite(den):
            return None
        return num * num / den, f, num / den

    def _variables(self, k: int) -> list[int]:
        return [j for j in range(self.data.p) if self._allowed(k, j)]

    def score_all_candidates(self, plan: list[tuple[int, list[int]]] | None = None):
        """Yield (sse_reduction, parent, variable, function, scale) for the
        candidates of ``plan``, (parent, variables) pairs in the order given;
        by default every admissible candidate of every node, parents then
        variables in index order. Each parent's smoothing target is built
        once for all its variables; a parent whose basis has no row above
        the weight floor has no candidates."""
        r = self.resid * self.sqrt_rho
        for k, variables in self._plan(range(len(self.nodes)), True) if plan is None else plan:
            if not variables:
                continue
            target = SmoothingTarget(r, self.B_tr[k] * self.sqrt_rho)
            for j in variables:
                res = self.score_candidate(k, j, target)
                if res is not None:
                    yield (res[0], k, j, *res[1:])

    def _queue(self) -> list[int]:
        """The parents this step rescores, in index order: the QUEUE_TOP
        with the highest kept gain, and every one never scored or not
        scored for QUEUE_AGE steps."""
        kept = self._kept
        top = sorted(kept, key=lambda k: (-kept[k][0], k))[:QUEUE_TOP]
        due = [k for k in range(len(self.nodes))
               if k not in kept or self._steps - kept[k][1] >= QUEUE_AGE]
        return sorted(set(top).union(due))

    def _plan(self, parents, full: bool = False) -> list[tuple[int, list[int]]]:
        """The variables each of ``parents`` scores, in index order: every
        admissible one when ``full``, for a parent never ranked and for one
        ranked QUEUE_AGE or more steps ago; otherwise the QUEUE_TOP that
        ranked highest."""
        plan = []
        for k in parents:
            ranked = self._ranked.get(k)
            if full or ranked is None or self._steps - ranked[1] >= QUEUE_AGE:
                plan.append((k, self._variables(k)))
            else:
                plan.append((k, sorted(ranked[0][:QUEUE_TOP])))
        return plan

    def _sweep(self, plan: list[tuple[int, list[int]]]):
        """The best candidate of ``plan`` (ties toward the lower parent, then
        variable) and the parents that scored every admissible variable.
        Keeps each parent's best gain for the queue, and ranks the variables
        of those parents by gain (ties toward the lower index)."""
        best, gains = None, {k: dict.fromkeys(variables, 0.0) for k, variables in plan}
        for cand in self.score_all_candidates(plan):
            gains[cand[1]][cand[2]] = cand[0]
            if best is None or cand[0] > best[0]:
                best = cand
        rescanned = []
        for k, g in gains.items():
            self._kept[k] = (max(g.values(), default=0.0), self._steps)
            if len(g) == len(self._variables(k)):
                self._ranked[k] = (sorted(g, key=lambda j: (-g[j], j)), self._steps)
                rescanned.append(k)
        return best, rescanned

    def step(self) -> tuple[int, int] | None:
        """Attach the best-scoring candidate of the queue's plan and return
        its (parent, variable); ties break toward lower node id then lower
        variable index. When the plan finds no gain above float noise, every
        variable of every parent it did not rescan is scored too, so None
        means no candidate of the exact sweep gains more than float noise."""
        plan = self._plan(self._queue())
        best, rescanned = self._sweep(plan)
        if best is None or not best[0] > self.min_gain:
            rest = self._plan([k for k in range(len(self.nodes)) if k not in rescanned], True)
            best, more = self._sweep(rest)
            plan, rescanned = plan + rest, sorted(rescanned + more)
        self._steps += 1
        self.last_step = {"rescored": sorted({k for k, _ in plan}), "rescanned": rescanned,
                          "candidates": sum(len(variables) for _, variables in plan)}
        if best is None or not best[0] > self.min_gain:
            return None
        gain, k, j, func, beta = best
        self.last_step.update(parent=k, var=j, gain=gain)
        node = TreeNode(len(self.nodes), k, j, func.scale(beta))
        self.nodes.append(node)
        self._register(node)
        self.resid = self.resid - self.B_tr[node.id]
        return k, j

    # -- backfitting and centering ------------------------------------------

    def backfit_pass(self) -> None:
        """Re-estimate every node function in id order, holding the others
        fixed; each update is line-searched so training SSE cannot rise.
        The root constant gets its own exact coordinate step first."""
        shift = float(np.average(self.resid, weights=self.rho))
        self.b0 += shift
        self.resid = self.resid - shift
        for k in range(1, len(self.nodes)):
            node = self.nodes[k]
            cow = self._coweight(k)
            target = SmoothingTarget((self.resid + cow * self.fv_tr[k]) * self.sqrt_rho,
                                     cow * self.sqrt_rho)
            res = target.fit(self.columns[node.var], self.config.numeric_smoother.method)
            if res is None:
                continue
            proposal = res[0]
            direction = combine(proposal, node.func, 1.0, -1.0)
            delta = cow * direction.at(self.columns[node.var])
            den = float(np.sum(self.rho * delta * delta))
            if den <= 0.0 or not np.isfinite(den):
                continue
            beta = float(np.sum(self.rho * self.resid * delta)) / den
            if beta == 0.0:
                continue
            self._set_functions(k, {k: combine(node.func, direction, 1.0, beta)})
            self.resid = self.resid - beta * delta

    def recenter(self) -> None:
        """Shift leaf-node functions to zero weighted mean, folding the
        absorbed constant into the root constant (depth-1 leaves) or into an
        exact rescale of the parent and its children (deeper leaves). The
        model's predictions are unchanged."""
        for k in range(1, len(self.nodes)):
            if self.children[k]:
                continue
            node = self.nodes[k]
            parent_basis = self.B_tr[node.parent]
            omega = self.rho * parent_basis**2
            total = float(omega.sum())
            if total <= 0.0:
                continue
            c = float(np.dot(omega, self.fv_tr[k]) / total)
            if c == 0.0:
                continue
            if node.parent == ROOT:
                self._set_functions(k, {k: node.func.shift(-c)})
                self.b0 += c
                continue
            s = 1.0 + c
            if abs(s) < 0.05:
                continue
            q = node.parent
            funcs = {q: self.nodes[q].func.scale(s)}
            for ch in self.children[q]:
                f = self.nodes[ch].func
                funcs[ch] = (f.shift(-c) if ch == k else f).scale(1.0 / s)
            self._set_functions(q, funcs)

    # -- stopping loop -------------------------------------------------------

    def _snapshot(self) -> FunctionTree:
        """The current model as a tree of its own; influences are not recomputed."""
        return FunctionTree(self.data.variables, self.b0, [replace(n) for n in self.nodes])

    def _test_rmse(self, tree: FunctionTree) -> float:
        if len(self.yte) < 2 or np.ptp(self.yte) == 0.0:
            return float("nan")
        return rmse(self.yte, tree.predict(self.Xte), self.rho_te)

    def run(self) -> FunctionTree:
        cfg = self.config
        best = self._snapshot()
        if np.ptp(self.ytr) == 0.0:
            warnings.warn("constant outcome; returning a root-only tree", stacklevel=2)
            best.train_stats = {"train_rmse": 0.0, "test_rmse": 0.0, "n_nodes": 0}
            return best
        best_rmse = self._test_rmse(best)
        bad = 0
        while len(self.nodes) - 1 < cfg.max_nodes:
            if not self.step():
                break
            for _ in range(cfg.backfit_passes):
                self.backfit_pass()
            self.recenter()
            self.resid = self.ytr - model_sum(self.b0, np.column_stack(self.B_tr))
            snap = self._snapshot()
            te = self._test_rmse(snap)
            self.history.append({"n_nodes": len(self.nodes) - 1, "train_sse": self.train_sse(),
                                 "test_rmse": te, **self.last_step})
            if np.isnan(te) or te < best_rmse:
                best_rmse = te
                best = snap
                bad = 0
            else:
                bad += 1
                if bad > cfg.patience:
                    break
        best.recompute_influence(self.Xtr, self.rho)
        best.train_stats = {
            "train_rmse": rmse(self.ytr, best.predict(self.Xtr), self.rho),
            "test_rmse": float(best_rmse),
            "n_nodes": best.n_nodes,
        }
        best.fit_history = self.history
        return best


def fit(data: Dataset, config: FitConfig | None = None) -> FunctionTree:
    """Fit a function tree by forward stepwise search with backfitting.

    Candidates are scored on the training partition by squared-error
    reduction; growth stops once the test partition stops improving for
    ``config.patience`` consecutive additions (or at ``max_nodes``), and the
    best-test-error snapshot is returned.
    """
    if data.n < 20:
        raise ValueError("need at least 20 rows to fit")
    return TreeFitter(data, config or FitConfig()).run()


def backfit_pass(tree: FunctionTree, data: Dataset, config: FitConfig | None = None) -> FunctionTree:
    """One backfitting pass over an existing tree against ``data`` (all rows);
    returns a new tree whose training MSE is no worse than the input's."""
    if tree.n_nodes < 1:
        return tree.copy()
    fitter = TreeFitter(data, config or FitConfig(), tree=tree, split=False)
    fitter.backfit_pass()
    fitter.recenter()
    snap = fitter._snapshot()
    snap.recompute_influence(fitter.Xtr, fitter.rho)
    snap.train_stats = tree.train_stats
    return snap
