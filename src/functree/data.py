"""Datasets, CSV ingestion, synthetic benchmark generators, and fit metrics."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

TRUTH_COLUMN = "__truth__"

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# compared lower-cased; float() reads a signed nan as NaN too
_MISSING_TOKENS = {"", "na", "nan", "+nan", "-nan", "null", "none"}
_WRITE_BLOCK = 256


class DataError(ValueError):
    """A file or table violates the dataset contract."""


@dataclass(frozen=True)
class Variable:
    """Schema entry for one predictor column.

    Categorical variables carry an ordered, duplicate-free level list; numeric
    variables carry the (min, max) range observed at construction time.
    """

    name: str
    kind: str
    levels: tuple[str, ...] | None = None
    observed_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.levels:
                raise ValueError(f"{self.name}: categorical variable needs levels")
            if len(set(self.levels)) != len(self.levels):
                raise ValueError(f"{self.name}: duplicate levels")
        elif self.observed_range is not None:
            lo, hi = self.observed_range
            if lo > hi:
                raise ValueError(f"{self.name}: observed_range min exceeds max")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    @property
    def n_levels(self) -> int:
        return len(self.levels) if self.levels else 0


@dataclass(frozen=True)
class Dataset:
    """Immutable observation matrix with outcome and row weights.

    Categorical cells hold integer level indices (stored as floats in ``X``);
    ``truth`` optionally carries a hidden noiseless target for generated data.
    ``X``, ``y``, ``weight`` and ``truth`` are read-only views, in copies too:
    a write through them raises, and one through an alias the caller kept is
    unsupported (effect calls reuse what they computed from the data)."""

    variables: tuple[Variable, ...]
    X: np.ndarray
    y: np.ndarray
    weight: np.ndarray | None = None
    target_name: str = "y"
    truth: np.ndarray | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, p = X.shape
        if n < 2:
            raise ValueError("need at least 2 rows")
        if p < 1 or p != len(self.variables):
            raise ValueError("column count does not match variable schema")
        if len(y) != n:
            raise ValueError("outcome length does not match row count")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise DataError("missing or non-finite cells are not supported")
        w = self.weight
        w = np.ones(n) if w is None else np.asarray(w, dtype=float).ravel()
        if len(w) != n or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative, finite, length N")
        if not w.sum() > 0:
            raise ValueError("weights sum to zero")
        object.__setattr__(self, "weight", w)
        if self.truth is not None:
            t = np.asarray(self.truth, dtype=float).ravel()
            if len(t) != n:
                raise ValueError("truth length does not match row count")
            object.__setattr__(self, "truth", t)
        for j, v in enumerate(self.variables):
            if v.is_categorical:
                col = X[:, j]
                idx = np.rint(col)
                if np.any(col != idx) or np.any(idx < 0) or np.any(idx >= v.n_levels):
                    raise ValueError(f"{v.name}: cell is not a valid level index")
        for name in ("X", "y", "weight", "truth"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, getattr(self, name).view())
                getattr(self, name).flags.writeable = False

    def __reduce__(self):  # a copied or unpickled Dataset is checked and read-only as well
        return Dataset, (self.variables, self.X, self.y, self.weight, self.target_name, self.truth)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test partition: same (seed, n) gives the same split."""

    test_fraction: float = 0.2
    seed: int = 17

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


def split_indices(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return (train_idx, test_idx) row index arrays for an n-row dataset."""
    n_test = max(1, int(round(spec.test_fraction * n)))
    if n_test >= n:
        raise ValueError("test fraction leaves no training rows")
    perm = np.random.default_rng(spec.seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def take_rows(data: Dataset, idx: np.ndarray) -> Dataset:
    """Row subset of a dataset (copies; the source stays immutable)."""
    return replace(
        data,
        X=data.X[idx],
        y=data.y[idx],
        weight=data.weight[idx],
        truth=None if data.truth is None else data.truth[idx],
    )


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------

def _is_missing(token: str) -> bool:
    return token.strip().lower() in _MISSING_TOKENS


def _parse_numeric_column(cells: list[str], name: str) -> np.ndarray:
    out = np.empty(len(cells))
    for i, tok in enumerate(cells):
        try:
            out[i] = float(tok)
        except ValueError:
            raise DataError(f"column {name!r}, row {i + 1}: cannot parse {tok!r} as a number") from None
    return out


def _sorted_levels(tokens: list[str]) -> tuple[str, ...]:
    distinct = sorted(set(tokens))
    try:
        return tuple(sorted(distinct, key=float))
    except ValueError:
        return tuple(distinct)


def _read_cells(path, target: str):
    """The stripped header and a cell getter for every column of a headed
    CSV, read cell by cell through csv.reader. Raises DataError on text that
    is not UTF-8 or that csv.reader rejects (such as a cell past its field
    size limit), a missing target, a duplicate name, no data rows, a ragged
    row or a missing cell, the first in file order."""
    # utf-8-sig drops a byte-order mark, which would otherwise join the first
    # column name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = [row for row in reader if row]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: not a readable CSV file ({exc})") from None
    header = [h.strip() for h in header]
    if target not in header:
        raise DataError(f"target column {target!r} not found")
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i + 1}: expected {len(header)} cells, got {len(row)}")
        for name, tok in zip(header, row):
            if _is_missing(tok):
                raise DataError(f"column {name!r}, row {i + 1}: missing value")
    columns = {name: [row[j].strip() for row in rows] for j, name in enumerate(header)}
    return header, columns.__getitem__, {}


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_numbers(path, target: str):
    """What _read_cells returns, plus the floats of every column whose first
    cell is a number, parsed in one np.loadtxt pass. None for a file on which
    that pass could differ from float() per cell, or which _read_cells
    rejects: a quote or NUL anywhere, text that does not decode, a blank line,
    a ragged row, a missing cell, a number np.loadtxt cannot parse or a NaN,
    or a header without the target or with a repeated name."""
    try:
        # universal newlines: csv.reader also ends a row at a lone CR
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text or "\0" in text:
        return None
    head, _, body = text.partition("\n")
    header = [h.strip() for h in next(csv.reader([head]))]
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    commas = {len(header) - 1}
    if (target not in header or len(set(header)) != len(header) or not lines
            or set(map(str.count, lines, repeat(","))) != commas):
        return None

    def field(j: int) -> list[str]:
        # split off the fewest cells: those before j, or those after it
        after = len(header) - 1 - j
        if j <= after:
            return [line.split(",", j + 1)[j].strip() for line in lines]
        return [line.rsplit(",", after + 1)[1].strip() for line in lines]

    numeric = [j for j, tok in enumerate(lines[0].split(",")) if _is_number(tok)]
    strings = {header[j]: field(j) for j in range(len(header)) if j not in numeric}
    if any(_is_missing(tok) for col in strings.values() for tok in set(col)):
        return None
    floats = {}
    if numeric:
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, usecols=numeric, ndmin=2)
        except ValueError:
            return None
        # a missing cell fails to parse or reads as NaN; np.loadtxt skips a
        # line it reads as blank, which would shift every later row
        if len(table) != len(lines) or np.isnan(table).any():
            return None
        floats = {header[j]: table[:, i] for i, j in enumerate(numeric)}
    index = {name: j for j, name in enumerate(header)}
    return header, lambda name: strings[name] if name in strings else field(index[name]), floats


def load_csv(
    path,
    target: str,
    categorical_override: tuple[str, ...] | list[str] = (),
    cat_threshold: int = 10,
    exclude: tuple[str, ...] | list[str] = (),
) -> Dataset:
    """Load a headed CSV into a typed Dataset.

    Columns parse as numeric unless a non-numeric token appears, the column
    name is listed in ``categorical_override``, or the number of distinct
    values is at most ``cat_threshold``. A column named ``__truth__`` becomes
    the hidden noiseless target; columns in ``exclude`` are dropped. A name
    in ``exclude`` that is no column, or in ``categorical_override`` that is
    no kept predictor, raises DataError. Missing
    cells are rejected; predictor columns with a single distinct value are
    dropped with a warning, and categorical ones with a level per row warn.
    """
    table = _read_numbers(path, target)
    header, cells, floats = table if table is not None else _read_cells(path, target)

    def numbers(name: str) -> np.ndarray:
        values = floats.get(name)
        return _parse_numeric_column(cells(name), name) if values is None else values

    y = numbers(target)
    names = [name for name in header if name != target]
    truth = None
    if TRUTH_COLUMN in names:
        names.remove(TRUTH_COLUMN)
        truth = numbers(TRUTH_COLUMN)
    excluded = set(exclude)
    unknown = excluded - set(header)
    if unknown:
        raise DataError(f"exclude names unknown columns: {sorted(unknown)}")
    names = [name for name in names if name not in excluded]

    override = set(categorical_override)
    unknown = override - set(names)
    if unknown:
        raise DataError(f"categorical_override names unknown columns: {sorted(unknown)}")

    variables: list[Variable] = []
    cols: list[np.ndarray] = []
    for name in names:
        values = None if name in override else floats.get(name)
        # more distinct floats than the threshold means at least as many
        # distinct tokens, so only a column short of them needs its tokens
        if values is None or len(np.unique(values)) <= max(cat_threshold, 1):
            tokens = cells(name)
            distinct = set(tokens)
            if len(distinct) == 1:
                warnings.warn(f"column {name!r} has a single distinct value; dropped", stacklevel=2)
                continue
            if values is None and name not in override:
                try:
                    values = _parse_numeric_column(tokens, name)
                except DataError:
                    pass
            if values is None or len(distinct) <= cat_threshold:
                if len(distinct) == len(tokens):
                    warnings.warn(f"categorical column {name!r} has a distinct level on every row; "
                                  "a level table cannot predict unseen rows", stacklevel=2)
                levels = _sorted_levels(tokens)
                lut = {lev: float(i) for i, lev in enumerate(levels)}
                variables.append(Variable(name, CATEGORICAL, levels=levels))
                cols.append(np.array([lut[c] for c in tokens]))
                continue
        variables.append(Variable(name, NUMERIC, observed_range=(values.min(), values.max())))
        cols.append(values)
    if not variables:
        raise DataError("no usable predictor columns")
    return Dataset(tuple(variables), np.column_stack(cols), y, target_name=target, truth=truth)


def _format_cells(values: np.ndarray, levels: tuple[str, ...] | None) -> list[str]:
    if levels is None:
        return list(map(repr, values.tolist()))
    return list(map(levels.__getitem__, values.astype(int).tolist()))


def write_csv(data: Dataset, path) -> None:
    """Write a dataset back to CSV; load_csv(write_csv(d)) reproduces d."""
    header = [v.name for v in data.variables] + [data.target_name]
    columns = [(data.X[:, j], v.levels) for j, v in enumerate(data.variables)] + [(data.y, None)]
    if data.truth is not None:
        header.append(TRUTH_COLUMN)
        columns.append((data.truth, None))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # a block of rows at a time, formatted column by column: the strings
        # of a whole 10,000 x 11 table would raise the peak by about 7 MB
        for lo in range(0, data.n, _WRITE_BLOCK):
            block = [_format_cells(col[lo:lo + _WRITE_BLOCK], levels) for col, levels in columns]
            writer.writerows(zip(*block))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def friedman_function(X: np.ndarray) -> np.ndarray:
    """Noiseless 8-variable benchmark target: two bivariate effects, one
    quadratic main effect, and one trilinear three-variable effect."""
    x = np.asarray(X, dtype=float)
    return (
        4.0 * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        + 7.0 * x[:, 2] ** 2
        + 15.0 * (x[:, 3] + 0.4) * (x[:, 4] - 0.6) * (x[:, 5] + 0.2)
        + 5.0 * np.sin(np.pi * (x[:, 6] + 0.1) * x[:, 7])
    )


def gen_friedman(n: int, seed: int, sd_x: float = 0.5, snr: float = 2.0) -> Dataset:
    """Generate the 8-variable synthetic benchmark.

    Predictors are independent N(0, sd_x^2); noise variance is var(F)/snr^2
    so that snr=2 yields a 2/1 signal/noise ratio. Pass ``snr=math.inf`` for
    a noiseless outcome. The noiseless target is stored as hidden truth.
    """
    if not (n >= 2 and 0 < sd_x < math.inf and snr > 0):
        raise ValueError("need n >= 2, finite sd_x > 0, snr > 0")
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, sd_x, size=(n, 8))
    f = friedman_function(X)
    scale = 0.0 if math.isinf(snr) else float(np.std(f)) / snr
    y = f + rng.normal(0.0, 1.0, size=n) * scale
    variables = tuple(
        Variable(f"x{j + 1}", NUMERIC, observed_range=(X[:, j].min(), X[:, j].max()))
        for j in range(8)
    )
    return Dataset(variables, X, y, truth=f)


def hu_function(X: np.ndarray) -> np.ndarray:
    """Noiseless 10-variable polynomial target with 2- and 3-variable
    interactions (variables beyond the tenth are irrelevant)."""
    x = np.asarray(X, dtype=float)
    g = x[:, 0:5].sum(axis=1)
    g = g + 0.5 * (x[:, 5:8] ** 2).sum(axis=1)
    for j in (8, 9):
        g = g + x[:, j] * (x[:, j] > 0)
    g = g + x[:, 0] * x[:, 1] + x[:, 0] * x[:, 2] + x[:, 1] * x[:, 2]
    g = g + 0.5 * x[:, 0] * x[:, 1] * x[:, 2]
    g = g + x[:, 3] * x[:, 4] + x[:, 3] * x[:, 5] + x[:, 4] * x[:, 5]
    g = g + 0.5 * (x[:, 3] > 0) * x[:, 4] * x[:, 5]
    return g


def _equicorrelated_block(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    # one-factor construction: exact pairwise correlation 0.5, unit variance
    shared = rng.normal(size=(n, 1))
    own = rng.normal(size=(n, p))
    return math.sqrt(0.5) * shared + math.sqrt(0.5) * own


def gen_hu(n: int, seed: int, mode: str = "regression") -> Dataset:
    """Generate the 30-variable correlated benchmark.

    First 20 predictors share pairwise correlation 0.5; ten more follow the
    same joint law independently of the first block. All values are clipped
    to [-2.5, 2.5] before the outcome is produced. Regression mode adds
    N(0, 0.5^2) noise; classification mode draws a binary outcome with
    log-odds equal to the target.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if mode not in ("regression", "classification"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    block1 = _equicorrelated_block(rng, n, 20)
    block2 = _equicorrelated_block(rng, n, 10)
    X = np.clip(np.hstack([block1, block2]), -2.5, 2.5)
    g = hu_function(X)
    if mode == "regression":
        y = g + rng.normal(0.0, 0.5, size=n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-g))).astype(float)
    variables = tuple(
        Variable(f"x{j + 1}", NUMERIC, observed_range=(X[:, j].min(), X[:, j].max()))
        for j in range(30)
    )
    return Dataset(variables, X, y, truth=g)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rmse(actual: np.ndarray, predicted: np.ndarray, weight: np.ndarray | None = None) -> float:
    """Root-mean-squared error normalized by total variation about the mean:
    sqrt(sum (y - yhat)^2 / sum (y - ybar)^2). Equals 1 for the constant
    mean predictor and 0 for a perfect fit."""
    a = np.asarray(actual, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if len(a) != len(p) or len(a) < 2:
        raise ValueError("need equal-length vectors with at least 2 entries")
    w = np.ones(len(a)) if weight is None else np.asarray(weight, dtype=float).ravel()
    mean = np.average(a, weights=w)
    denom = np.sum(w * (a - mean) ** 2)
    if denom <= 0:
        raise ValueError("actual values are constant")
    return float(np.sqrt(np.sum(w * (a - p) ** 2) / denom))


def rmse_target(truth: np.ndarray, predicted: np.ndarray) -> float:
    """Noiseless-target fidelity: sqrt(mean((g - ghat)^2) / var(g)) with the
    population variance convention (so the constant mean predictor scores
    exactly 1)."""
    g = np.asarray(truth, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if len(g) != len(p):
        raise ValueError("need equal-length vectors")
    var = float(np.var(g))
    if var <= 0:
        raise ValueError("truth values are constant")
    return float(np.sqrt(np.mean((g - p) ** 2) / var))
