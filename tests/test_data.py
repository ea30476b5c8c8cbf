"""Dataset loading, generators, and metric contracts."""

import copy
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import functree as ft
import functree.data as ftdata
from functree.cli import main
from functree.data import (
    DataError,
    Dataset,
    SplitSpec,
    Variable,
    friedman_function,
    hu_function,
    load_csv,
    rmse,
    rmse_target,
    split_indices,
    write_csv,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_basic_types(tmp_path):
    p = _write(tmp_path / "d.csv", "a,b,y\n1.5,x,1\n2.5,y,2\n3.5,x,3\n")
    ds = load_csv(p, target="y", cat_threshold=2)
    assert ds.p == 2
    a, b = ds.variables
    assert a.kind == "numeric" and b.kind == "categorical"
    assert b.levels == ("x", "y")
    assert list(ds.X[:, 1]) == [0.0, 1.0, 0.0]
    assert list(ds.y) == [1.0, 2.0, 3.0]


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    p = _write(tmp_path / "d.csv", "\ufeffy,a\n1,1.5\n2,2.5\n3,3.5\n")
    ds = load_csv(p, target="y", cat_threshold=2)
    assert ds.names == ("a",) and list(ds.y) == [1.0, 2.0, 3.0]


def test_missing_target_errors(tmp_path):
    p = _write(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
    with pytest.raises(DataError, match="target"):
        load_csv(p, target="y")


def test_missing_cell_rejected(tmp_path):
    p = _write(tmp_path / "d.csv", "a,y\n1,2\n,4\n")
    with pytest.raises(DataError, match="missing"):
        load_csv(p, target="y")


@pytest.mark.parametrize("token", ["-nan", "+NaN"])
@pytest.mark.parametrize("kind", ["string_levels", "few_valued", "numeric"])
def test_signed_nan_is_a_missing_value(tmp_path, token, kind):
    # float() reads a signed nan as NaN, so it is a missing cell wherever it
    # sits: in a column of string levels, of few numbers (categorical by
    # the threshold) or of many numbers
    values = {"string_levels": ["u", "u", "u", "v"], "few_valued": ["1", "1", "1", "2"],
              "numeric": [f"{i}.5" for i in range(12)]}[kind]
    values[1] = token
    rows = "".join(f"{i},{v}\n" for i, v in enumerate(values, 1))
    p = _write(tmp_path / "d.csv", "y,a\n" + rows)
    with pytest.raises(DataError, match="^column 'a', row 2: missing value$"):
        load_csv(p, target="y")
    assert main(["fit", "--data", str(p), "--out", str(tmp_path / "m.json")]) == 3


def test_missing_file_errors(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv", target="y")


@pytest.mark.parametrize("body, message", [
    # a quoted cell past csv's default field size limit of 131,072 characters
    (('a,b,y\n1,"' + "x" * 140_000 + '",2\n3,z,4\n').encode(), "field larger than field limit"),
    # Latin-1 text, which is not UTF-8
    ("a,b,y\n1,caf\xe9,2\n3,z,4\n".encode("latin-1"), "can't decode byte 0xe9"),
], ids=["field_limit", "not_utf8"])
def test_unreadable_csv_is_a_data_error_naming_the_file(tmp_path, capsys, body, message):
    p = tmp_path / "d.csv"
    p.write_bytes(body)
    with pytest.raises(DataError, match=message):
        load_csv(p, target="y")
    capsys.readouterr()
    assert main(["fit", "--data", str(p), "--out", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: not a readable CSV file (") and message in err
    assert err.count("\n") == 1


def test_few_valued_integer_column_becomes_categorical(tmp_path):
    # 3 distinct values, threshold 10: treated as a factor
    rows = "\n".join(f"{i % 3},{i * 0.37},{i}" for i in range(30))
    p = _write(tmp_path / "d.csv", "a,b,y\n" + rows + "\n")
    ds = load_csv(p, target="y")
    assert ds.variables[0].kind == "categorical"
    assert ds.variables[0].levels == ("0", "1", "2")
    assert ds.variables[1].kind == "numeric"


def test_constant_predictor_dropped_with_warning(tmp_path):
    p = _write(tmp_path / "d.csv", "a,b,y\n7,1,1\n7,2,2\n7,3,3\n")
    with pytest.warns(UserWarning, match="single distinct value"):
        ds = load_csv(p, target="y", cat_threshold=1)
    assert ds.names == ("b",)


def test_non_numeric_token_forces_categorical(tmp_path):
    rows = "\n".join(f"t{i},{i}" for i in range(20))
    p = _write(tmp_path / "d.csv", "a,y\n" + rows + "\n")
    ds = load_csv(p, target="y")
    assert ds.variables[0].kind == "categorical"
    assert len(ds.variables[0].levels) == 20


def test_exclude_drops_columns(tmp_path):
    p = _write(tmp_path / "d.csv", "a,b,y\n1,5,1\n2,6,2\n3,7,3\n")
    ds = load_csv(p, target="y", cat_threshold=0, exclude=("b",))
    assert ds.names == ("a",)
    # a name that is no column is an error, not ignored
    with pytest.raises(DataError, match=r"exclude names unknown columns: \['B', 'c'\]"):
        load_csv(p, target="y", cat_threshold=0, exclude=("a", "c", "B"))


def test_roundtrip_identity(tmp_path):
    ds = ft.gen_friedman(60, seed=3)
    out = tmp_path / "w.csv"
    write_csv(ds, out)
    back = load_csv(out, target="y")
    assert back.names == ds.names
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.truth, ds.truth)


def test_roundtrip_with_categoricals(tmp_path):
    p = _write(tmp_path / "d.csv", "a,b,y\n1.25,x,1\n2.5,z,2\n3.75,x,3\n")
    ds = load_csv(p, target="y", cat_threshold=2)
    out = tmp_path / "w.csv"
    write_csv(ds, out)
    back = load_csv(out, target="y", cat_threshold=2)
    assert [v.levels for v in back.variables] == [v.levels for v in ds.variables]
    np.testing.assert_array_equal(back.X, ds.X)


def _load_outcome(path, **kwargs):
    """load_csv's Dataset, or the type and text of the error it raised, with
    the text of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load_csv(path, **kwargs)
        except Exception as exc:  # the error itself is compared
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def _assert_same_dataset(a, b):
    assert a.variables == b.variables and a.target_name == b.target_name
    for key in ("X", "y", "weight", "truth"):
        left, right = getattr(a, key), getattr(b, key)
        assert (left is None) == (right is None), key
        if left is not None:
            assert left.dtype == right.dtype and left.shape == right.shape, key
            assert left.tobytes() == right.tobytes(), key


LONG_LEVEL = "level-" + "q" * 70
_FEW_VALUES = ["1", "1.0", "2", "3", "-0", "0"]
_LEVELS = ["a", "b", " a", "b ", "c#d", LONG_LEVEL, "1", "x y"]
_ODD_TOKENS = ["nan", "NaN", "-nan", "na", "NA", "1e400", "inf", "1_000", "\u0661\u0662",
               "", "  ", " 2.5 ", "\t7", "#7", "1#", "none", '"1.5"', '"a,b"', '"', "0x1"]


@st.composite
def _csv_files(draw):
    """A headed CSV as text, mostly clean numbers, with a few odd cells,
    quotes, line ends, blank lines, ragged rows and a byte-order mark."""
    n = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "few", "string"]), min_size=1, max_size=4))
    header = ["y"] + [f"c{j}" for j in range(len(kinds))]
    floats = st.floats(-1e3, 1e3, allow_nan=False).map(repr) | st.integers(-50, 50).map(str)
    columns = [draw(st.lists(floats, min_size=n, max_size=n))]
    for kind in kinds:
        pool = {"float": floats, "few": st.sampled_from(_FEW_VALUES), "string": st.sampled_from(_LEVELS)}[kind]
        columns.append(draw(st.lists(pool, min_size=n, max_size=n)))
    if draw(st.booleans()):
        header.append(ft.TRUTH_COLUMN)
        columns.append(draw(st.lists(floats, min_size=n, max_size=n)))
    rows = [list(r) for r in zip(*columns)]
    for i, j, tok in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, len(header) - 1),
                                             st.sampled_from(_ODD_TOKENS)), max_size=2)):
        rows[i][j] = tok
    for i, extra in draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=1)):
        rows[i] = rows[i] + ["4"] if extra else rows[i][:-1]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for i in draw(st.lists(st.integers(1, len(lines)), max_size=1)):
        lines.insert(i, "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    if draw(st.booleans()):
        text = "\ufeff" + text
    strings = [name for name, kind in zip(header[1:], kinds) if kind == "string"]
    kwargs = {
        "target": "y",
        "cat_threshold": draw(st.integers(0, 4)),
        "exclude": draw(st.lists(st.sampled_from(strings), max_size=1)) if strings else [],
        "categorical_override": draw(st.lists(st.sampled_from(header[1:]), max_size=1, unique=True)),
    }
    return text, kwargs


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=400, deadline=None)
@given(case=_csv_files())
# a quote opening a string cell swallows the rest of the file in csv.reader
@example(case=('y,c0\n1,a\n2,"\n3,b\n', {"target": "y"}))
# '#' would start a comment in np.loadtxt's default, leaving "2" to parse
@example(case=("y,c0\n1,1.5\n2,2#\n3,3.5\n", {"target": "y", "cat_threshold": 0}))
def test_load_csv_equals_the_per_cell_parse(csv_dir, case):
    # the one-pass numeric parse, with its fallback, against the per-cell
    # parse alone: the same Dataset bit for bit, or the same error text, and
    # the same warnings
    text, kwargs = case
    path = csv_dir / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    got, got_warnings = _load_outcome(path, **kwargs)
    with mock.patch.object(ftdata, "_read_numbers", lambda *args: None):
        want, want_warnings = _load_outcome(path, **kwargs)
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, Dataset)
        _assert_same_dataset(got, want)


def test_plain_csv_skips_the_per_cell_parse(tmp_path):
    # a file as write_csv writes it, with a string-levelled column, never
    # reaches the per-cell parse
    data = ft.gen_friedman(300, seed=4)
    levels = ("north", "south", "east")
    grp = Variable("grp", "categorical", levels=levels)
    codes = np.arange(data.n) % 3.0
    data = Dataset(data.variables + (grp,), np.column_stack([data.X, codes]), data.y, truth=data.truth)
    out = tmp_path / "w.csv"
    write_csv(data, out)
    with mock.patch.object(ftdata, "_read_cells", side_effect=AssertionError("per-cell parse")):
        back = load_csv(out, target="y")
    assert back.variables[-1].levels == ("east", "north", "south")
    np.testing.assert_array_equal(back.X[:, :8], data.X[:, :8])
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.truth, data.truth)


def test_write_csv_bytes_equal_the_per_cell_writer(tmp_path):
    # the column-wise writer against a cell-by-cell reference
    data = ft.gen_friedman(500, seed=6)
    grp = Variable("grp", "categorical", levels=("north", "south", "east", "west"))
    codes = np.random.default_rng(6).integers(0, 4, size=data.n).astype(float)
    data = Dataset(data.variables[:3] + (grp,) + data.variables[3:],
                   np.column_stack([data.X[:, :3], codes, data.X[:, 3:]]), data.y, truth=data.truth)
    lines = [",".join([v.name for v in data.variables] + ["y", ft.TRUTH_COLUMN])]
    for i in range(data.n):
        row = [v.levels[int(data.X[i, j])] if v.is_categorical else repr(float(data.X[i, j]))
               for j, v in enumerate(data.variables)]
        lines.append(",".join(row + [repr(float(data.y[i])), repr(float(data.truth[i]))]))
    out = tmp_path / "w.csv"
    write_csv(data, out)
    assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode("utf-8")


# ---------------------------------------------------------------------------
# Dataset invariants
# ---------------------------------------------------------------------------

def test_dataset_rejects_bad_level_index():
    v = Variable("c", "categorical", levels=("a", "b"))
    with pytest.raises(ValueError, match="level index"):
        Dataset((v,), np.array([[0.0], [2.0]]), np.array([1.0, 2.0]))


def test_dataset_needs_rows_and_columns():
    v = Variable("a", "numeric")
    with pytest.raises(ValueError):
        Dataset((v,), np.array([[1.0]]), np.array([1.0]))


def test_dataset_rejects_all_zero_weights():
    data = ft.gen_friedman(300, seed=1)
    with pytest.raises(ValueError, match="weights sum to zero"):
        Dataset(data.variables, data.X, data.y, weight=np.zeros(data.n))
    one = np.zeros(data.n)
    one[7] = 1.0
    assert Dataset(data.variables, data.X, data.y, weight=one).weight.sum() == 1.0


def _assert_read_only(data):
    for a in (data.X, data.y, data.weight) + (() if data.truth is None else (data.truth,)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_dataset_arrays_are_read_only_views(tmp_path):
    # a Dataset stores read-only views: a write through data.X and the rest
    # raises, while the arrays the caller passed stay writable
    rng = np.random.default_rng(4)
    X, y, w, t = rng.normal(size=(20, 2)), rng.normal(size=20), np.ones(20), rng.normal(size=20)
    data = Dataset((Variable("a", "numeric"), Variable("b", "numeric")), X, y, weight=w, truth=t)
    _assert_read_only(data)
    for a in (X, y, w, t):
        assert a.flags.writeable
        a[0] = 0.5
    assert data.X[0, 0] == 0.5 and data.y[0] == 0.5
    # a deep copy and an unpickled copy are read-only too
    for c in (copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        _assert_read_only(c)
        np.testing.assert_array_equal(c.X, data.X)
        np.testing.assert_array_equal(c.truth, data.truth)
        assert (c.variables, c.target_name) == (data.variables, data.target_name)
    # the row subset, the CSV loader and both generators keep working
    sub = ftdata.take_rows(data, np.array([3, 1, 3]))
    _assert_read_only(sub)
    np.testing.assert_array_equal(sub.X, X[[3, 1, 3]])
    np.testing.assert_array_equal(sub.truth, t[[3, 1, 3]])
    for gen in (ft.gen_hu(50, seed=1), ft.gen_friedman(50, seed=1)):
        _assert_read_only(gen)
        out = tmp_path / "g.csv"
        write_csv(gen, out)
        back = load_csv(out, target="y")
        _assert_read_only(back)
        np.testing.assert_array_equal(back.X, gen.X)
        np.testing.assert_array_equal(back.truth, gen.truth)


def test_split_is_deterministic_and_disjoint():
    spec = SplitSpec(0.25, seed=9)
    tr1, te1 = split_indices(100, spec)
    tr2, te2 = split_indices(100, spec)
    np.testing.assert_array_equal(tr1, tr2)
    np.testing.assert_array_equal(te1, te2)
    assert len(te1) == 25
    assert not set(tr1) & set(te1)
    assert set(tr1) | set(te1) == set(range(100))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_friedman_value_at_origin():
    # hand evaluation: 15 * 0.4 * (-0.6) * 0.2 = -0.72, all other terms vanish
    assert friedman_function(np.zeros((1, 8)))[0] == pytest.approx(-0.72, abs=1e-12)


def test_friedman_signal_noise_ratio():
    ds = ft.gen_friedman(10000, seed=17, snr=2.0)
    noise = ds.y - ds.truth
    ratio = np.var(noise) / np.var(ds.truth)
    assert abs(ratio - 0.25) < 0.025  # within 10% of 1/4


def test_friedman_noiseless_limit():
    ds = ft.gen_friedman(50, seed=1, snr=math.inf)
    np.testing.assert_array_equal(ds.y, ds.truth)


@pytest.mark.parametrize("kwargs", [
    {"snr": math.nan}, {"snr": 0.0}, {"snr": -1.0},
    {"sd_x": math.nan}, {"sd_x": math.inf}, {"sd_x": 0.0},
])
def test_friedman_rejects_bad_scales(kwargs):
    with pytest.raises(ValueError, match="sd_x"):
        ft.gen_friedman(50, seed=1, **kwargs)


def test_friedman_deterministic():
    a = ft.gen_friedman(200, seed=5)
    b = ft.gen_friedman(200, seed=5)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_hu_value_at_origin():
    assert hu_function(np.zeros((1, 30)))[0] == 0.0


def test_hu_correlation_structure():
    ds = ft.gen_hu(20000, seed=2)
    c12 = np.corrcoef(ds.X[:, 0], ds.X[:, 1])[0, 1]
    assert 0.45 <= c12 <= 0.55
    # second block independent of the first
    c_cross = np.corrcoef(ds.X[:, 0], ds.X[:, 25])[0, 1]
    assert abs(c_cross) < 0.05
    # post-truncation correlations stay near 0.5 across the first block
    # (measured 0.497 +- 0.01 at n=20000; truncation attenuates very little)
    sub = ds.X[:, :8]
    cors = np.corrcoef(sub, rowvar=False)
    off = cors[np.triu_indices(8, 1)]
    assert np.all(np.abs(off - 0.5) < 0.05)


def test_hu_values_clipped():
    ds = ft.gen_hu(5000, seed=7)
    assert ds.X.min() >= -2.5 and ds.X.max() <= 2.5


def test_hu_classification_mode():
    ds = ft.gen_hu(2000, seed=11, mode="classification")
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    # positive log-odds rows should be mostly ones
    hi = ds.y[ds.truth > 2.0]
    assert hi.mean() > 0.8


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_rmse_mean_predictor_is_one():
    y = np.array([1.0, 2.0, 5.0, -3.0])
    pred = np.full(4, y.mean())
    assert rmse(y, pred) == pytest.approx(1.0, abs=1e-15)


def test_rmse_perfect_fit_is_zero():
    y = np.array([1.0, 2.0, 5.0])
    assert rmse(y, y) == 0.0


def test_rmse_hand_value():
    assert rmse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_rmse_constant_actual_errors():
    with pytest.raises(ValueError, match="constant"):
        rmse(np.array([1.0, 1.0]), np.array([0.0, 2.0]))


def test_rmse_target_conventions():
    g = np.array([0.0, 1.0, 2.0, 7.0])
    assert rmse_target(g, g) == 0.0
    assert rmse_target(g, np.full(4, g.mean())) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="constant"):
        rmse_target(np.ones(3), np.zeros(3))
