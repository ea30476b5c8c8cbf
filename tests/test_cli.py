"""End-to-end command-line workflows."""

import copy
import csv
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import functree as ft
from functree.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared generated dataset plus a fitted model."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.csv"
    model = root / "model.json"
    assert run("gen", "--example", "friedman", "--n", "2000", "--seed", "1", "--out", data) == 0
    assert run("fit", "--data", data, "--out", model, "--seed", "5") == 0
    return {"root": root, "data": data, "model": model}


def csv_rows(path, reader=csv.DictReader) -> list:
    with open(path, newline="") as fh:
        return list(reader(fh))


def test_gen_schema(workdir):
    with open(workdir["data"], newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [f"x{j}" for j in range(1, 9)] + ["y", "__truth__"]


@pytest.mark.parametrize("example, flag, value", [
    ("friedman", "--mode", "classification"),
    ("hu", "--snr", "0"),
    ("hu", "--sd-x", "1"),
])
def test_gen_rejects_a_flag_the_example_does_not_read(tmp_path, capsys, example, flag, value):
    out = tmp_path / "g.csv"
    capsys.readouterr()
    assert run("gen", "--example", example, "--n", "30", flag, value, "--out", out) == 2
    assert capsys.readouterr().err == f"error: argument {flag}: not read by --example {example}\n"
    assert not out.exists()


@pytest.mark.parametrize("snr", ["0", "inf"])
def test_gen_snr_zero_or_inf_is_noiseless(tmp_path, snr):
    out = tmp_path / "f.csv"
    assert run("gen", "--example", "friedman", "--n", "50", "--seed", "2", "--snr", snr,
               "--out", out) == 0
    ds = ft.load_csv(out, target="y")
    np.testing.assert_array_equal(ds.y, ds.truth)


def test_gen_hu_modes(tmp_path):
    out = tmp_path / "hu.csv"
    assert run("gen", "--example", "hu", "--n", "50", "--seed", "2", "--out", out,
               "--mode", "classification") == 0
    ds = ft.load_csv(out, target="y", cat_threshold=2)
    assert ds.p == 30
    assert set(np.unique(ds.y)) <= {0.0, 1.0}


def test_fit_summary_reports_variance_explained(workdir, capsys):
    capsys.readouterr()
    assert run("fit", "--data", workdir["data"], "--out", workdir["root"] / "m2.json",
               "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "target variance explained:" in out
    r2 = float(next(ln for ln in out.splitlines() if "variance explained" in ln).split(":")[1])
    assert r2 >= 0.9
    assert "node influences:" in out


def test_fit_max_order_flag(workdir):
    path = workdir["root"] / "additive.json"
    assert run("fit", "--data", workdir["data"], "--out", path, "--max-order", "1") == 0
    tree = ft.load(path)
    assert tree.max_interaction_order() == 1


def test_fit_forbid_flag(workdir):
    path = workdir["root"] / "forbidden.json"
    assert run("fit", "--data", workdir["data"], "--out", path, "--forbid", "x4,x5,x6") == 0
    doc = json.loads(path.read_text())
    tree = ft.load(path)
    for k in range(1, len(tree.nodes)):
        assert not {3, 4, 5} <= tree.path_vars(k)
    assert doc["format_version"] == 1


def test_fit_warns_on_a_categorical_column_with_a_level_per_row(workdir, tmp_path):
    # a level table learns nothing it can apply to unseen rows
    with pytest.warns(UserWarning, match="'x1' has a distinct level on every row"):
        assert run("fit", "--data", workdir["data"], "--categorical", "x1", "--max-nodes", "2",
                   "--out", tmp_path / "m.json") == 0


def test_predict_command(workdir, tmp_path):
    out = tmp_path / "pred.csv"
    assert run("predict", "--model", workdir["model"], "--data", workdir["data"],
               "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "prediction"
    assert len(rows) == 2001
    tree = ft.load(workdir["model"])
    data = ft.load_csv(workdir["data"], target="y")
    assert float(rows[1]) == tree.predict(data.X[:1])[0]


def test_effects_top_triple_and_pa_agreement(workdir, capsys):
    out = workdir["root"] / "effects.csv"
    capsys.readouterr()
    assert run("effects", "--model", workdir["model"], "--data", workdir["data"],
               "--out", out, "--pa", "--log", workdir["root"] / "screen.log") == 0
    rows = csv_rows(out)
    triples = [r for r in rows if int(r["order"]) == 3]
    assert triples and set(triples[0]["subset"].split(";")) == {"x4", "x5", "x6"}
    for r in rows:
        s = float(r["strength"])
        if s >= 0.05 and r["strength_pa"]:
            assert abs(float(r["strength_pa"]) - s) <= 0.1 * s
    assert (workdir["root"] / "screen.log").read_text().startswith("h-screen threshold")


def test_effects_no_screen_matches(workdir, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("effects", "--model", workdir["model"], "--data", workdir["data"],
               "--out", a, "--max-order", "2") == 0
    assert run("effects", "--model", workdir["model"], "--data", workdir["data"],
               "--out", b, "--max-order", "2", "--no-screen") == 0
    rows_a = csv_rows(a)
    rows_b = csv_rows(b)
    top_a = sorted(rows_a, key=lambda r: -float(r["strength"]))[:5]
    top_b = sorted(rows_b, key=lambda r: -float(r["strength"]))[:5]
    assert [r["subset"] for r in top_a] == [r["subset"] for r in top_b]


def test_pd_grid_size_and_centering(workdir, tmp_path):
    out = tmp_path / "pd.csv"
    assert run("pd", "--model", workdir["model"], "--data", workdir["data"],
               "--vars", "x7,x8", "--grid", "40", "--out", out) == 0
    lines = out.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any(ln.startswith("# kind: pd") for ln in meta)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "x7,x8,value"
    assert len(body) == 1 + 40 * 40
    # grid values average near zero against the data's joint distribution
    tree = ft.load(workdir["model"])
    data = ft.load_csv(workdir["data"], target="y")
    grid = ft.pd_fast(tree, (6, 7), data.X[:, [6, 7]], data)
    assert abs(np.average(grid.values, weights=data.weight)) < 1e-8


def test_interact_conditional(workdir, tmp_path):
    out = tmp_path / "i.csv"
    assert run("interact", "--model", workdir["model"], "--data", workdir["data"],
               "--vars", "x4,x5", "--cond", "x6=1.0", "--grid", "9", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# kind: conditional"


def test_diff_command(workdir, tmp_path):
    other = tmp_path / "other.json"
    diffm = tmp_path / "diff.json"
    assert run("fit", "--data", workdir["data"], "--out", other, "--max-order", "1") == 0
    assert run("diff", "--model-a", workdir["model"], "--model-b", other, "--out", diffm) == 0
    a = ft.load(workdir["model"])
    b = ft.load(other)
    d = ft.load(diffm)
    data = ft.load_csv(workdir["data"], target="y")
    np.testing.assert_allclose(
        d.predict(data.X[:50]), a.predict(data.X[:50]) - b.predict(data.X[:50]), atol=1e-10
    )


def test_bootstrap_command(workdir, tmp_path, capsys):
    out = tmp_path / "boot.csv"
    capsys.readouterr()
    assert run("bootstrap", "--data", workdir["data"], "--out", out,
               "--reps", "2", "--max-orders", "0,1", "--max-nodes", "4",
               "--patience", "1", "--seed", "3") == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[-3] == "config,q25,median,q75"
    rows = csv_rows(out)
    assert len(rows) == 4  # 2 configs x 2 replicates


def test_bootstrap_refuses_the_rows_fit_refuses(tmp_path, capsys):
    data = tmp_path / "small.csv"
    assert run("gen", "--example", "friedman", "--n", "12", "--seed", "1", "--out", data) == 0
    for argv in (["fit"], ["bootstrap", "--reps", "2"]):
        capsys.readouterr()
        assert run(*argv, "--data", data, "--out", tmp_path / "out") == 3
        assert "need at least 20 rows" in capsys.readouterr().err


def test_surrogate_self_fidelity(workdir, tmp_path, capsys):
    # predictions of a saved tree, fit again by a tree: near-perfect fidelity
    pred_csv = tmp_path / "pred.csv"
    assert run("predict", "--model", workdir["model"], "--data", workdir["data"],
               "--out", pred_csv) == 0
    preds = pred_csv.read_text().splitlines()[1:]
    rows = csv_rows(workdir["data"], csv.reader)
    rows[0].append("yhat")
    for row, p in zip(rows[1:], preds):
        row.append(p)
    merged = tmp_path / "merged.csv"
    with open(merged, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    out_model = tmp_path / "surrogate.json"
    assert run("surrogate", "--data", merged, "--pred", "yhat",
               "--exclude", "y", "--out", out_model, "--seed", "9") == 0
    printed = capsys.readouterr().out
    fid = float(next(ln for ln in printed.splitlines() if ln.startswith("fidelity")).split(":")[1])
    assert fid < 0.05


def test_exit_code_2_on_bad_flags():
    with pytest.raises(SystemExit) as exc:
        run("fit", "--nonsense")
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("fit", "--max-nodes", "0"),
    ("fit", "--span", "5"),
    ("fit", "--test-fraction", "0"),
    ("fit", "--patience", "-1"),
    ("fit", "--max-order", "-1"),
    ("fit", "--backfit-passes", "-1"),
    ("bootstrap", "--max-orders", "a"),
    ("bootstrap", "--reps", "1"),
    ("gen", "--n", "0"),
    ("gen", "--snr", "nan"),
    ("gen", "--snr", "-1"),
    ("gen", "--sd-x", "nan"),
    ("gen", "--sd-x", "inf"),
    ("gen", "--sd-x", "0"),
    ("fit", "--cat-threshold", "-1"),
    ("fit", "--cat-threshold", "2.5"),
    ("fit", "--seed", "-1"),
    ("effects", "--strength-rows", "0"),
])
def test_bad_flag_values_exit_2_naming_the_flag(workdir, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    rest = {
        "gen": ["--example", "friedman"],
        "effects": ["--model", workdir["model"], "--data", workdir["data"]],
    }.get(command, ["--data", workdir["data"]])
    with pytest.raises(SystemExit) as exc:
        run(command, *rest, flag, value, "--out", out)
    assert exc.value.code == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pd", "interact"])
@pytest.mark.parametrize("grid", ["0", "-3", "2.5", "abc"])
def test_grid_must_be_a_positive_integer(workdir, tmp_path, capsys, command, grid):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        run(command, "--model", workdir["model"], "--data", workdir["data"], "--vars", "x4,x5",
            "--grid", grid, "--out", out)
    assert exc.value.code == 2
    assert "argument --grid: expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cond", ["x6", "=2", "x6="])
def test_cond_must_be_name_equals_value(workdir, tmp_path, capsys, cond):
    with pytest.raises(SystemExit) as exc:
        run("interact", "--model", workdir["model"], "--data", workdir["data"], "--vars", "x4,x5",
            "--cond", cond, "--out", tmp_path / "c.csv")
    assert exc.value.code == 2
    assert "argument --cond: expected NAME=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e400"])
def test_numeric_cond_must_be_a_finite_number(workdir, tmp_path, capsys, value):
    out = tmp_path / "c.csv"
    capsys.readouterr()
    assert run("interact", "--model", workdir["model"], "--data", workdir["data"], "--vars", "x4,x5",
               "--cond", f"x6={value}", "--grid", "5", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --cond: x6=") and "finite number" in err
    assert not out.exists()


def test_cond_variable_must_not_be_in_vars(workdir, tmp_path, capsys):
    out = tmp_path / "c.csv"
    capsys.readouterr()
    assert run("interact", "--model", workdir["model"], "--data", workdir["data"], "--vars", "x4,x5",
               "--cond", "x4=0.1", "--grid", "5", "--out", out) == 2
    err = capsys.readouterr().err
    assert err == "error: argument --cond: x4=0.1: variable 'x4' is also in --vars\n"
    assert not out.exists()


def test_categorical_cond_must_name_a_level(tmp_path, capsys):
    data = _small_csv(tmp_path)
    doc = {"format_version": 1, "b0": 0.0,
           "variables": [{"name": "n", "kind": "numeric", "range": [0.0, 2.9]},
                         {"name": "c", "kind": "categorical", "levels": ["a", "b"]}],
           "nodes": [{"id": 1, "parent": 0, "var": 0, "influence": None, "kind": "curve",
                      "knots": [0.0, 3.0], "values": [0.0, 1.0]},
                     {"id": 2, "parent": 1, "var": 1, "influence": None, "kind": "levels",
                      "values": [1.0, -1.0], "default": 0.0}]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "c.csv"
    argv = ("interact", "--model", model, "--data", data, "--vars", "n", "--grid", "5", "--out", out)
    assert run(*argv, "--cond", "c=b") == 0
    out.unlink()
    capsys.readouterr()
    assert run(*argv, "--cond", "c=nowhere") == 2
    err = capsys.readouterr().err
    assert err == "error: argument --cond: c=nowhere: categorical variable 'c' has no level 'nowhere'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("pd", "--vars", "x4,x4"), "argument --vars: repeated variable 'x4'"),
    (("pd", "--vars", "nowhere"), "argument --vars: unknown variable 'nowhere'"),
    (("fit", "--forbid", "x1,nowhere"), "argument --forbid: unknown variable 'nowhere'"),
])
def test_variable_names_are_flag_errors(workdir, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    command, *flags = argv
    inputs = ("--data", workdir["data"]) if command == "fit" else \
        ("--model", workdir["model"], "--data", workdir["data"])
    capsys.readouterr()
    assert run(command, *inputs, *flags, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_model_file_that_is_not_json_names_the_file(workdir, tmp_path, capsys):
    capsys.readouterr()
    assert run("predict", "--model", workdir["data"], "--data", workdir["data"],
               "--out", tmp_path / "p.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workdir['data']}: not a functree model file (")
    assert err.count("\n") == 1


def test_exit_code_3_on_data_errors(workdir, tmp_path, capsys):
    assert run("fit", "--data", tmp_path / "missing.csv", "--out", tmp_path / "m.json") == 3
    # a path through a file (NotADirectoryError)
    assert run("fit", "--data", workdir["data"] / "x.csv", "--out", tmp_path / "m.json") == 3
    assert run("fit", "--data", workdir["data"], "--target", "nope",
               "--out", tmp_path / "m.json") == 3
    # schema mismatch between model and data
    other = tmp_path / "hu.csv"
    run("gen", "--example", "hu", "--n", "50", "--seed", "1", "--out", other)
    assert run("predict", "--model", workdir["model"], "--data", other,
               "--out", tmp_path / "p.csv") == 3
    capsys.readouterr()


def _small_csv(root):
    """A 30-row CSV with a numeric predictor n and a categorical c of levels
    a and b."""
    data = root / "small.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "c", "y"])
        for i in range(30):
            writer.writerow([i / 10, "ab"[i % 2], i % 3])
    return data


def test_column_name_flags_are_stripped_and_checked(tmp_path, capsys):
    # --exclude and --categorical read names as --vars does, and an
    # --exclude name that is no column is a data error, not ignored
    data = _small_csv(tmp_path)
    out = tmp_path / "s.json"
    argv = ("surrogate", "--data", data, "--pred", "y", "--max-nodes", "2", "--out", out)
    assert run(*argv, "--exclude", " n", "--categorical", "c ") == 0
    assert [v["name"] for v in json.loads(out.read_text())["variables"]] == ["c"]
    out.unlink()
    capsys.readouterr()
    for name in ("N", "nosuch"):
        assert run(*argv, "--exclude", name) == 3
        assert capsys.readouterr().err == f"error: exclude names unknown columns: ['{name}']\n"
        assert not out.exists()


def test_predict_rejects_malformed_model_files(tmp_path, capsys):
    data = _small_csv(tmp_path)
    variables = [{"name": "n", "kind": "numeric", "range": [0.0, 2.9]},
                 {"name": "c", "kind": "categorical", "levels": ["a", "b"]}]
    curve = {"kind": "curve", "knots": [0.0, 3.0], "values": [0.0, 1.0]}
    levels = {"kind": "levels", "values": [1.0, -1.0], "default": 0.0}
    model = tmp_path / "model.json"
    # a well-formed control, then an out-of-range variable index, a level
    # table on the numeric variable and a curve on the categorical one
    for var, func, expect in ((1, levels, 0), (99, curve, 3), (0, levels, 3), (1, curve, 3)):
        node = {"id": 1, "parent": 0, "var": var, "influence": None, **func}
        doc = {"format_version": 1, "b0": 0.0, "variables": variables, "nodes": [node]}
        model.write_text(json.dumps(doc), encoding="utf-8")
        assert run("predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv") == expect
    assert capsys.readouterr().err.count("error: node 1:") == 3
    # a level table longer than its variable's level list
    node = {"id": 1, "parent": 0, "var": 1, "influence": None, **levels, "values": [1.0] * 5}
    doc = {"format_version": 1, "b0": 0.0, "variables": variables, "nodes": [node]}
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert run("predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv") == 3
    assert "error: node 1: level table has 5 values but variable 'c' has 2 levels" in capsys.readouterr().err
    # a non-finite, a null, a boolean and an oversized integer root
    # constant, then a missing key at the top level and in a node
    node = {"id": 1, "parent": 0, "var": 1, "influence": None, **levels}
    no_default = {key: val for key, val in node.items() if key != "default"}
    for doc, message in (
        ({"b0": float("nan"), "nodes": [node]}, "error: model file: b0 must be a finite number"),
        ({"b0": None, "nodes": [node]}, "error: model file: b0 must be a finite number"),
        ({"b0": True, "nodes": [node]}, "error: model file: b0 must be a finite number"),
        ({"b0": 10**400, "nodes": [node]}, "error: model file: b0 must be a finite number"),
        ({"nodes": [node]}, "error: model file: missing key 'b0'"),
        ({"b0": 0.0, "nodes": [no_default]}, "error: node 1: missing key 'default'"),
    ):
        model.write_text(json.dumps({"format_version": 1, "variables": variables, **doc}),
                         encoding="utf-8")
        assert run("predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv") == 3
        assert message in capsys.readouterr().err
    # a JSON value of the wrong type where an object, a list, a number pair
    # or an integer is expected
    valid = {"format_version": 1, "b0": 0.0, "variables": variables, "nodes": [node]}
    numeric = {"name": "n", "kind": "numeric"}
    numeric_node = {"id": 1, "parent": 0, "var": 0, "influence": None, **curve}
    for doc, message in (
        ({**valid, "nodes": [[1, 0]]}, "error: node entry 0: expected a JSON object"),
        ({**valid, "variables": [["n", "numeric"], variables[1]]},
         "error: variable 0: expected a JSON object"),
        ({**valid, "variables": [{**numeric, "range": 5}, variables[1]]},
         "error: variable 'n': 'range' must be a list of two finite numbers"),
        ({**valid, "variables": [{**numeric, "range": [1.0]}, variables[1]]},
         "error: variable 'n': 'range' must be a list of two finite numbers"),
        ({**valid, "nodes": {}}, "error: model file: 'nodes' must be a list"),
        ({**valid, "nodes": [{**node, "id": 1.0}]}, "error: node entry 0: 'id' must be an integer"),
        ([valid], "error: model file: expected a JSON object"),
        # node contents that only the node's own checks see, named by id
        ({**valid, "nodes": [{**numeric_node, "knots": [3.0, 0.0]}]},
         "error: node 1: knots must be strictly increasing"),
        ({**valid, "nodes": [{**numeric_node, "knots": [0.0, 1.0, 3.0]}]},
         "error: node 1: knots and values must be equal-length nonempty 1-d vectors"),
        ({**valid, "nodes": [{**numeric_node, "knots": [], "values": []}]},
         "error: node 1: knots and values must be equal-length nonempty 1-d vectors"),
        ({**valid, "nodes": [node, {**numeric_node, "id": 3}]},
         "error: node 3: node ids must be consecutive, expected 2"),
        ({**valid, "nodes": [node, {**numeric_node, "id": 2, "parent": 2}]},
         "error: node 2: parent 2 must precede the node"),
    ):
        model.write_text(json.dumps(doc), encoding="utf-8")
        assert run("predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv") == 3
        assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A small CSV and a valid model document for it with a curve node and
    a level-table child."""
    root = tmp_path_factory.mktemp("model_files")
    data = _small_csv(root)
    doc = {
        "format_version": 1,
        "b0": 0.5,
        "variables": [{"name": "n", "kind": "numeric", "range": [0.0, 2.9]},
                      {"name": "c", "kind": "categorical", "levels": ["a", "b"]}],
        "nodes": [
            {"id": 1, "parent": 0, "var": 0, "kind": "curve", "knots": [0.0, 3.0],
             "values": [0.0, 1.0], "influence": 0.5},
            {"id": 2, "parent": 1, "var": 1, "kind": "levels", "values": [1.0, -1.0],
             "default": 0.0, "influence": None},
        ],
        "train_stats": {"train_rmse": 0.5, "test_rmse": 0.6, "n_nodes": 2},
    }
    assert ft.FunctionTree.from_dict(doc).n_nodes == 2
    return {"root": root, "data": data, "doc": doc}


def _json_slots(value, out):
    """Every (container, key) pair inside a JSON value, depth first."""
    keys = list(value) if isinstance(value, dict) else range(len(value))
    for key in keys:
        out.append((value, key))
        if isinstance(value[key], (dict, list)):
            _json_slots(value[key], out)
    return out


@settings(max_examples=300, deadline=None)
@given(
    slot=st.integers(0, 10**6),
    action=st.sampled_from(["drop", "replace"]),
    value=st.sampled_from([None, True, "x", [], {}, [1, 0], [1.0], -1, 2.5,
                           float("nan"), 10**400, -(10**400)]),
)
def test_predict_never_raises_on_mutated_model_files(model_files, slot, action, value):
    # drop any key or list entry of a valid model, or put a value of another
    # JSON type, a NaN or an integer beyond the float range in its place:
    # predict and effects either work or exit 3, and never raise
    holder = {"doc": copy.deepcopy(model_files["doc"])}
    container, key = (slots := _json_slots(holder, []))[slot % len(slots)]
    if action == "drop":
        del container[key]
    else:
        container[key] = value
    model = model_files["root"] / "mutated.json"
    model.write_text(json.dumps(holder.get("doc")), encoding="utf-8")
    out = model_files["root"] / "out.csv"
    for command in ("predict", "effects"):
        assert run(command, "--model", model, "--data", model_files["data"], "--out", out) in (0, 3)


_CSV_CELLS = st.one_of(st.sampled_from(["", " ", "NA", "NaN", "nan", "inf", "-inf", "1e400", "text"]),
                       st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(1, 30), st.integers(0, 2), _CSV_CELLS), max_size=3),
    header=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["duplicate", "empty", "bom"])),
                    max_size=2),
    lengths=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["drop", "extra"])), max_size=2),
)
def test_cli_never_raises_on_mutated_csv(model_files, cells, header, lengths):
    # blank, missing, infinite or text cells; a duplicate or empty header
    # name or a byte-order mark before the header; rows with a cell too few
    # or too many: fit and predict either work or exit 2 or 3, and never raise
    root = model_files["root"]
    with open(model_files["data"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for i, j, token in cells:
        rows[i][j] = token
    for j, kind in header:
        if kind == "duplicate":
            rows[0][j] = rows[0][(j + 1) % 3]
        elif kind == "empty":
            rows[0][j] = ""
        else:
            rows[0][0] = "\ufeff" + rows[0][0]
    for i, kind in lengths:
        rows[i] = rows[i][:-1] if kind == "drop" else rows[i] + ["0"]
    data = root / "mutated.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    model = root / "valid.json"
    model.write_text(json.dumps(model_files["doc"]), encoding="utf-8")
    out = root / "out"
    assert run("fit", "--data", data, "--out", out, "--max-nodes", 2) in (0, 2, 3)
    assert run("predict", "--model", model, "--data", data, "--out", out) in (0, 2, 3)


def test_end_to_end_determinism(tmp_path):
    outputs = []
    for trial in ("a", "b"):
        d = tmp_path / f"{trial}.csv"
        m = tmp_path / f"{trial}.json"
        e = tmp_path / f"{trial}_effects.csv"
        assert run("gen", "--example", "friedman", "--n", "600", "--seed", "7", "--out", d) == 0
        assert run("fit", "--data", d, "--out", m, "--seed", "2", "--max-nodes", "8") == 0
        assert run("effects", "--model", m, "--data", d, "--out", e, "--max-order", "2") == 0
        outputs.append((d.read_bytes(), m.read_bytes(), e.read_bytes()))
    assert outputs[0] == outputs[1]


def _argv_cases(root, data, model):
    """A valid, cheap argv for every subcommand."""
    out, log = root / "argv_out", root / "argv.log"
    model_args = ["--model", model, "--data", data]
    fit_args = ["--data", data, "--max-nodes", "2", "--categorical", "c", "--seed", "1"]
    return {
        "gen": ["gen", "--example", "friedman", "--n", "40", "--snr", "2", "--out", out],
        "fit": ["fit", *fit_args, "--forbid", "n,c", "--span", "0.5", "--out", out],
        "predict": ["predict", *model_args, "--target", "y", "--out", out],
        "effects": ["effects", *model_args, "--max-order", "2", "--strength-rows", "20",
                    "--log", log, "--out", out],
        "pd": ["pd", *model_args, "--vars", "n", "--grid", "3", "--out", out],
        "interact": ["interact", *model_args, "--vars", "n", "--cond", "c=a", "--grid", "3",
                     "--out", out],
        "diff": ["diff", "--model-a", model, "--model-b", model, "--out", out],
        "bootstrap": ["bootstrap", *fit_args, "--reps", "2", "--max-orders", "0,1", "--out", out],
        "surrogate": ["surrogate", "--data", data, "--max-nodes", "2", "--pred", "y",
                      "--exclude", "c", "--out", out],
    }


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from(["gen", "fit", "predict", "effects", "pd", "interact", "diff",
                             "bootstrap", "surrogate"]),
    flag=st.integers(0, 10**6),
    action=st.sampled_from(["keep", "drop", "set"]),
    value=st.sampled_from(["", "-1", "nan", "1e400", "nowhere", "n,n", "directory"]),
)
def test_cli_never_raises_on_mutated_argv(model_files, command, flag, action, value):
    # a valid command line works; with one flag dropped, or given an empty,
    # negative, NaN, overflowing, unknown, repeated or directory value, the
    # command works or exits 2 or 3, never raises, and a grid it writes is
    # not empty
    root = model_files["root"]
    (root / "cwd").mkdir(exist_ok=True)
    model = root / "argv_model.json"
    model.write_text(json.dumps(model_files["doc"]), encoding="utf-8")
    argv = _argv_cases(root, model_files["data"], model)[command]
    flags = [i for i, a in enumerate(argv) if isinstance(a, str) and a.startswith("--")]
    at = flags[flag % len(flags)]
    if action == "drop":
        del argv[at:at + 2]
    elif action == "set":
        argv[at + 1] = str(root) if value == "directory" else value
    out = root / "argv_out"
    if out.is_file():
        out.unlink()
    # a relative path made of a value lands in the scratch directory
    cwd = os.getcwd()
    os.chdir(root / "cwd")
    try:
        code = run(*argv)
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in ((0,) if action == "keep" else (0, 2, 3))
    if code == 0 and command in ("pd", "interact") and out.is_file():
        with open(out, newline="", encoding="utf-8") as fh:
            assert len([row for row in csv.reader(fh) if not row[0].startswith("#")]) > 1
