"""Acceptance criteria, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The two
benchmark models (the 8-variable synthetic at n=10000 and the 30-variable
correlated one at n=20000) are fitted once per session and shared.
"""

import time
import warnings
from itertools import combinations

import numpy as np
import pytest

import functree as ft
from functree.cli import main as cli_main
from functree.data import split_indices
from functree.interactions import EffectEngine, conditional_interaction, search_effects
from functree.pdengine import pd_brute, pd_fast, resolve_points
from functree.smoothers import SmootherSpec, smooth
from functree.tree import FitConfig, backfit_pass

from conftest import random_dataset, random_tree


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared benchmark fits
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def friedman_bench():
    data = ft.gen_friedman(10000, seed=11, snr=2.0)
    t0 = time.perf_counter()
    tree = ft.fit(data, FitConfig())
    elapsed = time.perf_counter() - t0
    return {"data": data, "tree": tree, "seconds": elapsed}


@pytest.fixture(scope="session")
def hu_bench():
    data = ft.gen_hu(20000, seed=3, mode="regression")
    t0 = time.perf_counter()
    tree = ft.fit(data, FitConfig())
    elapsed = time.perf_counter() - t0
    return {"data": data, "tree": tree, "seconds": elapsed}


# ---------------------------------------------------------------------------
# Criterion 1: synthetic benchmark accuracy and runtime
# ---------------------------------------------------------------------------

def test_criterion_1_friedman_variance_explained(friedman_bench):
    data, tree = friedman_bench["data"], friedman_bench["tree"]
    r2 = 1.0 - ft.rmse_target(data.truth, tree.predict(data.X)) ** 2
    ok = r2 >= 0.95 and friedman_bench["seconds"] < 300.0
    report(
        "criterion 1 (synthetic benchmark)",
        ok,
        f"variance explained {r2:.4f} (need >= 0.95), "
        f"fit took {friedman_bench['seconds']:.1f}s (need < 300s), "
        f"{tree.n_nodes} nodes",
    )


# ---------------------------------------------------------------------------
# Criterion 2: correlated 30-variable benchmark
# ---------------------------------------------------------------------------

def test_criterion_2_hu_rmse(hu_bench):
    data, tree = hu_bench["data"], hu_bench["tree"]
    _, te = split_indices(data.n, FitConfig().split)
    val = ft.rmse_target(data.truth[te], tree.predict(data.X[te]))
    ok = val <= 0.10
    report(
        "criterion 2 (correlated benchmark)",
        ok,
        f"noiseless-target rmse {val:.4f} (need <= 0.10)",
    )


# ---------------------------------------------------------------------------
# Criterion 3: effect recovery
# ---------------------------------------------------------------------------

def test_criterion_3a_friedman_effect_ranking(friedman_bench):
    data, tree = friedman_bench["data"], friedman_bench["tree"]
    rep = search_effects(tree, data, max_order=3)
    pairs = [e.subset for e in rep.entries if e.order == 2][:3]
    triples = [e.subset for e in rep.entries if e.order == 3]
    ok = (0, 1) in pairs and (6, 7) in pairs and bool(triples) and triples[0] == (3, 4, 5)
    report(
        "criterion 3a (synthetic effect recovery)",
        ok,
        f"top-3 pairs {pairs}, top triple {triples[0] if triples else None}",
    )


def test_criterion_3b_hu_strengths_dominate_irrelevant(hu_bench):
    data, tree = hu_bench["data"], hu_bench["tree"]
    rep = search_effects(tree, data, max_order=3, use_screens=False,
                         strength_rows=2000, seed=1)
    interaction_terms = [
        (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 1, 2), (3, 4, 5),
    ]
    weakest = min(rep.entry(s).strength for s in interaction_terms)
    irrelevant = [e.strength for e in rep.entries if any(j >= 20 for j in e.subset)]
    strongest_noise = max(irrelevant) if irrelevant else 0.0
    # screening must also be conservative: same top-10 as the exhaustive search
    screened = search_effects(tree, data, max_order=3, strength_rows=2000, seed=1)
    top_s = [frozenset(e.subset) for e in screened.top(k=10)]
    top_f = [frozenset(e.subset) for e in rep.top(k=10)]
    ok = weakest >= 3.0 * strongest_noise and top_s == top_f
    report(
        "criterion 3b (correlated effect recovery)",
        ok,
        f"weakest true interaction {weakest:.4f} vs strongest irrelevant "
        f"{strongest_noise:.5f} (need 3x margin); screened top-10 matches "
        f"exhaustive: {top_s == top_f}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: fast partial dependence oracle
# ---------------------------------------------------------------------------

def test_criterion_4_fast_pd_equals_brute():
    rng = np.random.default_rng(1234)
    worst = 0.0
    checked = 0
    for trial in range(20):
        # finer grids on the first few trees, coarser after (runtime)
        resolutions = {1: 21, 2: 8, 3: 4} if trial < 3 else {1: 15, 2: 6, 3: 4}
        cats = (1, 4) if trial % 3 == 0 else ()
        tree = random_tree(rng, p=6, max_nodes=15, categorical=cats)
        data = random_dataset(rng, tree, n=120)
        for size in (1, 2, 3):
            for subset in combinations(range(6), size):
                grid = pd_fast(tree, subset, None, data, resolution=resolutions[size])
                if grid.n_points > 100:
                    continue
                brute = pd_brute(tree.predict, subset, list(grid.axes), data)
                worst = max(worst, float(np.max(np.abs(grid.values - brute.values))))
                checked += 1
    ok = worst < 1e-8
    report(
        "criterion 4 (fast-PD oracle)",
        ok,
        f"max |fast - brute| {worst:.2e} over {checked} grids on 20 random trees",
    )


# ---------------------------------------------------------------------------
# Criterion 5: pure-interaction soundness
# ---------------------------------------------------------------------------

def test_criterion_5_pure_interaction_soundness(friedman_bench):
    data = friedman_bench["data"]
    rng = np.random.default_rng(99)

    worst_strength = 0.0
    for m in (1, 2):
        tree_m = ft.fit(data, FitConfig(max_order=m, max_nodes=30))
        eng = EffectEngine(tree_m, data)
        for size in range(m + 1, 5):
            for subset in [tuple(sorted(rng.choice(8, size, replace=False))) for _ in range(6)]:
                worst_strength = max(worst_strength, eng.strength(subset))

    tree = friedman_bench["tree"]
    eng = EffectEngine(tree, data)
    worst_ie = 0.0
    for _ in range(50):
        size = int(rng.integers(1, 5))
        subset = tuple(sorted(rng.choice(8, size, replace=False)))
        _, pts, _ = resolve_points(data, subset, None, {1: 25, 2: 8, 3: 5, 4: 4}[size])
        total = np.zeros(len(pts))
        for k in range(1, size + 1):
            for u in combinations(subset, k):
                cols = [subset.index(v) for v in u]
                total += eng.i_at(u, pts[:, cols])
        worst_ie = max(worst_ie, float(np.max(np.abs(total - eng.effect_at(subset, pts)))))

    ok = worst_strength < 1e-6 and worst_ie < 1e-8
    report(
        "criterion 5 (pure-interaction soundness)",
        ok,
        f"max strength above the order cap {worst_strength:.2e} (need < 1e-6); "
        f"max inclusion-exclusion residual {worst_ie:.2e} (need < 1e-8)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: conditional interactions
# ---------------------------------------------------------------------------

def test_criterion_6_conditional_interactions(friedman_bench):
    data, tree = friedman_bench["data"], friedman_bench["tree"]
    grids = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for v in (-2.0, 0.0, 2.0):
            grids[v] = conditional_interaction(tree, (3, 4), {5: v}, None, data,
                                               resolution=25)
    ratio = grids[0.0].rms() / grids[2.0].rms()
    a, b = grids[-2.0].values, grids[2.0].values
    cosine = float(a @ b / np.sqrt((a @ a) * (b @ b)))
    ok = ratio < 0.20 and cosine < 0.0
    report(
        "criterion 6 (conditional interactions)",
        ok,
        f"rms(x6=0)/rms(x6=2) = {ratio:.3f} (need < 0.20), "
        f"cosine(x6=-2, x6=+2) = {cosine:.3f} (need < 0)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: screening
# ---------------------------------------------------------------------------

def test_criterion_7_screening(hu_bench):
    data, tree = hu_bench["data"], hu_bench["tree"]
    hres = ft.screen_h(tree, data)
    rres = ft.screen_r(tree, data)
    flagged = tuple(hres.flagged)
    level4 = rres.included(4)
    ok = flagged == (0, 1, 2, 3, 4, 5) and level4 == ()
    report(
        "criterion 7 (screening)",
        ok,
        f"interacting set {tuple(f'x{j+1}' for j in flagged)} "
        f"(need exactly x1..x6), level-4 pool {level4} (need empty)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: constrained-refit ordering under the bootstrap
# ---------------------------------------------------------------------------

def test_criterion_8_bootstrap_ordering():
    data = ft.gen_friedman(2500, seed=21)
    configs = [FitConfig(), FitConfig(max_order=2), FitConfig(max_order=1)]
    res = ft.bootstrap_compare(data, configs, reps=20, seed=7,
                               labels=["unconstrained", "max_order=2", "max_order=1"])
    med = res.medians()
    ok = med[0] < med[1] < med[2]
    report(
        "criterion 8 (constrained-refit ordering)",
        ok,
        "median test rmse " + " < ".join(f"{m:.4f}" for m in med) + " (must increase)",
    )


# ---------------------------------------------------------------------------
# Criterion 9: property suite
# ---------------------------------------------------------------------------

def test_criterion_9_property_suite(friedman_bench, tmp_path):
    data, tree = friedman_bench["data"], friedman_bench["tree"]
    details = []

    # smoother rank equivariance under a strictly monotone transform
    rng = np.random.default_rng(5)
    x = rng.normal(size=300) + 1e-4 * np.arange(300)
    r = rng.normal(size=300)
    w = rng.uniform(0.5, 1.5, 300)
    base = smooth(x, r, w, SmootherSpec("near_neighbor", span=0.2))
    trans = smooth(x**3, r, w, SmootherSpec("near_neighbor", span=0.2))
    equiv = float(np.max(np.abs(np.sort(base.values) - np.sort(trans.values))))
    details.append(f"equivariance {equiv:.1e}")

    # training SSE monotone across additions (backfitting included)
    sse = [h["train_sse"] for h in tree.fit_history]
    mono_add = all(b <= a + 1e-9 * max(1.0, a) for a, b in zip(sse, sse[1:]))
    # and across standalone backfit passes
    t1 = backfit_pass(tree, data)
    t2 = backfit_pass(t1, data)
    mses = [float(np.mean((data.y - t.predict(data.X)) ** 2)) for t in (tree, t1, t2)]
    mono_bf = mses[1] <= mses[0] + 1e-9 and mses[2] <= mses[1] + 1e-9
    details.append(f"sse monotone additions={mono_add} backfit={mono_bf}")

    # effect-grid centering over the data distribution
    worst_center = 0.0
    for subset in [(2,), (0, 1), (3, 4, 5)]:
        grid = pd_fast(tree, subset, data.X[:, list(subset)], data)
        worst_center = max(worst_center, abs(float(np.average(grid.values, weights=data.weight))))
    details.append(f"centering {worst_center:.1e}")

    # save/load prediction identity
    path = tmp_path / "model.json"
    ft.save(tree, path)
    loaded = ft.load(path)
    probe = ft.gen_friedman(2000, seed=99).X
    io_err = float(np.max(np.abs(loaded.predict(probe) - tree.predict(probe))))
    details.append(f"save/load {io_err:.1e}")

    # end-to-end determinism under fixed seeds (library and CLI)
    refit = ft.fit(data, FitConfig())
    det_lib = bool(np.array_equal(refit.predict(probe), tree.predict(probe)))
    blobs = []
    for trial in ("a", "b"):
        d = tmp_path / f"{trial}.csv"
        m = tmp_path / f"{trial}.json"
        assert cli_main(["gen", "--example", "friedman", "--n", "500", "--seed", "4",
                         "--out", str(d)]) == 0
        assert cli_main(["fit", "--data", str(d), "--out", str(m), "--seed", "2",
                         "--max-nodes", "6"]) == 0
        blobs.append(d.read_bytes() + m.read_bytes())
    det_cli = blobs[0] == blobs[1]
    details.append(f"determinism lib={det_lib} cli={det_cli}")

    ok = (
        equiv < 1e-10
        and mono_add
        and mono_bf
        and worst_center < 1e-8
        and io_err < 1e-12
        and det_lib
        and det_cli
    )
    report("criterion 9 (property suite)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Additional published-value checks at benchmark scale
# ---------------------------------------------------------------------------

def test_interaction_surface_range_matches_published(friedman_bench):
    data, tree = friedman_bench["data"], friedman_bench["tree"]
    grid = ft.pure_interaction(tree, (6, 7), None, data)
    lo, hi = float(grid.values.min()), float(grid.values.max())
    ok = abs(lo - (-5.06)) <= 0.15 * 5.06 and abs(hi - 5.49) <= 0.15 * 5.49
    report(
        "extra (x7,x8 interaction surface range)",
        ok,
        f"grid range [{lo:.2f}, {hi:.2f}] vs published [-5.06, 5.49] within 15%",
    )


def test_quadratic_component_matches_analytic(friedman_bench):
    data, tree = friedman_bench["data"], friedman_bench["tree"]
    grid = pd_fast(tree, (2,), None, data)
    analytic = 7.0 * grid.points[:, 0] ** 2 - np.mean(7.0 * data.X[:, 2] ** 2)
    rms = float(np.sqrt(np.mean((grid.values - analytic) ** 2)))
    ok = rms < 0.15
    report("extra (x3 analytic component)", ok, f"rms vs 7*x3^2 - mean: {rms:.3f} (need < 0.15)")


def test_backfit_stabilizes_in_two_passes(friedman_bench):
    # two further passes over the fitted benchmark model: the second moves
    # training MSE by well under 10% of what the first moves
    data, tree = friedman_bench["data"], friedman_bench["tree"]
    y = data.y
    mse0 = float(np.mean((y - tree.predict(data.X)) ** 2))
    t1 = backfit_pass(tree, data)
    mse1 = float(np.mean((y - t1.predict(data.X)) ** 2))
    t2 = backfit_pass(t1, data)
    mse2 = float(np.mean((y - t2.predict(data.X)) ** 2))
    ratio = (mse1 - mse2) / (mse0 - mse1)
    ok = 0.0 <= ratio < 0.10
    report("extra (backfit stabilization)", ok,
           f"second-pass change is {ratio:.1%} of the first (need < 10%)")


def test_pa_matches_pd_under_independence():
    data = ft.gen_friedman(20000, seed=21)
    tree = ft.fit(data, FitConfig())
    worst = 0.0
    for subset in [(0,), (3,), (6,)]:
        gpd = pd_fast(tree, subset, None, data)
        gpa = ft.pa(tree, subset, [gpd.axes[0]], data)
        worst = max(worst, float(np.sqrt(np.mean((gpd.values - gpa.values) ** 2))))
    ok = worst <= 0.05
    report("extra (partial association under independence)", ok,
           f"max rms(PA - PD) {worst:.4f} (need <= 0.05)")


def test_screened_search_evaluation_budget(hu_bench):
    data, tree = hu_bench["data"], hu_bench["tree"]
    rep = search_effects(tree, data, max_order=4, use_screens=True,
                         strength_rows=1000, seed=1)
    four_var = [e for e in rep.entries if e.order == 4]
    pool4 = rep.screening["pools"][4]
    ok = rep.fast_evals <= 1e6 and rep.brute_equiv >= 1e8 and pool4 == () and not four_var
    report(
        "extra (screened search budget)",
        ok,
        f"fast evaluations {rep.fast_evals:.3g} (need <= 1e6) vs brute-equivalent "
        f"{rep.brute_equiv:.3g}; four-variable search pool {pool4}",
    )
