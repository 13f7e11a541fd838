"""Full-pipeline acceptance checks at the reference operating points.

Every check prints a one-line scoreboard entry before asserting, so a
complete run leaves a readable pass/fail log.  The heavy studies (T=2000
replicate sweeps, the 100-split wine experiment, the LOOCV trend) are
module fixtures shared by the tests that read them.
"""
import multiprocessing

import numpy as np
import pytest

from auxsel import (
    Dataset,
    EmOptions,
    aic_xb,
    aic_yb,
    aic_yy,
    estimate_info,
    fit_em_b,
    fit_em_y,
    logdens_b,
    logdens_x,
    logdens_y,
    risk_xb,
    score_matrix,
    tic,
    without_latent,
)
from auxsel.cli import main
from auxsel.loocv import equivalence_gap
from auxsel.model import flatten, unflatten
from auxsel.simlab import (
    ExperimentConfig,
    TrueModelSpec,
    for_case,
    generate,
    loss_x,
    run_selection,
    run_unbiasedness,
)
from auxsel.wine import WineConfig, bundled_wine_path, run_wine
from conftest import random_full, random_primary

# Reference statistics for the bundled generating model at T=2000,
# given as (mean, standard error).
REF_AIC_DIFF = {100: (-3.559, 0.074), 1000: (-3.197, 0.013)}
REF_RISK = {
    (1, "b"): (4.229, 0.032),
    (1, "best"): (5.109, 0.052),
    (2, "b"): (105.527, 0.111),
    (2, "best"): (22.064, 0.358),
}
# Reference mean test-set gains for the wine experiment; the large ones
# carry a +-20% band, the near-zero ones an absolute band of 1.0.
WINE_LARGE = {"V3": 89.71, "V4": 46.24, "V7": 76.54, "V9": 39.45, "V11": 111.24}
WINE_SMALL = ("V1", "V2", "V13")
# Worker processes for the study fixtures. Results do not depend on the
# worker count (a16 checks the byte identity); the count only sets wall time.
WORKERS = 2


def _within(label, value, target, tol):
    ok = abs(value - target) <= tol
    print(f"{label}: value={value:.4f} target={target:.4f} tol={tol:.4f} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return ok


def _in_band(label, value, lo, hi):
    ok = lo <= value <= hi
    print(f"{label}: value={value:.4f} band=[{lo:.4f}, {hi:.4f}] "
          f"-> {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def unbias_c1():
    cfg = ExperimentConfig(n_list=(100, 1000), T=2000, seed=0, workers=WORKERS)
    return run_unbiasedness(cfg, TrueModelSpec(case=1))


@pytest.fixture(scope="module")
def select_c1():
    cfg = ExperimentConfig(n_list=(100,), T=2000, seed=0, workers=WORKERS)
    return run_selection(cfg, TrueModelSpec(case=1))


@pytest.fixture(scope="module")
def select_c2():
    cfg = ExperimentConfig(n_list=(100, 500), T=2000, seed=0, workers=WORKERS)
    return run_selection(cfg, TrueModelSpec(case=2))


@pytest.mark.parametrize("n", (100, 1000))
def test_a01_aic_difference_matches_reference(unbias_c1, n):
    row = next(r for r in unbias_c1 if r["n"] == n)
    want, want_se = REF_AIC_DIFF[n]
    tol = 3.0 * float(np.hypot(row["aic_diff_se"], want_se))
    assert _within(f"aic difference n={n}", row["aic_diff"], want, tol)


@pytest.mark.parametrize("n", (100, 1000))
def test_a02_aic_difference_tracks_risk_difference(unbias_c1, n):
    row = next(r for r in unbias_c1 if r["n"] == n)
    tol = 3.0 * float(np.hypot(row["aic_diff_se"], row["risk_diff_2n_se"]))
    assert _within(f"aic vs 2n risk difference n={n}", row["aic_diff"],
                   row["risk_diff_2n"], tol)


def test_a03_selection_fraction_case1(select_c1):
    row = next(r for r in select_c1["counts"] if r["n"] == 100)
    assert _in_band("select-b fraction case 1 n=100",
                    row["frac_select_b"], 0.90, 0.945)


def test_a04_selection_fraction_case2_n100(select_c2):
    row = next(r for r in select_c2["counts"] if r["n"] == 100)
    assert _in_band("select-b fraction case 2 n=100",
                    row["frac_select_b"], 0.12, 0.18)


def test_a05_selection_fraction_case2_n500(select_c2):
    row = next(r for r in select_c2["counts"] if r["n"] == 500)
    assert _in_band("select-b fraction case 2 n=500",
                    row["frac_select_b"], 0.0, 0.002)


@pytest.mark.parametrize("case,estimator", [
    (1, "b"), (1, "best"), (2, "b"), (2, "best"),
])
def test_a06_excess_risk_matches_reference(select_c1, select_c2, case, estimator):
    table = select_c1 if case == 1 else select_c2
    row = next(r for r in table["risk"]
               if r["n"] == 100 and r["estimator"] == estimator)
    want, want_se = REF_RISK[(case, estimator)]
    tol = 3.0 * float(np.hypot(row["excess_risk_2n_se"], want_se))
    assert _within(f"2n excess risk case {case} estimator {estimator}",
                   row["excess_risk_2n"], want, tol)


@pytest.fixture(scope="module")
def big_sample_info():
    data = for_case(generate(TrueModelSpec(case=1), 100_000,
                             np.random.SeedSequence([4, 100_000, 0])), 1).drop_z()
    rep = fit_em_b(data, EmOptions(seed=0))
    return estimate_info(data, rep.params)


def test_a07_score_covariance_matches_curvature(big_sample_info):
    mats = big_sample_info
    rel = float(np.linalg.norm(mats.J_b - mats.I_b) / np.linalg.norm(mats.I_b))
    assert _in_band("n=1e5 |J_b - I_b|_F / |I_b|_F", rel, 0.0, 0.05)


def test_a08_cross_product_matches_marginal_curvature(big_sample_info):
    mats = big_sample_info
    rel = float(np.linalg.norm(mats.K_by - mats.I_y) / np.linalg.norm(mats.I_y))
    assert _in_band("n=1e5 |K_by - I_y|_F / |I_y|_F", rel, 0.0, 0.05)


def test_a09_degeneration_identities_random_fits():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([512, k]))
        n = int(rng.integers(80, 240))
        data = for_case(generate(TrueModelSpec(case=1), n,
                                 np.random.SeedSequence([513, k])),
                        1 + k % 2).drop_z()
        rep_b = fit_em_b(data, EmOptions(seed=0))
        rep_y = fit_em_y(data.drop_aux(), EmOptions(seed=0))
        mats_b = estimate_info(data, rep_b.params)
        mats_y = estimate_info(data.drop_aux(), rep_y.params)
        red_y = without_latent(mats_y)
        no_aux = data.drop_aux()

        # no latent part and no auxiliaries: the robust criterion is tic
        t = tic(no_aux, rep_y.params, mats_y).value
        r = risk_xb(no_aux, rep_y.params, red_y).value
        worst = max(worst, abs(r - t) / max(1.0, abs(t)))

        # same setting: the auxiliary-fit aic collapses to the plain one
        ayy = aic_yy(no_aux, rep_y.params).value
        axb0 = aic_xb(no_aux, rep_y.params, red_y).value
        worst = max(worst, abs(axb0 - ayy) / max(1.0, abs(ayy)))

        # the two auxiliary-fit aics differ by the latent trace penalty
        axb = aic_xb(data, rep_b.params, mats_b).value
        ayb = aic_yb(data, rep_b.params, mats_b).value
        trace = float(np.trace(mats_b.I_zy @ np.linalg.inv(mats_b.I_b)))
        worst = max(worst, abs((axb - ayb) - trace) / max(1.0, abs(trace)))
        assert trace >= -1e-8
    assert _in_band("degeneration identities, worst relative error over "
                    "100 fits", worst, 0.0, 1e-8)


def _gap(n_rep):
    n, rep = n_rep
    data = for_case(generate(TrueModelSpec(case=1), n,
                             np.random.SeedSequence([6, n, rep])), 1).drop_z()
    return equivalence_gap(data)


@pytest.fixture(scope="module")
def gap_medians():
    sizes = (100, 400, 1600)
    with multiprocessing.Pool(WORKERS) as pool:
        gaps = pool.map(_gap, [(n, rep) for n in sizes for rep in range(50)],
                        chunksize=1)
    return {n: float(np.median(np.abs(gaps[50 * k:50 * (k + 1)])))
            for k, n in enumerate(sizes)}


def test_a10_loocv_gap_median_decreases(gap_medians):
    m = gap_medians
    ok = m[100] > m[400] > m[1600]
    print(f"median |loocv gap|: n=100 {m[100]:.4f} > n=400 {m[400]:.4f} "
          f"> n=1600 {m[1600]:.4f} -> {'PASS' if ok else 'FAIL'}")
    assert ok


def _fd_gradient(f, beta, m, h=1e-6):
    flat = flatten(beta)
    g = np.empty(flat.size)
    for j in range(flat.size):
        step = h * max(1.0, abs(flat[j]))
        hi, lo = flat.copy(), flat.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (f(unflatten(hi, m)) - f(unflatten(lo, m))) / (2.0 * step)
    return g


def test_a11_scores_match_central_differences():
    rng = np.random.default_rng(71)
    worst = 0.0
    for k in range(100):
        m = int(rng.integers(1, 3))
        beta = random_full(rng, m=m)
        y = float(2.0 * rng.standard_normal())
        a = 2.0 * rng.standard_normal(m)
        z = int(rng.integers(0, 2))
        regime = ("b", "y", "x")[k % 3]
        if regime == "b":
            ds = Dataset(y=[y], a=[a])
            want = _fd_gradient(lambda p: logdens_b(p, y, a), beta, m)
        elif regime == "y":
            ds = Dataset(y=[y])
            want = _fd_gradient(lambda p: logdens_y(p.theta, y), beta, m)
        else:
            ds = Dataset(y=[y], z=[z])
            want = _fd_gradient(lambda p: logdens_x(p.theta, y, z), beta, m)
        got = score_matrix(regime, beta, ds)[0]
        scale = np.maximum(np.abs(want), 1e-2)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    assert _in_band("score vs central differences, worst relative error",
                    worst, 0.0, 1e-6)


def test_a12_hessian_matches_second_differences():
    worst = 0.0
    for trial in range(3):
        rng = np.random.default_rng(72 + trial)
        beta = random_full(rng, m=1)
        ds = Dataset(y=rng.standard_normal(30), a=rng.standard_normal((30, 1)))

        def mean_ll(p):
            return np.mean(logdens_b(p, ds.y, ds.a))

        h = -estimate_info(ds, beta).I_b
        flat = flatten(beta)
        fd2 = np.empty((8, 8))
        step = 1e-4
        for i in range(8):
            for j in range(i + 1):
                hi = step * max(1.0, abs(flat[i]))
                hj = step * max(1.0, abs(flat[j]))
                pp = flat.copy(); pp[i] += hi; pp[j] += hj
                pm = flat.copy(); pm[i] += hi; pm[j] -= hj
                mp = flat.copy(); mp[i] -= hi; mp[j] += hj
                mm = flat.copy(); mm[i] -= hi; mm[j] -= hj
                val = (
                    mean_ll(unflatten(pp, 1))
                    - mean_ll(unflatten(pm, 1))
                    - mean_ll(unflatten(mp, 1))
                    + mean_ll(unflatten(mm, 1))
                ) / (4.0 * hi * hj)
                fd2[i, j] = fd2[j, i] = val
        scale = max(1.0, float(np.abs(fd2).max()))
        worst = max(worst, float(np.abs(h - fd2).max() / scale))
    assert _in_band("hessian vs second differences, worst relative error",
                    worst, 0.0, 1e-4)


def test_a13_quadrature_loss_matches_monte_carlo():
    spec = TrueModelSpec(case=1)
    rng = np.random.default_rng(81)
    thetas = [spec.theta_true()] + [random_primary(rng) for _ in range(10)]
    chunks, chunk = 10, 10**6
    sums = np.zeros((len(thetas), 2))
    sqs = np.zeros((len(thetas), 2))
    for c in range(chunks):
        data = generate(spec, chunk, np.random.SeedSequence([816, c]))
        for k, th in enumerate(thetas):
            for s, cand in enumerate((th, th.swapped())):
                v = -logdens_x(cand, data.y, data.z)
                sums[k, s] += float(v.sum())
                sqs[k, s] += float(v @ v)
    n = chunks * chunk
    means = sums / n
    ses = np.sqrt((sqs / n - means ** 2) / n)
    for k, th in enumerate(thetas):
        s = int(np.argmin(means[k]))
        got = loss_x(th, spec)
        assert _within(f"quadrature loss vs monte carlo, theta {k}",
                       got, means[k, s], 3.0 * float(ses[k, s]))


@pytest.fixture(scope="module")
def wine_rows():
    cfg = WineConfig(csv_path=bundled_wine_path(), workers=WORKERS)
    rows = run_wine(cfg, y_cols=(1, 2, 3, 4, 7, 9, 11, 13))
    return {row["y_col"]: row for row in rows}


@pytest.mark.parametrize("col", ("V1", "V2", "V3", "V4", "V7", "V9", "V11", "V13"))
def test_a14_wine_gain_bands(wine_rows, col):
    gain = wine_rows[col]["gain_mean"]
    if col in WINE_SMALL:
        assert _in_band(f"wine mean gain {col}", gain, -1.0, 1.0)
    else:
        want = WINE_LARGE[col]
        ok = _in_band(f"wine mean gain {col}", gain, 0.8 * want, 1.2 * want)
        assert gain > 0.0 and ok


def _result_bytes(root):
    # the manifest is the audit record (it carries wall time), so the
    # determinism contract covers everything else plus the manifest's
    # checksum list
    import json

    files = sorted(p for p in root.rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    assert files
    blobs = {str(p.relative_to(root)): p.read_bytes() for p in files}
    manifest = json.loads((root / "manifest.json").read_text())
    return blobs, manifest["outputs"]


def test_a15_rerun_byte_identical(tmp_path):
    args = ["reproduce", "2", "--T", "8", "--n", "60", "--seed", "3"]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(_result_bytes(out))
    ok = outs[0] == outs[1]
    print(f"rerun byte identity: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_a16_worker_count_byte_identical(tmp_path):
    args = ["reproduce", "3", "--T", "8", "--n", "60", "--seed", "3"]
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(args + ["--workers", workers, "--out", str(out)]) == 0
        outs.append(_result_bytes(out))
    ok = outs[0] == outs[1]
    print(f"worker-count byte identity: {'PASS' if ok else 'FAIL'}")
    assert ok
