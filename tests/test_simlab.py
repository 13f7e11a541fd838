"""Data generation, exact losses, and the replication experiments."""
import ctypes

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from auxsel import (
    Dataset, DegenerateDataError, EmOptions, NumericalError, PrimaryParams, flatten,
)
from auxsel import simlab
from auxsel.gmm import logdens_x
from auxsel.simlab import (
    ExperimentConfig,
    TrueModelSpec,
    fit_complete_x,
    fit_em_y,
    for_case,
    format_table,
    gauss_hermite_mean,
    generate,
    loss_x,
    loss_y,
    run_replicates,
    run_selection,
    run_unbiasedness,
    write_csv,
    write_markdown,
)
from conftest import random_primary


def test_generate_shapes_and_determinism():
    spec = TrueModelSpec()
    d1 = generate(spec, n=500, seed=60)
    d2 = generate(spec, n=500, seed=60)
    d3 = generate(spec, n=500, seed=61)
    assert d1.n == 500 and d1.m == 2 and d1.has_z
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.z, d2.z)
    assert np.array_equal(d1.a, d2.a)
    assert not np.array_equal(d1.y, d3.y)


def test_generate_moments():
    spec = TrueModelSpec()
    d = generate(spec, n=200000, seed=62)
    # z is bernoulli(0.6); y mixes (-1.2, 1.2) with variance 0.7
    assert d.z.mean() == pytest.approx(0.6, abs=0.004)
    assert d.y.mean() == pytest.approx(0.6 * -1.2 + 0.4 * 1.2, abs=0.02)
    assert d.y.var() == pytest.approx(0.7 + 0.24 * 2.4**2, abs=0.05)
    # component conditional moments
    assert d.y[d.z == 1].mean() == pytest.approx(-1.2, abs=0.01)
    assert d.y[d.z == 1].var() == pytest.approx(0.7, abs=0.01)
    # first auxiliary tracks z, second is independent of it
    assert d.a[d.z == 1, 0].mean() == pytest.approx(1.8, abs=0.01)
    assert d.a[d.z == 0, 0].mean() == pytest.approx(-1.8, abs=0.01)
    r1 = np.corrcoef(d.z, d.a[:, 0])[0, 1]
    r2 = np.corrcoef(d.z, d.a[:, 1])[0, 1]
    assert abs(r1) > 0.8
    assert abs(r2) < 0.01
    # the independent copy still looks like the same mixture marginally
    assert d.a[:, 1].mean() == pytest.approx(0.6 * 1.8 + 0.4 * -1.8, abs=0.02)


def test_for_case_picks_columns():
    d = generate(TrueModelSpec(), n=50, seed=63)
    c1 = for_case(d, 1)
    c2 = for_case(d, 2)
    assert c1.m == 1 and c2.m == 1
    assert np.array_equal(c1.a[:, 0], d.a[:, 0])
    assert np.array_equal(c2.a[:, 0], d.a[:, 1])


def test_gauss_hermite_matches_closed_forms():
    # E[w^2] and E[exp(w)] under a normal have exact values
    assert gauss_hermite_mean(lambda w: w**2, 1.5, 2.0) == pytest.approx(
        2.0 + 1.5**2, rel=1e-12
    )
    assert gauss_hermite_mean(np.exp, 0.3, 0.5) == pytest.approx(
        np.exp(0.3 + 0.25), rel=1e-10
    )


def test_loss_x_at_truth():
    spec = TrueModelSpec()
    theta0 = spec.theta_true()
    # entropy of the complete model: gaussian part plus label part
    want = 0.5 * np.log(2 * np.pi * np.e * 0.7) - (
        0.6 * np.log(0.6) + 0.4 * np.log(0.4)
    )
    assert loss_x(theta0, spec) == pytest.approx(want, rel=1e-10)


def quadrature_loss_x(theta, spec):
    """The complete-data loss by 64-node Gauss-Hermite quadrature per true
    component, the better label assignment."""
    def fixed(th):
        return -sum(w * gauss_hermite_mean(lambda t: logdens_x(th, t, z), mean, spec.var_y)
                    for w, mean, z in ((spec.pi, spec.mu_y[0], 1),
                                       (1.0 - spec.pi, spec.mu_y[1], 0)))
    return min(fixed(theta), fixed(theta.swapped()))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-3, 1 - 1e-3), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.05, 10.0), st.floats(0.05, 0.95), st.tuples(st.floats(-3.0, 3.0),
                                                                st.floats(-3.0, 3.0)),
       st.floats(0.05, 4.0))
def test_loss_x_closed_form_matches_quadrature(pi1, mu1, mu2, sig2, pi_true, mu_true,
                                               var_true):
    # given the label the integrand is quadratic in y, so the quadrature
    # is exact and the closed form must agree with it to rounding
    theta = PrimaryParams(pi1, mu1, mu2, sig2)
    spec = TrueModelSpec(pi=pi_true, mu_y=mu_true, var_y=var_true)
    assert loss_x(theta, spec) == pytest.approx(quadrature_loss_x(theta, spec), rel=1e-12)


def test_loss_x_monte_carlo_oracle():
    spec = TrueModelSpec()
    rng = np.random.default_rng(64)
    n = 10**6
    z = rng.random(n) < spec.pi
    y = np.where(z, spec.mu_y[0], spec.mu_y[1]) + np.sqrt(
        spec.var_y
    ) * rng.standard_normal(n)
    for trial in range(4):
        theta = spec.theta_true() if trial == 0 else random_primary(rng)
        lp = np.where(
            z,
            np.log(theta.pi1) + norm.logpdf(y, theta.mu1y, np.sqrt(theta.sigy2)),
            np.log(1 - theta.pi1) + norm.logpdf(y, theta.mu2y, np.sqrt(theta.sigy2)),
        )
        lp_sw = np.where(
            ~z,
            np.log(theta.pi1) + norm.logpdf(y, theta.mu1y, np.sqrt(theta.sigy2)),
            np.log(1 - theta.pi1) + norm.logpdf(y, theta.mu2y, np.sqrt(theta.sigy2)),
        )
        mc = min(-lp.mean(), -lp_sw.mean())
        se = min(lp.std(), lp_sw.std()) / np.sqrt(n)
        assert loss_x(theta, spec) == pytest.approx(mc, abs=3 * se)


def test_loss_swap_invariance():
    spec = TrueModelSpec()
    rng = np.random.default_rng(65)
    for _ in range(10):
        theta = random_primary(rng)
        assert loss_x(theta, spec) == loss_x(theta.swapped(), spec)
        assert loss_y(theta, spec) == pytest.approx(
            loss_y(theta.swapped(), spec), rel=1e-12
        )


def test_loss_x_minimized_at_truth():
    spec = TrueModelSpec()
    theta0 = spec.theta_true()
    base = loss_x(theta0, spec)
    rng = np.random.default_rng(66)
    for _ in range(40):
        theta = random_primary(rng)
        assert loss_x(theta, spec) >= base - 1e-12
    # small coordinate perturbations also increase the loss
    for delta in (0.05, -0.05):
        assert loss_x(PrimaryParams(0.6 + delta, -1.2, 1.2, 0.7), spec) > base
        assert loss_x(PrimaryParams(0.6, -1.2 + delta, 1.2, 0.7), spec) > base
        assert loss_x(PrimaryParams(0.6, -1.2, 1.2, 0.7 * (1 + delta)), spec) > base


def test_loss_y_upper_bounds_loss_x_gap():
    # predicting y alone cannot be harder than predicting y and the label
    spec = TrueModelSpec()
    rng = np.random.default_rng(68)
    for _ in range(10):
        theta = random_primary(rng)
        assert loss_y(theta, spec) <= loss_x(theta, spec) + 1e-12


def small_config(**kw):
    base = dict(
        n_list=(60,),
        T=12,
        seed=0,
        workers=1,
        em=EmOptions(restarts=4, seed=0),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_replicates_deterministic_and_worker_invariant():
    # T spans more than one block, so two workers each run a block
    assert simlab.REPLICATE_BLOCK == 24
    spec = TrueModelSpec(case=1)
    cfg = small_config(T=30)
    out1, exc1 = run_replicates(spec, 60, cfg, (1,))
    out2, exc2 = run_replicates(spec, 60, cfg, (1,))
    cfg2 = small_config(T=30, workers=2)
    out3, exc3 = run_replicates(spec, 60, cfg2, (1,))
    assert exc1 == exc2 == exc3 == 0
    assert len(out1) == len(out2) == len(out3) == 30
    for a, b in ((out1, out2), (out1, out3)):
        for oa, ob in zip(a, b):
            assert oa[1].criteria == ob[1].criteria
            assert oa[1].losses == ob[1].losses
            assert oa[1].selected == ob[1].selected
            assert np.array_equal(flatten(oa[1].beta_b), flatten(ob[1].beta_b))


def test_replicate_outcome_contents():
    spec = TrueModelSpec(case=2)
    out, _ = run_replicates(spec, 60, small_config(T=3), (2,))
    o = out[0][2]
    assert set(o.criteria) >= {"aic_xb", "aic_xy", "aic_yb", "aic_yy"}
    assert set(o.losses) == {"x_b", "x_y", "x_x", "y_b", "y_y"}
    assert o.selected in {"b", "y"}
    assert (o.criteria["aic_xb"] < o.criteria["aic_xy"]) == (o.selected == "b")
    # exact losses are all at least the optimum
    base = loss_x(spec.theta_true(), spec)
    for key in ("x_b", "x_y", "x_x"):
        assert o.losses[key] >= base - 1e-12


def test_complete_fit_beats_marginal_fit_on_average():
    # knowing the labels should not hurt the complete-data loss
    spec = TrueModelSpec()
    losses_x, losses_y_ = [], []
    opts = EmOptions(restarts=6, seed=0)
    for rep in range(120):
        d = generate(spec, n=200, seed=1000 + rep)
        theta_x = fit_complete_x(d.drop_aux()).params
        theta_y = fit_em_y(d.drop_z().drop_aux(), opts).params
        losses_x.append(loss_x(theta_x, spec))
        losses_y_.append(loss_x(theta_y, spec))
    diff = np.array(losses_y_) - np.array(losses_x)
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert diff.mean() > -3 * se


def test_run_unbiasedness_row_shape():
    rows = run_unbiasedness(small_config(T=10), TrueModelSpec(case=1))
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 60 and row["T"] == 10 and row["excluded"] == 0
    for key in ("aic_diff", "aic_diff_se", "risk_diff_2n", "risk_diff_2n_se"):
        assert np.isfinite(row[key])


def test_run_selection_row_shape():
    out = run_selection(small_config(T=10), TrueModelSpec(case=2))
    counts, risk = out["counts"], out["risk"]
    assert counts[0]["n_select_b"] == round(
        counts[0]["frac_select_b"] * counts[0]["T"]
    )
    assert 0.0 <= counts[0]["frac_select_b"] <= 1.0
    assert [r["estimator"] for r in risk] == ["b", "y", "best"]
    sel_risk = {r["estimator"]: r["excess_risk_2n"] for r in risk}
    assert all(np.isfinite(v) for v in sel_risk.values())
    # excess risk is positive by construction
    assert all(v > 0.0 for v in sel_risk.values())


def test_table_writers_are_deterministic(tmp_path):
    rows = [
        {"n": 100, "value": 1.23456789012345},
        {"n": 1000, "value": -0.000012345, "extra": 7.0},
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, rows)
    write_csv(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    # union of columns in first-seen order, blank for missing entries
    assert text.splitlines()[0] == "n,value,extra"
    assert text.splitlines()[1].endswith(",")
    md = format_table(rows)
    assert md.count("|") >= 8
    mdpath = tmp_path / "t.md"
    write_markdown(mdpath, rows)
    assert mdpath.read_text() == md


def test_run_replicates_excludes_failures(monkeypatch):
    import auxsel.simlab as S

    spec = TrueModelSpec(case=1)

    def boom(args):
        return [("fail", "forced")] * len(args[3])

    monkeypatch.setattr(S, "_replicate_block", boom)
    with pytest.raises(NumericalError):
        run_replicates(spec, 60, small_config(T=5), (1,))


def test_failed_replicate_is_excluded_alone(monkeypatch):
    # replicate 5 draws a constant y, so its y fit fails inside the grouped
    # EM pass of its block; the other replicates of the block keep their
    # outcomes and only it is excluded, with the message of a fit alone
    spec = TrueModelSpec(case=1)
    draw = simlab.generate

    def flat_at_5(spec, n, seed):
        data = draw(spec, n, seed)
        if seed.entropy[2] == 5:
            data = Dataset(np.zeros(n), data.z, data.a)
        return data

    cfg = small_config(T=100)
    want, _ = run_replicates(spec, 60, cfg, (1, 2))
    monkeypatch.setattr(simlab, "generate", flat_at_5)
    got, excluded = run_replicates(spec, 60, cfg, (1, 2))
    assert excluded == 1 and len(got) == 99
    for g, w in zip(got, want[:5] + want[6:]):
        for case in (1, 2):
            assert g[case].selected == w[case].selected
            for key, value in w[case].criteria.items():
                assert g[case].criteria[key] == pytest.approx(value, rel=1e-9)
    with pytest.raises(NumericalError, match="1 of 30 replicates excluded; first failure: "
                                             "replicate 5: all y values identical"):
        run_replicates(spec, 60, small_config(T=30), (1,))


def _blas_threads(_):
    return [get() for get in simlab._openblas("get_num_threads", ctypes.c_int)]


def test_pool_workers_run_one_blas_thread():
    # the parent runs two BLAS threads here, so a worker that inherited
    # its count unpinned would report 2
    getters = simlab._openblas("get_num_threads", ctypes.c_int)
    setters = simlab._openblas("set_num_threads", None, ctypes.c_int)
    if not getters or len(setters) != len(getters):
        pytest.skip("no OpenBLAS with thread controls loaded")
    before = [get() for get in getters]
    try:
        for set_threads in setters:
            set_threads(2)
        assert _blas_threads(None) == [2] * len(getters)
        reports = simlab._map(_blas_threads, range(8), 2)
    finally:
        for set_threads, n in zip(setters, before):
            set_threads(n)
    assert reports == [[1] * len(getters)] * 8
