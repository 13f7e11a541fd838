"""Leave-one-out risk, plug-in latent term, and the criterion gap."""
import numpy as np
import pytest

import auxsel.loocv
from auxsel import (
    EmOptions,
    NumericalError,
    PrimaryParams,
    estimate_info,
    f_plugin,
    fit_em_b,
    fit_em_y,
    flatten,
    logdens_y,
    loocv_risk,
    equivalence_gap,
    risk_xb,
    tic,
    warm_fit_b,
    without_latent,
)
from auxsel.simlab import TrueModelSpec, generate
from conftest import theta_ref


def test_f_plugin_reference_values():
    theta = theta_ref()
    # symmetric parameters at the midpoint give posterior one half
    sym = PrimaryParams(0.5, -1.0, 1.0, 1.0)
    assert f_plugin(0.0, sym, sym) == pytest.approx(np.log(0.5), abs=1e-14)
    assert f_plugin(1.2, theta, theta) == pytest.approx(-0.11292671389394, abs=1e-12)
    # a confident posterior contributes almost nothing
    assert f_plugin(30.0, theta, theta) == pytest.approx(0.0, abs=1e-6)


def test_f_plugin_nonpositive_and_finite():
    theta = theta_ref()
    y = np.linspace(-50.0, 50.0, 2001)
    vals = f_plugin(y, theta, theta)
    assert np.all(vals <= 1e-15)
    assert np.all(np.isfinite(vals))
    # mismatched reference weights stay finite too
    other = PrimaryParams(0.9, -5.0, 5.0, 0.3)
    assert np.all(np.isfinite(f_plugin(y, theta, other)))


def test_loocv_matches_manual_fold_loop():
    data = generate(TrueModelSpec(), n=40, seed=50).drop_z().select_aux([0])
    opts = EmOptions(seed=1)
    fit = fit_em_b(data, opts)
    rep = loocv_risk(data, opts, fit=fit)
    assert rep.per_fold_g.shape == (40,)
    assert rep.cv_value == pytest.approx(-rep.per_fold_g.mean(), rel=1e-12)
    # fold 7 by hand: warm single-restart refit, then g = logdens + plug-in
    sub = data.without(7)
    from dataclasses import replace

    fold = warm_fit_b(sub, fit.params, replace(opts, restarts=1))
    g7 = float(logdens_y(fold.params.theta, data.y[7])) + float(
        f_plugin(data.y[7], fold.params.theta, fit.params.theta)
    )
    assert rep.per_fold_g[7] == pytest.approx(g7, rel=1e-12)


def test_loocv_without_latent_is_classic_predictive_cv():
    data = generate(TrueModelSpec(), n=30, seed=51).drop_z().drop_aux()
    opts = EmOptions(seed=2)
    fit = fit_em_y(data, opts)
    rep = loocv_risk(data, opts, latent=False, fit=fit)
    from dataclasses import replace

    single = replace(opts, restarts=1)
    g = []
    for i in range(data.n):
        sub = data.without(i)
        fold = auxsel.warm_fit_y(sub, fit.params, single)
        g.append(float(logdens_y(fold.params, data.y[i])))
    assert rep.cv_value == pytest.approx(-np.mean(g), rel=1e-12)


def test_fold_refits_do_not_degrade_fold_loglik():
    data = generate(TrueModelSpec(), n=35, seed=52).drop_z().select_aux([0])
    opts = EmOptions(seed=3)
    fit = fit_em_b(data, opts)
    from auxsel.gmm import logdens_b

    for i in range(0, data.n, 5):
        sub = data.without(i)
        cand, fell_back = auxsel.loocv._fold_params(sub, fit.params, opts)
        assert not fell_back
        ll_start = np.mean(logdens_b(fit.params, sub.y, sub.a))
        ll_end = np.mean(logdens_b(cand, sub.y, sub.a))
        assert ll_end >= ll_start - 1e-12


def test_warm_fold_matches_cold_fold():
    data = generate(TrueModelSpec(), n=50, seed=53).drop_z().select_aux([0])
    opts = EmOptions(seed=4)
    fit = fit_em_b(data, opts)
    sub = data.without(11)
    from dataclasses import replace

    warm = warm_fit_b(sub, fit.params, replace(opts, restarts=1)).params
    cold = fit_em_b(sub, opts).params
    d = min(
        np.abs(flatten(warm) - flatten(cold)).max(),
        np.abs(flatten(warm.swapped()) - flatten(cold)).max(),
    )
    assert d < 1e-4


def test_loocv_permutation_invariant():
    data = generate(TrueModelSpec(), n=25, seed=54).drop_z().select_aux([0])
    opts = EmOptions(seed=5)
    rep1 = loocv_risk(data, opts)
    perm = np.random.default_rng(55).permutation(data.n)
    rep2 = loocv_risk(data.take(perm), opts)
    assert rep2.cv_value == pytest.approx(rep1.cv_value, rel=1e-10)
    assert np.allclose(np.sort(rep1.per_fold_g), np.sort(rep2.per_fold_g), rtol=1e-10)


def test_equivalence_gap_no_latent_matches_tic():
    data = generate(TrueModelSpec(), n=30, seed=56).drop_z().drop_aux()
    opts = EmOptions(seed=6)
    fit = fit_em_y(data, opts)
    rep = loocv_risk(data, opts, latent=False, fit=fit)
    gap = equivalence_gap(data, opts, latent=False, fit=fit, report=rep)
    mats = estimate_info(data, fit.params)
    t = tic(data, fit.params, mats)
    assert gap == pytest.approx(2.0 * data.n * rep.cv_value - t.value, rel=1e-9)


def test_equivalence_gap_definition():
    data = generate(TrueModelSpec(), n=30, seed=57).drop_z().select_aux([0])
    opts = EmOptions(seed=7)
    fit = fit_em_b(data, opts)
    rep = loocv_risk(data, opts, fit=fit)
    gap = equivalence_gap(data, opts, fit=fit, report=rep)
    mats = estimate_info(data, fit.params)
    risk = risk_xb(data, fit.params, mats)
    const = 2.0 * float(np.sum(f_plugin(data.y, fit.params.theta, fit.params.theta)))
    const += risk.traces["Izy_IbInv_Jb_IbInv"]
    assert gap == pytest.approx(
        2.0 * data.n * rep.cv_value - (risk.value - const), rel=1e-9
    )
    assert np.isfinite(gap)


def test_fallback_counting_and_failure_cap(monkeypatch):
    data = generate(TrueModelSpec(), n=30, seed=58).drop_z().select_aux([0])
    opts = EmOptions(seed=8)

    real = auxsel.loocv.warm_fit_b
    calls = {"k": 0}

    def flaky(sub, params, o):
        calls["k"] += 1
        if calls["k"] == 1:
            raise NumericalError("forced failure")
        return real(sub, params, o)

    monkeypatch.setattr(auxsel.loocv, "warm_fit_b", flaky)
    rep = loocv_risk(data, opts)
    assert rep.refit_failures == 1
    assert np.isfinite(rep.cv_value)

    def always_fails(sub, params, o):
        raise NumericalError("forced failure")

    monkeypatch.setattr(auxsel.loocv, "warm_fit_b", always_fails)
    with pytest.raises(NumericalError):
        loocv_risk(data, opts)
