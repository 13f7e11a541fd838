"""Leave-one-out risk, plug-in latent term, and the criterion gap."""
from dataclasses import replace

import numpy as np
import pytest

import auxsel.loocv
from auxsel import (
    SIGMA_FLOOR,
    AuxParams,
    EmOptions,
    FullParams,
    InvalidParamsError,
    NumericalError,
    PrimaryParams,
    estimate_info,
    f_plugin,
    fit_em_b,
    fit_em_y,
    flatten,
    logdens_b,
    logdens_y,
    loocv_risk,
    equivalence_gap,
    risk_xb,
    tic,
    validate,
    warm_fit_b,
    without_latent,
)
from auxsel.simlab import TrueModelSpec, generate
from conftest import random_full, random_primary, theta_ref


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
    single = replace(opts, restarts=1)
    g = []
    for i in range(data.n):
        sub = data.without(i)
        fold = auxsel.warm_fit_y(sub, fit.params, single)
        g.append(float(logdens_y(fold.params, data.y[i])))
    assert rep.cv_value == pytest.approx(-np.mean(g), rel=1e-12)


def _fold_params(blocks, i):
    w1, mu, S, _ = blocks
    theta = PrimaryParams(w1[i], mu[0, i, 0], mu[1, i, 0], S[i, 0, 0])
    if S.shape[-1] == 1:
        return theta
    return FullParams(theta, AuxParams(mu[0, i, 1:], mu[1, i, 1:], S[i, 1:, 1:], S[i, 0, 1:]))


def test_fold_refits_do_not_degrade_fold_loglik():
    data = generate(TrueModelSpec(), n=35, seed=52).drop_z().select_aux([0])
    opts = EmOptions(seed=3)
    fit = fit_em_b(data, opts)
    from auxsel.gmm import logdens_b

    blocks = auxsel.loocv._fold_blocks(data, fit.params, opts)
    assert blocks[3] == 0
    for i in range(0, data.n, 5):
        sub = data.without(i)
        cand = _fold_params(blocks, i)
        ll_start = np.mean(logdens_b(fit.params, sub.y, sub.a))
        ll_end = np.mean(logdens_b(cand, sub.y, sub.a))
        assert ll_end >= ll_start - 1e-12


@pytest.mark.parametrize("cols", [[0], [0, 1], None], ids=["b-m1", "b-m2", "y"])
def test_masked_folds_match_per_fold_loop(cols):
    # n = 150 spans two chunks of FOLD_CHUNK_CELLS // n lanes
    n = 150
    assert n > auxsel.loocv.FOLD_CHUNK_CELLS // n
    data = generate(TrueModelSpec(), n=n, seed=59).drop_z()
    data = data.drop_aux() if cols is None else data.select_aux(cols)
    opts = EmOptions(seed=9)
    fit = fit_em_b(data, opts) if data.has_a else fit_em_y(data, opts)
    theta_full = fit.params.theta if data.has_a else fit.params
    warm = warm_fit_b if data.has_a else auxsel.warm_fit_y
    logp, plug = np.empty(n), np.empty(n)
    for i in range(n):
        fold = warm(data.without(i), fit.params, opts)
        assert np.isfinite(fold.loglik_per_obs)
        theta = fold.params.theta if data.has_a else fold.params
        logp[i] = float(logdens_y(theta, data.y[i]))
        plug[i] = float(f_plugin(data.y[i], theta, theta_full))
    for latent, g in ((True, logp + plug), (False, logp)):
        rep = loocv_risk(data, opts, latent=latent, fit=fit)
        assert rep.refit_failures == 0
        np.testing.assert_allclose(rep.per_fold_g, g, rtol=1e-12, atol=0.0)


def _with_cov(b, C):
    return FullParams(replace(b.theta, sigy2=C[0, 0]),
                      replace(b.phi, Sigma_aa=C[1:, 1:], sigma_ya=C[0, 1:]))


def _check_admissible(blocks, n_ok):
    from auxsel.model import _admissible

    want = np.array([validate(b) is None for b in blocks])
    assert want.sum() == n_ok
    pi1, mu, S = zip(*(auxsel.gmm._block(b, isinstance(b, FullParams)) for b in blocks))
    got = _admissible(np.array(pi1), np.array(mu).transpose(1, 0, 2), np.array(S))
    assert np.array_equal(got, want)


def test_admissible_agrees_with_validate():
    rng = np.random.default_rng(60)
    for m in (1, 2, 3):
        ok = [random_full(rng, m) for _ in range(20)]
        v = rng.standard_normal((3, 1 + m))
        # positive definite, but min diag(chol)^2 ~ 1e-13 is below floor * 1e-6
        singular = [_with_cov(b, np.outer(u, u) + 1e-13 * np.eye(1 + m))
                    for b, u in zip(ok, v)]
        _check_admissible(ok + singular, 20)
        bad = [FullParams(replace(ok[0].theta, pi1=0.0), ok[0].phi),
               FullParams(replace(ok[1].theta, pi1=1.0), ok[1].phi),
               FullParams(replace(ok[2].theta, sigy2=0.5 * SIGMA_FLOOR), ok[2].phi),
               _with_cov(ok[3], np.diag(np.r_[1.0, -np.ones(m)]) + 0.1),
               FullParams(replace(ok[4].theta, mu2y=np.nan), ok[4].phi),
               FullParams(ok[5].theta, replace(ok[5].phi, sigma_ya=np.full(m, np.nan))),
               FullParams(ok[6].theta, replace(ok[6].phi, mu1a=np.full(m, np.nan))),
               FullParams(ok[7].theta, replace(ok[7].phi, mu2a=np.r_[np.inf, np.ones(m - 1)]))]
        _check_admissible(ok + singular + bad, 20)
        for block in bad[-2:]:
            with pytest.raises(InvalidParamsError):
                logdens_b(block, np.zeros(3), np.zeros((3, m)))
    prim = [random_primary(rng) for _ in range(20)]
    prim += [replace(prim[0], pi1=0.0), replace(prim[1], pi1=1.0),
             replace(prim[2], sigy2=0.5 * SIGMA_FLOOR), replace(prim[3], mu1y=np.nan)]
    _check_admissible(prim, 20)


def test_chunking_changes_nothing(monkeypatch):
    n = 200
    data = generate(TrueModelSpec(), n=n, seed=61).drop_z().select_aux([0])
    opts = EmOptions(seed=10)
    fit = fit_em_b(data, opts)
    real = auxsel.loocv._em
    cells = []

    def spy(Phi, lanes, o, W=None):
        cells.append(W.size)
        return real(Phi, lanes, o, W)

    monkeypatch.setattr(auxsel.loocv, "_em", spy)
    rep = loocv_risk(data, opts, fit=fit)
    assert len(cells) > 1 and max(cells) <= 2 ** 14
    monkeypatch.setattr(auxsel.loocv, "FOLD_CHUNK_CELLS", 1)
    cells.clear()
    one = loocv_risk(data, opts, fit=fit)
    assert cells == [n] * n
    assert one.refit_failures == rep.refit_failures
    np.testing.assert_allclose(one.per_fold_g, rep.per_fold_g, rtol=1e-12, atol=0.0)


def test_warm_fold_matches_cold_fold():
    data = generate(TrueModelSpec(), n=50, seed=53).drop_z().select_aux([0])
    opts = EmOptions(seed=4)
    fit = fit_em_b(data, opts)
    sub = data.without(11)
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

    real = auxsel.loocv._admissible

    def flaky(*args):
        ok = real(*args)
        ok[0] = False
        return ok

    monkeypatch.setattr(auxsel.loocv, "_admissible", flaky)
    rep = loocv_risk(data, opts)
    assert rep.refit_failures == 1
    assert np.isfinite(rep.cv_value)

    def always_fails(*args):
        return np.zeros_like(real(*args))

    monkeypatch.setattr(auxsel.loocv, "_admissible", always_fails)
    with pytest.raises(NumericalError):
        loocv_risk(data, opts)
