"""Leave-one-out cross-validation with a partially latent target.

The held-out score of a record is the predictive log density of y plus
the expected log posterior of the latent label given y, where the
expectation weight is the full-data fitted posterior (the latent part is
not observable, so its score is a plug-in).  Twice n times the LOOCV
value tracks the misspecification-robust risk estimate up to a plug-in
constant and the latent trace penalty; :func:`equivalence_gap` measures
how close the two get on a given sample.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import NumericalError, PrimaryParams, _admissible
# logdens_y is not called here; perfbench/tracing.py wraps it in this
# module, so it stays importable from it.
from .gmm import (
    EmOptions, _block, _comp_logliks_y, _em, _features, _records, fit_em_b, fit_em_y,
    logdens_y, resp_z_given_y, warm_fit_b, warm_fit_y,
)
from .infomat import estimate_info, without_latent
from .criteria import risk_xb

RESP_CLAMP = 1e-300   # posteriors clamped into [RESP_CLAMP, 1] inside logs

MAX_FAILURE_SHARE = 0.1   # tolerated share of fold refits that fall back

FOLD_CHUNK_CELLS = 2 ** 14   # lanes x records of one masked EM pass (bounds its memory)


@dataclass(frozen=True)
class LoocvReport:
    """Cross-validated risk, per-fold held-out scores, fallback count."""

    cv_value: float
    per_fold_g: np.ndarray
    refit_failures: int


def _plugin_term(r, w):
    """w log r + (1 - w) log(1 - r), both posteriors clamped away from zero."""
    lo = np.log(np.clip(r, RESP_CLAMP, 1.0))
    lo2 = np.log(np.clip(1.0 - r, RESP_CLAMP, 1.0))
    return w * lo + (1.0 - w) * lo2


def f_plugin(y, theta, theta_ref):
    """Expected log posterior of the latent label at y.

    Weights come from ``theta_ref``; the scored posterior from
    ``theta``.  Both posteriors are clamped away from zero before the
    log, so the value is finite for any admissible parameters.
    """
    return _plugin_term(resp_z_given_y(theta, y), resp_z_given_y(theta_ref, y))


def _full_fit(data, opts):
    return fit_em_b(data, opts) if data.has_a else fit_em_y(data, opts)


def _fold_blocks(data, params, opts):
    """Every fold refit of ``data`` as a lane of one masked EM pass.

    All lanes start at ``params`` on the feature rows of the full
    sample, and lane i gives record i weight 0, so it runs the warm
    single-start EM on ``data.without(i)``.  Lanes run in chunks of at
    most ``FOLD_CHUNK_CELLS`` lanes x records.  A lane whose block is
    inadmissible or whose log likelihood is not finite falls back to one
    EM step from ``params`` on ``data.without(i)``: the warm fit of
    :mod:`auxsel.gmm` with one iteration.

    Returns pi1 (n,), component means (2, n, q) and covariances
    (n, q, q) of the folds, and the number of fallbacks; more than
    ``MAX_FAILURE_SHARE`` of n fallbacks raise NumericalError.
    """
    n = data.n
    pi1, mu, S = _block(params)
    m, _, Phi = _features(_records(data, S.shape[-1] - 1))
    w1, ll = np.empty(n), np.empty(n)
    mus, Ss = np.empty((2, n, m.size)), np.empty((n,) + S.shape)
    size = max(1, FOLD_CHUNK_CELLS // n)
    for lo in range(0, n, size):
        k = np.arange(lo, min(lo + size, n))
        W = np.ones((k.size, n))
        W[np.arange(k.size), k] = 0.0
        lanes = (np.repeat([[pi1], [1.0 - pi1]], k.size, axis=1),
                 np.repeat((mu - m)[:, None], k.size, axis=1),
                 np.repeat(S[None], k.size, axis=0))
        run = _em(Phi, lanes, opts, W)
        w1[k], mus[:, k], Ss[k], ll[k] = run["w"][0], run["mu"] + m, run["S"], run["ll"]
    bad = np.flatnonzero(~(_admissible(w1, mus, Ss) & np.isfinite(ll)))
    if bad.size > MAX_FAILURE_SHARE * n:
        raise NumericalError(f"{bad.size} of {n} fold refits fell back")
    warm = warm_fit_b if S.shape[-1] > 1 else warm_fit_y
    step = replace(opts, max_iter=1, tol=-np.inf)
    for i in bad:
        w1[i], mus[:, i], Ss[i] = _block(warm(data.without(i), params, step).params)
    return w1, mus, Ss, bad.size


def loocv_risk(data, opts=EmOptions(), latent=True, fit=None):
    """Leave-one-out estimate of the predictive risk.

    Parameters
    ----------
    data : Dataset; the fit uses auxiliary columns when present.
    opts : EmOptions for the full fit and the fold refits.
    latent : include the plug-in latent term; with False this is the
        ordinary predictive LOOCV of the y density.
    fit : optional FitReport of the full-data fit, to avoid refitting.

    Returns
    -------
    LoocvReport; more than 10 percent fold fallbacks raise NumericalError.
    """
    if fit is None:
        fit = _full_fit(data, opts)
    params = fit.params
    w1, mu, S, failures = _fold_blocks(data, params, opts)
    # held-out scores of all folds at once: one primary block per array entry
    l1, l2 = _comp_logliks_y(PrimaryParams(w1, mu[0, :, 0], mu[1, :, 0], S[:, 0, 0]), data.y)
    g = np.logaddexp(l1, l2)
    if latent:
        g = g + _plugin_term(np.exp(l1 - g), resp_z_given_y(params, data.y))
    return LoocvReport(-float(g.mean()), g, failures)


def equivalence_gap(data, opts=EmOptions(), latent=True, fit=None, report=None):
    """2n LOOCV minus its criterion-side estimate on the same sample.

    The criterion side is the robust risk estimate minus twice the
    summed plug-in latent term at the full-data fit and minus the
    latent trace penalty: with plug-in weights the latent part of every
    held-out score is stationary at the full-data fit, so the fold
    refits cannot reproduce that trace and it must come out of the
    criterion side for the residual to vanish.  Without the latent part
    the gap reduces to 2n LOOCV minus the classical robust criterion.
    ``fit`` and ``report`` allow reuse of an existing full-data fit and
    LOOCV run.
    """
    if fit is None:
        fit = _full_fit(data, opts)
    if report is None:
        report = loocv_risk(data, opts, latent=latent, fit=fit)
    mats = estimate_info(data, fit.params)
    if not latent:
        mats = without_latent(mats)
    risk = risk_xb(data, fit.params, mats)
    const = 0.0
    if latent:
        const = 2.0 * float(np.sum(f_plugin(data.y, fit.params, fit.params)))
        const += risk.traces["Izy_IbInv_Jb_IbInv"]
    return 2.0 * data.n * report.cv_value - (risk.value - const)
