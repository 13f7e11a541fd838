"""Empirical information matrices of the fitted mixture and guarded inversion.

Six matrices drive every criterion, all sample averages at the fitted
parameters:

* I_b   minus the average Hessian of log p_b (or log p_y for a fit
        without auxiliary variables),
* J_b   average outer product of the log p_b scores,
* K_by  average cross product of log p_b and log p_y scores,
* I_y   minus the average Hessian of log p_y,
* I_zy  average conditional-score outer product of the latent label
        given y, weighted by the fitted posterior (positive
        semidefinite by construction),
* I_x   I_y + I_zy.

The y-regime blocks live in the leading primary coordinates; auxiliary
rows and columns are exactly zero there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .model import D_THETA, FullParams, IllConditionedError, flat_dim
from .gmm import FD_REL_STEP, _comp_logliks_y, _theta_scores, mean_hess, score_matrix

COND_LIMIT = 1e10   # refuse inversion past this condition number


@dataclass(frozen=True)
class InfoMatrices:
    """The six empirical matrices plus the condition estimate of I_b."""

    I_b: np.ndarray
    J_b: np.ndarray
    K_by: np.ndarray
    I_y: np.ndarray
    I_zy: np.ndarray
    I_x: np.ndarray
    cond_I_b: float

    @property
    def p(self):
        return self.I_b.shape[0]


def safe_inverse(M, cond_limit=COND_LIMIT):
    """Symmetric inverse via an eigendecomposition, guarded by the
    condition number max|eig| / min|eig|; raises IllConditionedError
    (carrying the estimate) instead of returning a meaningless inverse.
    """
    M = 0.5 * (M + M.T)
    w, V = eigh(M)
    aw = np.abs(w)
    if not np.all(np.isfinite(w)) or aw.min() == 0.0:
        raise IllConditionedError(np.inf, cond_limit)
    cond = float(aw.max() / aw.min())
    if cond > cond_limit:
        raise IllConditionedError(cond, cond_limit)
    return (V / w) @ V.T


def _cond_sym(M):
    w = eigh(0.5 * (M + M.T), eigvals_only=True)
    aw = np.abs(w)
    if not np.all(np.isfinite(aw)) or aw.min() == 0.0:
        return float(np.inf)
    return float(aw.max() / aw.min())


def _latent_info(params, data, p):
    """Outer-product estimate of the label information beyond y.

    Sums over both label values with the fitted posterior as weight, so
    the result is an average of rank-deficient PSD terms and therefore
    PSD itself.
    """
    theta = params.theta if isinstance(params, FullParams) else params
    y = data.y
    l1, l2 = _comp_logliks_y(theta, y)
    w1 = np.exp(l1 - np.logaddexp(l1, l2))
    S_y = _theta_scores(theta, y, w1)
    out = np.zeros((D_THETA, D_THETA))
    for zval, wz in ((1.0, w1), (0.0, 1.0 - w1)):
        U = _theta_scores(theta, y, np.full(y.shape, zval)) - S_y
        out += U.T @ (wz[:, None] * U)
    out /= data.n
    if p == D_THETA:
        return out
    big = np.zeros((p, p))
    big[:D_THETA, :D_THETA] = out
    return big


def estimate_info(data, fit, theta_for_eval=None, rel_step=FD_REL_STEP):
    """All empirical information matrices at a fitted parameter block.

    Parameters
    ----------
    data : Dataset
        The sample the fit came from; needs auxiliary columns when
        ``fit`` is a FullParams block.
    fit : FullParams or PrimaryParams
        The estimator whose curvature and score products are averaged.
        With a PrimaryParams block the fit and the marginal coincide,
        so I_b, J_b and K_by collapse to their y-regime versions.
    theta_for_eval : PrimaryParams, optional
        Where the y-regime quantities are evaluated; defaults to the
        primary block of ``fit``.

    Returns
    -------
    InfoMatrices
    """
    n = data.n
    if isinstance(fit, FullParams):
        theta = theta_for_eval if theta_for_eval is not None else fit.theta
        p = flat_dim(fit.m)
        S_b = score_matrix("b", fit, data)
        I_b = -mean_hess("b", fit, data, rel_step)
        J_b = S_b.T @ S_b / n
        ref = fit.with_theta(theta)
        S_y = score_matrix("y", ref, data)
        K_by = S_b.T @ S_y / n
        I_y = -mean_hess("y", ref, data, rel_step)
        I_zy = _latent_info(ref, data, p)
    else:
        theta = theta_for_eval if theta_for_eval is not None else fit
        p = D_THETA
        S_y = score_matrix("y", theta, data)
        I_y = -mean_hess("y", theta, data, rel_step)
        J_y = S_y.T @ S_y / n
        I_b, J_b, K_by = I_y, J_y, J_y
        I_zy = _latent_info(theta, data, p)
    I_x = I_y + I_zy
    return InfoMatrices(I_b, J_b, K_by, I_y, I_zy, I_x, _cond_sym(I_b))


def without_latent(mats):
    """Copy of the matrices with the label contribution removed
    (I_zy = 0, hence I_x = I_y); the no-latent degeneration."""
    zero = np.zeros_like(mats.I_zy)
    return InfoMatrices(mats.I_b, mats.J_b, mats.K_by, mats.I_y, zero,
                        mats.I_y.copy(), mats.cond_I_b)
