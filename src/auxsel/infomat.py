"""Empirical information matrices of the fitted mixture and guarded inversion.

Six matrices drive every criterion, all sample averages at the fitted
parameters, all in closed form from the posterior pass of :mod:`auxsel.gmm`
(one on (y, a) for a joint fit, one on y):

* I_b   minus the average Hessian of log p_b (or log p_y for a fit
        without auxiliary variables),
* J_b   average outer product of the log p_b scores,
* K_by  average cross product of log p_b and log p_y scores,
* I_y   minus the average Hessian of log p_y,
* I_zy  average conditional-score outer product of the latent label
        given y, weighted by the fitted posterior (positive
        semidefinite by construction; the part of Louis' identity
        that takes I_x down to I_y),
* I_x   I_y + I_zy.

The y-regime blocks live in the leading primary coordinates; auxiliary
rows and columns are exactly zero there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .model import D_THETA, FullParams, IllConditionedError, require_valid
from .gmm import _posterior, _records, _theta_of

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


def estimate_info(data, fit):
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

    Returns
    -------
    InfoMatrices
    """
    require_valid(fit)
    n = data.n
    _, S_y, H_y, I_zy = _posterior(_theta_of(fit), data.y[:, None])
    I_y = -H_y
    if isinstance(fit, FullParams):
        _, S_b, H_b, _ = _posterior(fit, _records(fit, data))
        aux = S_b.shape[1] - D_THETA   # y-regime rows and columns there are zero
        I_b = -H_b
        J_b = S_b.T @ S_b / n
        K_by = np.pad(S_b.T @ S_y / n, ((0, 0), (0, aux)))
        I_y, I_zy = np.pad(I_y, (0, aux)), np.pad(I_zy, (0, aux))
    else:
        J_y = S_y.T @ S_y / n
        I_b, J_b, K_by = I_y, J_y, J_y
    I_x = I_y + I_zy
    return InfoMatrices(I_b, J_b, K_by, I_y, I_zy, I_x, _cond_sym(I_b))


def without_latent(mats):
    """Copy of the matrices with the label contribution removed
    (I_zy = 0, hence I_x = I_y); the no-latent degeneration."""
    zero = np.zeros_like(mats.I_zy)
    return InfoMatrices(mats.I_b, mats.J_b, mats.K_by, mats.I_y, zero,
                        mats.I_y.copy(), mats.cond_I_b)
