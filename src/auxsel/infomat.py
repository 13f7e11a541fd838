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

The matrices of several fits of equal n come from one batched pass
(:func:`estimate_info_groups`): one posterior pass on y over every fit,
one on (y, a) over the joint fits, and one batched eigendecomposition of
their I_b.  Each fit's :class:`InfoMatrices` carries that decomposition,
so ``cond_I_b``, the condition check and every criterion that inverts
I_b read the same numbers.  :func:`estimate_info` is the one-fit case.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import D_THETA, AuxselError, FullParams, IllConditionedError, require_valid
from .gmm import _blocks, _posterior, _records, checked

COND_LIMIT = 1e10   # refuse inversion past this condition number


def _decompose(M):
    """Eigenvalues w and vectors V of sym(M) for a (G, p, p) stack, with
    the condition numbers max|w| / min|w| (inf where w is not finite or
    a zero eigenvalue makes M singular)."""
    w, V = np.linalg.eigh(0.5 * (M + M.transpose(0, 2, 1)))
    aw = np.abs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = aw.max(axis=1) / aw.min(axis=1)
    cond[~np.isfinite(aw).all(axis=1) | (aw.min(axis=1) == 0.0)] = np.inf
    return w, V, cond


def _guarded_inverse(w, V, cond, cond_limit):
    if cond == np.inf or cond > cond_limit:
        raise IllConditionedError(cond, cond_limit)
    return (V / w) @ V.T


@dataclass(frozen=True)
class InfoMatrices:
    """The six empirical matrices, the condition estimate of I_b and the
    eigendecomposition (w, V) of I_b that both the estimate and
    :meth:`I_b_inverse` read."""

    I_b: np.ndarray
    J_b: np.ndarray
    K_by: np.ndarray
    I_y: np.ndarray
    I_zy: np.ndarray
    I_x: np.ndarray
    cond_I_b: float
    eig_I_b: tuple

    @property
    def p(self):
        return self.I_b.shape[0]

    def I_b_inverse(self, cond_limit=COND_LIMIT):
        """I_b^-1 from the carried decomposition; raises
        IllConditionedError (carrying ``cond_I_b``) past ``cond_limit``."""
        return _guarded_inverse(*self.eig_I_b, self.cond_I_b, cond_limit)


def safe_inverse(M, cond_limit=COND_LIMIT):
    """Symmetric inverse via an eigendecomposition, guarded by the
    condition number max|eig| / min|eig|; raises IllConditionedError
    (carrying the estimate) instead of returning a meaningless inverse.
    """
    w, V, cond = _decompose(np.asarray(M, dtype=float)[None])
    return _guarded_inverse(w[0], V[0], float(cond[0]), cond_limit)


def _stacked_info(I_b, J_b, K_by, I_y, I_zy):
    """InfoMatrices of each fit in stacks of (G, p, p) matrices, with one
    batched decomposition of I_b."""
    w, V, cond = _decompose(I_b)
    return [InfoMatrices(*mats, float(c), (wg, Vg)) for *mats, c, wg, Vg
            in zip(I_b, J_b, K_by, I_y, I_zy, I_y + I_zy, cond, w, V)]


def estimate_info_groups(datasets, fits):
    """The information matrices of several fits in one batched pass.

    Parameters
    ----------
    datasets : sequence of Dataset, all of the same n
        ``datasets[i]`` is the sample ``fits[i]`` came from.
    fits : sequence of FullParams, PrimaryParams or AuxselError
        The fitted blocks; the FullParams blocks share their number of
        auxiliary columns.  An AuxselError entry (a failed fit, as
        :func:`auxsel.gmm.fit_em_groups` returns it) is passed through.

    Returns
    -------
    One entry per fit, in order: the :class:`InfoMatrices` that
    :func:`estimate_info` gives that fit alone, or the AuxselError it
    raises there, so a failed fit leaves the others standing.
    """
    out = list(fits)
    live = []
    for i, fit in enumerate(fits):
        try:
            live.append((i, require_valid(checked(fit))))
        except AuxselError as exc:
            out[i] = exc
    if not live:
        return out
    n = datasets[live[0][0]].n
    _, S_y, H_y, C_y, errs = _posterior(*_blocks([f.theta for _, f in live]),
                                        np.stack([datasets[i].y for i, _ in live])[..., None])
    prim, joint = [], []
    for k, (i, fit) in enumerate(live):
        try:
            checked(errs[k])
            if isinstance(fit, FullParams):
                joint.append((k, i, fit, _records(datasets[i], fit.m)))
            else:
                prim.append((k, i))
        except AuxselError as exc:
            out[i] = exc
    if prim:
        ks, idx = map(list, zip(*prim))
        S, I_y = S_y[ks], -H_y[ks]
        J_y = S.transpose(0, 2, 1) @ S / n
        for i, mats in zip(idx, _stacked_info(I_y, J_y, J_y, I_y, C_y[ks])):
            out[i] = mats
    if joint:
        ks, idx, blocks, records = zip(*joint)
        _, S_b, H_b, _, errs = _posterior(*_blocks(blocks), np.stack(records))
        ok = [g for g, err in enumerate(errs) if err is None]
        for g, err in enumerate(errs):
            if err is not None:
                out[idx[g]] = err
        if ok:
            ky = [ks[g] for g in ok]
            S = S_b[ok]
            J_b = S.transpose(0, 2, 1) @ S / n
            # y-regime rows and columns of the auxiliary entries are zero
            K_by, I_y, I_zy = (np.zeros(J_b.shape) for _ in range(3))
            K_by[..., :D_THETA] = S.transpose(0, 2, 1) @ S_y[ky] / n
            I_y[:, :D_THETA, :D_THETA] = -H_y[ky]
            I_zy[:, :D_THETA, :D_THETA] = C_y[ky]
            for g, mats in zip(ok, _stacked_info(-H_b[ok], J_b, K_by, I_y, I_zy)):
                out[idx[g]] = mats
    return out


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
    InfoMatrices, the one-fit case of :func:`estimate_info_groups`.
    """
    return checked(estimate_info_groups([data], [fit])[0])


def without_latent(mats):
    """Copy of the matrices with the label contribution removed
    (I_zy = 0, hence I_x = I_y); the no-latent degeneration.  I_b and
    its decomposition are kept."""
    return replace(mats, I_zy=np.zeros_like(mats.I_zy), I_x=mats.I_y.copy())
