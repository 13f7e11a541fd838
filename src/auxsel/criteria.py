"""Information criteria for deciding whether auxiliary variables help.

Every criterion scores the same target, minus twice the predictive log
likelihood of the primary data, and differs only in its penalty:

* risk_xb  asymptotically unbiased risk estimate for the complete-data
           predictive distribution under a fit that used auxiliaries,
           valid under misspecification,
* aic_xb   its simplification under a correctly specified model,
* aic_xy   the same target for the fit without auxiliaries,
* aic_yb / aic_yy  the no-latent analogues (predicting y only),
* tic      the classical robust criterion, the no-latent no-auxiliary
           degeneration of risk_xb.

Smaller is better; auxiliary variables are judged useful when the
auxiliary-fit criterion beats the corresponding no-auxiliary one.
risk_xb, aic_xb and aic_yb invert I_b through the eigendecomposition
the matrices carry (:meth:`InfoMatrices.I_b_inverse`), so the condition
check raises here, at the criterion call, with the ``cond_I_b`` the
matrices report.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import D_THETA, InvalidParamsError
from .gmm import logdens_y
from .infomat import COND_LIMIT, safe_inverse


@dataclass(frozen=True)
class CriterionReport:
    """One criterion evaluation: value = fit_term + penalty."""

    name: str
    value: float
    fit_term: float
    penalty: float
    traces: dict

    def to_row(self):
        row = {"criterion": self.name, "value": self.value,
               "fit_term": self.fit_term, "penalty": self.penalty}
        for k, v in self.traces.items():
            row[f"trace_{k}"] = v
        return row


@dataclass(frozen=True)
class SelectionResult:
    """Chosen candidate label plus its margin over the runner-up."""

    label: str
    margin: float
    values: dict


def _fit_term(data, fit):
    """Minus twice the summed predictive log density of y."""
    return -2.0 * float(np.sum(logdens_y(fit, data.y)))


def _primary_block(M):
    return M[:D_THETA, :D_THETA]


def risk_xb(data, fit, mats, cond_limit=COND_LIMIT):
    """Misspecification-robust risk estimate for the complete-data target.

    Penalty: 2 tr(I_b^{-1} K_by) for predicting y, plus
    tr(I_zy I_b^{-1} J_b I_b^{-1}) for the latent label.
    """
    Ib_inv = mats.I_b_inverse(cond_limit)
    t_pred = float(np.trace(Ib_inv @ mats.K_by))
    t_lat = float(np.trace(mats.I_zy @ Ib_inv @ mats.J_b @ Ib_inv))
    fit_term = _fit_term(data, fit)
    penalty = 2.0 * t_pred + t_lat
    return CriterionReport("risk_xb", fit_term + penalty, fit_term, penalty,
                           {"IbInv_Kby": t_pred, "Izy_IbInv_Jb_IbInv": t_lat})


def aic_xb(data, fit, mats, cond_limit=COND_LIMIT):
    """Complete-data AIC for the auxiliary fit (correct-specification form)."""
    Ib_inv = mats.I_b_inverse(cond_limit)
    t_x = float(np.trace(mats.I_x @ Ib_inv))
    t_y = float(np.trace(mats.I_y @ Ib_inv))
    fit_term = _fit_term(data, fit)
    penalty = t_x + t_y
    return CriterionReport("aic_xb", fit_term + penalty, fit_term, penalty,
                           {"Ix_IbInv": t_x, "Iy_IbInv": t_y})


def aic_xy(data, theta_hat_y, mats, cond_limit=COND_LIMIT):
    """Complete-data AIC for the fit without auxiliary variables."""
    I_y = _primary_block(mats.I_y)
    I_x = _primary_block(mats.I_x)
    t_x = float(np.trace(I_x @ safe_inverse(I_y, cond_limit)))
    fit_term = _fit_term(data, theta_hat_y)
    penalty = t_x + D_THETA
    return CriterionReport("aic_xy", fit_term + penalty, fit_term, penalty,
                           {"Ix_IyInv": t_x})


def aic_yb(data, fit, mats, cond_limit=COND_LIMIT):
    """AIC targeting the prediction of y alone, auxiliary fit."""
    Ib_inv = mats.I_b_inverse(cond_limit)
    t_y = float(np.trace(mats.I_y @ Ib_inv))
    fit_term = _fit_term(data, fit)
    return CriterionReport("aic_yb", fit_term + 2.0 * t_y, fit_term, 2.0 * t_y,
                           {"Iy_IbInv": t_y})


def aic_yy(data, theta_hat_y):
    """Classical AIC of the primary-only fit (penalty twice the dimension)."""
    fit_term = _fit_term(data, theta_hat_y)
    penalty = 2.0 * D_THETA
    return CriterionReport("aic_yy", fit_term + penalty, fit_term, penalty, {})


def tic(data, theta_hat_y, mats, cond_limit=COND_LIMIT):
    """Takeuchi's criterion for the primary-only fit.

    Expects matrices from a primary-only :func:`estimate_info` call, where
    I_b and J_b are the y-regime curvature and score product.
    """
    I_y = _primary_block(mats.I_b)
    J_y = _primary_block(mats.J_b)
    t = float(np.trace(safe_inverse(I_y, cond_limit) @ J_y))
    fit_term = _fit_term(data, theta_hat_y)
    return CriterionReport("tic", fit_term + 2.0 * t, fit_term, 2.0 * t,
                           {"IyInv_Jy": t})


_FAMILY = {"aic_xb": "aic:x", "aic_xy": "aic:x",
           "aic_yb": "aic:y", "aic_yy": "aic:y"}


def _family(name):
    return _FAMILY.get(name, name)


def select_auxiliary(reports, no_aux_label="y"):
    """Pick the candidate with the smallest criterion value.

    ``reports`` maps candidate labels to CriterionReport objects scoring
    the same target (the no-auxiliary report may carry the matching
    no-auxiliary criterion name).  Exact ties break toward the
    no-auxiliary label, then lexicographically.
    """
    items = list(reports.items()) if isinstance(reports, dict) else list(reports)
    if not items:
        raise InvalidParamsError("no candidates to select among")
    fams = {_family(rep.name) for _, rep in items}
    if len(fams) > 1:
        raise InvalidParamsError(f"criteria not comparable: {sorted(fams)}")
    values = {label: rep.value for label, rep in items}
    best = min(values.values())
    tied = sorted(label for label, v in values.items() if v == best)
    label = no_aux_label if no_aux_label in tied else tied[0]
    rest = sorted(v for lab, v in values.items() if lab != label)
    margin = (rest[0] - values[label]) if rest else 0.0
    return SelectionResult(label, margin, values)
