"""Auxiliary-variable selection on the UCI wine data.

The canonical file has 178 rows and 14 comma-separated columns: the
cultivar class (1, 2, 3) followed by thirteen measurements V1..V13.
The experiment keeps classes 1 and 2 (130 rows, class 1 mapped to the
latent label 1), standardizes the thirteen measurements over the kept
rows, and then, for each choice of one measurement as the primary
variable, repeatedly splits into train and test parts.  On each split
every other measurement is tried as a single auxiliary variable: twelve
auxiliary fits and the no-auxiliary fit compete on the complete-data
AIC (labels never enter the fits), and the winner's class-prediction
gain over the no-auxiliary fit is scored on the held-out part.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

import numpy as np

from .model import AuxselError, Dataset, DegenerateDataError, ParseError
# fit_em_b and estimate_info are not called here; perfbench/tracing.py wraps
# these names in this module, so they stay importable from it.
from .gmm import (
    EmOptions, checked, fit_em_b, fit_em_groups, fit_em_y, fitted_params, logdens_x,
)
from .infomat import estimate_info, estimate_info_groups
from .criteria import aic_xb, aic_xy, select_auxiliary
from .simlab import _map

WINE_ROWS = 178
WINE_COLS = 14


def bundled_wine_path():
    """Path of the copy of the canonical file shipped with the package."""
    return importlib.resources.files("auxsel").joinpath("data/wine.data")


def load_wine(path, strict=True):
    """Parse the canonical file into a float array of shape (178, 14).

    Errors name the offending line; ``strict=False`` skips the row-count
    check (column count and class labels are always validated).
    """
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != WINE_COLS:
                raise ParseError(
                    f"{path}: line {ln}: expected {WINE_COLS} columns, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise ParseError(f"{path}: line {ln}: non-numeric field") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    arr = np.array(rows)
    if not np.isin(arr[:, 0], (1.0, 2.0, 3.0)).all():
        raise ParseError(f"{path}: class column must contain only 1, 2, 3")
    if strict and arr.shape[0] != WINE_ROWS:
        raise ParseError(f"{path}: expected {WINE_ROWS} rows, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True)
class WineConfig:
    """Protocol knobs of the real-data experiment."""

    csv_path: str
    classes_kept: tuple = (1, 2)
    n_expected: int = 130
    n_train: int = 86
    n_test: int = 44
    n_splits: int = 100
    seed: int = 0
    em: EmOptions = EmOptions()
    workers: int = 1

    def __post_init__(self):
        if self.n_train + self.n_test != self.n_expected:
            raise ValueError("train and test sizes must partition the kept rows")
        if len(self.classes_kept) != 2:
            raise ValueError("exactly two classes are kept")


def preprocess(raw, y_col, config):
    """Kept rows as a Dataset: primary column y_col (1-based), the other
    twelve measurements as a1..a12 in their original order, labels from
    the class column (first kept class maps to z = 1).

    Standardization (mean zero, unit sample variance with denominator
    n - 1) happens over the kept rows before the split into y and a.
    """
    if not 1 <= y_col <= WINE_COLS - 1:
        raise ValueError(f"y_col must be in 1..{WINE_COLS - 1}")
    keep = np.isin(raw[:, 0], config.classes_kept)
    sub = raw[keep]
    if sub.shape[0] != config.n_expected:
        raise DegenerateDataError(
            f"expected {config.n_expected} rows for classes {config.classes_kept}, "
            f"got {sub.shape[0]}")
    z = (sub[:, 0] == config.classes_kept[0]).astype(int)
    V = sub[:, 1:]
    sd = V.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        raise DegenerateDataError("zero-variance measurement column")
    Vs = (V - V.mean(axis=0)) / sd
    aux = [c for c in range(WINE_COLS - 1) if c != y_col - 1]
    return Dataset(Vs[:, y_col - 1], z, Vs[:, aux])


def _test_nll(theta, test):
    """Held-out complete-data negative log likelihood, best label assignment."""
    vals = (-float(np.sum(logdens_x(theta, test.y, test.z))),
            -float(np.sum(logdens_x(theta.swapped(), test.y, test.z))))
    return min(vals)


def _candidates(train, em):
    """Complete-data AIC and primary block of the no-auxiliary fit ("y")
    and of every single-column auxiliary fit ("a1".."a12"), with the
    number of auxiliary candidates that failed.

    The twelve auxiliary fits run as groups of EM lane passes
    (:func:`fit_em_groups`), and the information matrices of the y fit
    and the twelve as one batched pass (:func:`estimate_info_groups`); a
    candidate whose fit, information or criterion fails is left out and
    counted, and the others keep their values.  A failed y fit raises.
    """
    theta_y = fit_em_y(train, em).params
    cands = [Dataset(train.y, None, train.a[:, [j]]) for j in range(train.m)]
    betas = fitted_params(fit_em_groups(cands, em))
    mats = estimate_info_groups([train] + cands, [theta_y] + betas)
    reports = {"y": aic_xy(train, theta_y, checked(mats[0]))}
    thetas = {"y": theta_y}
    failures = 0
    for j, (dj, beta, info) in enumerate(zip(cands, betas, mats[1:])):
        try:
            reports[f"a{j + 1}"] = aic_xb(dj, checked(beta), checked(info))
            thetas[f"a{j + 1}"] = beta.theta
        except AuxselError:
            failures += 1
    return reports, thetas, failures


def _wine_split(args):
    """One train/test split: select among 13 fits, score the gain on test."""
    ds, n_train, seed_key, em = args
    try:
        rng = np.random.default_rng(np.random.SeedSequence(seed_key))
        perm = rng.permutation(ds.n)
        train = ds.take(perm[:n_train]).drop_z()
        test = ds.take(perm[n_train:])
        reports, thetas, failures = _candidates(train, em)
        sel = select_auxiliary(reports)
        gain = _test_nll(thetas["y"], test) - _test_nll(thetas[sel.label], test)
        return ("ok", (gain, failures, sel.label))
    except AuxselError as exc:
        return ("fail", str(exc))


def run_wine(config, y_cols=None):
    """The full experiment: one row per choice of the primary column.

    Parameters
    ----------
    config : WineConfig
    y_cols : iterable of 1-based measurement indices; default all 13.

    Returns
    -------
    list of rows with the mean held-out gain of the selected fit over
    the no-auxiliary fit, its standard error over splits, and counts of
    dropped candidates and excluded splits.
    """
    raw = load_wine(config.csv_path)
    rows = []
    for y_col in (range(1, WINE_COLS) if y_cols is None else y_cols):
        ds = preprocess(raw, y_col, config)
        args = [(ds, config.n_train, [config.seed, y_col, t], config.em)
                for t in range(config.n_splits)]
        results = _map(_wine_split, args, config.workers)
        oks = [payload for status, payload in results if status == "ok"]
        excluded = config.n_splits - len(oks)
        if not oks:
            raise DegenerateDataError(f"V{y_col}: every split failed")
        gains = np.array([g for g, _, _ in oks])
        se = float(gains.std(ddof=1) / np.sqrt(gains.size)) if gains.size > 1 else 0.0
        rows.append({
            "y_col": f"V{y_col}",
            "gain_mean": float(gains.mean()),
            "gain_se": se,
            "splits_used": len(oks),
            "splits_excluded": excluded,
            "candidate_failures": int(sum(f for _, f, _ in oks)),
        })
    return rows
