"""Synthetic truth, exact losses by quadrature, and the replicate engine.

The generating model draws a latent label z, the primary variable y
from a label-dependent normal, and two auxiliary columns from the same
label draw: a1 depends on z (informative) while a2 is an independent
copy of the auxiliary marginal (useless).  Case 1 experiments use a1,
case 2 use a2, on shared (y, z) draws.

Losses are expected negative log densities under the truth, computed by
Gauss-Hermite quadrature per true component; the integrand of the
complete-data loss is quadratic in y given the label, so the quadrature
is exact up to the mixture's label-sum.  Mixture losses are reported as
the minimum over the two label assignments of the fit.
"""
from __future__ import annotations

import ctypes
import multiprocessing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    AuxselError, Dataset, NumericalError, PrimaryParams,
)
from .gmm import EmOptions, fit_complete_x, fit_em_b, fit_em_y, logdens_x, logdens_y
from .infomat import estimate_info
from .criteria import aic_xb, aic_xy, aic_yb, aic_yy

GH_NODES = 64   # quadrature nodes per true component

MAX_EXCLUDED_SHARE = 0.01   # tolerated share of failed replicates


@dataclass(frozen=True)
class TrueModelSpec:
    """Generating model; defaults are the reference configuration.

    ``mu_y`` and ``mu_a`` order the component means as (z = 1, z = 0);
    ``case`` picks which auxiliary column downstream runs use.
    """

    case: int = 1
    pi: float = 0.6
    mu_y: tuple = (-1.2, 1.2)
    var_y: float = 0.7
    mu_a: tuple = (1.8, -1.8)
    var_a: float = 0.49

    def __post_init__(self):
        if self.case not in (1, 2):
            raise ValueError(f"case must be 1 or 2, got {self.case}")
        if not 0.0 < self.pi < 1.0 or self.var_y <= 0.0 or self.var_a <= 0.0:
            raise ValueError("generating model needs pi in (0,1) and positive variances")

    def theta_true(self):
        return PrimaryParams(self.pi, self.mu_y[0], self.mu_y[1], self.var_y)


def generate(spec, n, seed):
    """Draw a sample of size n: columns y, z, a1 (label-linked), a2 (independent)."""
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < spec.pi).astype(int)
    y = np.where(z == 1, spec.mu_y[0], spec.mu_y[1]) \
        + np.sqrt(spec.var_y) * rng.standard_normal(n)
    a1 = np.where(z == 1, spec.mu_a[0], spec.mu_a[1]) \
        + np.sqrt(spec.var_a) * rng.standard_normal(n)
    w = rng.random(n) < spec.pi
    a2 = np.where(w, spec.mu_a[0], spec.mu_a[1]) \
        + np.sqrt(spec.var_a) * rng.standard_normal(n)
    return Dataset(y, z, np.column_stack([a1, a2]))


def for_case(data, case):
    """Keep the auxiliary column of one case (1-based)."""
    return Dataset(data.y, data.z, data.a[:, [case - 1]])


@lru_cache(maxsize=8)
def _gh(nodes):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return x, w / np.sqrt(np.pi)


def gauss_hermite_mean(f, mean, var, nodes=GH_NODES):
    """E[f(Y)] for Y ~ N(mean, var) by Gauss-Hermite quadrature."""
    x, w = _gh(nodes)
    return float(w @ f(mean + np.sqrt(2.0 * var) * x))


def _loss_x_fixed(theta, spec, nodes):
    total = 0.0
    for weight, mean, zval in ((spec.pi, spec.mu_y[0], 1),
                               (1.0 - spec.pi, spec.mu_y[1], 0)):
        total += weight * gauss_hermite_mean(
            lambda t: logdens_x(theta, t, zval), mean, spec.var_y, nodes)
    return -total


def loss_x(theta, spec=TrueModelSpec(), nodes=GH_NODES):
    """Expected complete-data negative log density under the truth.

    The label assignment of a mixture fit is arbitrary, so the smaller
    of the two assignments is returned.
    """
    vals = (_loss_x_fixed(theta, spec, nodes),
            _loss_x_fixed(theta.swapped(), spec, nodes))
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite quadrature value in loss")
    return min(vals)


def loss_y(theta, spec=TrueModelSpec(), nodes=GH_NODES):
    """Expected negative log density of y under the truth (label-free)."""
    total = 0.0
    for weight, mean in ((spec.pi, spec.mu_y[0]), (1.0 - spec.pi, spec.mu_y[1])):
        total += weight * gauss_hermite_mean(
            lambda t: logdens_y(theta, t), mean, spec.var_y, nodes)
    if not np.isfinite(total):
        raise NumericalError("non-finite quadrature value in loss")
    return -total


@dataclass(frozen=True)
class ReplicateOutcome:
    """Fits, criterion values, losses and the selection of one replicate."""

    theta_y: PrimaryParams
    theta_x: PrimaryParams
    beta_b: object
    criteria: dict
    losses: dict
    selected: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment knobs; seeds derive per replicate from ``seed``."""

    n_list: tuple = (100,)
    T: int = 2000
    seed: int = 0
    quadrature_nodes: int = GH_NODES
    workers: int = 1
    em: EmOptions = EmOptions()


def _replicate(args):
    """One replicate: shared draws, fits per case, criteria and losses.

    Top-level so worker pools can pickle it; returns ("ok", {case:
    outcome}) or ("fail", message) so exclusions can be counted.
    """
    spec, n, seed, rep, em, nodes, cases = args
    try:
        data = generate(spec, n, np.random.SeedSequence([seed, n, rep]))
        rep_y = fit_em_y(data, em)
        rep_x = fit_complete_x(data)
        theta_y, theta_x = rep_y.params, rep_x.params
        mats_y = estimate_info(data.drop_z().drop_aux(), theta_y)
        r_xy = aic_xy(data, theta_y, mats_y)
        r_yy = aic_yy(data, theta_y)
        lx_y = loss_x(theta_y, spec, nodes)
        lx_x = loss_x(theta_x, spec, nodes)
        ly_y = loss_y(theta_y, spec, nodes)
        out = {}
        for case in cases:
            d = Dataset(data.y, None, data.a[:, [case - 1]])
            rep_b = fit_em_b(d, em)
            beta = rep_b.params
            mats = estimate_info(d, beta)
            r_xb = aic_xb(d, beta, mats)
            r_yb = aic_yb(d, beta, mats)
            crit = {"aic_xb": r_xb.value, "aic_xy": r_xy.value,
                    "aic_yb": r_yb.value, "aic_yy": r_yy.value}
            losses = {"x_b": loss_x(beta.theta, spec, nodes), "x_y": lx_y,
                      "x_x": lx_x, "y_b": loss_y(beta.theta, spec, nodes),
                      "y_y": ly_y}
            selected = "b" if crit["aic_xb"] < crit["aic_xy"] else "y"
            out[case] = ReplicateOutcome(theta_y, theta_x, beta, crit, losses, selected)
        return ("ok", out)
    except AuxselError as exc:
        return ("fail", f"replicate {rep}: {exc}")


def _openblas(op, restype, *argtypes):
    """``openblas_<op>`` of every OpenBLAS loaded in this process, found
    by the library paths in /proc/self/maps (none where that is absent)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        names = (f"scipy_openblas_{op}64_", f"scipy_openblas_{op}",
                 f"openblas_{op}64_", f"openblas_{op}")
        fn = next((getattr(lib, s) for s in names if hasattr(lib, s)), None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            found.append(fn)
    return found


def _one_blas_thread():
    """Pool initializer: the workers already split the work, and on these
    small arrays a second BLAS thread doubles CPU time for no wall time."""
    for set_threads in _openblas("set_num_threads", None, ctypes.c_int):
        set_threads(1)


def _map(fn, items, workers):
    if workers <= 1:
        return [fn(item) for item in items]
    with multiprocessing.Pool(workers, initializer=_one_blas_thread) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers)))


def run_replicates(spec, n, config, cases):
    """All replicates at one sample size; returns (outcomes, n_excluded)."""
    args = [(spec, n, config.seed, t, config.em, config.quadrature_nodes, cases)
            for t in range(config.T)]
    results = _map(_replicate, args, config.workers)
    outcomes = [payload for status, payload in results if status == "ok"]
    excluded = config.T - len(outcomes)
    if excluded > MAX_EXCLUDED_SHARE * config.T:
        first = next(payload for status, payload in results if status == "fail")
        raise NumericalError(
            f"{excluded} of {config.T} replicates excluded; first failure: {first}")
    return outcomes, excluded


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


def run_unbiasedness(config, spec=TrueModelSpec(case=1)):
    """Criterion difference against the loss difference it estimates.

    For each n: the mean over replicates of (auxiliary-fit complete-data
    AIC minus no-auxiliary complete-data AIC), next to 2n times the mean
    difference of the exact losses at the two fits, with standard errors.
    """
    rows = []
    for n in config.n_list:
        outcomes, excluded = run_replicates(spec, n, config, (spec.case,))
        picked = [o[spec.case] for o in outcomes]
        aic_diff = [o.criteria["aic_xb"] - o.criteria["aic_xy"] for o in picked]
        loss_diff = [2.0 * n * (o.losses["x_b"] - o.losses["x_y"]) for o in picked]
        am, ase = _mean_se(aic_diff)
        lm, lse = _mean_se(loss_diff)
        rows.append({"n": n, "T": len(picked), "excluded": excluded,
                     "aic_diff": am, "aic_diff_se": ase,
                     "risk_diff_2n": lm, "risk_diff_2n_se": lse})
    return rows


def run_selection(config, spec):
    """Selection frequencies and realized risks for one case.

    Returns ``{"counts": rows, "risk": rows}``: how often the auxiliary
    fit wins the complete-data AIC comparison, and 2n times the excess
    loss (over the truth) of the auxiliary fit, the no-auxiliary fit and
    the selected fit.
    """
    loss_true = None
    counts, risks = [], []
    for n in config.n_list:
        outcomes, excluded = run_replicates(spec, n, config, (spec.case,))
        picked = [o[spec.case] for o in outcomes]
        if loss_true is None:
            loss_true = loss_x(spec.theta_true(), spec, config.quadrature_nodes)
        T = len(picked)
        n_b = sum(1 for o in picked if o.selected == "b")
        counts.append({"n": n, "T": T, "excluded": excluded,
                       "n_select_b": n_b, "frac_select_b": n_b / T})
        for est in ("b", "y", "best"):
            vals = []
            for o in picked:
                key = {"b": "x_b", "y": "x_y"}.get(est) or \
                    ("x_b" if o.selected == "b" else "x_y")
                vals.append(2.0 * n * (o.losses[key] - loss_true))
            vm, vse = _mean_se(vals)
            risks.append({"n": n, "estimator": est, "excess_risk_2n": vm,
                          "excess_risk_2n_se": vse})
    return {"counts": counts, "risk": risks}


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def _fmt(v, floatfmt):
    if isinstance(v, (bool, np.bool_)):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return floatfmt % float(v)
    return str(v)


def _columns_of(rows, columns):
    if columns is not None:
        return list(columns)
    seen = []
    for row in rows:
        for key in row:
            if key not in seen:
                seen.append(key)
    return seen


def write_csv(path, rows, columns=None, floatfmt="%.12g"):
    """Rows of dicts to CSV with a stable column order and float format."""
    if not rows:
        raise ValueError("no rows to write")
    columns = _columns_of(rows, columns)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, ""), floatfmt) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def format_table(rows, columns=None, floatfmt="%.3f"):
    """Rows of dicts as an aligned markdown-style table string."""
    if not rows:
        raise ValueError("no rows to format")
    columns = _columns_of(rows, columns)
    cells = [[_fmt(row.get(c, ""), floatfmt) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]

    def line(vals):
        return "| " + " | ".join(v.rjust(w) for v, w in zip(vals, widths)) + " |"

    out = [line(columns), "|-" + "-|-".join("-" * w for w in widths) + "-|"]
    out += [line(r) for r in cells]
    return "\n".join(out) + "\n"


def write_markdown(path, rows, columns=None, floatfmt="%.3f"):
    """Rows of dicts to an aligned markdown table file."""
    with open(path, "w") as fh:
        fh.write(format_table(rows, columns, floatfmt))
