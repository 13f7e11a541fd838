"""Two-component shared-covariance Gaussian mixture: densities, scores, EM.

Three observation regimes share one parameter layout:

* ``'y'``  marginal of the primary variable (labels summed out),
* ``'b'``  joint of primary plus auxiliary variables (labels summed out),
* ``'x'``  complete data (y, z) with the label observed.

Scores are analytic; Hessians are central finite differences of the
analytic score so that second derivatives never depend on a hand-derived
Hessian.  EM maximizes the regime 'y' and 'b' likelihoods with restarts;
the complete-data fit is closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .model import (
    SIGMA_FLOOR, D_THETA, AuxParams, Dataset, DegenerateDataError, FullParams,
    InvalidParamsError, NumericalError, PrimaryParams, flat_dim, flatten,
    require_valid, unflatten,
)

LOG_2PI = np.log(2.0 * np.pi)

FD_REL_STEP = 1e-5   # relative step for finite-difference Hessians

EM_BURN_ITERS = 25   # short-run length used to rank restarts before the full run


# ---------------------------------------------------------------------------
# log densities and responsibilities
# ---------------------------------------------------------------------------

def _norm_logpdf(y, mean, var):
    return -0.5 * (LOG_2PI + np.log(var) + (y - mean) ** 2 / var)


def _chol(S):
    try:
        return cholesky(S, lower=True)
    except np.linalg.LinAlgError:
        raise NumericalError("joint covariance not positive definite") from None


def _mvn_logpdf(B, mean, L):
    """Gaussian log density of rows of B given a Cholesky factor L."""
    u = solve_triangular(L, (B - mean).T, lower=True)
    quad = np.einsum("ij,ij->j", u, u)
    return -0.5 * (B.shape[1] * LOG_2PI + quad) - np.log(np.diag(L)).sum()


def _theta_of(params):
    return params.theta if isinstance(params, FullParams) else params


def _comp_logliks_y(theta, y):
    l1 = np.log(theta.pi1) + _norm_logpdf(y, theta.mu1y, theta.sigy2)
    l2 = np.log1p(-theta.pi1) + _norm_logpdf(y, theta.mu2y, theta.sigy2)
    return l1, l2


def logdens_y(params, y):
    """log p_y(y): the two-component marginal of the primary variable."""
    theta = _theta_of(params)
    require_valid(theta)
    l1, l2 = _comp_logliks_y(theta, np.asarray(y, dtype=float))
    return np.logaddexp(l1, l2)


def logdens_x(params, y, z):
    """log p_x(y, z): complete-data density with the label observed."""
    theta = _theta_of(params)
    require_valid(theta)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z)
    l1, l2 = _comp_logliks_y(theta, y)
    return np.where(z == 1, l1, l2)


def logdens_b(params, y, a):
    """log p_b(y, a): joint mixture of primary and auxiliary variables."""
    require_valid(params)
    if not isinstance(params, FullParams):
        raise InvalidParamsError("joint density needs a FullParams block")
    B = _join(y, a, params.m)
    L = _chol(params.joint_cov())
    l1 = np.log(params.theta.pi1) + _mvn_logpdf(B, params.component_mean(1), L)
    l2 = np.log1p(-params.theta.pi1) + _mvn_logpdf(B, params.component_mean(2), L)
    out = np.logaddexp(l1, l2)
    return out if out.size > 1 else float(out[0])


def _join(y, a, m):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim == 1:
        a = a[None, :] if y.size == 1 and a.size == m else a[:, None]
    if a.shape != (y.size, m):
        raise InvalidParamsError(f"auxiliary block shaped {a.shape}, expected ({y.size}, {m})")
    return np.column_stack([y, a])


def resp_z_given_y(params, y):
    """Posterior probability of z = 1 given y (the responsibility)."""
    theta = _theta_of(params)
    require_valid(theta)
    l1, l2 = _comp_logliks_y(theta, np.asarray(y, dtype=float))
    return np.exp(l1 - np.logaddexp(l1, l2))


def resp_z_given_b(params, y, a):
    """Posterior probability of z = 1 given (y, a)."""
    require_valid(params)
    B = _join(y, a, params.m)
    L = _chol(params.joint_cov())
    l1 = np.log(params.theta.pi1) + _mvn_logpdf(B, params.component_mean(1), L)
    l2 = np.log1p(-params.theta.pi1) + _mvn_logpdf(B, params.component_mean(2), L)
    out = np.exp(l1 - np.logaddexp(l1, l2))
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# analytic scores
# ---------------------------------------------------------------------------

def _theta_scores(theta, y, w1):
    """Per-record scores of the primary block given component-1 weights w1.

    With w1 = z this is the complete-data score; with w1 = responsibility
    it is the observed-data (marginal) score.
    """
    pi1, mu1, mu2, s2 = theta.pi1, theta.mu1y, theta.mu2y, theta.sigy2
    w2 = 1.0 - w1
    d1, d2 = y - mu1, y - mu2
    S = np.empty((y.size, D_THETA))
    S[:, 0] = w1 / pi1 - w2 / (1.0 - pi1)
    S[:, 1] = w1 * d1 / s2
    S[:, 2] = w2 * d2 / s2
    S[:, 3] = (w1 * (d1 ** 2 - s2) + w2 * (d2 ** 2 - s2)) / (2.0 * s2 ** 2)
    return S


def _scores_b(beta, B):
    """Per-record scores of log p_b in the flat layout, shape (n, d + f)."""
    m = beta.m
    q = 1 + m
    Sigma = beta.joint_cov()
    L = _chol(Sigma)
    mu1, mu2 = beta.component_mean(1), beta.component_mean(2)
    l1 = np.log(beta.theta.pi1) + _mvn_logpdf(B, mu1, L)
    l2 = np.log1p(-beta.theta.pi1) + _mvn_logpdf(B, mu2, L)
    r1 = np.exp(l1 - np.logaddexp(l1, l2))
    r2 = 1.0 - r1

    eye = np.eye(q)
    P = solve_triangular(L, solve_triangular(L, eye, lower=True), lower=True, trans="T")
    v1 = (B - mu1) @ P
    v2 = (B - mu2) @ P
    g_mu1 = r1[:, None] * v1
    g_mu2 = r2[:, None] * v2
    # d log p / d Sigma = 0.5 * (P S P - P) with S the responsibility-weighted
    # scatter; off-diagonal flat entries pick up a factor 2 because Sigma is
    # parameterized by its lower triangle.
    G = 0.5 * (r1[:, None, None] * v1[:, :, None] * v1[:, None, :]
               + r2[:, None, None] * v2[:, :, None] * v2[:, None, :]
               - P[None, :, :])

    S = np.empty((B.shape[0], flat_dim(m)))
    S[:, 0] = r1 / beta.theta.pi1 - r2 / (1.0 - beta.theta.pi1)
    S[:, 1] = g_mu1[:, 0]
    S[:, 2] = g_mu2[:, 0]
    S[:, 3] = G[:, 0, 0]
    k = D_THETA
    S[:, k:k + m] = g_mu1[:, 1:]
    k += m
    S[:, k:k + m] = g_mu2[:, 1:]
    k += m
    for i, j in zip(*np.tril_indices(m)):
        S[:, k] = G[:, 1 + i, 1 + j] if i == j else 2.0 * G[:, 1 + i, 1 + j]
        k += 1
    for j in range(m):
        S[:, k] = 2.0 * G[:, 0, 1 + j]
        k += 1
    return S


def _embed_theta_cols(S4, p):
    if p == D_THETA:
        return S4
    out = np.zeros((S4.shape[0], p))
    out[:, :D_THETA] = S4
    return out


def _score_matrix_raw(regime, params, data):
    theta = _theta_of(params)
    p = flat_dim(params.m) if isinstance(params, FullParams) else D_THETA
    if regime == "y":
        l1, l2 = _comp_logliks_y(theta, data.y)
        w1 = np.exp(l1 - np.logaddexp(l1, l2))
        return _embed_theta_cols(_theta_scores(theta, data.y, w1), p)
    if regime == "x":
        if not data.has_z:
            raise DegenerateDataError("regime 'x' needs observed labels z")
        return _embed_theta_cols(_theta_scores(theta, data.y, data.z.astype(float)), p)
    if regime == "b":
        if not isinstance(params, FullParams):
            raise InvalidParamsError("regime 'b' needs a FullParams block")
        if not data.has_a or data.m != params.m:
            raise DegenerateDataError("regime 'b' needs matching auxiliary columns")
        return _scores_b(params, np.column_stack([data.y, data.a]))
    raise ValueError(f"unknown regime {regime!r}")


def score_matrix(regime, params, data):
    """Per-record score vectors, shape (n, p), in the flat layout.

    Regimes 'y' and 'x' depend on the primary block only; with a
    FullParams argument their auxiliary columns are exactly zero.
    Raises NumericalError naming the first record whose score is not
    finite.
    """
    require_valid(params)
    # overflow is caught by the finiteness check below, keep it silent
    with np.errstate(over="ignore", invalid="ignore"):
        S = _score_matrix_raw(regime, params, data)
    bad = ~np.all(np.isfinite(S), axis=1)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise NumericalError(f"non-finite derivative at record {idx}")
    return S


def _params_like(params, vec):
    if isinstance(params, FullParams):
        return unflatten(vec, params.m)
    return PrimaryParams.from_flat(vec)


def mean_hess(regime, params, data, rel_step=FD_REL_STEP):
    """Average Hessian of the per-record log density (central differences
    of the analytic score, symmetrized).

    Regimes 'y' and 'x' have exactly zero auxiliary rows and columns, so
    only the primary block is differenced.
    """
    flat = flatten(params)
    p = flat.size
    active = range(p) if regime == "b" else range(D_THETA)
    H = np.zeros((p, p))
    for j in active:
        h = rel_step * max(1.0, abs(flat[j]))
        bumped = flat.copy()
        bumped[j] = flat[j] + h
        sp = _score_matrix_raw(regime, _params_like(params, bumped), data).mean(axis=0)
        bumped[j] = flat[j] - h
        sm = _score_matrix_raw(regime, _params_like(params, bumped), data).mean(axis=0)
        H[:, j] = (sp - sm) / (2.0 * h)
    if not np.all(np.isfinite(H)):
        raise NumericalError("non-finite second derivative")
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmOptions:
    """Knobs of the EM fitters; defaults suit n in the hundreds."""

    max_iter: int = 500
    tol: float = 1e-10          # per-observation log-likelihood increment
    restarts: int = 10
    seed: int = 0
    sigma_floor: float = SIGMA_FLOOR


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: parameters plus convergence diagnostics.

    ``grad_norm`` is the norm of the mean score at ``params``.  The warm
    fits (:func:`warm_fit_y`, :func:`warm_fit_b`) leave it None: their
    callers, the LOOCV fold refits, read only the parameters and the
    log likelihood.
    """

    params: object
    loglik_per_obs: float
    iterations: int
    converged: bool
    grad_norm: float | None
    cov_floored: bool = False
    loglik_path: np.ndarray | None = None


def _em_y(y, init, opts):
    """Single EM run on the marginal of y; returns a state dict."""
    n = y.size
    pi1, mu1, mu2, s2 = init
    ll_old, ll = -np.inf, -np.inf
    converged = False
    floored = False
    path = []
    it = 0
    for it in range(1, opts.max_iter + 1):
        l1 = np.log(pi1) + _norm_logpdf(y, mu1, s2)
        l2 = np.log1p(-pi1) + _norm_logpdf(y, mu2, s2)
        mx = np.logaddexp(l1, l2)
        ll = float(mx.mean())
        path.append(ll)
        if ll - ll_old < opts.tol:
            converged = True
            break
        ll_old = ll
        r = np.exp(l1 - mx)
        n1 = r.sum()
        n2 = n - n1
        if n1 < 1e-10 or n2 < 1e-10:
            break   # component died; leave this restart unconverged
        pi1 = n1 / n
        mu1 = float(r @ y) / n1
        mu2 = float((1.0 - r) @ y) / n2
        s2 = float(r @ (y - mu1) ** 2 + (1.0 - r) @ (y - mu2) ** 2) / n
        if s2 < opts.sigma_floor:
            s2 = opts.sigma_floor
            floored = True
    else:
        it = opts.max_iter
    if not converged:
        l1 = np.log(pi1) + _norm_logpdf(y, mu1, s2)
        l2 = np.log1p(-pi1) + _norm_logpdf(y, mu2, s2)
        ll = float(np.logaddexp(l1, l2).mean())
        path.append(ll)
    return {
        "params": PrimaryParams(pi1, mu1, mu2, s2),
        "ll": ll, "iters": it, "converged": converged,
        "floored": floored, "path": np.array(path),
    }


def _inits_y(y, opts):
    q20, q80 = np.quantile(y, [0.2, 0.8])
    sd = float(np.std(y))
    v = float(np.var(y))
    s2_base = max(v / 4.0, opts.sigma_floor)
    inits = [(0.5, q20, q80, s2_base)]
    rng = np.random.default_rng(opts.seed)
    for _ in range(max(0, opts.restarts - 1)):
        inits.append((
            float(rng.uniform(0.25, 0.75)),
            q20 + 0.5 * sd * rng.standard_normal(),
            q80 + 0.5 * sd * rng.standard_normal(),
            max(v * rng.uniform(0.25, 1.0), opts.sigma_floor),
        ))
    return inits


def _restarted(em_once, inits, opts, state_of):
    """Short-run every start, then run only the best to full tolerance.

    EM continued from a state follows the same trajectory as an
    uninterrupted run, so only the restart ranking can differ from
    running every start to convergence.
    """
    if len(inits) == 1:
        return em_once(inits[0], opts)
    burn_opts = replace(opts, max_iter=min(EM_BURN_ITERS, opts.max_iter))
    best = None
    for init in inits:
        run = em_once(init, burn_opts)
        if best is None or run["ll"] > best["ll"]:
            best = run
    if best["converged"]:
        return best
    tail = em_once(state_of(best), opts)
    tail["iters"] += best["iters"]
    tail["floored"] = tail["floored"] or best["floored"]
    tail["path"] = np.concatenate([best["path"], tail["path"][1:]])
    return tail


def fit_em_y(data, opts=EmOptions()):
    """Maximum likelihood for the marginal mixture of y by restarted EM."""
    y = data.y
    if np.ptp(y) == 0.0:
        raise DegenerateDataError("all y values identical; mixture fit undefined")
    best = _restarted(lambda init, o: _em_y(y, init, o), _inits_y(y, opts), opts,
                      lambda run: _theta_state(run["params"]))
    theta = best["params"]
    grad = score_matrix("y", theta, Dataset(y)).mean(axis=0)
    return FitReport(theta, best["ll"], best["iters"], best["converged"],
                     float(np.linalg.norm(grad)), best["floored"], best["path"])


def _theta_state(theta):
    return (theta.pi1, theta.mu1y, theta.mu2y, theta.sigy2)


def _floor_eigs(Sigma, floor):
    w, V = np.linalg.eigh(0.5 * (Sigma + Sigma.T))
    if w.min() >= floor:
        return 0.5 * (Sigma + Sigma.T), False
    w = np.maximum(w, floor)
    return (V * w) @ V.T, True


def _floor_if_needed(Sigma, floor, floor_eye):
    """Enforce min eigenvalue >= floor; Cholesky of Sigma - floor*I is the
    exact cheap test, the eigenvalue clamp runs only when it fails."""
    try:
        np.linalg.cholesky(Sigma - floor_eye)
        return Sigma, False
    except np.linalg.LinAlgError:
        out, _ = _floor_eigs(Sigma, floor)
        return out, True


def _em_b(B, init, opts):
    """Single EM run on the joint (y, a); init is (pi1, mu1, mu2, Sigma)."""
    n, q = B.shape
    pi1, mu1, mu2, Sigma = init
    ll_old, ll = -np.inf, -np.inf
    converged = False
    floored = False
    path = []
    it = 0
    floor_eye = opts.sigma_floor * np.eye(q)
    base = -0.5 * q * LOG_2PI

    def comp_logliks():
        c = np.linalg.cholesky(Sigma)
        half_logdet = np.log(np.diag(c)).sum()
        P = np.linalg.inv(Sigma)
        D1 = B - mu1
        D2 = B - mu2
        q1 = np.einsum("ij,ij->i", D1 @ P, D1)
        q2 = np.einsum("ij,ij->i", D2 @ P, D2)
        return (np.log(pi1) + base - half_logdet - 0.5 * q1,
                np.log1p(-pi1) + base - half_logdet - 0.5 * q2)

    Sigma, hit = _floor_if_needed(Sigma, opts.sigma_floor, floor_eye)
    floored = floored or hit
    for it in range(1, opts.max_iter + 1):
        l1, l2 = comp_logliks()
        mx = np.logaddexp(l1, l2)
        ll = float(mx.mean())
        path.append(ll)
        if ll - ll_old < opts.tol:
            converged = True
            break
        ll_old = ll
        r = np.exp(l1 - mx)
        n1 = r.sum()
        n2 = n - n1
        if n1 < 1e-10 or n2 < 1e-10:
            break
        pi1 = n1 / n
        mu1 = (r @ B) / n1
        mu2 = ((1.0 - r) @ B) / n2
        D1 = B - mu1
        D2 = B - mu2
        Sigma = (D1.T @ (r[:, None] * D1) + D2.T @ ((1.0 - r)[:, None] * D2)) / n
        Sigma = 0.5 * (Sigma + Sigma.T)
        Sigma, hit = _floor_if_needed(Sigma, opts.sigma_floor, floor_eye)
        floored = floored or hit
    else:
        it = opts.max_iter
    if not converged:
        l1, l2 = comp_logliks()
        ll = float(np.logaddexp(l1, l2).mean())
        path.append(ll)
    return {
        "state": (pi1, mu1, mu2, Sigma),
        "ll": ll, "iters": it, "converged": converged,
        "floored": floored, "path": np.array(path),
    }


def _inits_b(B, opts):
    # Initial means pair the 20th and 80th percentiles columnwise.  Every
    # coordinate sign pairing is a separate start (capped at the restart
    # budget, fewest flips first) because the components may move in
    # opposite directions across columns and EM rarely escapes a start
    # whose cross-column pairing is wrong.  Remaining restarts perturb
    # the pair starts.
    n, q = B.shape
    q20, q80 = np.quantile(B, [0.2, 0.8], axis=0)
    cov, _ = _floor_eigs(np.atleast_2d(np.cov(B.T, ddof=0)) / 4.0,
                         opts.sigma_floor)
    inits = []
    for r in range(q):
        for flip in combinations(range(1, q), r):
            mu1, mu2 = q20.copy(), q80.copy()
            for c in flip:
                mu1[c], mu2[c] = q80[c], q20[c]
            inits.append((0.5, mu1, mu2, cov))
            if len(inits) >= opts.restarts:
                break
        if len(inits) >= opts.restarts:
            break
    sd = B.std(axis=0)
    rng = np.random.default_rng(opts.seed)
    base = list(inits)
    k = 0
    while len(inits) < opts.restarts:
        _, mu1, mu2, Sigma = base[k % len(base)]
        k += 1
        jmu1 = mu1 + 0.5 * sd * rng.standard_normal(q)
        jmu2 = mu2 + 0.5 * sd * rng.standard_normal(q)
        jS, _ = _floor_eigs(Sigma * 4.0 * rng.uniform(0.25, 1.0),
                            opts.sigma_floor)
        inits.append((float(rng.uniform(0.25, 0.75)), jmu1, jmu2, jS))
    return inits[: max(1, opts.restarts)]


def _state_to_params(state):
    pi1, mu1, mu2, Sigma = state
    theta = PrimaryParams(float(pi1), float(mu1[0]), float(mu2[0]), float(Sigma[0, 0]))
    phi = AuxParams(mu1[1:], mu2[1:], Sigma[1:, 1:], Sigma[0, 1:])
    return FullParams(theta, phi)


def fit_em_b(data, opts=EmOptions()):
    """Maximum likelihood for the joint mixture of (y, a) by restarted EM.

    Parameters
    ----------
    data : Dataset with auxiliary columns; any z column is ignored.
    opts : EmOptions

    Returns
    -------
    FitReport with a FullParams block.  The shared covariance is kept
    positive definite by an eigenvalue floor; engaging the floor is
    flagged via ``cov_floored``.
    """
    if not data.has_a:
        raise DegenerateDataError("joint fit needs auxiliary columns")
    B = np.column_stack([data.y, data.a])
    if float(np.ptp(B, axis=0).max()) == 0.0:
        raise DegenerateDataError("all records identical; mixture fit undefined")
    best = _restarted(lambda init, o: _em_b(B, init, o), _inits_b(B, opts), opts,
                      lambda run: run["state"])
    beta = require_valid(_state_to_params(best["state"]))
    grad = score_matrix("b", beta, data).mean(axis=0)
    return FitReport(beta, best["ll"], best["iters"], best["converged"],
                     float(np.linalg.norm(grad)), best["floored"], best["path"])


def warm_fit_y(data, theta, opts):
    """Single EM run on y started from an existing primary block."""
    init = (theta.pi1, theta.mu1y, theta.mu2y, theta.sigy2)
    run = _em_y(data.y, init, opts)
    return FitReport(require_valid(run["params"]), run["ll"], run["iters"],
                     run["converged"], None, run["floored"], run["path"])


def warm_fit_b(data, beta, opts):
    """Single EM run on (y, a) started from an existing joint block."""
    init = (beta.theta.pi1, beta.component_mean(1), beta.component_mean(2),
            beta.joint_cov())
    run = _em_b(np.column_stack([data.y, data.a]), init, opts)
    params = require_valid(_state_to_params(run["state"]))
    return FitReport(params, run["ll"], run["iters"], run["converged"],
                     None, run["floored"], run["path"])


def em_step_y(data, theta, sigma_floor=SIGMA_FLOOR):
    """One EM iteration on y from theta; the fallback refit."""
    opts = EmOptions(max_iter=1, tol=-np.inf, sigma_floor=sigma_floor)
    run = _em_y(data.y, (theta.pi1, theta.mu1y, theta.mu2y, theta.sigy2), opts)
    return run["params"]


def em_step_b(data, beta, sigma_floor=SIGMA_FLOOR):
    """One EM iteration on (y, a) from beta; the fallback refit."""
    opts = EmOptions(max_iter=1, tol=-np.inf, sigma_floor=sigma_floor)
    run = _em_b(np.column_stack([data.y, data.a]),
                (beta.theta.pi1, beta.component_mean(1), beta.component_mean(2),
                 beta.joint_cov()), opts)
    return require_valid(_state_to_params(run["state"]))


def fit_complete_x(data, sigma_floor=SIGMA_FLOOR):
    """Closed-form maximum likelihood when labels z are observed."""
    if not data.has_z:
        raise DegenerateDataError("complete-data fit needs labels z")
    y, z = data.y, data.z
    n1 = int(z.sum())
    n2 = data.n - n1
    if n1 == 0 or n2 == 0:
        raise DegenerateDataError("complete-data fit needs both classes present")
    mu1 = float(y[z == 1].mean())
    mu2 = float(y[z == 0].mean())
    s2 = float(((y[z == 1] - mu1) ** 2).sum() + ((y[z == 0] - mu2) ** 2).sum()) / data.n
    floored = s2 < sigma_floor
    theta = PrimaryParams(n1 / data.n, mu1, mu2, max(s2, sigma_floor))
    ll = float(logdens_x(theta, y, z).mean())
    grad = score_matrix("x", theta, data).mean(axis=0)
    return FitReport(theta, ll, 1, True, float(np.linalg.norm(grad)), floored)
