"""Two-component shared-covariance Gaussian mixture: densities, scores, EM.

Three observation regimes share one parameter layout:

* ``'y'``  marginal of the primary variable (labels summed out),
* ``'b'``  joint of primary plus auxiliary variables (labels summed out),
* ``'x'``  complete data (y, z) with the label observed.

Scores are analytic; Hessians are central finite differences of the
analytic score so that second derivatives never depend on a hand-derived
Hessian.  EM maximizes the regime 'y' and 'b' likelihoods with restarts:
every start runs EM_BURN_ITERS iterations as a lane of one array pass,
and only the best start then runs on to tolerance.  'y' is the q = 1
case of the same engine.  The complete-data fit is closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
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


def _inits_b(B, opts):
    # Initial means pair the 20th and 80th percentiles columnwise.  Every
    # coordinate sign pairing is a separate start (capped at the restart
    # budget, fewest flips first) because the components may move in
    # opposite directions across columns and EM rarely escapes a start
    # whose cross-column pairing is wrong.  Remaining restarts perturb
    # the pair starts.
    n, q = B.shape
    q20, q80 = np.quantile(B, [0.2, 0.8], axis=0)
    cov = _floor_lanes(np.cov(B.T, ddof=0).reshape(1, q, q) / 4.0, opts.sigma_floor)[0][0]
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
        jS = _floor_lanes(Sigma[None] * 4.0 * rng.uniform(0.25, 1.0),
                          opts.sigma_floor)[0][0]
        inits.append((float(rng.uniform(0.25, 0.75)), jmu1, jmu2, jS))
    return inits[: max(1, opts.restarts)]


# The EM engine.  A lane is one EM run: component weights w (2,), means mu
# (2, q) and shared covariance S (q, q); a stack of L lanes holds them as
# (2, L), (2, L, q) and (L, q, q).  The engine works on records centred at
# their column means, through the feature rows Phi = [vech(xx'), x, 1]:
# each component log density is linear in Phi and each sufficient
# statistic a weighted sum of its columns, so one matrix product serves
# the E-step of all lanes and one the M-step.  Centring keeps
# S2 - n_k mu mu' from cancelling when the data sit far from the origin.

@lru_cache(maxsize=None)
def _layout(q):
    """Rows and columns of the vech(xx') features, their weights in -x'Px/2
    and the feature index of each (i, j)."""
    iu, ju = np.triu_indices(q)
    vidx = np.empty((q, q), dtype=int)
    vidx[iu, ju] = vidx[ju, iu] = np.arange(iu.size)
    return iu, ju, np.where(iu == ju, -0.5, -1.0), vidx


def _features(B):
    """Column means m of B, the centred records X and their feature rows."""
    m = B.sum(axis=0) / B.shape[0]
    X = B - m
    iu, ju, _, _ = _layout(B.shape[1])
    return m, X, np.concatenate([X.T[iu] * X.T[ju], X.T, np.ones((1, X.shape[0]))])


_ADJ2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _inv_logdet(S):
    if S.shape[-1] == 1:
        return 1.0 / S, np.log(S[:, 0, 0])
    if S.shape[-1] == 2:
        det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] ** 2
        return S[:, ::-1, ::-1] * _ADJ2 / det[:, None, None], np.log(det)
    return np.linalg.inv(S), np.linalg.slogdet(S)[1]


def _floor_lanes(S, floor):
    """Clamp covariance eigenvalues at ``floor``; also says which lanes."""
    if S.shape[-1] == 1:
        low = S[:, 0, 0] < floor
    elif S.shape[-1] == 2:
        a, b, c = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
        low = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b) < floor
    else:
        low = np.linalg.eigvalsh(S)[:, 0] < floor
    if low.any():
        w, V = np.linalg.eigh(S[low])
        S = S.copy()
        S[low] = (V * np.maximum(w, floor)[:, None, :]) @ V.transpose(0, 2, 1)
    return S, low


def _comp_logliks(Phi, w, mu, S):
    """log weight + log density of each component, lane and record (2, L, n)."""
    iu, ju, coef, _ = _layout(S.shape[-1])
    P, logdet = _inv_logdet(S)
    Pmu = (P @ mu[..., None])[..., 0]
    C = np.empty(w.shape + (Phi.shape[0],))
    C[..., :iu.size] = P[:, iu, ju] * coef
    C[..., iu.size:-1] = Pmu
    C[..., -1] = np.log(w) - 0.5 * (S.shape[-1] * LOG_2PI + logdet
                                    + (mu * Pmu).sum(axis=-1))
    return (C.reshape(-1, Phi.shape[0]) @ Phi).reshape(w.shape + (-1,))


def _em(Phi, lanes, opts):
    """EM on a stack of lanes.  A lane stops when its per-observation
    log-likelihood increment falls below ``opts.tol`` (converged), when a
    component's weight falls below 1e-10 (dead, state kept), or after
    ``opts.max_iter`` iterations, and then leaves the stack; a lane that
    did not converge has its log likelihood evaluated at its final state."""
    w, mu, S = lanes
    n, L = Phi.shape[1], w.shape[1]
    iu, ju, _, vidx = _layout(S.shape[-1])
    S, floored = _floor_lanes(S, opts.sigma_floor)
    run = {"w": w.copy(), "mu": mu.copy(), "S": S.copy(), "ll": np.empty(L),
           "iters": np.full(L, opts.max_iter), "converged": np.zeros(L, dtype=bool),
           "floored": floored, "path": np.empty((opts.max_iter + 1, L))}
    idx = np.arange(L)
    ll_old = np.full(L, -np.inf)
    for it in range(1, opts.max_iter + 1):
        l = _comp_logliks(Phi, w, mu, S)
        mx = np.logaddexp(l[0], l[1])
        ll = mx.sum(axis=1) / n
        run["path"][it - 1, idx] = ll
        r = np.exp(l[0] - mx)
        T = (np.concatenate([r, 1.0 - r]) @ Phi.T).reshape(2, idx.size, -1)
        nk = T[..., -1]
        conv = ll - ll_old < opts.tol
        stop = conv | (np.minimum(nk[0], nk[1]) < 1e-10)
        if stop.any():
            k = idx[stop]
            run["iters"][k], run["converged"][k], run["ll"][k] = it, conv[stop], ll[stop]
            run["w"][:, k], run["mu"][:, k], run["S"][k] = w[:, stop], mu[:, stop], S[stop]
            if stop.all():
                return run
            idx, ll, T, nk = idx[~stop], ll[~stop], T[:, ~stop], nk[:, ~stop]
        ll_old = ll
        w = nk / n
        S1 = T[..., iu.size:-1]
        mu = S1 / nk[..., None]
        S2 = T[..., :iu.size] - S1[..., iu] * mu[..., ju]
        S, hit = _floor_lanes(((S2[0] + S2[1]) / n)[:, vidx], opts.sigma_floor)
        run["floored"][idx] |= hit
    l = _comp_logliks(Phi, w, mu, S)
    run["ll"][idx] = np.logaddexp(l[0], l[1]).sum(axis=1) / n
    run["w"][:, idx], run["mu"][:, idx], run["S"][idx] = w, mu, S
    return run


def _lane(run, k):
    """Lane k of a run; an unconverged path ends with the re-evaluated value."""
    it, conv = int(run["iters"][k]), bool(run["converged"][k])
    return {"w": run["w"][:, k], "mu": run["mu"][:, k], "S": run["S"][k],
            "ll": float(run["ll"][k]), "iters": it, "converged": conv,
            "floored": bool(run["floored"][k]),
            "path": np.append(run["path"][:it, k], [] if conv else run["ll"][k])}


def _winner(ll):
    """The first lane with the strictly greatest log likelihood; NaN never
    wins unless every lane is NaN or -inf, and then lane 0 does."""
    return int(np.argmax(np.fmax(ll, -np.inf)))


def _fit(Phi, starts, opts):
    """Restarted EM from (pi1, mu1, mu2, Sigma) starts: each runs
    ``EM_BURN_ITERS`` iterations as a lane of one pass, then the winner
    runs on alone with a fresh convergence test (which its first
    iteration cannot pass).  Iterations count both parts."""
    pi1, mu1, mu2, S = (np.array(v, dtype=float) for v in zip(*starts))
    mu = np.array([mu1, mu2]).reshape(2, pi1.size, -1)
    lanes = (np.array([pi1, 1.0 - pi1]), mu, S.reshape(pi1.size, mu.shape[-1], -1))
    if pi1.size == 1:
        return _lane(_em(Phi, lanes, opts), 0)
    burn = _em(Phi, lanes, replace(opts, max_iter=min(EM_BURN_ITERS, opts.max_iter)))
    best = _lane(burn, _winner(burn["ll"]))
    if best["converged"]:
        return best
    tail = _lane(_em(Phi, (best["w"][:, None], best["mu"][:, None], best["S"][None]),
                     opts), 0)
    tail["iters"] += best["iters"]
    tail["floored"] |= best["floored"]
    tail["path"] = np.concatenate([best["path"], tail["path"][1:]])
    return tail


def _report(lane, m, joint, scored=None):
    """FitReport of a lane with its means moved back by m; ``grad_norm``
    is the norm of the mean score on ``scored`` when that is given."""
    mu, S = lane["mu"] + m, lane["S"]
    params = PrimaryParams(float(lane["w"][0]), float(mu[0, 0]), float(mu[1, 0]),
                           float(S[0, 0]))
    if joint:
        params = FullParams(params, AuxParams(mu[0, 1:], mu[1, 1:], S[1:, 1:], S[0, 1:]))
    # score_matrix validates the parameters itself
    norm = None if scored is None else float(np.linalg.norm(
        score_matrix("b" if joint else "y", params, scored).mean(axis=0)))
    return FitReport(params if scored is not None else require_valid(params), lane["ll"],
                     lane["iters"], lane["converged"], norm, lane["floored"], lane["path"])


def fit_em_y(data, opts=EmOptions()):
    """Maximum likelihood for the marginal mixture of y by restarted EM."""
    y = data.y
    if np.ptp(y) == 0.0:
        raise DegenerateDataError("all y values identical; mixture fit undefined")
    m, X, Phi = _features(y[:, None])
    return _report(_fit(Phi, _inits_y(X[:, 0], opts), opts), m, False, Dataset(y))


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
    m, X, Phi = _features(B)
    return _report(_fit(Phi, _inits_b(X, opts), opts), m, True, data)


def _warm(data, params, opts, joint):
    """Single EM run started from an existing parameter block."""
    if joint:
        m, _, Phi = _features(np.column_stack([data.y, data.a]))
        start = (params.theta.pi1, params.component_mean(1) - m,
                 params.component_mean(2) - m, params.joint_cov())
    else:
        theta = _theta_of(params)
        m, _, Phi = _features(data.y[:, None])
        start = (theta.pi1, theta.mu1y - m, theta.mu2y - m, theta.sigy2)
    return _report(_fit(Phi, [start], opts), m, joint)


def warm_fit_y(data, theta, opts):
    """Single EM run on y started from an existing primary block."""
    return _warm(data, theta, opts, joint=False)


def warm_fit_b(data, beta, opts):
    """Single EM run on (y, a) started from an existing joint block."""
    return _warm(data, beta, opts, joint=True)


def em_step_y(data, theta, sigma_floor=SIGMA_FLOOR):
    """One EM iteration on y from theta; the fallback refit."""
    opts = EmOptions(max_iter=1, tol=-np.inf, sigma_floor=sigma_floor)
    return _warm(data, theta, opts, joint=False).params


def em_step_b(data, beta, sigma_floor=SIGMA_FLOOR):
    """One EM iteration on (y, a) from beta; the fallback refit."""
    opts = EmOptions(max_iter=1, tol=-np.inf, sigma_floor=sigma_floor)
    return _warm(data, beta, opts, joint=True).params


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
