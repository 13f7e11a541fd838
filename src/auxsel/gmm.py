"""Two-component shared-covariance Gaussian mixture: densities, scores, EM.

Three observation regimes share one parameter layout:

* ``'y'``  marginal of the primary variable (labels summed out),
* ``'b'``  joint of primary plus auxiliary variables (labels summed out),
* ``'x'``  complete data (y, z) with the label observed.

In the scores, the information and EM, 'y' is the q = 1 case of 'b'.
Scores and mean Hessians are closed form and come from one posterior
pass (:func:`_posterior`): by Louis' identity the mean Hessian is the
mean complete-data Hessian plus the label information that the records
leave out.  EM maximizes the regime 'y' and 'b' likelihoods with
restarts: every start runs EM_BURN_ITERS iterations as a lane of one
array pass, and only the best start then runs on to tolerance.  The
LOOCV fold refits (:mod:`auxsel.loocv`) run on the same engine as lanes
that each give one record weight 0; the single-start warm fits here
(:func:`warm_fit_y`, :func:`warm_fit_b`) refit one reduced sample at a
time and do not serve them.  The complete-data fit is closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .model import (
    SIGMA_FLOOR, D_THETA, AuxParams, Dataset, DegenerateDataError, FullParams,
    InvalidParamsError, NumericalError, PrimaryParams, flat_dim, require_valid,
)

LOG_2PI = np.log(2.0 * np.pi)

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


# ---------------------------------------------------------------------------
# analytic scores and information (one posterior pass)
# ---------------------------------------------------------------------------

def _block(params, joint):
    """(pi1, component means (2, q), covariance (q, q)) of a parameter
    block, joint or primary; the primary block is q = 1."""
    if joint:
        return (params.theta.pi1, np.array([params.component_mean(1),
                                            params.component_mean(2)]), params.joint_cov())
    t = _theta_of(params)
    return t.pi1, np.array([[t.mu1y], [t.mu2y]]), np.array([[t.sigy2]])


@lru_cache(maxsize=None)
def _flat_order(q):
    """Covariance entries (a, b) in flat order, the factor 1/2 (diagonal)
    or 1 (off-diagonal) of each, and the column order that moves a
    derivative from (pi1, mu1, mu2, entries) into the flat layout."""
    m = q - 1
    i, j = np.tril_indices(m)
    a = np.r_[0, 1 + i, 1 + np.arange(m)]
    b = np.r_[0, 1 + j, np.zeros(m, dtype=int)]
    k = np.arange(m)
    flat = np.r_[0, 1, 4 + k, 2, 4 + m + k, 3, 4 + 2 * m + np.arange(a.size - 1)]
    return a, b, np.where(a == b, 0.5, 1.0), np.argsort(flat)


def _entry_trace(A, Bm, a, b, half):
    """tr(E_ab A E_cd Bm) over covariance entries (a, b) x (c, d), for
    symmetric A and Bm, where E_ab is the derivative of Sigma by entry (a, b)."""
    ia, ib, ja, jb = a[:, None], b[:, None], a[None], b[None]
    return np.outer(half, half) * (A[ib, ja] * Bm[jb, ia] + A[ib, jb] * Bm[ja, ia]
                                   + A[ia, ja] * Bm[jb, ib] + A[ia, jb] * Bm[ja, ib])


def _posterior(params, B, r=None):
    """Scores and mean Hessian of a block on records B (n, q) in one pass.

    A FullParams block has q = 1 + m and a PrimaryParams block q = 1;
    either way the flat layout orders the columns.  ``r`` holds the
    component-1 weights: None takes the posterior given the records (the
    observed-data regimes 'b' and 'y'), the labels z give the complete
    data.  With g_k the complete-data score of component k, Louis'
    identity (Louis 1982, JRSS-B 44:226) gives the mean Hessian as H_Q + C,
    where C = mean r1 r2 (g1 - g2)(g1 - g2)' is the label information
    beyond the records and H_Q the mean r-weighted complete-data Hessian.
    With P = Sigma^-1, u_k = P (x - mu_k), nbar_k = mean r_k and E_ab the
    derivative of Sigma by its entry (a, b), H_Q is
    -(nbar_1 / pi1^2 + nbar_2 / (1 - pi1)^2) for pi1, -nbar_k P for mu_k,
    -P E_ab mean(r_k u_k) for (mu_k, Sigma_ab), and
    tr(P E_ab P E_cd) / 2 - tr(E_ab P E_cd mean(sum_k r_k u_k u_k'))
    for (Sigma_ab, Sigma_cd); every other block is zero.

    Returns r (n,), the per-record scores S = r g1 + (1 - r) g2 (n, p),
    H_Q + C symmetrized (p, p) and C (p, p).  Raises NumericalError
    naming the first record whose score is not finite, or when the
    Hessian is not.
    """
    pi1, mu, Sigma = _block(params, isinstance(params, FullParams))
    n, q = B.shape
    a, b, half, order = _flat_order(q)
    P = _inv_logdet(Sigma[None])[0][0]
    # overflow is caught by the finiteness checks below, keep it silent
    with np.errstate(over="ignore", invalid="ignore"):
        V = B[None] - mu[:, None]
        U = V @ P                                           # P (x - mu_k), (2, n, q)
        if r is None:
            l = np.log([[pi1], [1.0 - pi1]]) - 0.5 * (V * U).sum(axis=-1)
            r = np.exp(l[0] - np.logaddexp(l[0], l[1]))
        R = np.array([r, 1.0 - r])[..., None]
        G = half * (U[..., a] * U[..., b] - P[a, b])        # Sigma-entry part of g_k
        RU = R * U
        S = np.concatenate([R[0] / pi1 - R[1] / (1.0 - pi1), RU[0], RU[1],
                            R[0] * G[0] + R[1] * G[1]], axis=1)
        D = np.concatenate([np.full((n, 1), 1.0 / pi1 + 1.0 / (1.0 - pi1)),
                            U[0], -U[1], G[0] - G[1]], axis=1)
        C = D.T @ ((r * (1.0 - r))[:, None] * D) / n
        nk, ubar = R.mean(axis=1)[:, 0], RU.mean(axis=1)
        H = C.copy()
        H[0, 0] -= nk[0] / pi1 ** 2 + nk[1] / (1.0 - pi1) ** 2
        sig = slice(1 + 2 * q, None)
        for k in range(2):
            mk = slice(1 + k * q, 1 + (k + 1) * q)
            H[mk, mk] -= nk[k] * P
            cross = half * (P[:, a] * ubar[k, b] + P[:, b] * ubar[k, a])
            H[mk, sig] -= cross
            H[sig, mk] -= cross.T
        H[sig, sig] += _entry_trace(P, 0.5 * P - (RU[0].T @ U[0] + RU[1].T @ U[1]) / n,
                                    a, b, half)
    bad = ~np.all(np.isfinite(S), axis=1)
    if np.any(bad):
        raise NumericalError(f"non-finite derivative at record {int(np.flatnonzero(bad)[0])}")
    if not np.all(np.isfinite(H)):
        raise NumericalError("non-finite second derivative")
    return r, S[:, order], (0.5 * (H + H.T))[np.ix_(order, order)], C[np.ix_(order, order)]


def _records(params, data):
    """The (y, a) records of ``data`` for the joint block ``params``."""
    if not isinstance(params, FullParams):
        raise InvalidParamsError("regime 'b' needs a FullParams block")
    if not data.has_a or data.m != params.m:
        raise DegenerateDataError("regime 'b' needs matching auxiliary columns")
    return np.column_stack([data.y, data.a])


def score_matrix(regime, params, data):
    """Per-record score vectors, shape (n, p), in the flat layout.

    Regimes 'y' and 'x' depend on the primary block only; with a
    FullParams argument their auxiliary columns are exactly zero.
    Raises NumericalError naming the first record whose score is not
    finite.
    """
    require_valid(params)
    if regime == "b":
        return _posterior(params, _records(params, data))[1]
    if regime not in ("y", "x"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "x" and not data.has_z:
        raise DegenerateDataError("regime 'x' needs observed labels z")
    z = data.z.astype(float) if regime == "x" else None
    S = _posterior(_theta_of(params), data.y[:, None], z)[1]
    if isinstance(params, FullParams):
        S = np.pad(S, ((0, 0), (0, flat_dim(params.m) - D_THETA)))
    return S


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
    fits (:func:`warm_fit_y`, :func:`warm_fit_b`) leave it None and
    build no score matrix.  They are a single-start refit of one
    sample; the LOOCV fold refits no longer go through them.
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


def _em(Phi, lanes, opts, W=None):
    """EM on a stack of lanes.  A lane stops when its per-observation
    log-likelihood increment falls below ``opts.tol`` (converged), when a
    component's weight falls below 1e-10 (dead, state kept), or after
    ``opts.max_iter`` iterations, and then leaves the stack; a lane that
    did not converge has its log likelihood evaluated at its final state.

    ``W``, an optional (L, n) matrix of record weights, weights every sum
    over records in lane j by row j, and the row sum takes the place of
    n: a lane with a 0/1 row runs EM on the records it keeps."""
    w, mu, S = lanes
    n, L = Phi.shape[1], w.shape[1]
    if W is not None:
        n = W.sum(axis=1)
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
        r = np.exp(l[0] - mx)
        if W is None:
            ll = mx.sum(axis=1) / n
            T = np.concatenate([r, 1.0 - r]) @ Phi.T
        else:
            ll = (W * mx).sum(axis=1) / n
            T = np.concatenate([W * r, W * (1.0 - r)]) @ Phi.T
        run["path"][it - 1, idx] = ll
        T = T.reshape(2, idx.size, -1)
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
            if W is not None:
                W, n = W[~stop], n[~stop]
        ll_old = ll
        w = nk / n
        S1 = T[..., iu.size:-1]
        mu = S1 / nk[..., None]
        S2 = T[..., :iu.size] - S1[..., iu] * mu[..., ju]
        S2 = (S2[0] + S2[1]) / (n if W is None else n[:, None])
        S, hit = _floor_lanes(S2[:, vidx], opts.sigma_floor)
        run["floored"][idx] |= hit
    l = _comp_logliks(Phi, w, mu, S)
    mx = np.logaddexp(l[0], l[1])
    run["ll"][idx] = (mx if W is None else W * mx).sum(axis=1) / n
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
    m, _, Phi = _features(np.column_stack([data.y, data.a]) if joint else data.y[:, None])
    pi1, mu, S = _block(params, joint)
    return _report(_fit(Phi, [(pi1, mu[0] - m, mu[1] - m, S)], opts), m, joint)


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
