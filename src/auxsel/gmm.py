"""Two-component shared-covariance Gaussian mixture: densities, scores, EM.

Three observation regimes share one parameter layout:

* ``'y'``  marginal of the primary variable (labels summed out),
* ``'b'``  joint of primary plus auxiliary variables (labels summed out),
* ``'x'``  complete data (y, z) with the label observed.

In the scores, the information and EM, 'y' is the q = 1 case of 'b'.
Scores and mean Hessians are closed form and come from one posterior
pass (:func:`_posterior`): by Louis' identity the mean Hessian is the
mean complete-data Hessian plus the label information that the records
leave out.  The pass works on a stack of G blocks of equal n and q, so
the information matrices of a group of fits (:mod:`auxsel.infomat`) and
the gradient norms of a grouped EM fit each take one pass; a block
whose values are not finite fails alone.  EM maximizes the regime 'y'
and 'b' likelihoods with restarts from one start routine (:func:`_inits`,
with 'y' again the q = 1 case): every start runs EM_BURN_ITERS
iterations as a lane of one array pass, and only the best start then
runs on to tolerance.

Several datasets of equal n and q run as the groups of one pass
(:func:`fit_em_groups`; a pass holds at most GROUP_PASS_CELLS lanes x
records, which bounds its memory): each lane works on its own group's
feature rows, each group's best start is picked among its own lanes,
and the best starts that have not converged run on together, one lane
per group.  :func:`fit_em_b` and :func:`fit_em_y` are the one-group case,
which runs 2-D products on the shared feature rows.  The wine study
groups a split's single-column candidates and the replicate engine a
block of consecutive replicates: these fit small samples, where
per-call overhead, not arithmetic, sets the time.  ``auxsel select``
stays ungrouped; at thousands of records its fits are bound by
arithmetic, and stacked feature rows would only add memory.  Restarted
fits report their components in a canonical order (mu_1y <= mu_2y).

The LOOCV fold refits (:mod:`auxsel.loocv`) run on the same engine as
lanes that each give one record weight 0.  The single-start warm fits
here (:func:`warm_fit_y`, :func:`warm_fit_b`) refit one reduced sample
at a time; run for one iteration, they are the step a fold falls back
to when its lane fails.  The complete-data fit is closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .model import (
    SIGMA_FLOOR, D_THETA, AuxParams, AuxselError, DegenerateDataError, FullParams,
    InvalidParamsError, NumericalError, PrimaryParams, flat_dim, require_valid,
)

LOG_2PI = np.log(2.0 * np.pi)

EM_BURN_ITERS = 25   # short-run length used to rank restarts before the full run

GROUP_PASS_CELLS = 2 ** 13   # lanes x records of one grouped EM pass (bounds its memory)


# ---------------------------------------------------------------------------
# log densities and responsibilities
# ---------------------------------------------------------------------------

def _norm_logpdf(y, mean, var):
    return -0.5 * (LOG_2PI + np.log(var) + (y - mean) ** 2 / var)


def _chol(S):
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NumericalError("joint covariance not positive definite") from None


def _mvn_logpdf(B, mean, L):
    """Gaussian log density of rows of B given a Cholesky factor L."""
    u = np.linalg.solve(L, (B - mean).T)
    quad = np.einsum("ij,ij->j", u, u)
    return -0.5 * (B.shape[1] * LOG_2PI + quad) - np.log(np.diag(L)).sum()


def _comp_logliks_y(theta, y):
    l1 = np.log(theta.pi1) + _norm_logpdf(y, theta.mu1y, theta.sigy2)
    l2 = np.log1p(-theta.pi1) + _norm_logpdf(y, theta.mu2y, theta.sigy2)
    return l1, l2


def logdens_y(params, y):
    """log p_y(y): the two-component marginal of the primary variable."""
    theta = params.theta
    require_valid(theta)
    l1, l2 = _comp_logliks_y(theta, np.asarray(y, dtype=float))
    return np.logaddexp(l1, l2)


def logdens_x(params, y, z):
    """log p_x(y, z): complete-data density with the label observed."""
    theta = params.theta
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
    theta = params.theta
    require_valid(theta)
    l1, l2 = _comp_logliks_y(theta, np.asarray(y, dtype=float))
    return np.exp(l1 - np.logaddexp(l1, l2))


# ---------------------------------------------------------------------------
# analytic scores and information (one posterior pass)
# ---------------------------------------------------------------------------

def _block(params):
    """(pi1, component means (2, q), covariance (q, q)) of a parameter
    block; a FullParams block is q = 1 + m, a PrimaryParams one q = 1."""
    if isinstance(params, FullParams):
        return (params.theta.pi1, np.array([params.component_mean(1),
                                            params.component_mean(2)]), params.joint_cov())
    return params.pi1, np.array([[params.mu1y], [params.mu2y]]), np.array([[params.sigy2]])


def _blocks(params):
    """Blocks of :func:`_block` stacked for G parameter blocks of equal q:
    pi1 (G,), component means (G, 2, q) and covariances (G, q, q)."""
    pi1, mu, Sigma = zip(*(_block(b) for b in params))
    return np.array(pi1), np.array(mu), np.array(Sigma)


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
    stacks of symmetric A and Bm, where E_ab is the derivative of Sigma by
    entry (a, b)."""
    ia, ib, ja, jb = a[:, None], b[:, None], a[None], b[None]
    return np.outer(half, half) * (A[:, ib, ja] * Bm[:, jb, ia] + A[:, ib, jb] * Bm[:, ja, ia]
                                   + A[:, ia, ja] * Bm[:, jb, ib] + A[:, ia, jb] * Bm[:, ja, ib])


def _scores(pi1, mu, Sigma, B, r=None):
    """Per-record scores of G blocks on their records, and the pieces of
    them that the mean Hessian reuses.

    The blocks come stacked as from :func:`_blocks`, the records B as
    (G, n, q) and ``r`` as in :func:`_posterior`.  Returns P = Sigma^-1
    (G, q, q), r (G, n), R = (r, 1 - r) (G, 2, n, 1), U = P (x - mu_k)
    (G, 2, n, q), R U, the Sigma-entry parts E (G, 2, n, e) of g_1 and
    g_2, the scores S = r g1 + (1 - r) g2 (G, n, p) in (pi1, mu1, mu2,
    entries) order, and per group None or the NumericalError naming its
    first record whose score is not finite.
    """
    a, b, half, _ = _flat_order(B.shape[-1])
    P = _inv_logdet(Sigma)[0]
    p1 = pi1[:, None, None]
    # overflow is caught by the finiteness checks, keep it silent
    with np.errstate(over="ignore", invalid="ignore"):
        V = B[:, None] - mu[:, :, None]
        U = V @ P[:, None]
        if r is None:
            l = np.log(np.stack([pi1, 1.0 - pi1], axis=1))[..., None] - 0.5 * (V * U).sum(axis=-1)
            r = np.exp(l[:, 0] - np.logaddexp(l[:, 0], l[:, 1]))
        R = np.stack([r, 1.0 - r], axis=1)[..., None]
        E = half * (U[..., a] * U[..., b] - P[:, a, b][:, None, None])
        RU = R * U
        S = np.concatenate([R[:, 0] / p1 - R[:, 1] / (1.0 - p1), RU[:, 0], RU[:, 1],
                            R[:, 0] * E[:, 0] + R[:, 1] * E[:, 1]], axis=-1)
    errs = [NumericalError(f"non-finite derivative at record {int(np.flatnonzero(bad)[0])}")
            if bad.any() else None for bad in ~np.isfinite(S).all(axis=-1)]
    return P, r, R, U, RU, E, S, errs


def _posterior(pi1, mu, Sigma, B, r=None):
    """Scores and mean Hessians of G blocks on their records in one pass.

    The blocks come stacked as from :func:`_blocks` (q = 1 + m for
    FullParams blocks, q = 1 for PrimaryParams ones) with records B
    (G, n, q); the flat layout orders the columns.  ``r`` (G, n) holds
    the component-1 weights: None takes the posterior given the records
    (the observed-data regimes 'b' and 'y'), the labels z give the
    complete data.  With g_k the complete-data score of component k,
    Louis' identity (Louis 1982, JRSS-B 44:226) gives the mean Hessian
    as H_Q + C, where C = mean r1 r2 (g1 - g2)(g1 - g2)' is the label
    information beyond the records and H_Q the mean r-weighted
    complete-data Hessian.  With P = Sigma^-1, u_k = P (x - mu_k), nbar_k
    = mean r_k and E_ab the derivative of Sigma by its entry (a, b), H_Q
    is -(nbar_1 / pi1^2 + nbar_2 / (1 - pi1)^2) for pi1, -nbar_k P for
    mu_k, -P E_ab mean(r_k u_k) for (mu_k, Sigma_ab), and
    tr(P E_ab P E_cd) / 2 - tr(E_ab P E_cd mean(sum_k r_k u_k u_k'))
    for (Sigma_ab, Sigma_cd); every other block is zero.

    Returns r (G, n), the per-record scores S = r g1 + (1 - r) g2
    (G, n, p), H_Q + C symmetrized (G, p, p), C (G, p, p) and per group
    None or its NumericalError: the first record whose score is not
    finite, else a Hessian that is not.  A failed group leaves the
    values of the others as they are.
    """
    P, r, R, U, RU, E, S, errs = _scores(pi1, mu, Sigma, B, r)
    n, q = B.shape[-2:]
    a, b, half, order = _flat_order(q)
    with np.errstate(over="ignore", invalid="ignore"):
        D = np.empty(S.shape)
        D[..., 0] = (1.0 / pi1 + 1.0 / (1.0 - pi1))[:, None]
        D[..., 1:1 + q], D[..., 1 + q:1 + 2 * q] = U[:, 0], -U[:, 1]
        D[..., 1 + 2 * q:] = E[:, 0] - E[:, 1]
        C = D.transpose(0, 2, 1) @ ((r * (1.0 - r))[..., None] * D) / n
        nk, ubar = R.mean(axis=2)[..., 0], RU.mean(axis=2)
        H = C.copy()
        H[:, 0, 0] -= nk[:, 0] / pi1 ** 2 + nk[:, 1] / (1.0 - pi1) ** 2
        sig = slice(1 + 2 * q, None)
        for k in range(2):
            mk = slice(1 + k * q, 1 + (k + 1) * q)
            H[:, mk, mk] -= nk[:, k, None, None] * P
            uk = ubar[:, k]
            cross = half * (P[:, :, a] * uk[:, b][:, None] + P[:, :, b] * uk[:, a][:, None])
            H[:, mk, sig] -= cross
            H[:, sig, mk] -= cross.transpose(0, 2, 1)
        Q = (RU[:, 0].transpose(0, 2, 1) @ U[:, 0] + RU[:, 1].transpose(0, 2, 1) @ U[:, 1]) / n
        H[:, sig, sig] += _entry_trace(P, 0.5 * P - Q, a, b, half)
    for g in np.flatnonzero(~np.isfinite(H).all(axis=(1, 2))):
        errs[g] = errs[g] or NumericalError("non-finite second derivative")
    H = 0.5 * (H + H.transpose(0, 2, 1))
    ix = (slice(None), order[:, None], order)
    return r, S[..., order], H[ix], C[ix], errs


def _records(data, m):
    """The records (y, a) of ``data`` for a block with m auxiliary
    columns, shaped (n, 1 + m); m = 0 takes y alone."""
    if m == 0:
        return data.y[:, None]
    if data.m != m:
        raise DegenerateDataError(f"a block with {m} auxiliary columns needs as many in the data")
    return np.column_stack([data.y, data.a])


def score_matrix(regime, params, data):
    """Per-record score vectors, shape (n, p), in the flat layout.

    Regimes 'y' and 'x' depend on the primary block only; with a
    FullParams argument their auxiliary columns are exactly zero.
    Raises NumericalError naming the first record whose score is not
    finite.
    """
    require_valid(params)
    if regime not in ("b", "y", "x"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "x" and not data.has_z:
        raise DegenerateDataError("regime 'x' needs observed labels z")
    if regime == "b" and not isinstance(params, FullParams):
        raise InvalidParamsError("regime 'b' needs a FullParams block")
    pi1, mu, Sigma = _blocks([params if regime == "b" else params.theta])
    z = data.z[None].astype(float) if regime == "x" else None
    _, S, _, _, errs = _posterior(pi1, mu, Sigma, _records(data, Sigma.shape[-1] - 1)[None], z)
    if errs[0] is not None:
        raise errs[0]
    S = S[0]
    if isinstance(params, FullParams) and regime != "b":
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


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: parameters plus convergence diagnostics.

    ``grad_norm`` is the norm of the mean score at ``params`` for the
    restarted fits.  The warm fits (:func:`warm_fit_y`,
    :func:`warm_fit_b`) and the closed-form :func:`fit_complete_x` leave
    it None and build no score matrix: at a closed-form maximum the mean
    score is zero unless the variance was floored.
    """

    params: object
    loglik_per_obs: float
    iterations: int
    converged: bool
    grad_norm: float | None
    cov_floored: bool = False
    loglik_path: np.ndarray | None = None


def _inits(B, opts):
    """The (pi1, mu1, mu2, Sigma) starts of a restarted fit on records B
    (n, q); y alone is q = 1.

    Initial means pair the 20th and 80th percentiles columnwise.  Every
    coordinate sign pairing is a separate start (capped at the restart
    budget, fewest flips first) because the components may move in
    opposite directions across columns and EM rarely escapes a start
    whose cross-column pairing is wrong; q = 1 has the one pairing.
    Remaining restarts perturb the pair starts in turn: both means by
    seeded noise, the covariance by a random scale, and pi1.
    """
    n, q = B.shape
    q20, q80 = np.quantile(B, [0.2, 0.8], axis=0)
    cov = _floor_lanes(np.cov(B.T, ddof=0).reshape(1, q, q) / 4.0, SIGMA_FLOOR)[0][0]
    flips = islice(chain.from_iterable(combinations(range(1, q), r) for r in range(q)),
                   max(1, opts.restarts))
    pairs = []
    for flip in map(list, flips):
        mu1, mu2 = q20.copy(), q80.copy()
        mu1[flip], mu2[flip] = q80[flip], q20[flip]
        pairs.append((mu1, mu2))
    sd = B.std(axis=0)
    rng = np.random.default_rng(opts.seed)
    jumps, scale, pi1 = [], [], []
    for k in range(opts.restarts - len(pairs)):
        mu1, mu2 = pairs[k % len(pairs)]
        jumps.append((mu1 + 0.5 * sd * rng.standard_normal(q),
                      mu2 + 0.5 * sd * rng.standard_normal(q)))
        scale.append(rng.uniform(0.25, 1.0))
        pi1.append(float(rng.uniform(0.25, 0.75)))
    covs = _floor_lanes(cov[None] * 4.0 * np.array(scale).reshape(-1, 1, 1), SIGMA_FLOOR)[0]
    return ([(0.5, mu1, mu2, cov) for mu1, mu2 in pairs]
            + [(p, mu1, mu2, S) for p, (mu1, mu2), S in zip(pi1, jumps, covs)])


# The EM engine.  A lane is one EM run: component weights w (2,), means mu
# (2, q) and shared covariance S (q, q); a stack of L lanes holds them as
# (2, L), (2, L, q) and (L, q, q).  The engine works on records centred at
# their column means, through the feature rows Phi = [vech(xx'), x, 1]:
# each component log density is linear in Phi and each sufficient
# statistic a weighted sum of its columns, so one matrix product serves
# the E-step of all lanes and one the M-step.  Centring keeps
# S2 - n_k mu mu' from cancelling when the data sit far from the origin.
# A group is one dataset.  Lanes of several groups of equal q and n run
# in one pass over the (G, F, n) stack of their feature rows, each lane
# on its own group's block, and the products are batched over lanes;
# lanes of a single group share its (F, n) block and take 2-D products.

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


def _comp_logliks(X, w, mu, S):
    """log weight + log density of each component, lane and record (2, L, n).

    X is the (F, n) block of feature rows that every lane shares, or an
    (L, F, n) stack with one block per lane."""
    iu, ju, coef, _ = _layout(S.shape[-1])
    P, logdet = _inv_logdet(S)
    Pmu = (P @ mu[..., None])[..., 0]
    C = np.empty(w.shape + (X.shape[-2],))
    C[..., :iu.size] = P[:, iu, ju] * coef
    C[..., iu.size:-1] = Pmu
    C[..., -1] = np.log(w) - 0.5 * (S.shape[-1] * LOG_2PI + logdet
                                    + (mu * Pmu).sum(axis=-1))
    if X.ndim == 2:
        return (C.reshape(-1, X.shape[0]) @ X).reshape(w.shape + (-1,))
    return (C.transpose(1, 0, 2) @ X).transpose(1, 0, 2)


def _em(Phi, lanes, opts, W=None, group=None):
    """EM on a stack of lanes.  A lane stops when its per-observation
    log-likelihood increment falls below ``opts.tol`` (converged), when a
    component's weight falls below 1e-10 (dead, state kept), or after
    ``opts.max_iter`` iterations, and then leaves the stack; a lane that
    did not converge has its log likelihood evaluated at its final state.

    Without ``group``, Phi is one (F, n) block of feature rows that every
    lane shares.  ``group``, an (L,) index, runs lane j on the block
    Phi[group[j]] of a (G, F, n) stack instead; when every lane is of
    one group, they share its block as if it came alone.

    ``W``, an optional (L, n) matrix of record weights, weights every sum
    over records in lane j by row j, and the row sum takes the place of
    n: a lane with a 0/1 row runs EM on the records it keeps."""
    w, mu, S = lanes
    X = Phi if group is None else Phi[group[0] if (group == group[0]).all() else group]
    n, L = X.shape[-1], w.shape[1]
    if W is not None:
        n = W.sum(axis=1)
    iu, ju, _, vidx = _layout(S.shape[-1])
    S, floored = _floor_lanes(S, SIGMA_FLOOR)
    run = {"w": w.copy(), "mu": mu.copy(), "S": S.copy(), "ll": np.empty(L),
           "iters": np.full(L, opts.max_iter), "converged": np.zeros(L, dtype=bool),
           "floored": floored, "path": np.empty((opts.max_iter + 1, L))}
    idx = np.arange(L)
    ll_old = np.full(L, -np.inf)
    for it in range(1, opts.max_iter + 1):
        l = _comp_logliks(X, w, mu, S)
        mx = np.logaddexp(l[0], l[1])
        r = np.exp(l[0] - mx)
        if W is None:
            ll = mx.sum(axis=1) / n
            R = (r, 1.0 - r)
        else:
            ll = (W * mx).sum(axis=1) / n
            R = (W * r, W * (1.0 - r))
        if X.ndim == 2:
            T = (np.concatenate(R) @ X.T).reshape(2, idx.size, -1)
        else:
            T = (X @ np.stack(R, axis=-1)).transpose(2, 0, 1)
        run["path"][it - 1, idx] = ll
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
            if X.ndim == 3:
                X = X[~stop]
        ll_old = ll
        w = nk / n
        S1 = T[..., iu.size:-1]
        mu = S1 / nk[..., None]
        S2 = T[..., :iu.size] - S1[..., iu] * mu[..., ju]
        S2 = (S2[0] + S2[1]) / (n if W is None else n[:, None])
        S, hit = _floor_lanes(S2[:, vidx], SIGMA_FLOOR)
        run["floored"][idx] |= hit
    l = _comp_logliks(X, w, mu, S)
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
    """Restarted EM on G groups of equal q and n.

    Phi (G, F, n) holds the groups' feature rows and ``starts[i]`` the
    (pi1, mu1, mu2, Sigma) starts of group i.  Every start runs
    ``EM_BURN_ITERS`` iterations as a lane of one pass.  Each group's
    winner (:func:`_winner` over its own lanes) that has not converged
    then runs on with a fresh convergence test (which its first
    iteration cannot pass), all of them together in one pass, one lane
    per group.  Iterations count both parts.  When every group has one
    start, they run to tolerance in one pass.  Returns one lane
    (:func:`_lane`) per group.
    """
    counts = np.array([len(s) for s in starts])
    group = np.repeat(np.arange(counts.size), counts)
    pi1, mu1, mu2, S = (np.array(v, dtype=float) for v in zip(*(s for g in starts for s in g)))
    mu = np.array([mu1, mu2]).reshape(2, pi1.size, -1)
    lanes = (np.array([pi1, 1.0 - pi1]), mu, S.reshape(pi1.size, mu.shape[-1], -1))
    if counts.max() == 1:
        run = _em(Phi, lanes, opts, group=group)
        return [_lane(run, i) for i in range(counts.size)]
    burn = _em(Phi, lanes, replace(opts, max_iter=min(EM_BURN_ITERS, opts.max_iter)),
               group=group)
    ends = np.cumsum(counts)
    best = [_lane(burn, lo + _winner(burn["ll"][lo:hi])) for lo, hi in zip(ends - counts, ends)]
    todo = [i for i, lane in enumerate(best) if not lane["converged"]]
    if todo:
        lanes = (np.array([best[i]["w"] for i in todo]).T,
                 np.array([best[i]["mu"] for i in todo]).transpose(1, 0, 2),
                 np.array([best[i]["S"] for i in todo]))
        tail = _em(Phi, lanes, opts, group=np.array(todo))
        for j, i in enumerate(todo):
            lane = _lane(tail, j)
            lane["iters"] += best[i]["iters"]
            lane["floored"] |= best[i]["floored"]
            lane["path"] = np.concatenate([best[i]["path"], lane["path"][1:]])
            best[i] = lane
    return best


def _report(lane, m, canonical=False):
    """FitReport of a lane with its means moved back by m: a FullParams
    block for q > 1, a PrimaryParams one for q = 1; ``grad_norm`` is left
    None.

    ``canonical``, as for a restarted fit, puts the components in the
    order mu_1y <= mu_2y with ties broken by pi1 <= pi2, so that which of
    two tied restarts wins cannot swap the labels (Stephens 2000, JRSS-B
    62:795).  A warm fit keeps the labels of its start."""
    w, mu, S = lane["w"], lane["mu"] + m, lane["S"]
    if canonical and (mu[1, 0], w[1]) < (mu[0, 0], w[0]):
        w, mu = w[::-1], mu[::-1]
    params = PrimaryParams(float(w[0]), float(mu[0, 0]), float(mu[1, 0]), float(S[0, 0]))
    if S.shape[-1] > 1:
        params = FullParams(params, AuxParams(mu[0, 1:], mu[1, 1:], S[1:, 1:], S[0, 1:]))
    require_valid(params)
    return FitReport(params, lane["ll"], lane["iters"], lane["converged"], None,
                     lane["floored"], lane["path"])


def fit_em_groups(datasets, opts=EmOptions(), joint=True):
    """Restarted EM fits of several datasets as the groups of lane passes.

    Each dataset gets the fit that :func:`fit_em_b` (``joint``) or
    :func:`fit_em_y` gives it alone: the same starts, burn-in, winner
    rule and tail, only with the lanes of several groups in each pass.
    Consecutive datasets share a pass of at most ``GROUP_PASS_CELLS``
    lanes x records.  Lanes are not bit-equal across stack
    compositions, so last digits may differ from a fit alone; which
    datasets are fitted together must therefore not depend on how the
    work is spread over processes.  The datasets share n and, for joint
    fits, the number of auxiliary columns.

    Returns one entry per dataset, in order: its FitReport, or the
    AuxselError its fit raised, so a failed fit leaves the others
    standing.  Every ``grad_norm`` comes from one stacked score pass
    (:func:`_scores`) over the fitted blocks.
    """
    out, fits = [], []
    for data in datasets:
        if joint and not data.has_a:
            out.append(DegenerateDataError("joint fit needs auxiliary columns"))
            continue
        B = _records(data, data.m if joint else 0)
        if float(np.ptp(B, axis=0).max()) == 0.0:
            what = "records" if joint else "y values"
            out.append(DegenerateDataError(f"all {what} identical; mixture fit undefined"))
            continue
        fits.append((len(out), B) + _features(B))
        out.append(None)
    if fits:
        starts = [_inits(X, opts) for _, _, _, X, _ in fits]
        size = max(1, GROUP_PASS_CELLS // (len(starts[0]) * fits[0][1].shape[0]))
        lanes = [lane for lo in range(0, len(fits), size)
                 for lane in _fit(np.stack([Phi for *_, Phi in fits[lo:lo + size]]),
                                  starts[lo:lo + size], opts)]
        done = []
        for (i, B, m, _, _), lane in zip(fits, lanes):
            try:
                out[i] = _report(lane, m, canonical=True)
                done.append((i, B))
            except AuxselError as exc:
                out[i] = exc
        if done:
            idx, Bs = zip(*done)
            *_, S, errs = _scores(*_blocks([out[i].params for i in idx]), np.stack(Bs))
            mean = S.mean(axis=1)
            for k, i in enumerate(idx):
                out[i] = errs[k] or replace(out[i], grad_norm=float(np.linalg.norm(mean[k])))
    return out


def checked(fit):
    """An entry of :func:`fit_em_groups`: the FitReport, or raise the
    AuxselError of a failed fit."""
    if isinstance(fit, AuxselError):
        raise fit
    return fit


def fitted_params(fits):
    """The parameter blocks of :func:`fit_em_groups` entries, each failed
    fit's AuxselError left in its place."""
    return [fit if isinstance(fit, AuxselError) else fit.params for fit in fits]


def fit_em_y(data, opts=EmOptions()):
    """Maximum likelihood for the marginal mixture of y by restarted EM."""
    return checked(fit_em_groups([data], opts, joint=False)[0])


def fit_em_b(data, opts=EmOptions()):
    """Maximum likelihood for the joint mixture of (y, a) by restarted EM.

    Parameters
    ----------
    data : Dataset with auxiliary columns; any z column is ignored.
    opts : EmOptions

    Returns
    -------
    FitReport with a FullParams block, components in canonical order
    (mu_1y <= mu_2y).  The shared covariance is kept positive definite
    by an eigenvalue floor; engaging the floor is flagged via
    ``cov_floored``.
    """
    return checked(fit_em_groups([data], opts, joint=True)[0])


def _warm(data, params, opts):
    """Single EM run started from an existing parameter block, on the
    records that its type takes (y alone for a PrimaryParams block)."""
    pi1, mu, S = _block(params)
    m, _, Phi = _features(_records(data, S.shape[-1] - 1))
    return _report(_fit(Phi[None], [[(pi1, mu[0] - m, mu[1] - m, S)]], opts)[0], m)


def warm_fit_y(data, theta, opts):
    """Single EM run on y started from an existing primary block (one
    EM step with ``max_iter=1, tol=-np.inf``)."""
    return _warm(data, theta.theta, opts)


def warm_fit_b(data, beta, opts):
    """Single EM run on (y, a) started from an existing joint block (one
    EM step with ``max_iter=1, tol=-np.inf``)."""
    return _warm(data, beta, opts)


def fit_complete_x(data):
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
    floored = s2 < SIGMA_FLOOR
    theta = PrimaryParams(n1 / data.n, mu1, mu2, max(s2, SIGMA_FLOOR))
    ll = float(logdens_x(theta, y, z).mean())
    return FitReport(theta, ll, 1, True, None, floored)
