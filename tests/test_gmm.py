"""Densities, responsibilities, scores, Hessians, and EM fitting."""
import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

from auxsel import (
    Dataset,
    DegenerateDataError,
    EmOptions,
    InvalidParamsError,
    PrimaryParams,
    em_step_b,
    em_step_y,
    estimate_info,
    fit_complete_x,
    fit_em_b,
    fit_em_y,
    flatten,
    logdens_b,
    logdens_x,
    logdens_y,
    resp_z_given_y,
    score_matrix,
    unflatten,
    warm_fit_b,
    warm_fit_y,
)
from auxsel import gmm
from auxsel.simlab import TrueModelSpec, gauss_hermite_mean, generate
from conftest import beta_ref, random_full, random_primary, theta_ref


def oracle_logdens_y(theta, y):
    sd = np.sqrt(theta.sigy2)
    return logsumexp(
        [
            np.log(theta.pi1) + norm.logpdf(y, theta.mu1y, sd),
            np.log(1.0 - theta.pi1) + norm.logpdf(y, theta.mu2y, sd),
        ],
        axis=0,
    )


def oracle_logdens_b(beta, y, a):
    cov = beta.joint_cov()
    w = np.concatenate([[y], np.atleast_1d(a)])
    return logsumexp(
        [
            np.log(beta.theta.pi1)
            + multivariate_normal.logpdf(w, beta.component_mean(1), cov),
            np.log(1.0 - beta.theta.pi1)
            + multivariate_normal.logpdf(w, beta.component_mean(2), cov),
        ]
    )


def test_logdens_y_matches_normal_mixture():
    theta = theta_ref()
    ys = np.linspace(-4.0, 4.0, 17)
    assert np.allclose(logdens_y(theta, ys), oracle_logdens_y(theta, ys), rtol=1e-12)
    # frozen spot value at y=0
    assert logdens_y(theta, 0.0) == pytest.approx(-1.769172489806735, abs=1e-12)


def test_logdens_y_random_params():
    rng = np.random.default_rng(10)
    for _ in range(50):
        theta = random_primary(rng)
        y = rng.standard_normal(5) * 3.0
        assert np.allclose(logdens_y(theta, y), oracle_logdens_y(theta, y), rtol=1e-11)


def test_logdens_b_matches_mvn_mixture():
    beta = beta_ref()
    assert logdens_b(beta, 0.0, [0.0]) == pytest.approx(-5.637558528052267, abs=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        beta = random_full(rng, m=m)
        y = float(rng.standard_normal())
        a = rng.standard_normal(m)
        assert logdens_b(beta, y, a) == pytest.approx(
            oracle_logdens_b(beta, y, a), rel=1e-11
        )


def test_logdens_x_is_component_density():
    theta = theta_ref()
    assert logdens_x(theta, -1.2, 1) == pytest.approx(-1.2514266850012972, abs=1e-12)
    want = np.log(0.4) + norm.logpdf(0.5, 1.2, np.sqrt(0.7))
    assert logdens_x(theta, 0.5, 0) == pytest.approx(want, abs=1e-12)


def test_logdens_x_marginalizes_to_logdens_y():
    rng = np.random.default_rng(12)
    for _ in range(30):
        theta = random_primary(rng)
        y = float(rng.standard_normal() * 2.0)
        both = np.logaddexp(logdens_x(theta, y, 1), logdens_x(theta, y, 0))
        assert both == pytest.approx(logdens_y(theta, y), rel=1e-12)


def test_logdens_b_marginalizes_to_logdens_y():
    # integrating the auxiliary out of the joint recovers the y marginal
    rng = np.random.default_rng(13)
    for _ in range(10):
        beta = random_full(rng, m=1)
        y = float(rng.standard_normal())
        grid = np.linspace(-25.0, 25.0, 20001)
        dens = np.exp(logdens_b(beta, np.full(grid.size, y), grid[:, None]))
        marg = np.trapezoid(dens, grid)
        assert marg == pytest.approx(np.exp(logdens_y(beta.theta, y)), rel=1e-6)


def test_density_normalization_quadrature():
    # exp(logdens_y) integrates to one, checked per component with quadrature
    rng = np.random.default_rng(14)
    for _ in range(20):
        theta = random_primary(rng)
        total = 0.0
        for mu, w in ((theta.mu1y, theta.pi1), (theta.mu2y, 1.0 - theta.pi1)):
            total += w * gauss_hermite_mean(
                lambda y: np.exp(logdens_y(theta, y) - oracle_logdens_y(theta, y)),
                mu,
                theta.sigy2,
            )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_resp_z_given_y_values():
    theta = theta_ref()
    assert resp_z_given_y(theta, 1.2) == pytest.approx(0.023920210481789, abs=1e-12)
    sym = PrimaryParams(0.5, -1.0, 1.0, 1.0)
    assert resp_z_given_y(sym, 0.0) == pytest.approx(0.5, abs=1e-15)
    r = resp_z_given_y(theta, np.linspace(-30, 30, 301))
    assert np.all((r >= 0.0) & (r <= 1.0))
    assert resp_z_given_y(theta, -30.0) > 0.999999
    assert resp_z_given_y(theta, 30.0) < 1e-6


def test_resp_z_given_b_uses_auxiliary():
    beta = beta_ref()

    def resp_z_given_b(y, a):
        return gmm._posterior(beta, np.array([[y, a]]))[0][0]

    # y=0 alone is ambiguous, a strongly signs the component
    assert resp_z_given_y(beta.theta, 0.0) == pytest.approx(0.6, abs=0.02)
    assert resp_z_given_b(0.0, 1.8) > 0.99
    assert resp_z_given_b(0.0, -1.8) < 0.05
    # oracle from bayes rule on the joint
    la = np.log(0.6) + multivariate_normal.logpdf(
        [0.0, 0.5], [-1.2, 1.8], beta.joint_cov()
    )
    lb = np.log(0.4) + multivariate_normal.logpdf(
        [0.0, 0.5], [1.2, -1.8], beta.joint_cov()
    )
    want = np.exp(la - np.logaddexp(la, lb))
    assert resp_z_given_b(0.0, 0.5) == pytest.approx(want, rel=1e-12)


def test_density_rejects_invalid_params():
    with pytest.raises(InvalidParamsError):
        logdens_y(PrimaryParams(0.0, -1.0, 1.0, 1.0), 0.0)
    with pytest.raises(InvalidParamsError):
        logdens_x(PrimaryParams(0.5, -1.0, 1.0, -1.0), 0.0, 1)


def fd_gradient(f, beta, m, h=1e-6):
    flat = flatten(beta)
    g = np.empty(flat.size)
    for j in range(flat.size):
        step = h * max(1.0, abs(flat[j]))
        hi, lo = flat.copy(), flat.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (f(unflatten(hi, m)) - f(unflatten(lo, m))) / (2.0 * step)
    return g


def test_score_matches_finite_differences_b():
    rng = np.random.default_rng(15)
    for _ in range(25):
        m = int(rng.integers(1, 3))
        beta = random_full(rng, m=m)
        y = float(rng.standard_normal() * 2.0)
        a = rng.standard_normal(m) * 2.0
        got = score_matrix("b", beta, Dataset(y=[y], a=[a]))[0]
        want = fd_gradient(lambda p: logdens_b(p, y, a), beta, m)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-8)


def test_score_matches_finite_differences_y_and_x():
    rng = np.random.default_rng(16)
    for _ in range(25):
        beta = random_full(rng, m=1)
        y = float(rng.standard_normal() * 2.0)
        z = int(rng.integers(0, 2))
        got_y = score_matrix("y", beta, Dataset(y=[y]))[0]
        want_y = fd_gradient(lambda p: logdens_y(p.theta, y), beta, 1)
        assert np.allclose(got_y, want_y, rtol=1e-6, atol=1e-8)
        # phi block of the y score is identically zero
        assert np.all(got_y[4:] == 0.0)
        got_x = score_matrix("x", beta, Dataset(y=[y], z=[z]))[0]
        want_x = fd_gradient(lambda p: logdens_x(p.theta, y, z), beta, 1)
        assert np.allclose(got_x, want_x, rtol=1e-6, atol=1e-8)
        assert np.all(got_x[4:] == 0.0)


def test_score_matrix_stacks_gradients():
    rng = np.random.default_rng(17)
    beta = random_full(rng, m=1)
    ds = Dataset(y=rng.standard_normal(6), a=rng.standard_normal((6, 1)))
    s = score_matrix("b", beta, ds)
    assert s.shape == (6, 8)
    for i in range(6):
        assert np.allclose(s[i], score_matrix("b", beta, ds.take([i]))[0], rtol=1e-12)


def test_hessian_matches_second_differences():
    rng = np.random.default_rng(18)
    beta = random_full(rng, m=1)
    ds = Dataset(y=rng.standard_normal(40), a=rng.standard_normal((40, 1)))

    def mean_ll(p):
        return np.mean(logdens_b(p, ds.y, ds.a))

    h = -estimate_info(ds, beta).I_b
    assert np.allclose(h, h.T, atol=1e-12)
    flat = flatten(beta)
    fd2 = np.empty((8, 8))
    step = 1e-4
    for i in range(8):
        for j in range(i + 1):
            hi = step * max(1.0, abs(flat[i]))
            hj = step * max(1.0, abs(flat[j]))
            pp = flat.copy(); pp[i] += hi; pp[j] += hj
            pm = flat.copy(); pm[i] += hi; pm[j] -= hj
            mp = flat.copy(); mp[i] -= hi; mp[j] += hj
            mm = flat.copy(); mm[i] -= hi; mm[j] -= hj
            val = (
                mean_ll(unflatten(pp, 1))
                - mean_ll(unflatten(pm, 1))
                - mean_ll(unflatten(mp, 1))
                + mean_ll(unflatten(mm, 1))
            ) / (4.0 * hi * hj)
            fd2[i, j] = fd2[j, i] = val
    scale = max(1.0, np.abs(fd2).max())
    assert np.abs(h - fd2).max() / scale < 1e-4


def test_em_y_loglik_monotone():
    spec = TrueModelSpec()
    data = generate(spec, n=300, seed=4).drop_z().drop_aux()
    rep = fit_em_y(data, EmOptions(seed=1))
    path = rep.loglik_path
    assert path is not None and len(path) >= 2
    assert np.all(np.diff(path) >= -1e-12)
    assert rep.converged
    assert rep.grad_norm < 1e-4


def test_em_b_loglik_monotone_and_stationary():
    spec = TrueModelSpec()
    data = generate(spec, n=300, seed=5).drop_z()
    rep = fit_em_b(data, EmOptions(seed=1))
    assert np.all(np.diff(rep.loglik_path) >= -1e-12)
    assert rep.converged
    assert rep.grad_norm < 1e-4
    # fitted loglik reproduces the reported value
    ll = np.mean(logdens_b(rep.params, data.y, data.a))
    assert ll == pytest.approx(rep.loglik_per_obs, rel=1e-12)


def swap_min_distance(got, want):
    d1 = np.abs(flatten(got) - flatten(want)).max()
    d2 = np.abs(flatten(got.swapped()) - flatten(want)).max()
    return min(d1, d2)


def test_em_consistency_large_sample():
    spec = TrueModelSpec()
    data = generate(spec, n=5000, seed=6)
    truth = spec.theta_true()
    rep_y = fit_em_y(data.drop_z().drop_aux(), EmOptions(seed=2))
    d_y = min(
        np.abs(rep_y.params.to_flat() - truth.to_flat()).max(),
        np.abs(rep_y.params.swapped().to_flat() - truth.to_flat()).max(),
    )
    assert d_y < 0.1
    rep_b = fit_em_b(data.drop_z().select_aux([0]), EmOptions(seed=2))
    want = unflatten(np.array([0.6, -1.2, 1.2, 0.7, 1.8, -1.8, 0.49, 0.0]), 1)
    assert swap_min_distance(rep_b.params, want) < 0.1


def test_em_y_two_point_masses_hits_floor():
    y = np.array([-5.0] * 30 + [5.0] * 30)
    rep = fit_em_y(Dataset(y=y), EmOptions(seed=0))
    assert rep.cov_floored
    assert rep.params.sigy2 == pytest.approx(1e-6)
    assert {rep.params.mu1y, rep.params.mu2y} == {-5.0, 5.0}


def test_em_rejects_constant_data():
    with pytest.raises(DegenerateDataError):
        fit_em_y(Dataset(y=np.ones(40)))
    ds = Dataset(y=np.ones(40), a=np.ones((40, 1)))
    with pytest.raises(DegenerateDataError):
        fit_em_b(ds)


def test_em_seed_determinism():
    data = generate(TrueModelSpec(), n=120, seed=7).drop_z()
    r1 = fit_em_b(data, EmOptions(seed=3))
    r2 = fit_em_b(data, EmOptions(seed=3))
    assert np.array_equal(flatten(r1.params), flatten(r2.params))
    assert r1.loglik_per_obs == r2.loglik_per_obs


def test_loglik_swap_invariance():
    rng = np.random.default_rng(20)
    beta = random_full(rng, m=1)
    y = rng.standard_normal(15)
    a = rng.standard_normal((15, 1))
    ll = sum(logdens_b(beta, yi, ai) for yi, ai in zip(y, a))
    ll_sw = sum(logdens_b(beta.swapped(), yi, ai) for yi, ai in zip(y, a))
    assert ll == pytest.approx(ll_sw, rel=1e-13)


def test_fit_complete_x_closed_form():
    ds = Dataset(y=[-1.0, 1.0, 2.0, 4.0], z=[1, 1, 0, 0])
    rep = fit_complete_x(ds)
    th = rep.params
    assert th.pi1 == pytest.approx(0.5)
    assert th.mu1y == pytest.approx(0.0)
    assert th.mu2y == pytest.approx(3.0)
    assert th.sigy2 == pytest.approx(1.0)
    assert rep.converged


def test_fit_complete_x_matches_numeric_mle():
    from scipy.optimize import minimize

    data = generate(TrueModelSpec(), n=200, seed=8).drop_aux()
    rep = fit_complete_x(data)

    def nll(v):
        theta = PrimaryParams(v[0], v[1], v[2], v[3])
        return -np.sum(logdens_x(theta, data.y, data.z))

    x0 = np.array([0.5, -1.0, 1.0, 1.0])
    res = minimize(nll, x0, method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000})
    assert np.allclose(rep.params.to_flat(), res.x, atol=1e-5)


def test_fit_complete_x_needs_both_classes():
    with pytest.raises(DegenerateDataError):
        fit_complete_x(Dataset(y=[0.0, 1.0, 2.0], z=[1, 1, 1]))


def test_warm_fit_reaches_same_optimum():
    data = generate(TrueModelSpec(), n=150, seed=9).drop_z()
    cold = fit_em_b(data, EmOptions(seed=4))
    warm = warm_fit_b(data, cold.params, EmOptions(seed=4))
    assert warm.loglik_per_obs >= cold.loglik_per_obs - 1e-12
    assert swap_min_distance(warm.params, cold.params) < 1e-6
    ydata = data.drop_aux()
    cold_y = fit_em_y(ydata, EmOptions(seed=4))
    warm_y = warm_fit_y(ydata, cold_y.params, EmOptions(seed=4))
    assert warm_y.loglik_per_obs >= cold_y.loglik_per_obs - 1e-12


def test_warm_fits_leave_grad_norm_unset():
    # the warm fits serve the LOOCV fold refits, which read only the
    # parameters and the log likelihood, so they skip the score matrix
    data = generate(TrueModelSpec(), n=120, seed=11).drop_z()
    cold = fit_em_b(data, EmOptions(seed=2))
    assert cold.grad_norm is not None and cold.grad_norm < 1e-4
    warm = warm_fit_b(data.take(np.arange(1, data.n)), cold.params, EmOptions(seed=2))
    assert warm.grad_norm is None
    assert np.isfinite(warm.loglik_per_obs)
    ydata = data.drop_aux()
    cold_y = fit_em_y(ydata, EmOptions(seed=2))
    warm_y = warm_fit_y(ydata.take(np.arange(1, ydata.n)), cold_y.params,
                        EmOptions(seed=2))
    assert warm_y.grad_norm is None
    assert np.isfinite(warm_y.loglik_per_obs)


def test_em_step_single_iteration_ascent():
    data = generate(TrueModelSpec(), n=100, seed=21).drop_z().select_aux([0])
    rng = np.random.default_rng(22)
    beta = random_full(rng, m=1)
    before = np.mean(logdens_b(beta, data.y, data.a))
    stepped = em_step_b(data, beta)
    after = np.mean(logdens_b(stepped, data.y, data.a))
    assert after >= before - 1e-12
    theta = random_primary(rng)
    ydata = data.drop_aux()
    before_y = np.mean(logdens_y(theta, ydata.y))
    stepped_y = em_step_y(ydata, theta)
    after_y = np.mean(logdens_y(stepped_y, ydata.y))
    assert after_y >= before_y - 1e-12


# ---------------------------------------------------------------------------
# the lane engine: restarts as lanes of one array pass
# ---------------------------------------------------------------------------

def lanes_of(starts):
    """Stack (pi1, mu1, mu2, Sigma) starts as engine lanes."""
    pi1 = np.array([s[0] for s in starts])
    mu = np.array([[np.atleast_1d(s[1]) for s in starts],
                   [np.atleast_1d(s[2]) for s in starts]], dtype=float)
    S = np.array([np.atleast_2d(s[3]) for s in starts], dtype=float)
    return np.array([pi1, 1.0 - pi1]), mu, S


def reference_em(B, start, max_iter, tol=1e-10, floor=1e-6):
    """One EM run at a time with two-pass statistics: the loop the lane
    engine replaced, kept as its reference."""
    n, q = B.shape
    pi1, S = start[0], np.atleast_2d(start[3])
    mu1, mu2 = np.atleast_1d(start[1]), np.atleast_1d(start[2])

    def floored(S):
        w, V = np.linalg.eigh(S)
        return ((V * np.maximum(w, floor)) @ V.T, True) if w.min() < floor else (S, False)

    def loglik():
        l1 = np.log(pi1) + multivariate_normal.logpdf(B, mu1, S)
        l2 = np.log1p(-pi1) + multivariate_normal.logpdf(B, mu2, S)
        return np.logaddexp(l1, l2).reshape(n), l1.reshape(n)

    S, hit = floored(S)
    ll_old, path, it = -np.inf, [], 0
    for it in range(1, max_iter + 1):
        mx, l1 = loglik()
        path.append(mx.mean())
        if path[-1] - ll_old < tol:
            return dict(pi1=pi1, mu=(mu1, mu2), S=S, ll=path[-1], iters=it,
                        converged=True, floored=hit, path=np.array(path))
        ll_old = path[-1]
        r = np.exp(l1 - mx)
        if min(r.sum(), n - r.sum()) < 1e-10:
            break
        pi1 = r.sum() / n
        mu1, mu2 = r @ B / r.sum(), (1 - r) @ B / (n - r.sum())
        S, h = floored(((B - mu1).T * r @ (B - mu1) + (B - mu2).T * (1 - r) @ (B - mu2)) / n)
        hit |= h
    else:
        it = max_iter
    path.append(loglik()[0].mean())
    return dict(pi1=pi1, mu=(mu1, mu2), S=S, ll=path[-1], iters=it, converged=False,
                floored=hit, path=np.array(path))


def reference_fit(B, starts, opts):
    burn = [reference_em(B, s, min(gmm.EM_BURN_ITERS, opts.max_iter)) for s in starts]
    best = burn[0]
    for run in burn[1:]:
        if run["ll"] > best["ll"]:
            best = run
    if best["converged"]:
        return best
    tail = reference_em(B, (best["pi1"], *best["mu"], best["S"]), opts.max_iter)
    return dict(tail, iters=best["iters"] + tail["iters"], floored=best["floored"] or
                tail["floored"], path=np.concatenate([best["path"], tail["path"][1:]]))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_engine_matches_one_start_at_a_time(q):
    data = generate(TrueModelSpec(), n=120, seed=40 + q).drop_z()
    rng = np.random.default_rng(q)
    B = np.column_stack([data.y, data.a, rng.standard_normal(data.n)])[:, :q]
    m, X, Phi = gmm._features(B)
    opts = EmOptions()
    starts = gmm._inits_y(X[:, 0], opts) if q == 1 else gmm._inits_b(X, opts)
    burn = gmm._em(Phi, lanes_of(starts), EmOptions(max_iter=gmm.EM_BURN_ITERS))
    for k, start in enumerate(starts):
        ref = reference_em(X, start, gmm.EM_BURN_ITERS)
        assert (burn["iters"][k], burn["converged"][k]) == (ref["iters"], ref["converged"])
        assert burn["ll"][k] == pytest.approx(ref["ll"], rel=1e-12)
    got, want = gmm._fit(Phi, starts, opts), reference_fit(X, starts, opts)
    assert (got["iters"], got["converged"]) == (want["iters"], want["converged"])
    assert np.allclose(got["path"], want["path"], rtol=1e-12)
    assert np.allclose(got["mu"], want["mu"], rtol=0.0, atol=1e-8)
    assert np.allclose(got["S"], want["S"], rtol=0.0, atol=1e-8)


def test_lane_ranking_first_strict_maximum():
    assert gmm._winner(np.array([1.0, 3.0, 3.0, 2.0])) == 1
    assert gmm._winner(np.array([-2.0, -1.0, -1.0 + 1e-15])) == 2
    # a NaN or -inf lane never wins over a finite one
    assert gmm._winner(np.array([np.nan, -7.0, np.nan])) == 1
    assert gmm._winner(np.array([-np.inf, np.nan, -5.0])) == 2
    # with no finite lane the first start stands, as in a one-by-one loop
    assert gmm._winner(np.array([np.nan, -np.inf])) == 0


def test_nan_lane_never_wins_a_fit():
    data = generate(TrueModelSpec(), n=120, seed=31).drop_z().select_aux([0])
    m, X, Phi = gmm._features(np.column_stack([data.y, data.a]))
    starts = gmm._inits_b(X, EmOptions(restarts=3))
    bad = (0.5, np.array([np.nan, 0.0]), starts[0][2], starts[0][3])
    with np.errstate(invalid="ignore"):
        got = gmm._fit(Phi, [bad] + starts, EmOptions())
    want = gmm._fit(Phi, starts, EmOptions())
    assert np.isfinite(got["ll"])
    assert got["iters"] == want["iters"] and got["converged"] == want["converged"]
    assert got["ll"] == pytest.approx(want["ll"], rel=1e-12)
    assert np.allclose(got["mu"], want["mu"], rtol=1e-10, atol=1e-12)


def test_all_lanes_dead_behaves_as_restart_loop():
    # component 1 of every start sits far from the data, so it dies on the
    # first E-step and the state stays at the start; the start with the
    # greatest log likelihood wins, and its continuation dies at once too
    rng = np.random.default_rng(32)
    B = rng.standard_normal((60, 2))
    m, X, Phi = gmm._features(B)
    far = np.array([60.0, 60.0])
    starts = [(pi1, far, np.zeros(2), np.eye(2)) for pi1 in (0.5, 0.3, 0.7)]
    best = gmm._fit(Phi, starts, EmOptions())
    want = np.mean(np.logaddexp(
        np.log(0.3) + multivariate_normal.logpdf(X, far, np.eye(2)),
        np.log(0.7) + multivariate_normal.logpdf(X, np.zeros(2), np.eye(2))))
    assert np.array_equal(best["w"], [0.3, 0.7])
    assert np.array_equal(best["mu"], [far, np.zeros(2)])
    assert np.array_equal(best["S"], np.eye(2))
    # one burn-in iteration plus one continuation iteration, each path
    # closed by the re-evaluated log likelihood
    assert best["iters"] == 2 and not best["converged"] and not best["floored"]
    assert best["path"].shape == (3,)
    assert np.allclose(best["path"], want, rtol=1e-12)
    loop = reference_fit(X, starts, EmOptions())
    assert (loop["pi1"], loop["iters"], loop["converged"]) == (0.3, 2, False)
    assert np.allclose(loop["path"], best["path"], rtol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("max_iter", [gmm.EM_BURN_ITERS, 500])
def test_each_lane_runs_as_if_alone(q, max_iter):
    data = generate(TrueModelSpec(), n=150, seed=33 + q).drop_z()
    rng = np.random.default_rng(q)
    B = np.column_stack([data.y, data.a, rng.standard_normal(data.n)])[:, :q]
    m, X, Phi = gmm._features(B)
    opts = EmOptions(max_iter=max_iter)
    starts = gmm._inits_y(X[:, 0], opts) if q == 1 else gmm._inits_b(X, opts)
    stack = gmm._em(Phi, lanes_of(starts), opts)
    assert len(starts) == opts.restarts
    for k, start in enumerate(starts):
        alone = gmm._em(Phi, lanes_of([start]), opts)
        for key in ("iters", "converged", "floored"):
            assert stack[key][k] == alone[key][0]
        for key, lane_axis in (("w", 1), ("mu", 1), ("S", 0), ("ll", 0)):
            got = np.take(stack[key], k, axis=lane_axis)
            want = np.take(alone[key], 0, axis=lane_axis)
            scale = np.abs(want).max()
            assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale), key
        it = stack["iters"][k]
        assert np.allclose(stack["path"][:it, k], alone["path"][:it, 0], rtol=1e-12)


def shifted(data, dy, da):
    return Dataset(data.y + dy, None, data.a + da)


def test_em_translation_equivariance():
    # the engine centres the data, so a far-off origin leaves the fit
    # where it was, shifted, instead of cancelling in S2 - n_k mu mu'
    data = generate(TrueModelSpec(), n=150, seed=0).drop_z().select_aux([0])
    far = shifted(data, 1e4, -300.0)
    fit, fit_far = fit_em_b(data), fit_em_b(far)
    shift = np.array([0.0, 1e4, 1e4, 0.0, -300.0, -300.0, 0.0, 0.0])
    assert np.abs(flatten(fit_far.params) - shift - flatten(fit.params)).max() < 1e-8
    assert fit_far.loglik_per_obs == pytest.approx(fit.loglik_per_obs, abs=1e-8)
    fit_y, fit_y_far = fit_em_y(data.drop_aux()), fit_em_y(far.drop_aux())
    moved = fit_y_far.params.to_flat() - shift[:4]
    assert np.abs(moved - fit_y.params.to_flat()).max() < 1e-8
    assert fit_y_far.loglik_per_obs == pytest.approx(fit_y.loglik_per_obs, abs=1e-8)


def test_criteria_translation_invariance():
    from auxsel import aic_xb, aic_xy

    data = generate(TrueModelSpec(), n=150, seed=0).drop_z().select_aux([0])
    crit = []
    for d in (data, shifted(data, 1e4, -300.0)):
        fit, fit_y = fit_em_b(d), fit_em_y(d.drop_aux())
        crit.append((aic_xb(d, fit.params, estimate_info(d, fit.params)).value,
                     aic_xy(d.drop_aux(), fit_y.params,
                            estimate_info(d.drop_aux(), fit_y.params)).value))
    assert crit[1] == pytest.approx(crit[0], rel=1e-8)
