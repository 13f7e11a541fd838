"""Empirical information matrices and their structural identities."""
import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from auxsel import (
    AuxParams,
    Dataset,
    EmOptions,
    FullParams,
    IllConditionedError,
    NumericalError,
    PrimaryParams,
    aic_xb,
    aic_yb,
    estimate_info,
    fit_em_b,
    fit_em_y,
    flatten,
    resp_z_given_y,
    risk_xb,
    safe_inverse,
    score_matrix,
    unflatten,
    without_latent,
)
from auxsel import gmm
from auxsel.simlab import TrueModelSpec, generate
from conftest import random_full, random_primary


def fit_and_info(n, seed, em_seed=0):
    data = generate(TrueModelSpec(), n=n, seed=seed).drop_z().select_aux([0])
    rep = fit_em_b(data, EmOptions(seed=em_seed))
    return data, rep, estimate_info(data, rep.params)


def test_shapes_and_symmetry():
    data, rep, mats = fit_and_info(200, 30)
    for name in ("I_b", "J_b", "I_y", "I_zy", "I_x"):
        mat = getattr(mats, name)
        assert mat.shape == (8, 8)
        assert np.allclose(mat, mat.T, atol=1e-10)
    assert mats.K_by.shape == (8, 8)
    assert mats.cond_I_b > 0.0


def test_i_x_is_sum_of_parts():
    _, _, mats = fit_and_info(150, 31)
    assert np.array_equal(mats.I_x, mats.I_y + mats.I_zy)


def test_phi_blocks_vanish_in_y_quantities():
    _, _, mats = fit_and_info(150, 32)
    assert np.all(mats.I_y[4:, :] == 0.0) and np.all(mats.I_y[:, 4:] == 0.0)
    assert np.all(mats.I_zy[4:, :] == 0.0)
    # K_by couples b scores with y scores, so only theta columns are live
    assert np.all(mats.K_by[:, 4:] == 0.0)


def test_latent_info_positive_semidefinite():
    rng = np.random.default_rng(33)
    for _ in range(30):
        beta = random_full(rng, m=1)
        data = generate(TrueModelSpec(), n=60, seed=int(rng.integers(10**6)))
        mats = estimate_info(data.drop_z().select_aux([0]), beta)
        assert np.linalg.eigvalsh(mats.I_zy).min() >= -1e-10


# Property tests run on random admissible blocks with m = 0-3 auxiliary
# columns (m = 0 is a PrimaryParams block) and n <= 200 records drawn from
# the block itself; examples are derandomized so every run sees the same ones.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _sample(m, n, seed):
    rng = np.random.default_rng(seed)
    params = random_primary(rng) if m == 0 else random_full(rng, m)
    pi1, mu, S = gmm._block(params, m > 0)
    z = (rng.uniform(size=n) < pi1).astype(int)
    x = mu[1 - z] + rng.standard_normal((n, 1 + m)) @ np.linalg.cholesky(S).T
    return params, Dataset(y=x[:, 0], a=x[:, 1:] if m else None)


samples = st.builds(_sample, st.integers(0, 3), st.integers(20, 200),
                    st.integers(0, 2**32 - 1))


def fd_mean_hessian(params, data, step=1e-5):
    """Central differences of the mean analytic score, symmetrized."""
    joint = isinstance(params, FullParams)
    flat = flatten(params)

    def mean_score(vec):
        block = unflatten(vec, params.m) if joint else PrimaryParams.from_flat(vec)
        return score_matrix("b" if joint else "y", block, data).mean(axis=0)

    H = np.empty((flat.size, flat.size))
    for j in range(flat.size):
        e = np.zeros(flat.size)
        e[j] = step * max(1.0, abs(flat[j]))
        H[:, j] = (mean_score(flat + e) - mean_score(flat - e)) / (2.0 * e[j])
    return 0.5 * (H + H.T)


@PROPERTY
@given(samples)
def test_hessian_matches_score_differences(sample):
    params, data = sample
    fd = fd_mean_hessian(params, data)
    got = -estimate_info(data, params).I_b
    assert np.abs(got - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


@PROPERTY
@given(samples)
def test_latent_info_weights_are_posteriors(sample):
    # I_zy rebuilt from its definition with explicit posteriors
    params, data = sample
    theta = params.theta if isinstance(params, FullParams) else params
    mats = estimate_info(data, params)
    u1 = score_matrix("x", theta, Dataset(y=data.y, z=np.ones(data.n, dtype=int)))
    u0 = score_matrix("x", theta, Dataset(y=data.y, z=np.zeros(data.n, dtype=int)))
    sy = score_matrix("y", theta, Dataset(y=data.y))
    w1 = resp_z_given_y(theta, data.y)
    d1, d0 = u1 - sy, u0 - sy
    want = (d1.T @ (w1[:, None] * d1) + d0.T @ ((1 - w1)[:, None] * d0)) / data.n
    assert np.allclose(mats.I_zy[:4, :4], want, rtol=1e-8, atol=1e-12)
    assert np.all(mats.I_zy[4:] == 0.0) and np.all(mats.I_zy[:, 4:] == 0.0)


@PROPERTY
@given(st.builds(_sample, st.integers(1, 3), st.integers(20, 200), st.integers(0, 2**32 - 1)),
       st.integers(0, 2), st.floats(0.2, 5.0), st.booleans(), st.floats(-5.0, 5.0))
def test_criteria_invariant_under_affine_aux_maps(sample, col, scale, flip, shift):
    # a -> c a + d on one auxiliary column, with the block mapped to match;
    # |c| >= 0.2 keeps the mapped covariance far above the floor
    params, data = sample
    j = col % params.m
    c = np.ones(params.m)
    c[j] = -scale if flip else scale
    d = np.zeros(params.m)
    d[j] = shift
    phi = params.phi
    mapped = FullParams(params.theta, AuxParams(
        c * phi.mu1a + d, c * phi.mu2a + d, c[:, None] * phi.Sigma_aa * c, c * phi.sigma_ya))
    moved = Dataset(y=data.y, a=data.a * c + d)
    for crit in (aic_xb, aic_yb, risk_xb):
        want = crit(data, params, estimate_info(data, params))
        got = crit(moved, mapped, estimate_info(moved, mapped))
        assert got.fit_term == want.fit_term
        assert got.penalty == pytest.approx(want.penalty, rel=1e-8, abs=1e-8)


def test_j_converges_to_i_in_sample_size():
    # empirical score covariance approaches the curvature at the MLE
    _, _, small = fit_and_info(300, 36)
    _, _, big = fit_and_info(20000, 36)
    rel_small = np.linalg.norm(small.J_b - small.I_b) / np.linalg.norm(small.I_b)
    rel_big = np.linalg.norm(big.J_b - big.I_b) / np.linalg.norm(big.I_b)
    assert rel_big < rel_small
    assert rel_big < 0.1


def test_k_converges_to_i_y():
    _, _, big = fit_and_info(20000, 37)
    i_y = big.I_y[:4, :4]
    k = big.K_by[:4, :4]
    assert np.linalg.norm(k - i_y) / np.linalg.norm(i_y) < 0.1


def test_y_mode_collapse():
    data = generate(TrueModelSpec(), n=200, seed=38).drop_z().drop_aux()
    rep = fit_em_y(data, EmOptions(seed=1))
    mats = estimate_info(data, rep.params)
    assert mats.I_b.shape == (4, 4)
    assert np.array_equal(mats.J_b, mats.K_by)
    s = score_matrix("y", rep.params, data)
    assert np.allclose(mats.J_b, s.T @ s / data.n, rtol=1e-12)


def test_without_latent_zeroes_only_latent_parts():
    _, _, mats = fit_and_info(100, 39)
    red = without_latent(mats)
    assert np.all(red.I_zy == 0.0)
    assert np.array_equal(red.I_x, red.I_y)
    assert np.array_equal(red.I_b, mats.I_b)
    assert np.array_equal(red.J_b, mats.J_b)
    # original is untouched
    assert not np.all(mats.I_zy == 0.0)


def test_permutation_invariance():
    data, rep, mats = fit_and_info(120, 40)
    perm = np.random.default_rng(41).permutation(data.n)
    mats2 = estimate_info(data.take(perm), rep.params)
    for name in ("I_b", "J_b", "K_by", "I_y", "I_zy", "I_x"):
        assert np.allclose(getattr(mats, name), getattr(mats2, name), atol=1e-10)


def test_safe_inverse_spd():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((5, 5))
    m = a @ a.T + 0.5 * np.eye(5)
    inv = safe_inverse(m)
    assert np.allclose(inv @ m, np.eye(5), atol=1e-10)


def test_safe_inverse_condition_limit():
    m = np.diag([1.0, 1e-11])
    with pytest.raises(IllConditionedError) as exc:
        safe_inverse(m)
    assert exc.value.cond == pytest.approx(1e11, rel=1e-6)
    # generous limit lets it through
    inv = safe_inverse(m, cond_limit=1e12)
    assert inv[1, 1] == pytest.approx(1e11, rel=1e-9)


def test_extreme_record_raises_with_index():
    y = np.zeros(6)
    y[3] = 1e200
    rng = np.random.default_rng(43)
    theta = random_primary(rng)
    with pytest.raises(NumericalError) as exc:
        score_matrix("y", theta, Dataset(y=y))
    assert "record 3" in str(exc.value)


def test_info_consistent_with_single_gradients():
    data = generate(TrueModelSpec(), n=25, seed=44).drop_z().select_aux([0])
    rng = np.random.default_rng(45)
    beta = random_full(rng, m=1)
    s = score_matrix("b", beta, data)
    rows = np.stack([score_matrix("b", beta, data.take([i]))[0] for i in range(data.n)])
    assert np.allclose(s, rows, rtol=1e-12)
    mats = estimate_info(data, beta)
    assert np.allclose(mats.J_b, rows.T @ rows / data.n, rtol=1e-12)
