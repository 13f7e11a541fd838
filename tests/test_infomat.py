"""Empirical information matrices and their structural identities."""
import numpy as np
import pytest

from auxsel import (
    Dataset,
    EmOptions,
    IllConditionedError,
    NumericalError,
    estimate_info,
    fit_em_b,
    fit_em_y,
    resp_z_given_y,
    safe_inverse,
    score_matrix,
    without_latent,
)
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


def test_latent_info_weights_are_posteriors():
    # I_zy rebuilt from its definition with explicit posteriors
    data = generate(TrueModelSpec(), n=40, seed=34).drop_z().drop_aux()
    rng = np.random.default_rng(35)
    theta = random_primary(rng)
    mats = estimate_info(data, theta)
    u1 = score_matrix("x", theta, Dataset(y=data.y, z=np.ones(data.n, dtype=int)))
    u0 = score_matrix("x", theta, Dataset(y=data.y, z=np.zeros(data.n, dtype=int)))
    sy = score_matrix("y", theta, data)
    w1 = resp_z_given_y(theta, data.y)
    d1, d0 = u1 - sy, u0 - sy
    want = (d1.T @ (w1[:, None] * d1) + d0.T @ ((1 - w1)[:, None] * d0)) / data.n
    assert np.allclose(mats.I_zy[:4, :4], want, rtol=1e-8, atol=1e-12)


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
