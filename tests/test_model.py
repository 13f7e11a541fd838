"""Parameter containers, flat layout, validation, dataset I/O."""
import numpy as np
import pytest

from auxsel import (
    AuxParams,
    Dataset,
    DegenerateDataError,
    FullParams,
    ParseError,
    PrimaryParams,
    flat_dim,
    flatten,
    unflatten,
    unvech,
    validate,
    vech,
)
from conftest import beta_ref, random_full, random_primary, theta_ref


def test_flat_layout_reference():
    # layout: pi1, mu1y, mu2y, sigy2, mu1a, mu2a, vech(Sigma_aa), sigma_ya
    got = flatten(beta_ref())
    want = np.array([0.6, -1.2, 1.2, 0.7, 1.8, -1.8, 0.49, 0.0])
    assert np.array_equal(got, want)
    assert flat_dim(1) == 8


def test_flat_layout_two_aux():
    theta = PrimaryParams(0.5, 0.0, 1.0, 1.0)
    phi = AuxParams([1.0, 2.0], [3.0, 4.0], [[2.0, 0.5], [0.5, 3.0]], [0.1, 0.2])
    got = flatten(FullParams(theta, phi))
    # vech is column-stacked lower triangle: (0,0), (1,0), (1,1)
    want = np.array([0.5, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 2.0, 0.5, 3.0, 0.1, 0.2])
    assert np.array_equal(got, want)
    assert flat_dim(2) == 13


def test_primary_flat_roundtrip():
    theta = theta_ref()
    assert theta == PrimaryParams.from_flat(theta.to_flat())


def test_flatten_unflatten_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        beta = random_full(rng, m=m)
        back = unflatten(flatten(beta), m=m)
        assert np.array_equal(flatten(back), flatten(beta))
        assert back.phi.m == m


def test_vech_roundtrip():
    rng = np.random.default_rng(1)
    for q in (1, 2, 3, 5):
        a = rng.standard_normal((q, q))
        s = a @ a.T
        assert vech(s).shape == (q * (q + 1) // 2,)
        assert np.allclose(unvech(vech(s), q), s)


def test_joint_cov_assembly():
    beta = beta_ref()
    cov = beta.joint_cov()
    assert np.array_equal(cov, np.array([[0.7, 0.0], [0.0, 0.49]]))
    assert np.array_equal(beta.component_mean(1), [-1.2, 1.8])
    assert np.array_equal(beta.component_mean(2), [1.2, -1.8])


def test_swapped_exchanges_components():
    beta = beta_ref()
    sw = beta.swapped()
    assert sw.theta.pi1 == pytest.approx(0.4)
    assert sw.theta.mu1y == 1.2 and sw.theta.mu2y == -1.2
    assert np.array_equal(sw.phi.mu1a, [-1.8])
    assert np.array_equal(flatten(sw.swapped()), flatten(beta))


def test_validate_accepts_reference():
    assert validate(theta_ref()) is None
    assert validate(beta_ref()) is None


@pytest.mark.parametrize(
    "theta,frag",
    [
        (PrimaryParams(0.0, -1.0, 1.0, 1.0), "pi1"),
        (PrimaryParams(1.0, -1.0, 1.0, 1.0), "pi1"),
        (PrimaryParams(0.5, -1.0, 1.0, 0.0), "sigy2"),
        (PrimaryParams(0.5, -1.0, 1.0, 1e-7), "sigy2"),
        (PrimaryParams(0.5, np.nan, 1.0, 1.0), "finite"),
        (PrimaryParams(0.5, -1.0, np.inf, 1.0), "finite"),
    ],
)
def test_validate_rejects_primary(theta, frag):
    msg = validate(theta)
    assert msg is not None and frag in msg


def test_validate_rejects_non_pd_joint():
    # sigma_ya^2 > sigy2 * sigma_aa makes the joint covariance indefinite
    phi = AuxParams([0.0], [0.0], [[0.49]], [0.7])
    msg = validate(FullParams(theta_ref(), phi))
    assert msg is not None and "positive definite" in msg


def test_validate_rejects_asymmetric_sigma_aa():
    phi = AuxParams([0.0, 0.0], [0.0, 0.0], [[1.0, 0.3], [0.2, 1.0]], [0.0, 0.0])
    msg = validate(FullParams(theta_ref(), phi))
    assert msg is not None


def test_validate_rejects_shape_mismatch():
    phi = AuxParams([0.0, 1.0], [0.0], [[1.0]], [0.0])
    assert validate(FullParams(theta_ref(), phi)) is not None


def test_params_arrays_read_only():
    beta = beta_ref()
    with pytest.raises(ValueError):
        beta.phi.mu1a[0] = 5.0
    with pytest.raises(ValueError):
        beta.phi.Sigma_aa[0, 0] = 5.0


def test_with_theta_replaces_primary_only():
    beta = beta_ref()
    new = beta.with_theta(PrimaryParams(0.5, 0.0, 1.0, 1.0))
    assert new.theta.pi1 == 0.5
    assert np.array_equal(new.phi.mu1a, beta.phi.mu1a)


def test_dataset_basic():
    ds = Dataset(y=[0.0, 1.0, 2.0], z=[1, 0, 1], a=[[0.1], [0.2], [0.3]])
    assert ds.n == 3 and ds.m == 1 and ds.has_z and ds.has_a
    assert ds.y[1] == 1.0 and ds.z[1] == 0 and np.array_equal(ds.a[1], [0.2])
    with pytest.raises(ValueError):
        ds.y[0] = 9.0


def test_dataset_homogeneous_presence():
    with pytest.raises(DegenerateDataError):
        Dataset(y=[0.0, 1.0], z=[1])
    with pytest.raises(DegenerateDataError):
        Dataset(y=[0.0, 1.0], z=[1, 2])
    with pytest.raises(DegenerateDataError):
        Dataset(y=[0.0, np.nan])
    with pytest.raises(DegenerateDataError):
        Dataset(y=[])


def test_dataset_take_without():
    ds = Dataset(y=[0.0, 1.0, 2.0, 3.0])
    sub = ds.take([2, 0])
    assert np.array_equal(sub.y, [2.0, 0.0])
    rest = ds.without(1)
    assert np.array_equal(rest.y, [0.0, 2.0, 3.0])


def test_dataset_column_selection():
    ds = Dataset(y=[0.0, 1.0], z=[1, 0], a=[[0.1, 10.0], [0.2, 20.0]])
    one = ds.select_aux([1])
    assert one.m == 1 and np.array_equal(one.a[:, 0], [10.0, 20.0])
    none = ds.drop_aux()
    assert not none.has_a
    noz = ds.drop_z()
    assert not noz.has_z and noz.has_a


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    ds = Dataset(
        y=rng.standard_normal(20),
        z=rng.integers(0, 2, size=20),
        a=rng.standard_normal((20, 2)),
    )
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.z, ds.z)
    assert np.array_equal(back.a, ds.a)


def test_csv_roundtrip_y_only(tmp_path):
    ds = Dataset(y=[0.5, -1.25, 3.0])
    path = tmp_path / "y.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    assert not back.has_z and not back.has_a
    assert np.array_equal(back.y, ds.y)


def test_csv_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        Dataset.from_csv(p)
    p.write_text("w,v\n1,2\n")
    with pytest.raises(ParseError):
        Dataset.from_csv(p)
    p.write_text("y,a1\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as exc:
        Dataset.from_csv(p)
    assert "line 3" in str(exc.value)
    p.write_text("y,a1\n1.0,oops\n")
    with pytest.raises(ParseError):
        Dataset.from_csv(p)
    p.write_text("y,z\n1.0,3\n")
    with pytest.raises(ParseError):
        Dataset.from_csv(p)


def test_random_primary_always_valid():
    rng = np.random.default_rng(3)
    for _ in range(200):
        assert validate(random_primary(rng)) is None
        assert validate(random_full(rng, m=2)) is None
