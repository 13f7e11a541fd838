"""Wine data ingestion, preprocessing, and the split experiment."""
import numpy as np
import pytest

from auxsel import Dataset, EmOptions, ParseError
from auxsel.wine import (
    WINE_COLS,
    WINE_ROWS,
    WineConfig,
    bundled_wine_path,
    load_wine,
    preprocess,
    run_wine,
)
from auxsel.gmm import fit_em_b, fit_em_y
from auxsel.model import flatten


def test_bundled_file_loads():
    path = bundled_wine_path()
    raw = load_wine(path)
    assert raw.shape == (WINE_ROWS, WINE_COLS)
    classes, counts = np.unique(raw[:, 0], return_counts=True)
    assert np.array_equal(classes, [1.0, 2.0, 3.0])
    assert np.array_equal(counts, [59, 71, 48])
    # spot check against the canonical first row
    assert raw[0, 0] == 1.0
    assert raw[0, 1] == pytest.approx(14.23)
    assert raw[0, 13] == pytest.approx(1065.0)


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.data"
    p.write_text("")
    with pytest.raises(ParseError):
        load_wine(p)
    p.write_text("1," + ",".join(["1.0"] * 12) + "\n")
    with pytest.raises(ParseError) as exc:
        load_wine(p)
    assert "line 1" in str(exc.value)
    p.write_text("5," + ",".join(["1.0"] * 13) + "\n")
    with pytest.raises(ParseError):
        load_wine(p)
    p.write_text("1," + ",".join(["1.0"] * 13) + "\n")
    with pytest.raises(ParseError):
        load_wine(p)  # strict row count
    raw = load_wine(p, strict=False)
    assert raw.shape == (1, 14)


def small_wine_config(**kw):
    base = dict(csv_path=bundled_wine_path(), em=EmOptions(restarts=4, seed=0))
    base.update(kw)
    return WineConfig(**base)


def test_preprocess_standardizes():
    cfg = small_wine_config()
    raw = load_wine(cfg.csv_path)
    ds = preprocess(raw, y_col=1, config=cfg)
    assert ds.n == 130 and ds.m == 12 and ds.has_z
    assert ds.z.sum() == 59  # class 1 maps to z = 1
    assert ds.y.mean() == pytest.approx(0.0, abs=1e-12)
    assert ds.y.var(ddof=1) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(ds.a.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(ds.a.var(axis=0, ddof=1), 1.0, rtol=1e-12)
    # standardization is over the kept rows only
    kept = raw[np.isin(raw[:, 0], (1, 2)), 1]
    assert np.allclose(ds.y, (kept - kept.mean()) / kept.std(ddof=1))


def test_preprocess_column_mapping():
    cfg = small_wine_config()
    raw = load_wine(cfg.csv_path)
    ds5 = preprocess(raw, y_col=5, config=cfg)
    kept = raw[np.isin(raw[:, 0], (1, 2))]
    v = kept[:, 1:]
    vs = (v - v.mean(axis=0)) / v.std(axis=0, ddof=1)
    assert np.allclose(ds5.y, vs[:, 4])
    # auxiliaries keep original order, skipping the primary column
    assert np.allclose(ds5.a[:, 0], vs[:, 0])
    assert np.allclose(ds5.a[:, 3], vs[:, 3])
    assert np.allclose(ds5.a[:, 4], vs[:, 5])
    assert np.allclose(ds5.a[:, 11], vs[:, 12])
    with pytest.raises(ValueError):
        preprocess(raw, y_col=14, config=cfg)


def test_training_never_sees_labels():
    # shuffling z leaves every fitted parameter identical
    cfg = small_wine_config()
    raw = load_wine(cfg.csv_path)
    ds = preprocess(raw, y_col=3, config=cfg)
    rng = np.random.default_rng(70)
    shuffled = Dataset(ds.y, rng.permutation(ds.z), ds.a)
    opts = EmOptions(restarts=3, seed=0)
    train = np.arange(0, 86)
    f1 = fit_em_y(ds.take(train).drop_z().drop_aux(), opts)
    f2 = fit_em_y(shuffled.take(train).drop_z().drop_aux(), opts)
    assert np.array_equal(f1.params.to_flat(), f2.params.to_flat())
    b1 = fit_em_b(ds.take(train).drop_z().select_aux([0]), opts)
    b2 = fit_em_b(shuffled.take(train).drop_z().select_aux([0]), opts)
    assert np.array_equal(flatten(b1.params), flatten(b2.params))


def test_config_validates_partition():
    with pytest.raises(ValueError):
        small_wine_config(n_train=100, n_test=44)


def test_run_wine_small_deterministic():
    cfg = small_wine_config(n_splits=3, em=EmOptions(restarts=3, seed=0))
    rows1 = run_wine(cfg, y_cols=[2])
    rows2 = run_wine(cfg, y_cols=[2])
    assert len(rows1) == 1
    row = rows1[0]
    assert row["y_col"] == "V2"
    assert row["splits_used"] + row["splits_excluded"] == 3
    assert np.isfinite(row["gain_mean"])
    assert rows1 == rows2


def test_run_wine_worker_invariance():
    cfg1 = small_wine_config(n_splits=2, em=EmOptions(restarts=3, seed=0), workers=1)
    cfg2 = small_wine_config(n_splits=2, em=EmOptions(restarts=3, seed=0), workers=2)
    assert run_wine(cfg1, y_cols=[7]) == run_wine(cfg2, y_cols=[7])
