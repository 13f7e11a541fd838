"""Criterion values, degeneration identities, and candidate selection."""
from dataclasses import replace

import numpy as np
import pytest

from auxsel import (
    EmOptions,
    InvalidParamsError,
    aic_xb,
    aic_xy,
    aic_yb,
    aic_yy,
    estimate_info,
    fit_em_b,
    fit_em_y,
    logdens_y,
    risk_xb,
    select_auxiliary,
    tic,
    without_latent,
)
from auxsel.simlab import TrueModelSpec, generate


def fitted_setup(n=200, seed=7):
    data = generate(TrueModelSpec(), n=n, seed=seed).drop_z().select_aux([0])
    rep_b = fit_em_b(data, EmOptions(seed=0))
    rep_y = fit_em_y(data.drop_aux(), EmOptions(seed=0))
    mats_b = estimate_info(data, rep_b.params)
    mats_y = estimate_info(data.drop_aux(), rep_y.params)
    return data, rep_b, rep_y, mats_b, mats_y


DATA, REP_B, REP_Y, MATS_B, MATS_Y = fitted_setup()


def test_values_match_straight_line_formulas():
    inv = np.linalg.inv
    fit_b = -2.0 * logdens_y(REP_B.params.theta, DATA.y).sum()
    fit_y = -2.0 * logdens_y(REP_Y.params, DATA.y).sum()

    r = risk_xb(DATA, REP_B.params, MATS_B)
    want = fit_b + 2.0 * np.trace(inv(MATS_B.I_b) @ MATS_B.K_by) + np.trace(
        MATS_B.I_zy @ inv(MATS_B.I_b) @ MATS_B.J_b @ inv(MATS_B.I_b)
    )
    assert r.value == pytest.approx(want, rel=1e-9)

    axb = aic_xb(DATA, REP_B.params, MATS_B)
    want = fit_b + np.trace(MATS_B.I_x @ inv(MATS_B.I_b)) + np.trace(
        MATS_B.I_y @ inv(MATS_B.I_b)
    )
    assert axb.value == pytest.approx(want, rel=1e-9)

    axy = aic_xy(DATA, REP_Y.params, MATS_Y)
    want = fit_y + np.trace(MATS_Y.I_x @ inv(MATS_Y.I_y)) + 4.0
    assert axy.value == pytest.approx(want, rel=1e-9)

    ayb = aic_yb(DATA, REP_B.params, MATS_B)
    want = fit_b + 2.0 * np.trace(MATS_B.I_y @ inv(MATS_B.I_b))
    assert ayb.value == pytest.approx(want, rel=1e-9)

    ayy = aic_yy(DATA, REP_Y.params)
    assert ayy.value == pytest.approx(fit_y + 8.0, rel=1e-12)

    t = tic(DATA, REP_Y.params, MATS_Y)
    want = fit_y + 2.0 * np.trace(inv(MATS_Y.I_y) @ MATS_Y.J_b)
    assert t.value == pytest.approx(want, rel=1e-9)


def test_value_decomposes_exactly():
    for rep in (
        risk_xb(DATA, REP_B.params, MATS_B),
        aic_xb(DATA, REP_B.params, MATS_B),
        aic_xy(DATA, REP_Y.params, MATS_Y),
        aic_yb(DATA, REP_B.params, MATS_B),
        aic_yy(DATA, REP_Y.params),
        tic(DATA, REP_Y.params, MATS_Y),
    ):
        assert rep.value == rep.fit_term + rep.penalty
        row = rep.to_row()
        assert row["criterion"] == rep.name and row["value"] == rep.value


def test_aic_xy_decomposes_into_aic_yy_plus_latent_trace():
    axy = aic_xy(DATA, REP_Y.params, MATS_Y)
    ayy = aic_yy(DATA, REP_Y.params)
    extra = np.trace(MATS_Y.I_zy[:4, :4] @ np.linalg.inv(MATS_Y.I_y[:4, :4]))
    assert axy.value == pytest.approx(ayy.value + extra, rel=1e-10)


def test_no_latent_degenerations():
    # dropping the latent part reduces each x criterion to its y analogue
    red_b = without_latent(MATS_B)
    red_y = without_latent(MATS_Y)
    assert risk_xb(DATA, REP_B.params, red_b).penalty == pytest.approx(
        2.0 * np.trace(np.linalg.inv(red_b.I_b) @ red_b.K_by), rel=1e-10
    )
    assert aic_xb(DATA, REP_B.params, red_b).value == pytest.approx(
        aic_yb(DATA, REP_B.params, MATS_B).value, rel=1e-12
    )
    assert aic_xy(DATA, REP_Y.params, red_y).value == pytest.approx(
        aic_yy(DATA, REP_Y.params).value, rel=1e-12
    )
    # with no auxiliaries either, the robust criterion is exactly tic
    assert risk_xb(DATA, REP_Y.params, red_y).value == pytest.approx(
        tic(DATA, REP_Y.params, MATS_Y).value, rel=1e-12
    )


def test_correct_specification_collapses_risk_to_aic():
    # with J_b = I_b and K_by = I_y the robust penalty equals the aic one
    synth = replace(MATS_B, J_b=MATS_B.I_b, K_by=MATS_B.I_y)
    r = risk_xb(DATA, REP_B.params, synth)
    a = aic_xb(DATA, REP_B.params, synth)
    assert r.value == pytest.approx(a.value, rel=1e-10)


def test_aic_xb_minus_aic_yb_is_latent_trace():
    diff = (
        aic_xb(DATA, REP_B.params, MATS_B).value
        - aic_yb(DATA, REP_B.params, MATS_B).value
    )
    want = np.trace(MATS_B.I_zy @ np.linalg.inv(MATS_B.I_b))
    assert diff == pytest.approx(want, rel=1e-9)
    assert diff > -1e-8


def test_label_swap_invariance():
    sw = REP_B.params.swapped()
    mats_sw = estimate_info(DATA, sw)
    for crit, args in (
        (risk_xb, (DATA, sw, mats_sw)),
        (aic_xb, (DATA, sw, mats_sw)),
        (aic_yb, (DATA, sw, mats_sw)),
    ):
        base = crit(DATA, REP_B.params, MATS_B).value
        assert crit(*args).value == pytest.approx(base, abs=1e-6)
    sw_y = REP_Y.params.swapped()
    mats_sw_y = estimate_info(DATA.drop_aux(), sw_y)
    assert tic(DATA, sw_y, mats_sw_y).value == pytest.approx(
        tic(DATA, REP_Y.params, MATS_Y).value, abs=1e-6
    )


def test_select_prefers_smallest():
    reports = {
        "y": aic_xy(DATA, REP_Y.params, MATS_Y),
        "a1": aic_xb(DATA, REP_B.params, MATS_B),
    }
    sel = select_auxiliary(reports)
    assert sel.label == min(reports, key=lambda k: reports[k].value)
    assert sel.margin == pytest.approx(
        abs(reports["a1"].value - reports["y"].value)
    )
    assert set(sel.values) == {"y", "a1"}


def test_select_tie_breaks_to_no_aux():
    base = aic_yy(DATA, REP_Y.params)
    from dataclasses import replace

    tied = replace(base, name="aic_yb")
    sel = select_auxiliary({"a1": tied, "y": base})
    assert sel.label == "y"
    assert sel.margin == 0.0
    sel2 = select_auxiliary({"a1": tied, "a2": replace(tied, name="aic_yb")})
    assert sel2.label == "a1"


def test_select_rejects_mixed_targets():
    with pytest.raises(InvalidParamsError):
        select_auxiliary(
            {
                "y": aic_yy(DATA, REP_Y.params),
                "a1": aic_xb(DATA, REP_B.params, MATS_B),
            }
        )
    with pytest.raises(InvalidParamsError):
        select_auxiliary({})


def test_select_accepts_comparable_pairs():
    sel = select_auxiliary(
        {
            "y": aic_yy(DATA, REP_Y.params),
            "a1": aic_yb(DATA, REP_B.params, MATS_B),
        }
    )
    assert sel.label in {"y", "a1"}
    # robust x-target pair: the no-auxiliary side uses the collapsed matrices
    sel2 = select_auxiliary(
        {
            "y": risk_xb(DATA, REP_Y.params, MATS_Y),
            "a1": risk_xb(DATA, REP_B.params, MATS_B),
        }
    )
    assert sel2.label in {"y", "a1"}
    # mixing the y-target tic into an x-target comparison is refused
    with pytest.raises(InvalidParamsError):
        select_auxiliary(
            {
                "y": tic(DATA, REP_Y.params, MATS_Y),
                "a1": risk_xb(DATA, REP_B.params, MATS_B),
            }
        )


def test_clear_cut_sample_selects_auxiliary():
    # at n=200 with a strongly informative auxiliary the x-target AIC
    # favours the auxiliary fit
    sel = select_auxiliary(
        {
            "y": aic_xy(DATA, REP_Y.params, MATS_Y),
            "a1": aic_xb(DATA, REP_B.params, MATS_B),
        }
    )
    assert sel.label == "a1"
