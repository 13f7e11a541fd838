"""Tests of the benchmark's own references and bookkeeping.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""
import math

import numpy as np

import references as ref
import tracing
import workloads


def test_quad_gives_normal_entropy():
    for mean, var in ((0.0, 1.0), (-1.2, 0.7), (3.0, 0.01)):
        got = ref.expect_normal(lambda t: -ref._norm_logpdf_scalar(t, mean, var), mean, var)
        assert abs(got - 0.5 * math.log(2.0 * math.pi * math.e * var)) < 1e-13


def test_loss_x_matches_closed_form():
    # E[-log N(t; mu, s2)] under N(m, v) is 0.5 (log 2 pi s2 + (v + (m - mu)^2) / s2)
    pi, m1, m2, v = workloads.TRUTH
    theta = (0.45, -0.8, 1.5, 0.9)

    def cross(m, mu, s2):
        return 0.5 * (math.log(2.0 * math.pi * s2) + (v + (m - mu) ** 2) / s2)

    def one(p1, a, b, s2):
        return (pi * (-math.log(p1) + cross(m1, a, s2))
                + (1.0 - pi) * (-math.log1p(-p1) + cross(m2, b, s2)))

    want = min(one(*theta), one(1.0 - theta[0], theta[2], theta[1], theta[3]))
    assert abs(ref.loss_x(theta, workloads.TRUTH) - want) < 1e-13


def test_loss_y_of_merged_components_is_normal_cross_entropy():
    pi, m1, m2, v = workloads.TRUTH
    mu, s2 = 0.3, 2.0
    want = sum(w * 0.5 * (math.log(2.0 * math.pi * s2) + (v + (m - mu) ** 2) / s2)
               for w, m in ((pi, m1), (1.0 - pi, m2)))
    assert abs(ref.loss_y((0.3, mu, mu, s2), workloads.TRUTH) - want) < 1e-12


def test_losses_are_smallest_at_the_truth():
    truth = workloads.TRUTH
    for theta in ((0.5, -1.0, 1.0, 0.8), (0.7, -1.3, 1.1, 0.6), (0.4, 1.0, -1.4, 0.5)):
        assert ref.loss_x(theta, truth) > ref.loss_x(truth, truth)
        assert ref.loss_y(theta, truth) > ref.loss_y(truth, truth)
    # exchanging the component labels leaves both losses unchanged
    swapped = (1.0 - truth[0], truth[2], truth[1], truth[3])
    assert abs(ref.loss_x(swapped, truth) - ref.loss_x(truth, truth)) < 1e-14
    assert abs(ref.loss_y(swapped, truth) - ref.loss_y(truth, truth)) < 1e-14


def test_optimizer_recovers_well_separated_mixture():
    rng = np.random.default_rng(5)
    z = rng.random(2000) < 0.3
    y = np.where(z, -5.0, 5.0) + rng.standard_normal(2000)
    best, (pi1, mu1, mu2, s2) = ref.y_mixture_max_loglik(y)
    if mu1 > mu2:
        pi1, mu1, mu2 = 1.0 - pi1, mu2, mu1
    assert abs(pi1 - 0.3) < 0.03 and abs(mu1 + 5.0) < 0.1 and abs(mu2 - 5.0) < 0.1
    assert abs(s2 - 1.0) < 0.1
    at_truth = float(np.sum(ref.mixture_logpdf(y, 0.3, -5.0, 5.0, 1.0)))
    assert best >= at_truth


def test_read_selection_keeps_unquoted_multi_column_labels(tmp_path):
    path = tmp_path / "selection.csv"
    path.write_text("candidate,criterion,value,selected\n"
                    "y,aic_xy,10.5,False\n"
                    "a1,a2,aic_xb,9.5,True\n")
    rows = workloads.read_selection(path)
    assert rows[1] == {"candidate": "a1,a2", "criterion": "aic_xb",
                       "value": "9.5", "selected": "True"}


def test_self_times_add_up_to_the_root():
    tr = tracing.Tracer()
    tr.spans = [["round", 0.0, 10.0, -1], ["wine", 1.0, 9.0, 0],
                ["gmm.fit_em_b", 2.0, 5.0, 1], ["model.dataset", 3.0, 4.0, 2],
                ["infomat.estimate_info", 6.0, 8.0, 1]]
    st = tr.self_times()
    assert st["round"][2] == 2.0 and st["wine"][2] == 3.0
    assert st["gmm.fit_em_b"][2] == 2.0 and st["model.dataset"][2] == 1.0
    assert sum(row[2] for row in st.values()) == st["round"][1]
