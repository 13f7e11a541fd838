"""Shared helpers for the test suite."""
import os

# One OpenBLAS thread per process, set before numpy loads: on the suite's
# small arrays a second thread doubles CPU time and gains no wall time, and
# the study fixtures already spread their work over worker processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from auxsel import AuxParams, FullParams, PrimaryParams


def theta_ref():
    return PrimaryParams(0.6, -1.2, 1.2, 0.7)


def beta_ref():
    # one auxiliary column, independent of y given z
    return FullParams(theta_ref(), AuxParams([1.8], [-1.8], [[0.49]], [0.0]))


def random_primary(rng):
    return PrimaryParams(
        pi1=rng.uniform(0.1, 0.9),
        mu1y=rng.uniform(-3.0, 3.0),
        mu2y=rng.uniform(-3.0, 3.0),
        sigy2=rng.uniform(0.2, 3.0),
    )


def random_full(rng, m=1):
    # joint covariance built as A A' + 0.1 I, always well conditioned
    q = 1 + m
    a = rng.standard_normal((q, q))
    cov = a @ a.T + 0.1 * np.eye(q)
    theta = PrimaryParams(
        pi1=rng.uniform(0.1, 0.9),
        mu1y=rng.uniform(-3.0, 3.0),
        mu2y=rng.uniform(-3.0, 3.0),
        sigy2=cov[0, 0],
    )
    phi = AuxParams(
        mu1a=rng.uniform(-3.0, 3.0, size=m),
        mu2a=rng.uniform(-3.0, 3.0, size=m),
        Sigma_aa=cov[1:, 1:],
        sigma_ya=cov[0, 1:],
    )
    return FullParams(theta, phi)
