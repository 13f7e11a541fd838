"""Reference values computed apart from auxsel.

Nothing here imports the package: the normal log densities, the
expected losses under the generating model (adaptive quadrature from
scipy, not the package's Gauss-Hermite rule) and the maximum-likelihood
fit of the y mixture (multi-start Nelder-Mead, not EM) are written out
from their definitions, so the benchmark can check the package's
outputs against them.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

LOG_2PI = math.log(2.0 * math.pi)
U_MAX = 40.0   # half-width of the standardized quadrature interval


def norm_logpdf(t, mean, var):
    """Log density of N(mean, var) at t (scalar or array)."""
    return -0.5 * (LOG_2PI + np.log(var) + (t - mean) ** 2 / var)


# Scalar forms for the quadrature integrands: math on floats is several
# times faster than numpy on 0-d values, and quad calls them ~10^3 times.
def _norm_logpdf_scalar(t, mean, var):
    return -0.5 * (LOG_2PI + math.log(var) + (t - mean) ** 2 / var)


def _mixture_logpdf_scalar(t, pi1, mu1, mu2, s2):
    l1 = math.log(pi1) + _norm_logpdf_scalar(t, mu1, s2)
    l2 = math.log1p(-pi1) + _norm_logpdf_scalar(t, mu2, s2)
    hi, lo = (l1, l2) if l1 >= l2 else (l2, l1)
    return hi + math.log1p(math.exp(lo - hi))


def expect_normal(f, mean, var):
    """E[f(T)] for T ~ N(mean, var) by adaptive quadrature.

    The integral runs in the standardized variable u = (T - mean) / sd
    over [-U_MAX, U_MAX]; the Gaussian weight beyond is below exp(-800),
    which is zero in double precision.
    """
    sd = math.sqrt(var)

    def integrand(u):
        return math.exp(-0.5 * u * u - 0.5 * LOG_2PI) * f(mean + sd * u)

    value, _ = integrate.quad(integrand, -U_MAX, U_MAX,
                              epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def mixture_logpdf(t, pi1, mu1, mu2, s2):
    """Log density of the two-component, shared-variance normal mixture."""
    return np.logaddexp(math.log(pi1) + norm_logpdf(t, mu1, s2),
                        math.log1p(-pi1) + norm_logpdf(t, mu2, s2))


def loss_x(theta, truth):
    """Expected complete-data negative log density of a fit under the truth.

    ``theta`` and ``truth`` are (pi1, mu1, mu2, s2) tuples; component 1
    carries label z = 1.  A mixture fit's labels are arbitrary, so the
    smaller of the two label assignments is returned.
    """
    pi, m1, m2, v = truth

    def one(pi1, mu1, mu2, s2):
        e1 = expect_normal(lambda t: _norm_logpdf_scalar(t, mu1, s2), m1, v)
        e2 = expect_normal(lambda t: _norm_logpdf_scalar(t, mu2, s2), m2, v)
        return -(pi * (math.log(pi1) + e1) + (1.0 - pi) * (math.log1p(-pi1) + e2))

    p1, a, b, s2 = theta
    return min(one(p1, a, b, s2), one(1.0 - p1, b, a, s2))


def loss_y(theta, truth):
    """Expected negative log density of y (labels summed out) under the truth."""
    pi, m1, m2, v = truth
    e1 = expect_normal(lambda t: _mixture_logpdf_scalar(t, *theta), m1, v)
    e2 = expect_normal(lambda t: _mixture_logpdf_scalar(t, *theta), m2, v)
    return -(pi * e1 + (1.0 - pi) * e2)


def _unpack(u):
    """Unconstrained (logit pi1, mu1, mu2, log s2) to mixture parameters."""
    return 1.0 / (1.0 + math.exp(-u[0])), u[1], u[2], math.exp(u[3])


def y_mixture_max_loglik(y, starts=12, seed=0):
    """Largest summed log likelihood of the y mixture found by Nelder-Mead.

    Starts pair quantiles of y and add seeded random ones; the best
    optimum is polished by a second Nelder-Mead run from where it ended.
    Returns (max log likelihood, (pi1, mu1, mu2, s2)).
    """
    y = np.asarray(y, dtype=float)

    def nll(u):
        if not np.all(np.isfinite(u)) or abs(u[0]) > 50 or abs(u[3]) > 50:
            return np.inf
        return -float(np.sum(mixture_logpdf(y, *_unpack(u))))

    rng = np.random.default_rng(seed)
    logv = math.log(float(np.var(y)))
    inits = [(0.0, *np.quantile(y, q), logv - math.log(4.0))
             for q in ((0.2, 0.8), (0.1, 0.6), (0.4, 0.9))]
    while len(inits) < starts:
        lo, hi = np.sort(rng.choice(y, 2, replace=False))
        inits.append((rng.normal(0.0, 1.0), lo, hi, logv + rng.uniform(-2.0, 0.0)))
    opts = {"xatol": 1e-10, "fatol": 1e-10, "maxiter": 20000, "maxfev": 40000}
    best = None
    for u0 in inits:
        res = optimize.minimize(nll, np.array(u0, dtype=float),
                                method="Nelder-Mead", options=opts)
        if best is None or res.fun < best.fun:
            best = res
    best = optimize.minimize(nll, best.x, method="Nelder-Mead", options=opts)
    return -float(best.fun), _unpack(best.x)
