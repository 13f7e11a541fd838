"""Parameter blocks, the flat parameter layout, and dataset containers.

The primary variable y carries a two-component location mixture with a
shared variance; auxiliary variables a extend it to a joint mixture with
a shared covariance.  Everything downstream (EM, information matrices,
criteria) works on these containers and on the fixed flat layout

    (pi1, mu1y, mu2y, sigy2, mu1a, mu2a, vech(Sigma_aa), sigma_ya)

so that derivative code, penalty traces and reports all index parameters
the same way.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

SIGMA_FLOOR = 1e-6   # smallest admissible variance / covariance eigenvalue
D_THETA = 4          # size of the primary block (pi1, mu1y, mu2y, sigy2)


class AuxselError(Exception):
    """Base class for the package's structured failures."""


class InvalidParamsError(AuxselError, ValueError):
    """Parameter block violates its constraints."""


class DegenerateDataError(AuxselError, ValueError):
    """Data cannot support the requested fit (e.g. all values identical)."""


class ParseError(AuxselError, ValueError):
    """Malformed input file; message names the file and offending line."""


class NumericalError(AuxselError, ArithmeticError):
    """Non-finite or numerically meaningless intermediate result."""


class IllConditionedError(NumericalError):
    """Matrix inversion refused; carries the condition number estimate."""

    def __init__(self, cond, limit):
        self.cond = float(cond)
        self.limit = float(limit)
        super().__init__(
            f"condition number {self.cond:.3e} exceeds limit {self.limit:.3e}"
        )


def _readonly(arr, dtype=float):
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PrimaryParams:
    """Mixture parameters of the primary variable: pi1, mu1y, mu2y, sigy2."""

    pi1: float
    mu1y: float
    mu2y: float
    sigy2: float

    def to_flat(self):
        return np.array([self.pi1, self.mu1y, self.mu2y, self.sigy2])

    @classmethod
    def from_flat(cls, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (D_THETA,):
            raise InvalidParamsError(f"expected {D_THETA} entries, got shape {vec.shape}")
        return cls(*vec)

    def swapped(self):
        """Same distribution with the component labels exchanged."""
        return PrimaryParams(1.0 - self.pi1, self.mu2y, self.mu1y, self.sigy2)

    @property
    def theta(self):
        """The primary block, as :attr:`FullParams.theta` gives it."""
        return self


@dataclass(frozen=True)
class AuxParams:
    """Auxiliary block: component means, shared Sigma_aa and cross part sigma_ya."""

    mu1a: np.ndarray
    mu2a: np.ndarray
    Sigma_aa: np.ndarray
    sigma_ya: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu1a", _readonly(np.atleast_1d(self.mu1a)))
        object.__setattr__(self, "mu2a", _readonly(np.atleast_1d(self.mu2a)))
        object.__setattr__(self, "Sigma_aa", _readonly(np.atleast_2d(self.Sigma_aa)))
        object.__setattr__(self, "sigma_ya", _readonly(np.atleast_1d(self.sigma_ya)))

    @property
    def m(self):
        return self.mu1a.shape[0]


@dataclass(frozen=True)
class FullParams:
    """Joint parameters beta = (theta, phi) of (y, a)."""

    theta: PrimaryParams
    phi: AuxParams

    @property
    def m(self):
        return self.phi.m

    def component_mean(self, k):
        """Mean of component k (1 or 2) of the joint (y, a) mixture."""
        if k == 1:
            return np.concatenate(([self.theta.mu1y], self.phi.mu1a))
        return np.concatenate(([self.theta.mu2y], self.phi.mu2a))

    def joint_cov(self):
        """Shared covariance of (y, a): [[sigy2, sigma_ya'], [sigma_ya, Sigma_aa]]."""
        m = self.m
        S = np.empty((1 + m, 1 + m))
        S[0, 0] = self.theta.sigy2
        S[0, 1:] = self.phi.sigma_ya
        S[1:, 0] = self.phi.sigma_ya
        S[1:, 1:] = self.phi.Sigma_aa
        return S

    def swapped(self):
        """Same joint distribution with the component labels exchanged."""
        phi = AuxParams(self.phi.mu2a, self.phi.mu1a, self.phi.Sigma_aa, self.phi.sigma_ya)
        return FullParams(self.theta.swapped(), phi)

    def with_theta(self, theta):
        return FullParams(theta, self.phi)


def vech(M):
    """Stack the lower triangle of a symmetric matrix row by row."""
    M = np.asarray(M)
    i, j = np.tril_indices(M.shape[0])
    return M[i, j]


def unvech(v, m):
    """Inverse of :func:`vech` for an m-by-m symmetric matrix."""
    out = np.zeros((m, m))
    i, j = np.tril_indices(m)
    out[i, j] = v
    out[j, i] = v
    return out


def flat_dim(m):
    """Total parameter count d + f for m auxiliary variables."""
    return D_THETA + 2 * m + m * (m + 1) // 2 + m


def flatten(params):
    """Flat vector of a FullParams (or PrimaryParams) in the fixed layout."""
    if isinstance(params, PrimaryParams):
        return params.to_flat()
    theta, phi = params.theta, params.phi
    return np.concatenate((
        theta.to_flat(), phi.mu1a, phi.mu2a, vech(phi.Sigma_aa), phi.sigma_ya,
    ))


def unflatten(vec, m):
    """Rebuild a FullParams from its flat layout (no validity checks)."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (flat_dim(m),):
        raise InvalidParamsError(
            f"expected {flat_dim(m)} entries for m={m}, got shape {vec.shape}"
        )
    theta = PrimaryParams(*vec[:D_THETA])
    k = D_THETA
    mu1a = vec[k:k + m]; k += m
    mu2a = vec[k:k + m]; k += m
    nv = m * (m + 1) // 2
    Saa = unvech(vec[k:k + nv], m); k += nv
    sya = vec[k:k + m]
    return FullParams(theta, AuxParams(mu1a, mu2a, Saa, sya))


def validate(params):
    """Return None if the block is admissible, else a description of the
    first violated constraint.

    PrimaryParams: pi1 strictly inside (0, 1), sigy2 >= SIGMA_FLOOR, all
    entries finite.  FullParams additionally require consistent auxiliary
    shapes and a positive definite joint covariance (checked by Cholesky).
    """
    theta = params.theta
    vals = theta.to_flat()
    if not np.all(np.isfinite(vals)):
        return "non-finite primary parameter"
    if not 0.0 < theta.pi1 < 1.0:
        return "pi1 outside the open interval (0, 1)"
    if theta.sigy2 < SIGMA_FLOOR:
        return f"sigy2 below the variance floor {SIGMA_FLOOR:g}"
    if isinstance(params, PrimaryParams):
        return None

    phi = params.phi
    m = phi.mu1a.shape[0]
    if m < 1:
        return "auxiliary block present but empty"
    if phi.mu2a.shape != (m,) or phi.sigma_ya.shape != (m,):
        return "auxiliary mean / cross-covariance shapes disagree"
    if phi.Sigma_aa.shape != (m, m):
        return "Sigma_aa is not m-by-m"
    S = params.joint_cov()
    if not np.all(np.isfinite(np.concatenate([S.ravel(), phi.mu1a, phi.mu2a]))):
        return "non-finite auxiliary parameter"
    # np.allclose(S, S.T, atol=1e-12) for finite S, without its call overhead
    if not np.all(np.abs(S - S.T) <= 1e-12 + 1e-5 * np.abs(S.T)):
        return "joint covariance not symmetric"
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return "joint covariance not positive definite"
    if np.min(np.diag(L)) ** 2 < SIGMA_FLOOR * 1e-6:
        return "joint covariance numerically singular"
    return None


def _admissible(pi1, mu, S):
    """:func:`validate` over a stack of L blocks held as arrays: pi1
    shaped (L,), the component means mu shaped (2, L, q) and the
    covariance S shaped (L, q, q), where q = 1 stands for a PrimaryParams
    block.  True where a block is admissible."""
    S = np.asarray(S, dtype=float)
    sigy2 = S[:, 0, 0]
    ok = np.isfinite(pi1) & np.isfinite(mu).all(axis=(0, 2)) & np.isfinite(sigy2)
    ok &= (0.0 < pi1) & (pi1 < 1.0) & (sigy2 >= SIGMA_FLOOR)
    if S.shape[-1] == 1:
        return ok
    ok &= np.isfinite(S).all(axis=(1, 2))
    ok &= np.isclose(S, S.transpose(0, 2, 1), atol=1e-12).all(axis=(1, 2))
    dmin = np.full(ok.size, np.nan)   # NaN fails the singularity test below
    try:
        dmin[ok] = np.diagonal(np.linalg.cholesky(S[ok]), axis1=1, axis2=2).min(axis=1)
    except np.linalg.LinAlgError:   # some block is not positive definite
        for k in np.flatnonzero(ok):
            try:
                dmin[k] = np.diag(np.linalg.cholesky(S[k])).min()
            except np.linalg.LinAlgError:
                pass
    return ok & (dmin ** 2 >= SIGMA_FLOOR * 1e-6)


def require_valid(params):
    msg = validate(params)
    if msg is not None:
        raise InvalidParamsError(msg)
    return params


@dataclass(frozen=True)
class Dataset:
    """Column-oriented sample with homogeneous presence of z and a.

    y is an (n,) float array; z is an (n,) int array of 0/1 labels or
    None; a is an (n, m) float array or None.  All arrays are read-only.
    """

    y: np.ndarray
    z: np.ndarray | None = None
    a: np.ndarray | None = None

    def __post_init__(self):
        y = _readonly(np.atleast_1d(self.y))
        if y.ndim != 1 or y.size == 0:
            raise DegenerateDataError("y must be a non-empty 1-d array")
        if not np.all(np.isfinite(y)):
            raise DegenerateDataError("y contains non-finite values")
        object.__setattr__(self, "y", y)
        if self.z is not None:
            z = _readonly(self.z, dtype=int)
            if z.shape != y.shape:
                raise DegenerateDataError("z length differs from y")
            if not np.all((z == 0) | (z == 1)):
                raise DegenerateDataError("z entries must be 0 or 1")
            object.__setattr__(self, "z", z)
        if self.a is not None:
            a = np.array(self.a, dtype=float)
            if a.ndim == 1:
                a = a[:, None]
            if a.shape[0] != y.shape[0] or a.shape[1] == 0:
                raise DegenerateDataError("a has inconsistent shape")
            if not np.all(np.isfinite(a)):
                raise DegenerateDataError("a contains non-finite values")
            object.__setattr__(self, "a", _readonly(a))

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def m(self):
        return 0 if self.a is None else self.a.shape[1]

    @property
    def has_z(self):
        return self.z is not None

    @property
    def has_a(self):
        return self.a is not None

    def take(self, idx):
        """Row subset (fancy-indexed, preserves column presence)."""
        idx = np.asarray(idx)
        return Dataset(
            self.y[idx],
            None if self.z is None else self.z[idx],
            None if self.a is None else self.a[idx],
        )

    def without(self, i):
        """All rows but the i-th (leave-one-out)."""
        keep = np.arange(self.n) != i
        return self.take(keep)

    def select_aux(self, cols):
        """Keep only the listed auxiliary columns (0-based)."""
        if self.a is None:
            raise DegenerateDataError("dataset has no auxiliary columns")
        cols = list(cols)
        return Dataset(self.y, self.z, self.a[:, cols])

    def drop_aux(self):
        return Dataset(self.y, self.z, None)

    def drop_z(self):
        return Dataset(self.y, None, self.a)

    def to_csv(self, path):
        """Write as CSV with header y[,z][,a1..am]; floats round-trip exactly."""
        header = ["y"]
        if self.has_z:
            header.append("z")
        header += [f"a{j + 1}" for j in range(self.m)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i in range(self.n):
                row = [repr(float(self.y[i]))]
                if self.has_z:
                    row.append(str(int(self.z[i])))
                row += [repr(float(v)) for v in (self.a[i] if self.has_a else ())]
                w.writerow(row)

    @classmethod
    def from_csv(cls, path):
        """Read a dataset written by :meth:`to_csv` (column order y, z?, a1..)."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ParseError(f"{path}: empty file")
        header = [h.strip() for h in rows[0]]
        if not header or header[0] != "y":
            raise ParseError(f"{path}: first column must be 'y'")
        has_z = len(header) > 1 and header[1] == "z"
        a_names = header[(2 if has_z else 1):]
        expect = [f"a{j + 1}" for j in range(len(a_names))]
        if a_names != expect:
            raise ParseError(f"{path}: auxiliary columns must be {expect}, got {a_names}")
        y, z, a = [], [], []
        for ln, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: line {ln}: expected {len(header)} fields")
            try:
                y.append(float(row[0]))
                if has_z:
                    z.append(int(row[1]))
                a.append([float(v) for v in row[(2 if has_z else 1):]])
            except ValueError as exc:
                raise ParseError(f"{path}: line {ln}: {exc}") from None
        try:
            return cls(
                np.array(y),
                np.array(z) if has_z else None,
                np.array(a) if a and a[0] else None,
            )
        except DegenerateDataError as exc:
            raise ParseError(f"{path}: {exc}") from None
