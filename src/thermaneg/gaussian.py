"""Thermal covariances of quadratic models and Gaussian log-negativity.

The covariance of the Gibbs state at temperature T splits into a
position block V^{-1/2} W(T) and a momentum block V^{1/2} W(T), where
W(T) applies coth(sqrt(lambda)/(2T)) to each eigenvalue lambda of the
potential V.  At T = 0 the weight matrix W is the identity and the
state is pure.

Log-negativity across a bipartition P (diagonal sign matrix) is
computed by two deliberately independent routes:

* spectral route: in the eigenbasis U of V, with s = sqrt(lambda),
  w = coth(s/2T), M = U^T P U, D+ = diag(s/w) and D- = diag(1/(w s)),
  the partially transposed product Q = P w- P w+ (w-+ = W^{-1}
  V^{-+1/2}) satisfies U^T Q U = M D- M D+, which is similar to A A^T
  with A = D+^{1/2} M D-^{1/2}.  E_l sums log2 of the eigenvalues of
  the symmetric A A^T above 1, so the spectrum is real by construction.
* sign-flip oracle: momentum signs of the +1 block are flipped on the
  full covariance, then E_l sums -log2 over the sub-unit eigenvalues
  of the position-times-flipped-momentum product, a nonsymmetric
  eigenproblem.  It shares only the eigendecomposition of V with the
  spectral route, and the two agree to solver precision.

Convention note: each sub-unit eigenvalue in the oracle is the square
of a symplectic eigenvalue nu of the sign-flipped covariance, so the
E_l reported here equals Sum max(0, -2 log2 nu).  That is twice the
-log2(nu) normalization some other libraries use.  The single-mode
helpers below report E_N = (1 - nu)/nu, whose log form
log2(1 + E_N) = -log2(nu) sits on that halved scale.  Zero sets agree
in every convention, so PPT verdicts and threshold temperatures never
depend on the choice; only nonzero magnitudes do.  Where both appear
in one table the columns are computed per these definitions and the
discrepancy is intentional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import build_star_potential

__all__ = [
    "MatrixFunctionPair",
    "ThermalGaussianState",
    "GaussianModel",
    "matrix_sqrt_pair",
    "thermal_covariance",
    "symplectic_spectrum",
    "log_negativity_spectral",
    "log_negativity_symplectic_oracle",
    "star_reduced_closed_form",
    "single_mode_negativity",
    "star_macroscopic_limit_trend",
    "star_hub_negativity_from_covariance",
]

# Eigenvalues of the partially transposed product that exceed 1 by less
# than this are treated as 1 (pure numerical noise must not contribute).
_UNIT_CUTOFF = 1e-12
# Imaginary parts beyond this fraction of the spectral radius mean the
# eigensolver failed on a matrix that is similar to a symmetric one.
_IMAG_TOL = 1e-9


def _entries(v) -> np.ndarray:
    return np.asarray(getattr(v, "entries", v), dtype=float)


def _labels(p) -> np.ndarray:
    return np.asarray(getattr(p, "labels", p), dtype=float)


@dataclass(frozen=True)
class MatrixFunctionPair:
    """Square root and inverse square root of one positive matrix."""

    sqrt: np.ndarray
    inv_sqrt: np.ndarray


@dataclass(frozen=True)
class ThermalGaussianState:
    """Position and momentum covariance blocks of a Gibbs state.

    Both blocks are symmetric positive definite; at T = 0 they are
    mutually inverse and all symplectic eigenvalues equal 1.
    """

    x_block: np.ndarray
    p_block: np.ndarray
    temperature: float


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


class GaussianModel:
    """One potential matrix with its eigendecomposition cached.

    Every quantity of interest is a spectral function of V, so a single
    symmetric eigendecomposition serves all temperatures and all
    partitions.  Instances are immutable and safe to share across
    worker threads.
    """

    def __init__(self, potential):
        v = _entries(potential)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"potential must be square, got shape {v.shape}")
        lam, u = np.linalg.eigh(_sym(v))
        if lam[0] <= 0.0:
            raise ValueError(
                f"potential matrix is not positive definite (minimum eigenvalue {lam[0]})"
            )
        self.n = v.shape[0]
        self._lam = lam
        self._u = u
        self._s = np.sqrt(lam)

    def _weights(self, temperature: float) -> np.ndarray:
        """Diagonal of W(T) in the eigenbasis of V.

        As T -> inf, s/2T -> 0 and coth diverges; the infinite weights
        are that exact limit, and they make the log-negativity 0.
        """
        if not temperature >= 0.0:
            raise ValueError(f"temperature must be nonnegative, got {temperature}")
        if temperature == 0.0:
            return np.ones_like(self._s)
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / np.tanh(self._s / (2.0 * temperature))

    def covariance(self, temperature: float) -> ThermalGaussianState:
        w = self._weights(temperature)
        u = self._u
        x = _sym((u * (w / self._s)) @ u.T)
        p = _sym((u * (w * self._s)) @ u.T)
        return ThermalGaussianState(x_block=x, p_block=p, temperature=temperature)

    def log_negativity(self, temperature: float, partition) -> float:
        """Spectral-route E_l in bits across the given partition."""
        signs = _labels(partition)
        if signs.shape != (self.n,):
            raise ValueError(
                f"partition of size {signs.shape} does not match model size {self.n}"
            )
        w = self._weights(temperature)
        u = self._u
        # A = D+^{1/2} (U^T P U) D-^{1/2}; A A^T has the spectrum of Q
        a = u.T @ (signs[:, None] * u)
        a *= np.sqrt(self._s / w)[:, None]
        a *= np.sqrt(1.0 / (w * self._s))[None, :]
        ev = np.linalg.eigvalsh(a @ a.T)
        gains = ev[ev > 1.0 + _UNIT_CUTOFF]
        return float(np.sum(np.log2(gains))) if gains.size else 0.0

    def negativity_pair(self, temperature: float, partition) -> tuple:
        """(E_N, E_l) with E_N = 2**E_l - 1."""
        el = self.log_negativity(temperature, partition)
        return (2.0**el - 1.0, el)


def matrix_sqrt_pair(potential) -> MatrixFunctionPair:
    """Spectral square root and inverse square root of a positive matrix."""
    v = _sym(_entries(potential))
    lam, u = np.linalg.eigh(v)
    if lam[0] <= 0.0:
        raise ValueError(
            f"matrix square root needs a positive definite input "
            f"(minimum eigenvalue {lam[0]})"
        )
    s = np.sqrt(lam)
    return MatrixFunctionPair(
        sqrt=_sym((u * s) @ u.T),
        inv_sqrt=_sym((u / s) @ u.T),
    )


def thermal_covariance(potential, temperature: float) -> ThermalGaussianState:
    """Covariance blocks of the Gibbs state at the given temperature.

    The weight function is evaluated as coth(sqrt(lambda)/(2T)), which
    is free of the overflow a literal exp-based form hits at small T;
    T = 0 short-circuits to unit weights (pure ground state).
    """
    return GaussianModel(potential).covariance(temperature)


def symplectic_spectrum(state: ThermalGaussianState) -> np.ndarray:
    """Symplectic eigenvalues, ascending; all >= 1 for a physical state."""
    mu = np.linalg.eigvals(state.x_block @ state.p_block)
    return np.sort(np.sqrt(np.abs(mu.real)))


def log_negativity_spectral(potential, temperature: float, partition) -> float:
    """E_l across a partition from the symmetric spectrum of A A^T.

    A = D+^{1/2} (U^T P U) D-^{1/2} in the eigenbasis of V; A A^T is
    similar to U^T Q U = M D- M D+ with Q = P w- P w+, so its
    eigenvalues are those of Q.
    """
    return GaussianModel(potential).log_negativity(temperature, partition)


def log_negativity_symplectic_oracle(potential, temperature: float, partition) -> float:
    """E_l by partial transposition on the full covariance matrix.

    Partial transposition of a Gaussian state flips the momentum signs
    of the transposed block.  The eigenvalues of x_block times the
    flipped p_block are the squared symplectic eigenvalues nu^2 of the
    transposed state; entanglement shows up as nu < 1 and contributes
    -log2(nu^2).  Kept free of the spectral route's shortcuts so the
    two implementations can cross-check each other.
    """
    state = thermal_covariance(potential, temperature)
    signs = _labels(partition)
    n = state.x_block.shape[0]
    if signs.shape != (n,):
        raise ValueError(f"partition of size {signs.shape} does not match model size {n}")
    flipped_p = signs[:, None] * state.p_block * signs[None, :]
    mu = np.linalg.eigvals(state.x_block @ flipped_p)
    radius = float(np.max(np.abs(mu)))
    worst = float(np.max(np.abs(mu.imag)))
    if worst > _IMAG_TOL * radius:
        raise ArithmeticError(
            f"partially transposed covariance product left the real axis "
            f"(max imaginary part {worst:.3e} at spectral radius {radius:.3e})"
        )
    real = mu.real
    losses = real[real < 1.0 - _UNIT_CUTOFF]
    if losses.size == 0:
        return 0.0
    return float(-np.sum(np.log2(losses)))


def star_reduced_closed_form(n: int, c: float) -> tuple:
    """Diagonal entries (a, b) of the star hub's reduced covariance at T = 0.

    a = 1/n + ((n-1)/n) sqrt(1 + n c) is the hub entry of V^{1/2} and
    b = 1/n + (n-1)/(n sqrt(1 + n c)) the hub entry of V^{-1/2}; they
    are returned in this order.  Only the product a*b feeds the
    single-mode negativity, so the ordering carries no weight
    downstream.
    """
    if n < 2:
        raise ValueError(f"star closed form needs n >= 2, got {n}")
    if c <= 0.0:
        raise ValueError(f"star coupling must be positive, got {c}")
    root = math.sqrt(1.0 + n * c)
    a = 1.0 / n + (n - 1) / n * root
    b = 1.0 / n + (n - 1) / (n * root)
    return (a, b)


def single_mode_negativity(delta: float) -> float:
    """E_N of a one-mode reduction with covariance determinant delta.

    nu = sqrt(delta) - sqrt(delta - 1) and E_N = max(0, (1 - nu)/nu).
    Determinants below 1 describe no physical reduced state and are
    rejected; values within 1e-12 below 1 are treated as exactly 1 to
    absorb roundoff from upstream eigendecompositions.
    """
    if delta < 1.0 - 1e-12:
        raise ValueError(f"reduced covariance determinant must be >= 1, got {delta}")
    delta = max(delta, 1.0)
    nu = math.sqrt(delta) - math.sqrt(delta - 1.0)
    return max(0.0, (1.0 - nu) / nu)


def star_macroscopic_limit_trend(c: float, n_list) -> list:
    """Rows (n, delta, E_N) of the hub closed form over a size sweep.

    The determinant delta approaches 1 from above as n grows and the
    hub negativity decays to zero, which is the large-system trend this
    table exists to exhibit.
    """
    if c <= 0.0:
        raise ValueError(f"star coupling must be positive, got {c}")
    rows = []
    for n in n_list:
        a, b = star_reduced_closed_form(int(n), c)
        delta = a * b
        rows.append((int(n), delta, single_mode_negativity(delta)))
    return rows


def star_hub_negativity_from_covariance(n: int, c: float) -> float:
    """Hub E_N at T = 0 straight from the full covariance matrix.

    Builds the star potential, takes the hub diagonal entries of the
    ground-state covariance blocks, and feeds their product through the
    single-mode formula.  Serves as the from-scratch cross-check of the
    closed form.
    """
    state = thermal_covariance(build_star_potential(n, c), 0.0)
    delta = float(state.x_block[0, 0] * state.p_block[0, 0])
    return single_mode_negativity(delta)
