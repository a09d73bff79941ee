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
  ``GaussianModel`` reads lambda and U from ``lattice.PotentialMatrix``
  and takes this spectrum by one of three routes, tried in this order
  and picked from its input with no option:

  - Bloch blocks: V is exactly circulant (every row the cyclic shift of
    row 0) and the partition's smallest period L divides n with
    n/L >= 4, as for even-odd (L = 2) and blocks of b sites (L = 2b).
    In the Fourier basis, s_k = sqrt of the DFT of row 0, and A A^T is
    block diagonal over n/L momenta kappa, each block a Hermitian L x L
    A_k A_k^H.  One stacked eigvalsh costs O(n L^2) instead of O(n^3).
  - mirror blocks: V is exactly circulant and the signs are unchanged
    under a reflection i -> (c - i) mod n, as for half-half, every
    transfer partition and blocks with n/L = 2.  After a translation
    that moves the centre to h = 0 or 1, the real Fourier modes
    cos(2 pi k (i - h/2)/n) and sin(2 pi k (i - h/2)/n) are even and
    odd under i -> h - i, P does not mix the two sets, and A A^T
    splits into two blocks of about n/2.  Two eigvalsh of n/2 do a
    quarter of the O(n^3) work of one n x n solve; an FFT of the signs
    proposes the centres in O(n log n) and an exact compare confirms.
  - dense: one n x n eigvalsh of A A^T for everything else (a ring
    partition with neither symmetry, the star, any V that is not
    circulant).

  The mirror and dense routes share one kernel, which forms U^T P U as
  +-(I - 2 U_S^T U_S) from the rows of the smaller sign class S.  All
  three give the one ascending spectrum that E_l and the PPT margin
  read.
* sign-flip oracle: momentum signs of the +1 block are flipped on the
  full covariance, then E_l sums -log2 over the sub-unit eigenvalues
  of the position-times-flipped-momentum product, a nonsymmetric
  eigenproblem.  It shares only the eigenbasis of V with the
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

from .lattice import PotentialMatrix, build_star_potential

__all__ = [
    "ThermalGaussianState",
    "GaussianModel",
    "thermal_covariance",
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


def _labels(p) -> np.ndarray:
    signs = np.asarray(getattr(p, "labels", p), dtype=float)
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("partition labels must be +1 or -1")
    return signs


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
    """One potential matrix with its eigenbasis cached.

    Every quantity of interest is a spectral function of V, so one
    eigenbasis serves all temperatures and all partitions.  The model
    reads V's spectrum from its ``PotentialMatrix``, which finds and
    checks it (a bare array is symmetrised and wrapped in one).  A
    circulant V (the ring) brings no eigenvectors: its eigenbasis is the
    real Fourier basis of mirror centre 0, built on the first call that
    needs it (a dense-route spectrum or ``covariance``), never on the
    Bloch route.  The spectrum of A A^T is taken by one of three routes,
    Bloch, mirror or dense, picked from the input with no option (see
    the module docstring).
    """

    def __init__(self, potential):
        if not isinstance(potential, PotentialMatrix):
            v = np.asarray(potential, dtype=float)
            if v.ndim != 2 or v.shape[0] != v.shape[1]:
                raise ValueError(f"potential must be square, got shape {v.shape}")
            potential = PotentialMatrix(v.shape[0], _sym(v))
        self.n = n = potential.n
        # frequencies s and eigenvectors u, None exactly when V is
        # circulant: then the Bloch route uses the periods L with n/L >= 4
        # and the mirror route a basis per centre parity, built on use.
        lam, self._u = potential.spectrum
        self._s = np.sqrt(lam)
        self._periods = ()
        self._mirror = {}
        if self._u is None:
            self._periods = tuple(p for p in range(1, n // 4 + 1) if n % p == 0)

    def _eigenbasis(self) -> tuple:
        """Orthonormal eigenvectors of V as columns, and their frequencies."""
        if self._u is None:
            return self._mirror_basis(0)[:2]
        return self._u, self._s

    def _mirror_basis(self, h: int) -> tuple:
        """(U, s, e): real Fourier modes of a circulant V about centre h.

        Columns cos(2 pi k (i - h/2)/n), k = 0 .. floor(n/2), are even
        under i -> h - i and the e columns come first; then sin(...),
        k = 1 .. floor(n/2), which are odd.  The one column that vanishes
        for even n is left out, so U is n x n and orthogonal; column k has
        frequency s_k.  In this basis a partition that is unchanged under
        the reflection is block diagonal over the even and odd columns.
        """
        if h not in self._mirror:
            n = self.n
            k_even = np.arange((n - h) // 2 + 1)
            k = np.concatenate([k_even, np.arange(1, (n + h + 1) // 2)])
            # the phase pi k (2i - h) / n, reduced exactly modulo 2 pi
            phase = (np.pi / n) * (((2 * np.arange(n) - h)[:, None] * k) % (2 * n))
            e = k_even.size
            u = np.concatenate([np.cos(phase[:, :e]), np.sin(phase[:, e:])], axis=1)
            u /= np.linalg.norm(u, axis=0)
            self._mirror[h] = (u, self._s[k], e)
        return self._mirror[h]

    def covariance(self, temperature: float) -> ThermalGaussianState:
        u, s = self._eigenbasis()
        w = _weights(s, temperature)
        x = _sym((u * (w / s)) @ u.T)
        p = _sym((u * (w * s)) @ u.T)
        return ThermalGaussianState(x_block=x, p_block=p, temperature=temperature)

    def _period(self, signs: np.ndarray):
        """Smallest period of the signs among ``_periods``, else None."""
        for p in self._periods:
            if np.array_equal(signs[p:], signs[:-p]):
                return p
        return None

    def _mirror_centre(self, signs: np.ndarray):
        """Smallest c with signs[(c - i) % n] == signs[i], on a circulant V.

        The cyclic self-convolution sum_i s_i s_(c-i) is n at a mirror
        centre and at most n - 4 elsewhere (its -1 terms come in pairs
        i, c - i), so the FFT proposes the centres and an exact compare
        confirms them.
        """
        if self._u is not None:
            return None
        n = self.n
        conv = np.fft.irfft(np.fft.rfft(signs) ** 2, n)
        i = np.arange(n)
        for c in np.flatnonzero(conv > n - 2):
            if np.array_equal(signs[(c - i) % n], signs):
                return int(c)
        return None

    def _spectrum(self, temperature: float, partition) -> np.ndarray:
        """Ascending eigenvalues of A A^T, which are those of Q."""
        signs = _labels(partition)
        if signs.shape != (self.n,):
            raise ValueError(
                f"partition of size {signs.shape} does not match model size {self.n}"
            )
        period = self._period(signs)
        if period is not None:
            return _bloch_spectrum(self._s, temperature, signs[:period])
        centre = self._mirror_centre(signs)
        if centre is None:
            return _dense_spectrum(*self._eigenbasis(), temperature, signs)
        # V is translation invariant: shift the centre to 0 or 1
        u, s, e = self._mirror_basis(centre % 2)
        signs = np.roll(signs, -(centre // 2))
        even = _dense_spectrum(u[:, :e], s[:e], temperature, signs)
        odd = _dense_spectrum(u[:, e:], s[e:], temperature, signs)
        return np.sort(np.concatenate([even, odd]))

    def log_negativity(self, temperature: float, partition) -> float:
        """Spectral-route E_l in bits across the given partition."""
        return _log_gain(self._spectrum(temperature, partition))

    def negativity_pair(self, temperature: float, partition) -> tuple:
        """(E_N, E_l) with E_N = 2**E_l - 1."""
        el = self.log_negativity(temperature, partition)
        return (_negativity(el), el)

    def ppt_margin(self, temperature: float, partition) -> tuple:
        """(E_N, lambda_max(A A^T) - 1) from one spectrum.

        The margin is positive exactly where some eigenvalue exceeds 1
        and varies smoothly through the PPT threshold, where E_N, a sum
        over the modes that are still entangled, can set in with a
        power law.  On the Bloch route lambda_max is the largest top
        eigenvalue over the momentum blocks.
        """
        ev = self._spectrum(temperature, partition)
        return (_negativity(_log_gain(ev)), float(ev[-1]) - 1.0)


def _weights(s: np.ndarray, temperature: float) -> np.ndarray:
    """Diagonal of W(T) for the mode frequencies s.

    As T -> inf, s/2T -> 0 and coth diverges; the infinite weights
    are that exact limit, and they make the log-negativity 0.
    """
    if not temperature >= 0.0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0.0:
        return np.ones_like(s)
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / np.tanh(s / (2.0 * temperature))


def _dense_spectrum(
    u: np.ndarray, s: np.ndarray, temperature: float, signs: np.ndarray
) -> np.ndarray:
    """Ascending eigenvalues of A A^T over the orthonormal modes ``u``.

    With S the smaller sign class, U^T P U = +-(I - 2 U_S^T U_S) for
    labels of exactly +-1, and A A^T does not see the overall sign.
    The columns of ``u`` are modes of V with frequencies s: the full
    eigenbasis on the dense route, one parity block on the mirror route.
    """
    w = _weights(s, temperature)
    minus = signs < 0
    us = u[minus if 2 * np.count_nonzero(minus) <= signs.size else ~minus]
    a = np.eye(s.size) - 2.0 * (us.T @ us)
    a *= np.sqrt(s / w)[:, None]
    a *= np.sqrt(1.0 / (w * s))[None, :]
    return np.linalg.eigvalsh(a @ a.T)


def _bloch_spectrum(s: np.ndarray, temperature: float, cell: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of A A^T for signs repeating ``cell``.

    With s the Fourier frequencies of a circulant V and L = len(cell),
    momentum kappa + m n/L couples only to kappa + m' n/L through
    B[m, m'] = p((m - m') mod L), p the DFT of the cell over L.  A A^T
    is then block diagonal over kappa = 0 .. n/L - 1, with Hermitian
    L x L blocks A_k A_k^H, A_k = D+^{1/2}(kappa) B D-^{1/2}(kappa).
    """
    period = cell.size
    cells = s.size // period
    w = _weights(s, temperature)
    # momenta of block kappa, shape (n/L, L)
    k = np.arange(cells)[:, None] + cells * np.arange(period)[None, :]
    m = np.arange(period)
    b = (np.fft.fft(cell) / period)[(m[:, None] - m[None, :]) % period]
    a = np.sqrt(s / w)[k][:, :, None] * b * np.sqrt(1.0 / (w * s))[k][:, None, :]
    return np.sort(np.linalg.eigvalsh(a @ a.conj().transpose(0, 2, 1)).ravel())


def _log_gain(ev: np.ndarray) -> float:
    """E_l: log2 summed over the eigenvalues of A A^T above 1."""
    gains = ev[ev > 1.0 + _UNIT_CUTOFF]
    return float(np.sum(np.log2(gains))) if gains.size else 0.0


def _negativity(el: float) -> float:
    """E_N = 2**E_l - 1, or inf where 2**E_l overflows a float."""
    return 2.0**el - 1.0 if el < 1024.0 else math.inf


def thermal_covariance(potential, temperature: float) -> ThermalGaussianState:
    """Covariance blocks of the Gibbs state at the given temperature.

    The weight function is evaluated as coth(sqrt(lambda)/(2T)), which
    is free of the overflow a literal exp-based form hits at small T;
    T = 0 short-circuits to unit weights (pure ground state).
    """
    return GaussianModel(potential).covariance(temperature)


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
    downstream.  With R = sqrt(1 + n c) that product is exactly
    a*b = 1 + (n-1)(R-1)^2 / (n^2 R).
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
    table exists to exhibit.  With x = delta - 1 = (n-1)(R-1)^2/(n^2 R),
    R = sqrt(1 + n c), the hub negativity is E_N = sqrt(x) + sqrt(1+x) - 1
    and x < sqrt(c/n), so E_N < (c/n)^{1/4} + (c/n)^{1/2}/2 and
    E_N = (c/n)^{1/4} (1 + O(n^{-1/4})): the decay is a quarter power,
    about 0.104 at n = 10^4 and c = 1.
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
