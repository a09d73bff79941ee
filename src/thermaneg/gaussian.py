"""Gaussian log-negativity of thermal states of quadratic models.

The covariance of the Gibbs state at temperature T splits into a
position block V^{-1/2} W(T) and a momentum block V^{1/2} W(T), where
W(T) applies coth(sqrt(lambda)/(2T)) to each eigenvalue lambda of the
potential V.  At T = 0 the weight matrix W is the identity and the
state is pure.

Log-negativity across a bipartition P (diagonal sign matrix) is
computed spectrally.  In the eigenbasis U of V, with s = sqrt(lambda),
w = coth(s/2T), M = U^T P U, D+ = diag(s/w) and D- = diag(1/(w s)), the
partially transposed product Q = P w- P w+ (w-+ = W^{-1} V^{-+1/2})
satisfies U^T Q U = M D- M D+, which is similar to A A^T with
A = D+^{1/2} M D-^{1/2}.  E_l sums log2 of the eigenvalues of the
symmetric A A^T above 1, so the spectrum is real by construction.
``GaussianModel`` reads lambda and U from ``lattice.PotentialMatrix``
and takes this spectrum by one of three routes, tried in this order and
picked from its input with no option:

* Bloch blocks: V is exactly circulant (every row the cyclic shift of
  row 0) and the partition's smallest period L divides n with
  n/L >= 4, as for even-odd (L = 2) and blocks of b sites (L = 2b).
  In the Fourier basis, s_k = sqrt of the DFT of row 0, and A A^T is
  block diagonal over n/L momenta kappa, each block a Hermitian L x L
  A_k A_k^H.  Block n/L - kappa is the complex conjugate of block
  kappa up to an order of its momenta, so only kappa = 0 .. (n/L) // 2
  are solved.  One stacked eigvalsh costs O(n L^2) instead of O(n^3).
* mirror blocks: V is exactly circulant and the signs are unchanged
  under a reflection i -> (c - i) mod n, as for half-half, every
  transfer partition and blocks with n/L = 2.  After a translation
  that moves the centre to h = 0 or 1, the real Fourier modes
  cos(2 pi k (i - h/2)/n) and sin(2 pi k (i - h/2)/n) are even and
  odd under i -> h - i, P does not mix the two sets, and A A^T
  splits into two blocks of about n/2.  Two eigvalsh of n/2 do a
  quarter of the O(n^3) work of one n x n solve; an FFT of the signs
  proposes the centres in O(n log n) and an exact compare confirms.
* dense: one n x n eigvalsh of A A^T for everything else (a ring
  partition with neither symmetry, the star, any V that is not
  circulant).

The mirror and dense routes share one kernel, which forms U^T P U as
+-(I - 2 U_S^T U_S) from the rows of the smaller sign class S.  All
three give one ascending spectrum per temperature, from which
``GaussianModel.negativity_grid``, the model's one evaluation method,
reads E_N, E_l and the PPT margin of each cell.

Tests check all three against the sign-flip oracle in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import PotentialMatrix, stacked, temperature_array
from .partitions import label_signs

__all__ = ["GaussianModel"]

# Eigenvalues of the partially transposed product that exceed 1 by less
# than this are treated as 1 (pure numerical noise must not contribute).
_UNIT_CUTOFF = 1e-12


class GaussianModel:
    """One potential matrix with its eigenbasis cached.

    Every quantity of interest is a spectral function of V, so one
    eigenbasis serves all temperatures and all partitions.  The model
    reads V's spectrum from its ``PotentialMatrix``, which finds and
    checks it; any other argument is a TypeError.  A circulant V (the
    ring) brings no eigenvectors: its eigenbasis is the real Fourier
    basis of mirror centre 0, built on the first dense-route spectrum
    that needs it, never on the Bloch route.  The spectrum of A A^T is
    taken by one of three routes, Bloch, mirror or dense, picked from
    the input with no option (see the module docstring).
    """

    def __init__(self, potential):
        if not isinstance(potential, PotentialMatrix):
            raise TypeError(f"expected a PotentialMatrix, got {type(potential).__name__}")
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

    def _spectrum(self, temperatures, partition) -> np.ndarray:
        """Ascending eigenvalues of A A^T, which are those of Q, one row
        per temperature.  The partition's route and sign work are found
        once, and each route takes one stacked eigvalsh for all the
        temperatures."""
        signs = label_signs(partition)
        if signs.shape != (self.n,):
            raise ValueError(
                f"partition of size {signs.shape} does not match model size {self.n}"
            )
        period = self._period(signs)
        if period is not None:
            return _bloch_spectrum(self._s, temperatures, signs[:period])
        centre = self._mirror_centre(signs)
        if centre is None:
            u, s = self._mirror_basis(0)[:2] if self._u is None else (self._u, self._s)
            return _dense_spectrum(u, s, temperatures, signs)
        # V is translation invariant: shift the centre to 0 or 1
        u, s, e = self._mirror_basis(centre % 2)
        signs = np.roll(signs, -(centre // 2))
        even = _dense_spectrum(u[:, :e], s[:e], temperatures, signs)
        odd = _dense_spectrum(u[:, e:], s[e:], temperatures, signs)
        return np.sort(np.concatenate([even, odd], axis=1), axis=1)

    def negativity_grid(self, temperatures, partitions) -> np.ndarray:
        """(E_N, E_l, margin) of every cell, shape (temperatures,
        partitions, 3), all three read from one spectrum of A A^T.

        E_l sums log2 over the eigenvalues above 1 and E_N = 2**E_l - 1.
        The margin is lambda_max(A A^T) - 1: positive exactly where some
        eigenvalue exceeds 1, and smooth through the PPT threshold, where
        E_N, a sum over the modes that are still entangled, can set in
        with a power law.  On the Bloch route lambda_max is the largest
        top eigenvalue over the momentum blocks.
        """
        grid = np.empty((len(temperatures), len(partitions), 3))
        for j, partition in enumerate(partitions):
            for i, ev in enumerate(self._spectrum(temperatures, partition)):
                el = _log_gain(ev)
                grid[i, j] = (_negativity(el), el, ev[-1] - 1.0)
        return grid

def _weights(s: np.ndarray, temperatures: np.ndarray) -> np.ndarray:
    """Diagonal of W(T) for the mode frequencies s, one row per
    temperature.

    As T -> inf, s/2T -> 0 and coth diverges; the infinite weights
    are that exact limit, and they make the log-negativity 0.
    """
    temperatures = temperature_array(temperatures)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = 1.0 / np.tanh(s / (2.0 * temperatures[:, None]))
    w[temperatures == 0.0] = 1.0
    return w


def _dense_spectrum(
    u: np.ndarray, s: np.ndarray, temperatures: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """Ascending eigenvalues of A A^T over the orthonormal modes ``u``,
    one row per temperature.

    With S the smaller sign class, U^T P U = +-(I - 2 U_S^T U_S) for
    labels of exactly +-1, and A A^T does not see the overall sign.
    The columns of ``u`` are modes of V with frequencies s: the full
    eigenbasis on the dense route, one parity block on the mirror route.
    """
    minus = signs < 0
    us = u[minus if 2 * np.count_nonzero(minus) <= signs.size else ~minus]
    m = np.eye(s.size) - 2.0 * (us.T @ us)

    def spectra(temps):
        w = _weights(s, temps)
        a = m * np.sqrt(s / w)[:, :, None]
        a *= np.sqrt(1.0 / (w * s))[:, None, :]
        return np.linalg.eigvalsh(a @ a.transpose(0, 2, 1))

    return stacked(spectra, temperatures, s.size**2)


def _bloch_spectrum(s: np.ndarray, temperatures: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of A A^T for signs repeating ``cell``, one
    row per temperature.

    With s the Fourier frequencies of a circulant V and L = len(cell),
    momentum kappa + m n/L couples only to kappa + m' n/L through
    B[m, m'] = p((m - m') mod L), p the DFT of the cell over L.  A A^T
    is then block diagonal over kappa = 0 .. n/L - 1, with Hermitian
    L x L blocks A_k A_k^H, A_k = D+^{1/2}(kappa) B D-^{1/2}(kappa).
    Block n/L - kappa holds the momenta -k of block kappa, m read as
    L - 1 - m; s_k = s_-k and p of the real cell has p(-j) = conj(p(j)),
    so it is the complex conjugate of block kappa, m reversed, and has
    its spectrum.  Only kappa = 0 .. (n/L) // 2 are solved.
    """
    period = cell.size
    cells = s.size // period
    # momenta of the solved blocks kappa, shape ((n/L) // 2 + 1, L)
    k = np.arange(cells // 2 + 1)[:, None] + cells * np.arange(period)[None, :]
    m = np.arange(period)
    b = (np.fft.fft(cell) / period)[(m[:, None] - m[None, :]) % period]

    def spectra(temps):
        w = _weights(s, temps)
        a = np.sqrt(s / w)[:, k, None] * b * np.sqrt(1.0 / (w * s))[:, k][:, :, None, :]
        ev = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))
        # blocks n/L - kappa, kappa = 1 .. (n/L - 1) // 2, from their twins
        ev = np.concatenate([ev, ev[:, 1:(cells + 1) // 2]], axis=1)
        return np.sort(ev.reshape(len(temps), s.size), axis=1)

    # complex entries, two float64 each, of the solved blocks
    return stacked(spectra, temperatures, 2 * (cells // 2 + 1) * period**2)


def _log_gain(ev: np.ndarray) -> float:
    """E_l: log2 summed over the eigenvalues of A A^T above 1."""
    gains = ev[ev > 1.0 + _UNIT_CUTOFF]
    return float(np.sum(np.log2(gains))) if gains.size else 0.0


def _negativity(el: float) -> float:
    """E_N = 2**E_l - 1, or inf where 2**E_l overflows a float."""
    return 2.0**el - 1.0 if el < 1024.0 else math.inf
