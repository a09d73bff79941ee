"""Exact thermal states of the spin-1/2 models and their negativity.

States are dense matrices in the computational basis, where the
XX-with-field Hamiltonians are real symmetric; density matrices and
their partial transposes are then real symmetric too and a symmetric
eigensolver applies throughout.  The Hamiltonians conserve the
magnetisation, so the eigensolves run per magnetisation sector, and
those of the partial transpose per charge-imbalance block.

E_N sums the absolute values of the negative eigenvalues of the
partially transposed state and E_l = log2(1 + E_N).  See the module
docstring of :mod:`thermaneg.gaussian` for how this scale relates to
the one used on the oscillator side.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import popcount, site_mask
from .partitions import label_signs

__all__ = [
    "SpinModel",
    "partial_transpose",
    "negativity",
]

# Below this an eigenvalue of the partial transpose counts as negative.
# It sits above the rounding noise of a symmetric eigensolve of a
# unit-trace matrix, of order dim * eps: 2e-13 for the largest charge
# block at 12 sites (924 states), 9e-13 for a dense solve at 2^12.
NEGATIVE_EIGENVALUE_CUTOFF = -1e-12
# Eigenstates within this of the minimum energy belong to the ground
# space when forming the T = 0 state.
_GROUND_ATOL = 1e-10


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _groups(keys: np.ndarray) -> list:
    """Basis indices grouped by key, in ascending key then index order."""
    return [np.flatnonzero(keys == k) for k in np.unique(keys)]


def _blocks(mat: np.ndarray, groups: list):
    """The diagonal blocks of ``mat`` over the index groups, or None
    unless they hold every nonzero entry of ``mat`` (an exact count)."""
    blocks = [mat[np.ix_(idx, idx)] for idx in groups]
    if sum(np.count_nonzero(block) for block in blocks) != np.count_nonzero(mat):
        return None
    return blocks


class SpinModel:
    """One spin Hamiltonian with its eigendecomposition cached.

    The Hamiltonian must conserve the magnetisation (the number of set
    bits of the basis index), as the XX-with-field models do; it is
    diagonalized once, sector by sector.  Gibbs states at any
    temperature are then two matrix products per sector away.  The
    most recent density matrix is kept so that sweeps evaluating many
    partitions at the same temperature do not rebuild it per
    partition.
    """

    def __init__(self, hamiltonian):
        self.n = hamiltonian.n
        ham = np.asarray(hamiltonian.entries)
        self._sectors = _groups(popcount(np.arange(ham.shape[0])))
        blocks = _blocks(ham, self._sectors)
        if blocks is None:
            raise ValueError("spin Hamiltonian couples different magnetisation sectors")
        pairs = [np.linalg.eigh(block) for block in blocks]
        self._evals = np.concatenate([evals for evals, _ in pairs])
        self._evecs = [evecs for _, evecs in pairs]
        self._last = None

    def _weights(self, temperature: float) -> np.ndarray:
        """Boltzmann weights relative to the minimum energy, so that no
        exponential ever overflows."""
        if not temperature >= 0.0:
            raise ValueError(f"temperature must be nonnegative, got {temperature}")
        shifted = self._evals - self._evals.min()
        if temperature == 0.0:
            w = (shifted <= _GROUND_ATOL).astype(float)
        else:
            w = np.exp(-shifted / temperature)
        return w / w.sum()

    def thermal_rho(self, temperature: float) -> np.ndarray:
        """Gibbs state exp(-H/T), normalized; T = 0 gives the uniform
        mixture over the ground eigenspace (the zero-temperature limit).
        """
        if self._last is not None and self._last[0] == temperature:
            return self._last[1]
        w = self._weights(temperature)
        dim = len(w)
        rho = np.zeros((dim, dim))
        start = 0
        for idx, evecs in zip(self._sectors, self._evecs):
            w_sector = w[start:start + len(idx)]
            start += len(idx)
            rho[np.ix_(idx, idx)] = _sym((evecs * w_sector) @ evecs.T)
        self._last = (temperature, rho)
        return rho

    def negativity_pair(self, temperature: float, partition) -> tuple:
        """(E_N, E_l) across the partition at one temperature."""
        return negativity(self.thermal_rho(temperature), partition)

    def ppt_margin(self, temperature: float, partition) -> tuple:
        """(E_N, margin) from one spectrum of the partial transpose.

        The margin is E_N while some eigenvalue lies below the cutoff
        and -lambda_min otherwise, so it falls through 0 where E_N
        does.  E_N alone vanishes on the PPT side, and -lambda_min
        alone misplaces the root when the lowest eigenvalue is
        degenerate (E_N = 2 |lambda_min| for a pair).
        """
        spectrum = _pt_spectrum(self.thermal_rho(temperature), partition)
        e_n = _e_n(spectrum)
        return (e_n, e_n if e_n > 0.0 else -float(spectrum.min()))


def partial_transpose(rho, partition) -> np.ndarray:
    """Transpose the indices of every site labeled +1.

    Involutive and trace preserving; on a real symmetric matrix the
    result is again real symmetric.
    """
    return _transposed(rho, label_signs(partition))


def _transposed(rho, labels: np.ndarray) -> np.ndarray:
    mat = np.asarray(rho)
    n = len(labels)
    dim = mat.shape[0]
    if mat.shape != (dim, dim) or dim != 2**n:
        raise ValueError(
            f"matrix of shape {mat.shape} does not match a {n}-site partition"
        )
    tensor = mat.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for i, sign in enumerate(labels):
        if sign > 0:
            perm[i], perm[n + i] = perm[n + i], perm[i]
    return tensor.transpose(perm).reshape(dim, dim)


def negativity(rho, partition) -> tuple:
    """(E_N, E_l) of a state across a partition.

    E_N adds up |eigenvalue| over the spectrum of the partial transpose
    below -1e-12; E_l = log2(1 + E_N).
    """
    e_n = _e_n(_pt_spectrum(rho, partition))
    return (e_n, math.log2(1.0 + e_n))


def _e_n(spectrum: np.ndarray) -> float:
    negative = spectrum[spectrum < NEGATIVE_EIGENVALUE_CUTOFF]
    return float(-negative.sum()) if negative.size else 0.0


def _pt_spectrum(rho, partition) -> np.ndarray:
    """Eigenvalues of the partial transpose, block by block.

    A state that conserves the magnetisation has a partial transpose
    that is block diagonal in the charge imbalance q = N_B - N_A, the
    set bits outside the transposed block minus those inside it, that
    is N - 2 N_A (Cornfeld, Goldstein & Sela, PRA 98, 032302 (2018));
    the spectrum is then taken block by block.  Any other state,
    detected from its entries, takes one dense eigensolve.
    """
    labels = label_signs(partition)
    pt = _transposed(rho, labels)
    states = np.arange(pt.shape[0])
    transposed = site_mask(len(labels), np.flatnonzero(labels > 0))
    charge = popcount(states) - 2 * popcount(states & transposed)
    blocks = _blocks(pt, _groups(charge)) or [pt]
    return np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
