"""Exact thermal states of the spin-1/2 models and their negativity.

States are dense matrices in the computational basis, where the
XX-with-field Hamiltonians are real symmetric; density matrices and
their partial transposes are then real symmetric too and a symmetric
eigensolver applies throughout.  The Hamiltonians conserve the
magnetisation, so the eigensolves run per magnetisation sector, and
those of the partial transpose per charge-imbalance block.

The XX star with field takes a second route, ``SpinStarModel``, which
never forms a 2^n matrix: its outer sites couple to the hub only
through their total spin, so the state splits into small collective-spin
blocks (see the class docstring).

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
    "SpinStarModel",
    "negativity",
]

# Below this an eigenvalue of the unit-trace partial transpose counts
# as negative in ``SpinModel``.  It sits above the rounding noise of a
# symmetric eigensolve of a unit-trace matrix, of order dim * eps: 2e-13
# for the largest charge block at 12 sites (924 states), 9e-13 for a
# dense solve at 2^12.  ``SpinStarModel`` scales it by each block's
# largest |eigenvalue|, the rounding scale of that block's eigensolve,
# since a block repeated d times carries d times the weight of one copy;
# past 1e-12 / eps (about 4,500 states) a block's cutoff follows dim * eps.
NEGATIVE_EIGENVALUE_CUTOFF = -1e-12
# Eigenstates within this of the minimum energy belong to the ground
# space, and share its Boltzmann weight at every temperature.
_GROUND_ATOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _groups(keys: np.ndarray) -> list:
    """Basis indices grouped by key, in ascending key then index order."""
    return [np.flatnonzero(keys == k) for k in np.unique(keys)]


def _excitations(energies: np.ndarray, ground: float) -> np.ndarray:
    """Energies above the ground space, 0 on it, so that T -> 0 meets
    the T = 0 state even where rounding splits the ground energies."""
    shifted = energies - ground
    return np.where(shifted <= _GROUND_ATOL, 0.0, shifted)


def _boltzmann(excitations: np.ndarray, temperature: float) -> np.ndarray:
    """Unnormalized Boltzmann weights of energies above the ground
    space, so that no exponential ever overflows; exp(-inf) = 0 where
    the ratio overflows at the smallest temperatures.  T = 0 weighs the
    ground space alone."""
    if not temperature >= 0.0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0.0:
        return (excitations == 0.0).astype(float)
    with np.errstate(over="ignore"):
        return np.exp(-excitations / temperature)


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
        energies = np.concatenate([evals for evals, _ in pairs])
        self._excitations = _excitations(energies, energies.min())
        self._evecs = [evecs for _, evecs in pairs]
        self._last = None

    def thermal_rho(self, temperature: float) -> np.ndarray:
        """Gibbs state exp(-H/T), normalized; T = 0 gives the uniform
        mixture over the ground eigenspace (the zero-temperature limit).
        """
        if self._last is not None and self._last[0] == temperature:
            return self._last[1]
        w = _boltzmann(self._excitations, temperature)
        w /= w.sum()
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


class SpinStarModel:
    """The spin-1/2 XX star with field h on n sites, without a 2^n matrix.

    The m = n - 1 outer sites couple to the hub (site 1) only through
    their total spin J, so H = -2(s+_0 J- + s-_0 J+) + h(sz_0 + 2 Jz)
    (Hutton & Bose, PRA 69, 042312 (2004)).  A partition's E_N does not
    change when the other side is transposed instead, so transpose the
    a outer sites labeled opposite to the hub, group T (a is the star
    partition's area), and keep the hub with the other m - a sites,
    group R.  With J = J_T + J_R, H and the Gibbs state split into
    blocks on hub (x) V_{J_T} (x) V_{J_R}, of 2(2J_T + 1)(2J_R + 1)
    states, each repeated d_{J_T}(a) d_{J_R}(m - a) times.  The Schur
    basis of either group is a real orthogonal change of its
    computational basis, so the partial transpose on T is the transpose
    of each block's V_{J_T} factor, and E_N adds up each block's
    negative spectrum times its multiplicity.  Multiplicities and the
    partition function are carried as logs, so no size overflows them.

    One grouping's block eigenpairs are found on first use and cached
    per a; its ground energy and the ground-space clamp are taken
    across all its blocks, as ``SpinModel`` takes them across its
    sectors.
    """

    def __init__(self, n: int, h: float = 0.0):
        if n < 1:
            raise ValueError(f"spin star needs at least 1 site, got {n}")
        self.n = n
        self.h = h
        self._groupings = {}

    def _grouping(self, a: int) -> list:
        """(log multiplicity, block shape, excitations, eigenvectors) of
        every block when a outer sites are transposed."""
        if a not in self._groupings:
            blocks = [
                (math.log(d_t * d_r), (2, two_t + 1, two_r + 1),
                 *np.linalg.eigh(_star_block(two_t, two_r, self.h)))
                for two_t, d_t in _multiplicities(a)
                for two_r, d_r in _multiplicities(self.n - 1 - a)
            ]
            ground = min(evals[0] for _, _, evals, _ in blocks)
            self._groupings[a] = [
                (log_d, shape, _excitations(evals, ground), evecs)
                for log_d, shape, evals, evecs in blocks
            ]
        return self._groupings[a]

    def _cell(self, temperature: float, partition) -> tuple:
        """(E_N, lowest eigenvalue) of the partial transpose."""
        labels = label_signs(partition)
        if len(labels) != self.n:
            raise ValueError(
                f"partition of {len(labels)} sites does not match the {self.n}-site star"
            )
        blocks = self._grouping(int(np.count_nonzero(labels[1:] != labels[0])))
        weights = [_boltzmann(exc, temperature) for _, _, exc, _ in blocks]
        logs = [log_d + math.log(w.sum()) for (log_d, *_), w in zip(blocks, weights) if w.any()]
        top = max(logs)
        log_z = top + math.log(sum(math.exp(x - top) for x in logs))
        scale = math.exp(-log_z)
        e_n, lowest = 0.0, math.inf
        for (log_d, shape, _, evecs), w in zip(blocks, weights):
            rho = _sym((evecs * w) @ evecs.T)
            pt = rho.reshape(shape * 2).transpose(0, 4, 2, 3, 1, 5).reshape(rho.shape)
            # The state's eigenvalues are these over Z, each d times over
            spectrum = np.linalg.eigvalsh(pt)
            cutoff = min(NEGATIVE_EIGENVALUE_CUTOFF, -len(spectrum) * _EPS)
            negative = spectrum[spectrum < cutoff * float(np.abs(spectrum).max())]
            if negative.size:
                e_n -= math.exp(log_d - log_z) * float(negative.sum())
            lowest = min(lowest, float(spectrum[0]) * scale)
        return e_n, lowest

    def negativity_pair(self, temperature: float, partition) -> tuple:
        """(E_N, E_l) across the partition at one temperature."""
        e_n, _ = self._cell(temperature, partition)
        return (e_n, math.log2(1.0 + e_n))

    def ppt_margin(self, temperature: float, partition) -> tuple:
        """(E_N, margin), the margin as in ``SpinModel.ppt_margin``."""
        e_n, lowest = self._cell(temperature, partition)
        return (e_n, e_n if e_n > 0.0 else -lowest)


def _multiplicities(k: int) -> list:
    """(2J, d_J) for every total spin J of k spin-1/2 sites, as exact
    ints: d_J = C(k, k/2 - J) - C(k, k/2 - J - 1) copies of spin J, so
    that the sum of d_J (2J + 1) is 2^k."""
    return [(k - 2 * p, math.comb(k, p) - (math.comb(k, p - 1) if p else 0))
            for p in range(k // 2 + 1)]


def _collective(two_j: int) -> tuple:
    """J+ and 2 Jz of spin J = two_j / 2 in the basis M = J, J - 1, ..., -J."""
    i = np.arange(1, two_j + 1)
    raising = np.diag(np.sqrt(i * (two_j + 1.0 - i)), 1)
    return raising, np.diag(two_j - 2.0 * np.arange(two_j + 1))


def _star_block(two_t: int, two_r: int, h: float) -> np.ndarray:
    """The star Hamiltonian on hub (x) V_{J_T} (x) V_{J_R}, the hub's up
    spin first as in the computational basis."""
    raise_t, z_t = _collective(two_t)
    raise_r, z_r = _collective(two_r)
    eye_t, eye_r = np.eye(two_t + 1), np.eye(two_r + 1)
    raising = np.kron(raise_t, eye_r) + np.kron(eye_t, raise_r)
    z = np.kron(z_t, eye_r) + np.kron(eye_t, z_r)
    hub_raise, hub_z = _collective(1)
    exchange = np.kron(hub_raise, raising.T)
    return -2.0 * (exchange + exchange.T) + h * (
        np.kron(hub_z, np.eye(len(z))) + np.kron(np.eye(2), z)
    )


def _transposed(rho, labels: np.ndarray) -> np.ndarray:
    """Transpose the indices of every site labeled +1."""
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
