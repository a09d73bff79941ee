"""Exact thermal states of the spin-1/2 models and their negativity.

States live in the computational basis, where the XX-with-field
Hamiltonians are real symmetric; density matrices and their partial
transposes are then real symmetric too and a symmetric eigensolver
applies throughout.  The Hamiltonians conserve the magnetisation, so
``SpinModel`` builds, diagonalizes and keeps its states sector by
sector, and gathers each charge-imbalance block of the partial
transpose straight from those sector blocks: no 2^n x 2^n matrix is
formed.

The XX star with field takes a second route, ``SpinStarModel``, with
smaller blocks still: its outer sites couple to the hub only through
their total spin, so the state splits into collective-spin blocks (see
the class docstring).

E_N sums the absolute values of the negative eigenvalues of the
partially transposed state and E_l = log2(1 + E_N).  See the module
docstring of :mod:`thermaneg.gaussian` for how this scale relates to
the one used on the oscillator side.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import ModelSpec, popcount, site_mask, stacked, temperature_array, topology_edges
from .partitions import label_signs

__all__ = [
    "SpinModel",
    "SpinStarModel",
]

# Below this an eigenvalue of the unit-trace partial transpose counts
# as negative in ``SpinModel``.  It sits above the rounding noise of a
# symmetric eigensolve of a unit-trace matrix, of order dim * eps: 2e-13
# for the largest charge block at 12 sites (924 states).  ``SpinStarModel``
# scales it by each block's largest |eigenvalue|, the rounding scale of
# that block's eigensolve, since a block repeated d times carries d times
# the weight of one copy; past 1e-12 / eps (about 4,500 states) a block's
# cutoff follows dim * eps.
NEGATIVE_EIGENVALUE_CUTOFF = -1e-12
# Eigenstates within this of the minimum energy belong to the ground
# space, and share its Boltzmann weight at every temperature.
_GROUND_ATOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _sym(m: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _groups(keys: np.ndarray) -> list:
    """Basis indices grouped by key, in ascending key then index order."""
    return [np.flatnonzero(keys == k) for k in np.unique(keys)]


def _excitations(energies: np.ndarray, ground: float) -> np.ndarray:
    """Energies above the ground space, 0 on it, so that T -> 0 meets
    the T = 0 state even where rounding splits the ground energies."""
    shifted = energies - ground
    return np.where(shifted <= _GROUND_ATOL, 0.0, shifted)


def _boltzmann(excitations: np.ndarray, temperatures: np.ndarray) -> np.ndarray:
    """Unnormalized Boltzmann weights of energies above the ground
    space, one row per checked temperature, so that no exponential ever
    overflows; exp(-inf) = 0 where the ratio overflows at the smallest
    temperatures.  T = 0 weighs the ground space alone."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = np.exp(-excitations / temperatures[:, None])
    weights[temperatures == 0.0] = excitations == 0.0
    return weights


def _sector_hamiltonians(spec: ModelSpec) -> list:
    """(states, H block) of each magnetisation sector, k = 0 .. n set
    bits in turn, its basis indices ascending.  Site i (0-based) is bit
    n-1-i, as ``site_mask`` and ``popcount`` read it, and a set bit is a
    down spin: the field h sigma_z of every site puts h (n - 2k) on the
    diagonal, and each bond's exchange -(sigma_x sigma_x + sigma_y
    sigma_y) puts -2 between the two states that its flip of two unequal
    bits joins.
    """
    n = spec.n_sites
    masks = [site_mask(n, bond) for bond in topology_edges(spec.topology, n)]
    sectors = []
    for k, states in enumerate(_groups(popcount(np.arange(2**n)))):
        block = np.zeros((len(states), len(states)))
        # added to 0.0, so that a field term of -0.0 enters eigh as 0.0
        block[np.diag_indices_from(block)] += spec.h * (n - 2 * k)
        for mask in masks:
            flips = states[popcount(states & mask) == 1]
            block[np.searchsorted(states, flips ^ mask), np.searchsorted(states, flips)] = -2.0
        sectors.append((states, block))
    return sectors


class SpinModel:
    """The spin-1/2 XX model with field, diagonalized once, sector by
    sector; Gibbs states at any temperature are then two matrix products
    per sector away.  No 2^n x 2^n matrix is formed.
    """

    def __init__(self, spec: ModelSpec):
        if spec.kind != "spin_half":
            raise ValueError(f"expected a spin model, got kind={spec.kind!r}")
        self.n = spec.n_sites
        sectors = _sector_hamiltonians(spec)
        pairs = [np.linalg.eigh(block) for _, block in sectors]
        energies = np.concatenate([evals for evals, _ in pairs])
        self._excitations = _excitations(energies, energies.min())
        self._evecs = [evecs for _, evecs in pairs]
        # entry (s, t) of a sector block is entry _row[s] + _column[t] of a state
        self._row, self._column = np.empty((2, 2**self.n), dtype=np.intp)
        start = 0
        for states, _ in sectors:
            self._row[states] = start + len(states) * np.arange(len(states))
            self._column[states] = np.arange(len(states))
            start += len(states) ** 2

    def thermal_rho(self, temperature: float) -> np.ndarray:
        """Gibbs state exp(-H/T), normalized, as its sector blocks in
        ``_sector_hamiltonians`` order, raveled end to end.  T = 0 gives
        the uniform mixture over the ground eigenspace (the
        zero-temperature limit).
        """
        w = _boltzmann(self._excitations, temperature_array([temperature]))[0]
        w /= w.sum()
        ends = np.cumsum([len(evecs) for evecs in self._evecs])[:-1]
        return np.concatenate([_sym((evecs * w_sector) @ evecs.T).ravel()
                               for evecs, w_sector in zip(self._evecs, np.split(w, ends))])

    def _charge_blocks(self, labels):
        """Indices into a ``thermal_rho`` state of each block of its
        partial transpose, for labels already checked to be +1 or -1.

        The blocks are those of one charge imbalance q = N_B - N_A, the
        set bits outside the transposed sites A minus those inside
        (Cornfeld, Goldstein & Sela, PRA 98, 032302 (2018)).  Entry
        (x, y) of the partial transpose is entry (x', y') of the state,
        x' = (x & ~A) | (y & A) and y' = (y & ~A) | (x & A); for x and y
        of one charge, x' and y' share a sector, so the blocks read each
        entry of the sector blocks once.
        """
        transposed = site_mask(self.n, np.flatnonzero(np.asarray(labels) > 0))
        states = np.arange(2**self.n)
        charge = popcount(states) - 2 * popcount(states & transposed)
        for idx in _groups(charge):
            inside, outside = idx & transposed, idx & ~transposed
            yield (self._row[outside[:, None] | inside[None, :]]
                   + self._column[inside[:, None] | outside[None, :]])

    def negativity_grid(self, temperatures, partitions) -> np.ndarray:
        """(E_N, E_l, margin) of every cell, shape (temperatures,
        partitions, 3): one thermal state per temperature serves all its
        partitions, and one spectrum of the partial transpose, solved
        charge block by charge block, gives a cell's three values.

        The margin is E_N while some eigenvalue lies below the cutoff
        and -lambda_min otherwise, so it falls through 0 where E_N
        does.  E_N alone vanishes on the PPT side, and -lambda_min
        alone misplaces the root when the lowest eigenvalue is
        degenerate (E_N = 2 |lambda_min| for a pair).  Every partition
        is checked before the first thermal state is built.
        """
        signs = [label_signs(partition) for partition in partitions]
        for labels in signs:
            if len(labels) != self.n:
                raise ValueError(
                    f"partition of {len(labels)} sites does not match the {self.n}-site model"
                )
        grid = np.empty((len(temperatures), len(partitions), 3))
        for i, temperature in enumerate(temperatures):
            rho = self.thermal_rho(temperature)
            for j, labels in enumerate(signs):
                blocks = self._charge_blocks(labels)
                spectrum = np.concatenate([np.linalg.eigvalsh(rho[idx]) for idx in blocks])
                grid[i, j] = _cell(_e_n(spectrum), float(spectrum.min()))
        return grid


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

    def _cells(self, temperatures, partition) -> np.ndarray:
        """(E_N, lowest eigenvalue of the partial transpose) per
        temperature, shape (temperatures, 2).  Each block's states are
        stacked over the temperatures and solved by one eigvalsh."""
        labels = label_signs(partition)
        if len(labels) != self.n:
            raise ValueError(
                f"partition of {len(labels)} sites does not match the {self.n}-site star"
            )
        blocks = self._grouping(int(np.count_nonzero(labels[1:] != labels[0])))
        largest = max(len(evecs) for *_, evecs in blocks) ** 2
        temps = temperature_array(temperatures)
        return stacked(lambda run: _star_cells(blocks, run), temps, largest)

    def negativity_grid(self, temperatures, partitions) -> np.ndarray:
        """(E_N, E_l, margin) of every cell, shape (temperatures,
        partitions, 3), the margin as in ``SpinModel.negativity_grid``."""
        grid = np.empty((len(temperatures), len(partitions), 3))
        for j, partition in enumerate(partitions):
            for i, (e_n, lowest) in enumerate(self._cells(temperatures, partition).tolist()):
                grid[i, j] = _cell(e_n, lowest)
        return grid


def _cell(e_n: float, lowest: float) -> tuple:
    """(E_N, E_l, margin) from E_N and the lowest eigenvalue of the
    partial transpose: the margin is E_N where it is positive and
    -lowest otherwise."""
    return (e_n, math.log2(1.0 + e_n), e_n if e_n > 0.0 else -lowest)


def _star_cells(blocks: list, temperatures: np.ndarray) -> np.ndarray:
    """``SpinStarModel._cells`` over one run of temperatures."""
    weights = [_boltzmann(exc, temperatures) for _, _, exc, _ in blocks]
    log_d = np.array([[block[0]] for block in blocks])
    # log Z by a log-sum-exp over the blocks; a block without weight adds 0
    with np.errstate(divide="ignore"):
        logs = log_d + np.log([w.sum(axis=1) for w in weights])
    top = logs.max(axis=0)
    # Sums over the blocks run block after block, as they would for a
    # single temperature: a sum over axis 0 is pairwise when it is
    # contiguous, so one temperature and many would round differently.
    log_z = top + np.log(np.cumsum(np.exp(logs - top), axis=0)[-1])
    negative, lowest = [], []
    for (_, shape, _, evecs), w in zip(blocks, weights):
        rho = _sym((evecs * w[:, None, :]) @ evecs.T)
        pt = rho.reshape((-1, *shape, *shape)).transpose(0, 1, 5, 3, 4, 2, 6).reshape(rho.shape)
        # The state's eigenvalues are these over Z, each d times over
        spectrum = np.linalg.eigvalsh(pt)
        cutoff = min(NEGATIVE_EIGENVALUE_CUTOFF, -spectrum.shape[1] * _EPS)
        largest = np.maximum(-spectrum[:, 0], spectrum[:, -1])
        below = spectrum < cutoff * largest[:, None]
        negative.append(np.where(below, spectrum, 0.0).sum(axis=1))
        lowest.append(spectrum[:, 0])
    e_n = 0.0 - np.cumsum(np.exp(log_d - log_z) * negative, axis=0)[-1]
    return np.stack([e_n, np.min(lowest, axis=0) * np.exp(-log_z)], axis=1)


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


def _e_n(spectrum: np.ndarray) -> float:
    negative = spectrum[spectrum < NEGATIVE_EIGENVALUE_CUTOFF]
    return float(-negative.sum()) if negative.size else 0.0
