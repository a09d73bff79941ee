"""Exact thermal states of the spin-1/2 models and their negativity.

States live in the computational basis, where the XX-with-field
Hamiltonians are real symmetric; density matrices and their partial
transposes are then real symmetric too and a symmetric eigensolver
applies throughout.  The Hamiltonians conserve the magnetisation, so
``SpinModel`` builds, diagonalizes and keeps its states sector by
sector, and gathers each charge-imbalance block of the partial
transpose straight from those sector blocks: no 2^n x 2^n matrix is
formed.  Sectors and charge blocks of one size are solved as one
stack, and a partition's gather indices are built once, so that the
probes of a threshold search share them.  Where a rotation or
reflection of the ring swaps the two sides of the partition (even-odd
and half-half do), blocks q and -q of the partial transpose are
isospectral and only the blocks with q >= 0 are solved.

The XX star with field takes a second route, ``SpinStarModel``, with
smaller blocks still: its outer sites couple to the hub only through
their total spin, so the state splits into collective-spin blocks, and
those into the same two kinds of block, magnetisation sectors and
charge groups of the partial transpose, of at most 2 (2J + 1) states
for the smaller of the two collective spins, so no collective block
is formed (see the class docstring).

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
# scales it by the largest |eigenvalue| over each collective block's
# charge groups, since a block repeated d times carries d times the
# weight of one copy; past 1e-12 / eps (about 4,500 states) a block's
# cutoff follows dim * eps.
NEGATIVE_EIGENVALUE_CUTOFF = -1e-12
# Eigenstates within this of the minimum energy belong to the ground
# space, and share its Boltzmann weight at every temperature.
_GROUND_ATOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _sym(m: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _runs(keys: np.ndarray) -> tuple:
    """(order, lengths): the indices that sort ``keys`` stably, and the
    length of each run of equal keys in that order, ascending by key.
    A stable sort, since the first call of numpy's unique imports numpy.ma."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order])) + 1
    return order, np.diff(starts, prepend=0, append=len(keys))


def _groups(keys: np.ndarray) -> list:
    """Basis indices grouped by key, in ascending key then index order."""
    order, lengths = _runs(keys)
    return np.split(order, np.cumsum(lengths)[:-1])


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
    sector, every sector size (k and n - k set bits) in one stacked
    ``eigh``; the Gibbs states at a run of temperatures are then two
    stacked matrix products per sector size away.  Each partition's
    charge blocks are gathered from those states by a plan built once
    and kept for the last partition only, since one plan holds up to
    C(2n, n) indices; where a symmetry of the bonds swaps a partition's
    sides, its blocks q < 0 take the spectra of their twins q > 0 (see
    ``_charge_blocks``).  No 2^n x 2^n matrix is formed.
    """

    def __init__(self, spec: ModelSpec):
        if spec.kind != "spin_half":
            raise ValueError(f"expected a spin model, got kind={spec.kind!r}")
        self.n = spec.n_sites
        sectors = _sector_hamiltonians(spec)
        lengths = np.array([len(states) for states, _ in sectors])
        starts = np.cumsum(lengths) - lengths
        by_size = _groups(lengths)
        pairs = [np.linalg.eigh(np.stack([sectors[k][1] for k in ks])) for ks in by_size]
        # the eigenvalues in k order, so that Z sums them as one list
        # does; _places[s] places size s's in that list
        self._places = [starts[ks][:, None] + np.arange(lengths[ks[0]]) for ks in by_size]
        energies = np.empty(2**self.n)
        for at, (evals, _) in zip(self._places, pairs):
            energies[at] = evals
        self._excitations = _excitations(energies, energies.min())
        self._evecs = [evecs for _, evecs in pairs]
        # entry (s, t) of a sector block is entry _row[s] + _column[t] of a state
        self._row, self._column = np.empty((2, 2**self.n), dtype=np.intp)
        self._entries = 0
        for states, _ in (sectors[k] for ks in by_size for k in ks):
            self._row[states] = self._entries + len(states) * np.arange(len(states))
            self._column[states] = np.arange(len(states))
            self._entries += len(states) ** 2
        # the rotations and reflections of the sites that keep the bonds
        i = np.arange(self.n)
        edges = set(topology_edges(spec.topology, self.n))
        self._symmetries = [
            g for g in [(i + r) % self.n for r in i] + [(c - i) % self.n for c in i]
            if {tuple(sorted((int(g[a]), int(g[b])))) for a, b in edges} == edges]
        self._plan = (None, None)

    def thermal_rho(self, temperatures: tuple) -> np.ndarray:
        """Gibbs states exp(-H/T), normalized, one row per temperature
        of a tuple of floats (not an array, so that the temperatures of
        two calls compare with ==): each its sector blocks raveled end
        to end, size after size and k ascending within a size.  T = 0
        gives the uniform mixture over the ground eigenspace (the
        zero-temperature limit).
        """
        temps = temperature_array(temperatures)
        w = _boltzmann(self._excitations, temps)
        w /= w.sum(axis=1, keepdims=True)
        return np.concatenate(
            [_sym((evecs * w[:, at][:, :, None, :]) @ evecs.swapaxes(1, 2)).reshape(len(temps), evecs.size)
             for at, evecs in zip(self._places, self._evecs)], axis=1)

    def _charge_blocks(self, labels) -> tuple:
        """The plan of the partial transpose on the +1 sites of checked
        labels: the indices into a ``thermal_rho`` state of its solved
        blocks, one (count, size, size) stack per block size, and the
        order that takes their spectra, stack after stack, to ascending
        charge.

        The blocks are those of one charge imbalance q = N_B - N_A, the
        set bits outside the transposed sites A minus those inside
        (Cornfeld, Goldstein & Sela, PRA 98, 032302 (2018)).  Entry
        (x, y) of the partial transpose is entry (x', y') of the state,
        x' = (x & ~A) | (y & A) and y' = (y & ~A) | (x & A); for x and y
        of one charge, x' and y' share a sector, so the blocks read each
        entry of the sector blocks once.

        Where a rotation or reflection g of the sites keeps the bonds and
        swaps A and B (labels[g] == -labels), only the blocks with
        q >= 0 are solved, and block -q reads its twin's spectrum: the
        state is real symmetric and g-invariant, so g rho^{T_A} g^T =
        rho^{T_B} = rho^{T_A}, and g takes charge q to -q.  Only the last
        labels' plan is kept.
        """
        key = labels.tobytes()
        if self._plan[0] != key:
            self._plan = None, None  # free the old plan before the new one is built
            transposed = site_mask(self.n, np.flatnonzero(labels > 0))
            states = np.arange(2**self.n)
            order, lengths = _runs(popcount(states) - 2 * popcount(states & transposed))
            starts = np.cumsum(lengths) - lengths
            inside, outside = order & transposed, order & ~transposed
            # run r of ascending charge takes the spectrum of run read[r];
            # a swap pairs the charges -q and q, runs r and len - 1 - r
            runs = np.arange(len(lengths))
            swapped = any(np.array_equal(labels[g], -labels) for g in self._symmetries)
            read = np.maximum(runs, runs[::-1]) if swapped else runs
            solved = np.flatnonzero(read == runs)
            blocks, at = [], []
            for members in _groups(lengths[solved]):
                members = solved[members]
                x = starts[members][:, None] + np.arange(lengths[members[0]])
                blocks.append(self._row[outside[x][:, :, None] | inside[x][:, None, :]]
                              + self._column[inside[x][:, :, None] | outside[x][:, None, :]])
                at.append(x.ravel())
            at = np.concatenate(at)
            where = np.empty_like(states)
            where[at] = np.arange(at.size)
            run = np.repeat(runs, lengths)
            self._plan = key, (blocks, where[starts[read[run]] + states - starts[run]])
        return self._plan[1]

    def _cells(self, temperatures: np.ndarray, signs: list) -> np.ndarray:
        """``negativity_grid`` over one run of temperatures: one
        stacked ``eigvalsh`` per charge-block size and partition, and
        each cell's spectrum in charge order, so that E_N sums it as a
        solve block by block would."""
        rho = self.thermal_rho(tuple(temperatures.tolist()))
        cells = np.empty((len(temperatures), len(signs), 3))
        for j, labels in enumerate(signs):
            blocks, order = self._charge_blocks(labels)
            spectra = np.concatenate(
                [np.linalg.eigvalsh(rho[:, idx]).reshape(len(rho), idx[..., 0].size) for idx in blocks],
                axis=1)
            for i, spectrum in enumerate(spectra[:, order]):
                cells[i, j] = _cell(_e_n(spectrum), float(spectrum.min()))
        return cells

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
        and temperature is checked before the first thermal state is
        built; the states are built over runs of temperatures bounded
        as in ``lattice.stacked``.
        """
        signs = [label_signs(partition) for partition in partitions]
        for labels in signs:
            if len(labels) != self.n:
                raise ValueError(
                    f"partition of {len(labels)} sites does not match the {self.n}-site model"
                )
        temps = temperature_array(temperatures)
        return stacked(lambda run: self._cells(run, signs), temps, self._entries)


class SpinStarModel:
    """The spin-1/2 XX star with field h on n sites, without a 2^n matrix.

    The m = n - 1 outer sites couple to the hub (site 1) only through
    their total spin J, so H = -2(s+_0 J- + s-_0 J+) + h(sz_0 + 2 Jz)
    (Hutton & Bose, PRA 69, 042312 (2004)).  A partition's E_N does not
    change when the other side is transposed instead, so transpose the
    a outer sites labeled opposite to the hub, group T (a is the star
    partition's area), and keep the hub with the other m - a sites,
    group R.  With J = J_T + J_R, H and the Gibbs state split into
    blocks on hub (x) V_{J_T} (x) V_{J_R}, each repeated
    d_{J_T}(a) d_{J_R}(m - a) times.  The Schur basis of either group
    is a real orthogonal change of its computational basis, so the
    partial transpose on T is the transpose of each block's V_{J_T}
    factor, and E_N adds up each block's negative spectrum times its
    multiplicity.  Multiplicities and the partition function are
    carried as logs, so no size overflows them.

    No block is formed either.  A block state is (s, i_T, i_R): s = 1
    for a down hub and i the lowering count from the top of V_J.  H
    conserves N = s + i_T + i_R, so each block is split into sectors of
    fixed N, and the partial transpose conserves the charge
    q = s - i_T + i_R (Cornfeld, Goldstein & Sela, PRA 98, 032302
    (2018)), so it splits into groups of fixed q; both have at most
    2 min(2J_T + 1, 2J_R + 1) states: 2 on the hub-vs-rest cell, at most
    4 on one outer site.  As in ``SpinModel``, the Gibbs state is its
    sector blocks raveled end to end, and each group is gathered from
    them.  One grouping's sector eigenpairs are found on first use and
    cached per a, every sector size in one stacked ``eigh``; its ground
    energy and the ground-space clamp are taken across all its sectors.
    """

    def __init__(self, n: int, h: float = 0.0):
        if n < 1:
            raise ValueError(f"spin star needs at least 1 site, got {n}")
        self.n = n
        self.h = h
        self._plans = {}

    def _plan(self, a: int) -> tuple:
        """``_star_plan`` when a outer sites are transposed, cached."""
        if a not in self._plans:
            self._plans[a] = _star_plan(a, self.n - 1 - a, self.h)
        return self._plans[a]

    def _cells(self, temperatures, partition) -> np.ndarray:
        """(E_N, lowest eigenvalue of the partial transpose) per
        temperature, shape (temperatures, 2), over runs of temperatures
        that each hold the Gibbs state once per temperature."""
        labels = label_signs(partition)
        if len(labels) != self.n:
            raise ValueError(
                f"partition of {len(labels)} sites does not match the {self.n}-site star"
            )
        plan = self._plan(int(np.count_nonzero(labels[1:] != labels[0])))
        temps = temperature_array(temperatures)
        return stacked(lambda run: _star_cells(plan, run), temps, plan[-1])

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


def _multiplicities(k: int) -> list:
    """(2J, d_J) for every total spin J of k spin-1/2 sites, as exact
    ints: d_J = C(k, k/2 - J) - C(k, k/2 - J - 1) copies of spin J, so
    that the sum of d_J (2J + 1) is 2^k."""
    return [(k - 2 * p, math.comb(k, p) - (math.comb(k, p - 1) if p else 0))
            for p in range(k // 2 + 1)]


def _star_plan(a: int, rest: int, h: float) -> tuple:
    """Everything about the star's grouping with a transposed and
    ``rest`` kept outer sites that does not depend on temperature.

    The blocks' states run end to end, block after block, each block's
    (s, i_T, i_R) in that index order.  Returns (sectors, sector log
    multiplicities, groups, group log multiplicities, group cutoffs,
    group blocks, block order, block starts, entries):

    * sectors: (excitations, eigenvectors) of each sector size, of
      shapes (count, size) and (count, size, size); the state's sector
      blocks run in this order, and ``entries`` is their total size;
    * groups: for each group size, the (count, size, size) indices
      into the state of its groups' entries.  Entry (x, y) of a group
      is entry (x', y') of the state, x' taking its hub and R from x
      and its T from y, y' the other way round; for x and y of one
      charge, x' and y' share a sector;
    * per group, in the groups' order: its block's log multiplicity,
      its block's cutoff on the scale of the block's largest
      |eigenvalue|, and its block; the block order and block starts
      give the groups block by block.
    """
    blocks = [(two_t, two_r, math.log(d_t * d_r))
              for two_t, d_t in _multiplicities(a) for two_r, d_r in _multiplicities(rest)]
    two_t, two_r, log_d = (np.array(column) for column in zip(*blocks))
    size_r, size_rt = two_r + 1, (two_t + 1) * (two_r + 1)
    dims = 2 * size_rt
    block = np.repeat(np.arange(len(dims)), dims)
    local = np.arange(dims.sum()) - np.repeat(np.cumsum(dims) - dims, dims)
    hub = local // size_rt[block]
    low_t, low_r = local // size_r[block] % (two_t + 1)[block], local % size_r[block]
    span = int((two_t + two_r).max()) + 2

    # sectors of one N, block after block, then reordered by size; entry
    # (u, v) of a sector is entry row[u] + column[v] of the state
    order, lengths = _runs(block * span + hub + low_t + low_r)
    sector = np.repeat(np.arange(len(lengths)), lengths)
    column = np.empty_like(order)
    column[order] = np.arange(len(order)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    by_size = _groups(lengths)
    ranked = np.concatenate(by_size)
    offsets = np.empty_like(lengths)
    offsets[ranked] = np.cumsum(lengths[ranked] ** 2) - lengths[ranked] ** 2
    row = np.empty_like(order)
    row[order] = offsets[sector] + lengths[sector] * column[order]
    sector_log_d = log_d[block[order[np.cumsum(lengths) - lengths]]][ranked]

    # the field puts h(2J_T + 2J_R + 1 - 2N) on the diagonal, and the
    # exchange -2 sqrt((i + 1)(2J - i)) between a down hub and the up
    # hub with one lowering more in T or in R
    ham = np.zeros(int(offsets[ranked[-1]] + lengths[ranked[-1]] ** 2))
    ham[row + column] += h * (two_t[block] + two_r[block] + 1 - 2 * (hub + low_t + low_r))
    for low, two, step in ((low_t, two_t, size_r), (low_r, two_r, np.ones_like(two_r))):
        down = np.flatnonzero((hub == 1) & (low < two[block]))
        up = down - (size_rt - step)[block[down]]
        ham[row[down] + column[up]] = ham[row[up] + column[down]] = -2.0 * np.sqrt(
            (low[down] + 1.0) * (two[block[down]] - low[down]))
    pairs, start = [], 0
    for members in by_size:
        size = int(lengths[members[0]])
        stop = start + len(members) * size**2
        pairs.append(np.linalg.eigh(ham[start:stop].reshape(-1, size, size)))
        start = stop
    ground = min(evals.min() for evals, _ in pairs)
    sectors = [(_excitations(evals, ground), evecs) for evals, evecs in pairs]

    inside = low_t * size_r[block]
    outside = np.arange(len(block)) - inside
    order, lengths = _runs(block * span + hub + two_t[block] - low_t + low_r)
    starts = np.cumsum(lengths) - lengths
    groups, group_block = [], []
    for members in _groups(lengths):
        x = order[starts[members][:, None] + np.arange(lengths[members[0]])]
        groups.append(row[outside[x][:, :, None] + inside[x][:, None, :]]
                      + column[outside[x][:, None, :] + inside[x][:, :, None]])
        group_block.append(block[x[:, 0]])
    group_block = np.concatenate(group_block)
    by_block, counts = _runs(group_block)
    cutoff = np.minimum(NEGATIVE_EIGENVALUE_CUTOFF, -dims * _EPS)
    return (sectors, sector_log_d, groups,
            log_d[group_block], cutoff[group_block], group_block, by_block,
            np.cumsum(counts) - counts, len(ham))


def _star_cells(plan: tuple, temperatures: np.ndarray) -> np.ndarray:
    """``SpinStarModel._cells`` over one run of temperatures.

    Every reduction over sectors or groups runs along the last axis,
    one temperature per row, so that a run of one temperature and a
    run of many round alike.
    """
    sectors, sector_log_d, groups, group_log_d, cutoff, group_block, by_block, starts, _ = plan
    weights = [_boltzmann(exc.ravel(), temperatures).reshape(-1, *exc.shape)
               for exc, _ in sectors]
    # log Z by a log-sum-exp over the sectors; a sector without weight adds 0
    with np.errstate(divide="ignore"):
        logs = sector_log_d + np.log(np.concatenate([w.sum(axis=2) for w in weights], axis=1))
    top = logs.max(axis=1, keepdims=True)
    log_z = top + np.log(np.exp(logs - top).sum(axis=1, keepdims=True))
    rho = np.concatenate(
        [_sym((evecs * w[:, :, None, :]) @ evecs.swapaxes(1, 2)).reshape(len(w), evecs.size)
         for (_, evecs), w in zip(sectors, weights)], axis=1)
    # The state's eigenvalues are these over Z, each d times over
    spectra = [np.linalg.eigvalsh(rho[:, idx]) for idx in groups]
    largest = np.concatenate([np.maximum(-s[..., 0], s[..., -1]) for s in spectra], axis=1)
    scale = np.maximum.reduceat(largest[:, by_block], starts, axis=1)[:, group_block]
    below = np.split(cutoff * scale, np.cumsum([len(idx) for idx in groups])[:-1], axis=1)
    negative = np.concatenate([np.where(s < b[..., None], s, 0.0).sum(axis=2)
                               for s, b in zip(spectra, below)], axis=1)
    # a block's weight d / Z can overflow where its negativity is 0
    with np.errstate(divide="ignore"):
        e_n = np.exp(group_log_d - log_z + np.log(-negative)).sum(axis=1)
    lowest = np.min([s[..., 0].min(axis=1) for s in spectra], axis=0)
    return np.stack([e_n, lowest * np.exp(-log_z[:, 0])], axis=1)


def _e_n(spectrum: np.ndarray) -> float:
    negative = spectrum[spectrum < NEGATIVE_EIGENVALUE_CUTOFF]
    return float(-negative.sum()) if negative.size else 0.0
