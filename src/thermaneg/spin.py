"""Exact thermal states of the spin-1/2 models and their negativity.

States live in the computational basis, where the XX-with-field
Hamiltonians are real symmetric; density matrices and their partial
transposes are then real symmetric too and a symmetric eigensolver
applies throughout.  Both engines, ``SpinModel`` on the basis states
and ``SpinStarModel`` on the star's collective-spin blocks, run one
kernel, and no 2^n x 2^n matrix is formed:

* ``_layout`` lays the magnetisation sectors' blocks end to end in one
  flat array, with ``row``/``column`` maps into it;
* ``_solve`` diagonalizes H there, one stacked ``eigh`` per sector size;
* ``_gibbs`` builds the Gibbs states of a run of temperatures and log Z;
* ``_charge_groups`` plans the gather of each charge block of the
  partial transpose straight from those sector blocks, and
  ``_spectra`` solves them, one stacked ``eigvalsh`` per block size;
* ``_reduce`` turns the spectra into E_N and the lowest eigenvalue,
  each block weighted by its log weight.

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
        weights = np.exp(excitations / -temperatures[:, None])
    weights[temperatures == 0.0] = excitations == 0.0
    return weights


def _layout(keys: np.ndarray) -> tuple:
    """The sectors, runs of equal keys over a basis, as blocks raveled
    end to end: size after size, keys ascending within a size, states
    ascending within a block.  Returns (row, column, first, sizes):
    entry (u, v) of a block is entry row[u] + column[v], and each
    sector's first state and size, in layout order."""
    order, lengths = _runs(keys)
    starts = np.cumsum(lengths) - lengths
    sector = np.repeat(np.arange(len(lengths)), lengths)
    ranked = np.concatenate(_groups(lengths))
    offsets = np.empty_like(lengths)
    offsets[ranked] = np.cumsum(lengths[ranked] ** 2) - lengths[ranked] ** 2
    column = np.empty_like(order)
    column[order] = np.arange(len(order)) - starts[sector]
    row = np.empty_like(order)
    row[order] = offsets[sector] + lengths[sector] * column[order]
    return row, column, order[starts[ranked]], lengths[ranked]


def _solve(ham: np.ndarray, sizes: np.ndarray) -> tuple:
    """(excitations, eigenvectors) of a flat H laid out by ``_layout``
    with these sector sizes: the energies above the ground energy of
    all sectors (see ``_excitations``), flat in layout order, and one
    (count, size, size) stack of eigenvectors per sector size."""
    _, counts = _runs(sizes)
    size = sizes[np.cumsum(counts) - 1]
    pairs = [np.linalg.eigh(block.reshape(count, side, side)) for block, count, side
             in zip(np.split(ham, np.cumsum(counts * size**2)[:-1]), counts, size)]
    energies = np.concatenate([values.ravel() for values, _ in pairs])
    return _excitations(energies, energies.min()), [vectors for _, vectors in pairs]


def _gibbs(sectors: tuple, log_d, temperatures: np.ndarray) -> tuple:
    """(states, log Z), one row per temperature, from ``_solve``'s
    sectors: the unnormalized Gibbs states, laid out as H is, by one
    stacked product per sector size, and log Z by a log-sum-exp over
    the sectors, sector s counted exp(log_d[s]) times, so that no
    multiplicity overflows it.  Every reduction runs along the last
    axis, so that a run of one temperature and a run of many round
    alike."""
    excitations, evecs = sectors
    weights = _boltzmann(excitations, temperatures)
    states = np.empty((len(weights), sum(vectors.size for vectors in evecs)))
    sums, start, at = [], 0, 0
    for vectors in evecs:
        stop = start + vectors.shape[0] * vectors.shape[1]
        w = weights[:, start:stop].reshape(len(weights), *vectors.shape[:2])
        sums.append(np.add.reduce(w, axis=2))
        product = (vectors * w[:, :, None, :]) @ vectors.swapaxes(1, 2)
        # twice the symmetric part, halved below for all sizes at once
        out = states[:, at:at + vectors.size].reshape(product.shape)
        np.add(product, product.swapaxes(2, 3), out=out)
        start, at = stop, at + vectors.size
    states *= 0.5
    # a sector without weight adds 0
    with np.errstate(divide="ignore"):
        logs = log_d + np.log(np.concatenate(sums, axis=1))
    top = np.maximum.reduce(logs, axis=1, keepdims=True)
    return states, top + np.log(np.add.reduce(np.exp(logs - top), axis=1, keepdims=True))


def _charge_groups(keys: np.ndarray, inside: np.ndarray, outside: np.ndarray,
                   row: np.ndarray, column: np.ndarray) -> tuple:
    """The charge groups of a partial transpose, runs of equal ``keys``
    over a list of basis states, each state's index the sum of its
    parts ``inside`` and ``outside`` the transposed sites.  Returns
    (stacks, first, sizes): per group size, the (count, size, size)
    indices of its groups' entries into a state laid out by ``_layout``
    with maps ``row`` and ``column``; and each group's first member (a
    position in the list) and size, in the stacks' order.

    Entry (x, y) of a group is entry (x', y') of the state, with
    x' = outside(x) + inside(y) and y' = inside(x) + outside(y)
    (Cornfeld, Goldstein & Sela, PRA 98, 032302 (2018)); for x and y of
    one charge, x' and y' share a sector, so the groups of all charges
    read each entry of the sector blocks once.
    """
    order, lengths = _runs(keys)
    starts = np.cumsum(lengths) - lengths
    ranked = _groups(lengths)
    stacks = []
    for members in ranked:
        x = order[starts[members][:, None] + np.arange(lengths[members[0]])]
        stacks.append(row[outside[x][:, :, None] + inside[x][:, None, :]]
                      + column[inside[x][:, :, None] + outside[x][:, None, :]])
    ranked = np.concatenate(ranked)
    return stacks, order[starts[ranked]], lengths[ranked]


def _spectra(states: np.ndarray, stacks: list) -> np.ndarray:
    """The eigenvalues of the groups that ``_charge_groups``' stacks
    gather from each state, ascending within each group, in the stacks'
    order: one stacked ``eigvalsh`` per group size."""
    return np.concatenate(
        [np.linalg.eigvalsh(states.take(idx, axis=1)).reshape(len(states), idx[..., 0].size)
         for idx in stacks],
        axis=1)


def _reduce(spectra: np.ndarray, stacks: list, below, log_weights) -> tuple:
    """(E_N, lowest eigenvalue) per row of ``_spectra``: E_N adds up the
    eigenvalues below ``below`` (broadcast against the spectra), each
    group's sum times exp(its log weight) taken in logs, so that a
    weight that overflows where the sum is 0 adds nothing."""
    negative = np.where(spectra < below, spectra, 0.0)
    sums, start = [], 0
    for idx in stacks:
        count, size = idx.shape[:2]
        group = negative[:, start:start + count * size].reshape(len(spectra), count, size)
        sums.append(np.add.reduce(group, axis=2))
        start += count * size
    with np.errstate(divide="ignore"):
        e_n = np.add.reduce(np.exp(log_weights + np.log(-np.concatenate(sums, axis=1))), axis=1)
    return e_n, np.minimum.reduce(spectra, axis=1)


def _sector_hamiltonians(spec: ModelSpec) -> tuple:
    """(H, layout): H of each magnetisation sector, k set bits, laid out
    by ``_layout``.  Site i (0-based) is bit n-1-i, as ``site_mask`` and
    ``popcount`` read it, and a set bit is a down spin: the field
    h sigma_z of every site puts h (n - 2k) on the diagonal, and each
    bond's exchange -(sigma_x sigma_x + sigma_y sigma_y) puts -2 between
    the two states that its flip of two unequal bits joins.
    """
    n = spec.n_sites
    states = np.arange(2**n)
    down = popcount(states)
    layout = _layout(down)
    row, column, _, sizes = layout
    ham = np.zeros(int((sizes**2).sum()))
    # added to 0.0, so that a field term of -0.0 enters eigh as 0.0
    ham[row + column] += spec.h * (n - 2 * down)
    for bond in topology_edges(spec.topology, n):
        mask = site_mask(n, bond)
        flips = states[popcount(states & mask) == 1]
        ham[row[flips ^ mask] + column[flips]] = -2.0
    return ham, layout


class SpinModel:
    """The spin-1/2 XX model with field on the basis states: the
    module's kernel with every sector counted once.  A partition's
    gather plan is built once and kept for the last partition only,
    since one plan holds up to C(2n, n) indices; where a symmetry of
    the bonds swaps its sides, blocks q < 0 are not solved and their
    twins q > 0 weigh twice (see ``_charge_blocks``).
    """

    def __init__(self, spec: ModelSpec):
        if spec.kind != "spin_half":
            raise ValueError(f"expected a spin model, got kind={spec.kind!r}")
        self.n = spec.n_sites
        ham, (self._row, self._column, _, sizes) = _sector_hamiltonians(spec)
        self._sectors = _solve(ham, sizes)
        self._entries = len(ham)
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
        rho, log_z = _gibbs(self._sectors, 0.0, temperature_array(temperatures))
        rho *= np.exp(-log_z)
        return rho

    def _charge_blocks(self, labels) -> tuple:
        """The plan of the partial transpose on the +1 sites of checked
        labels: the ``_charge_groups`` stacks of its solved blocks, one
        per charge imbalance q = N_B - N_A (set bits outside the
        transposed sites A minus those inside), and each block's log
        weight.

        Where a rotation or reflection g of the sites keeps the bonds and
        swaps A and B (labels[g] == -labels), only the blocks q >= 0 are
        solved, and each q > 0 weighs log 2 for itself and its twin -q:
        the state is real symmetric and g-invariant, so
        g rho^{T_A} g^T = rho^{T_B} = rho^{T_A}, and g takes charge q to
        -q.  Every other block weighs log 1 = 0.  Only the last labels'
        plan is kept.
        """
        key = labels.tobytes()
        if self._plan[0] != key:
            self._plan = None, None  # free the old plan before the new one is built
            transposed = site_mask(self.n, np.flatnonzero(labels > 0))
            states = np.arange(2**self.n)
            charge = popcount(states) - 2 * popcount(states & transposed)
            twins = any(np.array_equal(labels[g], -labels) for g in self._symmetries)
            x = np.flatnonzero((charge >= 0) | (not twins))
            blocks, first, _ = _charge_groups(
                charge[x], x & transposed, x & ~transposed, self._row, self._column)
            self._plan = key, (blocks, np.where(twins & (charge[x[first]] > 0), math.log(2.0), 0.0))
        return self._plan[1]

    def _cells(self, temperatures: np.ndarray, signs: list) -> np.ndarray:
        """``negativity_grid`` over one run of temperatures: one
        stacked ``eigvalsh`` per charge-block size and partition."""
        rho = self.thermal_rho(tuple(temperatures.tolist()))
        cells = np.empty((len(temperatures), len(signs), 3))
        for j, labels in enumerate(signs):
            blocks, log_weights = self._charge_blocks(labels)
            spectra = _spectra(rho, blocks)
            e_n, lowest = _reduce(spectra, blocks, NEGATIVE_EIGENVALUE_CUTOFF, log_weights)
            for i, values in enumerate(zip(e_n.tolist(), lowest.tolist())):
                cells[i, j] = _cell(*values)
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
    4 on one outer site.  Sectors and groups run through the module's
    kernel, a sector's log weight log d and a group's its block's.  One
    grouping's plan is built on first use and cached per a.
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
    (s, i_T, i_R) in that index order; its sectors of fixed N go to
    ``_layout`` and its groups of fixed q to ``_charge_groups``.
    Returns (``_solve``'s sectors, their log multiplicities, the group
    stacks, their log multiplicities, each block's cutoff on the scale
    of its largest |eigenvalue|, the block of each eigenvalue of
    ``_spectra`` with the order and starts that run through them block
    by block, the state's size).
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
    row, column, first, sizes = _layout(block * span + hub + low_t + low_r)

    # the field puts h(2J_T + 2J_R + 1 - 2N) on the diagonal, and the
    # exchange -2 sqrt((i + 1)(2J - i)) between a down hub and the up
    # hub with one lowering more in T or in R
    ham = np.zeros(int((sizes**2).sum()))
    ham[row + column] += h * (two_t[block] + two_r[block] + 1 - 2 * (hub + low_t + low_r))
    for low, two, step in ((low_t, two_t, size_r), (low_r, two_r, np.ones_like(two_r))):
        down = np.flatnonzero((hub == 1) & (low < two[block]))
        up = down - (size_rt - step)[block[down]]
        ham[row[down] + column[up]] = ham[row[up] + column[down]] = -2.0 * np.sqrt(
            (low[down] + 1.0) * (two[block[down]] - low[down]))

    inside = low_t * size_r[block]
    groups, group_first, group_sizes = _charge_groups(
        block * span + hub + two_t[block] - low_t + low_r,
        inside, np.arange(len(block)) - inside, row, column)
    group_block = block[group_first]
    eigenvalue_block = np.repeat(group_block, group_sizes)
    by_block, counts = _runs(eigenvalue_block)
    cutoff = np.minimum(NEGATIVE_EIGENVALUE_CUTOFF, -dims * _EPS)
    return (_solve(ham, sizes), log_d[block[first]], groups, log_d[group_block], cutoff,
            eigenvalue_block, by_block, np.cumsum(counts) - counts, len(ham))


def _star_cells(plan: tuple, temperatures: np.ndarray) -> np.ndarray:
    """``SpinStarModel._cells`` over one run of temperatures."""
    sectors, sector_log_d, groups, group_log_d, cutoff, eigenvalue_block, by_block, starts, _ = plan
    rho, log_z = _gibbs(sectors, sector_log_d, temperatures)
    # The state's eigenvalues are these over Z, each d times over
    spectra = _spectra(rho, groups)
    scale = np.maximum.reduceat(np.abs(spectra)[:, by_block], starts, axis=1)
    below = (cutoff * scale)[:, eigenvalue_block]
    e_n, lowest = _reduce(spectra, groups, below, group_log_d - log_z)
    return np.stack([e_n, lowest * np.exp(-log_z[:, 0])], axis=1)
