"""Model specs, coupling matrices and bonds for ring and star geometries.

Two model kinds are supported:

* ``harmonic``: a chain of unit-mass oscillators with quadratic coupling,
  fully described by a symmetric positive-definite potential matrix V.
* ``spin_half``: spin-1/2 particles with an XX exchange term on each
  bond and a uniform transverse field h, built sector by sector by
  :mod:`thermaneg.spin` from the spec and ``topology_edges``.

Topologies are a nearest-neighbour ring (``ring_nn``) and a star in
which one central site couples to every other site (``star``).  Site 1
is the hub of the star.  Sites are numbered from 1 in documentation and
I/O; internal arrays are 0-based.

The conventions both engines share live here too: the site-to-bit map
of spin basis states, and how temperatures are checked and stacked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_SPIN_SITES_DEFAULT",
    "ModelSpec",
    "PotentialMatrix",
    "topology_edges",
    "build_ring_potential",
    "build_star_potential",
    "build_potential",
]

MAX_SPIN_SITES_DEFAULT = 12

# The engines stack one matrix per temperature.  A stacked array holds at
# most this many float64 entries (32 MiB); a matrix bigger than that on
# its own is stacked alone.
STACK_ENTRIES = 2**22

_KINDS = ("harmonic", "spin_half")
_TOPOLOGIES = ("ring_nn", "star")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one model instance.

    Parameters
    ----------
    kind:
        ``"harmonic"`` or ``"spin_half"``.
    topology:
        ``"ring_nn"`` or ``"star"``.
    n_sites:
        Number of particles: at least 2 for harmonic models (ring and
        star potentials alike); a single spin with only the field term
        is allowed.
    c:
        Harmonic coupling strength.  The ring potential requires
        0 <= c < 1/2 to stay positive definite, the star requires
        c > 0.  Unused for spin models, whose exchange coupling is
        fixed at unity.
    h:
        Transverse field of the spin model.  Ignored for harmonic
        models.

    Both c and h must be finite, and so must the largest matrix entry
    they make: 1 + (n-1)c on a harmonic star's hub, n h on a spin
    model's diagonal.
    """

    kind: str
    topology: str
    n_sites: int
    c: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {_KINDS}")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {_TOPOLOGIES}"
            )
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be at least 1, got {self.n_sites}")
        if not (np.isfinite(self.c) and np.isfinite(self.h)):
            raise ValueError(f"couplings must be finite, got c={self.c}, h={self.h}")
        if self.kind == "harmonic":
            if self.n_sites < 2:
                raise ValueError(f"harmonic models need at least 2 sites, got {self.n_sites}")
            if self.topology == "ring_nn" and not 0.0 <= self.c < 0.5:
                raise ValueError(
                    f"harmonic ring coupling must satisfy 0 <= c < 1/2, got c={self.c}"
                )
            if self.topology == "star" and self.c <= 0.0:
                raise ValueError(f"harmonic star coupling must be positive, got c={self.c}")
        largest = 0.0
        if self.kind == "spin_half":
            largest = self.n_sites * self.h
        elif self.topology == "star":
            largest = 1.0 + (self.n_sites - 1) * self.c
        if not np.isfinite(largest):
            raise ValueError(
                f"couplings overflow the model's matrix entries, got c={self.c}, h={self.h}"
            )


def _is_circulant(v: np.ndarray) -> bool:
    """Every row is exactly the cyclic shift of row 0."""
    return np.array_equal(v[1:, 1:], v[:-1, :-1]) and np.array_equal(v[1:, 0], v[0, :0:-1])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _symmetric(entries, dim: int, name: str) -> np.ndarray:
    """``entries`` as a float array, refused unless it is dim x dim,
    finite and exactly symmetric, checked in that order."""
    m = np.asarray(entries, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} shape {m.shape} is not {(dim, dim)}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    # Row slab against column slab: comparing m with m.T in one pass
    # reads the transpose across the rows, about six times slower than
    # the slabs for a V of 2048 sites.
    if not all(np.array_equal(m[i:i + 64, i:].T, m[i:, i:i + 64]) for i in range(0, dim, 64)):
        raise ValueError(f"{name} must be exactly symmetric")
    return m


@dataclass(frozen=True)
class PotentialMatrix:
    """Finite, symmetric positive-definite coupling matrix of a harmonic model.

    ``spectrum`` is (lam, u), found and checked once here: an exactly
    circulant V takes lam = DFT of row 0 and u = None, any other V one
    ``eigh``.  Both arrays are read-only.
    """

    n: int
    entries: np.ndarray
    spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _symmetric(self.entries, self.n, "potential matrix")
        lam, u = (np.fft.fft(m[0]).real, None) if _is_circulant(m) else np.linalg.eigh(m)
        lam_min = float(lam.min())
        if not lam_min > 0.0:
            raise ValueError(
                f"potential matrix must be positive definite; minimum eigenvalue {lam_min}"
            )
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(self, "spectrum", (_frozen(lam), u if u is None else _frozen(u)))


def site_mask(n: int, sites) -> int:
    """Basis-index bits of the given 0-based sites of an n-site system."""
    return sum(1 << (n - 1 - int(i)) for i in sites)


def popcount(states: np.ndarray) -> np.ndarray:
    """Number of set bits of each basis index: its down spins."""
    count = np.zeros_like(states)
    for k in range(int(states.max()).bit_length()):
        count += (states >> k) & 1
    return count


def temperature_array(temperatures) -> np.ndarray:
    """The temperatures as a float array; ValueError unless each is >= 0."""
    temps = np.asarray(temperatures, dtype=float)
    bad = temps[~(temps >= 0.0)]
    if bad.size:
        raise ValueError(f"temperature must be nonnegative, got {float(bad[0])}")
    return temps


def stacked(kernel, temperatures: np.ndarray, entries: int) -> np.ndarray:
    """``kernel`` over runs of the temperatures, joined along axis 0.

    ``entries`` is the size of the largest array that ``kernel`` stacks
    per temperature; a run holds as many temperatures as fit
    STACK_ENTRIES, and one at least.  An empty list makes one empty run,
    so the result keeps its trailing shape.
    """
    step = max(1, STACK_ENTRIES // max(entries, 1))
    return np.concatenate(
        [kernel(temperatures[i:i + step]) for i in range(0, len(temperatures) or 1, step)]
    )


def topology_edges(topology: str, n: int) -> list[tuple[int, int]]:
    """Undirected edge list (0-based, deduplicated) of a topology.

    A 2-site ring collapses to a single bond and a 1-site system has no
    bonds at all.
    """
    if topology == "ring_nn":
        edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n) if i != (i + 1) % n}
        return sorted(edges)
    if topology == "star":
        return [(0, j) for j in range(1, n)]
    raise ValueError(f"unknown topology {topology!r}")


def build_ring_potential(n: int, c: float) -> PotentialMatrix:
    """Circulant ring potential: unit diagonal, -c on both cyclic neighbours.

    For n >= 3 the eigenvalues are 1 - 2c cos(2 pi k / n), so c < 1/2
    keeps the matrix positive definite for every n; the same bound is
    enforced for n = 2, where the two cyclic neighbours coincide and
    the matrix is [[1, -c], [-c, 1]] with eigenvalues 1 -+ c.
    """
    if n < 2:
        raise ValueError(f"ring potential needs at least 2 sites, got {n}")
    if not 0.0 <= c < 0.5:
        raise ValueError(f"ring coupling must satisfy 0 <= c < 1/2, got {c}")
    v = np.eye(n)
    for i in range(n):
        v[i, (i + 1) % n] = -c
        v[(i + 1) % n, i] = -c
    return PotentialMatrix(n=n, entries=v)


def build_star_potential(n: int, c: float) -> PotentialMatrix:
    """Star potential: hub on site 1 coupled equally to all outer sites.

    The hub diagonal is 1 + (n-1)c, outer diagonals are 1 + c, hub rows
    and columns carry -c, and outer sites do not couple to each other.
    """
    if n < 2:
        raise ValueError(f"star potential needs at least 2 sites, got {n}")
    if c <= 0.0:
        raise ValueError(f"star coupling must be positive, got {c}")
    v = np.eye(n) * (1.0 + c)
    v[0, 0] = 1.0 + (n - 1) * c
    v[0, 1:] = -c
    v[1:, 0] = -c
    return PotentialMatrix(n=n, entries=v)


def build_potential(spec: ModelSpec) -> PotentialMatrix:
    """Potential matrix of a harmonic ModelSpec."""
    if spec.kind != "harmonic":
        raise ValueError(f"expected a harmonic model, got kind={spec.kind!r}")
    if spec.topology == "ring_nn":
        return build_ring_potential(spec.n_sites, spec.c)
    return build_star_potential(spec.n_sites, spec.c)


def check_spin_sites(n: int, max_sites: int) -> None:
    """Refuse a spin model of more than ``max_sites`` sites."""
    if n > max_sites:
        raise ValueError(
            f"spin model with {n} sites exceeds the configured maximum of {max_sites}"
        )
