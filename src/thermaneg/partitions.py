"""Bipartition families and their boundary areas.

A partition assigns each site a sign; the +1 sites form one block of
the bipartition.  Its boundary area counts the interaction bonds whose
endpoints carry opposite signs, which is the quantity entanglement
area laws are stated against.

On the ring the area is counted cyclically site by site, so the
two-site ring has area 2 for any proper bipartition, one crossing per
direction.  On the star only hub bonds exist and the area equals the
number of outer sites labeled opposite to the hub.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Partition",
    "boundary_area",
    "from_mask",
    "even_odd",
    "half_half",
    "alternating_blocks",
    "transfer_sweep",
    "central_vs_rest",
    "single_external_vs_rest",
]


@dataclass(frozen=True)
class Partition:
    """Signed bipartition of n sites with a precomputed boundary area."""

    labels: tuple
    area: int
    id: str

    def __post_init__(self):
        if not self.labels:
            raise ValueError("partition needs at least one site")
        label_signs(self.labels)
        if len(set(self.labels)) < 2:
            raise ValueError("partition must contain both signs")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def mask(self) -> str:
        """Serialized form, site 1 leftmost, '+' for the +1 block."""
        return "".join("+" if s > 0 else "-" for s in self.labels)


def label_signs(partition) -> np.ndarray:
    """The labels of a Partition or a raw sequence as floats, each
    checked to be exactly +1 or -1."""
    signs = np.asarray(getattr(partition, "labels", partition), dtype=float)
    if signs.ndim != 1 or not np.all(np.abs(signs) == 1.0):
        raise ValueError("partition labels must be +1 or -1")
    return signs


def boundary_area(labels, topology: str, n: int) -> int:
    """Count interaction bonds crossed by the partition."""
    if len(labels) != n:
        raise ValueError(f"label vector of length {len(labels)} does not match n={n}")
    if topology == "ring_nn":
        return sum(labels[i] != labels[(i + 1) % n] for i in range(n))
    if topology == "star":
        return sum(labels[0] != labels[j] for j in range(1, n))
    raise ValueError(f"unknown topology {topology!r}")


def _make(labels, topology, pid) -> Partition:
    labels = tuple(int(s) for s in labels)
    return Partition(labels=labels, area=boundary_area(labels, topology, len(labels)), id=pid)


def from_mask(mask: str, topology: str = "ring_nn", pid: str | None = None) -> Partition:
    """Generic constructor from a '+'/'-' string, site 1 leftmost."""
    signs = []
    for ch in mask:
        if ch == "+":
            signs.append(+1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise ValueError(f"mask may contain only '+' and '-', got {ch!r}")
    return _make(signs, topology, pid if pid is not None else f"mask-{mask}")


def even_odd(n: int, topology: str = "ring_nn") -> Partition:
    """Odd sites against even sites; ring area equals n."""
    if n % 2 or n < 4:
        raise ValueError(f"even-odd partition needs even n >= 4, got {n}")
    return _make([+1 if i % 2 == 0 else -1 for i in range(n)], topology, "even-odd")


def half_half(n: int, topology: str = "ring_nn") -> Partition:
    """First half of the sites against the second half.

    On the ring this is the minimal-area proper bipartition (area 2).
    On the star the hub sits in the +1 block together with outer sites
    2..n/2, so the area is n/2.
    """
    if n % 2 or n < 2:
        raise ValueError(f"half-half partition needs even n >= 2, got {n}")
    return _make([+1 if i < n // 2 else -1 for i in range(n)], topology, "half-half")


def alternating_blocks(n_exp: int, nb_exp: int, topology: str = "ring_nn") -> Partition:
    """2^nb_exp alternating contiguous blocks on 2^n_exp sites.

    nb_exp = 1 reproduces the half-half partition and nb_exp = n_exp
    the even-odd one; the ring area is 2^nb_exp.
    """
    if not 1 <= nb_exp <= n_exp:
        raise ValueError(f"block exponent must lie in 1..{n_exp}, got {nb_exp}")
    n = 2**n_exp
    size = 2 ** (n_exp - nb_exp)
    labels = [+1 if (i // size) % 2 == 0 else -1 for i in range(n)]
    return _make(labels, topology, f"blocks-2^{nb_exp}")


def transfer_sweep(n: int, topology: str = "ring_nn") -> list:
    """Partitions from even-odd down to a single even-block site.

    Starting from the even-odd split, each step moves one even site
    (ascending: site 2, then 4, ...) into the odd block, shrinking the
    ring area by exactly 2 per step: n, n-2, ..., 2.  The k-th element
    has id ``transfer-k`` where k counts the moved sites.
    """
    if n % 2 or n < 4:
        raise ValueError(f"transfer sweep needs even n >= 4, got {n}")
    labels = [+1 if i % 2 == 0 else -1 for i in range(n)]
    out = [_make(labels, topology, "transfer-0")]
    for k in range(1, n // 2):
        labels[2 * k - 1] = +1
        out.append(_make(labels, topology, f"transfer-{k}"))
    return out


def central_vs_rest(n: int, topology: str = "star") -> Partition:
    """Hub alone against all outer sites; star area is n - 1."""
    if n < 2:
        raise ValueError(f"central partition needs n >= 2, got {n}")
    return _make([+1] + [-1] * (n - 1), topology, "central")


def single_external_vs_rest(n: int, site: int, topology: str = "star") -> Partition:
    """One site against everything else; star area is 1.

    ``site`` is 1-based.  On the star site 1 is the hub and is rejected
    here (that partition is central_vs_rest); a ring has no hub, and
    any of its sites may stand alone.
    """
    first = 2 if topology == "star" else 1
    if site == 1 and first == 2:
        raise ValueError("site 1 is the hub; use central_vs_rest for it")
    if not first <= site <= n:
        raise ValueError(f"site must lie in {first}..{n}, got {site}")
    labels = [-1] * n
    labels[site - 1] = +1
    return _make(labels, topology, f"external-{site}")
