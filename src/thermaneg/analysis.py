"""Threshold temperatures, bound-entanglement windows, and area-law
diagnostics built on top of the two negativity engines.

A partition counts as PPT when its E_N drops below ``EPS_PPT``; the
same constant drives sweep flags, threshold brackets, and window
verification so that every module reaches identical verdicts.
Every engine has one evaluation method, ``negativity_grid``, which
gives E_N, E_l and a signed PPT margin per (temperature, partition)
cell.  A sweep is one such call, its array kept in a ``SweepGrid``
beside its temperatures and partitions; an input the engine refuses
raises before any grid exists.  Thresholds are found by one root
finder (``_root``): a coarse guard scan, taken as one grid call, then
safeguarded secant steps on the margin, one 1 x 1 grid call each, with
the bracket moved by the verdict alone.  A scaling of the threshold
gap with system size is one ``threshold_temperature`` call per
partition and size, which the ``scaling`` command makes itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianModel
from .lattice import MAX_SPIN_SITES_DEFAULT, ModelSpec, build_potential, check_spin_sites
from .spin import SpinModel, SpinStarModel

__all__ = [
    "EPS_PPT",
    "SweepGrid",
    "ThresholdError",
    "NotEntangledError",
    "ThresholdResult",
    "WindowResult",
    "make_engine",
    "sweep",
    "threshold_temperature",
    "bound_entanglement_window",
    "rank1_factorizability",
]

# A partition is declared PPT when E_N falls below this.  It sits far
# above eigensolver noise for every dimension used here, but not below
# every physical negativity: a field scales a spin model's negative
# eigenvalues down without changing their count, so at h != 0 a cell
# near a threshold can be NPT with E_N under the cutoff and read PPT
# (10-site spin ring at h = 1.9: T = 2.549 and 2.551).  Spin verdicts
# and thresholds at h != 0 therefore depend on this cutoff.
EPS_PPT = 1e-10

_DEFAULT_BRACKET = (0.01, 20.0)


def _ppt(e_n):
    """The PPT verdict, E_N < EPS_PPT, of a value or of each in an array."""
    return e_n < EPS_PPT


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """A model's sweep: ``values[i, j]`` holds (E_N, E_l, PPT margin) at
    ``temperatures[i]`` and ``partitions[j]``, in a read-only copy."""

    spec: ModelSpec
    temperatures: tuple
    partitions: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        shape = (len(self.temperatures), len(self.partitions), 3)
        if values.shape != shape:
            raise ValueError(f"sweep values of shape {values.shape}, expected {shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def is_ppt(self) -> np.ndarray:
        """The PPT verdict of every cell, shape (temperatures, partitions)."""
        return _ppt(self.values[..., 0])


class ThresholdError(RuntimeError):
    """Raised when a PPT threshold cannot be bracketed as requested."""


class NotEntangledError(ThresholdError):
    """Raised when the partition is already PPT at the bracket's low end."""


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of one threshold search.

    The bracket satisfies E_N(bracket_lo) >= EPS_PPT > E_N(bracket_hi)
    with bracket width at most the requested tolerance, or its ends are
    adjacent floats when the tolerance is below float resolution;
    t_threshold is the bracket midpoint.  ``evaluations`` counts the
    temperatures evaluated, guard scan included.
    """

    partition_id: str
    t_threshold: float
    bracket: tuple
    tolerance: float
    evaluations: int
    warning: str | None = None


@dataclass(frozen=True)
class WindowResult:
    """Temperature window where the certificate partition is PPT while
    the witness partition still carries negativity."""

    certificate_id: str
    witness_id: str
    window: tuple | None
    note: str = ""
    midpoint_certificate_e_n: float | None = None
    midpoint_witness_e_n: float | None = None


def make_engine(spec: ModelSpec, max_spin_sites: int = MAX_SPIN_SITES_DEFAULT):
    """Negativity engine for a model: Gaussian, the collective-spin
    route for a spin star, or the sector engine for a spin ring.
    Spin models of more than ``max_spin_sites`` sites are refused on
    either topology."""
    if spec.kind == "harmonic":
        return GaussianModel(build_potential(spec))
    check_spin_sites(spec.n_sites, max_spin_sites)
    if spec.topology == "star":
        return SpinStarModel(spec.n_sites, spec.h)
    return SpinModel(spec)


def _root(probe, ts, scan, tol: float):
    """Refine the largest-T cell of a guard scan where the verdict falls.

    ``probe(t)`` returns ``(above, margin)``: the verdict, and a
    continuous margin that is positive where the verdict holds.  ``ts``
    are the scan temperatures, ascending, and ``scan`` their probes.
    The scan's first verdict must hold and its last must not.  Returns
    ``(lo, hi, warning)`` with above(lo) true and above(hi) false.

    Inside the cell, Illinois-modified secant steps on the margin pick
    the next temperature, kept at least tol/2 inside the bracket, while
    the verdict alone decides which end moves.  The bracket must keep
    to one halving per two steps: an even-numbered step that finds it
    wider than cell / 2**(steps / 2) bisects instead, as does any step
    whose end margins disagree in sign with the verdicts.  So after 2j
    steps the bracket is at most cell / 2**j wide.  It stops once no
    wider than tol, or when its midpoint rounds onto an end (adjacent
    floats).
    """
    cells = [i for i in range(len(ts) - 1) if scan[i][0] and not scan[i + 1][0]]
    warning = None
    if len(cells) > 1:
        warning = (
            f"coarse scan found {len(cells)} sign changes; "
            f"refining the largest-T crossing"
        )
        warnings.warn(warning, stacklevel=3)
    i = cells[-1]
    lo, hi = ts[i], ts[i + 1]
    g_lo, g_hi = scan[i][1], scan[i + 1][1]
    cell = hi - lo
    steps = 0
    kept = 0  # +1 when the last step kept lo, -1 when it kept hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps += 1
        behind = steps % 2 == 0 and hi - lo > cell * 0.5 ** (steps // 2)
        t = mid
        if not behind and g_lo > 0.0 >= g_hi:
            t = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            t = min(max(t, lo + 0.5 * tol), hi - 0.5 * tol)
            if not lo < t < hi:
                t = mid
        above, g = probe(t)
        if above:
            lo, g_lo = t, g
            if kept == -1:  # hi kept twice: Illinois halves its margin
                g_hi *= 0.5
            kept = -1
        else:
            hi, g_hi = t, g
            if kept == 1:
                g_lo *= 0.5
            kept = 1
    return lo, hi, warning


def sweep(spec: ModelSpec, temperatures, partitions, engine=None) -> SweepGrid:
    """Evaluate every (temperature, partition) cell of the grid.

    The engine's ``negativity_grid`` evaluates the whole grid in one
    call, and whatever it raises propagates: a negative or NaN
    temperature, or a partition of the wrong size or with labels other
    than +1 and -1, is a ValueError before any grid exists.  With no
    partitions no engine is built or called.
    """
    temperatures = tuple(float(t) for t in temperatures)
    partitions = tuple(partitions)
    if len(set(temperatures)) != len(temperatures):
        raise ValueError("temperature list contains duplicates")
    if len({p.id for p in partitions}) != len(partitions):
        raise ValueError("partition list contains duplicate ids")
    if not partitions:
        return SweepGrid(spec, temperatures, partitions, np.empty((len(temperatures), 0, 3)))
    if engine is None:
        engine = make_engine(spec)
    values = engine.negativity_grid(temperatures, partitions)
    return SweepGrid(spec, temperatures, partitions, values)


def threshold_temperature(
    spec: ModelSpec,
    partition,
    t_lo: float = _DEFAULT_BRACKET[0],
    t_hi: float = _DEFAULT_BRACKET[1],
    tol: float = 1e-6,
    engine=None,
) -> ThresholdResult:
    """Temperature where the partition's negativity dies out.

    A guard scan over 8 equally spaced temperatures, one
    ``negativity_grid`` call, locates the largest-T cell where the
    verdict E_N >= EPS_PPT falls, and secant steps on the grid's margin
    column, one 1 x 1 call each, narrow the bracket below ``tol`` (see
    ``_root``).  The partition must be entangled at ``t_lo`` and PPT at
    ``t_hi``, the two ends of the scan; each failure mode gets its own
    message.  Should the scan see several sign changes, the largest-T
    one is refined and a warning is attached.  A ``tol`` that is not
    positive and finite, or a bracket that is not finite with
    t_lo < t_hi, raises ValueError.
    """
    if not (0.0 < tol < math.inf and math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise ValueError(
            f"root search needs tol > 0 and a finite range with lo < hi, "
            f"got tol={tol}, range=({t_lo}, {t_hi})"
        )
    if engine is None:
        engine = make_engine(spec)
    evaluations = 0

    def cells(ts: list) -> list:
        """(verdict, margin less EPS_PPT, E_N) at each temperature."""
        nonlocal evaluations
        evaluations += len(ts)
        values = engine.negativity_grid(ts, [partition])[:, 0].tolist()
        return [(not _ppt(e_n), margin - EPS_PPT, e_n) for e_n, _, margin in values]

    ts = [float(t) for t in np.linspace(t_lo, t_hi, 8)]
    scan = cells(ts)
    lo_val, hi_val = scan[0][2], scan[-1][2]
    if _ppt(lo_val):
        raise NotEntangledError(
            f"not entangled at T_lo={t_lo:g} (E_N={lo_val:.3e}); no threshold to find"
        )
    if not _ppt(hi_val):
        raise ThresholdError(
            f"still entangled at T_hi={t_hi:g} (E_N={hi_val:.3e}); enlarge the bracket"
        )
    lo, hi, warning = _root(lambda t: cells([t])[0][:2], ts, scan, tol)
    return ThresholdResult(
        partition_id=partition.id,
        t_threshold=0.5 * (lo + hi),
        bracket=(lo, hi),
        tolerance=tol,
        evaluations=evaluations,
        warning=warning,
    )


def bound_entanglement_window(
    spec: ModelSpec,
    certificate,
    witness,
    t_lo: float = _DEFAULT_BRACKET[0],
    t_hi: float = _DEFAULT_BRACKET[1],
    tol: float = 1e-6,
    engine=None,
) -> WindowResult:
    """Window between the two partitions' thresholds, verified at its
    midpoint (certificate PPT, witness entangled).

    When the caller's certificate turns out to have the larger
    threshold the roles are swapped and the swap is noted; the window
    is a statement about the numerically earlier threshold either way.
    If neither partition is ever entangled the window is empty.
    """
    if engine is None:
        engine = make_engine(spec)
    notes = []
    if spec.topology == "star":
        notes.append(
            "star topology has no translational symmetry; the PPT verdict "
            "certifies this partition only"
        )

    def try_threshold(part):
        try:
            return threshold_temperature(
                spec, part, t_lo=t_lo, t_hi=t_hi, tol=tol, engine=engine
            ).t_threshold
        except NotEntangledError:
            return None

    t_cert = try_threshold(certificate)
    t_wit = try_threshold(witness)

    def empty(reason: str) -> WindowResult:
        notes.append(reason)
        return WindowResult(
            certificate_id=certificate.id,
            witness_id=witness.id,
            window=None,
            note="; ".join(notes),
        )

    if t_wit is None and t_cert is None:
        return empty("neither partition is entangled anywhere in the bracket")
    if t_wit is None:
        return empty("witness partition is PPT across the whole bracket")
    cert_id, wit_id = certificate.id, witness.id
    cert_part, wit_part = certificate, witness
    if t_cert is None:
        lo, hi = t_lo, t_wit
        notes.append("certificate partition is PPT across the whole bracket")
    else:
        lo, hi = t_cert, t_wit
        if lo > hi:
            cert_id, wit_id = wit_id, cert_id
            cert_part, wit_part = wit_part, cert_part
            lo, hi = hi, lo
            notes.append(
                f"threshold order swapped the roles: {cert_id} certifies, "
                f"{wit_id} witnesses"
            )
    if hi - lo <= tol:
        return empty("thresholds coincide within tolerance; no window")

    mid = 0.5 * (lo + hi)
    cert_en, wit_en = engine.negativity_grid([mid], [cert_part, wit_part])[0, :, 0].tolist()
    if not _ppt(cert_en) or _ppt(wit_en):
        return empty(
            f"midpoint verification failed at T={mid:g} "
            f"(certificate E_N={cert_en:.3e}, witness E_N={wit_en:.3e})"
        )
    return WindowResult(
        certificate_id=cert_id,
        witness_id=wit_id,
        window=(lo, hi),
        note="; ".join(notes),
        midpoint_certificate_e_n=cert_en,
        midpoint_witness_e_n=wit_en,
    )


def rank1_factorizability(grid: SweepGrid) -> float:
    """Distance of the E_N table from an exact product f(T) g(partition).

    The grid's E_N values form a temperature-by-partition matrix M, its
    rows in ascending temperature; the result is the Frobenius distance
    from M to its best rank-one approximation, divided by the Frobenius
    norm of M.  A residual at numerical zero certifies that the
    negativity factorizes into a temperature profile times a partition
    profile; a residual well above zero refutes such a factorization.
    Single-row and single-column grids are trivially rank one; a grid
    with no cells, with an E_N that is not finite (inf beyond float
    range), or with no entanglement, raises ValueError.
    """
    m = grid.values[np.argsort(grid.temperatures, kind="stable"), :, 0]
    if not m.size:
        raise ValueError("empty grid: factorizability needs at least one cell")
    if not np.all(np.isfinite(m)):
        raise ValueError("E_N is not finite in some cell: factorizability needs a finite grid")
    if not np.any(m > 0.0):
        raise ValueError("all-zero grid: factorizability is undefined without entanglement")
    if min(m.shape) == 1:
        return 0.0
    s = np.linalg.svd(m, compute_uv=False)
    return float(math.sqrt(float((s[1:] ** 2).sum()) / float((s**2).sum())))

