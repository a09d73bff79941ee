"""Threshold temperatures, bound-entanglement windows, and area-law
diagnostics built on top of the two negativity engines.

A partition counts as PPT when its E_N drops below ``EPS_PPT``; the
same constant drives sweep flags, threshold brackets, and window
verification so that every module reaches identical verdicts.
Thresholds are found by one root finder (``_root``): a coarse guard
scan, then safeguarded secant steps on a continuous margin, with the
bracket moved by the verdict alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianModel
from .lattice import (
    MAX_SPIN_SITES_DEFAULT,
    ModelSpec,
    build_potential,
    build_spin_hamiltonian,
    check_spin_sites,
)
from .spin import SpinModel, SpinStarModel

__all__ = [
    "EPS_PPT",
    "SweepRow",
    "SweepGrid",
    "ThresholdError",
    "NotEntangledError",
    "ThresholdResult",
    "WindowResult",
    "GapRow",
    "GapTable",
    "make_engine",
    "sweep",
    "threshold_temperature",
    "bound_entanglement_window",
    "rank1_factorizability",
    "type2_gap_table",
]

# A partition is declared PPT when E_N falls below this; far above
# eigensolver noise for every dimension used here, far below any
# physical negativity in the regimes of interest.
EPS_PPT = 1e-10

_DEFAULT_BRACKET = (0.01, 20.0)


@dataclass(frozen=True)
class SweepRow:
    """One (temperature, partition) cell of a negativity sweep; the
    model is its grid's ``spec``."""

    temperature: float
    beta: float
    partition_id: str
    partition_mask: str
    area: int
    e_n: float
    e_l: float
    is_ppt: bool
    error: str = ""


@dataclass(frozen=True)
class SweepGrid:
    """Complete temperature-by-partition table for one model."""

    spec: ModelSpec
    rows: tuple


class ThresholdError(RuntimeError):
    """Raised when a PPT threshold cannot be bracketed as requested."""


class NotEntangledError(ThresholdError):
    """Raised when the partition is already PPT at the bracket's low end."""


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of one threshold search.

    The bracket satisfies E_N(bracket_lo) > EPS_PPT >= E_N(bracket_hi)
    with bracket width at most the requested tolerance, or its ends are
    adjacent floats when the tolerance is below float resolution;
    t_threshold is the bracket midpoint.  ``evaluations`` counts the
    engine spectra taken, guard scan included.
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


@dataclass(frozen=True)
class GapRow:
    n: int
    t_certificate: float
    t_witness: float
    gap: float


@dataclass(frozen=True)
class GapTable:
    """Threshold gaps across a family of sizes.

    ``max_rel_deviation`` is (max gap - min gap) / |mean gap|; zero for
    a single row.  A small value says the gap stays constant as the
    system grows, a large one that it drifts with size.
    """

    rows: tuple
    max_rel_deviation: float


def make_engine(spec: ModelSpec, max_spin_sites: int = MAX_SPIN_SITES_DEFAULT):
    """Negativity engine for a model: Gaussian, the collective-spin
    route for a spin star, or the dense spin engine for a spin ring.
    Spin models of more than ``max_spin_sites`` sites are refused on
    either topology."""
    if spec.kind == "harmonic":
        return GaussianModel(build_potential(spec))
    if spec.topology == "star":
        check_spin_sites(spec.n_sites, max_spin_sites)
        return SpinStarModel(spec.n_sites, spec.h)
    return SpinModel(build_spin_hamiltonian(spec, max_sites=max_spin_sites))


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


def _beta_of(temperature: float) -> float:
    return math.inf if temperature == 0.0 else 1.0 / temperature


def sweep(spec: ModelSpec, temperatures, partitions, engine=None) -> SweepGrid:
    """Evaluate every (temperature, partition) cell of the grid.

    Rows come out in grid order, temperature outermost.  A failing
    cell is recorded in its row's ``error`` field instead of aborting
    the grid.
    """
    temperatures = [float(t) for t in temperatures]
    partitions = list(partitions)
    if len(set(temperatures)) != len(temperatures):
        raise ValueError("temperature list contains duplicates")
    if len({p.id for p in partitions}) != len(partitions):
        raise ValueError("partition list contains duplicate ids")
    if engine is None and partitions:
        engine = make_engine(spec)

    def evaluate(t, part):
        e_n = e_l = float("nan")
        error = ""
        try:
            e_n, e_l = engine.negativity_pair(t, part)
        except Exception as exc:  # recorded per cell, grid continues
            error = f"{type(exc).__name__}: {exc}"
        return SweepRow(
            temperature=t,
            beta=_beta_of(t),
            partition_id=part.id,
            partition_mask=part.mask,
            area=part.area,
            e_n=e_n,
            e_l=e_l,
            is_ppt=bool(e_n < EPS_PPT) if not error else False,
            error=error,
        )

    rows = tuple(evaluate(t, p) for t in temperatures for p in partitions)
    return SweepGrid(spec=spec, rows=rows)


def threshold_temperature(
    spec: ModelSpec,
    partition,
    t_lo: float = _DEFAULT_BRACKET[0],
    t_hi: float = _DEFAULT_BRACKET[1],
    tol: float = 1e-6,
    engine=None,
) -> ThresholdResult:
    """Temperature where the partition's negativity dies out.

    A guard scan over 8 equally spaced temperatures
    locates the largest-T cell where the verdict E_N > EPS_PPT falls,
    and secant steps on the engine's ``ppt_margin`` narrow the bracket
    below ``tol`` (see ``_root``).  The partition must be entangled at
    ``t_lo`` and PPT at ``t_hi``; each failure mode gets its own
    message.  Should the scan see several sign changes, the largest-T
    one is refined and a warning is attached.  A ``tol`` that is not
    positive, or a bracket that is not finite with t_lo < t_hi, raises
    ValueError.
    """
    if not (tol > 0.0 and math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise ValueError(
            f"root search needs tol > 0 and a finite range with lo < hi, "
            f"got tol={tol}, range=({t_lo}, {t_hi})"
        )
    if engine is None:
        engine = make_engine(spec)
    evaluations = 0

    def e_n_and_margin(t: float) -> tuple:
        nonlocal evaluations
        evaluations += 1
        e_n, margin = engine.ppt_margin(t, partition)
        return e_n, margin - EPS_PPT

    def probe(t: float) -> tuple:
        e_n, margin = e_n_and_margin(t)
        return e_n > EPS_PPT, margin

    lo_val, lo_margin = e_n_and_margin(t_lo)
    if lo_val <= EPS_PPT:
        raise NotEntangledError(
            f"not entangled at T_lo={t_lo:g} (E_N={lo_val:.3e}); no threshold to find"
        )
    hi_val, hi_margin = e_n_and_margin(t_hi)
    if hi_val > EPS_PPT:
        raise ThresholdError(
            f"still entangled at T_hi={t_hi:g} (E_N={hi_val:.3e}); enlarge the bracket"
        )

    ts = [float(t) for t in np.linspace(t_lo, t_hi, 8)]
    scan = [(True, lo_margin)] + [probe(t) for t in ts[1:-1]] + [(False, hi_margin)]
    lo, hi, warning = _root(probe, ts, scan, tol)
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
    cert_en = engine.negativity_pair(mid, cert_part)[0]
    wit_en = engine.negativity_pair(mid, wit_part)[0]
    if cert_en >= EPS_PPT or wit_en < EPS_PPT:
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

    The grid's E_N values are arranged as a temperature-by-partition
    matrix M; the result is the Frobenius distance from M to its best
    rank-one approximation, divided by the Frobenius norm of M.  A
    residual at numerical zero certifies that the negativity factorizes
    into a temperature profile times a partition profile; a residual
    well above zero refutes such a factorization.  Single-row and
    single-column grids are trivially rank one.
    """
    bad = [r for r in grid.rows if r.error]
    if bad:
        raise ValueError(
            f"grid contains {len(bad)} failed cells; factorizability needs a clean grid"
        )
    temps = sorted({r.temperature for r in grid.rows})
    pids = list(dict.fromkeys(r.partition_id for r in grid.rows))
    table = {(r.temperature, r.partition_id): r.e_n for r in grid.rows}
    if len(table) != len(temps) * len(pids):
        raise ValueError("grid is not a complete temperature-by-partition table")
    m = np.array([[table[(t, pid)] for pid in pids] for t in temps])
    if not np.any(m > 0.0):
        raise ValueError("all-zero grid: factorizability is undefined without entanglement")
    if min(m.shape) == 1:
        return 0.0
    s = np.linalg.svd(m, compute_uv=False)
    return float(math.sqrt(float((s[1:] ** 2).sum()) / float((s**2).sum())))


def type2_gap_table(
    model_factory,
    n_list,
    certificate_factory,
    witness_factory,
    t_lo: float = _DEFAULT_BRACKET[0],
    t_hi: float = _DEFAULT_BRACKET[1],
    tol: float = 1e-4,
    engine_for=None,
) -> GapTable:
    """Threshold gap t_witness - t_certificate across system sizes.

    ``model_factory``, ``certificate_factory`` and ``witness_factory``
    map a size n to the model and the two partitions, and
    ``engine_for`` maps the model to its engine (``make_engine`` when
    not given).  The deviation
    statistic quantifies how constant the gap stays over ``n_list``.
    """
    rows = []
    for n in n_list:
        spec = model_factory(int(n))
        engine = (engine_for or make_engine)(spec)
        t_cert = threshold_temperature(
            spec, certificate_factory(int(n)), t_lo=t_lo, t_hi=t_hi, tol=tol, engine=engine
        ).t_threshold
        t_wit = threshold_temperature(
            spec, witness_factory(int(n)), t_lo=t_lo, t_hi=t_hi, tol=tol, engine=engine
        ).t_threshold
        rows.append(GapRow(n=int(n), t_certificate=t_cert, t_witness=t_wit, gap=t_wit - t_cert))
    gaps = [r.gap for r in rows]
    if len(gaps) > 1:
        mean = sum(gaps) / len(gaps)
        deviation = (max(gaps) - min(gaps)) / abs(mean) if mean else math.inf
    else:
        deviation = 0.0
    return GapTable(rows=tuple(rows), max_rel_deviation=deviation)

