"""Independent numpy reference for the benchmark's output check.

Nothing here imports ``thermaneg``.  The Gaussian side follows the
sign-flip covariance route: build the Gibbs covariance blocks X and P
from the potential, flip the momentum signs of one block, and read the
squared symplectic eigenvalues off the symmetric matrix
X^{1/2} (S P S) X^{1/2}.  The spin side builds the XX Hamiltonian from
Kronecker products of Pauli matrices, forms the dense Gibbs state,
partially transposes it and takes ``eigvalsh``.

A sweep cell passes when |E_N - ref| <= 1e-10 max(1, |ref|) and its
``is_ppt`` flag matches ref < EPS_PPT.  A threshold row passes when the
reference gives E_N(bracket_lo) > EPS_PPT >= E_N(bracket_hi) and the
bracket is no wider than the threshold tolerance.  A reference value
strictly within that tolerance of EPS_PPT is counted as near the
cutoff, and the PPT verdict that rests on it is not judged; its E_N is.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from workloads import THRESHOLD_BRACKET, THRESHOLD_TOL, Call

EPS_PPT = 1e-10
REL_TOL = 1e-10
# Eigenvalues this close to 1 (Gaussian) or 0 (spin) are solver noise.
_UNIT_CUTOFF = 1e-12
_NEGATIVE_CUTOFF = -1e-12
# CSV floats carry 12 significant digits.
_PRINT_REL = 1e-11


def area(labels, topology: str) -> int:
    """Bonds crossed by the partition: cyclic neighbours on the ring, hub bonds on the star."""
    n = len(labels)
    if topology == "ring_nn":
        return sum(labels[i] != labels[(i + 1) % n] for i in range(n))
    return sum(labels[0] != labels[j] for j in range(1, n))


def tolerance(ref: float) -> float:
    return REL_TOL * max(1.0, abs(ref))


def near_cutoff(ref: float) -> bool:
    return abs(ref - EPS_PPT) < tolerance(ref)


class GaussianReference:
    """Harmonic ring: unit diagonal, -c on both cyclic neighbours."""

    def __init__(self, n: int, c: float):
        v = np.eye(n)
        idx = np.arange(n)
        v[idx, (idx + 1) % n] -= c
        v[(idx + 1) % n, idx] -= c
        lam, self._u = np.linalg.eigh(v)
        self._s = np.sqrt(lam)
        self._blocks = (None, None)

    def _covariance(self, t: float):
        """X^{1/2} and P of the Gibbs state; the last temperature is kept."""
        if self._blocks[0] != t:
            w = 1.0 / np.tanh(self._s / (2.0 * t))
            u = self._u
            self._blocks = (t, ((u * np.sqrt(w / self._s)) @ u.T, (u * (w * self._s)) @ u.T))
        return self._blocks[1]

    def e_n(self, t: float, labels) -> float:
        x_half, p = self._covariance(t)
        s = np.asarray(labels, dtype=float)
        m = x_half @ (s[:, None] * p * s[None, :]) @ x_half
        mu = np.linalg.eigvalsh(0.5 * (m + m.T))
        losses = mu[mu < 1.0 - _UNIT_CUTOFF]
        e_l = float(-np.sum(np.log2(losses))) if losses.size else 0.0
        return 2.0**e_l - 1.0


class SpinReference:
    """XX exchange -(sx sx + sy sy) on each bond plus h sz on each site."""

    def __init__(self, topology: str, n: int, h: float):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])

        def site_product(ops: dict) -> np.ndarray:
            out = np.ones((1, 1))
            for i in range(n):
                out = np.kron(out, ops.get(i, np.eye(2)))
            return out

        if topology == "ring_nn":
            bonds = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)})
        else:
            bonds = [(0, j) for j in range(1, n)]
        ham = np.zeros((2**n, 2**n))
        for i, j in bonds:
            ham -= site_product({i: sx, j: sx})
            ham -= site_product({i: sy, j: sy}).real
        for i in range(n):
            ham += h * site_product({i: sz})
        self.n = n
        self._e, self._v = np.linalg.eigh(ham)
        self._rho = (None, None)

    def _gibbs(self, t: float) -> np.ndarray:
        if self._rho[0] != t:
            w = np.exp(-(self._e - self._e[0]) / t)
            self._rho = (t, (self._v * (w / w.sum())) @ self._v.T)
        return self._rho[1]

    def e_n(self, t: float, labels) -> float:
        n = self.n
        tensor = self._gibbs(t).reshape((2,) * (2 * n))
        axes = list(range(2 * n))
        for i, sign in enumerate(labels):
            if sign > 0:
                axes[i], axes[n + i] = n + i, i
        pt = tensor.transpose(axes).reshape(2**n, 2**n)
        spectrum = np.linalg.eigvalsh(pt)
        return float(-spectrum[spectrum < _NEGATIVE_CUTOFF].sum())


def _engine(call: Call, n: int):
    if call.kind == "harmonic":
        if call.topology != "ring_nn":
            raise ValueError("the Gaussian reference covers the harmonic ring only")
        return GaussianReference(n, float(call.c))
    return SpinReference(call.topology, n, float(call.h))


@dataclass
class Verdict:
    """Outcome of checking one call's output against the reference."""

    attempted: int
    failed: int = 0
    near_cutoff: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def _parse(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text))) if text else []


def _close(printed: str, exact: float) -> bool:
    return abs(float(printed) - exact) <= _PRINT_REL * max(1.0, abs(exact))


class Reference:
    """Reference values for one call.

    Sweep cells depend only on the inputs and are computed up front;
    threshold rows are judged at the brackets the program reports, and
    each distinct bracket is evaluated once.
    """

    def __init__(self, call: Call):
        self.call = call
        self._engines = {}
        self.cells = []  # (n, T, pid, labels, E_N) in row order
        if call.command == "sweep":
            for n in call.n_list:
                parts = call.partitions(n)
                for t in call.temperatures():
                    for pid, labels in parts:
                        self.cells.append((n, t, pid, labels, self._e_n(n, t, labels)))
        self._brackets = {}

    def _e_n(self, n: int, t: float, labels) -> float:
        if n not in self._engines:
            self._engines[n] = _engine(self.call, n)
        return self._engines[n].e_n(t, labels)

    def check(self, code: int, text: str) -> Verdict:
        verdict = Verdict(attempted=self.call.expected_rows())
        if code != 0:
            verdict.failed = verdict.attempted
            verdict.problems.append(f"exit code {code}")
            return verdict
        rows = _parse(text)
        if self.call.command == "sweep":
            self._check_sweep(rows, verdict)
        else:
            self._check_thresholds(rows, verdict)
        return verdict

    def _check_sweep(self, rows: list, verdict: Verdict) -> None:
        topo = self.call.topology
        for i, (n, t, pid, labels, ref) in enumerate(self.cells):
            where = f"row {i + 1} (n={n}, T={t:g}, {pid})"
            if i >= len(rows):
                verdict.fail(f"{where}: missing")
                continue
            row = rows[i]
            mask = "".join("+" if s > 0 else "-" for s in labels)
            if row["error"]:
                verdict.fail(f"{where}: error {row['error']}")
            elif (row["n"], row["partition_id"], row["partition_mask"], row["area"]) != (
                str(n), pid, mask, str(area(labels, topo))
            ) or not _close(row["T"], t):
                verdict.fail(f"{where}: wrong cell {row}")
            elif abs(float(row["E_N"]) - ref) > tolerance(ref):
                verdict.fail(f"{where}: E_N {row['E_N']} vs reference {ref!r}")
            elif near_cutoff(ref):
                verdict.near_cutoff += 1
            elif row["is_ppt"] != ("1" if ref < EPS_PPT else "0"):
                verdict.fail(f"{where}: is_ppt {row['is_ppt']} vs reference E_N {ref!r}")
        for i in range(len(self.cells), len(rows)):
            verdict.fail(f"row {i + 1}: unexpected")

    def _check_thresholds(self, rows: list, verdict: Verdict) -> None:
        by_key = {(r["n"], r["partition_id"]): r for r in rows}
        lo_end, hi_end = THRESHOLD_BRACKET
        for n in self.call.n_list:
            for pid, labels in self.call.partitions(n):
                where = f"threshold n={n} {pid}"
                row = by_key.pop((str(n), pid), None)
                if row is None:
                    verdict.fail(f"{where}: refused")
                    continue
                lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
                width = hi - lo
                if not (lo_end <= lo < hi <= hi_end and width <= THRESHOLD_TOL * (1 + 1e-6)):
                    verdict.fail(f"{where}: bracket ({lo!r}, {hi!r})")
                    continue
                if not _close(row["T_th"], 0.5 * (lo + hi)):
                    verdict.fail(f"{where}: T_th {row['T_th']} is not the bracket midpoint")
                    continue
                key = (n, pid, row["bracket_lo"], row["bracket_hi"])
                if key not in self._brackets:
                    self._brackets[key] = (
                        self._e_n(n, lo, labels),
                        self._e_n(n, hi, labels),
                    )
                ref_lo, ref_hi = self._brackets[key]
                near_lo, near_hi = near_cutoff(ref_lo), near_cutoff(ref_hi)
                verdict.near_cutoff += near_lo or near_hi
                if not ((ref_lo > EPS_PPT or near_lo) and (ref_hi <= EPS_PPT or near_hi)):
                    verdict.fail(
                        f"{where}: reference E_N {ref_lo!r} at {lo!r}, {ref_hi!r} at {hi!r}"
                    )
        for key in by_key:
            verdict.fail(f"threshold {key}: unexpected")


def evaluations(text: str) -> int:
    """Sum of the ``evals`` column of a threshold CSV."""
    return sum(int(r["evals"]) for r in _parse(text))
