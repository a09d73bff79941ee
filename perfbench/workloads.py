"""Seeded inputs of the benchmark workloads.

A workload is a list of ``Call`` records, one per ``thermaneg`` CLI
invocation.  Each record carries everything the program is told (its
argv) and everything the reference check needs to know what the
output should contain (model, temperatures, partitions in row order).

Only the standard library is used here, so that a benchmark child can
generate its inputs inside the timed set-up without importing numpy
first.  Drawn numbers are rounded to six decimals and kept as the
strings the program sees, which makes the argv byte-identical per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("ring-thresholds", "ring-sweep", "star-sweep")

# Default bracket and tolerance of ``thermaneg threshold``; the calls
# below never override them.
THRESHOLD_BRACKET = (0.01, 20.0)
THRESHOLD_TOL = 1e-6


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the rows it must write."""

    command: str  # "sweep" or "threshold"
    kind: str  # "harmonic" or "spin_half"
    topology: str  # "ring_nn" or "star"
    n_list: tuple
    families: tuple
    c: str = "0"
    h: str = "0"
    t_list: tuple = ()
    beta_list: tuple = ()
    out: str = "out.csv"

    def argv(self, outdir: str) -> list:
        args = [
            self.command,
            "--kind", self.kind,
            "--topology", self.topology,
            "--n-list", ",".join(str(n) for n in self.n_list),
            "--families", ",".join(self.families),
        ]
        if self.kind == "harmonic":
            args += ["--c", self.c]
        else:
            args += ["--h", self.h]
        if self.t_list:
            args += ["--t-list", ",".join(self.t_list)]
        if self.beta_list:
            args += ["--beta-list", ",".join(self.beta_list)]
        return args + ["--out", f"{outdir}/{self.out}"]

    def temperatures(self) -> list:
        """Temperatures exactly as the CLI derives them from its argv."""
        if self.beta_list:
            return [1.0 / float(b) for b in self.beta_list]
        return [float(t) for t in self.t_list]

    def partitions(self, n: int) -> list:
        """(id, labels) of every partition the call covers, in row order."""
        out = []
        for token in self.families:
            name, _, arg = token.partition(":")
            if name == "even-odd":
                out.append(("even-odd", [1 if i % 2 == 0 else -1 for i in range(n)]))
            elif name == "half-half":
                out.append(("half-half", [1 if i < n // 2 else -1 for i in range(n)]))
            elif name == "blocks":
                size = n >> int(arg)
                out.append(
                    (f"blocks-2^{arg}", [1 if (i // size) % 2 == 0 else -1 for i in range(n)])
                )
            elif name == "transfer":
                labels = [1 if i % 2 == 0 else -1 for i in range(n)]
                out.append(("transfer-0", list(labels)))
                for k in range(1, n // 2):
                    labels[2 * k - 1] = 1
                    out.append((f"transfer-{k}", list(labels)))
            elif name == "central":
                out.append(("central", [1] + [-1] * (n - 1)))
            elif name == "external":
                out.append(("external-2", [-1, 1] + [-1] * (n - 2)))
            else:
                raise ValueError(f"no reference partition for family {token!r}")
        return out

    def expected_rows(self) -> int:
        per_size = sum(len(self.partitions(n)) for n in self.n_list)
        if self.command == "sweep":
            return per_size * len(self.temperatures())
        return per_size


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _distinct(rng: random.Random, lo: float, hi: float, count: int) -> tuple:
    values = []
    while len(values) < count:
        v = _draw(rng, lo, hi)
        if v not in values:
            values.append(v)
    return tuple(values)


def generate(workload: str, seed: int) -> list:
    """The calls of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ring-thresholds":
        # One partition evaluated at ~83 temperatures per threshold:
        # root finding and per-call engine cost dominate.  The spin ring
        # keeps h below 2; at larger fields the n=8 ring is no longer
        # entangled at the bracket's low end and the threshold is refused.
        c = _draw(rng, 0.3, 0.45)
        k = rng.randint(1, 7)  # blocks:8 on 256 sites would repeat even-odd
        h = _draw(rng, 0.0, 1.9)
        return [
            Call("threshold", "harmonic", "ring_nn", (256,), ("even-odd", f"blocks:{k}"),
                 c=c, out="ring-harmonic.csv"),
            Call("threshold", "spin_half", "ring_nn", (8,), ("even-odd", "half-half"),
                 h=h, out="ring-spin.csv"),
        ]
    if workload == "ring-sweep":
        # fig3 traffic: 100 partitions each reused at only 3 temperatures,
        # so the Gaussian per-cell kernel and row formatting dominate.
        betas = _distinct(rng, 1.85, 2.5, 3)
        return [
            Call("sweep", "harmonic", "ring_nn", (200,), ("transfer",),
                 c="0.4", beta_list=betas, out="ring-sweep.csv"),
        ]
    if workload == "star-sweep":
        # fig6/fig7 traffic: the dense spin engine dominates; the second
        # family at each temperature can reuse the thermal state.
        count, lo, hi = 30, 0.5, 4.0
        step = (hi - lo) / (count - 1)
        temps = tuple(
            f"{min(hi, max(lo, lo + i * step + rng.uniform(-0.4, 0.4) * step)):.6f}"
            for i in range(count)
        )
        return [
            Call("sweep", "spin_half", "star", (6, 8, 10), ("central", "external"),
                 t_list=temps, out="star-sweep.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
