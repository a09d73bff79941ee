"""Spans and counters recorded around the program's layer boundaries.

The wrappers are installed from the benchmark's own files: each target
function or method is replaced, in every ``thermaneg`` module that
holds a reference to it, by a wrapper that records one span per call.
Spans carry name, start, end, parent span and run id and stay in
memory until the run ends.  A target the program no longer has is
reported as absent instead of failing the run, and so is a count whose
call no longer has the arguments or result it is read from.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# span name -> (module, attribute path)
SPANS = {
    "cli.main": ("thermaneg.cli", "main"),
    "analysis.make_engine": ("thermaneg.analysis", "make_engine"),
    "analysis.sweep": ("thermaneg.analysis", "sweep"),
    "analysis.threshold_temperature": ("thermaneg.analysis", "threshold_temperature"),
    "lattice.build_potential": ("thermaneg.lattice", "build_potential"),
    "lattice.build_spin_hamiltonian": ("thermaneg.lattice", "build_spin_hamiltonian"),
    "gaussian.GaussianModel.init": ("thermaneg.gaussian", "GaussianModel.__init__"),
    "gaussian.GaussianModel.negativity_pair": (
        "thermaneg.gaussian", "GaussianModel.negativity_pair"),
    "spin.SpinModel.init": ("thermaneg.spin", "SpinModel.__init__"),
    "spin.SpinModel.thermal_rho": ("thermaneg.spin", "SpinModel.thermal_rho"),
    "spin.SpinModel.negativity_pair": ("thermaneg.spin", "SpinModel.negativity_pair"),
    "spin.negativity": ("thermaneg.spin", "negativity"),
}
# The family constructors the CLI calls all record one span name.
PARTITION_BUILDERS = (
    "even_odd",
    "half_half",
    "alternating_blocks",
    "transfer_sweep",
    "central_vs_rest",
    "single_external_vs_rest",
)
SPAN_NAMES = tuple(SPANS) + ("partitions.build",)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.absent = []
        self.counts = {
            "threshold_evals": 0,
            "thresholds": 0,
            "gaussian_calls": 0,
            "gaussian_partition_seen": 0,
            "thermal_rho_calls": 0,
            "thermal_rho_same_t": 0,
            "dim_max": 0,
        }
        self._open = []
        self._seen_partitions = weakref.WeakKeyDictionary()
        self._last_temperature = weakref.WeakKeyDictionary()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                try:
                    after(result, *args, **kwargs)
                except (AttributeError, TypeError):  # the call no longer has this shape
                    if f"{name} counts" not in self.absent:
                        self.absent.append(f"{name} counts")
            return result

        return wrapper

    def _count_thresholds(self, result, *args, **kwargs):
        self.counts["thresholds"] += 1
        self.counts["threshold_evals"] += result.evaluations

    def _count_partition(self, result, engine, temperature, partition, *rest):
        seen = self._seen_partitions.setdefault(engine, set())
        key = tuple(partition.labels)
        self.counts["gaussian_calls"] += 1
        self.counts["gaussian_partition_seen"] += key in seen
        seen.add(key)

    def _count_temperature(self, result, engine, temperature, *rest):
        self.counts["thermal_rho_calls"] += 1
        self.counts["thermal_rho_same_t"] += bool(self._last_temperature.get(engine) == temperature)
        self._last_temperature[engine] = temperature

    def _count_dim(self, result, engine, hamiltonian, *rest):
        dim = int(hamiltonian.entries.shape[0])
        self.counts["dim_max"] = max(self.counts["dim_max"], dim)

    def install(self) -> None:
        """Wrap every span target; call once, after importing thermaneg."""
        after = {
            "analysis.threshold_temperature": self._count_thresholds,
            "gaussian.GaussianModel.negativity_pair": self._count_partition,
            "spin.SpinModel.thermal_rho": self._count_temperature,
            "spin.SpinModel.init": self._count_dim,
        }
        targets = [(name, module, path) for name, (module, path) in SPANS.items()]
        targets += [("partitions.build", "thermaneg.partitions", f) for f in PARTITION_BUILDERS]
        for name, module, path in targets:
            owner = sys.modules.get(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module}.{path}")
                continue
            wrapped = self._wrap(name, original, after.get(name))
            if classes:
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)


def _rebind(original, wrapped) -> None:
    """Point every thermaneg module's reference to ``original`` at ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "thermaneg" or mod_name.startswith("thermaneg."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(spans: list) -> dict:
    """Per span name: calls, total_s, self_s, p50_ms and p90_ms.

    Self time is a span's duration minus the durations of its direct
    children; the program runs its layers on one thread, so children
    never overlap.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    by_name = {}
    for i, (name, *_rest) in enumerate(spans):
        entry = by_name.setdefault(name, ([], [0.0]))
        entry[0].append(durations[i])
        entry[1][0] += durations[i] - child_time[i]
    out = {}
    for name, (durs, self_total) in by_name.items():
        durs.sort()
        out[name] = {
            "calls": len(durs),
            "total_s": sum(durs),
            "self_s": self_total[0],
            "p50_ms": 1e3 * _percentile(durs, 0.5),
            "p90_ms": 1e3 * _percentile(durs, 0.9),
        }
    return out
