"""Command-line front end: config-driven sweeps, thresholds, windows,
size scalings, factorizability checks, and hard-coded figure presets,
all serialized as deterministic CSV.

Config files are flat INI text (section headers in brackets, key =
value lines); every key can also be given as a command-line flag,
which overrides the file.  CONFIG_KEYS lists each key once.  Floats are printed with 12 significant
digits, rows follow a fixed order, and line endings are LF.  Every grid
is evaluated on one thread in that order, so a given config and build
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import analysis
from .analysis import ThresholdError
from .lattice import MAX_SPIN_SITES_DEFAULT, ModelSpec
from .partitions import (
    alternating_blocks,
    central_vs_rest,
    even_odd,
    half_half,
    single_external_vs_rest,
    transfer_sweep,
)

SWEEP_HEADER = (
    "model,topology,n,c,h,T,beta,partition_id,partition_mask,area,E_N,E_l,is_ppt,error"
)
THRESHOLD_HEADER = "model,topology,n,c,h,partition_id,T_th,bracket_lo,bracket_hi,evals"
WINDOW_HEADER = (
    "model,topology,n,c,h,certificate_id,witness_id,T_low,T_high,"
    "certificate_EN_mid,witness_EN_mid,note"
)
SCALING_HEADER = (
    "model,topology,c,h,n,certificate_id,witness_id,T_th_certificate,"
    "T_th_witness,gap,gap_max_rel_deviation"
)
FACTOR_HEADER = "model,topology,n,c,h,n_temperatures,n_partitions,residual"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PARTIAL = 3


class ConfigError(Exception):
    pass


# Declarative parameters of the figure-reproduction presets: parsed
# values under the CONFIG_KEYS names, plus the command ("mode") and a
# description.  The reproduce command builds its runs from these
# entries, and the test suite checks them against the quoted source
# parameters, so the values live in exactly one place.
PRESETS = {
    "fig2": {
        "mode": "sweep",
        "kind": "harmonic",
        "topology": "ring_nn",
        "n_list": (128,),
        "c": 0.4,
        "h": 0.0,
        "beta_list": (2.5, 2.4, 2.0),
        "families": tuple(f"blocks:{k}" for k in range(1, 8)),
        "description": "block-partition log-negativity of the 128-site harmonic ring",
    },
    "fig3": {
        "mode": "sweep",
        "kind": "harmonic",
        "topology": "ring_nn",
        "n_list": (100,),
        "c": 0.4,
        "h": 0.0,
        "beta_list": (1.87, 1.865, 1.863),
        "families": ("transfer",),
        "transfer_order": "forward",
        "description": "site-transfer sweep of the 100-site harmonic ring",
    },
    "fig4": {
        "mode": "threshold",
        "kind": "harmonic",
        "topology": "star",
        "n_list": (4, 6, 8, 10, 12, 14, 16),
        "c": 1.0,
        "h": 0.0,
        "families": ("half-half", "central"),
        "tol": 1e-6,
        "description": "threshold temperatures of the harmonic star vs size",
    },
    "fig4-inset": {
        "mode": "sweep",
        "kind": "harmonic",
        "topology": "star",
        "n_list": (10, 20, 50, 100, 200, 500, 1000),
        "c": 1.0,
        "h": 0.0,
        "beta_list": (1.0,),
        "families": ("central",),
        "description": "hub log-negativity of the harmonic star against size",
    },
    "fig5": {
        "mode": "sweep",
        "kind": "spin_half",
        "topology": "ring_nn",
        "n_list": (10,),
        "c": 0.0,
        "h": 1.9,
        "t_list": (3.0, 3.15, 3.25),
        "families": ("transfer",),
        "transfer_order": "reversed",
        "description": "area sweep of the 10-site spin ring near its thresholds",
    },
    "fig6": {
        "mode": "sweep",
        "kind": "spin_half",
        "topology": "star",
        "n_list": (4, 6, 8, 10),
        "c": 0.0,
        "h": 0.0,
        "t_range": (0.5, 4.0, 50),
        "families": ("central",),
        "description": "hub-vs-rest negativity curves of the spin star",
    },
    "fig7": {
        "mode": "sweep",
        "kind": "spin_half",
        "topology": "star",
        "n_list": (4, 6, 8, 10),
        "c": 0.0,
        "h": 0.0,
        "t_range": (0.5, 4.0, 50),
        "families": ("external",),
        "description": "single-external-site negativity curves of the spin star",
    },
}


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def _sanitize(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ").replace("\r", " ")


def _write_csv(path: str, header: str, rows) -> None:
    body = "\n".join([header] + [",".join(cells) for cells in rows]) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _float(text: str) -> float:
    """A float read from text, with -0 read as 0 so that it prints as 0."""
    return float(text) + 0.0


def _floats(text: str) -> tuple:
    values = tuple(_float(tok) for tok in text.replace(",", " ").split())
    if any(math.isnan(v) for v in values):
        raise ValueError("nan is not allowed")
    return values


def _words(text: str) -> tuple:
    return tuple(text.replace(",", " ").split())


# Every config key: its INI section, the parser of its text, and its
# default.  The INI checks, the flags (--key, with '_' written '-') and
# the presets, which hold already-parsed values, all follow this table.
CONFIG_KEYS = {
    "kind": ("model", str, None),
    "topology": ("model", str, None),
    "n": ("model", _ints, None),
    "n_list": ("model", _ints, None),
    "c": ("model", _float, 0.0),
    "h": ("model", _float, 0.0),
    "t_list": ("schedule", _floats, None),
    "beta_list": ("schedule", _floats, None),
    "t_range": ("schedule", _floats, None),
    "families": ("partitions", _words, ()),
    "transfer_order": ("partitions", str, "forward"),
    "certificate": ("partitions", str, None),
    "witness": ("partitions", str, None),
    "out": ("run", str, None),
    "tol": ("run", _float, 1e-6),
    "max_spin_sites": ("run", int, MAX_SPIN_SITES_DEFAULT),
}


def _parse(key: str, text: str):
    section, parse, _ = CONFIG_KEYS[key]
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}")


def _read_config_file(path: str) -> dict:
    """The file's key texts, each checked to sit in its own section."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    sections = sorted({section for section, _, _ in CONFIG_KEYS.values()})
    texts = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of {sections}"
            )
        for key, text in parser[section].items():
            if CONFIG_KEYS.get(key, ("",))[0] != section:
                known = [k for k, (s, _, _) in CONFIG_KEYS.items() if s == section]
                raise ConfigError(f"unknown key {section}.{key}; known keys: {sorted(known)}")
            texts[key] = text
    return texts


class Experiment:
    """A run's settings: parsed values keyed as in CONFIG_KEYS, checked
    together, with the models and the temperature grid derived."""

    def __init__(self, values: dict):
        for key, (_, _, default) in CONFIG_KEYS.items():
            setattr(self, key, values.get(key, default))
        sizes = [v for v in (self.n, self.n_list) if v is not None]
        if len(sizes) != 1:
            raise ConfigError("give exactly one of model.n and model.n_list")
        self.n_list = sizes[0]
        if not self.n_list:
            raise ConfigError("model: give at least one size")
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError(f"model: sizes must be distinct, got {list(self.n_list)}")
        self.temperatures = self._temperatures()
        if self.transfer_order not in ("forward", "reversed"):
            raise ConfigError(
                f"partitions.transfer_order must be 'forward' or 'reversed', "
                f"got {self.transfer_order!r}"
            )
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"run.tol must be positive and finite, got {self.tol}")
        self.specs = tuple(self._model(n) for n in self.n_list)

    def engine(self, spec: ModelSpec):
        """The model's engine; a model the engine refuses (a harmonic
        star V that rounding leaves not positive definite, say) is a
        config error."""
        try:
            return analysis.make_engine(spec, max_spin_sites=self.max_spin_sites)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}")

    def _temperatures(self):
        given = [k for k in ("t_list", "beta_list", "t_range") if getattr(self, k) is not None]
        if len(given) > 1:
            raise ConfigError(
                f"schedule must set exactly one of t_list, beta_list, t_range; got {given}"
            )
        temps = self.t_list
        if self.beta_list is not None:
            if any(b <= 0 for b in self.beta_list):
                raise ConfigError("schedule.beta_list: inverse temperatures must be positive")
            temps = tuple(1.0 / b for b in self.beta_list)
        if self.t_range is not None:
            vals = self.t_range
            if (
                len(vals) != 3
                or not all(math.isfinite(v) for v in vals)
                or vals[2] != int(vals[2])
                or int(vals[2]) < 2
            ):
                raise ConfigError(
                    "schedule.t_range: expected finite 'lo,hi,count' with count >= 2"
                )
            try:
                temps = tuple(float(t) for t in np.linspace(vals[0], vals[1], int(vals[2])))
            except ValueError as exc:  # a count numpy cannot allocate
                raise ConfigError(f"schedule.t_range: {exc}")
        if temps is not None and len(set(temps)) != len(temps):
            raise ConfigError(f"schedule: temperatures must be distinct, got {list(temps)}")
        if temps is not None and any(t < 0.0 for t in temps):
            raise ConfigError(f"schedule: temperatures must be nonnegative, got {list(temps)}")
        return temps

    def _model(self, n: int) -> ModelSpec:
        try:
            spec = ModelSpec(
                kind=self.kind, topology=self.topology, n_sites=n, c=self.c, h=self.h
            )
        except OverflowError:  # the largest matrix entry, from an n beyond any float
            raise ConfigError(f"model.n={n} is too large: beyond any float")
        except ValueError as exc:
            raise ConfigError(f"model: {exc}")
        if spec.kind == "spin_half" and n > self.max_spin_sites:
            raise ConfigError(
                f"model.n={n} exceeds run.max_spin_sites={self.max_spin_sites} "
                f"(raise it with --max-spin-sites or run.max_spin_sites)"
            )
        # log2 of the bytes of the engine's largest array: V (n x n), at
        # most 4^n entries for a spin ring (its sector blocks hold
        # C(2n, n), and the charge-block plan it keeps for one partition
        # as many indices: 2 C(2n, n) < 4^n), or a spin star's Gibbs
        # state at one temperature (its sector blocks hold at least n^2
        # entries for any partition); checked before any O(n) partition
        # list is built
        if spec.kind == "spin_half" and spec.topology == "ring_nn":
            log2_bytes = 3 + 2 * n
        else:
            log2_bytes = 3 + 2 * math.log2(n)
        memory = _memory_bytes()
        if log2_bytes > math.log2(memory):
            raise ConfigError(
                f"model.n={n} is too large: its engine needs a 2^{log2_bytes:.1f}-byte "
                f"array, more than the {memory / 2**30:.1f} GiB of memory"
            )
        return spec

    def partitions(self, token: str, n: int) -> list:
        """The partitions one token names: even-odd, half-half, central,
        transfer, external[:site] (site 2 when bare) or blocks:k."""
        name, _, arg = token.partition(":")
        topo = self.topology
        try:
            if name == "even-odd" and not arg:
                return [even_odd(n, topo)]
            if name == "half-half" and not arg:
                return [half_half(n, topo)]
            if name == "central" and not arg:
                return [central_vs_rest(n, topo)]
            if name == "transfer" and not arg:
                fam = transfer_sweep(n, topo)
                return fam[::-1] if self.transfer_order == "reversed" else fam
            if name == "external":
                return [single_external_vs_rest(n, int(arg) if arg else 2, topo)]
            if name == "blocks" and arg:
                return [alternating_blocks(_exponent_of(n), int(arg), topo)]
        except ValueError as exc:
            raise ConfigError(f"partition {token!r}: {exc}")
        raise ConfigError(
            f"unknown partition name {token!r}; expected even-odd, half-half, "
            f"central, transfer, external[:site], or blocks:k"
        )

    def partitions_for(self, n: int) -> list:
        if not self.families:
            raise ConfigError("partitions.families is required for this command")
        parts = [p for token in self.families for p in self.partitions(token, n)]
        ids = [p.id for p in parts]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"partitions.families names a partition twice: {ids}")
        return parts

    def single(self, key: str, n: int):
        """The one partition named by the certificate or witness key."""
        token = getattr(self, key)
        if not token:
            raise ConfigError("partitions.certificate and partitions.witness are required")
        parts = self.partitions(token, n)
        if len(parts) != 1:
            raise ConfigError(f"partitions.{key} must name one partition, got {token!r}")
        return parts[0]


def _memory_bytes() -> int:
    """Physical memory, or the address space where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def _exponent_of(n: int) -> int:
    exp = n.bit_length() - 1
    if 2**exp != n:
        raise ConfigError(f"block partitions need n to be a power of two, got {n}")
    return exp


def _model_cells(spec: ModelSpec) -> tuple:
    return (spec.kind, spec.topology, str(spec.n_sites), _fmt(spec.c), _fmt(spec.h))


def _sweep_rows(grid) -> list:
    """The grid's CSV rows, temperature outermost, with beta = inf at
    T = 0 and the error column, kept for format compatibility, empty."""
    model = _model_cells(grid.spec)
    parts = [(p.id, p.mask, str(p.area)) for p in grid.partitions]
    temps = [(_fmt(t), _fmt(math.inf if t == 0.0 else 1.0 / t)) for t in grid.temperatures]
    return [
        model + temp + part + (_fmt(e_n), _fmt(e_l), "1" if ppt else "0", "")
        for temp, cells, verdicts in zip(temps, grid.values.tolist(), grid.is_ppt.tolist())
        for part, (e_n, e_l, _), ppt in zip(parts, cells, verdicts)
    ]


def _sweep_grids(exp: Experiment) -> list:
    if exp.temperatures is None:
        raise ConfigError("schedule (t_list, beta_list, or t_range) is required")
    parts = [exp.partitions_for(spec.n_sites) for spec in exp.specs]
    return [
        analysis.sweep(
            spec,
            exp.temperatures,
            spec_parts,
            engine=exp.engine(spec),
        )
        for spec, spec_parts in zip(exp.specs, parts)
    ]


def cmd_sweep(exp: Experiment, out: str) -> int:
    _write_csv(out, SWEEP_HEADER, [row for grid in _sweep_grids(exp) for row in _sweep_rows(grid)])
    return EXIT_OK


def cmd_threshold(exp: Experiment, out: str) -> int:
    rows, failures, successes = [], 0, 0
    parts = [exp.partitions_for(spec.n_sites) for spec in exp.specs]
    for spec, spec_parts in zip(exp.specs, parts):
        engine = exp.engine(spec)
        for part in spec_parts:
            try:
                res = analysis.threshold_temperature(
                    spec, part, tol=exp.tol, engine=engine
                )
            except ThresholdError as exc:
                print(f"threshold {part.id} (n={spec.n_sites}): {exc}", file=sys.stderr)
                failures += 1
                continue
            successes += 1
            rows.append(
                _model_cells(spec)
                + (
                    res.partition_id,
                    _fmt(res.t_threshold),
                    _fmt(res.bracket[0]),
                    _fmt(res.bracket[1]),
                    str(res.evaluations),
                )
            )
    _write_csv(out, THRESHOLD_HEADER, rows)
    if failures and successes:
        return EXIT_PARTIAL
    if failures:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_window(exp: Experiment, out: str) -> int:
    if len(exp.specs) != 1:
        raise ConfigError("the window command needs a single model.n")
    (spec,) = exp.specs
    res = analysis.bound_entanglement_window(
        spec,
        exp.single("certificate", spec.n_sites),
        exp.single("witness", spec.n_sites),
        tol=exp.tol,
        engine=exp.engine(spec),
    )
    lo, hi = res.window or (None, None)
    optional = (lo, hi, res.midpoint_certificate_e_n, res.midpoint_witness_e_n)
    rows = [
        _model_cells(spec)
        + (res.certificate_id, res.witness_id)
        + tuple("" if x is None else _fmt(x) for x in optional)
        + (_sanitize(res.note),)
    ]
    _write_csv(out, WINDOW_HEADER, rows)
    if res.window:
        print(f"bound-entanglement window: ({_fmt(lo)}, {_fmt(hi)})")
    else:
        print(f"no window: {res.note}")
    return EXIT_OK


def cmd_scaling(exp: Experiment, out: str) -> int:
    """Each size's certificate and witness thresholds and their gap,
    t_witness - t_certificate; a threshold that fails fails the run.
    The last column is (max gap - min gap) / |mean gap| over the sizes,
    0 for one size: small when the gap stays constant as the system
    grows, large when it drifts with size."""
    rows, gaps = [], []
    for spec in exp.specs:
        engine = exp.engine(spec)
        ids, temps = [], []
        for role in ("certificate", "witness"):
            part = exp.single(role, spec.n_sites)
            try:
                res = analysis.threshold_temperature(spec, part, tol=exp.tol, engine=engine)
            except ThresholdError as exc:
                print(f"threshold {part.id} (n={spec.n_sites}): {exc}", file=sys.stderr)
                return EXIT_NUMERICAL
            ids.append(part.id)
            temps.append(res.t_threshold)
        gaps.append(temps[1] - temps[0])
        model = (exp.kind, exp.topology, _fmt(exp.c), _fmt(exp.h), str(spec.n_sites))
        rows.append(model + tuple(ids) + tuple(map(_fmt, (*temps, gaps[-1]))))
    deviation = 0.0
    if len(gaps) > 1:
        mean = sum(gaps) / len(gaps)
        deviation = (max(gaps) - min(gaps)) / abs(mean) if mean else math.inf
    _write_csv(out, SCALING_HEADER, [row + (_fmt(deviation),) for row in rows])
    print(f"gap max relative deviation over n={list(exp.n_list)}: {_fmt(deviation)}")
    return EXIT_OK


def cmd_factor_check(exp: Experiment, out: str) -> int:
    if len(exp.specs) != 1:
        raise ConfigError("the factor-check command needs a single model.n")
    (grid,) = _sweep_grids(exp)
    try:
        residual = analysis.rank1_factorizability(grid)
    except ValueError as exc:
        print(f"factor-check: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    n_t, n_p, _ = grid.values.shape
    _write_csv(
        out, FACTOR_HEADER, [_model_cells(grid.spec) + (str(n_t), str(n_p), _fmt(residual))]
    )
    print(f"rank-one residual: {_fmt(residual)}")
    return EXIT_OK


COMMANDS = {
    "sweep": (cmd_sweep, "negativity over a temperature-by-partition grid"),
    "threshold": (cmd_threshold, "PPT threshold temperature per partition"),
    "window": (cmd_window, "bound-entanglement temperature window"),
    "scaling": (cmd_scaling, "threshold gaps across system sizes"),
    "factor-check": (cmd_factor_check, "rank-one factorizability residual of a sweep"),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code,
    on one line."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _merge(args, values: dict) -> Experiment:
    """Experiment from typed values, overridden by the config file's
    keys and then by the flags given."""
    texts = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            texts[key] = getattr(args, key)
    return Experiment({**values, **{key: _parse(key, t) for key, t in texts.items()}})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _Parser(prog="thermaneg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    # Only the command named, the first non-option token, gets the
    # config flags: one call parses one command's flags, not five's.
    command = next((token for token in argv if not token.startswith("-")), None)
    for name, (_, helptext) in COMMANDS.items():
        sub = subs.add_parser(name, help=helptext)
        if name == command:
            sub.add_argument("--config", help="INI config file")
            for key in CONFIG_KEYS:
                sub.add_argument(_flag(key))
    rep = subs.add_parser("reproduce", help="run a stored figure preset")
    rep.add_argument("figure", help=f"one of: {', '.join(sorted(PRESETS))}")
    rep.add_argument(_flag("out"), help="output CSV path (default <figure>.csv)")

    args = parser.parse_args(argv)
    try:
        if args.command != "reproduce":
            exp = _merge(args, {})
            return COMMANDS[args.command][0](exp, exp.out or f"{args.command}.csv")
        if args.figure not in PRESETS:
            raise ConfigError(
                f"unknown figure id {args.figure!r}; available: {', '.join(sorted(PRESETS))}"
            )
        preset = PRESETS[args.figure]
        exp = _merge(args, preset)
        out = exp.out or f"{args.figure}.csv"
        code = COMMANDS[preset["mode"]][0](exp, out)
        print(f"{args.figure}: {preset['description']} -> {out}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: model too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ThresholdError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
