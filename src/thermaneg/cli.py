"""Command-line front end: config-driven sweeps, thresholds, windows,
size scalings, factorizability checks, and hard-coded figure presets,
all serialized as deterministic CSV.

Config files are flat INI text (section headers in brackets, key =
value lines); every key can also be given as a command-line flag,
which overrides the file.  Floats are printed with 12 significant
digits, rows follow a fixed order, and line endings are LF, so a given
config and binary produce byte-identical output at any parallelism.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import analysis
from .analysis import CrossingError, ThresholdError
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


# Declarative parameters of the figure-reproduction presets.  The
# reproduce command builds its runs from these entries, and the test
# suite checks them against the quoted source parameters, so the values
# live in exactly one place.
PRESETS = {
    "fig2": {
        "mode": "sweep",
        "kind": "harmonic",
        "topology": "ring_nn",
        "n_list": (128,),
        "c": 0.4,
        "h": 0.0,
        "beta_list": (2.5, 2.4, 2.0),
        "families": ("blocks",),
        "blocks_nb": (1, 2, 3, 4, 5, 6, 7),
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
        "t_grid": (0.5, 4.0, 50),
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
        "t_grid": (0.5, 4.0, 50),
        "families": ("external",),
        "external_sites": (2,),
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)


def _parse_int_list(text: str, where: str):
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a comma-separated integer list: {exc}")


def _parse_float_list(text: str, where: str):
    try:
        values = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a comma-separated number list: {exc}")
    if any(math.isnan(v) for v in values):
        raise ConfigError(f"{where}: nan is not allowed")
    return values


_KNOWN_KEYS = {
    "model": {"kind", "topology", "n", "n_list", "c", "h"},
    "schedule": {"t_list", "beta_list", "t_range"},
    "partitions": {
        "families",
        "blocks_nb",
        "external_sites",
        "transfer_order",
        "certificate",
        "witness",
    },
    "run": {"out", "jobs", "tol", "max_spin_sites"},
}


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    raw = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown config section [{section}]; "
                f"expected one of {sorted(_KNOWN_KEYS)}"
            )
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(
                    f"unknown key {section}.{key}; "
                    f"known keys: {sorted(_KNOWN_KEYS[section])}"
                )
            raw.setdefault(section, {})[key] = parser[section][key]
    return raw


class Experiment:
    """Typed view of a merged configuration."""

    def __init__(self, raw: dict):
        model = raw.get("model", {})
        schedule = raw.get("schedule", {})
        parts = raw.get("partitions", {})
        run = raw.get("run", {})

        self.kind = model.get("kind")
        if self.kind not in ("harmonic", "spin_half"):
            raise ConfigError(
                f"model.kind must be 'harmonic' or 'spin_half', got {self.kind!r}"
            )
        self.topology = model.get("topology")
        if self.topology not in ("ring_nn", "star"):
            raise ConfigError(
                f"model.topology must be 'ring_nn' or 'star', got {self.topology!r}"
            )
        if "n" in model and "n_list" in model:
            raise ConfigError("give either model.n or model.n_list, not both")
        if "n" in model:
            self.n_list = _parse_int_list(str(model["n"]), "model.n")
        elif "n_list" in model:
            self.n_list = _parse_int_list(str(model["n_list"]), "model.n_list")
        else:
            raise ConfigError("model.n (or model.n_list) is required")
        try:
            self.c = float(model.get("c", 0.0))
            self.h = float(model.get("h", 0.0))
        except ValueError as exc:
            raise ConfigError(f"model.c / model.h: {exc}")

        given = [k for k in ("t_list", "beta_list", "t_range") if k in schedule]
        if len(given) > 1:
            raise ConfigError(
                f"schedule must set exactly one of t_list, beta_list, t_range; got {given}"
            )
        if given == ["t_list"]:
            self.temperatures = _parse_float_list(schedule["t_list"], "schedule.t_list")
        elif given == ["beta_list"]:
            betas = _parse_float_list(schedule["beta_list"], "schedule.beta_list")
            if any(b <= 0 for b in betas):
                raise ConfigError("schedule.beta_list: inverse temperatures must be positive")
            self.temperatures = tuple(1.0 / b for b in betas)
        elif given == ["t_range"]:
            vals = _parse_float_list(schedule["t_range"], "schedule.t_range")
            if (
                len(vals) != 3
                or not all(math.isfinite(v) for v in vals)
                or vals[2] != int(vals[2])
                or int(vals[2]) < 2
            ):
                raise ConfigError(
                    "schedule.t_range: expected finite 'lo,hi,count' with count >= 2"
                )
            self.temperatures = tuple(
                float(t) for t in np.linspace(vals[0], vals[1], int(vals[2]))
            )
        else:
            self.temperatures = None

        self.families = tuple(
            tok.strip() for tok in parts.get("families", "").replace(",", " ").split()
        )
        self.blocks_nb = (
            _parse_int_list(parts["blocks_nb"], "partitions.blocks_nb")
            if "blocks_nb" in parts
            else None
        )
        self.external_sites = (
            _parse_int_list(parts["external_sites"], "partitions.external_sites")
            if "external_sites" in parts
            else (2,)
        )
        self.transfer_order = parts.get("transfer_order", "forward")
        if self.transfer_order not in ("forward", "reversed"):
            raise ConfigError(
                f"partitions.transfer_order must be 'forward' or 'reversed', "
                f"got {self.transfer_order!r}"
            )
        self.certificate = parts.get("certificate")
        self.witness = parts.get("witness")

        self.out = run.get("out")
        try:
            self.jobs = int(run.get("jobs", 1))
            self.tol = float(run.get("tol", 1e-6))
        except ValueError as exc:
            raise ConfigError(f"run.jobs / run.tol: {exc}")
        if self.jobs < 1:
            raise ConfigError(f"run.jobs must be at least 1, got {self.jobs}")
        if not self.tol > 0:
            raise ConfigError(f"run.tol must be positive, got {self.tol}")
        env_cap = os.environ.get("THERMANEG_MAX_SPIN_SITES")
        try:
            default_cap = int(env_cap) if env_cap else MAX_SPIN_SITES_DEFAULT
        except ValueError as exc:
            raise ConfigError(f"THERMANEG_MAX_SPIN_SITES: {exc}")
        try:
            self.max_spin_sites = int(run.get("max_spin_sites", default_cap))
        except ValueError as exc:
            raise ConfigError(f"run.max_spin_sites: {exc}")

    def model_for(self, n: int) -> ModelSpec:
        try:
            spec = ModelSpec(
                kind=self.kind, topology=self.topology, n_sites=n, c=self.c, h=self.h
            )
        except ValueError as exc:
            raise ConfigError(f"model: {exc}")
        if spec.kind == "spin_half" and n > self.max_spin_sites:
            raise ConfigError(
                f"model.n={n} exceeds run.max_spin_sites={self.max_spin_sites} "
                f"(override with THERMANEG_MAX_SPIN_SITES or run.max_spin_sites)"
            )
        return spec

    def _single_partition(self, token: str, n: int):
        """One partition from a token like 'half-half' or 'external:3'."""
        name, _, arg = token.partition(":")
        topo = self.topology
        try:
            if name == "even-odd" and not arg:
                return even_odd(n, topo)
            if name == "half-half" and not arg:
                return half_half(n, topo)
            if name == "central" and not arg:
                return central_vs_rest(n, topo)
            if name == "external":
                return single_external_vs_rest(n, int(arg) if arg else 2, topo)
            if name == "blocks" and arg:
                return alternating_blocks(_exponent_of(n), int(arg), topo)
        except ValueError as exc:
            raise ConfigError(f"partition {token!r}: {exc}")
        raise ConfigError(
            f"unknown partition name {token!r}; expected even-odd, half-half, "
            f"central, external[:site], or blocks:k"
        )

    def partitions_for(self, n: int) -> list:
        if not self.families:
            raise ConfigError("partitions.families is required for this command")
        out = []
        for token in self.families:
            name = token.partition(":")[0]
            try:
                if name == "transfer":
                    fam = transfer_sweep(n, self.topology)
                    out.extend(reversed(fam) if self.transfer_order == "reversed" else fam)
                elif name == "blocks" and ":" not in token:
                    nbs = self.blocks_nb
                    if nbs is None:
                        raise ConfigError(
                            "partitions.blocks_nb is required when families includes 'blocks'"
                        )
                    n_exp = _exponent_of(n)
                    out.extend(alternating_blocks(n_exp, nb, self.topology) for nb in nbs)
                elif name == "external" and ":" not in token:
                    out.extend(
                        single_external_vs_rest(n, s, self.topology)
                        for s in self.external_sites
                    )
                else:
                    out.append(self._single_partition(token, n))
            except ValueError as exc:
                raise ConfigError(f"partitions.families ({token!r}): {exc}")
        return out


def _exponent_of(n: int) -> int:
    exp = n.bit_length() - 1
    if 2**exp != n:
        raise ConfigError(f"block partitions need n to be a power of two, got {n}")
    return exp


def _sweep_cells(row) -> tuple:
    return (
        row.kind,
        row.topology,
        str(row.n),
        _fmt(row.c),
        _fmt(row.h),
        _fmt(row.temperature),
        _fmt(row.beta),
        row.partition_id,
        row.partition_mask,
        str(row.area),
        _fmt(row.e_n),
        _fmt(row.e_l),
        "1" if row.is_ppt else "0",
        _sanitize(row.error),
    )


def _run_sweep_rows(exp: Experiment):
    all_rows = []
    for n in exp.n_list:
        spec = exp.model_for(n)
        parts = exp.partitions_for(n)
        if exp.temperatures is None:
            raise ConfigError("schedule (t_list, beta_list, or t_range) is required")
        grid = analysis.sweep(
            spec,
            exp.temperatures,
            parts,
            jobs=exp.jobs,
            max_spin_sites=exp.max_spin_sites,
        )
        all_rows.extend(grid.rows)
    return all_rows


def cmd_sweep(exp: Experiment, out: str) -> int:
    rows = _run_sweep_rows(exp)
    _write_csv(out, SWEEP_HEADER, [_sweep_cells(r) for r in rows])
    failed = sum(1 for r in rows if r.error)
    if failed:
        print(f"{failed} of {len(rows)} cells failed; see the error column", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_threshold(exp: Experiment, out: str) -> int:
    rows, failures, successes = [], 0, 0
    for n in exp.n_list:
        spec = exp.model_for(n)
        engine = analysis.make_engine(spec, max_spin_sites=exp.max_spin_sites)
        for part in exp.partitions_for(n):
            try:
                res = analysis.threshold_temperature(
                    spec, part, tol=exp.tol, engine=engine
                )
            except ThresholdError as exc:
                print(f"threshold {part.id} (n={n}): {exc}", file=sys.stderr)
                failures += 1
                continue
            successes += 1
            rows.append(
                (
                    spec.kind,
                    spec.topology,
                    str(n),
                    _fmt(spec.c),
                    _fmt(spec.h),
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
    if len(exp.n_list) != 1:
        raise ConfigError("the window command needs a single model.n")
    if not exp.certificate or not exp.witness:
        raise ConfigError("partitions.certificate and partitions.witness are required")
    n = exp.n_list[0]
    spec = exp.model_for(n)
    res = analysis.bound_entanglement_window(
        spec,
        exp._single_partition(exp.certificate, n),
        exp._single_partition(exp.witness, n),
        tol=exp.tol,
        max_spin_sites=exp.max_spin_sites,
    )
    lo, hi = res.window if res.window else ("", "")
    rows = [
        (
            spec.kind,
            spec.topology,
            str(n),
            _fmt(spec.c),
            _fmt(spec.h),
            res.certificate_id,
            res.witness_id,
            _fmt(lo) if lo != "" else "",
            _fmt(hi) if hi != "" else "",
            _fmt(res.midpoint_certificate_e_n) if res.midpoint_certificate_e_n is not None else "",
            _fmt(res.midpoint_witness_e_n) if res.midpoint_witness_e_n is not None else "",
            _sanitize(res.note),
        )
    ]
    _write_csv(out, WINDOW_HEADER, rows)
    if res.window:
        print(f"bound-entanglement window: ({_fmt(lo)}, {_fmt(hi)})")
    else:
        print(f"no window: {res.note}")
    return EXIT_OK


def cmd_scaling(exp: Experiment, out: str) -> int:
    if not exp.certificate or not exp.witness:
        raise ConfigError("partitions.certificate and partitions.witness are required")
    for n in exp.n_list:
        exp.model_for(n)  # validate every size up front
    table = analysis.type2_gap_table(
        lambda n: exp.model_for(n),
        exp.n_list,
        lambda n: exp._single_partition(exp.certificate, n),
        lambda n: exp._single_partition(exp.witness, n),
        tol=exp.tol,
        max_spin_sites=exp.max_spin_sites,
    )
    rows = [
        (
            exp.kind,
            exp.topology,
            _fmt(exp.c),
            _fmt(exp.h),
            str(r.n),
            exp.certificate,
            exp.witness,
            _fmt(r.t_certificate),
            _fmt(r.t_witness),
            _fmt(r.gap),
            _fmt(table.max_rel_deviation),
        )
        for r in table.rows
    ]
    _write_csv(out, SCALING_HEADER, rows)
    print(f"gap max relative deviation over n={list(exp.n_list)}: "
          f"{_fmt(table.max_rel_deviation)}")
    return EXIT_OK


def cmd_factor_check(exp: Experiment, out: str) -> int:
    if len(exp.n_list) != 1:
        raise ConfigError("the factor-check command needs a single model.n")
    rows = _run_sweep_rows(exp)
    grid = analysis.SweepGrid(spec=exp.model_for(exp.n_list[0]), rows=tuple(rows))
    try:
        residual = analysis.rank1_factorizability(grid)
    except ValueError as exc:
        print(f"factor-check: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    n_t = len({r.temperature for r in rows})
    n_p = len({r.partition_id for r in rows})
    _write_csv(
        out,
        FACTOR_HEADER,
        [
            (
                exp.kind,
                exp.topology,
                str(exp.n_list[0]),
                _fmt(exp.c),
                _fmt(exp.h),
                str(n_t),
                str(n_p),
                _fmt(residual),
            )
        ],
    )
    print(f"rank-one residual: {_fmt(residual)}")
    return EXIT_OK


def _preset_experiment(preset: dict, jobs: int) -> Experiment:
    raw = {
        "model": {
            "kind": preset["kind"],
            "topology": preset["topology"],
            "n_list": ",".join(str(n) for n in preset["n_list"]),
            "c": str(preset["c"]),
            "h": str(preset["h"]),
        },
        "schedule": {},
        "partitions": {"families": ",".join(preset["families"])},
        "run": {"jobs": str(jobs)},
    }
    if "beta_list" in preset:
        raw["schedule"]["beta_list"] = ",".join(repr(b) for b in preset["beta_list"])
    if "t_list" in preset:
        raw["schedule"]["t_list"] = ",".join(repr(t) for t in preset["t_list"])
    if "t_grid" in preset:
        lo, hi, count = preset["t_grid"]
        raw["schedule"]["t_range"] = f"{lo},{hi},{count}"
    if "blocks_nb" in preset:
        raw["partitions"]["blocks_nb"] = ",".join(str(b) for b in preset["blocks_nb"])
    if "external_sites" in preset:
        raw["partitions"]["external_sites"] = ",".join(
            str(s) for s in preset["external_sites"]
        )
    if "transfer_order" in preset:
        raw["partitions"]["transfer_order"] = preset["transfer_order"]
    if "tol" in preset:
        raw["run"]["tol"] = repr(preset["tol"])
    return Experiment(raw)


def cmd_reproduce(figure: str, out: str | None, jobs: int) -> int:
    if figure not in PRESETS:
        raise ConfigError(
            f"unknown figure id {figure!r}; available: {', '.join(sorted(PRESETS))}"
        )
    preset = PRESETS[figure]
    exp = _preset_experiment(preset, jobs)
    path = out if out else f"{figure}.csv"
    if preset["mode"] == "threshold":
        code = cmd_threshold(exp, path)
    else:
        code = cmd_sweep(exp, path)
    print(f"{figure}: {preset['description']} -> {path}")
    return code


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


_OVERRIDE_FLAGS = [
    # (flag, section, key)
    ("--kind", "model", "kind"),
    ("--topology", "model", "topology"),
    ("--n", "model", "n"),
    ("--n-list", "model", "n_list"),
    ("--c", "model", "c"),
    ("--h", "model", "h"),
    ("--t-list", "schedule", "t_list"),
    ("--beta-list", "schedule", "beta_list"),
    ("--t-range", "schedule", "t_range"),
    ("--families", "partitions", "families"),
    ("--blocks-nb", "partitions", "blocks_nb"),
    ("--external-sites", "partitions", "external_sites"),
    ("--transfer-order", "partitions", "transfer_order"),
    ("--certificate", "partitions", "certificate"),
    ("--witness", "partitions", "witness"),
    ("--jobs", "run", "jobs"),
    ("--tol", "run", "tol"),
    ("--max-spin-sites", "run", "max_spin_sites"),
]


def _add_common(sub):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--out", help="output CSV path")
    for flag, _, _ in _OVERRIDE_FLAGS:
        sub.add_argument(flag)


def _merge(args) -> Experiment:
    raw = _read_config_file(args.config) if args.config else {}
    for flag, section, key in _OVERRIDE_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None:
            raw.setdefault(section, {})[key] = value
    if getattr(args, "out", None):
        raw.setdefault("run", {})["out"] = args.out
    return Experiment(raw)


def main(argv=None) -> int:
    parser = _Parser(prog="thermaneg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("sweep", "negativity over a temperature-by-partition grid"),
        ("threshold", "PPT threshold temperature per partition"),
        ("window", "bound-entanglement temperature window"),
        ("scaling", "threshold gaps across system sizes"),
        ("factor-check", "rank-one factorizability residual of a sweep"),
    ):
        _add_common(subs.add_parser(name, help=helptext))
    rep = subs.add_parser("reproduce", help="run a stored figure preset")
    rep.add_argument("figure", help=f"one of: {', '.join(sorted(PRESETS))}")
    rep.add_argument("--out", help="output CSV path (default <figure>.csv)")
    rep.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, args.out, args.jobs)
        exp = _merge(args)
        out = exp.out or f"{args.command}.csv"
        handler = {
            "sweep": cmd_sweep,
            "threshold": cmd_threshold,
            "window": cmd_window,
            "scaling": cmd_scaling,
            "factor-check": cmd_factor_check,
        }[args.command]
        return handler(exp, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ThresholdError, CrossingError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
