import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaneg import analysis, cli, partitions
from thermaneg.cli import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARTIAL,
    FACTOR_HEADER,
    PRESETS,
    SCALING_HEADER,
    SWEEP_HEADER,
    THRESHOLD_HEADER,
    WINDOW_HEADER,
    main,
)


def run(tmp_path, *args, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else None
    return code, text


RING_ARGS = [
    "sweep",
    "--kind", "harmonic",
    "--topology", "ring_nn",
    "--n", "8",
    "--c", "0.4",
    "--t-list", "0.2,0.5",
    "--families", "even-odd,half-half",
]

RING_NO_SCHEDULE = RING_ARGS[:RING_ARGS.index("--t-list")] + ["--families", "even-odd"]

RING_MODEL = RING_ARGS[:RING_ARGS.index("--t-list")]
SPIN_RING = ["sweep", "--kind", "spin_half", "--topology", "ring_nn", "--n", "4",
             "--t-list", "1", "--families", "even-odd"]
STAR_MODEL = ["sweep", "--kind", "harmonic", "--topology", "star", "--n", "4"]
RING_PAIR = ["--kind", "harmonic", "--topology", "ring_nn", "--n-list", "8,8", "--c", "0.4"]

# Repeated or negative temperatures, repeated partitions or sizes, an
# empty size list, non-finite couplings, couplings that overflow a
# matrix entry, a t_range count too large for numpy, a bare 'blocks',
# an infinite root-search tolerance, and models too large to allocate (a 2 PiB dense spin Hamiltonian, a
# 182 TiB ring potential; both exceed a 47-bit address space, so they
# fail at once): each is a config error, on one line.
REJECTED_INPUTS = [
    RING_MODEL + ["--t-list", "0.5,0.5", "--families", "even-odd"],
    RING_MODEL + ["--t-range", "1,1,5", "--families", "even-odd"],
    RING_MODEL + ["--beta-list", "2,2", "--families", "even-odd"],
    RING_MODEL + ["--t-list", "1", "--families", "even-odd,even-odd"],
    STAR_MODEL + ["--c", "1", "--t-list", "1", "--families", "external,external:2"],
    ["factor-check"] + RING_MODEL[1:] + ["--t-list", "0.3,0.3", "--families", "even-odd"],
    STAR_MODEL + ["--c", "nan", "--t-list", "1", "--families", "central"],
    STAR_MODEL + ["--c", "inf", "--t-list", "1", "--families", "central"],
    SPIN_RING + ["--h", "nan"],
    SPIN_RING + ["--h", "inf"],
    RING_ARGS + ["--h", "nan"],
    ["sweep", "--kind", "bogus", "--topology", "ring_nn", "--n", "", "--t-list", "1",
     "--families", "even-odd"],
    RING_MODEL[:RING_MODEL.index("--n")] + ["--n-list", "", "--c", "0.4", "--t-list", "1",
                                            "--families", "even-odd"],
    ["sweep"] + RING_PAIR + ["--t-list", "1", "--families", "even-odd"],
    ["threshold"] + RING_PAIR + ["--families", "even-odd", "--tol", "1e-3"],
    ["scaling"] + RING_PAIR + ["--certificate", "half-half", "--witness", "even-odd",
                               "--tol", "1e-3"],
    ["sweep", "--kind", "spin_half", "--topology", "ring_nn", "--n", "24",
     "--max-spin-sites", "24", "--t-list", "1", "--families", "even-odd"],
    ["threshold", "--kind", "harmonic", "--topology", "ring_nn", "--n", "5000000",
     "--c", "0.4", "--families", "even-odd"],
    RING_MODEL + ["--t-list=-0.5,0.5", "--families", "even-odd"],
    RING_MODEL + ["--t-range", "1,-1,3", "--families", "even-odd"],
    ["factor-check"] + RING_MODEL[1:] + ["--t-list=-0.5,0.5", "--families", "even-odd"],
    ["sweep", "--kind", "harmonic", "--topology", "star", "--n", "3", "--c", "1e308",
     "--t-list", "0.5", "--families", "central"],
    ["sweep", "--kind", "spin_half", "--topology", "star", "--n", "4", "--h", "1e308",
     "--t-list", "0.5", "--families", "central"],
    RING_MODEL + ["--t-range", "1,2,1e30", "--families", "even-odd"],
    RING_MODEL + ["--t-list", "1", "--families", "blocks"],
    ["threshold"] + RING_MODEL[1:] + ["--families", "even-odd", "--tol", "inf"],
]


class TestSweepCommand:
    def test_happy_path(self, tmp_path):
        code, text = run(tmp_path, *RING_ARGS)
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 5
        assert lines[1].startswith("harmonic,ring_nn,8,0.4,0,0.2,5,even-odd,+-+-+-+-,8,")

    def test_rows_put_temperature_outermost(self, tmp_path):
        code, text = run(tmp_path, *RING_ARGS)
        assert code == EXIT_OK
        cells = [line.split(",") for line in text.splitlines()[1:]]
        assert [(row[5], row[7]) for row in cells] == [
            ("0.2", "even-odd"),
            ("0.2", "half-half"),
            ("0.5", "even-odd"),
            ("0.5", "half-half"),
        ]

    def test_zero_temperature_has_infinite_beta(self, tmp_path):
        code, text = run(tmp_path, *RING_NO_SCHEDULE, "--t-list", "0,0.5")
        assert code == EXIT_OK
        betas = [line.split(",")[6] for line in text.splitlines()[1:]]
        assert betas == ["inf", "2"]

    def test_error_column_is_kept_and_empty(self, tmp_path):
        code, text = run(tmp_path, *RING_ARGS)
        assert code == EXIT_OK
        rows = [line.split(",") for line in text.splitlines()]
        assert rows[0][-1] == "error"
        assert all(len(row) == len(rows[0]) and row[-1] == "" for row in rows[1:])

    def test_beta_schedule_round_trips(self, tmp_path):
        code, text = run(
            tmp_path,
            "sweep",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "8",
            "--c", "0.4",
            "--beta-list", "2.5",
            "--families", "even-odd",
        )
        assert code == EXIT_OK
        cells = text.splitlines()[1].split(",")
        assert cells[5] == "0.4" and cells[6] == "2.5"

    def test_temperature_range_schedule(self, tmp_path):
        code, text = run(
            tmp_path,
            "sweep",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "8",
            "--c", "0.4",
            "--t-range", "0.5,4.0,5",
            "--families", "even-odd",
        )
        assert code == EXIT_OK
        temps = [line.split(",")[5] for line in text.splitlines()[1:]]
        assert temps == ["0.5", "1.375", "2.25", "3.125", "4"]

    def test_empty_temperature_list_writes_a_bare_header(self, tmp_path):
        code, text = run(
            tmp_path,
            "sweep",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "8",
            "--c", "0.4",
            "--t-list", "",
            "--families", "even-odd",
        )
        assert code == EXIT_OK
        assert text == SWEEP_HEADER + "\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("schedule", [["--t-list", "inf"], ["--beta-list", "1e-320"]])
    def test_infinite_temperature_is_separable(self, tmp_path, schedule):
        code, text = run(tmp_path, *RING_NO_SCHEDULE, *schedule)
        assert code == EXIT_OK
        cells = text.splitlines()[1].split(",")
        assert cells[5] == "inf" and cells[10:13] == ["0", "0", "1"]

    def test_negativity_beyond_float_range_is_inf(self, tmp_path):
        # 2**E_l overflows a float once E_l passes 1024 bits
        code, text = run(
            tmp_path,
            "sweep",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "2048",
            "--c", "0.45",
            "--t-list", "0.01",
            "--families", "even-odd",
        )
        assert code == EXIT_OK
        cells = text.splitlines()[1].split(",")
        e_n, e_l, is_ppt, error = cells[10:14]
        assert e_n == "inf" and 1024.0 < float(e_l) < math.inf
        assert is_ppt == "0" and error == ""

    def test_negative_zero_is_read_as_zero(self, tmp_path, capsys):
        star = ["sweep", "--kind", "spin_half", "--topology", "star", "--n", "4",
                "--families", "central"]
        code, text = run(tmp_path, *star, "--h", "-0", "--t-list", "-0", name="star.csv")
        assert code == EXIT_OK
        assert text.splitlines()[1].split(",")[3:6] == ["0", "0", "0"]
        code, text = run(tmp_path, *RING_MODEL[:-2], "--c", "-0", "--t-list", "1",
                         "--families", "even-odd", name="ring.csv")
        assert code == EXIT_OK
        assert text.splitlines()[1].split(",")[3] == "0"
        code, text = run(tmp_path, *star, "--t-list", "0,-0", name="pair.csv")
        assert code == EXIT_CONFIG and text is None
        assert "temperatures must be distinct, got [0.0, 0.0]" in capsys.readouterr().err

    def test_forty_site_star_keeps_the_negativity_of_its_light_blocks(self, tmp_path):
        # at T = 6 every negative eigenvalue of the partial transpose lies
        # above -1e-12 per copy of the state, and hub E_N is 2.2e-3
        code, text = run(tmp_path, "sweep", "--kind", "spin_half", "--topology", "star",
                         "--n", "40", "--max-spin-sites", "40", "--t-list", "6",
                         "--families", "central,external")
        assert code == EXIT_OK
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(r[7], r[12]) for r in rows] == [("central", "0"), ("external-2", "0")]

    def test_external_one_names_a_ring_site_but_not_the_star_hub(self, tmp_path, capsys):
        code, text = run(tmp_path, *RING_MODEL, "--t-list", "0.5", "--families", "external:1")
        assert code == EXIT_OK
        assert text.splitlines()[1].split(",")[7:10] == ["external-1", "+-------", "2"]
        code, _ = run(tmp_path, *STAR_MODEL, "--c", "1", "--t-list", "1",
                      "--families", "external:1")
        assert code == EXIT_CONFIG
        assert "site 1 is the hub" in capsys.readouterr().err

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        assert main(RING_ARGS + ["--out", str(out)]) == EXIT_OK
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestConfigHandling:
    def test_config_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[model]\n"
            "kind = harmonic\n"
            "topology = ring_nn\n"
            "n = 8\n"
            "c = 0.4\n"
            "[schedule]\n"
            "t_list = 0.2, 0.5\n"
            "[partitions]\n"
            "families = even-odd, half-half\n"
        )
        code_file, text_file = run(tmp_path, "sweep", "--config", str(cfg), name="a.csv")
        code_flags, text_flags = run(tmp_path, *RING_ARGS, name="b.csv")
        assert code_file == code_flags == EXIT_OK
        assert text_file == text_flags

    def test_flags_override_the_file(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[model]\nkind = harmonic\ntopology = ring_nn\nn = 8\nc = 0.4\n"
            "[schedule]\nt_list = 0.5\n"
            "[partitions]\nfamilies = even-odd\n"
        )
        code, text = run(tmp_path, "sweep", "--config", str(cfg), "--n", "6")
        assert code == EXIT_OK
        assert text.splitlines()[1].split(",")[2] == "6"

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--kind", "bogus", "--topology", "ring_nn", "--n", "8",
             "--t-list", "1", "--families", "even-odd"],
            ["sweep", "--kind", "harmonic", "--topology", "ring_nn",
             "--t-list", "1", "--families", "even-odd"],  # n missing
            ["sweep", "--kind", "harmonic", "--topology", "ring_nn", "--n", "8",
             "--c", "0.4", "--t-list", "1", "--beta-list", "2",
             "--families", "even-odd"],  # two schedules
            ["sweep", "--kind", "harmonic", "--topology", "ring_nn", "--n", "8",
             "--c", "0.4", "--t-list", "1", "--families", "nonsense"],
            ["sweep", "--kind", "harmonic", "--topology", "ring_nn", "--n", "8",
             "--c", "0.4", "--families", "even-odd"],  # no schedule
            ["sweep", "--kind", "harmonic", "--topology", "ring_nn", "--n", "8",
             "--c", "0.4", "--t-range", "1,2", "--families", "even-odd"],
            ["sweep", "--kind", "harmonic", "--topology", "ring_nn", "--n", "9",
             "--c", "0.4", "--t-list", "1",
             "--families", "blocks:1"],  # blocks need a power of two
        ] + REJECTED_INPUTS,
    )
    def test_config_errors_exit_one(self, tmp_path, args):
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize("args", REJECTED_INPUTS)
    def test_rejected_inputs_give_one_config_error_line(self, tmp_path, capsys, args):
        code, text = run(tmp_path, *args)
        assert code == EXIT_CONFIG and text is None
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [
            RING_ARGS,
            ["threshold"] + RING_MODEL[1:] + ["--families", "even-odd", "--tol", "1e-3"],
            ["window"] + RING_MODEL[1:] + ["--certificate", "half-half",
                                           "--witness", "even-odd", "--tol", "1e-3"],
            ["scaling"] + RING_MODEL[1:] + ["--certificate", "half-half",
                                            "--witness", "even-odd", "--tol", "1e-3"],
            ["factor-check"] + RING_ARGS[1:],
            ["reproduce", "fig4"],
        ],
    )
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "missing" / "x.csv"
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}")
        assert len(err.splitlines()) == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[model]\nkind = harmonic\nflavour = strange\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.ini")]) == EXIT_CONFIG

    def test_bad_flags_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--no-such-flag"])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_help_lists_every_config_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        shown = {word.strip("[],") for word in capsys.readouterr().out.split()}
        assert {"--config"} | {cli._flag(key) for key in CONFIG_KEYS} <= shown

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert set(cli.COMMANDS) | {"reproduce"} <= {words[0] for words in lines if words}

    @pytest.mark.parametrize(
        "args",
        [
            ["reproduce", "fig5", "--jobs", "4"],
            RING_ARGS + ["--jobs", "1"],
            RING_MODEL + ["--t-list", "1", "--families", "blocks", "--blocks-nb", "1"],
            STAR_MODEL + ["--c", "1", "--t-list", "1", "--families", "external",
                          "--external-sites", "3"],
        ],
    )
    def test_removed_flags_are_refused_on_one_line(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unrecognized arguments: --" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "key", ["run.jobs", "partitions.blocks_nb", "partitions.external_sites"]
    )
    def test_removed_config_keys_are_refused_on_one_line(self, tmp_path, capsys, key):
        section, name = key.split(".")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[{section}]\n{name} = 1\n")
        code, text = run(tmp_path, *RING_ARGS, "--config", str(cfg))
        assert code == EXIT_CONFIG and text is None
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown key {key};")
        assert len(err.splitlines()) == 1

    def test_spin_cap_ignores_the_environment(self, tmp_path, monkeypatch):
        spin = ["sweep", "--kind", "spin_half", "--topology", "ring_nn", "--n", "6",
                "--h", "1.9", "--t-list", "1", "--families", "even-odd"]
        monkeypatch.delenv("THERMANEG_MAX_SPIN_SITES", raising=False)
        code_plain, plain = run(tmp_path, *spin, name="plain.csv")
        monkeypatch.setenv("THERMANEG_MAX_SPIN_SITES", "4")
        code_env, with_env = run(tmp_path, *spin, name="env.csv")
        assert code_plain == code_env == EXIT_OK
        assert with_env == plain

    def test_spin_cap_refusal_names_the_flag_and_the_key(self, tmp_path, capsys):
        code, text = run(tmp_path, *SPIN_RING, "--max-spin-sites", "3")
        assert code == EXIT_CONFIG and text is None
        err = capsys.readouterr().err
        assert err == (
            "config error: model.n=4 exceeds run.max_spin_sites=3 "
            "(raise it with --max-spin-sites or run.max_spin_sites)\n"
        )

    @pytest.mark.parametrize("command", ["sweep", "threshold", "window", "factor-check"])
    def test_models_are_built_with_the_run_spin_cap(self, tmp_path, monkeypatch, command):
        caps = []
        build = analysis.make_engine
        monkeypatch.setattr(
            analysis,
            "make_engine",
            lambda spec, max_spin_sites: caps.append(max_spin_sites)
            or build(spec, max_spin_sites=max_spin_sites),
        )
        roles = ["--certificate", "half-half", "--witness", "even-odd"]
        grid = ["--t-list", "0.5,1", "--families", "even-odd,half-half"]
        run(tmp_path, command, *SPIN_RING[1:SPIN_RING.index("--t-list")],
            "--max-spin-sites", "5", *(roles if command == "window" else grid))
        assert caps == [5]

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    def test_config_errors_come_before_any_model_is_built(
        self, tmp_path, monkeypatch, command
    ):
        # n = 6 has no block partitions, and it comes after n = 4
        built = []
        monkeypatch.setattr(analysis, "make_engine", lambda *a, **k: built.append(a))
        code, text = run(tmp_path, command, *RING_PAIR[:4], "--n-list", "4,6",
                         "--c", "0.4", "--t-list", "0.5", "--families", "blocks:1")
        assert code == EXIT_CONFIG and text is None and built == []

    @pytest.mark.parametrize(
        "schedule",
        [
            ["--t-list", "0.5,nan"],
            ["--beta-list", "nan"],
            ["--t-range", "nan,2,3"],
            ["--t-range", "0.5,2,nan"],
            ["--t-range", "0.5,inf,3"],
            ["--t-list", "0.5", "--tol", "nan"],
        ],
    )
    def test_non_numbers_are_config_errors(self, tmp_path, capsys, schedule):
        code, text = run(tmp_path, *RING_NO_SCHEDULE, *schedule)
        assert code == EXIT_CONFIG and text is None
        assert capsys.readouterr().err.startswith("config error: ")

    def test_infinite_tolerance_names_the_setting(self, tmp_path, capsys):
        # a tolerance wider than the scan would report a scan cell as the threshold
        code, text = run(tmp_path, "threshold", *RING_MODEL[1:], "--families", "even-odd",
                         "--tol", "inf")
        assert code == EXIT_CONFIG and text is None
        assert capsys.readouterr().err == (
            "config error: run.tol must be positive and finite, got inf\n")

    @pytest.mark.parametrize(
        "args",
        [
            STAR_MODEL[:5] + ["--n", "3", "--c", "1e16", "--t-list", "0.5",
                              "--families", "central"],
            STAR_MODEL[:5] + ["--n", "3", "--c", "1e20", "--t-list", "0.5",
                              "--families", "central"],
            ["scaling", *STAR_MODEL[1:5], "--n-list", "3,5", "--c", "1e20",
             "--certificate", "half-half", "--witness", "central"],
        ],
    )
    def test_a_model_its_engine_refuses_is_one_config_error(self, tmp_path, capsys, args):
        # rounding leaves the star V at this coupling not positive definite
        code, text = run(tmp_path, *args)
        assert code == EXIT_CONFIG and text is None
        err = capsys.readouterr().err
        assert err.startswith("config error: model: potential matrix must be positive")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("n", ["100000000000", "1" + "0" * 400], ids=["1e11", "1e400"])
    @pytest.mark.parametrize("family", ["central", "even-odd"])
    @pytest.mark.parametrize(
        "kind, topology",
        [("harmonic", "ring_nn"), ("spin_half", "ring_nn"), ("spin_half", "star")],
    )
    def test_sizes_beyond_memory_are_refused_before_any_partition(
        self, tmp_path, monkeypatch, capsys, n, family, kind, topology
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a partition list was built")

        for module in (cli, partitions):
            monkeypatch.setattr(module, "even_odd", refuse)
        cap = ["--max-spin-sites", n] if kind == "spin_half" else ["--c", "0.4"]
        code, text = run(tmp_path, "sweep", "--kind", kind, "--topology", topology,
                         "--n", n, *cap, "--t-list", "1", "--families", family)
        assert code == EXIT_CONFIG and text is None
        err = capsys.readouterr().err
        assert err.startswith(f"config error: model.n={n} is too large")
        assert len(err.splitlines()) == 1


class TestThresholdCommand:
    def test_happy_path(self, tmp_path):
        code, text = run(
            tmp_path,
            "threshold",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "8",
            "--c", "0.4",
            "--families", "even-odd,half-half",
            "--tol", "1e-4",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == THRESHOLD_HEADER
        assert len(lines) == 3
        t_eo = float(lines[1].split(",")[6])
        assert abs(t_eo - 0.5379) < 1e-3

    def test_all_partitions_failing_exits_two(self, tmp_path, capsys):
        code, text = run(
            tmp_path,
            "threshold",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "8",
            "--c", "0.0",
            "--families", "even-odd",
        )
        assert code == EXIT_NUMERICAL
        assert text == THRESHOLD_HEADER + "\n"
        assert "not entangled" in capsys.readouterr().err


class TestWindowCommand:
    def test_ring_window(self, tmp_path):
        code, text = run(
            tmp_path,
            "window",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "16",
            "--c", "0.4",
            "--certificate", "half-half",
            "--witness", "even-odd",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == WINDOW_HEADER
        cells = lines[1].split(",")
        assert float(cells[7]) < float(cells[8])

    def test_empty_window_leaves_its_optional_cells_empty(self, tmp_path, capsys):
        code, text = run(
            tmp_path,
            "window",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "16",
            "--c", "0.4",
            "--certificate", "central",
            "--witness", "external:2",
        )
        assert code == EXIT_OK
        assert text.splitlines()[1] == (
            "harmonic,ring_nn,16,0.4,0,central,external-2,,,,,"
            "thresholds coincide within tolerance; no window"
        )
        assert "no window" in capsys.readouterr().out

    def test_requires_both_roles(self, tmp_path):
        code, _ = run(
            tmp_path,
            "window",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "16",
            "--c", "0.4",
            "--certificate", "half-half",
        )
        assert code == EXIT_CONFIG


class TestScalingCommand:
    def test_ring_scaling(self, tmp_path):
        code, text = run(
            tmp_path,
            "scaling",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n-list", "8,16",
            "--c", "0.4",
            "--certificate", "half-half",
            "--witness", "even-odd",
            "--tol", "1e-4",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == SCALING_HEADER
        assert [line.split(",")[4] for line in lines[1:]] == ["8", "16"]
        gaps = []
        for line in lines[1:]:
            cells = line.split(",")
            t_cert, t_wit, gap, deviation = map(float, cells[7:11])
            assert gap == pytest.approx(t_wit - t_cert, abs=1e-9)
            assert gap > 0
            assert deviation < 0.01  # nearly size independent
            gaps.append(gap)
        mean = sum(gaps) / len(gaps)
        assert deviation == pytest.approx((max(gaps) - min(gaps)) / abs(mean), abs=1e-9)

    def test_single_size_has_zero_deviation(self, tmp_path, capsys):
        code, text = run(
            tmp_path,
            "scaling",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n-list", "8",
            "--c", "0.4",
            "--certificate", "half-half",
            "--witness", "even-odd",
            "--tol", "1e-3",
        )
        assert code == EXIT_OK
        (row,) = text.splitlines()[1:]
        assert row.split(",")[10] == "0"
        assert capsys.readouterr().out == "gap max relative deviation over n=[8]: 0\n"

    def test_failed_threshold_names_its_partition_and_size(self, tmp_path, capsys):
        code, text = run(
            tmp_path,
            "scaling",
            "--kind", "spin_half",
            "--topology", "ring_nn",
            "--n-list", "6,8",
            "--h", "4",
            "--certificate", "half-half",
            "--witness", "even-odd",
        )
        assert code == EXIT_NUMERICAL and text is None
        assert capsys.readouterr().err == (
            "threshold half-half (n=6): not entangled at T_lo=0.01 (E_N=0.000e+00); "
            "no threshold to find\n"
        )

    @pytest.mark.parametrize(
        "roles, ids",
        [
            (["blocks:1", "external"], ["blocks-2^1", "external-2"]),
            (["half-half", "external:3"], ["half-half", "external-3"]),
        ],
    )
    def test_rows_name_the_partition_ids(self, tmp_path, roles, ids):
        code, text = run(
            tmp_path,
            "scaling",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n-list", "8,16",
            "--c", "0.4",
            "--certificate", roles[0],
            "--witness", roles[1],
            "--tol", "1e-3",
        )
        assert code == EXIT_OK
        assert [line.split(",")[5:7] for line in text.splitlines()[1:]] == [ids, ids]


class TestFactorCheckCommand:
    def test_residual_row(self, tmp_path):
        code, text = run(
            tmp_path,
            "factor-check",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "16",
            "--c", "0.4",
            "--t-list", "0.3,0.4,0.5",
            "--families", "blocks:1,blocks:2,blocks:3,blocks:4",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == FACTOR_HEADER
        cells = lines[1].split(",")
        assert cells[5] == "3" and cells[6] == "4"
        assert float(cells[7]) >= 0

    def test_empty_schedule_has_its_own_message(self, tmp_path, capsys):
        code, text = run(
            tmp_path,
            "factor-check",
            *RING_MODEL[1:],
            "--t-list", "",
            "--families", "even-odd",
        )
        assert code == EXIT_NUMERICAL and text is None
        err = capsys.readouterr().err
        assert err == "factor-check: empty grid: factorizability needs at least one cell\n"

    def test_infinite_negativity_is_refused(self, tmp_path, capsys):
        # even-odd on 2048 sites at c = 0.45 and T = 0.01: 2^E_l overflows
        code, text = run(
            tmp_path,
            "factor-check",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "2048",
            "--c", "0.45",
            "--t-list", "0.01,0.02",
            "--families", "even-odd,half-half",
        )
        assert code == EXIT_NUMERICAL and text is None
        assert "not finite" in capsys.readouterr().err


class TestReproduce:
    def test_unknown_figure_exits_one(self, tmp_path, capsys):
        assert main(["reproduce", "fig99", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert "unknown figure" in capsys.readouterr().err

    def test_every_preset_is_well_formed(self):
        for name, preset in PRESETS.items():
            assert preset["mode"] in ("sweep", "threshold")
            assert preset["kind"] in ("harmonic", "spin_half")
            assert preset["topology"] in ("ring_nn", "star")
            assert preset["families"]
            assert preset["description"]
            assert set(preset) - {"mode", "description"} <= set(CONFIG_KEYS), name

    def test_block_sweep_preset_shape(self, tmp_path):
        code, text = run(tmp_path, "reproduce", "fig2")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 22  # 3 temperatures x 7 block partitions
        areas = [int(line.split(",")[9]) for line in lines[1:8]]
        assert areas == [2, 4, 8, 16, 32, 64, 128]

    def test_transfer_sweep_preset_shape(self, tmp_path):
        code, text = run(tmp_path, "reproduce", "fig5")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert len(lines) == 16  # 3 temperatures x 5 transfer partitions
        areas = [int(line.split(",")[9]) for line in lines[1:6]]
        assert areas == [2, 4, 6, 8, 10]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["reproduce", "fig5", "--out", str(first)]) == EXIT_OK
        assert main(["reproduce", "fig5", "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("figure", ["fig5", "fig4-inset"])
    def test_preset_equals_the_same_keys_given_as_flags(self, tmp_path, figure):
        preset = PRESETS[figure]
        flags = [preset["mode"]]
        for key, value in preset.items():
            if key in CONFIG_KEYS:
                text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
                flags += ["--" + key.replace("_", "-"), text]
        code_preset, text_preset = run(tmp_path, "reproduce", figure, name="preset.csv")
        code_flags, text_flags = run(tmp_path, *flags, name="flags.csv")
        assert code_preset == code_flags == EXIT_OK
        assert text_preset == text_flags


# Values drawn for the keys: numbers, non-numbers, repeats, empty text
# and, for the word-valued keys, the words they accept.  No size exceeds
# 6 and no spin cap 12, so no dense spin matrix grows beyond 64 x 64.
FUZZ_NUMBERS = [
    "", "0", "1", "2", "4", "6", "-1", "0.5", "1e-3", "nan", "inf", "-inf",
    "1,1", "2,2", "0.5,2,3", "1,1,5", "abc", "%",
]
FUZZ_WORDS = [
    "", "1", "abc", "%", "harmonic", "spin_half", "ring_nn", "star", "even-odd",
    "half-half", "central", "transfer", "external", "external:3", "blocks", "blocks:1",
    "even-odd,even-odd", "forward", "reversed",
]
WORD_KEYS = {"kind", "topology", "families", "transfer_order", "certificate", "witness"}
FUZZ_BASES = [
    {"kind": "harmonic", "topology": "ring_nn", "n": "4", "c": "0.4", "t_list": "0.3,0.5",
     "families": "even-odd,half-half", "certificate": "half-half", "witness": "even-odd"},
    {"kind": "spin_half", "topology": "star", "n": "4", "h": "0.5", "t_list": "0.5",
     "families": "central,external", "certificate": "central", "witness": "external:2"},
]


def fuzzed_value(key):
    """A drawn (key, value) pair; value None drops the key."""
    pool = FUZZ_WORDS if key in WORD_KEYS else FUZZ_NUMBERS
    return st.tuples(st.just(key), st.none() | st.sampled_from(pool))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["sweep", "threshold", "window", "scaling", "factor-check"]),
    base=st.sampled_from(FUZZ_BASES),
    changes=st.lists(
        st.sampled_from([key for key in CONFIG_KEYS if key != "out"]).flatmap(fuzzed_value),
        max_size=4,
    ).map(dict),
    as_ini=st.booleans(),
)
def test_cli_never_raises_on_fuzzed_input(command, base, changes, as_ini):
    keys = {k: v for k, v in {**base, **changes}.items() if v is not None}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--out", f"{tmp}/out.csv"]
        if as_ini:
            sections = {}
            for k, v in keys.items():
                sections.setdefault(CONFIG_KEYS[k][0], []).append(f"{k} = {v}\n")
            with open(f"{tmp}/exp.ini", "w") as fh:
                fh.write("".join(f"[{s}]\n" + "".join(body) for s, body in sections.items()))
            argv += ["--config", f"{tmp}/exp.ini"]
        else:
            argv += [f"--{k.replace('_', '-')}={v}" for k, v in keys.items()]
        # only threshold reports partial success; a sweep has no failing
        # cell to report, so every other command exits 0, 1 or 2
        partial = (EXIT_PARTIAL,) if command == "threshold" else ()
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, *partial)


def test_spin_commands_leave_numpy_ma_unimported(tmp_path):
    # the first np.unique of a process imports numpy.ma, about 15 ms
    # that a spin threshold or sweep has no use for
    spin = ["--kind", "spin_half", "--h", "0.3", "--out", str(tmp_path / "out.csv")]
    calls = [
        ["threshold", "--topology", "ring_nn", "--n", "6", *spin, "--families", "even-odd"],
        ["sweep", "--topology", "star", "--n", "8", *spin, "--t-list", "0.5,1",
         "--families", "central,external"],
    ]
    code = (
        "import sys\n"
        "from thermaneg import cli\n"
        f"for argv in {calls!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["False"]
