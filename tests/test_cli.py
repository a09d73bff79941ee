import numpy as np
import pytest

from thermaneg.cli import (
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


class TestSweepCommand:
    def test_happy_path(self, tmp_path):
        code, text = run(tmp_path, *RING_ARGS)
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 5
        assert lines[1].startswith("harmonic,ring_nn,8,0.4,0,0.2,5,even-odd,+-+-+-+-,8,")

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

    def test_failing_cell_reports_partial_exit(self, tmp_path, capsys):
        code, text = run(
            tmp_path,
            "sweep",
            "--kind", "harmonic",
            "--topology", "ring_nn",
            "--n", "8",
            "--c", "0.4",
            "--t-list", "0.5,-1.0",
            "--families", "even-odd",
        )
        assert code == EXIT_PARTIAL
        bad = text.splitlines()[2]
        assert "ValueError" in bad
        # the sanitized message must stay inside the one error field
        assert len(bad.split(",")) == len(SWEEP_HEADER.split(","))
        assert "failed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("schedule", [["--t-list", "inf"], ["--beta-list", "1e-320"]])
    def test_infinite_temperature_is_separable(self, tmp_path, schedule):
        code, text = run(tmp_path, *RING_NO_SCHEDULE, *schedule)
        assert code == EXIT_OK
        cells = text.splitlines()[1].split(",")
        assert cells[5] == "inf" and cells[10:13] == ["0", "0", "1"]

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
             "--c", "0.4", "--t-list", "1", "--families", "blocks",
             "--blocks-nb", "1"],  # blocks need a power of two
        ],
    )
    def test_config_errors_exit_one(self, tmp_path, args):
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

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

    def test_spin_cap_from_environment(self, tmp_path, monkeypatch):
        spin = [
            "sweep",
            "--kind", "spin_half",
            "--topology", "ring_nn",
            "--n", "6",
            "--h", "1.9",
            "--t-list", "1.0",
            "--families", "even-odd",
        ]
        monkeypatch.setenv("THERMANEG_MAX_SPIN_SITES", "4")
        assert main(spin + ["--out", str(tmp_path / "a.csv")]) == EXIT_CONFIG
        # an explicit flag overrides the environment
        assert (
            main(spin + ["--max-spin-sites", "6", "--out", str(tmp_path / "b.csv")])
            == EXIT_OK
        )
        monkeypatch.delenv("THERMANEG_MAX_SPIN_SITES")
        assert main(spin + ["--out", str(tmp_path / "c.csv")]) == EXIT_OK

    def test_non_integer_spin_cap_in_environment_is_a_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("THERMANEG_MAX_SPIN_SITES", "abc")
        code, text = run(tmp_path, *RING_ARGS)
        assert code == EXIT_CONFIG and text is None
        err = capsys.readouterr().err
        assert err.startswith("config error: THERMANEG_MAX_SPIN_SITES")
        assert len(err.splitlines()) == 1

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
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[9]) > 0  # positive gap
            assert float(cells[10]) < 0.01  # nearly size independent


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
            "--families", "blocks",
            "--blocks-nb", "1,2,3,4",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == FACTOR_HEADER
        cells = lines[1].split(",")
        assert cells[5] == "3" and cells[6] == "4"
        assert float(cells[7]) >= 0


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

    def test_runs_are_identical_across_parallelism(self, tmp_path):
        out1, out4 = tmp_path / "j1.csv", tmp_path / "j4.csv"
        assert main(["reproduce", "fig5", "--out", str(out1), "--jobs", "1"]) == EXIT_OK
        assert main(["reproduce", "fig5", "--out", str(out4), "--jobs", "4"]) == EXIT_OK
        assert out1.read_bytes() == out4.read_bytes()
