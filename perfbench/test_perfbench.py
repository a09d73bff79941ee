"""Tests of the benchmark's own code: inputs, reference check, tracing.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spans  # noqa: E402
import thermaneg.cli  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, Call, generate  # noqa: E402

SMALL_CALLS = [
    Call("sweep", "harmonic", "ring_nn", (16,), ("transfer",),
         c="0.4", beta_list=("1.9", "2.4"), out="ring.csv"),
    Call("sweep", "spin_half", "star", (4, 6), ("central", "external"),
         t_list=("0.5", "1.7", "3.9"), out="star.csv"),
    Call("threshold", "harmonic", "ring_nn", (16,), ("even-odd", "blocks:2"),
         c="0.35", out="thr-harmonic.csv"),
    Call("threshold", "spin_half", "ring_nn", (6,), ("even-odd", "half-half"),
         h="0.7", out="thr-spin.csv"),
]


def run_call(call, tmp_path):
    code = thermaneg.cli.main(call.argv(str(tmp_path)))
    return code, (tmp_path / call.out).read_text()


def replace_cell(text, row, column, value):
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestInputs:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_same_seed_gives_byte_identical_argv(self, workload):
        first = [call.argv("OUT") for call in generate(workload, 7)]
        second = [call.argv("OUT") for call in generate(workload, 7)]
        assert repr(first).encode() == repr(second).encode()

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_different_seeds_give_different_inputs(self, workload):
        argvs = {repr([c.argv("OUT") for c in generate(workload, s)]) for s in range(10)}
        assert len(argvs) == 10

    def test_drawn_values_stay_in_their_ranges(self):
        for seed in range(50):
            harmonic, spin = generate("ring-thresholds", seed)
            assert 0.3 <= float(harmonic.c) <= 0.45
            assert harmonic.families[0] == "even-odd"
            assert 1 <= int(harmonic.families[1].split(":")[1]) <= 7
            assert 0.0 <= float(spin.h) < 2.0
            (ring,) = generate("ring-sweep", seed)
            assert len(set(ring.beta_list)) == 3
            assert all(1.85 <= float(b) <= 2.5 for b in ring.beta_list)
            (star,) = generate("star-sweep", seed)
            temps = [float(t) for t in star.t_list]
            assert len(temps) == 30 and temps == sorted(set(temps))
            assert 0.5 <= temps[0] and temps[-1] <= 4.0

    def test_workload_sizes(self):
        assert [c.expected_rows() for c in generate("ring-thresholds", 1)] == [2, 2]
        assert [c.expected_rows() for c in generate("ring-sweep", 1)] == [300]
        assert [c.expected_rows() for c in generate("star-sweep", 1)] == [180]


class TestReferenceCheck:
    @pytest.mark.parametrize("call", SMALL_CALLS, ids=lambda c: c.out)
    def test_accepts_the_program_output(self, call, tmp_path):
        code, text = run_call(call, tmp_path)
        verdict = Reference(call).check(code, text)
        assert (verdict.failed, verdict.problems) == (0, [])
        assert verdict.attempted == call.expected_rows()

    def test_accepts_a_workload_call(self, tmp_path):
        spin_ring = generate("ring-thresholds", 3)[1]
        code, text = run_call(spin_ring, tmp_path)
        assert Reference(spin_ring).check(code, text).failed == 0

    @pytest.mark.parametrize("call", SMALL_CALLS[:2], ids=lambda c: c.out)
    def test_rejects_a_perturbed_negativity(self, call, tmp_path):
        code, text = run_call(call, tmp_path)
        original = float(text.splitlines()[1].split(",")[10])
        bad = replace_cell(text, 1, "E_N", repr(original + 1e-6))
        assert Reference(call).check(code, bad).failed == 1

    @pytest.mark.parametrize("call", SMALL_CALLS[:2], ids=lambda c: c.out)
    def test_rejects_a_flipped_ppt_flag(self, call, tmp_path):
        code, text = run_call(call, tmp_path)
        flag = text.splitlines()[1].split(",")[12]
        bad = replace_cell(text, 1, "is_ppt", "0" if flag == "1" else "1")
        assert Reference(call).check(code, bad).failed == 1

    def test_rejects_a_bracket_past_the_threshold(self, tmp_path):
        call = SMALL_CALLS[2]
        code, text = run_call(call, tmp_path)
        cells = text.splitlines()[1].split(",")
        lo, hi = float(cells[7]) + 0.1, float(cells[8]) + 0.1
        bad = replace_cell(text, 1, "bracket_lo", repr(lo))
        bad = replace_cell(bad, 1, "bracket_hi", repr(hi))
        bad = replace_cell(bad, 1, "T_th", repr(0.5 * (lo + hi)))
        assert Reference(call).check(code, bad).failed == 1

    def test_rejects_a_wide_bracket_and_a_refused_threshold(self, tmp_path):
        call = SMALL_CALLS[3]
        code, text = run_call(call, tmp_path)
        cells = text.splitlines()[1].split(",")
        wide = replace_cell(text, 1, "bracket_lo", repr(float(cells[7]) - 1e-3))
        assert Reference(call).check(code, wide).failed == 1
        refused = "\n".join(text.splitlines()[:2]) + "\n"
        assert Reference(call).check(code, refused).failed == 1

    def test_nonzero_exit_fails_every_row(self):
        call = SMALL_CALLS[0]
        verdict = Reference(call).check(3, "")
        assert verdict.failed == verdict.attempted == call.expected_rows()


class TestTrace:
    def test_self_time_subtracts_direct_children(self):
        recorded = [
            ["outer", 0.0, 10.0, -1, "r"],
            ["inner", 1.0, 4.0, 0, "r"],
            ["inner", 5.0, 6.0, 0, "r"],
            ["leaf", 1.5, 2.0, 1, "r"],
        ]
        summary = spans.summarize(recorded)
        assert summary["outer"]["self_s"] == pytest.approx(6.0)
        assert summary["inner"]["self_s"] == pytest.approx(3.5)
        assert summary["inner"]["calls"] == 2
        assert summary["inner"]["p50_ms"] == pytest.approx(2000.0)
        assert summary["inner"]["p90_ms"] == pytest.approx(2800.0)

    def test_traced_call_records_spans_and_counts(self, tmp_path, monkeypatch):
        # Let monkeypatch restore everything the tracer rebinds.
        for name, mod in list(sys.modules.items()):
            if name == "thermaneg" or name.startswith("thermaneg."):
                for key, value in list(vars(mod).items()):
                    monkeypatch.setattr(mod, key, value)
        for cls in (thermaneg.gaussian.GaussianModel, thermaneg.spin.SpinModel):
            for key in ("__init__", "negativity_pair", "thermal_rho"):
                if key in vars(cls):
                    monkeypatch.setattr(cls, key, vars(cls)[key])
        monkeypatch.setitem(spans.SPANS, "gone", ("thermaneg.spin", "no_such_function"))
        tracer = spans.Tracer(run_id="test")
        tracer.install()
        for call in SMALL_CALLS[:2]:
            assert thermaneg.cli.main(call.argv(str(tmp_path))) == 0
        summary = spans.summarize(tracer.spans)
        assert summary["cli.main"]["calls"] == 2
        assert summary["gaussian.GaussianModel.negativity_pair"]["calls"] == 16
        assert summary["spin.negativity"]["calls"] == 12
        assert summary["partitions.build"]["calls"] == 5
        assert tracer.absent == ["thermaneg.spin.no_such_function"]
        counts = tracer.counts
        assert (counts["gaussian_partition_seen"], counts["gaussian_calls"]) == (8, 16)
        assert (counts["thermal_rho_same_t"], counts["thermal_rho_calls"]) == (6, 12)
        assert counts["dim_max"] == 64
