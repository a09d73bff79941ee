import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaneg.analysis import (
    EPS_PPT,
    NotEntangledError,
    SweepGrid,
    SweepRow,
    ThresholdError,
    bound_entanglement_window,
    make_engine,
    rank1_factorizability,
    sweep,
    threshold_temperature,
    type2_gap_table,
)
from thermaneg.gaussian import GaussianModel
from thermaneg.lattice import ModelSpec
from thermaneg.partitions import central_vs_rest, even_odd, half_half
from thermaneg.spin import SpinModel, SpinStarModel

RING = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=8, c=0.4)


def assert_bracket_contract(engine, partition, res):
    """E_N(lo) > EPS_PPT >= E_N(hi), width <= tol, midpoint reported."""
    lo, hi = res.bracket
    assert lo < hi and hi - lo <= res.tolerance
    assert res.t_threshold == 0.5 * (lo + hi)
    assert engine.ppt_margin(lo, partition)[0] > EPS_PPT
    assert engine.ppt_margin(hi, partition)[0] <= EPS_PPT


def even_odd_closed_form(c: float) -> float:
    """Root of coth(s0/2T) coth(s_pi/2T) = s_pi/s0, by bisection.

    The kappa = 0 block of the even-odd ring has lambda_max = 1 there,
    for every even n; below it the product is smaller (entangled).
    """
    s0, s_pi = math.sqrt(1.0 - 2.0 * c), math.sqrt(1.0 + 2.0 * c)

    def entangled(t):
        return 1.0 / (math.tanh(s0 / (2 * t)) * math.tanh(s_pi / (2 * t))) < s_pi / s0

    lo, hi = 0.01, 20.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if entangled(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMakeEngine:
    def test_dispatch(self):
        assert isinstance(make_engine(RING), GaussianModel)
        star = ModelSpec(kind="spin_half", topology="star", n_sites=4)
        assert isinstance(make_engine(star), SpinStarModel)
        ring = ModelSpec(kind="spin_half", topology="ring_nn", n_sites=4)
        assert isinstance(make_engine(ring), SpinModel)

    def test_spin_cap_propagates(self):
        spin = ModelSpec(kind="spin_half", topology="ring_nn", n_sites=10)
        with pytest.raises(ValueError):
            make_engine(spin, max_spin_sites=8)

    def test_spin_cap_holds_on_the_star(self):
        star = ModelSpec(kind="spin_half", topology="star", n_sites=10)
        with pytest.raises(ValueError, match="exceeds the configured maximum of 8"):
            make_engine(star, max_spin_sites=8)
        assert isinstance(make_engine(star, max_spin_sites=10), SpinStarModel)


class TestSweep:
    def test_rows_follow_grid_order(self):
        grid = sweep(RING, [0.2, 0.5], [even_odd(8), half_half(8)])
        assert [(r.temperature, r.partition_id) for r in grid.rows] == [
            (0.2, "even-odd"),
            (0.2, "half-half"),
            (0.5, "even-odd"),
            (0.5, "half-half"),
        ]

    def test_row_contents(self):
        grid = sweep(RING, [0.0, 0.5], [even_odd(8)])
        first, second = grid.rows
        assert first.beta == math.inf and second.beta == 2.0
        assert first.area == 8 and first.partition_mask == "+-+-+-+-"
        assert first.e_n > 0 and not first.is_ppt
        assert first.e_l == pytest.approx(math.log2(1 + first.e_n), rel=1e-12)
        assert first.error == ""

    def test_ppt_flag_uses_the_shared_cutoff(self):
        grid = sweep(RING, [5.0], [even_odd(8)])
        row = grid.rows[0]
        assert row.is_ppt and row.e_n < EPS_PPT

    def test_failing_cell_is_recorded_not_raised(self):
        grid = sweep(RING, [0.5, -1.0], [even_odd(8)])
        good, bad = grid.rows
        assert good.error == ""
        assert "temperature" in bad.error
        assert math.isnan(bad.e_n) and not bad.is_ppt

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep(RING, [0.5, 0.5], [even_odd(8)])
        with pytest.raises(ValueError):
            sweep(RING, [0.5], [even_odd(8), even_odd(8)])

    def test_empty_schedule_gives_empty_grid(self):
        grid = sweep(RING, [], [even_odd(8)])
        assert grid.rows == ()


class TestThreshold:
    def test_ring_even_odd_threshold(self):
        res = threshold_temperature(RING, even_odd(8), tol=1e-6)
        assert res.t_threshold == pytest.approx(0.5379, abs=1e-3)
        assert res.bracket[1] - res.bracket[0] <= 1e-6
        assert res.bracket[0] <= res.t_threshold <= res.bracket[1]
        assert res.warning is None
        assert res.evaluations == 18
        assert_bracket_contract(make_engine(RING), even_odd(8), res)

    def test_half_half_dies_before_even_odd(self):
        engine = make_engine(RING)
        t_hh = threshold_temperature(RING, half_half(8), engine=engine).t_threshold
        t_eo = threshold_temperature(RING, even_odd(8), engine=engine).t_threshold
        assert t_hh == pytest.approx(0.4148, abs=1e-3)
        assert t_hh < t_eo

    def test_deterministic_repeats(self):
        a = threshold_temperature(RING, even_odd(8), tol=1e-6)
        b = threshold_temperature(RING, even_odd(8), tol=1e-6)
        assert a.t_threshold == b.t_threshold and a.bracket == b.bracket

    def test_never_entangled_has_its_own_message(self):
        flat = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=8, c=0.0)
        with pytest.raises(NotEntangledError, match="not entangled at T_lo"):
            threshold_temperature(flat, even_odd(8))
        assert issubclass(NotEntangledError, ThresholdError)

    def test_still_entangled_has_its_own_message(self):
        with pytest.raises(ThresholdError, match="still entangled at T_hi"):
            threshold_temperature(RING, even_odd(8), t_hi=0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tol=math.nan),
            dict(tol=0.0),
            dict(tol=-1e-6),
            dict(t_hi=math.inf),
            dict(t_lo=math.nan),
            dict(t_lo=2.0, t_hi=1.0),
        ],
    )
    def test_search_settings_that_break_the_bracket_refused(self, kwargs):
        with pytest.raises(ValueError, match="root search needs tol > 0"):
            threshold_temperature(RING, even_odd(8), **kwargs)

    def test_tolerance_controls_the_bracket(self):
        res = threshold_temperature(RING, even_odd(8), tol=1e-3)
        assert res.bracket[1] - res.bracket[0] <= 1e-3
        assert res.tolerance == 1e-3

    def test_default_tolerance_takes_18_evaluations(self):
        # 8 guard-scan points plus 10 secant and bisection steps in one
        # scan cell down to 1e-6
        engine = make_engine(RING)
        res = threshold_temperature(RING, even_odd(8), engine=engine)
        assert res.evaluations == 18
        assert res.tolerance == 1e-6
        assert_bracket_contract(engine, even_odd(8), res)

    @pytest.mark.parametrize("c", [0.3, 0.4, 0.45])
    def test_even_odd_threshold_matches_the_closed_form(self, c):
        # The kappa = 0 block decides the even-odd threshold, so it does
        # not depend on n.  The closed form marks lambda_max = 1; the
        # E_N = EPS_PPT root sits just below it, so distances are
        # compared rather than bracket containment.  At n = 2048 and
        # c = 0.45, E_l at T_lo passes 1024 bits and E_N is inf there.
        t_closed = even_odd_closed_form(c)
        if c == 0.4:
            assert t_closed == pytest.approx(0.5378764687, abs=1e-10)
        if c == 0.45:
            assert t_closed == pytest.approx(0.5642809532, abs=1e-10)
        found = []
        for n in (8, 16, 64, 256, 1024, 2048):
            spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=n, c=c)
            res = threshold_temperature(spec, even_odd(n), tol=1e-6)
            assert abs(res.t_threshold - t_closed) <= res.tolerance
            found.append(res.t_threshold)
        assert max(found) - min(found) <= 1e-12

    def test_tolerance_below_float_resolution_still_returns(self):
        engine = make_engine(RING)
        res = threshold_temperature(RING, even_odd(8), tol=1e-300, engine=engine)
        lo, hi = res.bracket
        assert hi == np.nextafter(lo, math.inf)
        assert engine.negativity_pair(lo, even_odd(8))[0] > EPS_PPT
        assert engine.negativity_pair(hi, even_odd(8))[0] <= EPS_PPT
        assert res.t_threshold in (lo, hi)


class StubEngine:
    """An engine given by two functions of T alone: E_N and the margin."""

    def __init__(self, e_n, margin):
        self.e_n, self.margin = e_n, margin

    def ppt_margin(self, temperature, partition):
        return self.e_n(temperature), self.margin(temperature)


def evaluation_bound(t_lo, t_hi, tol, scan_points=8):
    """Scan points plus two steps per halving of one scan cell."""
    cell = (t_hi - t_lo) / (scan_points - 1)
    return scan_points + 2 * math.ceil(math.log2(cell / tol))


class TestRootFinder:
    def test_reentrant_margin_warns_and_refines_the_largest_crossing(self):
        # entangled below 2 and again on (5, 9), crossings farther apart
        # than the scan spacing of 20/7
        def margin(t):
            return -(t - 2.0) * (t - 5.0) * (t - 9.0)

        engine = StubEngine(lambda t: max(margin(t), 0.0), margin)
        with pytest.warns(UserWarning, match="2 sign changes"):
            res = threshold_temperature(RING, even_odd(8), engine=engine)
        assert res.warning is not None and "largest-T" in res.warning
        assert abs(res.t_threshold - 9.0) <= 1e-6
        assert_bracket_contract(engine, even_odd(8), res)
        assert res.evaluations <= evaluation_bound(0.01, 20.0, 1e-6)

    @pytest.mark.parametrize(
        "margin",
        [
            lambda t: 4.5 - t,  # root misplaced inside the cell
            lambda t: -1.0,  # wrong sign wherever the verdict holds
            lambda t: 1.0,  # wrong sign wherever it fails
            lambda t: math.nan,
        ],
        ids=["misplaced", "negative", "positive", "nan"],
    )
    def test_margin_that_disagrees_with_the_verdict(self, margin):
        engine = StubEngine(lambda t: 1.0 if t < 3.3 else 0.0, margin)
        res = threshold_temperature(RING, even_odd(8), engine=engine)
        assert_bracket_contract(engine, even_odd(8), res)
        assert res.bracket[0] < 3.3 <= res.bracket[1]
        assert res.evaluations <= evaluation_bound(0.01, 20.0, 1e-6)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        root=st.floats(0.05, 19.9),
        p=st.floats(1.0, 2.0),
        q=st.floats(1.0, 2.0),
        scale_in=st.floats(-3.0, 1.0),
        scale_out=st.floats(-3.0, 1.0),
        tol_exp=st.integers(-9, -3),
    )
    def test_monotone_power_law_margins(self, root, p, q, scale_in, scale_out, tol_exp):
        # E_N sets in as (root - T)^p; on the PPT side the margin falls
        # as -(T - root)^q
        def margin(t):
            if t < root:
                return 10.0**scale_in * (root - t) ** p
            return -(10.0**scale_out) * (t - root) ** q

        tol = 10.0**tol_exp
        engine = StubEngine(lambda t: max(margin(t), 0.0), margin)
        res = threshold_temperature(RING, even_odd(8), tol=tol, engine=engine)
        assert_bracket_contract(engine, even_odd(8), res)
        assert res.evaluations <= evaluation_bound(0.01, 20.0, tol)


class TestWindow:
    def test_ring_window_between_the_two_thresholds(self):
        spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=16, c=0.4)
        res = bound_entanglement_window(spec, half_half(16), even_odd(16))
        assert res.window is not None
        lo, hi = res.window
        assert lo == pytest.approx(0.4147, abs=1e-3)
        assert hi == pytest.approx(0.5379, abs=1e-3)
        assert res.certificate_id == "half-half" and res.witness_id == "even-odd"
        assert res.midpoint_certificate_e_n < EPS_PPT
        assert res.midpoint_witness_e_n > EPS_PPT
        assert res.note == ""

    def test_reversed_roles_are_swapped_and_noted(self):
        spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=16, c=0.4)
        res = bound_entanglement_window(spec, even_odd(16), half_half(16))
        assert res.window is not None
        assert res.certificate_id == "half-half" and res.witness_id == "even-odd"
        assert "swapped" in res.note

    def test_other_threshold_failures_propagate(self):
        spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=8, c=0.4)
        with pytest.raises(ThresholdError, match="still entangled at T_hi"):
            bound_entanglement_window(spec, half_half(8), even_odd(8), t_hi=0.3)

    def test_uncoupled_model_has_no_window(self):
        spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=8, c=0.0)
        res = bound_entanglement_window(spec, half_half(8), even_odd(8))
        assert res.window is None
        assert "neither partition is entangled" in res.note

    def test_star_result_carries_the_topology_caveat(self):
        spec = ModelSpec(kind="harmonic", topology="star", n_sites=8, c=1.0)
        res = bound_entanglement_window(spec, half_half(8), central_vs_rest(8))
        assert res.window is not None
        assert "certifies this partition only" in res.note

    def test_star_window_endpoints_match_the_thresholds(self):
        spec = ModelSpec(kind="harmonic", topology="star", n_sites=8, c=1.0)
        engine = make_engine(spec)
        res = bound_entanglement_window(
            spec, half_half(8), central_vs_rest(8), engine=engine
        )
        t_hh = threshold_temperature(spec, half_half(8), engine=engine).t_threshold
        t_c = threshold_temperature(spec, central_vs_rest(8), engine=engine).t_threshold
        assert res.window[0] == pytest.approx(t_hh, abs=1e-6)
        assert res.window[1] == pytest.approx(t_c, abs=1e-6)


def synthetic_grid(e_n_table, temps, pids):
    spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=4, c=0.1)
    rows = []
    for i, t in enumerate(temps):
        for j, pid in enumerate(pids):
            e_n = e_n_table[i][j]
            rows.append(
                SweepRow(
                    temperature=t,
                    beta=1.0 / t,
                    partition_id=pid,
                    partition_mask="+---",
                    area=1,
                    e_n=e_n,
                    e_l=math.log2(1 + e_n),
                    is_ppt=e_n < EPS_PPT,
                )
            )
    return SweepGrid(spec=spec, rows=tuple(rows))


class TestFactorizability:
    def test_exact_product_grid_has_zero_residual(self):
        f = [1.0, 0.6, 0.2]
        g = [0.5, 1.5, 4.0, 8.0]
        table = [[fi * gj for gj in g] for fi in f]
        grid = synthetic_grid(table, [0.3, 0.6, 0.9], ["p1", "p2", "p3", "p4"])
        assert rank1_factorizability(grid) < 1e-12

    def test_rank_two_grid_has_large_residual(self):
        table = [[1.0, 0.0], [0.0, 1.0]]
        grid = synthetic_grid(table, [0.3, 0.6], ["p1", "p2"])
        assert rank1_factorizability(grid) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_single_row_or_column_is_trivially_rank_one(self):
        grid = synthetic_grid([[0.4, 0.2, 0.1]], [0.3], ["p1", "p2", "p3"])
        assert rank1_factorizability(grid) == 0.0
        grid = synthetic_grid([[0.4], [0.2]], [0.3, 0.6], ["p1"])
        assert rank1_factorizability(grid) == 0.0

    def test_rejects_failed_cells(self):
        grid = sweep(RING, [0.5, -1.0], [even_odd(8), half_half(8)])
        with pytest.raises(ValueError, match="failed cells"):
            rank1_factorizability(grid)

    def test_rejects_all_zero_grids(self):
        grid = synthetic_grid([[0.0, 0.0], [0.0, 0.0]], [0.3, 0.6], ["p1", "p2"])
        with pytest.raises(ValueError, match="all-zero"):
            rank1_factorizability(grid)


class TestGapTable:
    def test_ring_gap_is_nearly_size_independent(self):
        table = type2_gap_table(
            lambda n: ModelSpec(kind="harmonic", topology="ring_nn", n_sites=n, c=0.4),
            [8, 16],
            lambda n: half_half(n),
            lambda n: even_odd(n),
            tol=1e-4,
        )
        assert [r.n for r in table.rows] == [8, 16]
        for row in table.rows:
            assert row.gap == pytest.approx(row.t_witness - row.t_certificate, abs=1e-15)
            assert row.gap > 0
        assert table.max_rel_deviation < 0.01

    def test_single_size_has_zero_deviation(self):
        table = type2_gap_table(
            lambda n: ModelSpec(kind="harmonic", topology="ring_nn", n_sites=n, c=0.4),
            [8],
            lambda n: half_half(n),
            lambda n: even_odd(n),
            tol=1e-3,
        )
        assert table.max_rel_deviation == 0.0
