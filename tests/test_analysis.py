import functools
import math

import numpy as np
import pytest
from conftest import cell
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermaneg import lattice
from thermaneg.analysis import (
    EPS_PPT,
    NotEntangledError,
    SweepGrid,
    ThresholdError,
    bound_entanglement_window,
    make_engine,
    rank1_factorizability,
    sweep,
    threshold_temperature,
)
from thermaneg.gaussian import GaussianModel
from thermaneg.lattice import ModelSpec
from thermaneg.partitions import (
    central_vs_rest,
    even_odd,
    from_mask,
    half_half,
    single_external_vs_rest,
)
from thermaneg.spin import SpinModel, SpinStarModel

RING = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=8, c=0.4)


def assert_bracket_contract(engine, partition, res):
    """E_N(lo) >= EPS_PPT > E_N(hi), width <= tol, midpoint reported."""
    lo, hi = res.bracket
    assert lo < hi and hi - lo <= res.tolerance
    assert res.t_threshold == 0.5 * (lo + hi)
    assert cell(engine, lo, partition)[0] >= EPS_PPT
    assert cell(engine, hi, partition)[0] < EPS_PPT


@pytest.fixture
def grid_calls(monkeypatch):
    """Record (temperatures, partitions) of every GaussianModel grid call."""
    calls = []
    grid = GaussianModel.negativity_grid
    monkeypatch.setattr(
        GaussianModel,
        "negativity_grid",
        lambda self, ts, ps: calls.append((len(ts), len(ps))) or grid(self, ts, ps),
    )
    return calls


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
        assert grid.temperatures == (0.2, 0.5)
        assert [p.id for p in grid.partitions] == ["even-odd", "half-half"]
        assert grid.values.shape == (2, 2, 3)

    def test_row_contents(self):
        grid = sweep(RING, [0.0, 0.5], [even_odd(8)])
        (part,) = grid.partitions
        e_n, e_l, _ = grid.values[0, 0].tolist()
        assert part.area == 8 and part.mask == "+-+-+-+-"
        assert e_n > 0 and not grid.is_ppt[0, 0]
        assert e_l == pytest.approx(math.log2(1 + e_n), rel=1e-12)

    def test_ppt_flag_uses_the_shared_cutoff(self):
        grid = sweep(RING, [5.0], [even_odd(8)])
        assert grid.is_ppt[0, 0] and grid.values[0, 0, 0] < EPS_PPT

    @pytest.mark.parametrize(
        "spec",
        [
            RING,
            ModelSpec(kind="spin_half", topology="ring_nn", n_sites=4, h=0.3),
            ModelSpec(kind="spin_half", topology="star", n_sites=4, h=0.7),
        ],
        ids=["harmonic", "spin-ring", "spin-star"],
    )
    def test_refused_input_raises_before_any_row(self, spec):
        n = spec.n_sites
        good = from_mask("+" * (n // 2) + "-" * (n - n // 2), topology=spec.topology)
        wrong_size = from_mask("+" + "-" * n, topology=spec.topology)
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            sweep(spec, [0.5, -1.0], [good])
        with pytest.raises(ValueError, match="does not match"):
            sweep(spec, [0.5], [good, wrong_size])
        with pytest.raises(ValueError, match="does not match"):
            sweep(spec, [], [wrong_size])

    def test_clean_grid_takes_one_engine_call(self, grid_calls):
        assert sweep(RING, [0.2, 0.5, 0.0], [even_odd(8), half_half(8)]).values.shape == (3, 2, 3)
        assert grid_calls == [(3, 2)]

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep(RING, [0.5, 0.5], [even_odd(8)])
        with pytest.raises(ValueError):
            sweep(RING, [0.5], [even_odd(8), even_odd(8)])

    def test_empty_schedule_gives_empty_grid(self):
        grid = sweep(RING, [], [even_odd(8)])
        assert grid.values.shape == (0, 1, 3)

    def test_no_partitions_build_no_engine(self, grid_calls, monkeypatch):
        monkeypatch.setattr("thermaneg.analysis.make_engine", None)
        grid = sweep(RING, [0.2, 0.5], [])
        assert grid.values.shape == (2, 0, 3) and grid_calls == []

    def test_values_must_match_the_labels(self):
        with pytest.raises(ValueError, match="expected \\(1, 2, 3\\)"):
            SweepGrid(RING, (0.2,), (even_odd(8), half_half(8)), np.zeros((2, 1, 3)))
        with pytest.raises(ValueError, match="expected \\(1, 1, 3\\)"):
            SweepGrid(RING, (0.2,), (even_odd(8),), np.zeros((1, 1, 2)))

    def test_values_are_read_only(self):
        grid = sweep(RING, [0.2], [even_odd(8)])
        with pytest.raises(ValueError, match="read-only"):
            grid.values[0, 0, 0] = 1.0
        values = np.zeros((1, 1, 3))
        grid = SweepGrid(RING, (0.2,), (even_odd(8),), values)
        values[0, 0, 0] = 1.0  # the caller's array stays writeable
        assert grid.values[0, 0, 0] == 0.0


# one model per engine and topology
GRID_MODELS = {
    "spin-star": ModelSpec(kind="spin_half", topology="star", n_sites=7, h=0.7),
    "spin-ring": ModelSpec(kind="spin_half", topology="ring_nn", n_sites=6, h=0.3),
    "harmonic-ring": ModelSpec(kind="harmonic", topology="ring_nn", n_sites=12, c=0.4),
    "harmonic-star": ModelSpec(kind="harmonic", topology="star", n_sites=7, c=1.0),
}


@functools.lru_cache(maxsize=None)
def grid_engine(name):
    return make_engine(GRID_MODELS[name])


@st.composite
def grid_inputs(draw):
    name = draw(st.sampled_from(sorted(GRID_MODELS)))
    n = GRID_MODELS[name].n_sites
    masks = draw(
        st.lists(
            st.text("+-", min_size=n, max_size=n).filter(lambda m: "+" in m and "-" in m),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    temps = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.05, 6.0)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return name, masks, temps


class TestNegativityGrid:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(grid_inputs())
    @example(("spin-star", ["+------", "-+-----"], [0.0, 0.4, math.inf]))
    @example(("harmonic-ring", ["++--++--++--", "+-+-+-+-+-+-", "+++-+--+-++-"], [0.7]))
    def test_grid_equals_its_cells(self, inputs):
        name, masks, temps = inputs
        engine = grid_engine(name)
        parts = [from_mask(m, GRID_MODELS[name].topology) for m in masks]
        grid = engine.negativity_grid(temps, parts)
        assert grid.shape == (len(temps), len(parts), 3)
        for i, t in enumerate(temps):
            for j, p in enumerate(parts):
                assert tuple(grid[i, j].tolist()) == cell(engine, t, p)

    @pytest.mark.parametrize(
        "name, masks",
        [
            ("harmonic-ring", ["+-+-+-+-+-+-"]),  # Bloch
            ("harmonic-ring", ["++++++------"]),  # mirror
            ("harmonic-ring", ["+++-+--+-++-"]),  # dense, circulant V
            ("harmonic-star", ["+------", "++++---"]),  # dense
            ("spin-ring", ["+-+-+-", "+++---"]),
            ("spin-star", ["+------", "-+-----"]),
        ],
        ids=["bloch", "mirror", "dense-ring", "dense-star", "spin-ring", "spin-star"],
    )
    def test_empty_schedule_keeps_the_partition_axis(self, name, masks):
        parts = [from_mask(m, GRID_MODELS[name].topology) for m in masks]
        assert grid_engine(name).negativity_grid([], parts).shape == (0, len(parts), 3)

    @pytest.mark.parametrize(
        "spec, parts, entries",
        [
            # per temperature a Gibbs state of 72 sector-block entries
            # (central) and 210 (external) at 8 sites
            (ModelSpec(kind="spin_half", topology="star", n_sites=8, h=0.4),
             [central_vs_rest(8), single_external_vs_rest(8, 2)], 144),
            # per temperature a Gibbs state of C(12, 6) = 924 sector-block
            # entries at 6 sites, for every partition
            (ModelSpec(kind="spin_half", topology="ring_nn", n_sites=6, h=0.4),
             [half_half(6), even_odd(6), from_mask("++-+--")], 2 * 924),
            # per temperature a dense solve of 144 entries, mirror halves
            # of 36 and Bloch blocks of 32 floats (the 4 solved 2 x 2
            # blocks, complex): runs of 1, 1 and 2
            (ModelSpec(kind="harmonic", topology="ring_nn", n_sites=12, c=0.4),
             [from_mask("+++-+--+-++-"), half_half(12), even_odd(12)], 64),
        ],
        ids=["spin-star", "spin-ring", "harmonic-ring"],
    )
    @pytest.mark.parametrize("one", [True, False], ids=["one", "two"])
    def test_chunked_grid_equals_one_stack(self, monkeypatch, spec, parts, entries, one):
        temps = [0.0, 0.3, 0.7, 1.1, 2.0, 4.5, math.inf]
        engine = make_engine(spec)
        whole = engine.negativity_grid(temps, parts)
        stacks = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: stacks.append(len(m)) or solve(m))
        monkeypatch.setattr(lattice, "STACK_ENTRIES", 1 if one else entries)
        chunked = engine.negativity_grid(temps, parts)
        assert set(stacks) == ({1} if one else {1, 2})
        assert np.abs(chunked - whole).max() <= 1e-15


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
            dict(tol=math.inf),
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

    def test_guard_scan_is_one_engine_call(self, grid_calls):
        res = threshold_temperature(RING, even_odd(8))
        assert grid_calls[0] == (8, 1)
        assert set(grid_calls[1:]) == {(1, 1)}
        assert res.evaluations == sum(t for t, _ in grid_calls)

    def test_tolerance_below_float_resolution_still_returns(self):
        engine = make_engine(RING)
        res = threshold_temperature(RING, even_odd(8), tol=1e-300, engine=engine)
        lo, hi = res.bracket
        assert hi == np.nextafter(lo, math.inf)
        assert cell(engine, lo, even_odd(8))[0] >= EPS_PPT
        assert cell(engine, hi, even_odd(8))[0] < EPS_PPT
        assert res.t_threshold in (lo, hi)


class StubEngine:
    """An engine given by two functions of T alone: E_N and the margin."""

    def __init__(self, e_n, margin):
        self.e_n, self.margin = e_n, margin

    def negativity_grid(self, temperatures, partitions):
        # one partition; E_l is never read by the threshold search
        return np.array([[(self.e_n(t), math.nan, self.margin(t))] for t in temperatures])


def evaluation_bound(t_lo, t_hi, tol, scan_points=8):
    """Scan points plus two steps per halving of one scan cell."""
    cell = (t_hi - t_lo) / (scan_points - 1)
    return scan_points + 2 * math.ceil(math.log2(cell / tol))


class TestRootFinder:
    def test_e_n_at_the_cutoff_is_entangled_in_sweep_and_threshold(self):
        # one rule, E_N < EPS_PPT is PPT: a cell at the cutoff is
        # entangled in a sweep and at both ends of a threshold bracket
        engine = StubEngine(lambda t: EPS_PPT, lambda t: EPS_PPT)
        grid = sweep(RING, [0.01, 20.0], [even_odd(8)], engine=engine)
        assert grid.is_ppt.tolist() == [[False], [False]]
        with pytest.raises(ThresholdError, match="still entangled at T_hi") as exc:
            threshold_temperature(RING, even_odd(8), engine=engine)
        assert not isinstance(exc.value, NotEntangledError)

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
    e_n = np.array(e_n_table, dtype=float)
    values = np.stack([e_n, np.log2(1 + e_n), e_n], axis=-1)
    parts = tuple(from_mask("+---", pid=pid) for pid in pids)
    return SweepGrid(spec, tuple(temps), parts, values)


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

    def test_rejects_all_zero_grids(self):
        grid = synthetic_grid([[0.0, 0.0], [0.0, 0.0]], [0.3, 0.6], ["p1", "p2"])
        with pytest.raises(ValueError, match="all-zero"):
            rank1_factorizability(grid)

    def test_rejects_non_finite_grids(self):
        grid = synthetic_grid([[math.inf, 1.0], [0.5, 0.2]], [0.3, 0.6], ["p1", "p2"])
        with pytest.raises(ValueError, match="not finite"):
            rank1_factorizability(grid)

