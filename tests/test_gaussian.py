import math
import warnings

import numpy as np
import pytest

from thermaneg.gaussian import (
    GaussianModel,
    log_negativity_spectral,
    log_negativity_symplectic_oracle,
    matrix_sqrt_pair,
    single_mode_negativity,
    star_hub_negativity_from_covariance,
    star_macroscopic_limit_trend,
    star_reduced_closed_form,
    symplectic_spectrum,
    thermal_covariance,
)
from thermaneg.analysis import EPS_PPT, threshold_temperature
from thermaneg.lattice import ModelSpec, build_ring_potential, build_star_potential
from thermaneg.partitions import (
    alternating_blocks,
    central_vs_rest,
    even_odd,
    from_mask,
    half_half,
    transfer_sweep,
)


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestMatrixSqrtPair:
    def test_square_root_squares_back(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 9):
            v = random_spd(rng, n)
            pair = matrix_sqrt_pair(v)
            assert np.allclose(pair.sqrt @ pair.sqrt, v, atol=1e-10)
            assert np.allclose(pair.inv_sqrt @ pair.sqrt, np.eye(n), atol=1e-10)

    def test_accepts_potential_wrappers(self):
        v = build_ring_potential(6, 0.3)
        pair = matrix_sqrt_pair(v)
        assert np.allclose(pair.sqrt @ pair.sqrt, v.entries, atol=1e-12)

    def test_rejects_non_positive_input(self):
        with pytest.raises(ValueError):
            matrix_sqrt_pair(np.diag([1.0, -0.5]))


class TestThermalCovariance:
    def test_ground_state_blocks_are_mutually_inverse(self):
        state = thermal_covariance(build_ring_potential(8, 0.4), 0.0)
        assert np.allclose(state.x_block @ state.p_block, np.eye(8), atol=1e-12)
        assert np.allclose(symplectic_spectrum(state), 1.0, atol=1e-10)

    def test_symplectic_spectrum_matches_the_mode_formula(self):
        v = build_ring_potential(6, 0.25)
        lam = np.linalg.eigvalsh(v.entries)
        for t in (0.3, 1.0, 4.0):
            expected = np.sort(1.0 / np.tanh(np.sqrt(lam) / (2 * t)))
            got = symplectic_spectrum(thermal_covariance(v, t))
            assert np.allclose(got, expected, atol=1e-10)

    def test_blocks_heat_up_monotonically(self):
        v = build_star_potential(5, 1.0)
        cold = thermal_covariance(v, 0.5)
        hot = thermal_covariance(v, 2.0)
        assert np.all(np.linalg.eigvalsh(hot.x_block) >= np.linalg.eigvalsh(cold.x_block))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            thermal_covariance(build_ring_potential(4, 0.2), -0.1)


class TestLogNegativity:
    def test_two_site_ground_state_formula(self):
        # E_l = (1/2) log2((1+c)/(1-c)) across one site at T = 0
        for c in (0.1, 0.25, 0.4, 0.49):
            el = log_negativity_spectral(build_ring_potential(2, c), 0.0, half_half(2))
            assert el == pytest.approx(0.5 * math.log2((1 + c) / (1 - c)), abs=1e-12)

    def test_uncoupled_sites_carry_no_negativity(self):
        v = build_ring_potential(6, 0.0)
        assert log_negativity_spectral(v, 0.0, even_odd(6)) == 0.0
        assert log_negativity_spectral(v, 1.0, half_half(6)) == 0.0

    def test_decreasing_in_temperature(self):
        v = build_ring_potential(8, 0.4)
        p = even_odd(8)
        values = [log_negativity_spectral(v, t, p) for t in (0.0, 0.2, 0.4, 0.6, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] > 0.0

    def test_vanishes_at_high_temperature(self):
        v = build_ring_potential(8, 0.4)
        assert log_negativity_spectral(v, 50.0, even_odd(8)) == 0.0

    def test_block_negation_symmetry(self):
        # swapping the two blocks leaves every negativity unchanged
        v = build_ring_potential(8, 0.35)
        p = from_mask("++-+---+")
        q = from_mask("--+-+++-")
        for t in (0.0, 0.3):
            assert log_negativity_spectral(v, t, p) == pytest.approx(
                log_negativity_spectral(v, t, q), abs=1e-12
            )

    def test_model_reuses_one_decomposition(self):
        v = build_ring_potential(6, 0.3)
        model = GaussianModel(v)
        for t in (0.0, 0.5):
            for p in (even_odd(6), half_half(6)):
                assert model.log_negativity(t, p) == pytest.approx(
                    log_negativity_spectral(v, t, p), abs=1e-13
                )

    def test_negativity_pair_consistency(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        e_n, e_l = model.negativity_pair(0.3, half_half(8))
        assert e_n == pytest.approx(2.0**e_l - 1.0, rel=1e-12)

    def test_partition_size_mismatch_rejected(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        with pytest.raises(ValueError):
            model.log_negativity(0.3, half_half(6))

    def test_nan_temperature_rejected(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            model.log_negativity(math.nan, half_half(8))

    def test_infinite_temperature_is_separable_without_warnings(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t in (math.inf, 1.0 / 1e-320, 1e308):
                assert model.negativity_pair(t, even_odd(8)) == (0.0, 0.0)


class TestSymplecticOracle:
    def test_agrees_with_the_spectral_route_on_fixed_cases(self):
        cases = [
            (build_ring_potential(8, 0.4), 0.0, even_odd(8)),
            (build_ring_potential(8, 0.4), 0.45, half_half(8)),
            (build_star_potential(6, 1.5), 0.7, central_vs_rest(6)),
        ]
        for v, t, p in cases:
            direct = log_negativity_spectral(v, t, p)
            oracle = log_negativity_symplectic_oracle(v, t, p)
            assert direct == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("n, c", [(128, 0.4), (200, 0.3), (256, 0.45)])
    def test_agrees_with_the_model_on_large_rings_around_each_threshold(self, n, c):
        spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=n, c=c)
        v = build_ring_potential(n, c)
        model = GaussianModel(v)
        transfer = transfer_sweep(n, "ring_nn")
        parts = [even_odd(n), half_half(n)] + [transfer[k] for k in (1, n // 6, n // 2 - 1)]
        if n & (n - 1) == 0:
            parts.append(alternating_blocks(n.bit_length() - 1, 3))
        for p in parts:
            t_th = threshold_temperature(
                spec, p, t_lo=0.05, t_hi=2.0, tol=1e-3, scan_points=8, engine=model
            ).t_threshold
            values = []
            for t in (0.5 * t_th, 0.97 * t_th, 1.03 * t_th):
                e_l = model.log_negativity(t, p)
                oracle = log_negativity_symplectic_oracle(v, t, p)
                assert e_l == pytest.approx(oracle, abs=1e-10)
                assert (2.0**e_l - 1.0 < EPS_PPT) == (2.0**oracle - 1.0 < EPS_PPT)
                values.append(e_l)
            assert values[1] > 0.0 and values[2] == 0.0

    def test_reports_zero_in_the_ppt_phase(self):
        v = build_ring_potential(8, 0.4)
        assert log_negativity_symplectic_oracle(v, 5.0, even_odd(8)) == 0.0


class TestStarClosedForm:
    def test_matches_the_full_covariance_route(self):
        for n in (2, 3, 5, 12, 40):
            for c in (0.5, 1.0, 2.0):
                a, b = star_reduced_closed_form(n, c)
                assert single_mode_negativity(a * b) == pytest.approx(
                    star_hub_negativity_from_covariance(n, c), abs=1e-10
                )

    def test_hub_entries_match_the_matrix_square_roots(self):
        n, c = 6, 1.0
        pair = matrix_sqrt_pair(build_star_potential(n, c))
        a, b = star_reduced_closed_form(n, c)
        assert a == pytest.approx(pair.sqrt[0, 0], abs=1e-12)
        assert b == pytest.approx(pair.inv_sqrt[0, 0], abs=1e-12)

    def test_known_value(self):
        a, b = star_reduced_closed_form(5, 1.0)
        assert single_mode_negativity(a * b) == pytest.approx(0.436870246150876, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            star_reduced_closed_form(1, 1.0)
        with pytest.raises(ValueError):
            star_reduced_closed_form(5, 0.0)


class TestSingleModeNegativity:
    def test_unit_determinant_is_separable(self):
        assert single_mode_negativity(1.0) == 0.0

    def test_roundoff_below_one_is_clamped(self):
        assert single_mode_negativity(1.0 - 1e-13) == 0.0

    def test_unphysical_determinant_rejected(self):
        with pytest.raises(ValueError):
            single_mode_negativity(0.9)

    def test_grows_with_the_determinant(self):
        values = [single_mode_negativity(d) for d in (1.0, 1.2, 1.5, 2.0)]
        assert values == sorted(values)


class TestMacroscopicTrend:
    def test_slow_quarter_power_decay(self):
        rows = star_macroscopic_limit_trend(1.0, [10**3, 10**4, 10**5, 10**6])
        e_n = [r[2] for r in rows]
        assert e_n == sorted(e_n, reverse=True)
        # E_N approaches (c/n)^(1/4); at a million sites it is still
        # a few percent, an order above the naive exponential guess
        assert e_n[-1] == pytest.approx(0.032090021755551, abs=1e-9)
        assert e_n[-1] == pytest.approx((1.0 / 10**6) ** 0.25, rel=0.02)
        deltas = [r[1] for r in rows]
        assert all(d > 1.0 for d in deltas)
        assert deltas == sorted(deltas, reverse=True)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            star_macroscopic_limit_trend(0.0, [4])
