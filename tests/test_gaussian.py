import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import cell
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    log_negativity_symplectic_oracle,
    single_mode_negativity,
    star_hub_negativity_from_covariance,
    star_macroscopic_limit_trend,
    star_reduced_closed_form,
    thermal_covariance,
)

from thermaneg.gaussian import GaussianModel
from thermaneg.analysis import EPS_PPT, threshold_temperature
from thermaneg.lattice import (
    ModelSpec,
    PotentialMatrix,
    build_ring_potential,
    build_star_potential,
)
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


def log_negativity_spectral(v, t, p):
    return cell(GaussianModel(v), t, p)[1]


def matrix_sqrt_pair(v):
    """V^{1/2} and V^{-1/2}: the momentum and position blocks at T = 0."""
    x, p = thermal_covariance(v, 0.0)
    return SimpleNamespace(sqrt=p, inv_sqrt=x)


def symplectic_spectrum(x, p):
    """Symplectic eigenvalues, ascending; all >= 1 for a physical state."""
    mu = np.linalg.eigvals(x @ p)
    return np.sort(np.sqrt(np.abs(mu.real)))


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


class TestThermalCovariance:
    def test_ground_state_blocks_are_mutually_inverse(self):
        x, p = thermal_covariance(build_ring_potential(8, 0.4), 0.0)
        assert np.allclose(x @ p, np.eye(8), atol=1e-12)
        assert np.allclose(symplectic_spectrum(x, p), 1.0, atol=1e-10)

    def test_symplectic_spectrum_matches_the_mode_formula(self):
        v = build_ring_potential(6, 0.25)
        lam = np.linalg.eigvalsh(v.entries)
        for t in (0.3, 1.0, 4.0):
            expected = np.sort(1.0 / np.tanh(np.sqrt(lam) / (2 * t)))
            got = symplectic_spectrum(*thermal_covariance(v, t))
            assert np.allclose(got, expected, atol=1e-10)

    def test_blocks_heat_up_monotonically(self):
        v = build_star_potential(5, 1.0)
        cold, _ = thermal_covariance(v, 0.5)
        hot, _ = thermal_covariance(v, 2.0)
        assert np.all(np.linalg.eigvalsh(hot) >= np.linalg.eigvalsh(cold))


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
                assert cell(model, t, p)[1] == pytest.approx(
                    log_negativity_spectral(v, t, p), abs=1e-13
                )

    def test_negativity_and_log_negativity_consistency(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        e_n, e_l, _ = cell(model, 0.3, half_half(8))
        assert e_n == pytest.approx(2.0**e_l - 1.0, rel=1e-12)

    def test_partition_size_mismatch_rejected(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        with pytest.raises(ValueError):
            cell(model, 0.3, half_half(6))

    @pytest.mark.parametrize("bad", [0.0, 2.0, math.nan], ids=["zero", "two", "nan"])
    def test_labels_other_than_plus_minus_one_rejected(self, bad):
        # raw labels must mean what Partition labels mean on both engines
        model = GaussianModel(build_ring_potential(8, 0.4))
        labels = [bad, -1, 1, -1, 1, -1, 1, -1]
        with pytest.raises(ValueError, match="partition labels must be"):
            cell(model, 0.5, labels)

    def test_nan_temperature_rejected(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            cell(model, math.nan, half_half(8))

    def test_infinite_temperature_is_separable_without_warnings(self):
        model = GaussianModel(build_ring_potential(8, 0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t in (math.inf, 1.0 / 1e-320, 1e308):
                assert cell(model, t, even_odd(8))[:2] == (0.0, 0.0)


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
                spec, p, t_lo=0.05, t_hi=2.0, tol=1e-3, engine=model
            ).t_threshold
            values = []
            for t in (0.5 * t_th, 0.97 * t_th, 1.03 * t_th):
                e_l = cell(model, t, p)[1]
                oracle = log_negativity_symplectic_oracle(v, t, p)
                assert e_l == pytest.approx(oracle, abs=1e-10)
                assert (2.0**e_l - 1.0 < EPS_PPT) == (2.0**oracle - 1.0 < EPS_PPT)
                values.append(e_l)
            assert values[1] > 0.0 and values[2] == 0.0

    def test_reports_zero_in_the_ppt_phase(self):
        v = build_ring_potential(8, 0.4)
        assert log_negativity_symplectic_oracle(v, 5.0, even_odd(8)) == 0.0


def dense_spectrum(v):
    """T, p -> ascending eigenvalues of the n x n A A^T, from one eigh(V)."""
    lam, u = np.linalg.eigh(v.entries)
    s = np.sqrt(lam)

    def at(t, p):
        with np.errstate(divide="ignore"):
            w = np.ones_like(s) if t == 0.0 else 1.0 / np.tanh(s / (2.0 * t))
        signs = np.asarray(p.labels, dtype=float)
        a = (u.T @ (signs[:, None] * u)) * np.sqrt(s / w)[:, None]
        a *= np.sqrt(1.0 / (w * s))[None, :]
        return np.linalg.eigvalsh(a @ a.T)

    return at


def assert_matches_dense_around_each_threshold(n, partitions):
    """E_l, margin and verdict against ``dense_spectrum`` on an n-site ring."""
    for c in (0.3, 0.4, 0.45):
        spec = ModelSpec(kind="harmonic", topology="ring_nn", n_sites=n, c=c)
        v = build_ring_potential(n, c)
        model = GaussianModel(v)
        dense = dense_spectrum(v)
        for p in partitions:
            t_th = threshold_temperature(
                spec, p, t_lo=0.05, t_hi=2.0, tol=1e-3, engine=model
            ).t_threshold
            for t in (0.0, 0.5 * t_th, 0.97 * t_th, 1.03 * t_th, math.inf):
                ev = dense(t, p)
                gains = ev[ev > 1.0 + 1e-12]
                e_l = float(np.sum(np.log2(gains)))
                e_n, model_e_l, margin = cell(model, t, p)
                assert model_e_l == pytest.approx(e_l, abs=1e-10)
                assert margin == pytest.approx(ev[-1] - 1.0, abs=1e-10)
                assert (e_n < EPS_PPT) == (2.0**e_l - 1.0 < EPS_PPT)


def bloch_partitions(n):
    """Even-odd and every alternating_blocks partition with n/L >= 4."""
    n_exp = n.bit_length() - 1
    return [even_odd(n)] + [alternating_blocks(n_exp, k) for k in range(3, n_exp)]


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Record the shape of every eigvalsh input from here on."""
    shapes = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or solve(m))
    return shapes


def reflections(signs):
    """Every c with signs[(c - i) % n] == signs[i], by brute force."""
    n = len(signs)
    return [c for c in range(n) if all(signs[(c - i) % n] == signs[i] for i in range(n))]


def has_period(signs):
    """A period L of the signs with n/L >= 4, by brute force."""
    n = len(signs)
    return any(
        n % p == 0 and all(signs[i] == signs[(i + p) % n] for i in range(n))
        for p in range(1, n // 4 + 1)
    )


# a seeded 256-site mask with neither a period nor a mirror
ASYMMETRIC_256 = from_mask("".join(np.random.default_rng(99).choice(list("+-"), 256)))


class TestBlochRoute:
    @pytest.mark.parametrize("n", [8, 16, 64, 256, 512])
    def test_agrees_with_the_dense_spectrum_around_each_threshold(self, n):
        assert_matches_dense_around_each_threshold(n, bloch_partitions(n))

    def test_even_odd_solves_only_two_by_two_blocks(self, eigvalsh_shapes):
        model = GaussianModel(build_ring_potential(256, 0.4))
        eigvalsh_shapes.clear()
        cell(model, 0.5, even_odd(256))
        assert eigvalsh_shapes and all(shape[-2:] == (2, 2) for shape in eigvalsh_shapes)

    @pytest.mark.parametrize("n", [16, 20])
    def test_solves_one_block_of_each_conjugate_pair(self, eigvalsh_shapes, n):
        # "++--" repeated: 4 cells at 16 sites, 5 at 20; block n/L - kappa
        # is the conjugate of block kappa, so kappa = 0 .. cells // 2 are solved
        v = build_ring_potential(n, 0.4)
        p = from_mask("++--" * (n // 4))
        temps = [0.0, 0.3, 1.0, math.inf]
        spectra = GaussianModel(v)._spectrum(temps, p)
        assert eigvalsh_shapes == [(len(temps), n // 4 // 2 + 1, 4, 4)]
        dense = dense_spectrum(v)
        for t, ev in zip(temps, spectra):
            expected = dense(t, p)
            assert np.all(np.abs(ev - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))), t

    @pytest.mark.parametrize(
        "v, p",
        [
            (build_ring_potential(256, 0.4), ASYMMETRIC_256),
            (build_star_potential(8, 1.0), even_odd(8, topology="star")),
        ],
        ids=["ring-no-symmetry", "star"],
    )
    def test_other_inputs_take_one_dense_solve(self, eigvalsh_shapes, v, p):
        cell(GaussianModel(v), 0.5, p)
        assert eigvalsh_shapes == [(1, v.n, v.n)]

    @pytest.mark.parametrize("t", [-0.1, math.nan])
    def test_invalid_temperature_rejected(self, t):
        model = GaussianModel(build_ring_potential(256, 0.4))
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            cell(model, t, even_odd(256))


def mirrored_masks(n, rng, count=2):
    """Seeded random masks made symmetric about an even and an odd centre."""
    masks = []
    for centre in (0, 1) * count:
        i = np.arange(n)
        while True:
            signs = rng.choice([-1, 1], n)[np.minimum(i, (centre - i) % n)]
            if len(set(signs)) == 2:
                break
        masks.append(from_mask("".join("+" if s > 0 else "-" for s in signs)))
    return masks


def mirror_partitions(n):
    """Transfer partitions (n <= 64), half-half, n/L = 2 blocks, random mirrored masks."""
    # on 2 sites only a constant mask is symmetric about centre 1
    parts = mirrored_masks(n, np.random.default_rng(n)) if n > 2 else [from_mask("-+")]
    if n % 2 == 0:
        parts.append(half_half(n))
        if 4 <= n <= 64:
            parts += transfer_sweep(n)
    if n % 4 == 0:
        parts.append(from_mask("".join("+-+-"[4 * i // n] for i in range(n))))
    return parts


class TestMirrorRoute:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 16, 64, 200, 256])
    def test_agrees_with_the_dense_spectrum_around_each_threshold(self, n):
        assert_matches_dense_around_each_threshold(n, mirror_partitions(n))

    @pytest.mark.parametrize(
        "v, p",
        [
            (build_ring_potential(256, 0.4), transfer_sweep(256)[5]),
            (build_ring_potential(256, 0.4), half_half(256)),
            (build_ring_potential(256, 0.4), alternating_blocks(8, 2)),
        ],
        ids=["transfer", "half-half", "blocks-n/L=2"],
    )
    def test_mirror_partitions_solve_two_half_blocks(self, eigvalsh_shapes, v, p):
        cell(GaussianModel(v), 0.5, p)
        assert len(eigvalsh_shapes) == 2
        assert all(shape[0] == 1 and shape[1] <= v.n // 2 + 1 for shape in eigvalsh_shapes)
        assert sum(shape[1] for shape in eigvalsh_shapes) == v.n

    def test_seeded_mask_has_neither_a_period_nor_a_mirror(self):
        assert not reflections(ASYMMETRIC_256.labels)
        assert not has_period(ASYMMETRIC_256.labels)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        signs=st.lists(st.sampled_from((-1, 1)), min_size=2, max_size=24),
        centre=st.one_of(st.none(), st.integers(0, 23)),
        shift=st.integers(0, 23),
    )
    def test_mirror_route_runs_exactly_on_reflection_symmetric_masks(self, signs, centre, shift):
        n = len(signs)
        if centre is not None:
            # make half the examples symmetric about centre, even or odd
            i = np.arange(n)
            signs = [signs[j] for j in np.minimum(i, (centre - i) % n)]
        signs = np.array(signs)
        model = GaussianModel(build_ring_potential(n, 0.4))
        shapes = []
        solve = np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or solve(m))
            e_l = cell(model, 0.3, signs)[1]
        # each solve stacks the one temperature on a leading axis
        if has_period(signs):
            assert len(shapes) == 1 and len(shapes[0]) == 4
        elif reflections(signs):
            assert len(shapes) == 2 and shapes[0][1] + shapes[1][1] == n
        else:
            assert shapes == [(1, n, n)]
        for moved in (np.roll(signs, shift % n), signs[::-1]):
            assert cell(model, 0.3, moved)[1] == pytest.approx(e_l, abs=1e-12)


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Record the shape of every eigh input from here on."""
    shapes = []
    solve = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or solve(m))
    return shapes


class TestRingBuild:
    def test_ring_runs_no_eigh(self, eigh_shapes, eigvalsh_shapes):
        n = 64
        model = GaussianModel(build_ring_potential(n, 0.4))
        assert eigvalsh_shapes == []
        rng = np.random.default_rng(5)
        asymmetric = from_mask("".join(rng.choice(list("+-"), n)))
        for p in (even_odd(n), half_half(n), transfer_sweep(n)[3], asymmetric):
            cell(model, 0.5, p)
        assert eigh_shapes == []
        assert (1, n, n) in eigvalsh_shapes

    @pytest.mark.parametrize("c", [0.5, 0.6, -0.6])
    def test_circulant_that_is_not_positive_definite_is_refused(self, c):
        # eigenvalues 1 - 2c cos(2 pi k/n): exactly 0 at k = 0 for c = 1/2,
        # and negative only at k = n/2 for c = -0.6
        n = 8
        v = np.eye(n) - c * (np.eye(n, k=1) + np.eye(n, k=-1))
        v[0, -1] = v[-1, 0] = -c
        with pytest.raises(ValueError, match="must be positive definite"):
            PotentialMatrix(n=n, entries=v)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 64])
    def test_mirror_basis_is_an_orthonormal_eigenbasis(self, n):
        v = build_ring_potential(n, 0.45)
        model = GaussianModel(v)
        for h in (0, 1):
            u, s, _ = model._mirror_basis(h)
            assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-12
            assert np.abs(v.entries @ u - u * s**2).max() <= 1e-12

    def test_bloch_only_model_never_builds_a_basis(self):
        model = GaussianModel(build_ring_potential(256, 0.4))
        for p in bloch_partitions(256):
            cell(model, 0.5, p)
        assert model._mirror == {}


class TestPotentialSpectrum:
    """V's spectrum is found and checked once, by ``PotentialMatrix``."""

    def test_star_build_runs_one_eigh(self, eigh_shapes, eigvalsh_shapes):
        n = 64
        GaussianModel(build_star_potential(n, 1.0))
        assert eigh_shapes == [(n, n)]
        assert eigvalsh_shapes == []

    @pytest.mark.parametrize(
        "v", [build_ring_potential(64, 0.4), build_star_potential(64, 1.0)], ids=["ring", "star"]
    )
    def test_model_of_a_built_potential_runs_no_solve(self, monkeypatch, v):
        calls = []
        for module, name in [
            (np.fft, "fft"), (np.fft, "rfft"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")
        ]:
            solve = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, name=name, solve=solve: calls.append(name) or solve(*a)
            )
        GaussianModel(v)
        assert calls == []

    @pytest.mark.parametrize(
        "v",
        [
            np.ones((3, 4)),
            np.ones(4),
            np.diag([1.0, -0.5]),
            np.zeros((3, 3)),
            np.array([[1.0, 0.1], [0.3, 1.0]]),
        ],
        ids=["non-square", "one-dimensional", "indefinite", "zero", "asymmetric"],
    )
    def test_invalid_bare_arrays_rejected(self, v):
        with pytest.raises(ValueError):
            PotentialMatrix(v.shape[0], v)

    def test_bare_array_is_refused(self):
        with pytest.raises(TypeError, match="expected a PotentialMatrix, got ndarray"):
            GaussianModel(np.eye(4))


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


class TestSingleModeNegativity:
    def test_unit_determinant_is_separable(self):
        assert single_mode_negativity(1.0) == 0.0

    def test_roundoff_below_one_is_clamped(self):
        assert single_mode_negativity(1.0 - 1e-13) == 0.0

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
