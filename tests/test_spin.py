import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaneg import analysis
from thermaneg.analysis import EPS_PPT, sweep
from thermaneg.lattice import ModelSpec, SpinHamiltonian, build_spin_hamiltonian
from thermaneg.partitions import (
    alternating_blocks,
    central_vs_rest,
    even_odd,
    from_mask,
    half_half,
    label_signs,
    single_external_vs_rest,
    transfer_sweep,
)
from thermaneg.spin import (
    NEGATIVE_EIGENVALUE_CUTOFF,
    SpinModel,
    SpinStarModel,
    _multiplicities,
    _pt_spectrum,
    negativity,
)
from oracles import partial_transpose, spin_star_hub_negativity
from test_acceptance import spin_star_hub_oracle


def ring(n, h=0.0):
    return build_spin_hamiltonian(ModelSpec(kind="spin_half", topology="ring_nn", n_sites=n, h=h))


def star(n, h=0.0):
    return build_spin_hamiltonian(ModelSpec(kind="spin_half", topology="star", n_sites=n, h=h))


def thermal_rho(hamiltonian, temperature):
    return SpinModel(hamiltonian).thermal_rho(temperature)


def dense_oracle(rho, partition):
    """E_N from one dense eigensolve of the whole partial transpose."""
    spectrum = np.linalg.eigvalsh(partial_transpose(rho, partition))
    negative = spectrum[spectrum < NEGATIVE_EIGENVALUE_CUTOFF]
    return float(-negative.sum()) if negative.size else 0.0


def every_family(n, topology):
    """Every member of every partition family defined at n sites.  From
    nine sites on, the per-site families keep their last member only,
    to hold the dense oracle's cost down."""
    parts = [central_vs_rest(n, topology)]
    externals = [single_external_vs_rest(n, s, topology) for s in range(2, n + 1)]
    parts += externals[-1:] if n >= 9 else externals
    if n % 2 == 0:
        parts.append(half_half(n, topology))
    if n % 2 == 0 and n >= 4:
        parts.append(even_odd(n, topology))
        transfers = transfer_sweep(n, topology)
        parts += transfers[-1:] if n >= 9 else transfers
    if n & (n - 1) == 0:
        exp = n.bit_length() - 1
        parts += [alternating_blocks(exp, nb, topology) for nb in range(1, exp + 1)]
    unique = {p.mask: p for p in parts}
    return list(unique.values())


class TestThermalState:
    def test_hamiltonian_coupling_two_sectors_is_refused(self):
        # a transverse sigma_x on site 2 couples |00> to |01>: the total
        # magnetisation is not conserved
        entries = np.diag([1.0, 0.0, 0.0, -1.0])
        entries[0, 1] = entries[1, 0] = 0.3
        with pytest.raises(ValueError, match="magnetisation"):
            SpinModel(SpinHamiltonian(n=2, entries=entries))

    def test_entries_between_sectors_are_exactly_zero(self):
        model = SpinModel(star(5, h=0.7))
        bits = np.array([bin(b).count("1") for b in range(32)])
        for t in (0.0, 0.5):
            rho = model.thermal_rho(t)
            assert not rho[bits[:, None] != bits[None, :]].any()

    def test_gibbs_state_basics(self):
        model = SpinModel(ring(4, h=0.7))
        for t in (0.0, 0.5, 2.0):
            rho = model.thermal_rho(t)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(rho, rho.T)
            assert np.linalg.eigvalsh(rho)[0] > -1e-13

    def test_high_temperature_limit_is_maximally_mixed(self):
        rho = thermal_rho(ring(3, h=1.1), 1e6)
        assert np.allclose(rho, np.eye(8) / 8, atol=1e-5)

    def test_two_site_ground_state_is_the_singlet_triplet_mixture(self):
        # the exchange ground state of two sites is (|01> + |10>)/sqrt(2)
        rho = thermal_rho(ring(2), 0.0)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        assert np.allclose(rho, expected, atol=1e-12)

    def test_degenerate_ground_space_is_mixed_uniformly(self):
        ham = ring(4)
        lam = np.linalg.eigvalsh(ham.entries)
        degeneracy = int(np.sum(lam - lam[0] < 1e-10))
        rho = thermal_rho(ham, 0.0)
        nonzero = np.linalg.eigvalsh(rho)
        nonzero = nonzero[nonzero > 1e-12]
        assert len(nonzero) == degeneracy
        assert np.allclose(nonzero, 1.0 / degeneracy, atol=1e-12)

    @pytest.mark.parametrize(
        "topology, mask", [("ring_nn", "++---"), ("ring_nn", "+++----"), ("star", "+--"),
                           ("star", "+----")],
    )
    def test_degenerate_ground_space_is_kept_whole_as_t_falls_to_zero(self, topology, mask):
        # rounding splits these ground energies by ~1e-15; a Gibbs state
        # that resolves the split keeps one ground state and jumps away
        # from the T = 0 mixture (ring 0.9504 against 0.5469)
        ham = build_spin_hamiltonian(
            ModelSpec(kind="spin_half", topology=topology, n_sites=len(mask))
        )
        model = SpinModel(ham)
        part = from_mask(mask, topology)
        at_zero = model.negativity_pair(0.0, part)[0]
        for t in (1e-320, 1e-300, 1e-16, 1e-12, 1e-3):
            assert model.negativity_pair(t, part)[0] == pytest.approx(at_zero, abs=1e-10)

    def test_boltzmann_ratios(self):
        # two-site populations must follow exp(-(E - E0)/T)
        t = 1.3
        rho = thermal_rho(ring(2), t)
        lam = np.array([-2.0, 0.0, 0.0, 2.0])
        w = np.exp(-(lam - lam[0]) / t)
        w /= w.sum()
        got = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(got, np.sort(w), atol=1e-12)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            thermal_rho(ring(2), -1.0)

    def test_nan_temperature_rejected(self):
        model = SpinModel(ring(4, h=0.3))
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            model.thermal_rho(math.nan)
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            model.negativity_pair(math.nan, even_odd(4))
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            model.ppt_margin(math.nan, even_odd(4))

    def test_infinite_temperature_is_maximally_mixed_and_ppt(self):
        model = SpinModel(ring(4, h=0.3))
        assert np.allclose(model.thermal_rho(math.inf), np.eye(16) / 16, atol=1e-15)
        assert model.negativity_pair(math.inf, even_odd(4)) == (0.0, 0.0)
        assert model.ppt_margin(math.inf, even_odd(4))[0] == 0.0

    def test_repeated_temperature_reuses_the_cached_matrix(self):
        model = SpinModel(ring(3))
        assert model.thermal_rho(0.8) is model.thermal_rho(0.8)


class TestPartialTranspose:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        labels=st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_is_an_involution_on_random_symmetric_matrices(self, labels, seed):
        dim = 2 ** len(labels)
        m = np.random.default_rng(seed).standard_normal((dim, dim))
        rho = m + m.T
        assert np.array_equal(partial_transpose(partial_transpose(rho, labels), labels), rho)

    def test_is_an_involution(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        rho = m + m.T
        p = from_mask("+-+")
        assert np.array_equal(partial_transpose(partial_transpose(rho, p), p), rho)

    def test_preserves_trace_and_symmetry(self):
        rho = thermal_rho(ring(3, h=0.4), 0.7)
        pt = partial_transpose(rho, from_mask("-++"))
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pt, pt.T, atol=1e-14)

    def test_product_state_transposes_blockwise(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 2))
        a = a + a.T
        b = rng.standard_normal((4, 4))
        b = b + b.T
        rho = np.kron(a, b)
        # transposing the first site of a product acts on that factor alone
        assert np.allclose(partial_transpose(rho, from_mask("+--")), np.kron(a.T, b))
        # transposing the complementary block acts on the other factor
        assert np.allclose(partial_transpose(rho, from_mask("-++")), np.kron(a, b.T))

    def test_prefix_block_against_a_reshape_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((16, 16))
        rho = m + m.T
        # transpose of the first two of four sites, written directly as
        # an axis swap on the (4, 4, 4, 4) two-block reshape
        oracle = rho.reshape(4, 4, 4, 4).transpose(2, 1, 0, 3).reshape(16, 16)
        assert np.allclose(partial_transpose(rho, from_mask("++--")), oracle)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            negativity(np.eye(8), from_mask("+-"))

    @pytest.mark.parametrize("bad", [0.0, 2.0, math.nan], ids=["zero", "two", "nan"])
    def test_labels_other_than_plus_minus_one_rejected(self, bad):
        # a raw label must mean what a Partition label means, not "positive"
        model = SpinModel(ring(4))
        labels = [bad, -1, 1, -1]
        for call in (
            lambda: negativity(model.thermal_rho(0.5), labels),
            lambda: model.negativity_pair(0.5, labels),
            lambda: model.ppt_margin(0.5, labels),
        ):
            with pytest.raises(ValueError, match="partition labels must be"):
                call()


    def test_labels_are_checked_once_per_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "thermaneg.spin.label_signs", lambda p: calls.append(p) or label_signs(p)
        )
        model = SpinModel(ring(4))
        for cell in (model.negativity_pair, model.ppt_margin):
            calls.clear()
            cell(0.5, half_half(4))
            assert len(calls) == 1


class TestNegativity:
    def test_bell_ground_state(self):
        rho = thermal_rho(ring(2), 0.0)
        e_n, e_l = negativity(rho, half_half(2))
        assert e_n == pytest.approx(0.5, abs=1e-10)
        assert e_l == pytest.approx(math.log2(1.5), abs=1e-10)

    def test_separable_diagonal_state(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1])
        e_n, e_l = negativity(rho, half_half(2))
        assert e_n == 0.0 and e_l == 0.0

    def test_log_form_consistency(self):
        rho = thermal_rho(ring(4, h=0.5), 0.6)
        e_n, e_l = negativity(rho, even_odd(4))
        assert e_l == pytest.approx(math.log2(1.0 + e_n), abs=1e-12)

    def test_block_negation_symmetry(self):
        rho = thermal_rho(star(4), 1.0)
        direct = negativity(rho, central_vs_rest(4))
        flipped = negativity(rho, from_mask("-+++", topology="star", pid="rest"))
        assert direct[0] == pytest.approx(flipped[0], abs=1e-12)

    def test_model_pair_matches_free_functions(self):
        model = SpinModel(ring(5, h=1.1))
        p = from_mask("+-+--")
        for t in (0.0, 0.9, 3.0):
            pair = model.negativity_pair(t, p)
            assert pair == negativity(model.thermal_rho(t), p)

    def test_strong_field_polarizes_and_disentangles(self):
        # deep in the polarized phase the thermal state is almost the
        # product of all-down spins and carries no negativity
        model = SpinModel(ring(4, h=50.0))
        e_n, _ = model.negativity_pair(0.5, even_odd(4))
        assert e_n == pytest.approx(0.0, abs=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        topology=st.sampled_from(("ring_nn", "star")),
        mask=st.lists(st.sampled_from("+-"), min_size=2, max_size=6).filter(
            lambda m: len(set(m)) == 2
        ),
        h=st.floats(-2.0, 2.0),
        t=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
    )
    def test_swapping_the_blocks_keeps_the_negativity(self, topology, mask, h, t):
        # the transposes of the two blocks are transposes of each other,
        # so each charge block q pairs with the block -q
        n = len(mask)
        spec = ModelSpec(kind="spin_half", topology=topology, n_sites=n, h=h)
        rho = SpinModel(build_spin_hamiltonian(spec)).thermal_rho(t)
        swapped = "".join("+" if ch == "-" else "-" for ch in mask)
        direct = negativity(rho, from_mask("".join(mask)))[0]
        assert negativity(rho, from_mask(swapped))[0] == pytest.approx(direct, abs=1e-12)

    def test_field_free_star_hub_value(self):
        model = SpinModel(star(4))
        e_n, _ = model.negativity_pair(0.5, central_vs_rest(4))
        assert e_n == pytest.approx(0.26216533476808, abs=1e-11)


def eigensolve_sizes(monkeypatch):
    """Record the size of every eigvalsh call from here on."""
    sizes = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sizes.append(len(m)) or solve(m))
    return sizes


class TestChargeBlocks:
    def test_magnetisation_conserving_state_takes_the_block_route(self, monkeypatch):
        rho = SpinModel(star(6)).thermal_rho(0.5)
        sizes = eigensolve_sizes(monkeypatch)
        negativity(rho, central_vs_rest(6))
        # the charge blocks of the hub transpose hold C(6, k) states
        assert sizes == [1, 6, 15, 20, 15, 6, 1]

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("topology", ["ring_nn", "star"])
    def test_block_route_matches_the_dense_oracle(self, topology, n):
        for h in (0.0, 0.7):
            spec = ModelSpec(kind="spin_half", topology=topology, n_sites=n, h=h)
            model = SpinModel(build_spin_hamiltonian(spec))
            for t in (0.0, 0.5, 2.0):
                rho = model.thermal_rho(t)
                for p in every_family(n, topology):
                    e_n = negativity(rho, p)[0]
                    oracle = dense_oracle(rho, p)
                    assert abs(e_n - oracle) <= 1e-12, (h, t, p.id)
                    assert (e_n < EPS_PPT) == (oracle < EPS_PPT), (h, t, p.id)

    def test_state_breaking_magnetisation_takes_the_dense_route(self, monkeypatch):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((32, 32))
        rho = m @ m.T
        rho /= np.trace(rho)
        sizes = eigensolve_sizes(monkeypatch)
        for mask in ("+-+--", "+----", "--+++"):
            p = from_mask(mask)
            assert negativity(rho, p)[0] == dense_oracle(rho, p)
        assert sizes == [32] * 6

    def test_one_entry_between_sectors_takes_the_dense_route(self, monkeypatch):
        rho = SpinModel(ring(4, h=0.3)).thermal_rho(0.5).copy()
        # |0000> and |0001> differ in magnetisation
        rho[0, 1] = rho[1, 0] = 1e-300
        p = even_odd(4)
        sizes = eigensolve_sizes(monkeypatch)
        assert negativity(rho, p)[0] == dense_oracle(rho, p)
        assert sizes == [16, 16]


def random_star_labels(rng, n):
    """Labels with the hub of either sign and k of the n - 1 outer sites
    labeled +1, k drawn from 0 to n - 1: one-sided labels included."""
    hub = int(rng.choice((-1, 1)))
    k = int(rng.integers(0, n))
    outer = np.full(n - 1, -1)
    outer[rng.permutation(n - 1)[:k]] = 1
    return [hub] + outer.tolist()


class TestSpinStarModel:
    """The collective-spin star route against the dense engine."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_partitions_match_the_dense_engine(self, n):
        rng = np.random.default_rng(n)
        for h in (0.0, 0.7, -1.3):
            dense = SpinModel(star(n, h=h))
            route = SpinStarModel(n, h)
            for _ in range(4):
                labels = random_star_labels(rng, n)
                for t in (0.0, 0.3, 1.0, 3.0):
                    e_n, e_l = route.negativity_pair(t, labels)
                    # E_N by its definition, every negative eigenvalue of the
                    # dense state's partial transpose: the engines' cutoffs
                    # differ, absolute in the dense one, per block in the route
                    spectrum = _pt_spectrum(dense.thermal_rho(t), labels)
                    ref_n = float(-spectrum[spectrum < 0.0].sum())
                    ref_margin = ref_n if ref_n > 0.0 else -float(spectrum.min())
                    assert abs(e_n - ref_n) <= 1e-12
                    assert abs(e_l - math.log2(1.0 + ref_n)) <= 1e-12
                    margin = route.ppt_margin(t, labels)
                    assert np.max(np.abs(np.subtract(margin, (ref_n, ref_margin)))) <= 1e-12
                    verdict = dense.negativity_pair(t, labels)[0] > EPS_PPT
                    assert (e_n > EPS_PPT) == verdict, (h, labels, t)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_central_cell_matches_the_kronecker_oracle(self, n):
        temps = (0.3, 1.0, 3.0)
        route = SpinStarModel(n)
        curve = [route.negativity_pair(t, central_vs_rest(n))[0] for t in temps]
        assert np.max(np.abs(curve - spin_star_hub_oracle(n, temps))) <= 1e-12

    @pytest.mark.parametrize(
        "labels, temperature",
        [
            ([1, 0, -1, -1], 1.0),
            ([1, 2, -1, -1], 1.0),
            ([1, -1, -1], 1.0),
            ([1, -1, -1, -1, -1], 1.0),
            ([1, -1, -1, -1], -0.5),
            ([1, -1, -1, -1], math.nan),
        ],
    )
    def test_refusals_match_the_dense_engine(self, labels, temperature):
        for engine in (SpinModel(star(4)), SpinStarModel(4)):
            with pytest.raises(ValueError):
                engine.negativity_pair(temperature, labels)
            with pytest.raises(ValueError):
                engine.ppt_margin(temperature, labels)

    def test_sweep_records_refusals_per_cell(self):
        spec = ModelSpec(kind="spin_half", topology="star", n_sites=4)
        wrong_length = from_mask("+----", topology="star", pid="five-sites")
        not_signs = SimpleNamespace(labels=(1, 0, -1, -1), id="zero", mask="+0--", area=2)
        grid = sweep(spec, [1.0, -0.5, math.nan], [central_vs_rest(4), wrong_length, not_signs])
        errors = [row.error for row in grid.rows]
        assert errors[0] == ""
        assert all(e.startswith("ValueError: ") for e in errors[1:])

    def test_multiplicities_count_every_state_without_overflow(self):
        k = 2000
        spins = _multiplicities(k)
        assert sum(d * (two_j + 1) for two_j, d in spins) == 2**k
        assert [two_j for two_j, _ in spins] == list(range(k, -1, -2))
        assert all(math.isfinite(math.log(d)) for _, d in spins)

    def test_forty_site_star_without_the_dense_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense spin engine ran")

        monkeypatch.setattr(analysis, "SpinModel", refuse)
        monkeypatch.setattr(analysis, "build_spin_hamiltonian", refuse)
        spec = ModelSpec(kind="spin_half", topology="star", n_sites=40)
        engine = analysis.make_engine(spec, max_spin_sites=40)
        # the hub-vs-rest closed value 1/2 at T = 0 for every even n
        assert engine.negativity_pair(0.0, central_vs_rest(40))[0] == pytest.approx(
            0.5, abs=1e-12
        )
        assert math.isfinite(engine.negativity_pair(0.5, central_vs_rest(40))[0])

    @pytest.mark.parametrize("t", [1.0, 2.0, 6.0])
    def test_forty_site_hub_matches_the_block_oracle(self, t):
        # each block's negative eigenvalues count against that block, not
        # against one copy of the normalised state: at T = 6 every one lies
        # above -1e-12 / Z, and hub E_N is still 2.2e-3
        e_n = SpinStarModel(40).negativity_pair(t, central_vs_rest(40))[0]
        assert e_n == pytest.approx(spin_star_hub_negativity(40, t), abs=1e-10)
        if t == 6.0:
            assert e_n == pytest.approx(2.2047e-3, abs=1e-7)

    def test_partitions_of_one_area_give_one_cell(self):
        route = SpinStarModel(6, 0.7)
        externals = [route.negativity_pair(1.0, single_external_vs_rest(6, s)) for s in (2, 6)]
        assert externals[0] == externals[1]
        # the complement of external-2 transposes the same outer site
        assert route.negativity_pair(1.0, from_mask("+-++++")) == externals[0]
