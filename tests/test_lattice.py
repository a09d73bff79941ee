import math

import numpy as np
import pytest
from oracles import xx_field_hamiltonian

from thermaneg.lattice import (
    ModelSpec,
    PotentialMatrix,
    SpinHamiltonian,
    build_potential,
    build_ring_potential,
    build_spin_hamiltonian,
    build_star_potential,
    popcount,
    site_mask,
    topology_edges,
)


class TestModelSpec:
    def test_valid_specs_construct(self):
        ModelSpec(kind="harmonic", topology="ring_nn", n_sites=8, c=0.4)
        ModelSpec(kind="harmonic", topology="star", n_sites=4, c=2.0)
        ModelSpec(kind="spin_half", topology="ring_nn", n_sites=10, h=1.9)
        ModelSpec(kind="spin_half", topology="star", n_sites=1)
        # the largest entries, a star hub's 1 + (n-1)c and a spin
        # diagonal's n h, are finite
        ModelSpec(kind="harmonic", topology="star", n_sites=2, c=1e308)
        ModelSpec(kind="spin_half", topology="star", n_sites=1, h=1e308)
        ModelSpec(kind="spin_half", topology="ring_nn", n_sites=4, c=1e308)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="bosonic", topology="ring_nn", n_sites=4),
            dict(kind="harmonic", topology="chain", n_sites=4),
            dict(kind="harmonic", topology="ring_nn", n_sites=0),
            dict(kind="harmonic", topology="ring_nn", n_sites=4, c=0.5),
            dict(kind="harmonic", topology="ring_nn", n_sites=4, c=-0.1),
            dict(kind="harmonic", topology="star", n_sites=4, c=0.0),
            dict(kind="harmonic", topology="star", n_sites=4, c=-1.0),
            dict(kind="harmonic", topology="star", n_sites=3, c=1e308),  # hub overflows
            dict(kind="spin_half", topology="star", n_sites=4, h=1e308),  # n h overflows
            dict(kind="spin_half", topology="ring_nn", n_sites=2, h=-1e308),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "base",
        [
            dict(kind="harmonic", topology="ring_nn", n_sites=4, c=0.1),
            dict(kind="harmonic", topology="star", n_sites=4, c=1.0),
            dict(kind="spin_half", topology="ring_nn", n_sites=4),
            dict(kind="spin_half", topology="star", n_sites=4),
        ],
    )
    @pytest.mark.parametrize("coupling", ["c", "h"])
    def test_non_finite_couplings_rejected(self, base, coupling, value):
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(**{**base, coupling: value})

    @pytest.mark.parametrize("topology", ["ring_nn", "star"])
    def test_single_oscillator_rejected(self, topology):
        with pytest.raises(ValueError, match="at least 2 sites"):
            ModelSpec(kind="harmonic", topology=topology, n_sites=1, c=0.1)


class TestTopologyEdges:
    def test_ring_has_n_bonds(self):
        assert topology_edges("ring_nn", 5) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert len(topology_edges("ring_nn", 7)) == 7

    def test_two_site_ring_is_a_single_bond(self):
        assert topology_edges("ring_nn", 2) == [(0, 1)]

    def test_single_site_has_no_bonds(self):
        assert topology_edges("ring_nn", 1) == []

    def test_star_bonds_all_touch_the_hub(self):
        assert topology_edges("star", 5) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            topology_edges("lattice_2d", 4)


class TestRingPotential:
    def test_two_site_matrix(self):
        v = build_ring_potential(2, 0.4)
        assert np.array_equal(v.entries, np.array([[1.0, -0.4], [-0.4, 1.0]]))

    def test_circulant_spectrum(self):
        # eigenvalues of the n >= 3 ring are 1 - 2c cos(2 pi k / n)
        n, c = 9, 0.37
        v = build_ring_potential(n, c)
        expected = np.sort([1 - 2 * c * math.cos(2 * math.pi * k / n) for k in range(n)])
        assert np.allclose(np.linalg.eigvalsh(v.entries), expected, atol=1e-12)

    def test_uncoupled_ring_is_identity(self):
        assert np.array_equal(build_ring_potential(6, 0.0).entries, np.eye(6))

    def test_positive_definite_near_the_coupling_bound(self):
        v = build_ring_potential(12, 0.499)
        assert np.linalg.eigvalsh(v.entries)[0] > 0

    @pytest.mark.parametrize("n,c", [(1, 0.4), (4, 0.5), (4, -0.01), (4, 0.75)])
    def test_invalid_arguments_rejected(self, n, c):
        with pytest.raises(ValueError):
            build_ring_potential(n, c)

    def test_entries_are_read_only(self):
        v = build_ring_potential(4, 0.3)
        with pytest.raises(ValueError):
            v.entries[0, 0] = 2.0


class TestStarPotential:
    def test_explicit_four_site_matrix(self):
        v = build_star_potential(4, 1.0)
        expected = np.array(
            [
                [4.0, -1.0, -1.0, -1.0],
                [-1.0, 2.0, 0.0, 0.0],
                [-1.0, 0.0, 2.0, 0.0],
                [-1.0, 0.0, 0.0, 2.0],
            ]
        )
        assert np.array_equal(v.entries, expected)

    def test_positive_definite_for_large_coupling(self):
        # no upper bound on c for the star layout
        v = build_star_potential(10, 25.0)
        assert np.linalg.eigvalsh(v.entries)[0] > 0

    def test_spectrum_structure(self):
        # outer sites orthogonal to the uniform mode sit at 1 + c; the
        # remaining two eigenvalues multiply to 1 + n c
        n, c = 7, 1.3
        lam = np.linalg.eigvalsh(build_star_potential(n, c).entries)
        outer = [x for x in lam if abs(x - (1 + c)) < 1e-9]
        rest = [x for x in lam if abs(x - (1 + c)) >= 1e-9]
        assert len(outer) == n - 2 and len(rest) == 2
        assert math.prod(rest) == pytest.approx(1 + n * c, rel=1e-12)

    @pytest.mark.parametrize("n,c", [(1, 1.0), (4, 0.0), (4, -2.0)])
    def test_invalid_arguments_rejected(self, n, c):
        with pytest.raises(ValueError):
            build_star_potential(n, c)


class TestPotentialSpectrum:
    @pytest.mark.parametrize(
        "v", [build_ring_potential(9, 0.4), build_star_potential(9, 1.3)], ids=["ring", "star"]
    )
    def test_spectrum_diagonalises_the_matrix_and_is_read_only(self, v):
        lam, u = v.spectrum
        assert np.allclose(np.sort(lam), np.linalg.eigvalsh(v.entries), atol=1e-12)
        if u is None:  # the circulant ring: lam is the DFT of row 0
            assert np.array_equal(lam, np.fft.fft(v.entries[0]).real)
        else:
            assert np.allclose((u * lam) @ u.T, v.entries, atol=1e-12)
            with pytest.raises(ValueError):
                u[0, 0] = 2.0
        with pytest.raises(ValueError):
            lam[0] = 2.0

    def test_spectrum_is_computed_not_given(self):
        with pytest.raises(TypeError):
            PotentialMatrix(n=2, entries=np.eye(2), spectrum=(np.ones(2), None))
        assert "spectrum" not in repr(PotentialMatrix(n=2, entries=np.eye(2)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_entries_refused(self, n, value):
        # inf once gave the spectrum [nan, nan] and a false PPT verdict
        m = np.eye(n)
        m[0, 0] = value
        with pytest.raises(ValueError, match="non-finite entries"):
            PotentialMatrix(n=n, entries=m)


    def test_nested_list_entries_are_converted(self):
        v = PotentialMatrix(n=2, entries=[[1, 0], [0, 1]])
        assert v.entries.dtype == np.float64 and np.array_equal(v.entries, np.eye(2))
        with pytest.raises(ValueError):
            v.entries[0, 0] = 2.0
        with pytest.raises(ValueError, match="shape"):
            PotentialMatrix(n=2, entries=[1, 0])


class TestBuildPotential:
    def test_dispatches_on_topology(self):
        ring = build_potential(ModelSpec(kind="harmonic", topology="ring_nn", n_sites=6, c=0.2))
        star = build_potential(ModelSpec(kind="harmonic", topology="star", n_sites=6, c=0.2))
        assert ring.entries[2, 3] == -0.2
        assert star.entries[0, 5] == -0.2 and star.entries[2, 3] == 0.0

    def test_rejects_spin_specs(self):
        with pytest.raises(ValueError):
            build_potential(ModelSpec(kind="spin_half", topology="ring_nn", n_sites=4))


class TestSpinHamiltonian:
    def test_two_site_spectrum_without_field(self):
        ham = build_spin_hamiltonian(
            ModelSpec(kind="spin_half", topology="ring_nn", n_sites=2)
        )
        assert np.allclose(np.linalg.eigvalsh(ham.entries), [-2.0, 0.0, 0.0, 2.0])

    def test_two_site_matrix_with_field(self):
        ham = build_spin_hamiltonian(
            ModelSpec(kind="spin_half", topology="ring_nn", n_sites=2, h=1.9)
        )
        expected = np.array(
            [
                [3.8, 0.0, 0.0, 0.0],
                [0.0, 0.0, -2.0, 0.0],
                [0.0, -2.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -3.8],
            ]
        )
        assert np.allclose(ham.entries, expected)

    def test_single_site_is_field_only(self):
        ham = build_spin_hamiltonian(
            ModelSpec(kind="spin_half", topology="ring_nn", n_sites=1, h=1.9)
        )
        assert np.allclose(ham.entries, np.diag([1.9, -1.9]))

    def test_exchange_element_on_the_star(self):
        # flipping the antiparallel pair (hub, site 2) sends |011> to |101>
        ham = build_spin_hamiltonian(ModelSpec(kind="spin_half", topology="star", n_sites=3))
        assert ham.entries[0b101, 0b011] == -2.0
        assert ham.entries[0b011, 0b101] == -2.0
        # outer sites carry no bond of their own, so exchanging them
        # (|001> to |010>) is not a matrix element of the star
        assert ham.entries[0b010, 0b001] == 0.0

    def test_matrix_is_real_symmetric(self):
        ham = build_spin_hamiltonian(
            ModelSpec(kind="spin_half", topology="ring_nn", n_sites=5, h=0.7)
        )
        assert np.array_equal(ham.entries, ham.entries.T)
        assert ham.entries.dtype == np.float64

    def test_nonsymmetric_matrix_refused(self):
        # one triangle of an exchange term: read as the lower triangle it
        # would be a model without the bond (E_N = 0 instead of 0.5 at T = 0)
        entries = np.zeros((4, 4))
        entries[1, 2] = -2.0
        with pytest.raises(ValueError, match="must be exactly symmetric"):
            SpinHamiltonian(n=2, entries=entries)
        entries[2, 1] = -2.0
        SpinHamiltonian(n=2, entries=entries)

    @pytest.mark.parametrize("n", [1, 6, 7, 8])
    def test_symmetry_check_finds_any_one_asymmetric_entry(self, n):
        # the check compares row and column slabs of 64; every entry of
        # the 2^n x 2^n matrix, across slab edges too, must be seen
        dim = 2**n
        base = build_spin_hamiltonian(
            ModelSpec(kind="spin_half", topology="ring_nn", n_sites=n, h=0.7)
        ).entries
        cells = {(0, dim - 1), (dim - 1, 0), (dim - 1, dim - 2)}
        cells |= {(i, j) for i in range(0, dim, 37) for j in range(0, dim, 29) if i != j}
        for i, j in sorted(cells):
            entries = base.copy()
            entries[i, j] += 0.25
            with pytest.raises(ValueError, match="must be exactly symmetric"):
                SpinHamiltonian(n=n, entries=entries)

    def test_field_term_counts_spins(self):
        # the all-up state |000> sits at +3h, the all-down state at -3h
        ham = build_spin_hamiltonian(
            ModelSpec(kind="spin_half", topology="ring_nn", n_sites=3, h=0.5)
        )
        assert ham.entries[0, 0] == pytest.approx(1.5)
        assert ham.entries[7, 7] == pytest.approx(-1.5)

    def test_site_cap_enforced(self):
        with pytest.raises(ValueError):
            build_spin_hamiltonian(
                ModelSpec(kind="spin_half", topology="ring_nn", n_sites=9), max_sites=8
            )

    def test_rejects_harmonic_specs(self):
        with pytest.raises(ValueError):
            build_spin_hamiltonian(
                ModelSpec(kind="harmonic", topology="ring_nn", n_sites=4, c=0.1)
            )

    def test_entries_are_read_only(self):
        ham = build_spin_hamiltonian(ModelSpec(kind="spin_half", topology="ring_nn", n_sites=2))
        with pytest.raises(ValueError):
            ham.entries[0, 0] = 1.0

    def test_nested_list_entries_are_converted(self):
        ham = SpinHamiltonian(n=1, entries=[[1, 0], [0, -1]])
        assert ham.entries.dtype == np.float64
        assert np.array_equal(ham.entries, np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            ham.entries[0, 0] = 2.0
        with pytest.raises(ValueError, match="shape"):
            SpinHamiltonian(n=1, entries=[1, 0, 0, -1])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_refused(self, value):
        # placed symmetrically, so only the finiteness check can name it
        entries = np.zeros((4, 4))
        entries[1, 2] = entries[2, 1] = value
        with pytest.raises(ValueError, match="non-finite entries"):
            SpinHamiltonian(n=2, entries=entries)

    def test_site_to_bit_convention(self):
        # site 1 is the most significant bit; a set bit is a down spin
        assert site_mask(3, [0]) == 0b100 and site_mask(3, (0, 2)) == 0b101
        assert popcount(np.arange(8)).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
        assert popcount(np.arange(8) & 0b101).tolist() == [0, 1, 0, 1, 1, 2, 1, 2]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("topology", ["ring_nn", "star"])
    def test_matches_the_kronecker_oracle(self, topology, n):
        for h in (0.0, 0.7, -1.3):
            spec = ModelSpec(kind="spin_half", topology=topology, n_sites=n, h=h)
            gap = np.max(np.abs(build_spin_hamiltonian(spec).entries
                                - xx_field_hamiltonian(topology, n, h)))
            assert gap <= 1e-12, h
