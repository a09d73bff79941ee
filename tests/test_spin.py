import math
import tracemalloc

import numpy as np
import pytest
from conftest import cell
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaneg import analysis, lattice
from thermaneg.analysis import EPS_PPT
from thermaneg.lattice import ModelSpec
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
)
from oracles import (
    partial_transpose,
    spin_star_block_cells,
    spin_star_hub_negativity,
    xx_field_gibbs_states,
    xx_field_hamiltonian,
)
from test_acceptance import spin_star_hub_oracle


def spin_model(topology, n, h=0.0):
    return SpinModel(ModelSpec(kind="spin_half", topology=topology, n_sites=n, h=h))


def ring(n, h=0.0):
    return spin_model("ring_nn", n, h)


def star(n, h=0.0):
    return spin_model("star", n, h)


def sectors(n):
    """Basis indices of each magnetisation sector, 0 .. n set bits in
    turn, in ascending order."""
    return [[b for b in range(2**n) if bin(b).count("1") == k] for k in range(n + 1)]


def thermal_rho(model, temperature):
    """The model's Gibbs state as a dense 2^n x 2^n matrix: its sector
    blocks, raveled end to end by size and, within a size, in
    ``sectors`` order, scattered back."""
    blocks = model.thermal_rho((temperature,))[0]
    rho = np.zeros((2**model.n, 2**model.n))
    start = 0
    for idx in sorted(sectors(model.n), key=len):
        dim = len(idx)
        rho[np.ix_(idx, idx)] = blocks[start:start + dim * dim].reshape(dim, dim)
        start += dim * dim
    assert start == len(blocks)
    return rho


def charges(labels):
    """The charge of each basis state: the set bits outside the
    transposed (+1) sites minus those inside, site i being bit n-1-i."""
    n = len(labels)
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    return bits @ np.where(np.asarray(labels) > 0, -1, 1)


def ring_maps(n):
    """The rotations and reflections of n ring sites, as index arrays."""
    i = np.arange(n)
    return [(i + r) % n for r in range(n)] + [(c - i) % n for c in range(n)]


def swaps_the_sides(topology, labels):
    """Whether a symmetry of the graph maps the +1 sites onto the -1
    sites: on the ring one of its rotations and reflections, on the star
    none from three sites on, since every symmetry fixes the hub."""
    labels = np.asarray(labels)
    if topology == "star" and len(labels) > 2:
        return False
    return any(np.array_equal(labels[g], -labels) for g in ring_maps(len(labels)))


def state_entries(n):
    """2^n x 2^n: the index of each entry in a ``thermal_rho`` state,
    laid out as ``thermal_rho`` above reads it, -1 outside the sectors."""
    index = np.full((2**n, 2**n), -1)
    start = 0
    for idx in sorted(sectors(n), key=len):
        dim = len(idx)
        index[np.ix_(idx, idx)] = start + np.arange(dim * dim).reshape(dim, dim)
        start += dim * dim
    return index


def charge_block_spectrum(rho, labels):
    """Eigenvalues of the partial transpose of a dense state, one charge
    block at a time."""
    charge = charges(labels)
    pt = partial_transpose(rho, labels)
    return np.concatenate([
        np.linalg.eigvalsh(pt[np.ix_(idx, idx)])
        for idx in (np.flatnonzero(charge == q) for q in np.unique(charge))
    ])


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
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("topology", ["ring_nn", "star"])
    def test_matches_the_dense_oracle(self, topology, n):
        temps = (0.0, 0.5, 2.0, math.inf)
        for h in (0.0, 0.7, -1.3):
            model = spin_model(topology, n, h)
            oracle = xx_field_gibbs_states(topology, n, h, temps)
            for t, expected in zip(temps, oracle):
                assert np.max(np.abs(thermal_rho(model, t) - expected)) <= 1e-12, (h, t)

    def test_gibbs_state_basics(self):
        model = ring(4, h=0.7)
        for t in (0.0, 0.5, 2.0):
            rho = thermal_rho(model, t)
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
        lam = np.linalg.eigvalsh(xx_field_hamiltonian("ring_nn", 4, 0.0))
        degeneracy = int(np.sum(lam - lam[0] < 1e-10))
        rho = thermal_rho(ring(4), 0.0)
        nonzero = np.linalg.eigvalsh(rho)
        nonzero = nonzero[nonzero > 1e-12]
        assert len(nonzero) == degeneracy
        assert np.allclose(nonzero, 1.0 / degeneracy, atol=1e-12)

    @pytest.mark.parametrize(
        "engine, topology, mask",
        [pytest.param(spin_model, topology, mask, id=f"{topology}-{mask}") for topology, mask
         in [("ring_nn", "++---"), ("ring_nn", "+++----"), ("star", "+--"), ("star", "+----")]]
        # the collective-spin engine that make_engine builds for stars
        + [pytest.param(lambda topology, n: SpinStarModel(n), "star", mask, id=f"collective-{mask}")
           for mask in ["+--", "+----", "-+---", "++---"]],
    )
    def test_degenerate_ground_space_is_kept_whole_as_t_falls_to_zero(self, engine, topology, mask):
        # rounding splits these ground energies by ~1e-15; a Gibbs state
        # that resolves the split keeps one ground state and jumps away
        # from the T = 0 mixture (ring 0.9504 against 0.5469)
        model = engine(topology, len(mask))
        part = from_mask(mask, topology)
        at_zero = cell(model, 0.0, part)[0]
        for t in (1e-320, 1e-300, 1e-16, 1e-12, 1e-3):
            assert cell(model, t, part)[0] == pytest.approx(at_zero, abs=1e-10)

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
            ring(2).thermal_rho(-1.0)

    def test_nan_temperature_rejected(self):
        model = ring(4, h=0.3)
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            model.thermal_rho(math.nan)
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            cell(model, math.nan, even_odd(4))

    def test_infinite_temperature_is_maximally_mixed_and_ppt(self):
        model = ring(4, h=0.3)
        assert np.allclose(thermal_rho(model, math.inf), np.eye(16) / 16, atol=1e-15)
        assert cell(model, math.inf, even_odd(4))[:2] == (0.0, 0.0)

    def test_grid_builds_one_thermal_state_per_temperature(self, monkeypatch):
        model = ring(6)
        runs = []
        build = SpinModel.thermal_rho
        monkeypatch.setattr(
            SpinModel, "thermal_rho", lambda self, ts: runs.append(ts) or build(self, ts)
        )
        grid = model.negativity_grid([0.4, 1.3], [even_odd(6), half_half(6), transfer_sweep(6)[2]])
        assert grid.shape == (2, 3, 3)
        assert [t for run in runs for t in run] == [0.4, 1.3]
        # the tracer compares these with ==, so each is a tuple of floats
        assert all(type(run) is tuple and all(type(t) is float for t in run) for run in runs)


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
            cell(ring(3), 0.5, from_mask("+-"))

    @pytest.mark.parametrize("bad", [0.0, 2.0, math.nan], ids=["zero", "two", "nan"])
    def test_labels_other_than_plus_minus_one_rejected(self, bad):
        # a raw label must mean what a Partition label means, not "positive"
        with pytest.raises(ValueError, match="partition labels must be"):
            cell(ring(4), 0.5, [bad, -1, 1, -1])

    def test_labels_are_checked_once_per_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "thermaneg.spin.label_signs", lambda p: calls.append(p) or label_signs(p)
        )
        cell(ring(4), 0.5, half_half(4))
        assert len(calls) == 1


class TestNegativity:
    def test_bell_ground_state(self):
        e_n, e_l, _ = cell(ring(2), 0.0, half_half(2))
        assert e_n == pytest.approx(0.5, abs=1e-10)
        assert e_l == pytest.approx(math.log2(1.5), abs=1e-10)

    def test_log_form_consistency(self):
        e_n, e_l, _ = cell(ring(4, h=0.5), 0.6, even_odd(4))
        assert e_l == pytest.approx(math.log2(1.0 + e_n), abs=1e-12)

    def test_block_negation_symmetry(self):
        model = star(4)
        direct = cell(model, 1.0, central_vs_rest(4))
        flipped = cell(model, 1.0, from_mask("-+++", topology="star", pid="rest"))
        assert direct[0] == pytest.approx(flipped[0], abs=1e-12)

    def test_strong_field_polarizes_and_disentangles(self):
        # deep in the polarized phase the thermal state is almost the
        # product of all-down spins and carries no negativity
        e_n = cell(ring(4, h=50.0), 0.5, even_odd(4))[0]
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
        model = spin_model(topology, len(mask), h)
        swapped = "".join("+" if ch == "-" else "-" for ch in mask)
        direct = cell(model, t, from_mask("".join(mask)))[0]
        assert cell(model, t, from_mask(swapped))[0] == pytest.approx(direct, abs=1e-12)

    def test_field_free_star_hub_value(self):
        e_n = cell(star(4), 0.5, central_vs_rest(4))[0]
        assert e_n == pytest.approx(0.26216533476808, abs=1e-11)


def eigvalsh_sides(monkeypatch):
    """Record the side of every matrix that eigvalsh solves from here
    on, one entry per matrix of a stacked input."""
    sides = []
    solve = np.linalg.eigvalsh

    def record(m):
        sides.extend([m.shape[-1]] * (m.size // m.shape[-1] ** 2))
        return solve(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    return sides


class TestChargeBlocks:
    def test_partial_transpose_is_solved_per_charge_block(self, monkeypatch):
        model = star(6)
        sides = eigvalsh_sides(monkeypatch)
        cell(model, 0.5, central_vs_rest(6))
        # the charge blocks of the hub transpose hold C(6, k) states
        assert sorted(sides) == sorted([1, 6, 15, 20, 15, 6, 1])

    @pytest.mark.parametrize("topology", ["ring_nn", "star"])
    def test_partial_transpose_has_no_entry_outside_the_charge_blocks(self, topology):
        # the spectrum is taken block by block with no check, so the
        # charge blocks must read every entry of the state's sector
        # blocks, each once: then every other entry of the partial
        # transpose, a permutation of the dense state, is a zero.  Where
        # a symmetry swaps the sides, the solved blocks q >= 0 read each
        # of their entries once and the blocks -q take their spectra
        for n in range(1, 9):
            model = spin_model(topology, n, 0.7)
            size = model.thermal_rho((0.5,)).shape[1]
            entries = state_entries(n)
            parts = every_family(n, topology) if n >= 2 else [[1]]
            for p in parts:
                labels = label_signs(p)
                inside = lattice.site_mask(n, np.flatnonzero(labels > 0))
                charge = charges(labels)
                blocks = {}
                for q in np.unique(charge):
                    x, y = np.meshgrid(*[np.flatnonzero(charge == q)] * 2, indexing="ij")
                    blocks[q] = entries[(x & ~inside) | (y & inside), (y & ~inside) | (x & inside)]
                every = np.concatenate([b.ravel() for b in blocks.values()])
                assert np.array_equal(np.sort(every), np.arange(size)), (n, labels)
                pairs = swaps_the_sides(topology, labels)
                solved = np.concatenate([b.ravel() for q, b in blocks.items() if q >= 0 or not pairs])
                read = np.concatenate([idx.ravel() for idx in model._charge_blocks(labels)[0]])
                assert np.array_equal(np.sort(read), np.sort(solved)), (n, labels)

    def test_eleven_site_ring_forms_no_full_matrix(self):
        # one 2^11 x 2^11 float array alone would take 4^11 * 8 bytes
        spec = ModelSpec(kind="spin_half", topology="ring_nn", n_sites=11, h=0.7)
        tracemalloc.start()
        try:
            engine = analysis.make_engine(spec, max_spin_sites=11)
            engine.negativity_grid([1.0], [from_mask("+++++------")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4**11 * 8

    def test_threshold_builds_its_plan_once(self, monkeypatch):
        plans = []
        lookup = SpinModel._charge_blocks

        def record(self, labels):
            plans.append(lookup(self, labels))
            return plans[-1]

        monkeypatch.setattr(SpinModel, "_charge_blocks", record)
        spec = ModelSpec(kind="spin_half", topology="ring_nn", n_sites=8)
        res = analysis.threshold_temperature(spec, half_half(8), engine=SpinModel(spec))
        assert len(plans) > 20 and res.evaluations > 20
        assert all(plan is plans[0] for plan in plans)

    def test_one_eigensolve_per_block_side_and_temperature_run(self, monkeypatch):
        # the half-half charge blocks at 8 sites hold C(8, k) states:
        # five sides, and runs of 3, 3 and 2 of the 8 temperatures
        shapes = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or solve(m))
        monkeypatch.setattr(lattice, "STACK_ENTRIES", 3 * math.comb(16, 8))
        ring(8, 0.7).negativity_grid(np.linspace(0.0, 3.0, 8).tolist(), [half_half(8)])
        runs = [shapes[i:i + 5] for i in range(0, len(shapes), 5)]
        assert [len(run) for run in runs] == [5, 5, 5]
        for run, length in zip(runs, (3, 3, 2)):
            assert sorted(shape[-1] for shape in run) == [1, 8, 28, 56, 70]
            assert {shape[0] for shape in run} == {length}

    def test_plan_cache_holds_the_last_partition_only(self):
        model = ring(8)
        parts = [even_odd(8), half_half(8), from_mask("+--+-++-")]
        model.negativity_grid([0.5, 1.0], parts)
        key, (blocks, log_weights) = model._plan
        labels = label_signs(parts[-1])
        assert key == labels.tobytes()
        # the half turn i -> i + 4 swaps the sides: blocks q >= 0 alone
        # are held, and each q > 0 weighs log 2 for itself and its twin
        assert swaps_the_sides("ring_nn", labels)
        q, sides = np.unique(charges(labels), return_counts=True)
        assert sum(idx.size for idx in blocks) == np.sum(sides[q >= 0] ** 2)
        # here the block sides d_q, q >= 0, all differ, so a side names its q
        held = np.concatenate([[idx.shape[-1]] * len(idx) for idx in blocks])
        assert sorted(held) == sorted(sides[q >= 0])
        assert log_weights.tolist() == [0.0 if side == sides[q == 0][0] else math.log(2)
                                        for side in held]

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("topology", ["ring_nn", "star"])
    def test_block_route_matches_the_dense_oracle(self, topology, n):
        temps = (0.0, 0.5, 2.0)
        for h in (0.0, 0.7):
            model = spin_model(topology, n, h)
            for t, rho in zip(temps, xx_field_gibbs_states(topology, n, h, temps)):
                for p in every_family(n, topology):
                    e_n = cell(model, t, p)[0]
                    oracle = dense_oracle(rho, p)
                    assert abs(e_n - oracle) <= 1e-12, (h, t, p.id)
                    assert (e_n < EPS_PPT) == (oracle < EPS_PPT), (h, t, p.id)


def swap_symmetric_masks(n, rng, count=3):
    """Seeded random ring masks that a rotation or reflection g maps to
    their negation: along each orbit of g, of even length, the signs
    alternate from a random start, so each orbit is split in half.
    Odd rings have none, since there every such g has an odd orbit."""
    maps = ring_maps(n)
    masks = []
    while n % 2 == 0 and len(masks) < count:
        g = maps[rng.integers(len(maps))]
        labels = np.zeros(n, dtype=int)
        for start in range(n):
            orbit = [start]
            while g[orbit[-1]] != start:
                orbit.append(g[orbit[-1]])
            if len(orbit) % 2:
                break
            if not labels[start]:
                labels[orbit] = rng.choice([-1, 1]) * (-1) ** np.arange(len(orbit))
        else:
            masks.append(from_mask("".join("+" if s > 0 else "-" for s in labels)))
    return masks


def block_sides(labels):
    """The side of every charge block of the labels, one per block."""
    return sorted(np.unique(charges(labels), return_counts=True)[1].tolist())


class TestSwappedSides:
    """Charge blocks q and -q of a partition whose sides a symmetry of
    the graph swaps: one of each pair is solved."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_paired_blocks_match_the_unpaired_solve(self, n):
        temps = [0.0, 0.05, 1.0, 3.0, math.inf]
        rng = np.random.default_rng(100 + n)
        parts = swap_symmetric_masks(n, rng)
        if n % 2 == 0:
            parts.append(half_half(n))
        if n % 2 == 0 and n >= 4:
            parts.append(even_odd(n))
        if n & (n - 1) == 0:
            exp = n.bit_length() - 1
            parts += [alternating_blocks(exp, nb) for nb in range(1, exp + 1)]
        assert all(swaps_the_sides("ring_nn", label_signs(p)) for p in parts)
        parts.append(from_mask("+" + "-" * (n - 1)))
        for h in (0.0, 0.7, -1.3, 1.9):
            unpaired = ring(n, h)
            unpaired._symmetries = []
            expected = unpaired.negativity_grid(temps, parts)
            got = ring(n, h).negativity_grid(temps, parts)
            assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))), h
            assert np.array_equal(got[..., 0] < EPS_PPT, expected[..., 0] < EPS_PPT), h

    def test_eight_site_half_half_solves_each_pair_once(self, monkeypatch):
        sides = eigvalsh_sides(monkeypatch)
        ring(8, 0.7).negativity_grid([0.5], [half_half(8)])
        assert sorted(sides) == [1, 8, 28, 56, 70]

    @pytest.mark.parametrize("mask", ["+-------", "+++--+--", "++---++-"])
    def test_unswapped_sides_solve_every_block(self, monkeypatch, mask):
        # external:1, and two masks of four sites a side with no swap
        labels = label_signs(from_mask(mask))
        assert not swaps_the_sides("ring_nn", labels)
        sides = eigvalsh_sides(monkeypatch)
        ring(8, 0.7).negativity_grid([0.5], [from_mask(mask)])
        assert sorted(sides) == block_sides(labels)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_star_never_pairs(self, monkeypatch, n):
        # the star's symmetries fix the hub, so none swaps the sides,
        # whichever outer sites a partition gives the hub
        rng = np.random.default_rng(n)
        parts = every_family(n, "star") + [
            from_mask("".join(rng.permutation(list("+-" * (n // 2) + "-" * (n % 2)))), "star")
            for _ in range(4)]
        model = star(n, 0.7)
        for p in parts:
            sides = eigvalsh_sides(monkeypatch)
            model.negativity_grid([0.5], [p])
            assert sorted(sides) == block_sides(label_signs(p)), p.mask


def random_star_labels(rng, n):
    """Labels with the hub of either sign and k of the n - 1 outer sites
    labeled +1, k drawn from 0 to n - 1: one-sided labels included."""
    hub = int(rng.choice((-1, 1)))
    k = int(rng.integers(0, n))
    outer = np.full(n - 1, -1)
    outer[rng.permutation(n - 1)[:k]] = 1
    return [hub] + outer.tolist()


class TestSpinStarModel:
    """The collective-spin star route against the sector engine and the
    dense oracle."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_partitions_match_the_dense_engine(self, n):
        rng = np.random.default_rng(n)
        temps = (0.0, 0.3, 1.0, 3.0)
        for h in (0.0, 0.7, -1.3):
            engine = star(n, h=h)
            route = SpinStarModel(n, h)
            oracle = xx_field_gibbs_states("star", n, h, temps)
            for _ in range(4):
                labels = random_star_labels(rng, n)
                for t, rho in zip(temps, oracle):
                    e_n, e_l, margin = cell(route, t, labels)
                    # E_N by its definition, every negative eigenvalue of the
                    # dense state's partial transpose: the engines' cutoffs
                    # differ, absolute in the sector one, per block in the route
                    spectrum = charge_block_spectrum(rho, labels)
                    ref_n = float(-spectrum[spectrum < 0.0].sum())
                    ref_margin = ref_n if ref_n > 0.0 else -float(spectrum.min())
                    assert abs(e_n - ref_n) <= 1e-12
                    assert abs(e_l - math.log2(1.0 + ref_n)) <= 1e-12
                    assert abs(margin - ref_margin) <= 1e-12
                    verdict = cell(engine, t, labels)[0] > EPS_PPT
                    assert (e_n > EPS_PPT) == verdict, (h, labels, t)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_central_cell_matches_the_kronecker_oracle(self, n):
        temps = (0.3, 1.0, 3.0)
        route = SpinStarModel(n)
        curve = [cell(route, t, central_vs_rest(n))[0] for t in temps]
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
        for engine in (star(4), SpinStarModel(4)):
            with pytest.raises(ValueError):
                cell(engine, temperature, labels)

    def test_multiplicities_count_every_state_without_overflow(self):
        k = 2000
        spins = _multiplicities(k)
        assert sum(d * (two_j + 1) for two_j, d in spins) == 2**k
        assert [two_j for two_j, _ in spins] == list(range(k, -1, -2))
        assert all(math.isfinite(math.log(d)) for _, d in spins)

    def test_forty_site_star_without_the_dense_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sector spin engine ran")

        monkeypatch.setattr(analysis, "SpinModel", refuse)
        spec = ModelSpec(kind="spin_half", topology="star", n_sites=40)
        engine = analysis.make_engine(spec, max_spin_sites=40)
        # the hub-vs-rest closed value 1/2 at T = 0 for every even n
        assert cell(engine, 0.0, central_vs_rest(40))[0] == pytest.approx(
            0.5, abs=1e-12
        )
        assert math.isfinite(cell(engine, 0.5, central_vs_rest(40))[0])

    @pytest.mark.parametrize("t", [1.0, 2.0, 6.0])
    def test_forty_site_hub_matches_the_block_oracle(self, t):
        # each block's negative eigenvalues count against that block, not
        # against one copy of the normalised state: at T = 6 every one lies
        # above -1e-12 / Z, and hub E_N is still 2.2e-3
        e_n = cell(SpinStarModel(40), t, central_vs_rest(40))[0]
        assert e_n == pytest.approx(spin_star_hub_negativity(40, t), abs=1e-10)
        if t == 6.0:
            assert e_n == pytest.approx(2.2047e-3, abs=1e-7)

    def test_partitions_of_one_area_give_one_cell(self):
        route = SpinStarModel(6, 0.7)
        externals = [cell(route, 1.0, single_external_vs_rest(6, s)) for s in (2, 6)]
        assert externals[0] == externals[1]
        # the complement of external-2 transposes the same outer site
        assert cell(route, 1.0, from_mask("+-++++")) == externals[0]


def star_cases(n, rng):
    """Central and external-2 from 40 sites on; half-half and two
    random partitions below."""
    if n >= 40:
        return [central_vs_rest(n), single_external_vs_rest(n, 2)]
    return [half_half(n)] + [random_star_labels(rng, n) for _ in range(2)]


def eigensolve_sides(monkeypatch):
    """Record the side of every eigh and eigvalsh input from here on."""
    sides = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda m, solve=solve: sides.append(m.shape[-1]) or solve(m)
        )
    return sides


class TestStarSectors:
    """The star's sector and charge-group engine against the whole-block
    oracle, at sizes the dense route cannot reach."""

    @pytest.mark.parametrize("n", [16, 24, 40, 100])
    def test_grouped_engine_matches_the_block_oracle(self, n):
        rng = np.random.default_rng(n)
        temps = [0.0, 0.05, 1.0, 6.0, math.inf]
        for h in (0.0, 0.7, -1.3):
            route = SpinStarModel(n, h)
            for p in star_cases(n, rng):
                grid = route.negativity_grid(temps, [p])[:, 0]
                oracle = spin_star_block_cells(n, h, label_signs(p), temps)
                assert np.all(np.abs(grid - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))
                assert np.array_equal(grid[:, 0] < EPS_PPT, oracle[:, 0] < EPS_PPT), (h, p)

    @pytest.mark.parametrize(
        "partition, side",
        [(central_vs_rest(100), 2), (single_external_vs_rest(100, 2), 4)],
        ids=["central", "external"],
    )
    def test_no_eigensolve_is_larger_than_a_group(self, monkeypatch, partition, side):
        route = SpinStarModel(100, 0.7)
        sides = eigensolve_sides(monkeypatch)
        cell(route, 1.0, partition)
        assert sides and max(sides) == side

    @pytest.mark.parametrize(
        "n, value", [(100, 0.0128363370294439), (200, 0.00649020669037518)]
    )
    def test_hub_at_unit_temperature(self, n, value):
        e_n = cell(SpinStarModel(n), 1.0, central_vs_rest(n))[0]
        assert abs(e_n - value) <= 1e-12
        assert abs(spin_star_hub_negativity(n, 1.0) - value) <= 1e-9

    def test_thousand_site_hub_at_zero_temperature(self):
        assert abs(cell(SpinStarModel(1000), 0.0, central_vs_rest(1000))[0] - 0.5) <= 1e-12
