import math

import numpy as np
import pytest

from thermaneg.partitions import (
    Partition,
    alternating_blocks,
    boundary_area,
    central_vs_rest,
    even_odd,
    from_mask,
    half_half,
    label_signs,
    single_external_vs_rest,
    transfer_sweep,
)


class TestPartitionType:
    def test_needs_both_signs(self):
        with pytest.raises(ValueError):
            Partition(labels=(1, 1, 1), area=0, id="all-up")

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Partition(labels=(1, 0, -1), area=1, id="bad")
        with pytest.raises(ValueError):
            Partition(labels=(), area=0, id="empty")

    def test_label_signs_of_partitions_and_raw_sequences(self):
        p = Partition(labels=(1, -1, -1), area=2, id="x")
        assert label_signs(p).tolist() == [1.0, -1.0, -1.0]
        assert label_signs([1.0, -1, 1]).dtype == np.float64
        for bad in ([1, 0, -1], [1, 2], [1, math.nan], 1, [[1, -1]]):
            with pytest.raises(ValueError, match="partition labels must be \\+1 or -1"):
                label_signs(bad)

    def test_mask_serialization(self):
        p = Partition(labels=(1, -1, -1, 1), area=2, id="x")
        assert p.mask == "+--+"
        assert p.n == 4


class TestBoundaryArea:
    def test_ring_counts_cyclic_sign_changes(self):
        assert boundary_area([1, 1, 1, -1, -1, -1], "ring_nn", 6) == 2
        assert boundary_area([1, -1, 1, -1], "ring_nn", 4) == 4
        assert boundary_area([1, -1], "ring_nn", 2) == 2

    def test_star_counts_sites_opposite_the_hub(self):
        assert boundary_area([1, -1, -1, -1, -1], "star", 5) == 4
        assert boundary_area([-1, -1, 1, -1, -1], "star", 5) == 1
        assert boundary_area([1, 1, 1, -1, -1, -1], "star", 6) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            boundary_area([1, -1], "ring_nn", 3)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            boundary_area([1, -1], "tree", 2)


class TestFromMask:
    def test_round_trip(self):
        p = from_mask("+-+-")
        assert p.labels == (1, -1, 1, -1)
        assert p.id == "mask-+-+-"
        assert p.area == 4

    def test_custom_id_and_topology(self):
        p = from_mask("+---", topology="star", pid="hub")
        assert p.id == "hub" and p.area == 3

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            from_mask("+0-")


class TestNegated:
    def test_flips_labels_keeps_area_and_id(self):
        p = half_half(8)
        q = from_mask(p.mask.translate(str.maketrans("+-", "-+")), pid=p.id)
        assert q.labels == tuple(-s for s in p.labels)
        assert q.area == p.area and q.id == p.id


class TestFamilies:
    def test_even_odd(self):
        p = even_odd(8)
        assert p.mask == "+-+-+-+-"
        assert p.area == 8 and p.id == "even-odd"

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_even_odd_needs_even_n_of_at_least_four(self, n):
        with pytest.raises(ValueError):
            even_odd(n)

    def test_half_half_on_the_ring(self):
        p = half_half(8)
        assert p.mask == "++++----"
        assert p.area == 2

    def test_half_half_two_sites(self):
        p = half_half(2)
        assert p.mask == "+-" and p.area == 2

    def test_half_half_on_the_star_cuts_half_the_spokes(self):
        p = half_half(8, topology="star")
        assert p.mask == "++++----"
        assert p.area == 4

    def test_half_half_rejects_odd_n(self):
        with pytest.raises(ValueError):
            half_half(7)

    def test_blocks_interpolate_between_half_half_and_even_odd(self):
        assert alternating_blocks(3, 1).labels == half_half(8).labels
        assert alternating_blocks(3, 3).labels == even_odd(8).labels

    def test_block_areas_double_with_the_exponent(self):
        for nb in range(1, 6):
            assert alternating_blocks(5, nb).area == 2**nb
            assert alternating_blocks(5, nb).id == f"blocks-2^{nb}"

    @pytest.mark.parametrize("nb", [0, 4, -1])
    def test_block_exponent_bounds(self, nb):
        with pytest.raises(ValueError):
            alternating_blocks(3, nb)

    def test_transfer_sweep_areas_step_down_by_two(self):
        fam = transfer_sweep(10)
        assert [p.id for p in fam] == [f"transfer-{k}" for k in range(5)]
        assert [p.area for p in fam] == [10, 8, 6, 4, 2]
        assert fam[0].labels == even_odd(10).labels
        assert fam[-1].mask == "+++++++++-"

    def test_transfer_sweep_moves_even_sites_in_order(self):
        fam = transfer_sweep(6)
        assert [p.mask for p in fam] == ["+-+-+-", "+++-+-", "+++++-"]

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_transfer_sweep_input_bounds(self, n):
        with pytest.raises(ValueError):
            transfer_sweep(n)

    def test_central_vs_rest(self):
        p = central_vs_rest(6)
        assert p.mask == "+-----"
        assert p.area == 5 and p.id == "central"
        assert central_vs_rest(2).area == 1

    def test_single_external_site(self):
        p = single_external_vs_rest(4, 2)
        assert p.mask == "-+--"
        assert p.area == 1 and p.id == "external-2"

    def test_single_external_rejects_the_hub_and_out_of_range_sites(self):
        with pytest.raises(ValueError):
            single_external_vs_rest(4, 1)
        with pytest.raises(ValueError):
            single_external_vs_rest(4, 5)
        with pytest.raises(ValueError):
            single_external_vs_rest(4, 0)

    def test_single_external_site_one_is_the_hub_on_the_star_only(self):
        with pytest.raises(ValueError, match="hub"):
            single_external_vs_rest(4, 1, "star")
        p = single_external_vs_rest(4, 1, "ring_nn")
        assert p.mask == "+---"
        assert p.area == 2 and p.id == "external-1"
        for site in (0, 5):
            with pytest.raises(ValueError):
                single_external_vs_rest(4, site, "ring_nn")
