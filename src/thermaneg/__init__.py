"""Thermal-state entanglement toolkit for harmonic and spin-1/2 models
on ring and star topologies: negativities over partition families, PPT
threshold temperatures, and bound-entanglement windows.
"""

from .analysis import (
    EPS_PPT,
    GapTable,
    NotEntangledError,
    SweepGrid,
    SweepRow,
    ThresholdError,
    ThresholdResult,
    WindowResult,
    bound_entanglement_window,
    make_engine,
    rank1_factorizability,
    sweep,
    threshold_temperature,
    type2_gap_table,
)
from .gaussian import GaussianModel
from .lattice import (
    MAX_SPIN_SITES_DEFAULT,
    ModelSpec,
    PotentialMatrix,
    SpinHamiltonian,
    build_potential,
    build_ring_potential,
    build_spin_hamiltonian,
    build_star_potential,
)
from .partitions import (
    Partition,
    alternating_blocks,
    boundary_area,
    central_vs_rest,
    even_odd,
    from_mask,
    half_half,
    single_external_vs_rest,
    transfer_sweep,
)
from .spin import SpinModel, SpinStarModel, negativity

__version__ = "0.1.0"
