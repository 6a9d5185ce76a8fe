"""Distributional-chaos statistics on finite orbit data.

Estimate upper/lower densities and Phi profiles of orbit-pair separations,
classify pairs under metric and partition-based scrambling definitions,
build the zero-entropy marker-block system and verify its combinatorics,
and check the entropy-counting bounds behind positive-entropy chaos.
"""

from .blocks import (
    QSchedule,
    TwoRowWord,
    central_block_scheme,
    derive_params,
    encode_block,
    enumerate_family,
    fiber_pair,
    marker_row,
    pi,
    sample_point,
    trajectory_from_word,
    word_from_free_words,
)
from .classify import (
    PairVerdict,
    PartitionScheme,
    PartitionVerdict,
    Thresholds,
    all_pairs,
    classify_metric_pair,
    classify_partition_pair,
    cylinder_scheme,
    same_atom_series,
    scan_scrambled_set,
)
from .density import (
    THRESHOLD_GRID,
    DensityEstimate,
    DistanceSeries,
    PhiProfile,
    checkpoint_grid,
    pack_times,
    phi_profile,
    unpack_times,
)
from .entropy import (
    BallBound,
    EntropyReport,
    PipkaParams,
    binary_entropy,
    block_count_entropy,
    count_eta_ball,
    empirical_cylinder_entropy,
    eta_ball_bound,
    solve_pipka,
)
from .systems import (
    FullShift,
    IntervalMap,
    OdometerSpec,
    OrbitPair,
    Trajectory,
    ZeroEntropy,
    construct_witness_pair,
    distance_series,
    make_pair,
    sample_orbit,
    symbol_dtype,
    witness_runs,
)

__version__ = "0.1.0"
