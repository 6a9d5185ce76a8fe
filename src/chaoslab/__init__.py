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
    disagreement_fraction,
    encode_block,
    entry_disagreement,
    enumerate_family,
    fiber_pair,
    free_positions,
    inverse_pi,
    marker_row,
    pi,
    project_position,
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
    classify_pk_minus,
    cylinder_scheme,
    same_atom_series,
    scan_scrambled_set,
)
from .density import (
    BesicovitchBounds,
    CheckpointPolicy,
    DensityEstimate,
    DistanceSeries,
    PhiProfile,
    besicovitch_bounds,
    default_threshold_grid,
    density_along,
    empirical_density,
    phi_profile,
)
from .entropy import (
    BallBound,
    CountingExperiment,
    EntropyReport,
    PipkaParams,
    binary_entropy,
    block_count_entropy,
    count_eta_ball,
    empirical_cylinder_entropy,
    eta_ball_bound,
    run_counting_experiment,
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
    witness_runs,
)

__version__ = "0.1.0"
