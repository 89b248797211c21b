"""Change-based descriptors and sequence matching for visual place recognition.

The library turns streams of precomputed global image descriptors (a T x D
matrix per traverse) into delta descriptors that measure change over a
sequential window, matches repeated traverses with cosine distances and
optional diagonal sequence aggregation, and scores the result against ground
truth with precision-recall curves.
"""

from .calibration import SelfDistanceProfile, estimate_span, self_distance_profile
from .cli import RunConfig, run_pipeline
from .evaluation import (
    PrCurve,
    correct_matches,
    evaluate_pr,
    max_f1,
    median_pair_products,
    precision_at_full_recall,
    rank_dimensions,
)
from .io import (
    DataError,
    load_pca_model,
    read_descriptors,
    read_distance_matrix,
    read_ground_truth,
    read_matches_csv,
    read_positions,
    save_pca_model,
    write_descriptors,
    write_dimension_ranking_csv,
    write_distance_matrix,
    write_ground_truth,
    write_matches_csv,
    write_pr_csv,
    write_profile_csv,
    write_summary_json,
)
from .matching import (
    DistanceMatrix,
    MatchSet,
    cosine_distance,
    distance_matrix,
    multi_delta_distance,
    retrieve_best,
    seq_match,
)
from .reduction import PcaModel, pca_fit, pca_transform
from .series import DescriptorSeries, GroundTruth, apply_permutation
from .synth import SynthParams, generate_traverse_pair, time_warp
from .transform import (
    EDGE_REPLICATE,
    VALID_ONLY,
    DeltaConfig,
    delta,
    delta_bank,
    smooth,
)

__version__ = "0.1.0"
