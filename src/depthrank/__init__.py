"""depthrank: listwise learning-to-rank losses, ranking metrics, and a
deterministic benchmark harness for ordinal (depth-style) supervision."""

from .core import (
    OrdinalPair,
    Permutation,
    RankedSample,
    as_score_vector,
    pairs_from_permutation,
    permutation_from_scores,
)
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    normalize_relevance,
    read_dataset,
    sample_points,
    write_dataset,
)
from .errors import (
    DatasetFormatError,
    DatasetVersionError,
    DepthRankError,
    InvalidInputError,
    TrainingDivergedError,
)
from .losses import (
    LossResult,
    WeightConfig,
    listmle_loss,
    listnet_loss,
    pairwise_loss,
    plackett_luce_log_prob,
    suffix_logsumexp,
    top_one_probabilities,
    weighted_listmle_loss,
)
from .metrics import (
    MetricReport,
    average_precision,
    evaluate,
    mean_average_precision,
    ndcg,
    whdr,
)
from .rng import SplitMix64
from .trainer import (
    LinearScorer,
    MlpScorer,
    TrainConfig,
    TrainTrace,
    backprop,
    gradient_check,
    init_params,
    read_params,
    score,
    sgd_step,
    train,
    write_params,
)

__version__ = "0.1.0"
