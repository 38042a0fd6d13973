"""depthrank: listwise learning-to-rank losses, ranking metrics, and a
deterministic benchmark harness for ordinal (depth-style) supervision.

The package namespace holds only the names that the acceptance suite and
``scripts/run_desk_benchmark.py`` import; import the rest from its module.
"""

__version__ = "0.1.0"

from .core import Permutation, pairs_from_permutation, permutation_from_scores
from .data import SyntheticSpec, generate_synthetic, write_dataset
from .losses import listmle_loss, plackett_luce_log_prob, weighted_listmle_loss
from .metrics import mean_average_precision, ndcg, whdr
from .rng import SplitMix64
from .trainer import TrainConfig, train
