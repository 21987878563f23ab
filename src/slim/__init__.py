"""Structural landmarking and interaction modelling for graph classification."""

from .autodiff import GradCheckReport, NumericError, Tensor, grad_check
from .coherence import (
    BoundParams,
    GaussianMixture,
    distortion,
    empirical_coherence_sweep,
    mutual_coherence,
    recovery_support_bound,
    theorem_lower_bound,
    unit_ball_volume,
)
from .datasets import (
    DatasetBundle,
    DatasetError,
    FoldPlan,
    Graph,
    ParseError,
    load_tu_dataset,
    make_folds,
    one_hot_features,
    save_tu_dataset,
)
from .embedding import cooccurrence_loss, encode, encode_values
from .landmarks import assign, cluster_loss, init_landmarks, target_distribution
from .model import ModelState, joint_loss, load_model, save_model
from .substructure import SubstructureConfig, Variant, build_substructures
from .training import CVResult, TrainConfig, cross_validate, sweep_k, train

__version__ = "0.1.0"
