"""Mixture-of-experts layers with threshold-gated variable-k routing,
an orthogonality-plus-norm auxiliary loss, and an adaptive process that
grows and prunes the expert set during training."""

from .adaptive import AdaptConfig, AdaptReport, RoutingRecord, adapt, record
from .losses import AuxLossReport, diversity_simplicity_loss
from .moe_layer import (
    ExpertMlp,
    MoeLayer,
    moe_backward,
    moe_forward,
)
from .numerics import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    NonFiniteError,
    Param,
    cosine_scores_batch,
    finite_diff_grad,
    sigmoid,
)
from .router import (
    GatingDecision,
    RouterParams,
    TopKDecision,
    TopKRouter,
    route_eval,
    route_top_any,
    route_top_any_backward,
    route_top_k_backward,
    route_top_k_baseline,
)

__all__ = [
    "AdaptConfig",
    "AdaptReport",
    "AuxLossReport",
    "ConfigurationError",
    "DegenerateInputError",
    "DimensionError",
    "DivergenceError",
    "ExpertMlp",
    "GatingDecision",
    "MoeLayer",
    "NonFiniteError",
    "Param",
    "RouterParams",
    "RoutingRecord",
    "TopKDecision",
    "TopKRouter",
    "adapt",
    "cosine_scores_batch",
    "diversity_simplicity_loss",
    "finite_diff_grad",
    "moe_backward",
    "moe_forward",
    "record",
    "route_eval",
    "route_top_any",
    "route_top_any_backward",
    "route_top_k_backward",
    "route_top_k_baseline",
    "sigmoid",
]

__version__ = "0.1.0"
