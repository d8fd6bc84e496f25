"""Auxiliary losses over the router.

The built-in objective rewards routers whose expert representation columns
form an orthonormal set: a gram-residual term pushes distinct columns apart
(which also discourages tokens from activating everything at once), and a
mean column-norm term keeps magnitudes bounded. Anything beyond that (load
balancing, activation budgets) enters through the plugin hook at the bottom;
the two plugins shipped here are conventional substitutes, not part of the
core objective, and are labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ConfigurationError, DimensionError, Param, vector_norm
from .router import GatingDecision, RouterParams


@dataclass
class AuxLossReport:
    """Components of the auxiliary objective for one layer and step."""

    diversity: float
    simplicity: float
    total: float
    extra: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        expected = self.diversity + self.simplicity + sum(self.extra.values())
        if not np.isclose(self.total, expected, rtol=0.0, atol=1e-12):
            raise ValueError(f"total {self.total} != sum of components {expected}")
        values = [self.diversity, self.simplicity, self.total, *self.extra.values()]
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite auxiliary loss component")


def diversity_simplicity_loss(w_g: Param, weight: float = 1.0) -> AuxLossReport:
    """Gram-residual plus mean column norm, with analytic gradient.

    diversity  = || W^T W - I ||_F
    simplicity = mean_e || w_e ||_2

    ``weight`` scales only the gradient accumulated into ``w_g.grad`` (the
    reported values stay unweighted), so the report remains comparable
    across runs with different loss weights.

    Gradient: d(diversity)/dW = 2 W M / ||M||_F with M = W^T W - I, and
    d(simplicity)/dw_e = w_e / (K ||w_e||). At the non-smooth points
    (M = 0, or a zero column) the subgradient 0 is used.
    """
    w = w_g.value
    if w.ndim != 2:
        raise DimensionError(f"w_g must be 2-d, got shape {w.shape}")
    n_experts = w.shape[1]
    gram_residual = w.T @ w
    r = gram_residual.ravel()  # a view: matmul returns a C-contiguous array
    r[:: n_experts + 1] -= 1.0  # - I, as x - 0.0 is x off the diagonal
    diversity = math.sqrt(r.dot(r))
    col_norms = vector_norm(w, axis=0)
    simplicity = float(np.add.reduce(col_norms) / n_experts)

    grad = np.zeros(w.shape)
    if diversity > 0.0:
        grad += (2.0 / diversity) * (w @ gram_residual)
    nonzero = col_norms > 0.0
    d_simplicity = np.divide(w, n_experts * col_norms, out=np.zeros(w.shape), where=nonzero)
    np.add(grad, d_simplicity, out=grad, where=nonzero)
    w_g.accumulate(weight * grad)

    return AuxLossReport(diversity=diversity, simplicity=simplicity, total=diversity + simplicity)


def gshard_style_balance_loss(decision: GatingDecision, softscores: np.ndarray) -> float:
    """Conventional balance penalty; NOT part of the core objective.

    K * sum_e (fraction of tokens activating e) * (mean normalized score
    mass on e). This is the usual fraction-times-importance product adapted
    to variable-k masks; it is provided as a pluggable substitute for
    externally defined balance losses, not as something this package's own
    objective prescribes.
    """
    softscores = np.asarray(softscores, dtype=np.float64)
    if softscores.shape != decision.mask.shape:
        raise DimensionError(
            f"softscores shape {softscores.shape} does not match mask shape "
            f"{decision.mask.shape}"
        )
    n_tokens, n_experts = decision.mask.shape
    if n_tokens == 0:
        raise ValueError("balance loss is undefined for an empty batch")
    if not np.all(np.isfinite(softscores)):
        raise ValueError("softscores must be finite")
    frac = decision.mask.mean(axis=0)
    mass = (softscores / softscores.sum(axis=1, keepdims=True)).mean(axis=0)
    return float(n_experts * (frac * mass).sum())


# --- plugin hook -----------------------------------------------------------
#
# A plugin maps (decision, sig_s, router params) to (value, grad wrt mask).
# The mask gradient, when not None, is fed through the router's
# straight-through backward by the training loop; plugins that only monitor
# return None there.

def gshard_balance_plugin(
    decision: GatingDecision, sig_s: np.ndarray, params: RouterParams
) -> tuple[float, np.ndarray | None]:
    """Balance substitute with a straight-through mask gradient.

    The value is :func:`gshard_style_balance_loss`; since the per-expert
    score mass does not depend on the mask, d(value)/d(mask[i, e]) is
    exactly K * mass_e / N.
    """
    value = gshard_style_balance_loss(decision, sig_s)
    n_tokens, n_experts = decision.mask.shape
    sig_s = np.asarray(sig_s, dtype=np.float64)
    mass = (sig_s / sig_s.sum(axis=1, keepdims=True)).mean(axis=0)
    grad_mask = np.tile(n_experts * mass / n_tokens, (n_tokens, 1))
    return value, grad_mask


def mean_k_efficiency_plugin(
    decision: GatingDecision, sig_s: np.ndarray, params: RouterParams
) -> tuple[float, np.ndarray | None]:
    """Activation-budget penalty: mean activations per token; NOT part of
    the core objective.

    The value is mean(k); the straight-through gradient wrt every mask entry
    is 1/N, so weighting this plugin pushes thresholds up uniformly.
    """
    n_tokens = decision.mask.shape[0]
    if n_tokens == 0:
        raise ValueError("efficiency penalty is undefined for an empty batch")
    value = float(decision.mask.sum() / n_tokens)
    grad_mask = np.full_like(decision.mask, 1.0 / n_tokens)
    return value, grad_mask


PLUGINS = {
    "gshard_balance": gshard_balance_plugin,
    "mean_k_efficiency": mean_k_efficiency_plugin,
}


def get_plugin(name: str):
    try:
        return PLUGINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown auxiliary loss plugin {name!r}; available: {sorted(PLUGINS)}"
        ) from None
