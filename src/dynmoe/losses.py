"""Auxiliary losses over the router.

The objective rewards routers whose expert representation columns form an
orthonormal set: a gram-residual term pushes distinct columns apart (which
also discourages tokens from activating everything at once), and a mean
column-norm term keeps magnitudes bounded. It takes the place of a
separate load-balancing loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DimensionError, Param, vector_norm


@dataclass
class AuxLossReport:
    """Components of the auxiliary objective for one layer and step."""

    diversity: float
    simplicity: float

    @property
    def total(self) -> float:
        return self.diversity + self.simplicity


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

    return AuxLossReport(diversity=diversity, simplicity=simplicity)
