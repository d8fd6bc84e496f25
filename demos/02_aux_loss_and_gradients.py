"""The sparse-and-simple auxiliary loss, audited by finite differences.

The loss has two terms over the expert representation matrix: the Frobenius
norm of (W^T W - I) pushes columns toward an orthonormal set (diverse
experts, sparser activation), and the mean column norm keeps magnitudes
bounded. Both gradients are hand-derived; here we check them against the
package's central-difference oracle, and do the same for the router's
straight-through backward.
"""

import numpy as np

from dynmoe import (
    Param,
    RouterParams,
    diversity_simplicity_loss,
    finite_diff_grad,
)
from dynmoe.router import route_top_any, route_top_any_backward

rng = np.random.default_rng(1)


def loss_value(w):
    k = w.shape[1]
    gram_residual = w.T @ w - np.eye(k)
    return float(np.linalg.norm(gram_residual) + np.linalg.norm(w, axis=0).mean())


# --- the two terms on easy-to-read inputs --------------------------------------
ortho = Param(np.eye(5)[:, :3])
report = diversity_simplicity_loss(ortho)
print(f"orthonormal columns:  diversity={report.diversity:.3f}  "
      f"simplicity={report.simplicity:.3f}  total={report.total:.3f}")

collapsed = np.eye(5)[:, :3]
collapsed[:, 1] = collapsed[:, 0]  # two identical experts
report = diversity_simplicity_loss(Param(collapsed))
print(f"duplicated column:    diversity={report.diversity:.3f}  "
      f"simplicity={report.simplicity:.3f}  (duplication is penalized)")

# --- gradient audit -------------------------------------------------------------
w = Param(rng.standard_normal((6, 4)))
diversity_simplicity_loss(w)
fd = finite_diff_grad(lambda p: loss_value(p.value), Param(w.value.copy()))
rel = np.max(np.abs(w.grad - fd)) / np.max(np.abs(fd))
print(f"\nanalytic vs finite-difference gradient, random 6x4: rel err {rel:.2e}")

# --- straight-through routing gradient ------------------------------------------
# The activation mask is a step function; its "gradient" is defined by
# copying the loss gradient onto sigmoid(score) - sigmoid(threshold). That
# equals the true gradient of the surrogate objective in which the step is
# replaced by the identity, which IS differentiable, so we can audit it.
params = RouterParams.random(5, 3, rng)
tokens = rng.standard_normal((4, 5))
upstream = rng.standard_normal((4, 3))
decision = route_top_any(tokens, params)
route_top_any_backward(decision, upstream, tokens, params)


def surrogate(p):
    from dynmoe.numerics import cosine_scores_batch, sigmoid

    s = cosine_scores_batch(tokens, p.value)
    gap = sigmoid(s) - sigmoid(params.g.value)[None, :]
    return float((upstream * gap).sum())


fd_w = finite_diff_grad(surrogate, Param(params.w_g.value.copy()), eps=1e-6)
rel = np.max(np.abs(params.w_g.grad - fd_w)) / np.max(np.abs(fd_w))
print(f"straight-through grads vs surrogate finite differences: rel err {rel:.2e}")
