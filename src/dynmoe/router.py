"""Threshold-gated routing with a straight-through backward pass.

A token activates every expert whose squashed cosine score strictly exceeds
that expert's squashed trainable threshold, so different tokens may activate
different numbers of experts, including none. The activation decision is a
step function; training treats the binary mask as if it were the smooth
quantity sigmoid(s) - sigmoid(g) and chains from there ("straight-through").
A fixed-cardinality softmax top-k router (GShard, Lepikhin et al., arXiv
2006.16668) is provided as the conventional baseline.

Both routers give an MoE layer the same three things: ``route(tokens, mode)``,
a :class:`Decision` that carries the mask and the combine weights;
``unactivated_pairs(decision)``, the token-expert pairs outside the decision
whose expert outputs the backward needs; and ``backward(decision, dots,
tokens)``, which takes ``dots[i, e] = <dL/dy_i, E_e(x_i)>`` and returns the
router's token gradient.

Chain rule used by the straight-through backward, for token i and expert e
with up = dL/dmask:

    d s[i, e]        = up[i, e] * sigmoid'(s[i, e])
    d g[e]           = -sum_i up[i, e] * sigmoid'(g[e])
    d w[:, e] (via s) = sum_i ds[i, e] * (x_i / (|x_i| |w_e|) - s[i, e] * w_e / |w_e|^2)
    d x_i     (via s) = sum_e ds[i, e] * (w_e / (|x_i| |w_e|) - s[i, e] * x_i / |x_i|^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    ConfigurationError,
    DimensionError,
    Param,
    cosine_scores_batch,
    expit,
    name_params,
    sigmoid,
    vector_norm,
)


@dataclass
class Decision:
    """One batch's routing outcome, from either router.

    ``mask`` is the {0, 1} indicator of the experts each token runs and ``k``
    its row sums; under top-any ``k`` may be zero in training mode.
    ``weights`` are the combine weights: mask / k under top-any (zero rows
    where k = 0), the selected softmax scores renormalized per token under
    top-k. ``scores`` is what the router's backward reads: sigmoid of the
    cosine scores under top-any, the full softmax under top-k. ``pairs``
    holds, for each expert some token activates, its index, the activated
    rows, their outputs and the expert's forward cache. A train-mode layer
    forward fills it for the layer backward, and it stays ``None``
    everywhere else.
    """

    mask: np.ndarray     # (N, K) entries in {0.0, 1.0}
    k: np.ndarray        # (N,) int64
    weights: np.ndarray  # (N, K)
    scores: np.ndarray   # (N, K)
    pairs: list | None = field(default=None, repr=False)


@dataclass(eq=False)
class Router:
    """What both routers hold: the trained matrix ``w_g`` (shape d x K), one
    column per expert. Its Params are named after their fields and checked
    on construction."""

    w_g: Param

    def __post_init__(self) -> None:
        name_params(self)
        self.validate()

    def validate(self) -> None:
        if self.w_g.value.ndim != 2:
            raise DimensionError(f"w_g must be 2-d, got shape {self.w_g.shape}")

    @property
    def dim(self) -> int:
        return self.w_g.value.shape[0]

    @property
    def n_experts(self) -> int:
        return self.w_g.value.shape[1]

    def param_count(self) -> int:
        return sum(p.value.size for p in self.params())


@dataclass(eq=False)
class RouterParams(Router):
    """Per-layer routing parameters.

    ``w_g`` holds one representation column per expert (shape d x K) and
    ``g`` the per-expert activation thresholds (shape K). Both are trained.
    """

    g: Param

    def validate(self) -> None:
        super().validate()
        if self.g.value.ndim != 1:
            raise DimensionError(f"g must be 1-d, got shape {self.g.shape}")
        if self.w_g.value.shape[1] != self.g.value.shape[0]:
            raise DimensionError(
                f"w_g has {self.w_g.value.shape[1]} columns but g has "
                f"{self.g.value.shape[0]} thresholds"
            )
        if self.n_experts < 1:
            raise ConfigurationError("router needs at least one expert")
        if not vector_norm(self.w_g.value, axis=0).all():
            raise ConfigurationError("every expert representation column must be nonzero")

    @classmethod
    def random(cls, dim: int, n_experts: int, rng: np.random.Generator) -> "RouterParams":
        """Unit-norm random representation columns and zero thresholds.

        Zero thresholds squash to 0.5, so a fresh expert is activated by
        exactly the tokens with positive cosine to its column.
        """
        cols = rng.standard_normal((dim, n_experts))
        cols /= np.linalg.norm(cols, axis=0, keepdims=True)
        return cls(w_g=Param(cols), g=Param(np.zeros(n_experts)))

    def params(self) -> list[Param]:
        return [self.w_g, self.g]

    def expert_indexed(self) -> list[tuple[Param, int]]:
        return [(self.w_g, 1), (self.g, 0)]

    def route(self, tokens: np.ndarray, mode: str) -> Decision:
        """Top-any routing, with the top-1 fallback in eval mode; the combine
        weights are the mean over the activated experts, mask / k."""
        return route_top_any(tokens, self) if mode == "train" else route_eval(tokens, self)

    def unactivated_pairs(self, decision: Decision) -> np.ndarray:
        """The straight-through mask seed <u_i, E_e(x_i) - y_i> / k_i needs the
        experts a token did not activate too; rows with k_i = 0 have a zero
        seed."""
        return (decision.k > 0)[:, None] & (decision.mask == 0.0)

    def backward(self, decision: Decision, dots: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """The mask gradient of the mean combine, read as sum_e m_e E_e / sum_e
        m_e, fed through the straight-through rule."""
        d_mask = dots - np.add.reduce(decision.weights * dots, axis=1, keepdims=True)
        d_mask *= _inverse_k(decision.k)[:, None]
        return route_top_any_backward(decision, d_mask, tokens, self)


def _inverse_k(k: np.ndarray) -> np.ndarray:
    """Per-token 1 / k, 0 where k = 0."""
    return np.divide(1.0, k, out=np.zeros(k.shape), where=k > 0)


def route_top_any(tokens: np.ndarray, params: RouterParams) -> Decision:
    """Activate every expert whose squashed score strictly beats its threshold.

    Strictness matters at the boundary: a raw score of exactly the threshold
    (both squash to the same value) does not activate, so a zero-threshold
    expert is activated precisely by tokens with positive cosine to it.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    # the cosine scores are checked finite already
    sig_s = expit(cosine_scores_batch(tokens, params.w_g.value))
    mask = (sig_s > sigmoid(params.g.value)[None, :]).astype(np.float64)
    k = np.add.reduce(mask, axis=1).astype(np.int64)
    return Decision(mask=mask, k=k, weights=mask * _inverse_k(k)[:, None], scores=sig_s)


def route_top_any_backward(
    decision: Decision,
    upstream: np.ndarray,
    tokens: np.ndarray,
    params: RouterParams,
) -> np.ndarray:
    """Straight-through backward: copy dL/dmask onto sigmoid(s) - sigmoid(g).

    Accumulates into ``params.w_g.grad`` and ``params.g.grad`` and returns
    the gradient wrt the tokens. sigmoid(g) is taken from ``params``: the
    thresholds do not move between a forward and its backward.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != decision.mask.shape:
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match mask shape {decision.mask.shape}"
        )
    # mask ~ sig_s - sig_g
    sig_g = sigmoid(params.g.value)
    params.g.accumulate(-np.add.reduce(upstream, axis=0) * sig_g * (1.0 - sig_g))
    ds = upstream * decision.scores * (1.0 - decision.scores)
    # chain ds through the cosine scores into w_g and the tokens
    w = params.w_g.value
    tok_norm = vector_norm(tokens, axis=1, keepdims=True)         # (N, 1)
    col_norm = vector_norm(w, axis=0, keepdims=True)              # (1, K)
    s = (tokens @ w) / (tok_norm * col_norm)
    scaled = ds / (tok_norm * col_norm)                           # (N, K)
    ds_s = ds * s
    grad_w = tokens.T @ scaled - w * (np.add.reduce(ds_s, axis=0) / col_norm[0] ** 2)
    params.w_g.accumulate(grad_w)
    return scaled @ w.T - tokens * (np.add.reduce(ds_s, axis=1, keepdims=True) / tok_norm**2)


def route_eval(tokens: np.ndarray, params: RouterParams) -> Decision:
    """Evaluation-time routing: tokens that activate nothing fall back to top-1.

    Rows with k = 0 get a one-hot mask, and weight 1, at the highest squashed
    score (lowest expert index wins ties); all other rows are identical to
    :func:`route_top_any`. Every returned k is therefore at least 1.
    """
    decision = route_top_any(tokens, params)
    empty = decision.k == 0
    if empty.any():
        # argmax returns the first maximum, i.e. the lowest expert index.
        rows, best = empty.nonzero()[0], decision.scores[empty].argmax(axis=1)
        decision.mask[rows, best] = 1.0
        decision.weights[rows, best] = 1.0
        decision.k[empty] = 1
    return decision


@dataclass(eq=False)
class TopKRouter(Router):
    """Per-layer parameters of the softmax top-k baseline: a plain linear
    router ``w_g`` (shape d x K), trained, and the fixed number ``top_k`` of
    experts every token runs."""

    top_k: int

    def validate(self) -> None:
        super().validate()
        if type(self.top_k) is not int or not 1 <= self.top_k <= self.n_experts:
            raise ConfigurationError(f"top_k {self.top_k!r} not in [1, {self.n_experts}]")

    @classmethod
    def random(cls, dim: int, n_experts: int, top_k: int, rng: np.random.Generator) -> "TopKRouter":
        return cls(w_g=Param(rng.standard_normal((dim, n_experts)) / math.sqrt(dim)), top_k=top_k)

    def params(self) -> list[Param]:
        return [self.w_g]

    def route(self, tokens: np.ndarray, mode: str) -> Decision:
        """The same selection in both modes. No cosine normalization and no
        thresholds: scores are softmax(x @ w_g), the ``top_k`` highest are
        selected (ties broken toward the lowest expert index), and the
        selected scores, renormalized, are the combine weights."""
        z = tokens @ self.w_g.value
        e = np.exp(z - z.max(axis=1, keepdims=True))
        scores = e / e.sum(axis=1, keepdims=True)
        order = np.argsort(-scores, axis=1, kind="stable")
        mask = np.zeros_like(scores)
        np.put_along_axis(mask, order[:, : self.top_k], 1.0, axis=1)
        selected = scores * mask
        weights = selected / selected.sum(axis=1, keepdims=True)
        k = np.full(tokens.shape[0], self.top_k, dtype=np.int64)
        return Decision(mask=mask, k=k, weights=weights, scores=scores)

    def unactivated_pairs(self, decision: Decision) -> None:
        """None: the selection is held fixed in the backward, so no pair
        outside it is ever computed."""
        return None

    def backward(self, decision: Decision, dots: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Backward through the renormalized softmax; ``dots`` is the gradient
        of the combine weights. The selection set is piecewise constant and
        held fixed; gradients flow through the renormalization and the
        softmax into ``w_g`` and the tokens."""
        weights = decision.weights
        if dots.shape != weights.shape:
            raise DimensionError(
                f"dots shape {dots.shape} does not match weights shape {weights.shape}"
            )
        p = decision.scores
        total = (p * decision.mask).sum(axis=1, keepdims=True)
        # weights_e = p_e m_e / total, with total summed over the selected set.
        dp = (decision.mask / total) * (dots - (dots * weights).sum(axis=1, keepdims=True))
        dz = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        self.w_g.accumulate(tokens.T @ dz)
        return dz @ self.w_g.value.T
