"""Threshold-gated routing with a straight-through backward pass.

A token activates every expert whose squashed cosine score strictly exceeds
that expert's squashed trainable threshold, so different tokens may activate
different numbers of experts, including none. The activation decision is a
step function; training treats the binary mask as if it were the smooth
quantity sigmoid(s) - sigmoid(g) and chains from there ("straight-through").
A fixed-cardinality softmax top-k router (GShard, Lepikhin et al., arXiv
2006.16668) is provided as the conventional baseline.

Both routers give an MoE layer the same three things: ``route(tokens, mode)``,
the decision and the combine weights; ``unactivated_pairs(decision)``, the
token-expert pairs outside the decision whose expert outputs the backward
needs; and ``backward(decision, weights, dots, tokens)``, which takes
``dots[i, e] = <dL/dy_i, E_e(x_i)>`` and returns the router's token gradient.

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
from scipy.special import expit

from .numerics import (
    ConfigurationError,
    DimensionError,
    Param,
    cosine_scores_batch,
    sigmoid,
    vector_norm,
)


@dataclass(eq=False)
class RouterParams:
    """Per-layer routing parameters.

    ``w_g`` holds one representation column per expert (shape d x K) and
    ``g`` the per-expert activation thresholds (shape K). Both are trained.
    """

    w_g: Param
    g: Param

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.w_g.value.ndim != 2:
            raise DimensionError(f"w_g must be 2-d, got shape {self.w_g.shape}")
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

    @property
    def dim(self) -> int:
        return self.w_g.value.shape[0]

    @property
    def n_experts(self) -> int:
        return self.w_g.value.shape[1]

    @classmethod
    def random(cls, dim: int, n_experts: int, rng: np.random.Generator) -> "RouterParams":
        """Unit-norm random representation columns and zero thresholds.

        Zero thresholds squash to 0.5, so a fresh expert is activated by
        exactly the tokens with positive cosine to its column.
        """
        cols = rng.standard_normal((dim, n_experts))
        cols /= np.linalg.norm(cols, axis=0, keepdims=True)
        return cls(w_g=Param(cols, name="w_g"), g=Param(np.zeros(n_experts), name="g"))

    def params(self) -> list[Param]:
        return [self.w_g, self.g]

    def expert_indexed(self) -> list[tuple[Param, int]]:
        return [(self.w_g, 1), (self.g, 0)]

    def param_count(self) -> int:
        return self.w_g.value.size + self.g.value.size

    def route(self, tokens: np.ndarray, mode: str) -> tuple[GatingDecision, np.ndarray]:
        """Top-any routing (with the top-1 fallback in eval mode) and the
        mean-combine weights mask / k."""
        decision = route_top_any(tokens, self) if mode == "train" else route_eval(tokens, self)
        return decision, decision.mask * _inverse_k(decision)[:, None]

    def unactivated_pairs(self, decision: GatingDecision) -> np.ndarray:
        """The straight-through mask seed <u_i, E_e(x_i) - y_i> / k_i needs the
        experts a token did not activate too; rows with k_i = 0 have a zero
        seed."""
        return (decision.k > 0)[:, None] & (decision.mask == 0.0)

    def backward(self, decision, weights, dots, tokens) -> np.ndarray:
        """The mask gradient of the mean combine, read as sum_e m_e E_e / sum_e
        m_e, fed through the straight-through rule."""
        d_mask = dots - np.add.reduce(weights * dots, axis=1, keepdims=True)
        d_mask *= _inverse_k(decision)[:, None]
        return route_top_any_backward(decision, d_mask, tokens, self)


@dataclass
class GatingDecision:
    """Routing outcome for one batch.

    ``mask`` is the {0, 1} activation indicator, ``k`` the per-token count
    of activated experts (row sums of the mask), ``s`` the raw cosine
    scores, ``sig_s``/``sig_g`` their squashed forms. ``k`` may be zero in
    training mode. ``expert_cache`` holds, for each expert some token
    activates, its index, the activated rows, their outputs and the expert's
    forward cache; then the combine weights. A train-mode layer forward
    fills it for the layer backward, and it stays ``None`` everywhere else.
    """

    mask: np.ndarray   # (N, K) entries in {0.0, 1.0}
    k: np.ndarray      # (N,) int64
    s: np.ndarray      # (N, K)
    sig_s: np.ndarray  # (N, K)
    sig_g: np.ndarray  # (K,)
    expert_cache: tuple[list, np.ndarray] | None = field(default=None, repr=False)


def _inverse_k(decision: GatingDecision) -> np.ndarray:
    """Per-token 1 / k, 0 where k = 0."""
    k = decision.k
    return np.divide(1.0, k, out=np.zeros(k.shape), where=k > 0)


def route_top_any(tokens: np.ndarray, params: RouterParams) -> GatingDecision:
    """Activate every expert whose squashed score strictly beats its threshold.

    Strictness matters at the boundary: a raw score of exactly the threshold
    (both squash to the same value) does not activate, so a zero-threshold
    expert is activated precisely by tokens with positive cosine to it.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    s = cosine_scores_batch(tokens, params.w_g.value)
    sig_s = expit(s)  # s is checked finite already
    sig_g = sigmoid(params.g.value)
    mask = (sig_s > sig_g[None, :]).astype(np.float64)
    k = np.add.reduce(mask, axis=1).astype(np.int64)
    return GatingDecision(mask=mask, k=k, s=s, sig_s=sig_s, sig_g=sig_g)


def route_top_any_backward(
    decision: GatingDecision,
    upstream: np.ndarray,
    tokens: np.ndarray,
    params: RouterParams,
) -> np.ndarray:
    """Straight-through backward: copy dL/dmask onto sigmoid(s) - sigmoid(g).

    Accumulates into ``params.w_g.grad`` and ``params.g.grad`` and returns
    the gradient wrt the tokens.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != decision.mask.shape:
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match mask shape {decision.mask.shape}"
        )
    # mask ~ sig_s - sig_g
    dgate = -np.add.reduce(upstream, axis=0) * decision.sig_g * (1.0 - decision.sig_g)
    params.g.accumulate(dgate)
    ds = upstream * decision.sig_s * (1.0 - decision.sig_s)
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


def route_eval(tokens: np.ndarray, params: RouterParams) -> GatingDecision:
    """Evaluation-time routing: tokens that activate nothing fall back to top-1.

    Rows with k = 0 get a one-hot mask at the highest squashed score
    (lowest expert index wins ties); all other rows are identical to
    :func:`route_top_any`. Every returned k is therefore at least 1.
    """
    decision = route_top_any(tokens, params)
    empty = decision.k == 0
    if empty.any():
        # argmax returns the first maximum, i.e. the lowest expert index.
        best = decision.sig_s[empty].argmax(axis=1)
        decision.mask[empty.nonzero()[0], best] = 1.0
        decision.k = np.add.reduce(decision.mask, axis=1).astype(np.int64)
    return decision


@dataclass
class TopKDecision:
    """Fixed-cardinality routing outcome, including combine weights.

    ``weights`` are the selected softmax scores renormalized to sum to one
    per token; unselected entries are zero. ``expert_cache`` is filled as on
    :class:`GatingDecision`.
    """

    mask: np.ndarray     # (N, K) entries in {0.0, 1.0}
    k: np.ndarray        # (N,) int64, constant
    scores: np.ndarray   # (N, K) full softmax distribution
    weights: np.ndarray  # (N, K)
    expert_cache: tuple[list, np.ndarray] | None = field(default=None, repr=False)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def route_top_k_baseline(tokens: np.ndarray, w_g: Param, k: int) -> TopKDecision:
    """Conventional softmax top-k gate over a plain linear router.

    No cosine normalization and no thresholds: scores are softmax(x @ w_g),
    the k highest are selected (ties broken toward the lowest expert index),
    and the selected scores are renormalized into combine weights.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    n_experts = w_g.value.shape[1]
    if not 1 <= k <= n_experts:
        raise ConfigurationError(f"top-k value {k} not in [1, {n_experts}]")
    scores = softmax_rows(tokens @ w_g.value)
    order = np.argsort(-scores, axis=1, kind="stable")
    mask = np.zeros_like(scores)
    np.put_along_axis(mask, order[:, :k], 1.0, axis=1)
    selected = scores * mask
    weights = selected / selected.sum(axis=1, keepdims=True)
    kvec = np.full(tokens.shape[0], k, dtype=np.int64)
    return TopKDecision(mask=mask, k=kvec, scores=scores, weights=weights)


def route_top_k_backward(
    decision: TopKDecision,
    d_weights: np.ndarray,
    tokens: np.ndarray,
    w_g: Param,
) -> np.ndarray:
    """Backward through renormalized-softmax combine weights.

    The selection set is piecewise constant and treated as fixed; gradients
    flow through the renormalization and the softmax into w_g and the
    tokens.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    d_weights = np.asarray(d_weights, dtype=np.float64)
    if d_weights.shape != decision.weights.shape:
        raise DimensionError(
            f"d_weights shape {d_weights.shape} does not match weights shape "
            f"{decision.weights.shape}"
        )
    p = decision.scores
    total = (p * decision.mask).sum(axis=1, keepdims=True)
    # weights_e = p_e m_e / total, with total summed over the selected set.
    dp = (decision.mask / total) * (
        d_weights - (d_weights * decision.weights).sum(axis=1, keepdims=True)
    )
    dz = p * (dp - (dp * p).sum(axis=1, keepdims=True))
    w_g.accumulate(tokens.T @ dz)
    return dz @ w_g.value.T


@dataclass(eq=False)
class TopKRouter:
    """Per-layer parameters of the softmax top-k baseline: a plain linear
    router ``w_g`` (shape d x K), trained, and the fixed number ``top_k`` of
    experts every token runs."""

    w_g: Param
    top_k: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.w_g.value.ndim != 2:
            raise DimensionError(f"w_g must be 2-d, got shape {self.w_g.shape}")
        if type(self.top_k) is not int or not 1 <= self.top_k <= self.n_experts:
            raise ConfigurationError(f"top_k {self.top_k!r} not in [1, {self.n_experts}]")

    @property
    def dim(self) -> int:
        return self.w_g.value.shape[0]

    @property
    def n_experts(self) -> int:
        return self.w_g.value.shape[1]

    @classmethod
    def random(cls, dim: int, n_experts: int, top_k: int, rng: np.random.Generator) -> "TopKRouter":
        w_g = Param(rng.standard_normal((dim, n_experts)) / math.sqrt(dim), name="w_g")
        return cls(w_g=w_g, top_k=top_k)

    def params(self) -> list[Param]:
        return [self.w_g]

    def expert_indexed(self) -> list[tuple[Param, int]]:
        return [(self.w_g, 1)]

    def param_count(self) -> int:
        return self.w_g.value.size

    def route(self, tokens: np.ndarray, mode: str) -> tuple[TopKDecision, np.ndarray]:
        """The same selection in both modes; the combine weights are the
        renormalized selected scores."""
        decision = route_top_k_baseline(tokens, self.w_g, self.top_k)
        return decision, decision.weights

    def unactivated_pairs(self, decision: TopKDecision) -> None:
        """None: the selection is held fixed in the backward, so no pair
        outside it is ever computed."""
        return None

    def backward(self, decision, weights, dots, tokens) -> np.ndarray:
        """``dots`` is the gradient of the combine weights."""
        return route_top_k_backward(decision, dots, tokens, self.w_g)
