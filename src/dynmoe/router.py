"""Threshold-gated routing with a straight-through backward pass.

A token activates every expert whose squashed cosine score strictly exceeds
that expert's squashed trainable threshold, so different tokens may activate
different numbers of experts, including none. The activation decision is a
step function; training treats the binary mask as if it were the smooth
quantity sigmoid(s) - sigmoid(g) and chains from there ("straight-through").
A fixed-cardinality softmax top-k router is provided as the conventional
baseline.

Chain rule used by the straight-through backward, for token i and expert e
with up = dL/dmask:

    d s[i, e]        = up[i, e] * sigmoid'(s[i, e])
    d g[e]           = -sum_i up[i, e] * sigmoid'(g[e])
    d w[:, e] (via s) = sum_i ds[i, e] * (x_i / (|x_i| |w_e|) - s[i, e] * w_e / |w_e|^2)
    d x_i     (via s) = sum_e ds[i, e] * (w_e / (|x_i| |w_e|) - s[i, e] * x_i / |x_i|^2)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    ConfigurationError,
    DimensionError,
    Param,
    cosine_scores_batch,
    sigmoid,
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
        if np.any(np.linalg.norm(self.w_g.value, axis=0) == 0.0):
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


@dataclass
class GatingDecision:
    """Routing outcome for one batch.

    ``mask`` is the {0, 1} activation indicator, ``k`` the per-token count
    of activated experts (row sums of the mask), ``s`` the raw cosine
    scores, ``sig_s``/``sig_g`` their squashed forms. ``k`` may be zero in
    training mode. ``expert_cache`` holds the layer's combine and, for each
    expert some token activates, its index, the activated rows, their
    outputs and the expert's forward cache; a train-mode layer forward fills
    it for the layer backward, and it stays ``None`` everywhere else.
    """

    mask: np.ndarray   # (N, K) entries in {0.0, 1.0}
    k: np.ndarray      # (N,) int64
    s: np.ndarray      # (N, K)
    sig_s: np.ndarray  # (N, K)
    sig_g: np.ndarray  # (K,)
    expert_cache: tuple[str, list] | None = field(default=None, repr=False)

    @property
    def n_tokens(self) -> int:
        return self.mask.shape[0]

    @property
    def n_experts(self) -> int:
        return self.mask.shape[1]


def route_top_any(tokens: np.ndarray, params: RouterParams) -> GatingDecision:
    """Activate every expert whose squashed score strictly beats its threshold.

    Strictness matters at the boundary: a raw score of exactly the threshold
    (both squash to the same value) does not activate, so a zero-threshold
    expert is activated precisely by tokens with positive cosine to it.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    s = cosine_scores_batch(tokens, params.w_g.value)
    sig_s = sigmoid(s)
    sig_g = sigmoid(params.g.value)
    mask = (sig_s > sig_g[None, :]).astype(np.float64)
    k = mask.sum(axis=1).astype(np.int64)
    return GatingDecision(mask=mask, k=k, s=s, sig_s=sig_s, sig_g=sig_g)


def _score_path_backward(
    ds: np.ndarray,
    tokens: np.ndarray,
    params: RouterParams,
    propagate_to_tokens: bool,
) -> np.ndarray:
    """Chain a gradient wrt the raw cosine scores into w_g (and the tokens)."""
    w = params.w_g.value
    tok_norm = np.linalg.norm(tokens, axis=1, keepdims=True)      # (N, 1)
    col_norm = np.linalg.norm(w, axis=0, keepdims=True)           # (1, K)
    s = (tokens @ w) / (tok_norm * col_norm)
    scaled = ds / (tok_norm * col_norm)                           # (N, K)
    grad_w = tokens.T @ scaled - w * ((ds * s).sum(axis=0) / col_norm[0] ** 2)
    params.w_g.accumulate(grad_w)
    if not propagate_to_tokens:
        return np.zeros_like(tokens)
    return scaled @ w.T - tokens * ((ds * s).sum(axis=1, keepdims=True) / tok_norm**2)


def route_top_any_backward(
    decision: GatingDecision,
    upstream: np.ndarray,
    tokens: np.ndarray,
    params: RouterParams,
    propagate_to_tokens: bool = True,
    upstream_sig_s: np.ndarray | None = None,
) -> np.ndarray:
    """Straight-through backward: copy dL/dmask onto sigmoid(s) - sigmoid(g).

    Accumulates into ``params.w_g.grad`` and ``params.g.grad`` and returns
    the gradient wrt the tokens. ``propagate_to_tokens=False`` detaches the
    token path (the threshold and representation gradients are unaffected).
    ``upstream_sig_s`` carries an optional additional smooth gradient wrt
    sigmoid(s), used by losses that depend on the squashed scores directly.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != decision.mask.shape:
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match mask shape {decision.mask.shape}"
        )
    d_sig_s = upstream.copy()
    if upstream_sig_s is not None:
        upstream_sig_s = np.asarray(upstream_sig_s, dtype=np.float64)
        if upstream_sig_s.shape != decision.mask.shape:
            raise DimensionError("upstream_sig_s shape does not match mask shape")
        d_sig_s += upstream_sig_s
    # Thresholds only see the straight-through part: mask ~ sig_s - sig_g.
    dgate = -(upstream.sum(axis=0)) * decision.sig_g * (1.0 - decision.sig_g)
    params.g.accumulate(dgate)
    ds = d_sig_s * decision.sig_s * (1.0 - decision.sig_s)
    return _score_path_backward(ds, tokens, params, propagate_to_tokens)


def route_eval(tokens: np.ndarray, params: RouterParams) -> GatingDecision:
    """Evaluation-time routing: tokens that activate nothing fall back to top-1.

    Rows with k = 0 get a one-hot mask at the highest squashed score
    (lowest expert index wins ties); all other rows are identical to
    :func:`route_top_any`. Every returned k is therefore at least 1.
    """
    decision = route_top_any(tokens, params)
    empty = decision.k == 0
    if np.any(empty):
        # np.argmax returns the first maximum, i.e. the lowest expert index.
        best = np.argmax(decision.sig_s[empty], axis=1)
        decision.mask[np.nonzero(empty)[0], best] = 1.0
        decision.k = decision.mask.sum(axis=1).astype(np.int64)
    return decision


@dataclass
class TopKDecision:
    """Fixed-cardinality routing outcome, including combine weights.

    ``weights`` are the selected softmax scores renormalized to sum to one
    per token; unselected entries are zero.
    """

    mask: np.ndarray     # (N, K) entries in {0.0, 1.0}
    k: np.ndarray        # (N,) int64, constant
    scores: np.ndarray   # (N, K) full softmax distribution
    weights: np.ndarray  # (N, K)

    @property
    def n_tokens(self) -> int:
        return self.mask.shape[0]

    @property
    def n_experts(self) -> int:
        return self.mask.shape[1]


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
    propagate_to_tokens: bool = True,
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
    if not propagate_to_tokens:
        return np.zeros_like(tokens)
    return dz @ w_g.value.T
