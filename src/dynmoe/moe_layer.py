"""Expert MLPs, pair-wise dispatch and combine, and the full layer backward.

Forward: each token runs exactly the experts its mask activates and the
layer output is their unweighted mean (tokens that activate nothing output
the zero vector in training mode, which reads as identity pass-through
under a residual connection). A score-weighted combine exists solely for
ablation comparisons. Dispatch is pair-wise: each expert runs once, on the
rows that activate it. In training mode the outputs and expert caches of
those activated pairs are kept on the decision, and the backward reuses
them instead of running any expert again on them.

Backward composition, per token i with activation count k_i > 0 and
upstream u_i = dL/dy_i:

    d expert_e output   = u_i * mask[i, e] / k_i          (activated pairs only)
    d mask[i, e]        = <u_i, E_e(x_i) - y_i> / k_i     (straight-through seed)
    d tokens            = expert input path + router cosine path

The mask gradient treats the combine as sum_e m_e E_e / sum_e m_e, the
smooth extension that coincides with the mean over activated experts on
binary masks; it is then fed through the router's straight-through rule.
It is the one place that needs E_e(x_i) on pairs that were not activated:
the backward gets those from a forward-only pass over the non-activated
rows of tokens with k_i > 0 (rows with k_i = 0 have a zero seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

from .adaptive import RoutingRecord
from .numerics import DimensionError, Param
from .router import (
    GatingDecision,
    RouterParams,
    route_eval,
    route_top_any,
    route_top_any_backward,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LAYER_SCHEMA = "dynmoe-layer/1"


def gelu(u: np.ndarray) -> np.ndarray:
    """Exact Gaussian-error linear unit, 0.5 * u * (1 + erf(u / sqrt(2)))."""
    return 0.5 * u * (1.0 + erf(u * _INV_SQRT2))


def gelu_grad(u: np.ndarray) -> np.ndarray:
    phi = 0.5 * (1.0 + erf(u * _INV_SQRT2))
    return phi + u * np.exp(-0.5 * u * u) * _INV_SQRT_2PI


@dataclass(eq=False)
class ExpertMlp:
    """Two-layer MLP expert: d -> hidden -> d with a smooth activation."""

    w1: Param  # (d, h)
    b1: Param  # (h,)
    w2: Param  # (h, d)
    b2: Param  # (d,)

    @classmethod
    def random(cls, dim: int, hidden: int, rng: np.random.Generator) -> "ExpertMlp":
        return cls(
            w1=Param(rng.standard_normal((dim, hidden)) / math.sqrt(dim), name="w1"),
            b1=Param(np.zeros(hidden), name="b1"),
            w2=Param(rng.standard_normal((hidden, dim)) / math.sqrt(hidden), name="w2"),
            b2=Param(np.zeros(dim), name="b2"),
        )

    @property
    def dim(self) -> int:
        return self.w1.value.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.value.shape[1]

    def params(self) -> list[Param]:
        return [self.w1, self.b1, self.w2, self.b2]

    def param_count(self) -> int:
        d, h = self.dim, self.hidden
        return d * h + h + h * d + d

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        pre = x @ self.w1.value + self.b1.value
        act = gelu(pre)
        out = act @ self.w2.value + self.b2.value
        return out, (x, pre, act)

    def backward(self, cache: tuple, upstream: np.ndarray) -> np.ndarray:
        x, pre, act = cache
        self.w2.accumulate(act.T @ upstream)
        self.b2.accumulate(upstream.sum(axis=0))
        d_act = upstream @ self.w2.value.T
        d_pre = d_act * gelu_grad(pre)
        self.w1.accumulate(x.T @ d_pre)
        self.b1.accumulate(d_pre.sum(axis=0))
        return d_pre @ self.w1.value.T

    def copy(self) -> "ExpertMlp":
        return ExpertMlp(
            w1=Param(self.w1.value.copy(), name="w1"),
            b1=Param(self.b1.value.copy(), name="b1"),
            w2=Param(self.w2.value.copy(), name="w2"),
            b2=Param(self.b2.value.copy(), name="b2"),
        )


@dataclass(eq=False)
class MoeLayer:
    """Router, expert list and routing record; the unit the adaptive
    process resizes."""

    router: RouterParams
    experts: list[ExpertMlp]
    record: RoutingRecord
    d: int
    h: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        k = self.router.n_experts
        if len(self.experts) != k:
            raise DimensionError(
                f"router has {k} experts but layer holds {len(self.experts)} MLPs"
            )
        if self.record.r_e.shape[0] != k:
            raise DimensionError(
                f"routing record tracks {self.record.r_e.shape[0]} experts, layer has {k}"
            )
        for expert in self.experts:
            if expert.dim != self.d or expert.hidden != self.h:
                raise DimensionError("expert shape inconsistent with layer dims")

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    @classmethod
    def random(cls, dim: int, hidden: int, n_experts: int, rng: np.random.Generator) -> "MoeLayer":
        return cls(
            router=RouterParams.random(dim, n_experts, rng),
            experts=[ExpertMlp.random(dim, hidden, rng) for _ in range(n_experts)],
            record=RoutingRecord.fresh(n_experts, dim),
            d=dim,
            h=hidden,
        )

    def params(self) -> list[Param]:
        out = [self.router.w_g, self.router.g]
        for expert in self.experts:
            out.extend(expert.params())
        return out


def _dispatch(
    experts: list[ExpertMlp],
    tokens: np.ndarray,
    mask: np.ndarray,
    weights: np.ndarray,
    keep_cache: bool,
) -> tuple[np.ndarray, list | None]:
    """Run each expert once on the rows its mask column activates.

    Returns the combine ``sum_e weights[:, e] * E_e(x)`` and, when
    ``keep_cache`` is set, one ``(expert index, rows, outputs, expert cache)``
    entry per expert that some row activates, for :func:`_pairs_backward`.
    """
    out = np.zeros_like(tokens)
    pairs = [] if keep_cache else None
    for e, expert in enumerate(experts):
        idx = np.nonzero(mask[:, e] > 0.0)[0]
        if not idx.size:
            continue
        if keep_cache:
            out_e, cache_e = expert.forward(tokens[idx])
            pairs.append((e, idx, out_e, cache_e))
            out[idx] += weights[idx, e, None] * out_e
        else:
            # Nothing is kept: drop the expert cache at once and scale the
            # output in place, so the next expert reuses the freed buffers.
            out_e = expert.forward(tokens[idx])[0]
            out_e *= weights[idx, e, None]
            out[idx] += out_e
    return out, pairs


def _pairs_backward(
    experts: list[ExpertMlp],
    pairs: list | None,
    upstream: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expert backward on the activated pairs cached by :func:`_dispatch`.

    Expert e receives ``upstream * weights[:, e]`` on its activated rows
    only. Returns the token gradient of the expert path and
    ``dots[i, e] = <u_i, E_e(x_i)>`` on activated pairs (zero elsewhere).
    """
    if pairs is None:
        raise ValueError(
            "no expert cache: the backward needs the decision or cache of a "
            "train-mode forward (eval-mode and bare router decisions carry none)"
        )
    d_tokens = np.zeros_like(upstream)
    dots = np.zeros(weights.shape)
    for e, idx, out_e, cache_e in pairs:
        u = upstream[idx]
        dots[idx, e] = (out_e * u).sum(axis=1)
        d_tokens[idx] += experts[e].backward(cache_e, u * weights[idx, e, None])
    return d_tokens, dots


def _combine_weights(decision: GatingDecision, weighted: bool) -> tuple[np.ndarray, np.ndarray]:
    """Combine weights t / T and the per-token 1 / T (0 where T = 0).

    t is the mask (mean combine) or sig_s * mask (score-weighted combine),
    and T_i = sum_e t[i, e].
    """
    t = decision.sig_s * decision.mask if weighted else decision.mask
    totals = t.sum(axis=1)
    inv_t = np.divide(1.0, totals, out=np.zeros_like(totals), where=totals > 0.0)
    return t * inv_t[:, None], inv_t


def _layer_forward(
    layer: MoeLayer, tokens: np.ndarray, mode: str, weighted: bool
) -> tuple[np.ndarray, GatingDecision]:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    layer.validate()
    tokens = np.asarray(tokens, dtype=np.float64)
    decision = route_top_any(tokens, layer.router) if mode == "train" else route_eval(tokens, layer.router)
    weights, _ = _combine_weights(decision, weighted)
    out, decision.expert_cache = _dispatch(
        layer.experts, tokens, decision.mask, weights, keep_cache=mode == "train"
    )
    return out, decision


def moe_forward(
    layer: MoeLayer, tokens: np.ndarray, mode: str = "train"
) -> tuple[np.ndarray, GatingDecision]:
    """Route tokens and combine activated expert outputs by unweighted mean.

    ``mode="train"`` permits k = 0 rows (their output is the zero vector)
    and caches the activated pairs on the decision for :func:`moe_backward`;
    ``mode="eval"`` falls back to top-1 so every token runs at least one
    expert, and keeps no cache.
    """
    return _layer_forward(layer, tokens, mode, weighted=False)


def moe_forward_weighted(
    layer: MoeLayer, tokens: np.ndarray, mode: str = "train"
) -> tuple[np.ndarray, GatingDecision]:
    """Ablation combine: weight activated experts by their squashed scores.

    Combine weight of an activated expert is sig_s[i, e] / sum over the
    token's activated experts. Exists only so the harness can compare the
    score-weighted variant against the default unweighted mean. Modes and
    caching are as in :func:`moe_forward`.
    """
    return _layer_forward(layer, tokens, mode, weighted=True)


def _layer_backward(
    layer: MoeLayer,
    decision: GatingDecision,
    tokens: np.ndarray,
    upstream: np.ndarray,
    detach_router_tokens: bool,
    weighted: bool,
) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != tokens.shape or decision.mask.shape[0] != tokens.shape[0]:
        raise DimensionError(
            f"stale decision or upstream: tokens {tokens.shape}, upstream "
            f"{upstream.shape}, mask {decision.mask.shape}"
        )
    if decision.mask.shape[1] != layer.n_experts:
        raise DimensionError("decision does not match the layer's current expert count")

    weights, inv_t = _combine_weights(decision, weighted)
    d_tokens, dots = _pairs_backward(layer.experts, decision.expert_cache, upstream, weights)
    # The mask seed <u_i, E_e(x_i) - y_i> / T_i also needs the outputs of
    # experts a token did not activate; rows with T_i = 0 have a zero seed.
    off = (inv_t > 0.0)[:, None] & (decision.mask == 0.0)
    for e, expert in enumerate(layer.experts):
        idx = np.nonzero(off[:, e])[0]
        if idx.size:
            dots[idx, e] = (expert.forward(tokens[idx])[0] * upstream[idx]).sum(axis=1)
    d_t = (dots - (weights * dots).sum(axis=1, keepdims=True)) * inv_t[:, None]
    if weighted:
        # Product rule on t = sig_s * mask: the sig_s path is a real
        # gradient, the mask path is the straight-through seed.
        d_mask, d_sig_s = d_t * decision.sig_s, d_t * decision.mask
    else:
        d_mask, d_sig_s = d_t, None
    d_tokens += route_top_any_backward(
        decision, d_mask, tokens, layer.router,
        propagate_to_tokens=not detach_router_tokens,
        upstream_sig_s=d_sig_s,
    )
    return d_tokens


def moe_backward(
    layer: MoeLayer,
    decision: GatingDecision,
    tokens: np.ndarray,
    upstream: np.ndarray,
    detach_router_tokens: bool = False,
) -> np.ndarray:
    """Accumulate gradients for all layer params; return the token gradient.

    ``decision`` must come from a train-mode :func:`moe_forward` on
    ``tokens``: it carries the cached activated pairs, and without them
    (eval-mode or bare router decisions) this raises ``ValueError``. The eval
    fallback would also break the mask/threshold relation the
    straight-through rule relies on. Expert weight gradients flow through the
    cached activated pairs scaled by 1/k. The mask gradient also needs the
    outputs of non-activated experts on tokens with k > 0; those come from
    one forward-only pass per expert over exactly those rows.
    """
    return _layer_backward(layer, decision, tokens, upstream, detach_router_tokens, weighted=False)


def moe_backward_weighted(
    layer: MoeLayer,
    decision: GatingDecision,
    tokens: np.ndarray,
    upstream: np.ndarray,
    detach_router_tokens: bool = False,
) -> np.ndarray:
    """Backward for the score-weighted ablation combine.

    With t = sig_s * mask and T_i = sum_e t[i, e], the combine is
    y_i = sum_e t[i, e] E_e(x_i) / T_i. Gradients reach the router along two
    routes: a smooth one through sig_s (activated entries) and the usual
    straight-through one through the mask. The decision must carry the cache
    of a train-mode forward, as in :func:`moe_backward`.
    """
    return _layer_backward(layer, decision, tokens, upstream, detach_router_tokens, weighted=True)


def count_activated_params(layer: MoeLayer, decision) -> float:
    """Mean parameters exercised per token: router plus k_i experts."""
    router_count = layer.d * layer.n_experts + layer.n_experts
    per_expert = layer.experts[0].param_count()
    return float(router_count + decision.k.mean() * per_expert)


def layer_to_doc(layer: MoeLayer) -> dict:
    return {
        "schema": LAYER_SCHEMA,
        "d": layer.d,
        "h": layer.h,
        "n_experts": layer.n_experts,
        "w_g": layer.router.w_g.value.tolist(),
        "g": layer.router.g.value.tolist(),
        "experts": [
            {
                "w1": e.w1.value.tolist(),
                "b1": e.b1.value.tolist(),
                "w2": e.w2.value.tolist(),
                "b2": e.b2.value.tolist(),
            }
            for e in layer.experts
        ],
    }


def layer_from_doc(doc: dict) -> MoeLayer:
    if doc.get("schema") != LAYER_SCHEMA:
        raise ValueError(f"unsupported layer schema {doc.get('schema')!r}")
    experts = [
        ExpertMlp(
            w1=Param(np.array(e["w1"]), name="w1"),
            b1=Param(np.array(e["b1"]), name="b1"),
            w2=Param(np.array(e["w2"]), name="w2"),
            b2=Param(np.array(e["b2"]), name="b2"),
        )
        for e in doc["experts"]
    ]
    router = RouterParams(w_g=Param(np.array(doc["w_g"]), name="w_g"),
                          g=Param(np.array(doc["g"]), name="g"))
    return MoeLayer(
        router=router,
        experts=experts,
        record=RoutingRecord.fresh(len(experts), doc["d"]),
        d=doc["d"],
        h=doc["h"],
    )


def save_layer(layer: MoeLayer, path) -> None:
    """Write a layer checkpoint; float repr round-trips bit-exactly."""
    Path(path).write_text(json.dumps(layer_to_doc(layer), sort_keys=True))


def load_layer(path) -> MoeLayer:
    return layer_from_doc(json.loads(Path(path).read_text()))
