"""Expert MLPs, pair-wise dispatch and combine, and the full layer backward.

Forward: each token runs exactly the experts its mask activates and the
layer output is their unweighted mean (tokens that activate nothing output
the zero vector in training mode, which reads as identity pass-through
under a residual connection). Dispatch is pair-wise: each expert runs once,
on the rows that activate it. In training mode the combine weights, 1 / k
and the outputs and expert caches of those activated pairs are kept on the
decision, and the backward reuses them instead of computing the weights
again or running any expert again on them.

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

import math
from dataclasses import dataclass

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
EXPERT_TENSORS = ("w1", "b1", "w2", "b2")


def gelu(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian-error linear unit, 0.5 * u * (1 + erf(u / sqrt(2))),
    and its factor 1 + erf(u / sqrt(2)), which :func:`gelu_grad` reuses."""
    one_plus_erf = erf(u * _INV_SQRT2)
    one_plus_erf += 1.0
    act = 0.5 * u
    act *= one_plus_erf
    return act, one_plus_erf


def gelu_grad(u: np.ndarray, one_plus_erf: np.ndarray) -> np.ndarray:
    """Derivative of :func:`gelu` at ``u``, given the factor it returned."""
    phi = 0.5 * one_plus_erf
    return phi + u * np.exp(-0.5 * u * u) * _INV_SQRT_2PI


@dataclass(eq=False)
class ExpertMlp:
    """The two-layer MLP experts (d -> hidden -> d, smooth activation) of one
    layer, stacked: slot e of every tensor belongs to expert e.

    Each tensor keeps one optimizer step count per slot (``Param.slot_steps``),
    as separate per-expert Params would: a slot the adaptive process appends
    starts its Adam bias correction at step 1 while kept slots continue theirs.
    """

    w1: Param  # (K, d, h)
    b1: Param  # (K, h)
    w2: Param  # (K, h, d)
    b2: Param  # (K, d)

    @classmethod
    def from_arrays(cls, w1, b1, w2, b2) -> "ExpertMlp":
        values = dict(zip(EXPERT_TENSORS, (w1, b1, w2, b2)))
        return cls(**{name: Param(v, name=name, slot_steps=True) for name, v in values.items()})

    @classmethod
    def random(cls, dim: int, hidden: int, n_experts: int, rng: np.random.Generator) -> "ExpertMlp":
        w1, w2 = [], []
        for _ in range(n_experts):  # w1 then w2 per expert: the draw order seeded runs rely on
            w1.append(rng.standard_normal((dim, hidden)) / math.sqrt(dim))
            w2.append(rng.standard_normal((hidden, dim)) / math.sqrt(hidden))
        return cls.from_arrays(np.array(w1), np.zeros((n_experts, hidden)),
                               np.array(w2), np.zeros((n_experts, dim)))

    @property
    def n_experts(self) -> int:
        return self.w1.value.shape[0]

    def params(self) -> list[Param]:
        return [self.w1, self.b1, self.w2, self.b2]

    def param_count(self) -> int:
        """Parameters of one expert."""
        return sum(p.value[0].size for p in self.params())

    def forward(self, e: int, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Expert e on the rows ``x``."""
        pre = x @ self.w1.value[e]
        pre += self.b1.value[e]
        act, one_plus_erf = gelu(pre)
        out = act @ self.w2.value[e]
        out += self.b2.value[e]
        return out, (x, pre, act, one_plus_erf)

    def backward(self, e: int, cache: tuple, upstream: np.ndarray) -> np.ndarray:
        """Accumulate expert e's gradients; return the gradient of its rows."""
        x, pre, act, one_plus_erf = cache
        self.w2.grad[e] += act.T @ upstream
        self.b2.grad[e] += np.add.reduce(upstream, axis=0)
        d_act = upstream @ self.w2.value[e].T
        d_pre = d_act * gelu_grad(pre, one_plus_erf)
        self.w1.grad[e] += x.T @ d_pre
        self.b1.grad[e] += np.add.reduce(d_pre, axis=0)
        return d_pre @ self.w1.value[e].T


@dataclass(eq=False)
class MoeLayer:
    """Router, experts and routing record; the unit the adaptive process
    resizes."""

    router: RouterParams
    experts: ExpertMlp
    record: RoutingRecord
    d: int
    h: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        k = self.router.n_experts
        if self.experts.n_experts != k:
            raise DimensionError(
                f"router has {k} experts but layer holds {self.experts.n_experts} MLPs"
            )
        if self.record.r_e.shape[0] != k:
            raise DimensionError(
                f"routing record tracks {self.record.r_e.shape[0]} experts, layer has {k}"
            )
        d, h = self.d, self.h
        if self.router.dim != d:
            raise DimensionError(f"router columns of dim {self.router.dim} in a layer of d={d}")
        if [p.shape for p in self.experts.params()] != [(k, d, h), (k, h), (k, h, d), (k, d)]:
            raise DimensionError("expert tensor shapes inconsistent with layer dims")

    @property
    def n_experts(self) -> int:
        return self.experts.n_experts

    @classmethod
    def random(cls, dim: int, hidden: int, n_experts: int, rng: np.random.Generator) -> "MoeLayer":
        return cls(
            router=RouterParams.random(dim, n_experts, rng),
            experts=ExpertMlp.random(dim, hidden, n_experts, rng),
            record=RoutingRecord.fresh(n_experts, dim),
            d=dim,
            h=hidden,
        )

    def params(self) -> list[Param]:
        return [self.router.w_g, self.router.g, *self.experts.params()]

    def expert_indexed(self) -> list[tuple[Param, int]]:
        """Every tensor with an expert axis, paired with that axis: the
        router's ``w_g`` columns and ``g``, then the expert tensors."""
        return [(self.router.w_g, 1), (self.router.g, 0)] + [(p, 0) for p in self.experts.params()]


def _dispatch(
    experts: ExpertMlp,
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
    # zeros_like writes its zeros; at eval sizes np.zeros gets fresh calloc
    # pages, which the scatter-add below faults in twice (read, then write).
    out = np.zeros_like(tokens)
    pairs = [] if keep_cache else None
    for e in range(experts.n_experts):
        idx = (mask[:, e] > 0.0).nonzero()[0]
        if not idx.size:
            continue
        if keep_cache:
            out_e, cache_e = experts.forward(e, tokens[idx])
            pairs.append((e, idx, out_e, cache_e))
            out[idx] += weights[idx, e, None] * out_e
        else:
            # Nothing is kept: drop the expert cache at once and scale the
            # output in place, so the next expert reuses the freed buffers.
            out_e = experts.forward(e, tokens[idx])[0]
            out_e *= weights[idx, e, None]
            out[idx] += out_e
    return out, pairs


def _require_cache(cache):
    if cache is None:
        raise ValueError(
            "no expert cache: the backward needs the decision or cache of a "
            "train-mode forward (eval-mode and bare router decisions carry none)"
        )
    return cache


def _pairs_backward(
    experts: ExpertMlp,
    pairs: list | None,
    upstream: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expert backward on the activated pairs cached by :func:`_dispatch`.

    Expert e receives ``upstream * weights[:, e]`` on its activated rows
    only. Returns the token gradient of the expert path and
    ``dots[i, e] = <u_i, E_e(x_i)>`` on activated pairs (zero elsewhere).
    """
    d_tokens = np.zeros(upstream.shape)
    dots = np.zeros(weights.shape)
    for e, idx, out_e, cache_e in _require_cache(pairs):
        u = upstream[idx]
        dots[idx, e] = np.add.reduce(out_e * u, axis=1)
        d_tokens[idx] += experts.backward(e, cache_e, u * weights[idx, e, None])
    return d_tokens, dots


def _combine_weights(decision: GatingDecision) -> tuple[np.ndarray, np.ndarray]:
    """Mean-combine weights mask / k and the per-token 1 / k (0 where k = 0)."""
    mask = decision.mask
    totals = np.add.reduce(mask, axis=1)
    inv_t = np.divide(1.0, totals, out=np.zeros(totals.shape), where=totals > 0.0)
    return mask * inv_t[:, None], inv_t


def moe_forward(
    layer: MoeLayer, tokens: np.ndarray, mode: str = "train"
) -> tuple[np.ndarray, GatingDecision]:
    """Route tokens and return the unweighted mean of their activated
    experts' outputs.

    ``mode="train"`` permits k = 0 rows (their output is the zero vector)
    and caches the activated pairs, the combine weights and 1 / k on the
    decision for :func:`moe_backward`; ``mode="eval"`` falls back to top-1
    so every token runs at least one expert, and keeps no cache.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    layer.validate()
    tokens = np.asarray(tokens, dtype=np.float64)
    decision = route_top_any(tokens, layer.router) if mode == "train" else route_eval(tokens, layer.router)
    weights, inv_t = _combine_weights(decision)
    out, pairs = _dispatch(layer.experts, tokens, decision.mask, weights, keep_cache=mode == "train")
    if pairs is not None:
        decision.expert_cache = (pairs, weights, inv_t)
    return out, decision


def moe_backward(
    layer: MoeLayer,
    decision: GatingDecision,
    tokens: np.ndarray,
    upstream: np.ndarray,
) -> np.ndarray:
    """Accumulate gradients for all layer params; return the token gradient.

    ``decision`` must come from a train-mode :func:`moe_forward` on
    ``tokens``: it carries the combine weights and the cached activated
    pairs, and without them (eval-mode or bare router decisions) this raises
    ``ValueError``. The eval fallback would also break the mask/threshold
    relation the straight-through rule relies on. Expert weight gradients
    flow through the cached activated pairs scaled by 1 / k. The mask
    gradient also needs the outputs of non-activated experts on tokens with
    k > 0; those come from one forward-only pass per expert over exactly
    those rows.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != tokens.shape or decision.mask.shape[0] != tokens.shape[0]:
        raise DimensionError(
            f"stale decision or upstream: tokens {tokens.shape}, upstream "
            f"{upstream.shape}, mask {decision.mask.shape}"
        )
    if decision.mask.shape[1] != layer.n_experts:
        raise DimensionError("decision does not match the layer's current expert count")

    pairs, weights, inv_t = _require_cache(decision.expert_cache)
    d_tokens, dots = _pairs_backward(layer.experts, pairs, upstream, weights)
    # The mask seed <u_i, E_e(x_i) - y_i> / k_i also needs the outputs of
    # experts a token did not activate; rows with k_i = 0 have a zero seed.
    off = (inv_t > 0.0)[:, None] & (decision.mask == 0.0)
    for e in range(layer.n_experts):
        idx = off[:, e].nonzero()[0]
        if idx.size:
            out_e = layer.experts.forward(e, tokens[idx])[0]
            dots[idx, e] = np.add.reduce(out_e * upstream[idx], axis=1)
    d_mask = (dots - np.add.reduce(weights * dots, axis=1, keepdims=True)) * inv_t[:, None]
    d_tokens += route_top_any_backward(decision, d_mask, tokens, layer.router)
    return d_tokens


def experts_to_doc(experts: ExpertMlp) -> list[dict]:
    """Checkpoint form of the experts, one entry per expert; float repr
    round-trips bit-exactly."""
    return [{p.name: p.value[e].tolist() for p in experts.params()}
            for e in range(experts.n_experts)]


def experts_from_doc(docs: list[dict]) -> ExpertMlp:
    return ExpertMlp.from_arrays(*(np.array([doc[name] for doc in docs]) for name in EXPERT_TENSORS))


def layer_to_doc(layer: MoeLayer) -> dict:
    return {
        "schema": LAYER_SCHEMA,
        "d": layer.d,
        "h": layer.h,
        "n_experts": layer.n_experts,
        "w_g": layer.router.w_g.value.tolist(),
        "g": layer.router.g.value.tolist(),
        "experts": experts_to_doc(layer.experts),
    }


def layer_from_doc(doc: dict) -> MoeLayer:
    if doc.get("schema") != LAYER_SCHEMA:
        raise ValueError(f"unsupported layer schema {doc.get('schema')!r}")
    experts = experts_from_doc(doc["experts"])
    router = RouterParams(w_g=Param(np.array(doc["w_g"]), name="w_g"),
                          g=Param(np.array(doc["g"]), name="g"))
    return MoeLayer(
        router=router,
        experts=experts,
        record=RoutingRecord.fresh(experts.n_experts, doc["d"]),
        d=doc["d"],
        h=doc["h"],
    )

