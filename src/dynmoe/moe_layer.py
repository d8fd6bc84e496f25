"""Expert MLPs, pair-wise dispatch and combine, and the full layer backward.

One layer serves both routers (``router.RouterParams``, top-any, and
``router.TopKRouter``, the softmax top-k baseline). Forward: the router
gives a decision and combine weights, each token runs exactly the experts
its mask activates, and the layer output is their weighted sum: the
unweighted mean under top-any routing (tokens that activate nothing output
the zero vector in training mode, which reads as identity pass-through
under a residual connection), the renormalized softmax scores under top-k.
Dispatch is pair-wise: each expert runs once, on the rows that activate it.
In training mode the combine weights and the outputs and expert caches of
those activated pairs are kept on the decision, and the backward reuses them
instead of computing the weights again or running any expert again on them.
In eval mode nothing is kept, and every expert runs in one workspace
allocated per call, so a batch touches its pages once instead of once per
expert (see ``_dispatch``).

Backward composition, per token i with upstream u_i = dL/dy_i:

    d expert_e output   = u_i * weights[i, e]           (activated pairs only)
    dots[i, e]          = <u_i, E_e(x_i)>
    d tokens            = expert input path + router path (from the dots)

The top-any router turns the dots into its straight-through mask seed
<u_i, E_e(x_i) - y_i> / k_i, which treats the combine as
sum_e m_e E_e / sum_e m_e, the smooth extension that coincides with the mean
over activated experts on binary masks. It is the one place that needs
E_e(x_i) on pairs that were not activated: the backward gets those from a
forward-only pass over the pairs the router names (the non-activated experts
of tokens with k_i > 0). The top-k router holds its selection fixed and
needs the dots of the selected pairs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .adaptive import RoutingRecord
from .numerics import DimensionError, Param
from .router import GatingDecision, RouterParams, TopKDecision, TopKRouter

# bench/tracing.py wraps the top-any routing functions under these names; they
# stay here until its table follows them into the routers' methods.
from .router import route_eval, route_top_any, route_top_any_backward  # noqa: F401

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

EXPERT_TENSORS = ("w1", "b1", "w2", "b2")


def gelu(u: np.ndarray, out: tuple = (None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian-error linear unit, 0.5 * u * (1 + erf(u / sqrt(2))),
    and its factor 1 + erf(u / sqrt(2)), which :func:`gelu_grad` reuses.
    ``out`` holds an array shaped like ``u`` for each of the two, or None
    for a fresh one."""
    act, one_plus_erf = out
    one_plus_erf = np.multiply(u, _INV_SQRT2, out=one_plus_erf)
    erf(one_plus_erf, out=one_plus_erf)
    one_plus_erf += 1.0
    act = np.multiply(u, 0.5, out=act)
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

    def forward(self, e: int, x: np.ndarray, *, work=(None, (None,) * 3)
                ) -> tuple[np.ndarray, tuple]:
        """Expert e on the rows ``x``. ``work``, an (n, d) and a (3, n, h)
        array with n = len(x), receives the output and the cached
        intermediates; its None entries, the default, get fresh arrays.
        Either way the bits are the same."""
        out, (pre, act, one_plus_erf) = work
        pre = np.matmul(x, self.w1.value[e], out=pre)
        pre += self.b1.value[e]
        act, one_plus_erf = gelu(pre, out=(act, one_plus_erf))
        out = np.matmul(act, self.w2.value[e], out=out)
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
    resizes. Only a top-any router records and adapts. The token dimension
    ``d`` and the hidden width ``h`` are read from the router and the
    experts' ``w1``."""

    router: RouterParams | TopKRouter
    experts: ExpertMlp
    record: RoutingRecord

    def __post_init__(self) -> None:
        self.validate()

    @property
    def d(self) -> int:
        return self.router.dim

    @property
    def h(self) -> int:
        return self.experts.w1.shape[2]

    def validate(self) -> None:
        if self.experts.w1.value.ndim != 3:
            raise DimensionError(f"w1 must be 3-d, got shape {self.experts.w1.shape}")
        self.router.validate()
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
        shapes = [p.shape for p in self.experts.params()]
        if shapes != [(k, d, h), (k, h), (k, h, d), (k, d)]:
            raise DimensionError(f"expert tensor shapes {shapes} do not fit d={d} (router "
                                 f"columns), h={h} (w1 columns) and {k} experts")

    @property
    def n_experts(self) -> int:
        return self.experts.n_experts

    @classmethod
    def random(cls, dim: int, hidden: int, n_experts: int, rng: np.random.Generator) -> "MoeLayer":
        """A top-any layer: a random router, then random experts."""
        return cls.around(RouterParams.random(dim, n_experts, rng), hidden, rng)

    @classmethod
    def around(cls, router: RouterParams | TopKRouter, hidden: int,
               rng: np.random.Generator) -> "MoeLayer":
        """``router`` and one random expert per router column, drawn from ``rng``."""
        d, k = router.dim, router.n_experts
        return cls(router=router, experts=ExpertMlp.random(d, hidden, k, rng),
                   record=RoutingRecord.fresh(k, d))

    def params(self) -> list[Param]:
        return [*self.router.params(), *self.experts.params()]

    def expert_indexed(self) -> list[tuple[Param, int]]:
        """Every tensor with an expert axis, paired with that axis: the
        router's (``w_g`` columns, and ``g``), then the expert tensors."""
        return self.router.expert_indexed() + [(p, 0) for p in self.experts.params()]


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

    Without a cache, every expert gathers its rows into, and runs in, one
    workspace allocated for the call and sized for the busiest expert.
    Fresh temporaries per expert made glibc hand their pages back and fault
    them in again on every batch; the workspace is touched once per call.
    (Sized for the whole batch instead, it raised the peak resident set on
    the mid-size benchmark by about 3 MB.) ``np.take`` with ``out=`` copies
    through a temporary in its default ``raise`` mode, so it gathers in
    ``clip`` mode (the row indices are in range anyway).
    """
    # zeros_like writes its zeros; at eval sizes np.zeros gets fresh calloc
    # pages, which the scatter below faults in twice (read, then write).
    out = np.zeros_like(tokens)
    pairs = [] if keep_cache else None
    if not keep_cache:  # rows for the busiest expert
        n = int(np.maximum.reduce(np.add.reduce(mask, axis=0)))
        rows = np.empty((2, n, tokens.shape[1]))
        hidden = np.empty((3, n, experts.w1.shape[2]))
    for e in range(experts.n_experts):
        idx = (mask[:, e] > 0.0).nonzero()[0]
        if not idx.size:
            continue
        if keep_cache:
            out_e, cache_e = experts.forward(e, tokens[idx])
            pairs.append((e, idx, out_e, cache_e))
            out[idx] += weights[idx, e, None] * out_e
        else:
            x, o = rows[:, :idx.size]
            np.take(tokens, idx, axis=0, out=x, mode="clip")
            experts.forward(e, x, work=(o, hidden[:, :idx.size]))
            o *= weights[idx, e, None]
            o += np.take(out, idx, axis=0, out=x, mode="clip")  # x is spent; IEEE + commutes
            out[idx] = o
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


def moe_forward(
    layer: MoeLayer, tokens: np.ndarray, mode: str = "train"
) -> tuple[np.ndarray, GatingDecision | TopKDecision]:
    """Route tokens and return the router-weighted sum of their activated
    experts' outputs.

    ``mode="train"`` caches the activated pairs and the combine weights on
    the decision for :func:`moe_backward`; ``mode="eval"`` keeps no cache,
    and a top-any router falls back to top-1 so every token runs at least
    one expert (in training mode its k = 0 rows output the zero vector).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    layer.validate()
    tokens = np.asarray(tokens, dtype=np.float64)
    decision, weights = layer.router.route(tokens, mode)
    out, pairs = _dispatch(layer.experts, tokens, decision.mask, weights, keep_cache=mode == "train")
    if pairs is not None:
        decision.expert_cache = (pairs, weights)
    return out, decision


def moe_backward(
    layer: MoeLayer,
    decision: GatingDecision | TopKDecision,
    tokens: np.ndarray,
    upstream: np.ndarray,
) -> np.ndarray:
    """Accumulate gradients for all layer params; return the token gradient.

    ``decision`` must come from a train-mode :func:`moe_forward` on
    ``tokens``: it carries the combine weights and the cached activated
    pairs, and without them (eval-mode or bare router decisions) this raises
    ``ValueError``. The top-any eval fallback would also break the
    mask/threshold relation the straight-through rule relies on. Expert
    weight gradients flow through the cached activated pairs scaled by their
    combine weights. The router also gets the dots of the pairs it names in
    ``unactivated_pairs``, from one forward-only pass per expert over
    exactly those rows.
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

    pairs, weights = _require_cache(decision.expert_cache)
    d_tokens, dots = _pairs_backward(layer.experts, pairs, upstream, weights)
    off = layer.router.unactivated_pairs(decision)
    if off is not None:
        for e in range(layer.n_experts):
            idx = off[:, e].nonzero()[0]
            if idx.size:
                out_e = layer.experts.forward(e, tokens[idx])[0]
                dots[idx, e] = np.add.reduce(out_e * upstream[idx], axis=1)
    d_tokens += layer.router.backward(decision, weights, dots, tokens)
    return d_tokens
