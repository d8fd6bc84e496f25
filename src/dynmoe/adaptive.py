"""Routing records and the expert add / remove process.

During a recording window the training loop keeps one record per layer:
it counts, per expert, how many tokens activated it, and sums the
embeddings of tokens that activated nothing. The loop decides from the
step which steps record and when the window closes. Then experts nobody
used are deleted, and if any tokens went unserved a single new expert is
appended whose representation column is the normalized sum r_s of those
tokens (threshold zero). An unserved token x activates it iff
<x, r_s> > 0: every token of a cluster with pairwise-positive cosines does,
but not every unserved token in general. Its MLP weights are drawn fresh,
as the initial experts' are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import ConfigurationError, DimensionError
from .router import RouterParams


@dataclass
class RoutingRecord:
    """Per-interval routing counters for one layer.

    ``r_e[e]`` is the exact number of token activations of expert e since
    the last reset; ``r_s`` is the unnormalized sum of embeddings of tokens
    that activated no expert. ``adapt`` resets both.
    """

    r_e: np.ndarray  # (K,) int64
    r_s: np.ndarray  # (d,) float64

    @classmethod
    def fresh(cls, n_experts: int, dim: int) -> "RoutingRecord":
        return cls(r_e=np.zeros(n_experts, dtype=np.int64), r_s=np.zeros(dim))


def record(rec: RoutingRecord, decision, tokens: np.ndarray) -> None:
    """Accumulate one batch's routing outcome into the record.

    Increments ``r_e`` by the mask's column sums and ``r_s`` by the sum of
    token rows with k = 0.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if decision.mask.shape[1] != rec.r_e.shape[0]:
        raise DimensionError(
            f"decision has {decision.mask.shape[1]} experts, record has {rec.r_e.shape[0]}"
        )
    if tokens.shape != (decision.mask.shape[0], rec.r_s.shape[0]):
        raise DimensionError(
            f"tokens shape {tokens.shape} inconsistent with decision/record"
        )
    rec.r_e += np.add.reduce(decision.mask, axis=0).astype(np.int64)
    empty = decision.k == 0
    if empty.any():
        rec.r_s += np.add.reduce(tokens[empty], axis=0)


@dataclass
class AdaptConfig:
    """Knobs for the adaptive process.

    ``record_window`` is a (start, end) fraction pair inside each check
    interval; routing is recorded between those positions and the add /
    remove decision runs when the window closes.
    """

    max_experts: int = 16
    check_interval: int = 100
    record_window: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0)

    def __post_init__(self) -> None:
        if self.max_experts < 1:
            raise ConfigurationError(f"max_experts must be positive, got {self.max_experts}")
        if self.check_interval < 1:
            raise ConfigurationError("check_interval must be positive")
        start, end = self.record_window
        if not 0.0 <= start < end <= 1.0:
            raise ConfigurationError(f"record_window must satisfy 0 <= start < end <= 1, got {self.record_window}")


@dataclass
class AdaptReport:
    """Audit trail of one adapt call."""

    removed_experts: list[int] = field(default_factory=list)
    added: bool = False
    new_k_total: int = 0
    clamped: bool = False  # every expert went unused; the lowest-index one was kept


def adapt(layer, rec: RoutingRecord, cfg: AdaptConfig, rng: np.random.Generator) -> AdaptReport:
    """Remove never-activated experts, then add one if tokens went unserved.

    Removal first: every expert with a zero activation count is deleted
    (its representation column, threshold and weights), except that when
    every expert went unused the lowest-index one is kept.
    Then, if the record holds unserved-token mass and there is room under
    ``cfg.max_experts``, one expert is appended with representation column
    r_s / |r_s|, threshold 0 and MLP weights drawn from ``rng`` as
    ``ExpertMlp.random`` draws them.
    Both steps take or append one slice along the expert axis of every
    tensor in ``layer.expert_indexed()``. The record is reset either way.
    ``ConfigurationError`` if the layer's router is not top-any, and
    ``DimensionError`` if the record does not fit the layer's K and d; either
    is raised before anything changes.
    """
    if not isinstance(layer.router, RouterParams):
        raise ConfigurationError(f"adapt resizes top-any layers only, not a "
                                 f"{type(layer.router).__name__} layer")
    n_before = layer.n_experts
    if rec.r_e.shape != (n_before,) or rec.r_s.shape != (layer.d,):
        raise DimensionError(f"record of shapes {rec.r_e.shape} and {rec.r_s.shape} does not "
                             f"fit a layer of {n_before} experts and d={layer.d}")
    report = AdaptReport(new_k_total=n_before)

    removed = [e for e in range(n_before) if rec.r_e[e] == 0]
    if len(removed) == n_before:
        report.clamped = True
        removed = removed[1:]
    keep = [e for e in range(n_before) if e not in removed]
    if removed:
        for p, axis in layer.expert_indexed():
            p.replace(np.take(p.value, keep, axis=axis))
        report.removed_experts = removed

    r_s_norm = float(np.linalg.norm(rec.r_s))
    if r_s_norm > 0.0 and len(keep) < cfg.max_experts:
        fresh = type(layer.experts).random(layer.d, layer.h, 1, rng)
        new = [rec.r_s / r_s_norm, 0.0, *(p.value[0] for p in fresh.params())]
        for (p, axis), value in zip(layer.expert_indexed(), new):
            p.replace(np.concatenate([p.value, np.expand_dims(value, axis)], axis=axis))
        report.added = True

    report.new_k_total = layer.n_experts
    assert report.new_k_total == n_before - len(report.removed_experts) + int(report.added)
    assert 1 <= report.new_k_total <= cfg.max_experts

    rec.r_e = np.zeros(report.new_k_total, dtype=np.int64)
    rec.r_s = np.zeros_like(rec.r_s)
    layer.validate()
    return report
