"""Routing records and the expert add / remove process.

During a recording window the layer counts, per expert, how many tokens
activated it, and sums the embeddings of tokens that activated nothing.
When the window closes, experts nobody used are deleted, and if any tokens
went unserved a single new expert is appended whose representation column
is the normalized sum of those tokens (threshold zero), so the very tokens
that triggered the addition are guaranteed to activate it. Its MLP weights
are drawn fresh, as the initial experts' are.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .numerics import ConfigurationError, DimensionError

log = logging.getLogger(__name__)


@dataclass
class RoutingRecord:
    """Per-interval routing counters for one layer.

    ``r_e[e]`` is the exact number of token activations of expert e since
    recording started; ``r_s`` is the unnormalized sum of embeddings of
    tokens that activated no expert. Both reset when recording starts.
    """

    r_e: np.ndarray  # (K,) int64
    r_s: np.ndarray  # (d,) float64
    recording: bool = False
    skipped_batches: int = 0

    @classmethod
    def fresh(cls, n_experts: int, dim: int) -> "RoutingRecord":
        return cls(r_e=np.zeros(n_experts, dtype=np.int64), r_s=np.zeros(dim))

    def start(self) -> None:
        self.r_e[:] = 0
        self.r_s[:] = 0.0
        self.recording = True


def record(rec: RoutingRecord, decision, tokens: np.ndarray) -> RoutingRecord:
    """Accumulate one batch's routing outcome into the record.

    Increments ``r_e`` by the mask's column sums and ``r_s`` by the sum of
    token rows with k = 0. Calling this while not recording is a counted
    no-op, not an error, because the window flags are driven externally.
    """
    if not rec.recording:
        rec.skipped_batches += 1
        log.warning("record() called outside a recording window; ignored")
        return rec
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
    return rec


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
    min_experts: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.min_experts <= self.max_experts:
            raise ConfigurationError(
                f"need 1 <= min_experts <= max_experts, got {self.min_experts}, {self.max_experts}"
            )
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
    clamped: bool = False  # removal was limited by min_experts

    def to_dict(self) -> dict:
        return {
            "removed_experts": list(self.removed_experts),
            "added": self.added,
            "new_k_total": self.new_k_total,
            "clamped": self.clamped,
        }


def adapt(layer, rec: RoutingRecord, cfg: AdaptConfig, rng: np.random.Generator) -> AdaptReport:
    """Remove never-activated experts, then add one if tokens went unserved.

    Removal first: every expert with a zero activation count is deleted
    (its representation column, threshold and weights), keeping at least
    ``cfg.min_experts`` (the lowest-index candidates survive a clamp).
    Then, if the record holds unserved-token mass and there is room under
    ``cfg.max_experts``, one expert is appended with representation column
    r_s / |r_s|, threshold 0 and MLP weights drawn from ``rng`` as
    ``ExpertMlp.random`` draws them.
    Both steps take or append one slice along the expert axis of every
    tensor in ``layer.expert_indexed()``. The record is reset either way.
    """
    n_before = layer.n_experts
    report = AdaptReport(new_k_total=n_before)

    candidates = [e for e in range(n_before) if rec.r_e[e] == 0]
    removable = n_before - cfg.min_experts
    if len(candidates) > removable:
        report.clamped = True
        n_drop = max(removable, 0)
        removed = candidates[len(candidates) - n_drop:]
    else:
        removed = candidates
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
    assert cfg.min_experts <= report.new_k_total <= cfg.max_experts

    rec.r_e = np.zeros(report.new_k_total, dtype=np.int64)
    rec.r_s = np.zeros_like(rec.r_s)
    rec.recording = False
    layer.validate()
    return report
