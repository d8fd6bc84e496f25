"""Evaluation-pass metrics and the append-only run log.

Metrics are computed over the decisions of a dedicated evaluation pass (the
top-1 fallback active), matching how the training loop snapshots routing
behavior. The identities the test suite relies on (sum of activation
frequencies equals the mean activation count; the top-k histogram sums to
one) are checked here in exact integer arithmetic before any float division
happens.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .numerics import DegenerateInputError
from .router import RouterParams

METRICS_SCHEMA = "dynmoe-metrics/1"


@dataclass
class PassStats:
    """Integer routing counters for one evaluation pass.

    Frequencies derive from these by a single division, so identities that
    must hold exactly are asserted on the counters themselves.
    """

    counts: np.ndarray  # (K,) activations per expert
    hist: np.ndarray    # (K+1,) tokens indexed by their activation count
    n_tokens: int
    k_total: int

    @classmethod
    def from_decisions(cls, decisions: Iterable) -> "PassStats":
        decisions = list(decisions)
        if not decisions:
            raise ValueError("empty evaluation pass")
        n_experts = decisions[0].mask.shape[1]
        counts = np.zeros(n_experts, dtype=np.int64)
        hist = np.zeros(n_experts + 1, dtype=np.int64)
        n_tokens = 0
        k_total = 0
        for dec in decisions:
            if dec.mask.shape[1] != n_experts:
                raise ValueError("mixed expert counts within one pass")
            counts += dec.mask.sum(axis=0).astype(np.int64)
            hist += np.bincount(dec.k, minlength=n_experts + 1).astype(np.int64)
            n_tokens += dec.mask.shape[0]
            k_total += int(dec.k.sum())
        if n_tokens == 0:
            raise ValueError("evaluation pass contained zero tokens")
        stats = cls(counts=counts, hist=hist, n_tokens=n_tokens, k_total=k_total)
        # Exact-accounting identities, checked before any float division.
        assert int(stats.counts.sum()) == stats.k_total
        assert int(stats.hist.sum()) == stats.n_tokens
        return stats

    @property
    def activation_frequency(self) -> np.ndarray:
        """Per-expert activations over tokens; sums to the mean activation
        count per token, not to one."""
        return self.counts / self.n_tokens

    @property
    def topk_frequency(self) -> np.ndarray:
        """Fraction of tokens activating exactly j experts, for j = 0..K."""
        return self.hist / self.n_tokens

    @property
    def mean_top_k(self) -> float:
        return self.k_total / self.n_tokens


def expert_similarity_matrix(router: RouterParams) -> np.ndarray:
    """Pairwise cosine similarity of expert representation columns.

    Symmetrized, with the diagonal pinned to exactly 1.
    """
    w = router.w_g.value
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero-norm expert column")
    normalized = w / norms[None, :]
    sim = normalized.T @ normalized
    sim = 0.5 * (sim + sim.T)
    np.fill_diagonal(sim, 1.0)
    return sim


def gate_threshold_dump(router: RouterParams) -> np.ndarray:
    """Raw per-expert threshold values (a lower value is easier to activate)."""
    return router.g.value.copy()


@dataclass
class MetricsRow:
    step: int
    layer: int  # -1 for model-level rows
    metric: str
    values: tuple[float, ...]


class MetricsLog:
    """Append-only metric rows with per-(layer, metric) step monotonicity."""

    def __init__(self) -> None:
        self.rows: list[MetricsRow] = []
        self._last_step: dict[tuple[int, str], int] = {}

    def append(self, step: int, layer: int, metric: str, values) -> None:
        key = (layer, metric)
        last = self._last_step.get(key)
        if last is not None and step < last:
            raise ValueError(
                f"step {step} for {metric!r} on layer {layer} precedes logged step {last}"
            )
        self._last_step[key] = step
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64)).reshape(-1)
        self.rows.append(MetricsRow(step=step, layer=layer, metric=metric,
                                    values=tuple(float(v) for v in arr)))

    def rows_for(self, metric: str) -> list[MetricsRow]:
        return [r for r in self.rows if r.metric == metric]

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            fh.write(f"# schema={METRICS_SCHEMA}\n")
            writer = csv.writer(fh)
            writer.writerow(["step", "layer", "metric", "index", "value"])
            for row in self.rows:
                for idx, value in enumerate(row.values):
                    writer.writerow([row.step, row.layer, row.metric, idx, repr(value)])

    @classmethod
    def read_csv(cls, path) -> "MetricsLog":
        path = Path(path)
        log = cls()
        grouped: dict[tuple[int, int, str], list[tuple[int, float]]] = {}
        order: list[tuple[int, int, str]] = []
        with path.open() as fh:
            first = fh.readline()
            if not first.startswith(f"# schema={METRICS_SCHEMA}"):
                raise ValueError(f"unsupported metrics schema line: {first.strip()!r}")
            reader = csv.DictReader(fh)
            for rec in reader:
                key = (int(rec["step"]), int(rec["layer"]), rec["metric"])
                if key not in grouped:
                    grouped[key] = []
                    order.append(key)
                grouped[key].append((int(rec["index"]), float(rec["value"])))
        for key in order:
            step, layer, metric = key
            values = [v for _, v in sorted(grouped[key])]
            log.append(step, layer, metric, values)
        return log
