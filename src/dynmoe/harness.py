"""Planted-skill tasks, the training loop, and fixed top-k baselines.

The synthetic task plants a known number of skills: orthonormal cluster
directions, each carrying its own linear labeling rule in the noise
subspace. Tokens of one skill stay mutually close in cosine and tokens of
different skills stay far, by construction, so the number of experts a
router "should" discover is known ground truth.

The model is deliberately small: tokens feed one or two residual MoE blocks
and a linear softmax head. That is enough to exercise variable-k routing,
the straight-through gradients, the auxiliary loss and the adaptive expert
process end to end, with runs measured in seconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adaptive import AdaptConfig, adapt, record
from .losses import AuxLossReport, diversity_simplicity_loss, get_plugin
from .moe_layer import (
    COMBINES,
    ExpertMlp,
    MoeLayer,
    _dispatch,
    _pairs_backward,
    experts_from_doc,
    experts_to_doc,
    layer_from_doc,
    layer_to_doc,
    moe_backward,
    moe_forward,
)
from .numerics import ConfigurationError, DivergenceError, Param
from .router import route_top_k_backward, route_top_k_baseline
from .telemetry import (
    MetricsLog,
    PassStats,
    expert_similarity_matrix,
    gate_threshold_dump,
)

MODEL_SCHEMA = "dynmoe-model/1"
TOPK_LAYER_SCHEMA = "dynmoe-topk-layer/1"


# --- synthetic planted-skill tasks ------------------------------------------

@dataclass
class SyntheticTask:
    """Tokens clustered around planted skill directions with per-skill labels.

    ``within_cosine_floor`` and ``cross_cosine_ceiling`` are deterministic
    bounds that hold for every pair by construction, not empirical
    estimates.
    """

    n_skills: int
    d: int
    tokens: np.ndarray     # (n, d), unit rows
    skill_ids: np.ndarray  # (n,) int64
    labels: np.ndarray     # (n,) int64 in {0, 1}
    generator_seed: int
    within_cosine_floor: float
    cross_cosine_ceiling: float
    skill_directions: np.ndarray  # (d, n_skills), orthonormal
    rule_directions: np.ndarray   # (d, n_skills), unit, orthogonal to all skills

    @property
    def n_samples(self) -> int:
        return self.tokens.shape[0]


def gen_task(
    n_skills: int,
    d: int,
    n_samples: int,
    seed: int,
    align_range: tuple[float, float] = (0.90, 0.98),
    label_margin: float = 0.15,
) -> SyntheticTask:
    """Deterministically generate a planted-skill task.

    Every token is cos(t) * u_skill + sin(t) * v with v a unit vector in the
    orthogonal complement of all skill directions, so within-skill pairwise
    cosine is at least 2 * lo^2 - 1 and cross-skill cosine is at most
    1 - lo^2 (lo being the lower alignment bound). The label is the sign of
    <token, rule_skill> where each rule direction also lives in the
    complement; the noise component is resampled until its projection on the
    rule clears ``label_margin``, keeping labels away from the boundary.
    """
    if n_skills < 1:
        raise ConfigurationError("need at least one skill")
    if n_skills + 2 > d:
        raise ConfigurationError(
            f"cannot plant {n_skills} near-orthogonal skill directions with "
            f"labeling headroom in dimension {d}; need d >= n_skills + 2"
        )
    if n_samples < 1:
        raise ConfigurationError("n_samples must be positive")
    lo, hi = align_range
    if not 0.0 < lo < hi < 1.0:
        raise ConfigurationError(f"align_range must satisfy 0 < lo < hi < 1, got {align_range}")

    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    skills = basis[:, :n_skills]
    complement = basis[:, n_skills:]
    n_comp = complement.shape[1]

    rules = np.zeros((d, n_skills))
    for s in range(n_skills):
        coeff = rng.standard_normal(n_comp)
        coeff /= np.linalg.norm(coeff)
        rules[:, s] = complement @ coeff

    tokens = np.zeros((n_samples, d))
    skill_ids = np.zeros(n_samples, dtype=np.int64)
    labels = np.zeros(n_samples, dtype=np.int64)
    for i in range(n_samples):
        s = i % n_skills
        cos_t = rng.uniform(lo, hi)
        sin_t = math.sqrt(1.0 - cos_t * cos_t)
        while True:
            coeff = rng.standard_normal(n_comp)
            norm = np.linalg.norm(coeff)
            if norm < 1e-12:
                continue
            v = complement @ (coeff / norm)
            proj = float(v @ rules[:, s])
            if abs(proj) >= label_margin:
                break
        tokens[i] = cos_t * skills[:, s] + sin_t * v
        skill_ids[i] = s
        labels[i] = 1 if proj > 0.0 else 0

    return SyntheticTask(
        n_skills=n_skills,
        d=d,
        tokens=tokens,
        skill_ids=skill_ids,
        labels=labels,
        generator_seed=seed,
        within_cosine_floor=2.0 * lo * lo - 1.0,
        cross_cosine_ceiling=1.0 - lo * lo,
        skill_directions=skills,
        rule_directions=rules,
    )


# --- optimizers --------------------------------------------------------------

@dataclass
class OptimizerConfig:
    kind: str = "adam"  # "adam" or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in ("adam", "sgd"):
            raise ConfigurationError(f"unknown optimizer {self.kind!r}")


class Sgd:
    def __init__(self, lr: float) -> None:
        self.lr = lr

    def step(self, params) -> None:
        for p in params:
            p.value -= self.lr * p.grad

    def resize(self, param, keep, n_new, axis) -> None:
        pass

    def drop(self, param) -> None:
        pass


class Adam:
    """Adam with per-Param moment state that survives expert resizes.

    When the adaptive process removes or appends expert slots, ``resize``
    remaps the moment arrays: surviving entries keep their state, new slots
    start at zero. The per-Param step counter is shared across a Param's
    entries, so a freshly appended column sees nearly uncorrected (small)
    moments for its first updates, which is the conservative choice.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[Param, dict] = {}

    def step(self, params) -> None:
        for p in params:
            st = self.state.get(p)
            if st is None:
                st = {"m": np.zeros_like(p.value), "v": np.zeros_like(p.value), "t": 0}
                self.state[p] = st
            st["t"] += 1
            st["m"] = self.beta1 * st["m"] + (1.0 - self.beta1) * p.grad
            st["v"] = self.beta2 * st["v"] + (1.0 - self.beta2) * p.grad**2
            m_hat = st["m"] / (1.0 - self.beta1 ** st["t"])
            v_hat = st["v"] / (1.0 - self.beta2 ** st["t"])
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def resize(self, param, keep, n_new, axis) -> None:
        st = self.state.get(param)
        if st is None:
            return
        for key in ("m", "v"):
            kept = np.take(st[key], keep, axis=axis)
            if n_new:
                pad_shape = list(kept.shape)
                pad_shape[axis] = n_new
                kept = np.concatenate([kept, np.zeros(pad_shape)], axis=axis)
            st[key] = kept

    def drop(self, param) -> None:
        self.state.pop(param, None)


def make_optimizer(cfg: "TrainConfig"):
    oc = cfg.optimizer
    if oc.kind == "sgd":
        return Sgd(cfg.learning_rate)
    return Adam(cfg.learning_rate, oc.beta1, oc.beta2, oc.eps)


# --- model -------------------------------------------------------------------

class DynMoeBlock:
    """Residual block around one adaptive-routing MoE layer."""

    def __init__(self, layer: MoeLayer, combine: str = "mean", detach_router_tokens: bool = False):
        self.layer = layer
        self.combine = combine
        self.detach_router_tokens = detach_router_tokens

    def forward(self, x, mode):
        out, decision = moe_forward(self.layer, x, mode, self.combine)
        return x + out, (x, decision)

    def backward(self, cache, d_out):
        x, decision = cache
        return d_out + moe_backward(self.layer, decision, x, d_out, self.detach_router_tokens)

    def params(self):
        return self.layer.params()

    @property
    def n_experts(self):
        return self.layer.n_experts


class TopKMoeBlock:
    """Residual block around a fixed top-k softmax-routed MoE layer.

    Experts run pair-wise, as in the DynMoE layer: each on the tokens that
    selected it. The selection set is held fixed in the backward, so no
    unselected pair is ever computed.
    """

    def __init__(self, w_g: Param, experts: list[ExpertMlp], top_k: int, d: int, h: int):
        self.w_g = w_g
        self.experts = experts
        self.top_k = top_k
        self.d = d
        self.h = h

    @classmethod
    def random(cls, d, h, n_experts, top_k, rng):
        if not 1 <= top_k <= n_experts:
            raise ConfigurationError(f"top_k {top_k} not in [1, {n_experts}]")
        w_g = Param(rng.standard_normal((d, n_experts)) / math.sqrt(d), name="w_g")
        experts = [ExpertMlp.random(d, h, rng) for _ in range(n_experts)]
        return cls(w_g=w_g, experts=experts, top_k=top_k, d=d, h=h)

    def forward(self, x, mode):
        decision = route_top_k_baseline(x, self.w_g, self.top_k)
        y, pairs = _dispatch(self.experts, x, decision.mask, decision.weights,
                             keep_cache=mode == "train")
        return x + y, (x, decision, pairs)

    def backward(self, cache, d_out):
        x, decision, pairs = cache
        d_expert, d_weights = _pairs_backward(self.experts, pairs, d_out, decision.weights)
        # d_weights is zero off the selected pairs; the router backward masks them anyway.
        return d_out + d_expert + route_top_k_backward(decision, d_weights, x, self.w_g)

    def params(self):
        out = [self.w_g]
        for expert in self.experts:
            out.extend(expert.params())
        return out

    @property
    def n_experts(self):
        return len(self.experts)


class MoeClassifier:
    """Token -> residual MoE block(s) -> linear softmax head."""

    def __init__(self, blocks, w_out: Param, b_out: Param):
        self.blocks = blocks
        self.w_out = w_out
        self.b_out = b_out

    @classmethod
    def build_dynmoe(cls, d, cfg: "TrainConfig", rng) -> "MoeClassifier":
        blocks = [
            DynMoeBlock(
                MoeLayer.random(d, cfg.hidden, cfg.init_experts, rng),
                combine=cfg.combine,
                detach_router_tokens=cfg.detach_router_tokens,
            )
            for _ in range(cfg.n_layers)
        ]
        head = Param(rng.standard_normal((d, cfg.n_classes)) / math.sqrt(d), name="w_out")
        return cls(blocks, head, Param(np.zeros(cfg.n_classes), name="b_out"))

    @classmethod
    def build_topk(cls, d, cfg: "TrainConfig", n_experts: int, top_k: int, rng) -> "MoeClassifier":
        blocks = [
            TopKMoeBlock.random(d, cfg.hidden, n_experts, top_k, rng)
            for _ in range(cfg.n_layers)
        ]
        head = Param(rng.standard_normal((d, cfg.n_classes)) / math.sqrt(d), name="w_out")
        return cls(blocks, head, Param(np.zeros(cfg.n_classes), name="b_out"))

    @property
    def kind(self) -> str:
        return "dynmoe" if isinstance(self.blocks[0], DynMoeBlock) else "topk"

    def forward(self, tokens, mode="train"):
        h = np.asarray(tokens, dtype=np.float64)
        caches = []
        for block in self.blocks:
            h, cache = block.forward(h, mode)
            caches.append(cache)
        logits = h @ self.w_out.value + self.b_out.value
        return logits, caches, h

    def backward(self, caches, h_final, d_logits):
        self.w_out.accumulate(h_final.T @ d_logits)
        self.b_out.accumulate(d_logits.sum(axis=0))
        dh = d_logits @ self.w_out.value.T
        for block, cache in zip(reversed(self.blocks), reversed(caches)):
            dh = block.backward(cache, dh)
        return dh

    def params(self):
        out = [self.w_out, self.b_out]
        for block in self.blocks:
            out.extend(block.params())
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def expert_counts(self) -> tuple[int, ...]:
        return tuple(block.n_experts for block in self.blocks)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy and its gradient wrt the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - log_norm
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float(-logp[idx, labels].mean())
    grad = np.exp(logp)
    grad[idx, labels] -= 1.0
    grad /= n
    return loss, grad


# --- configuration and results -----------------------------------------------

@dataclass
class TrainConfig:
    steps: int = 3000
    batch_size: int = 32
    learning_rate: float = 0.02
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    aux_loss_weight: float = 1.0
    adapt: AdaptConfig | None = field(default_factory=AdaptConfig)
    seed: int = 0
    eval_every: int = 500
    n_layers: int = 1
    hidden: int = 16
    init_experts: int = 2
    n_classes: int = 2
    combine: str = "mean"
    detach_router_tokens: bool = False
    plugins: tuple[tuple[str, float], ...] = ()
    eval_fraction: float = 0.2

    def __post_init__(self) -> None:
        for name in ("steps", "batch_size", "eval_every", "n_layers", "hidden",
                     "init_experts", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigurationError("eval_fraction must be in (0, 1)")
        if self.combine not in COMBINES:
            raise ConfigurationError(f"combine must be 'mean' or 'weighted', got {self.combine!r}")


@dataclass
class StepStats:
    task_loss: float
    aux: AuxLossReport | None  # None for baseline models
    mean_k: float
    n_experts: tuple[int, ...]
    accuracy: float


@dataclass
class RunResult:
    final_accuracy: float
    k_trajectory: list[tuple[int, tuple[int, ...]]]
    metrics: MetricsLog
    adapt_events: list[dict]
    model: MoeClassifier
    mean_k: float
    activated_params: float
    similarity: list
    config: TrainConfig


# --- training ----------------------------------------------------------------

def train_step(model: MoeClassifier, batch, cfg: TrainConfig, opt, plugins=()) -> StepStats:
    """One optimizer update: task loss, auxiliary losses, routing records."""
    tokens, labels = batch
    model.zero_grad()
    logits, caches, h_final = model.forward(tokens, mode="train")
    task_loss, d_logits = softmax_cross_entropy(logits, labels)
    if not np.isfinite(task_loss):
        raise DivergenceError("non-finite task loss")
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    model.backward(caches, h_final, d_logits)

    aux_report = None
    k_values = []
    if model.kind == "dynmoe":
        diversity = simplicity = 0.0
        extra: dict[str, float] = {}
        for block, cache in zip(model.blocks, caches):
            x_in, decision = cache
            k_values.append(float(decision.k.mean()))
            rep = diversity_simplicity_loss(block.layer.router.w_g, weight=cfg.aux_loss_weight)
            diversity += rep.diversity
            simplicity += rep.simplicity
            for name, plugin, weight in plugins:
                value, grad_mask = plugin(decision, decision.sig_s, block.layer.router)
                extra[name] = extra.get(name, 0.0) + value
                if grad_mask is not None:
                    from .router import route_top_any_backward

                    route_top_any_backward(
                        decision, weight * grad_mask, x_in, block.layer.router,
                        propagate_to_tokens=False,
                    )
            if block.layer.record.recording:
                record(block.layer.record, decision, x_in)
        aux_report = AuxLossReport(
            diversity=diversity, simplicity=simplicity,
            total=diversity + simplicity + sum(extra.values()), extra=extra,
        )
    else:
        for cache in caches:
            k_values.append(float(cache[1].k.mean()))

    opt.step(model.params())
    mean_k = float(np.mean(k_values))
    if aux_report is not None and not np.isfinite(aux_report.total):
        raise DivergenceError("non-finite auxiliary loss")
    return StepStats(
        task_loss=task_loss,
        aux=aux_report,
        mean_k=mean_k,
        n_experts=model.expert_counts(),
        accuracy=accuracy,
    )


def evaluate(model: MoeClassifier, tokens, labels):
    """Accuracy plus per-layer routing statistics under eval-mode routing."""
    logits, caches, _ = model.forward(tokens, mode="eval")
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    stats = [PassStats.from_decisions([cache[1]]) for cache in caches]
    return accuracy, stats, caches


def log_eval(metrics: MetricsLog, step: int, model: MoeClassifier, accuracy, stats):
    metrics.append(step, -1, "eval_accuracy", accuracy)
    for li, (block, ps) in enumerate(zip(model.blocks, stats)):
        metrics.append(step, li, "activation_frequency", ps.activation_frequency)
        metrics.append(step, li, "avg_top_k", ps.mean_top_k)
        metrics.append(step, li, "topk_frequency", ps.topk_frequency)
        if isinstance(block, DynMoeBlock):
            metrics.append(step, li, "gate_thresholds", gate_threshold_dump(block.layer.router))
        metrics.append(step, li, "n_experts", float(block.n_experts))


def activated_params_total(model: MoeClassifier, stats) -> float:
    """Mean parameters exercised per token: each layer's router (w_g, plus g
    under DynMoE) and its mean number of activated experts."""
    total = 0.0
    for block, ps in zip(model.blocks, stats):
        if isinstance(block, DynMoeBlock):
            router = block.layer.d * block.n_experts + block.n_experts
            per_expert = block.layer.experts[0].param_count()
        else:
            router = block.d * block.n_experts
            per_expert = block.experts[0].param_count()
        total += router + ps.mean_top_k * per_expert
    return total


def similarity_snapshot(model: MoeClassifier):
    snaps = []
    for li, block in enumerate(model.blocks):
        if isinstance(block, DynMoeBlock):
            snaps.append({"layer": li, "matrix": expert_similarity_matrix(block.layer.router).tolist()})
    return snaps


def split_task(task: SyntheticTask, cfg: TrainConfig):
    """Deterministic train/eval split driven by the config seed."""
    split_rng = np.random.default_rng([cfg.seed, task.generator_seed, 0x5EED])
    perm = split_rng.permutation(task.n_samples)
    n_eval = max(1, int(task.n_samples * cfg.eval_fraction))
    return perm[n_eval:], perm[:n_eval]


def _run(task: SyntheticTask, cfg: TrainConfig, model: MoeClassifier, rng) -> RunResult:
    train_idx, eval_idx = split_task(task, cfg)
    eval_tokens, eval_labels = task.tokens[eval_idx], task.labels[eval_idx]
    opt = make_optimizer(cfg)
    plugins = [(name, get_plugin(name), weight) for name, weight in cfg.plugins]

    metrics = MetricsLog()
    k_traj = [(0, model.expert_counts())]
    adapt_events: list[dict] = []

    adapting = cfg.adapt is not None and model.kind == "dynmoe"
    if adapting:
        interval = cfg.adapt.check_interval
        start_pos = int(math.floor(cfg.adapt.record_window[0] * interval))
        end_pos = int(math.floor(cfg.adapt.record_window[1] * interval))
        end_pos = min(max(end_pos, start_pos + 1), interval)

    order = np.array([], dtype=np.int64)
    cursor = 0
    last_stats: StepStats | None = None
    for step in range(cfg.steps):
        if cursor + cfg.batch_size > order.size:
            order = rng.permutation(train_idx)
            cursor = 0
        batch_idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size

        if adapting and step % interval == start_pos:
            for block in model.blocks:
                block.layer.record.start()

        last_stats = train_step(
            model, (task.tokens[batch_idx], task.labels[batch_idx]), cfg, opt, plugins
        )

        if adapting and step % interval == end_pos - 1 and model.blocks[0].layer.record.recording:
            for li, block in enumerate(model.blocks):
                layer = block.layer
                prev_experts = list(layer.experts)
                prev_k = len(prev_experts)
                report = adapt(layer, layer.record, cfg.adapt, rng)
                keep = [e for e in range(prev_k) if e not in report.removed_experts]
                opt.resize(layer.router.w_g, keep, int(report.added), axis=1)
                opt.resize(layer.router.g, keep, int(report.added), axis=0)
                for e in report.removed_experts:
                    for p in prev_experts[e].params():
                        opt.drop(p)
                event = {"step": step, "layer": li, **report.to_dict()}
                adapt_events.append(event)
                metrics.append(
                    step, li, "adapt_event",
                    [float(len(report.removed_experts)), float(report.added),
                     float(report.new_k_total)],
                )
            k_traj.append((step, model.expert_counts()))

        if (step + 1) % cfg.eval_every == 0 or step + 1 == cfg.steps:
            accuracy, stats, _ = evaluate(model, eval_tokens, eval_labels)
            log_eval(metrics, step + 1, model, accuracy, stats)
            metrics.append(step + 1, -1, "train_task_loss", last_stats.task_loss)
            metrics.append(step + 1, -1, "train_mean_k", last_stats.mean_k)
            if last_stats.aux is not None:
                metrics.append(step + 1, -1, "aux_total", last_stats.aux.total)

    final_accuracy, stats, _ = evaluate(model, eval_tokens, eval_labels)
    mean_k = float(np.mean([ps.mean_top_k for ps in stats]))
    return RunResult(
        final_accuracy=final_accuracy,
        k_trajectory=k_traj,
        metrics=metrics,
        adapt_events=adapt_events,
        model=model,
        mean_k=mean_k,
        activated_params=activated_params_total(model, stats),
        similarity=similarity_snapshot(model),
        config=cfg,
    )


def train_loop(task: SyntheticTask, cfg: TrainConfig) -> RunResult:
    """Train an adaptive-routing model on the task; deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    model = MoeClassifier.build_dynmoe(task.d, cfg, rng)
    return _run(task, cfg, model, rng)


def run_baseline(task: SyntheticTask, cfg: TrainConfig, n_experts: int, top_k: int) -> RunResult:
    """Same harness with a fixed softmax top-k router, for head-to-head tables."""
    if not 1 <= top_k <= n_experts:
        raise ConfigurationError(f"top_k {top_k} not in [1, {n_experts}]")
    rng = np.random.default_rng(cfg.seed)
    model = MoeClassifier.build_topk(task.d, cfg, n_experts, top_k, rng)
    return _run(task, cfg, model, rng)


# --- model checkpointing -----------------------------------------------------

def _topk_block_to_doc(block: TopKMoeBlock) -> dict:
    return {
        "schema": TOPK_LAYER_SCHEMA,
        "d": block.d,
        "h": block.h,
        "top_k": block.top_k,
        "w_g": block.w_g.value.tolist(),
        "experts": experts_to_doc(block.experts),
    }


def _topk_block_from_doc(doc: dict) -> TopKMoeBlock:
    if doc.get("schema") != TOPK_LAYER_SCHEMA:
        raise ValueError(f"unsupported top-k layer schema {doc.get('schema')!r}")
    return TopKMoeBlock(
        w_g=Param(np.array(doc["w_g"]), name="w_g"),
        experts=experts_from_doc(doc["experts"]),
        top_k=doc["top_k"],
        d=doc["d"],
        h=doc["h"],
    )


def model_to_doc(model: MoeClassifier) -> dict:
    doc = {
        "schema": MODEL_SCHEMA,
        "kind": model.kind,
        "head_w": model.w_out.value.tolist(),
        "head_b": model.b_out.value.tolist(),
        "layers": [],
    }
    for block in model.blocks:
        if isinstance(block, DynMoeBlock):
            doc["layers"].append(layer_to_doc(block.layer))
            doc["combine"] = block.combine
        else:
            doc["layers"].append(_topk_block_to_doc(block))
    return doc


def model_from_doc(doc: dict) -> MoeClassifier:
    if doc.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema {doc.get('schema')!r}")
    blocks = []
    for layer_doc in doc["layers"]:
        if doc["kind"] == "dynmoe":
            blocks.append(DynMoeBlock(layer_from_doc(layer_doc), combine=doc.get("combine", "mean")))
        else:
            blocks.append(_topk_block_from_doc(layer_doc))
    return MoeClassifier(
        blocks,
        Param(np.array(doc["head_w"]), name="w_out"),
        Param(np.array(doc["head_b"]), name="b_out"),
    )


def save_model(model: MoeClassifier, path) -> None:
    Path(path).write_text(json.dumps(model_to_doc(model), sort_keys=True))


def load_model(path) -> MoeClassifier:
    return model_from_doc(json.loads(Path(path).read_text()))
