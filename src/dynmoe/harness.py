"""Planted-skill tasks, the training loop, and fixed top-k baselines.

The synthetic task plants a known number of skills: orthonormal cluster
directions, each carrying its own linear labeling rule in the noise
subspace. Tokens of one skill stay mutually close in cosine and tokens of
different skills stay far, by construction, so the number of experts a
router "should" discover is known ground truth.

The model is deliberately small: tokens feed one or two residual MoE layers
and a linear softmax head. That is enough to exercise variable-k routing,
the straight-through gradients, the auxiliary loss and the adaptive expert
process end to end, with runs measured in seconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .adaptive import AdaptConfig, RoutingRecord, adapt, record
from .losses import AuxLossReport, diversity_simplicity_loss
from .moe_layer import EXPERT_TENSORS, ExpertMlp, MoeLayer, moe_backward, moe_forward
from .numerics import ConfigurationError, DivergenceError, Param
from .router import RouterParams, TopKRouter
from .telemetry import MetricsLog, PassStats, expert_similarity_matrix

# gen_task builds tokens this many rows at a time (the rows do not depend on
# it), and lets the exact projection decide a draw this close to a decision.
_TASK_BLOCK_ROWS = 256
_PROJ_GUARD = 1e-9


# --- synthetic planted-skill tasks ------------------------------------------

# gen_task labels are binary, so the head has two logits; split_task holds
# out this share of a task's rows for evaluation.
N_CLASSES = 2
EVAL_FRACTION = 0.2


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


def check_task_args(n_skills: int, d: int, n_samples: int, seed: int, align_range=None, label_margin=None) -> None:
    """Raise ``ConfigurationError`` unless :func:`gen_task` can build a task
    from these arguments (the optional ones are checked when given)."""
    if n_skills < 1:
        raise ConfigurationError("need at least one skill")
    if n_skills + 2 > d:
        raise ConfigurationError(
            f"cannot plant {n_skills} near-orthogonal skill directions with "
            f"labeling headroom in dimension {d}; need d >= n_skills + 2"
        )
    if n_samples < 1:
        raise ConfigurationError("n_samples must be positive")
    if seed < 0:
        raise ConfigurationError("seed must be non-negative")
    if align_range is not None and not 0.0 < align_range[0] < align_range[1] < 1.0:
        raise ConfigurationError(f"align_range must satisfy 0 < lo < hi < 1, got {align_range}")
    if label_margin is not None and not 0.0 <= label_margin < 1.0:
        raise ConfigurationError(f"label_margin must satisfy 0 <= label_margin < 1, got {label_margin}")


def _rule_projection(complement, coeff, norm, rule) -> float:
    """<complement @ (coeff / norm), rule>, rounded as the token's own noise part."""
    return float((complement @ (coeff / norm)) @ rule)


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
    The margin must lie in [0, 1), as a projection is at most 1; one just
    below 1 terminates only in expectation, after very many draws per token.

    Rows are drawn in sequence, so the same seed with more samples extends
    a task: its first ``n_samples`` rows are this task's.
    """
    check_task_args(n_skills, d, n_samples, seed, align_range, label_margin)
    lo, hi = align_range
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    skills = basis[:, :n_skills]
    complement = basis[:, n_skills:]
    n_comp = complement.shape[1]

    rules = np.zeros((d, n_skills))
    rule_coeffs = []
    for s in range(n_skills):
        coeff = rng.standard_normal(n_comp)
        coeff /= np.linalg.norm(coeff)
        rules[:, s] = complement @ coeff
        rule_coeffs.append(coeff)

    tokens = np.empty((n_samples, d))
    skill_ids = np.arange(n_samples, dtype=np.int64) % n_skills
    labels = np.empty(n_samples, dtype=np.int64)
    cos_t = np.empty(n_samples)
    units = np.empty((_TASK_BLOCK_ROWS, n_comp))
    for start in range(0, n_samples, _TASK_BLOCK_ROWS):
        stop = min(start + _TASK_BLOCK_ROWS, n_samples)
        for i in range(start, stop):
            s = i % n_skills
            cos_t[i] = rng.uniform(lo, hi)
            while True:
                coeff = rng.standard_normal(n_comp)
                norm = math.sqrt(coeff.dot(coeff))  # np.linalg.norm's own expression
                if norm < 1e-12:
                    continue
                # Orthonormal complement columns: the exact projection up to rounding.
                proj = coeff.dot(rule_coeffs[s]) / norm
                if abs(proj) < _PROJ_GUARD or abs(abs(proj) - label_margin) < _PROJ_GUARD:
                    proj = _rule_projection(complement, coeff, norm, rules[:, s])
                if abs(proj) >= label_margin:
                    break
            np.divide(coeff, norm, out=units[i - start])
            labels[i] = 1 if proj > 0.0 else 0
        # One gemv per row, as ``complement @ unit``; one gemm would round differently.
        block = tokens[start:stop]
        np.matmul(complement, units[:stop - start, :, None], out=block[:, :, None])
        c = cos_t[start:stop]
        block *= np.sqrt(1.0 - c * c)[:, None]
        block += c[:, None] * skills.T[skill_ids[start:stop]]

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

class Adam:
    """Adam over one fixed list of Params, updated as flat vectors.

    The first ``step`` binds the optimizer to its list of Params (a later
    ``step`` with another list raises ``ValueError``) and copies every
    value and gradient into two flat vectors, rebinding ``p.value`` and
    ``p.grad`` to views of them; a step is then one set of vector
    operations for the whole model. After a ``Param.replace`` has swapped a
    Param's storage, the next step copies everything in again.

    The moments ``m``, ``v`` and a step count ``t`` per entry sit in flat
    vectors of the same layout. When the adaptive process removes or
    appends expert slots, ``resize`` remaps that Param's share of them:
    surviving entries keep their state, new entries get zero moments. A
    Param marked ``slot_steps`` (the expert tensors) gives appended entries
    the count 0, so an appended expert starts its bias correction at step 1
    as a fresh Param would. Every other Param keeps one count on all its
    entries (the router's ``w_g`` and ``g``), which appended entries take
    over. A column appended to those after t steps gets zero moments but the
    bias correction of step t + 1, and so larger first updates than a fresh
    Param: at lr=1 with a unit gradient a fresh Param moves 1.0 per update,
    while a column appended after 500 steps moves 1.99 on its first update
    and up to 4.16 later (3.08 and 6.41 after 3000 steps).
    """

    # the standard constants of Kingma & Ba (arXiv 1412.6980)
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self._params: list[Param] = []
        self._shapes: list[tuple[int, ...]] = []  # the shape each Param's state has
        self._value = self._grad = None           # flat storage the Params view
        self._m = self._v = np.zeros(0)
        self._t = np.zeros(0, dtype=np.int64)
        self._n_steps = 0  # no entry's count exceeds the steps taken
        # 1 - beta**n from Python float powers, indexed by n: np.power can
        # differ from them in the last bit.
        self._c1 = self._c2 = np.zeros(0)

    def _bounds(self):
        ends = np.cumsum([math.prod(shape) for shape in self._shapes]).tolist()
        return zip(self._params, [0] + ends[:-1], ends, self._shapes)

    def moments(self, param) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of ``param``'s ``m``, ``v`` and per-entry step counts,
        shaped like its state."""
        for p, a, b, shape in self._bounds():
            if p is param:
                return tuple(x[a:b].reshape(shape) for x in (self._m, self._v, self._t))
        raise KeyError(f"no optimizer state for param {param.name!r}")

    def _pack(self) -> None:
        """Copy every value and gradient into fresh flat vectors and rebind
        the Params to views of them."""
        for p, shape in zip(self._params, self._shapes):
            if p.shape != shape:
                raise ValueError(f"param {p.name!r} changed shape {shape} -> {p.shape} "
                                 "without an optimizer resize")
        self._value = np.concatenate([p.value.ravel() for p in self._params])
        self._grad = np.concatenate([p.grad.ravel() for p in self._params])
        for p, a, b, shape in self._bounds():
            p.value = self._value[a:b].reshape(shape)
            p.grad = self._grad[a:b].reshape(shape)
        self._scratch = np.empty((2, self._value.size))  # every temporary of a step
        # Entries share counts in long runs (one per expert slot at most), so
        # a step expands one correction per run instead of gathering one per
        # entry, which costs several times more at mid size.
        starts = np.flatnonzero(np.diff(self._t)) + 1
        self._run_starts = np.concatenate([[0], starts])
        self._run_lengths = np.diff(np.concatenate([self._run_starts, [self._t.size]]))

    def step(self, params) -> None:
        if not self._params:
            self._params = list(params)
            self._shapes = [p.shape for p in self._params]
            size = sum(p.value.size for p in self._params)
            self._m, self._v = np.zeros((2, size))
            self._t = np.zeros(size, dtype=np.int64)
        elif list(params) != self._params:
            raise ValueError("Adam steps one fixed list of Params; got a different list")
        if self._value is None or any(p.value.base is not self._value or p.grad.base is not self._grad
                                      for p in self._params):
            self._pack()
        self._n_steps += 1
        if self._n_steps >= self._c1.size:
            self._c1, self._c2 = (np.array([1.0 - beta**k for k in range(2 * self._n_steps)])
                                  for beta in (self.beta1, self.beta2))
        m, v, t, g = self._m, self._v, self._t, self._grad
        update, denom = self._scratch
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=update)
        m += update
        v *= self.beta2
        np.square(g, out=update)
        update *= 1.0 - self.beta2
        v += update
        t += 1
        run_t = t[self._run_starts]
        # lr * m_hat / (sqrt(v_hat) + eps), in this operation order
        np.divide(m, self._c1.take(run_t).repeat(self._run_lengths), out=update)
        update *= self.lr
        np.divide(v, self._c2.take(run_t).repeat(self._run_lengths), out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self._value -= update

    def resize(self, param, keep, n_new, axis) -> None:
        if param not in self._params:
            return
        pieces = []
        for p, a, b, shape in self._bounds():
            m, v, t = (x[a:b].reshape(shape) for x in (self._m, self._v, self._t))
            if p is param:
                fill = 0 if p.slot_steps else int(t.flat[0])
                m, v, t = (np.take(x, keep, axis=axis) for x in (m, v, t))
                if n_new:
                    pad_shape = list(m.shape)
                    pad_shape[axis] = n_new
                    m, v = (np.concatenate([x, np.zeros(pad_shape)], axis=axis) for x in (m, v))
                    t = np.concatenate([t, np.full(pad_shape, fill, dtype=np.int64)], axis=axis)
                new_shape = m.shape
            pieces.append((m.ravel(), v.ravel(), t.ravel()))
        self._shapes[self._params.index(param)] = new_shape
        self._m, self._v, self._t = (np.concatenate(x) for x in zip(*pieces))
        self._value = None  # the layout moved: the next step packs again


# --- model -------------------------------------------------------------------

class MoeClassifier:
    """Token -> residual MoE layer(s) -> linear softmax head."""

    def __init__(self, layers: list[MoeLayer], w_out: Param, b_out: Param):
        self.layers = layers
        self.w_out = w_out
        self.b_out = b_out

    @classmethod
    def random(cls, cfg: "TrainConfig", new_router, rng) -> "MoeClassifier":
        """``cfg.n_layers`` layers, each a router ``new_router(rng)`` and its
        random experts, then the head, all drawn from ``rng`` in that order."""
        layers = [MoeLayer.around(new_router(rng), cfg.hidden, rng) for _ in range(cfg.n_layers)]
        d = layers[0].d
        head = Param(rng.standard_normal((d, N_CLASSES)) / math.sqrt(d), name="w_out")
        return cls(layers, head, Param(np.zeros(N_CLASSES), name="b_out"))

    def forward(self, tokens, mode="train"):
        h = np.asarray(tokens, dtype=np.float64)
        caches = []
        for layer in self.layers:
            out, decision = moe_forward(layer, h, mode)
            caches.append((h, decision))
            h = h + out
        logits = h @ self.w_out.value + self.b_out.value
        return logits, caches, h

    def backward(self, caches, h_final, d_logits):
        self.w_out.accumulate(h_final.T @ d_logits)
        self.b_out.accumulate(np.add.reduce(d_logits, axis=0))
        dh = d_logits @ self.w_out.value.T
        for layer, (x, decision) in zip(reversed(self.layers), reversed(caches)):
            dh = dh + moe_backward(layer, decision, x, dh)
        return dh

    def params(self):
        out = [self.w_out, self.b_out]
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def expert_counts(self) -> tuple[int, ...]:
        return tuple(layer.n_experts for layer in self.layers)


def _top_any(layer: MoeLayer) -> bool:
    """Whether the layer routes top-any: only then does it have thresholds
    and an auxiliary loss, record its routing and adapt."""
    return isinstance(layer.router, RouterParams)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy and its gradient wrt the logits."""
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_norm = np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
    logp = z - log_norm
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float(-(np.add.reduce(logp[idx, labels]) / n))
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
    aux_loss_weight: float = 1.0
    adapt: AdaptConfig | None = field(default_factory=AdaptConfig)
    seed: int = 0
    eval_every: int = 500
    n_layers: int = 1
    hidden: int = 16
    init_experts: int = 2

    def __post_init__(self) -> None:
        for name in ("steps", "batch_size", "eval_every", "n_layers", "hidden", "init_experts"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")


def check_adapt_bounds(init_experts: int, adapt: AdaptConfig) -> None:
    """Raise ``ConfigurationError`` unless the starting K lies within the
    bounds ``adapt`` keeps K in."""
    if not adapt.min_experts <= init_experts <= adapt.max_experts:
        raise ConfigurationError(
            f"init_experts {init_experts} is outside [min_experts, max_experts] = "
            f"[{adapt.min_experts}, {adapt.max_experts}]"
        )


@dataclass
class StepStats:
    task_loss: float
    aux: AuxLossReport | None  # None for baseline models
    mean_k: float


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

def train_step(model: MoeClassifier, batch, cfg: TrainConfig, opt, recording: bool) -> StepStats:
    """One optimizer update: task loss, auxiliary loss and, if ``recording``,
    the routing records of top-any layers."""
    tokens, labels = batch
    model.zero_grad()
    logits, caches, h_final = model.forward(tokens, mode="train")
    task_loss, d_logits = softmax_cross_entropy(logits, labels)
    if not math.isfinite(task_loss):
        raise DivergenceError("non-finite task loss")
    model.backward(caches, h_final, d_logits)

    k_values, aux = [], []
    for layer, (x_in, decision) in zip(model.layers, caches):
        k_values.append(float(np.add.reduce(decision.k) / len(decision.k)))
        if _top_any(layer):
            aux.append(diversity_simplicity_loss(layer.router.w_g, weight=cfg.aux_loss_weight))
            if recording:
                record(layer.record, decision, x_in)
    aux_report = None
    if aux:
        diversity = sum(rep.diversity for rep in aux)
        simplicity = sum(rep.simplicity for rep in aux)
        aux_report = AuxLossReport(diversity=diversity, simplicity=simplicity)

    opt.step(model.params())
    mean_k = float(np.add.reduce(k_values) / len(k_values))  # np.mean's order, not sum()'s
    if aux_report is not None and not math.isfinite(aux_report.total):
        raise DivergenceError("non-finite auxiliary loss")
    return StepStats(task_loss=task_loss, aux=aux_report, mean_k=mean_k)


def _accuracy(logits, labels) -> float:
    return float(np.count_nonzero(logits.argmax(axis=1) == labels) / len(labels))


def evaluate(model: MoeClassifier, tokens, labels):
    """Accuracy plus per-layer routing statistics under eval-mode routing."""
    logits, caches, _ = model.forward(tokens, mode="eval")
    accuracy = _accuracy(logits, labels)
    stats = [PassStats.from_decisions([cache[1]]) for cache in caches]
    return accuracy, stats, caches


def log_eval(metrics: MetricsLog, step: int, model: MoeClassifier, accuracy, stats):
    metrics.append(step, -1, "eval_accuracy", accuracy)
    for li, (layer, ps) in enumerate(zip(model.layers, stats)):
        metrics.append(step, li, "activation_frequency", ps.activation_frequency)
        metrics.append(step, li, "avg_top_k", ps.mean_top_k)
        metrics.append(step, li, "topk_frequency", ps.topk_frequency)
        if _top_any(layer):
            metrics.append(step, li, "gate_thresholds", layer.router.g.value)
        metrics.append(step, li, "n_experts", float(layer.n_experts))


def activated_params_total(model: MoeClassifier, stats) -> float:
    """Mean parameters exercised per token: each layer's router (w_g, plus g
    under DynMoE) and its mean number of activated experts."""
    total = 0.0
    for layer, ps in zip(model.layers, stats):
        total += layer.router.param_count() + ps.mean_top_k * layer.experts.param_count()
    return total


def similarity_snapshot(model: MoeClassifier):
    return [{"layer": li, "matrix": expert_similarity_matrix(layer.router).tolist()}
            for li, layer in enumerate(model.layers) if _top_any(layer)]


def split_task(task: SyntheticTask, cfg: TrainConfig):
    """Deterministic train/eval split driven by the config seed."""
    split_rng = np.random.default_rng([cfg.seed, task.generator_seed, 0x5EED])
    perm = split_rng.permutation(task.n_samples)
    n_eval = max(1, int(task.n_samples * EVAL_FRACTION))
    return perm[n_eval:], perm[:n_eval]


def _run(task: SyntheticTask, cfg: TrainConfig, new_router) -> RunResult:
    rng = np.random.default_rng(cfg.seed)
    model = MoeClassifier.random(cfg, new_router, rng)
    train_idx, eval_idx = split_task(task, cfg)
    eval_tokens, eval_labels = task.tokens[eval_idx], task.labels[eval_idx]
    opt = Adam(cfg.learning_rate)

    metrics = MetricsLog()
    k_traj = [(0, model.expert_counts())]
    adapt_events: list[dict] = []

    adapting = cfg.adapt is not None and _top_any(model.layers[0])
    if adapting:
        check_adapt_bounds(cfg.init_experts, cfg.adapt)
        interval = cfg.adapt.check_interval
        start_pos = int(math.floor(cfg.adapt.record_window[0] * interval))
        end_pos = int(math.floor(cfg.adapt.record_window[1] * interval))
        end_pos = min(max(end_pos, start_pos + 1), interval)

    order = np.array([], dtype=np.int64)
    cursor = 0
    for step in range(cfg.steps):
        if cursor + cfg.batch_size > order.size:
            order = rng.permutation(train_idx)
            cursor = 0
        batch_idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size

        recording = adapting and start_pos <= step % interval < end_pos
        last_stats = train_step(model, (task.tokens[batch_idx], task.labels[batch_idx]), cfg, opt,
                                recording)

        if adapting and step % interval == end_pos - 1:
            for li, layer in enumerate(model.layers):
                prev_k = layer.n_experts
                report = adapt(layer, layer.record, cfg.adapt, rng)
                keep = [e for e in range(prev_k) if e not in report.removed_experts]
                for p, axis in layer.expert_indexed():
                    opt.resize(p, keep, int(report.added), axis)
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

    # The last step evaluated the final model.
    mean_k = float(np.mean([ps.mean_top_k for ps in stats]))
    return RunResult(
        final_accuracy=accuracy,
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
    return _run(task, cfg, partial(RouterParams.random, task.d, cfg.init_experts))


def run_baseline(task: SyntheticTask, cfg: TrainConfig, n_experts: int, top_k: int) -> RunResult:
    """Same harness with a fixed softmax top-k router, for head-to-head tables."""
    return _run(task, cfg, partial(TopKRouter.random, task.d, n_experts, top_k))


# --- model checkpointing -----------------------------------------------------
#
# A checkpoint is one JSON document holding every tensor once, keyed by its
# Param name: {"schema", "w_out", "b_out", "layers"}, where each layer is
# {"w_g", "g", "w1", "b1", "w2", "b2"} for a top-any router and
# {"w_g", "top_k", "w1", "b1", "w2", "b2"} for a top-k one. The expert
# tensors stay stacked, one slot per expert. Float repr round-trips
# bit-exactly. Sizes and the router kind are read from the tensors and keys.

MODEL_SCHEMA = "dynmoe-model/2"


def model_to_doc(model: MoeClassifier) -> dict:
    layers = []
    for layer in model.layers:
        doc = {p.name: p.value.tolist() for p in layer.params()}
        if not _top_any(layer):
            doc["top_k"] = layer.router.top_k
        layers.append(doc)
    return {"schema": MODEL_SCHEMA, "w_out": model.w_out.value.tolist(),
            "b_out": model.b_out.value.tolist(), "layers": layers}


def _layer_from_doc(doc: dict) -> MoeLayer:
    """The layer ``model_to_doc`` wrote, checked by ``MoeLayer.validate``."""
    routers = {"g", "top_k"} & doc.keys()
    if len(routers) != 1:
        raise ValueError(f"a layer holds exactly one of 'g' (top-any) and 'top_k' (top-k), "
                         f"got keys {sorted(doc)}")
    keys = {"w_g", *routers, *EXPERT_TENSORS}
    if doc.keys() != keys:
        raise ValueError(f"layer keys {sorted(doc)}, expected {sorted(keys)}")
    w_g = Param(doc["w_g"], name="w_g")
    if "g" in doc:
        router = RouterParams(w_g=w_g, g=Param(doc["g"], name="g"))
    else:
        router = TopKRouter(w_g=w_g, top_k=doc["top_k"])
    experts = ExpertMlp.from_arrays(*(doc[name] for name in EXPERT_TENSORS))
    return MoeLayer(router=router, experts=experts,
                    record=RoutingRecord.fresh(router.n_experts, router.dim))


def model_from_doc(doc: dict) -> MoeClassifier:
    if doc.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema {doc.get('schema')!r}")
    keys = {"schema", "w_out", "b_out", "layers"}
    if doc.keys() != keys:
        raise ValueError(f"model keys {sorted(doc)}, expected {sorted(keys)}")
    if not doc["layers"]:
        raise ValueError("a model needs at least one layer")
    w_out, b_out = Param(doc["w_out"], name="w_out"), Param(doc["b_out"], name="b_out")
    if w_out.value.ndim != 2 or b_out.shape != w_out.shape[1:]:
        raise ValueError(f"w_out of shape {w_out.shape} does not fit b_out of shape {b_out.shape}")
    layers = [_layer_from_doc(layer_doc) for layer_doc in doc["layers"]]
    dims = [layer.d for layer in layers]
    if any(d != w_out.shape[0] for d in dims):
        raise ValueError(f"layer dims {dims} do not match the {w_out.shape[0]} rows of w_out")
    model = MoeClassifier(layers, w_out, b_out)
    for p in model.params():
        if not np.isfinite(p.value).all():
            raise ValueError(f"non-finite value in {p.name}")
    return model


def save_model(model: MoeClassifier, path) -> None:
    Path(path).write_text(json.dumps(model_to_doc(model), sort_keys=True))


class CheckpointError(ValueError):
    """A file is not a model checkpoint, or does not fit the task."""


def load_model(path) -> MoeClassifier:
    """The model saved at ``path``; ``CheckpointError`` if the file does not
    hold one."""
    try:
        return model_from_doc(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path} is not a model checkpoint: {exc!r}") from exc
