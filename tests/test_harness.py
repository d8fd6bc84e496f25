import math
import tracemalloc
from dataclasses import asdict, fields
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynmoe import harness
from dynmoe.adaptive import AdaptConfig, RoutingRecord, adapt
from dynmoe.config import ConfigError, parse_config_doc
from dynmoe.harness import (
    N_CLASSES,
    Adam,
    MoeClassifier,
    SyntheticTask,
    TrainConfig,
    evaluate,
    gen_task,
    load_model,
    model_from_doc,
    model_to_doc,
    run_baseline,
    save_model,
    softmax_cross_entropy,
    split_task,
    train_loop,
    train_step,
)
from dynmoe import moe_layer
from dynmoe.moe_layer import ExpertMlp, MoeLayer, moe_backward, moe_forward
from dynmoe.numerics import ConfigurationError, Param, finite_diff_grad, sigmoid
from dynmoe.router import RouterParams, TopKRouter, route_top_any

from conftest import rel_err
from test_moe_layer import surrogate_output


def dynmoe_model(d, cfg, rng):
    return MoeClassifier.random(cfg, partial(RouterParams.random, d, cfg.init_experts), rng)


def topk_model(d, cfg, n_experts, top_k, rng):
    return MoeClassifier.random(cfg, partial(TopKRouter.random, d, n_experts, top_k), rng)


def small_task(seed=3):
    return gen_task(n_skills=3, d=10, n_samples=600, seed=seed)


def small_cfg(**overrides):
    base = dict(
        steps=120,
        batch_size=16,
        eval_every=60,
        seed=0,
        hidden=8,
        init_experts=2,
        adapt=AdaptConfig(max_experts=6, check_interval=40),
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestGenTask:
    def test_deterministic(self):
        a = gen_task(3, 12, 200, seed=11)
        b = gen_task(3, 12, 200, seed=11)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.skill_ids, b.skill_ids)

    def test_single_skill_all_high_cosine(self):
        task = gen_task(1, 8, 100, seed=2)
        unit = task.tokens / np.linalg.norm(task.tokens, axis=1, keepdims=True)
        gram = unit @ unit.T
        assert gram.min() >= task.within_cosine_floor - 1e-12

    def test_pairwise_scan_separates_skills(self):
        task = gen_task(4, 16, 400, seed=5)
        unit = task.tokens / np.linalg.norm(task.tokens, axis=1, keepdims=True)
        gram = unit @ unit.T
        same = task.skill_ids[:, None] == task.skill_ids[None, :]
        off_diag = ~np.eye(400, dtype=bool)
        within_min = gram[same & off_diag].min()
        cross_max = gram[~same].max()
        assert cross_max < within_min
        assert within_min >= task.within_cosine_floor - 1e-12
        assert cross_max <= task.cross_cosine_ceiling + 1e-12

    def test_labels_follow_planted_linear_rule(self):
        task = gen_task(3, 12, 300, seed=9)
        for i in range(300):
            rule = task.rule_directions[:, task.skill_ids[i]]
            assert task.labels[i] == (1 if task.tokens[i] @ rule > 0 else 0)

    def test_too_many_skills_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_task(9, 8, 10, seed=0)

    def test_unit_tokens(self):
        task = gen_task(2, 8, 50, seed=1)
        np.testing.assert_allclose(np.linalg.norm(task.tokens, axis=1), 1.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n_skills=st.integers(1, 6),
        extra_dims=st.integers(2, 64),
        n_samples=st.integers(1, 1500),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_skills=6, extra_dims=64, n_samples=1500, seed=3)
    @example(n_skills=1, extra_dims=2, n_samples=600, seed=0)
    def test_matches_reference(self, n_skills, extra_dims, n_samples, seed):
        args = (n_skills, n_skills + extra_dims, n_samples, seed)
        assert_same_task(gen_task(*args), reference_gen_task(*args))

    def test_fallback_decides_a_draw_on_the_margin(self, monkeypatch):
        # Replay the first noise draw of gen_task(2, 8, n, 12) and set the
        # margin to its exact |projection|, so the accept decision for
        # that draw falls inside the guard band. (With this seed the cheap
        # projection lands a few ulps below the exact one.)
        n_skills, d, seed = 2, 8, 12
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        complement = basis[:, n_skills:]
        rules = []
        for _ in range(n_skills):
            coeff = rng.standard_normal(d - n_skills)
            coeff /= np.linalg.norm(coeff)
            rules.append(complement @ coeff)
        rng.uniform(*harness.ALIGN_RANGE)
        coeff = rng.standard_normal(d - n_skills)
        margin = abs(float((complement @ (coeff / np.linalg.norm(coeff))) @ rules[0]))

        calls = []
        exact = harness._rule_projection

        def spy(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(harness, "_rule_projection", spy)
        monkeypatch.setattr(harness, "LABEL_MARGIN", margin)
        args = (n_skills, d, 300, seed)
        task = gen_task(*args)
        assert calls
        assert_same_task(task, reference_gen_task(*args))

    @pytest.mark.parametrize("n, total", [
        (1, 2),
        (harness._TASK_BLOCK_ROWS - 3, harness._TASK_BLOCK_ROWS + 3),
        (harness._TASK_BLOCK_ROWS, 2 * harness._TASK_BLOCK_ROWS + 1),
        (harness._TASK_BLOCK_ROWS + 1, 3 * harness._TASK_BLOCK_ROWS),
        (10, harness._TASK_BLOCK_ROWS - 1),
    ])
    def test_more_samples_extend_the_task(self, n, total):
        # The bench's eval phase and `dynmoe eval` rely on this: fresh
        # tokens are the rows past n_samples of the same seed.
        short, long = gen_task(3, 20, n, 5), gen_task(3, 20, total, 5)
        for name in ("tokens", "skill_ids", "labels"):
            np.testing.assert_array_equal(getattr(long, name)[:n], getattr(short, name))
        np.testing.assert_array_equal(long.skill_directions, short.skill_directions)
        np.testing.assert_array_equal(long.rule_directions, short.rule_directions)


def reference_gen_task(n_skills, d, n_samples, seed):
    """The per-sample generation loop :func:`gen_task` must match bit for
    bit: each draw's projection is computed from the full noise vector."""
    lo, hi = harness.ALIGN_RANGE
    label_margin = harness.LABEL_MARGIN
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


def assert_same_task(got, want):
    for f in fields(SyntheticTask):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


class ReferenceAdam:
    """Adam with one state dict per Param, stepped Param by Param: the
    reference the flat :class:`Adam` must match bit for bit."""

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
                t = [0] * (p.shape[0] if p.slot_steps else 1)
                st = {"m": np.zeros_like(p.value), "v": np.zeros_like(p.value), "t": t}
                self.state[p] = st
            m, v = st["m"], st["v"]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            st["t"] = [n + 1 for n in st["t"]]
            shape = (-1,) + (1,) * (m.ndim - 1)
            c1, c2 = (np.array([1.0 - beta**n for n in st["t"]]).reshape(shape)
                      for beta in (self.beta1, self.beta2))
            update = m / c1
            update *= self.lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            p.value -= update

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
        if param.slot_steps:
            st["t"] = [st["t"][e] for e in keep] + [0] * n_new


class TestOptimizers:
    def quadratic(self, opt, steps=200):
        # convex probe: f(p) = 0.5 * |p - t|^2
        target = np.array([1.0, -2.0, 0.5])
        p = Param(np.zeros(3))
        losses = []
        for _ in range(steps):
            p.zero_grad()
            diff = p.value - target
            losses.append(0.5 * float(diff @ diff))
            p.accumulate(diff)
            opt.step([p])
        return losses, p

    def test_adam_decreases_quadratic(self):
        # small steps: monotone before any coordinate reaches its target
        # (|target| min is 0.5, effective step ~lr, so 80 steps stay short)
        losses, _ = self.quadratic(Adam(lr=0.005), steps=80)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        losses_long, _ = self.quadratic(Adam(lr=0.05), steps=500)
        assert losses_long[-1] < 1e-4

    def test_adam_resize_keeps_surviving_state(self):
        opt = Adam(lr=0.1)
        p = Param(np.ones((2, 3)))
        p.accumulate(np.arange(6.0).reshape(2, 3))
        opt.step([p])
        m_before = opt.moments(p)[0].copy()
        opt.resize(p, keep=[0, 2], n_new=1, axis=1)
        m = opt.moments(p)[0]
        assert m.shape == (2, 3)
        np.testing.assert_array_equal(m[:, 0], m_before[:, 0])
        np.testing.assert_array_equal(m[:, 1], m_before[:, 2])
        np.testing.assert_array_equal(m[:, 2], 0.0)

    def test_adam_resize_remaps_slot_step_counts(self):
        opt = Adam(lr=0.1)
        p = Param(np.ones((3, 2)), slot_steps=True)
        shared = Param(np.ones((2, 3)))
        opt.step([p, shared])
        opt.step([p, shared])
        opt.resize(p, keep=[0, 2], n_new=1, axis=0)
        opt.resize(shared, keep=[0, 2], n_new=1, axis=1)
        t = opt.moments(p)[2]
        np.testing.assert_array_equal(t, np.array([2, 2, 0])[:, None].repeat(2, axis=1))
        # one count shared by all entries, the appended column included
        np.testing.assert_array_equal(opt.moments(shared)[2], np.full((2, 3), 2))

    def test_single_run_step_allocates_no_per_entry_array(self):
        # Until the first resize every entry shares one step count (a top-k
        # layer at mid size, d = h = 64 and K = 8, for a whole run): a step
        # divides by two scalar bias corrections instead of expanding them
        # to one per entry.
        rng = np.random.default_rng(0)
        params = MoeLayer.around(TopKRouter.random(64, 8, 2, rng), 64, rng).params()
        n_bytes = sum(p.value.nbytes for p in params)
        assert n_bytes == 67_072 * 8
        opt = Adam(lr=0.01)
        opt.step(params)  # binds the list and packs the flat vectors
        tracemalloc.start()
        try:
            opt.step(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * n_bytes

    def test_adam_steps_one_fixed_param_list(self):
        opt = Adam(lr=0.1)
        a, b, c = Param(np.ones(2)), Param(np.ones((2, 2))), Param(np.ones(3))
        opt.step([a, b])
        for other in ([a], [b, a], [a, b, c]):
            with pytest.raises(ValueError):
                opt.step(other)
        with pytest.raises(KeyError):
            opt.moments(c)
        b.replace(np.ones((3, 2)))  # a new shape without an optimizer resize
        with pytest.raises(ValueError):
            opt.step([a, b])

    def test_unknown_kind_rejected(self):
        # Adam is the only optimizer: a config that asks for another one is
        # refused rather than trained with Adam
        for kind in ("sgd", "rmsprop"):
            with pytest.raises(ConfigError, match=r"unknown key.*train\.optimizer"):
                parse_config_doc({"train": {"optimizer": {"kind": kind}}})


class TestFlatAdamMatchesReference:
    """The flat Adam against the per-Param reference, bit for bit, through
    steps, resizes (slot tensors along axis 0, others along axis 0 or 1, with
    keep sets and appends) and storage swaps between steps."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        specs=st.lists(st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.booleans()),
                       min_size=1, max_size=4),
        rounds=st.lists(
            st.tuples(
                st.integers(0, 3),                                 # steps
                st.sampled_from(["resize", "replace", "none"]),
                st.integers(0, 3),                                 # which Param
                st.integers(0, 1),                                 # resize axis
                st.lists(st.booleans(), min_size=4, max_size=4),   # keep mask
                st.integers(0, 2),                                 # appended slices
            ),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical(self, seed, specs, rounds):
        rng = np.random.default_rng(seed)
        flat = [Param(rng.standard_normal(shape), name=str(i), slot_steps=slots)
                for i, (shape, slots) in enumerate(specs)]
        ref = [Param(p.value.copy(), name=p.name, slot_steps=p.slot_steps) for p in flat]
        opt, opt_ref = Adam(lr=0.05), ReferenceAdam(lr=0.05)
        for n_steps, action, which, axis, keep_mask, n_new in rounds:
            for _ in range(n_steps):
                for p, q in zip(flat, ref):
                    g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-3, 3)
                    p.zero_grad()
                    p.accumulate(g)
                    q.zero_grad()
                    q.accumulate(g)
                opt.step(flat)
                opt_ref.step(ref)
            p, q = flat[which % len(flat)], ref[which % len(ref)]
            if action == "replace":
                value = rng.standard_normal(p.shape)
                p.replace(value.copy())
                q.replace(value.copy())
            elif action == "resize":
                axis = 0 if p.slot_steps else min(axis, p.value.ndim - 1)
                keep = [i for i in range(p.shape[axis]) if keep_mask[i % 4]] or [0]
                pad_shape = list(p.shape)
                pad_shape[axis] = n_new
                value = np.concatenate([np.take(p.value, keep, axis=axis),
                                        rng.standard_normal(pad_shape)], axis=axis)
                for x, o in ((p, opt), (q, opt_ref)):
                    x.replace(value.copy())
                    o.resize(x, keep, n_new, axis)
            for p, q in zip(flat, ref):
                np.testing.assert_array_equal(p.value, q.value)
                if q in opt_ref.state:
                    m, v, t = opt.moments(p)
                    want = opt_ref.state[q]
                    np.testing.assert_array_equal(m, want["m"])
                    np.testing.assert_array_equal(v, want["v"])
                    counts = np.reshape(want["t"], (-1,) + (1,) * (t.ndim - 1))
                    np.testing.assert_array_equal(t, np.broadcast_to(counts, t.shape))


class TestExpertBankOptimizerState:
    """A stacked expert bank trained with Adam and resized along the expert
    axis must match, bit for bit, a list of per-expert Params that each have
    their own Adam state, with removed experts dropped and added ones fresh."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_experts=st.integers(1, 4),
        rounds=st.lists(
            st.tuples(st.integers(0, 3), st.lists(st.booleans(), min_size=8, max_size=8),
                      st.booleans()),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_expert_params(self, seed, n_experts, rounds):
        rng = np.random.default_rng(seed)
        bank = ExpertMlp.random(3, 2, n_experts, rng)
        reference = [[Param(p.value[e].copy()) for p in bank.params()] for e in range(n_experts)]
        opt_bank, opt_ref = Adam(lr=0.05), ReferenceAdam(lr=0.05)
        for n_steps, keep_mask, append in rounds:
            for _ in range(n_steps):
                for p in bank.params():
                    p.zero_grad()
                for e, expert in enumerate(reference):
                    for p, q in zip(bank.params(), expert):
                        g = rng.standard_normal(q.shape) * 10.0 ** rng.integers(-3, 3)
                        p.grad[e] += g
                        q.zero_grad()
                        q.accumulate(g)
                opt_bank.step(bank.params())
                opt_ref.step([q for expert in reference for q in expert])
            # the resize adapt makes: keep some slots, maybe append one
            keep = [e for e in range(len(reference)) if keep_mask[e]] or [0]
            new = [rng.standard_normal(p.shape[1:]) for p in bank.params()]
            for p, value in zip(bank.params(), new):
                kept = np.take(p.value, keep, axis=0)
                p.replace(np.concatenate([kept, value[None]]) if append else kept)
                opt_bank.resize(p, keep, int(append), axis=0)
            reference = [reference[e] for e in keep]
            if append:
                reference.append([Param(value.copy()) for value in new])
            assert bank.n_experts == len(reference)
            for e, expert in enumerate(reference):
                for p, q in zip(bank.params(), expert):
                    np.testing.assert_array_equal(p.value[e], q.value)


class TestModelParams:
    @pytest.mark.parametrize("n_experts", [1, 3, 7])
    def test_one_layer_model_has_fixed_param_count(self, n_experts):
        cfg = small_cfg(init_experts=n_experts)
        rng = np.random.default_rng(0)
        assert len(dynmoe_model(10, cfg, rng).params()) == 8
        assert len(topk_model(10, cfg, n_experts, 1, rng).params()) == 7

    def test_param_count_survives_adapt(self):
        res = train_loop(small_task(), small_cfg())
        assert len({counts for _, counts in res.k_trajectory}) > 1  # K changed
        assert len(res.model.params()) == 8
        assert all(p.shape[0] == res.model.layers[0].n_experts
                   for p in res.model.layers[0].experts.params())


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = softmax_cross_entropy(np.zeros((4, 3)), np.zeros(4, dtype=np.int64))
        assert abs(loss - np.log(3.0)) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        from dynmoe.numerics import finite_diff_grad

        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        p = Param(logits.copy())
        fd = finite_diff_grad(lambda q: softmax_cross_entropy(q.value, labels)[0], p)
        assert rel_err(grad, fd) < 1e-6


class TestTrainStep:
    def test_zero_learning_rate_freezes_params(self):
        task = small_task()
        cfg = small_cfg(learning_rate=1e-300)  # effectively zero but valid
        rng = np.random.default_rng(cfg.seed)
        model = dynmoe_model(task.d, cfg, rng)
        before = [p.value.copy() for p in model.params()]
        opt = Adam(lr=0.0)
        stats = train_step(model, (task.tokens[:16], task.labels[:16]), cfg, opt, None)
        for p, b in zip(model.params(), before):
            np.testing.assert_array_equal(p.value, b)
        assert np.isfinite(stats.task_loss)
        assert stats.aux is not None

    def test_task_loss_matches_forward_only_reevaluation(self):
        task = small_task()
        cfg = small_cfg()
        rng = np.random.default_rng(cfg.seed)
        model = dynmoe_model(task.d, cfg, rng)
        batch = (task.tokens[:16], task.labels[:16])
        logits, _, _ = model.forward(batch[0], mode="train")
        want_loss, _ = softmax_cross_entropy(logits, batch[1])
        stats = train_step(model, batch, cfg, Adam(cfg.learning_rate), None)
        assert abs(stats.task_loss - want_loss) < 1e-12

    def test_aux_matches_standalone_losses_module(self):
        from dynmoe.losses import diversity_simplicity_loss

        task = small_task()
        cfg = small_cfg()
        rng = np.random.default_rng(cfg.seed)
        model = dynmoe_model(task.d, cfg, rng)
        w_snapshot = Param(model.layers[0].router.w_g.value.copy())
        stats = train_step(model, (task.tokens[:16], task.labels[:16]), cfg, Adam(cfg.learning_rate), None)
        want = diversity_simplicity_loss(w_snapshot)
        assert abs(stats.aux.diversity - want.diversity) < 1e-12
        assert abs(stats.aux.simplicity - want.simplicity) < 1e-12
        assert abs(stats.aux.total - want.total) < 1e-12

    def test_step_and_eval_call_numpy_primitives(self, monkeypatch):
        # The per-step path evaluates numpy's norm, mean, any/all, clip and
        # eye expressions itself, computes the combine weights once (when the
        # router routes; the backward takes them from the cache), and adds
        # expert gradients straight into the stacked tensors, so a 1-layer
        # step accumulates only into the head (twice), w_g (router backward
        # and auxiliary loss) and g.
        spec = parse_config_doc({})  # the desk (acceptance) configuration
        task = gen_task(**asdict(spec.task))
        cfg = spec.train
        model = dynmoe_model(task.d, cfg, np.random.default_rng(cfg.seed))
        opt = Adam(cfg.learning_rate)

        def banned(*args, **kwargs):
            raise AssertionError("numpy wrapper called on the step path")

        for owner, name in ((np.linalg, "norm"), (np, "mean"), (np, "any"), (np, "all"),
                            (np, "clip"), (np, "eye")):
            monkeypatch.setattr(owner, name, banned)
        accumulated, routes = [], []
        accumulate, route = Param.accumulate, RouterParams.route

        def counted_accumulate(p, g):
            accumulated.append(p.name)
            accumulate(p, g)

        def counted_route(*args):
            routes.append(args)
            return route(*args)

        monkeypatch.setattr(Param, "accumulate", counted_accumulate)
        monkeypatch.setattr(RouterParams, "route", counted_route)
        records = [RoutingRecord.fresh(layer.n_experts, layer.d) for layer in model.layers]
        for step in range(2):
            accumulated.clear()
            rows = slice(step * cfg.batch_size, (step + 1) * cfg.batch_size)
            train_step(model, (task.tokens[rows], task.labels[rows]), cfg, opt, records)
            assert sorted(accumulated) == ["b_out", "g", "w_g", "w_g", "w_out"]
        assert len(routes) == 2
        accuracy, stats, _ = evaluate(model, task.tokens[:256], task.labels[:256])
        assert 0.0 <= accuracy <= 1.0 and stats[0].n_tokens == 256


class TestTopKMoeBlockBackward:
    """``moe_backward`` on a top-k layer against central differences of the
    layer output; the selection set is asserted not to move under any probe."""

    @pytest.mark.parametrize("top_k", [1, 2, 4])
    def test_all_grads_match_finite_differences(self, rng, top_k):
        d, h, n_experts = 4, 5, 4
        layer = MoeLayer.around(TopKRouter.random(d, n_experts, top_k, rng), h, rng)
        # tokens lean along axis 0 and expert 3's logit along -axis 0, so
        # expert 3 is never among the top 2
        layer.router.w_g.value[:, 3] = [-3.0, 0.0, 0.0, 0.0]
        tokens = rng.standard_normal((12, d)) + np.array([2.0, 0.0, 0.0, 0.0])
        coeff = rng.standard_normal((12, d))
        _, decision = moe_forward(layer, tokens, "train")
        mask = decision.mask
        if top_k < n_experts:
            assert not mask[:, 3].any()
        d_tokens = moe_backward(layer, decision, tokens, coeff)

        def objective_at(x):
            out2, decision2 = moe_forward(layer, x, "train")
            assert np.array_equal(decision2.mask, mask)
            return float((coeff * out2).sum())

        for p in layer.params():
            fd = finite_diff_grad(lambda _: objective_at(tokens), p, eps=1e-6)
            assert rel_err(p.grad, fd) < 1e-5, p.name
        fd_x = finite_diff_grad(lambda q: objective_at(q.value), Param(tokens.copy()), eps=1e-6)
        assert rel_err(d_tokens, fd_x) < 1e-5


class TestModelBackward:
    """``MoeClassifier.backward`` against central differences of
    sum(coeff * logits), with one or two layers of either router. A DynMoE
    layer enters the objective through its straight-through surrogate at the
    forward point's decision; a top-k layer through its own forward, with a
    selection margin that no probe can close."""

    D = 4

    def build(self, seed, n_layers, router, state):
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(n_layers=n_layers, hidden=5, init_experts=3,
                          adapt=AdaptConfig(max_experts=4))
        if router == "topk":
            return topk_model(self.D, cfg, 3, 2, rng), rng
        model = dynmoe_model(self.D, cfg, rng)
        if state == "post_adapt":
            for layer in model.layers:
                rec = RoutingRecord.fresh(layer.n_experts, layer.d)
                rec.r_e[:] = [4, 0, 2]
                rec.r_s[:] = rng.standard_normal(self.D)
                report = adapt(layer, rec, cfg.adapt, rng)
                assert report.removed_experts == [1] and report.added
        return model, rng

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), n_layers=st.sampled_from([1, 2]),
           router=st.sampled_from(["dynmoe", "topk"]),
           state=st.sampled_from(["fresh", "post_adapt"]))
    @example(seed=0, n_layers=1, router="dynmoe", state="fresh")
    @example(seed=1, n_layers=2, router="dynmoe", state="fresh")
    @example(seed=2, n_layers=1, router="dynmoe", state="post_adapt")
    @example(seed=3, n_layers=2, router="dynmoe", state="post_adapt")
    @example(seed=4, n_layers=1, router="topk", state="fresh")
    @example(seed=5, n_layers=2, router="topk", state="fresh")
    def test_all_grads_match_finite_differences(self, seed, n_layers, router, state):
        assume(router == "dynmoe" or state == "fresh")
        model, rng = self.build(seed, n_layers, router, state)
        tokens = rng.standard_normal((10, self.D))
        coeff = rng.standard_normal((10, N_CLASSES))
        _, caches, h_final = model.forward(tokens, mode="train")
        if router == "topk":
            for _, decision in caches:
                scores = np.sort(decision.scores, axis=1)
                assume(np.min(scores[:, -2] - scores[:, -3]) > 1e-4)
        else:  # sigmoid(g) at the forward point, before the differences move g
            sig_g0 = [sigmoid(layer.router.g.value) for layer in model.layers]
        d_tokens = model.backward(caches, h_final, coeff)

        def objective(x):
            if router == "topk":
                logits = model.forward(x, mode="train")[0]
            else:
                h = x
                for layer, (_, decision), sig_g in zip(model.layers, caches, sig_g0):
                    h = h + surrogate_output(layer, h, decision, sig_g)
                logits = h @ model.w_out.value + model.b_out.value
            return float((coeff * logits).sum())

        for p in model.params():
            fd = finite_diff_grad(lambda _: objective(tokens), p, eps=1e-6)
            assert rel_err(p.grad, fd) < 1e-5, p.name
        fd_x = finite_diff_grad(lambda q: objective(q.value), Param(tokens.copy()), eps=1e-6)
        assert rel_err(d_tokens, fd_x) < 1e-5


class TestPairwiseDispatch:
    """Expert calls in one training step cover activated pairs only (plus,
    for DynMoE, the forward-only pass the mask gradient needs)."""

    @staticmethod
    def count_rows(monkeypatch):
        rows = {"forward": 0, "backward": 0}
        fwd, bwd = ExpertMlp.forward, ExpertMlp.backward

        def forward(self, e, x, **kwargs):
            rows["forward"] += len(x)
            return fwd(self, e, x, **kwargs)

        def backward(self, e, cache, upstream):
            rows["backward"] += len(upstream)
            return bwd(self, e, cache, upstream)

        monkeypatch.setattr(ExpertMlp, "forward", forward)
        monkeypatch.setattr(ExpertMlp, "backward", backward)
        return rows

    def test_dynmoe_backward_rows_equal_activated_pairs(self, monkeypatch):
        task = small_task()
        cfg = small_cfg(init_experts=4)
        model = dynmoe_model(task.d, cfg, np.random.default_rng(cfg.seed))
        tokens, labels = task.tokens[:32], task.labels[:32]
        decision = route_top_any(tokens, model.layers[0].router)
        n_served = int((decision.k > 0).sum())
        assert 0 < decision.k.sum() < n_served * 4
        rows = self.count_rows(monkeypatch)
        train_step(model, (tokens, labels), cfg, Adam(cfg.learning_rate), None)
        assert rows["backward"] == decision.k.sum()
        # activated pairs plus the non-activated pairs of served tokens
        assert rows["forward"] == n_served * 4

    def test_erf_once_per_forward_row(self, monkeypatch):
        task = small_task()
        cfg = small_cfg(init_experts=4)
        model = dynmoe_model(task.d, cfg, np.random.default_rng(cfg.seed))
        rows = self.count_rows(monkeypatch)
        erf_elements = {"forward": 0, "backward": 0}
        in_backward = [False]
        bwd, raw_erf = ExpertMlp.backward, moe_layer.erf

        def backward(self, e, cache, upstream):
            in_backward[0] = True
            try:
                return bwd(self, e, cache, upstream)
            finally:
                in_backward[0] = False

        def erf(u, **kwargs):
            erf_elements["backward" if in_backward[0] else "forward"] += np.size(u)
            return raw_erf(u, **kwargs)

        monkeypatch.setattr(ExpertMlp, "backward", backward)
        monkeypatch.setattr(moe_layer, "erf", erf)
        train_step(model, (task.tokens[:32], task.labels[:32]), cfg, Adam(cfg.learning_rate), None)
        assert rows["forward"] > 0 and rows["backward"] > 0
        assert erf_elements == {"forward": rows["forward"] * cfg.hidden, "backward": 0}

    @pytest.mark.parametrize("router", ["top_any", "topk"])
    def test_eval_rows_equal_activated_pairs(self, monkeypatch, router):
        task = small_task()
        cfg = small_cfg(init_experts=4)
        rng = np.random.default_rng(cfg.seed)
        model = dynmoe_model(task.d, cfg, rng) if router == "top_any" else topk_model(
            task.d, cfg, 4, 2, rng)
        rows = self.count_rows(monkeypatch)
        erf_elements, raw_erf = [0], moe_layer.erf

        def erf(u, **kwargs):
            erf_elements[0] += np.size(u)
            return raw_erf(u, **kwargs)

        monkeypatch.setattr(moe_layer, "erf", erf)
        caches = evaluate(model, task.tokens[:64], task.labels[:64])[2]
        activated = int(caches[0][1].k.sum())
        assert activated >= 64
        assert rows == {"forward": activated, "backward": 0}
        assert erf_elements[0] == activated * cfg.hidden

    def test_topk_rows_equal_n_times_top_k(self, monkeypatch):
        task = small_task()
        cfg = small_cfg(adapt=None)
        model = topk_model(task.d, cfg, 4, 2, np.random.default_rng(cfg.seed))
        rows = self.count_rows(monkeypatch)
        train_step(model, (task.tokens[:32], task.labels[:32]), cfg, Adam(cfg.learning_rate), None)
        assert rows == {"forward": 32 * 2, "backward": 32 * 2}


class TestTrainLoop:
    def test_two_skill_task_reaches_95_percent(self):
        task = gen_task(2, 12, 2000, seed=21)
        cfg = TrainConfig(steps=2000, eval_every=1000, seed=0, hidden=16,
                          init_experts=2, adapt=AdaptConfig(max_experts=8))
        res = train_loop(task, cfg)
        assert res.final_accuracy >= 0.95

    def test_adapt_disabled_keeps_k_constant(self):
        task = small_task()
        cfg = small_cfg(adapt=None)
        res = train_loop(task, cfg)
        assert res.k_trajectory == [(0, (2,))]
        assert res.adapt_events == []

    def test_k_trajectory_respects_bounds(self):
        task = small_task()
        cfg = small_cfg()
        res = train_loop(task, cfg)
        for _, counts in res.k_trajectory:
            for k in counts:
                assert 1 <= k <= cfg.adapt.max_experts

    def test_adapt_only_at_window_close(self):
        task = small_task()
        cfg = small_cfg()
        res = train_loop(task, cfg)
        interval = cfg.adapt.check_interval
        end_pos = int(np.floor(cfg.adapt.record_window[1] * interval))
        assert res.adapt_events  # the schedule fired at all
        for ev in res.adapt_events:
            assert ev["step"] % interval == end_pos - 1

    @pytest.mark.parametrize("window, recorded, adapted", [
        # every step records; the run ends 7 steps into its fifth window
        ((0.0, 1.0), list(range(47)), [9, 19, 29, 39]),
        # a one-step window at position 5, which the last step reaches
        ((0.5, 0.51), [5, 15, 25, 35, 45], [5, 15, 25, 35, 45]),
    ])
    def test_record_runs_exactly_on_window_steps(self, monkeypatch, window, recorded, adapted):
        task = small_task()
        cfg = small_cfg(steps=47, eval_every=47,
                        adapt=AdaptConfig(max_experts=6, check_interval=10, record_window=window))
        steps, calls = [], []
        step, rec = harness.train_step, harness.record

        def counted_step(*args):
            steps.append(len(steps))
            return step(*args)

        def counted_record(*args):
            calls.append(steps[-1])
            rec(*args)

        monkeypatch.setattr(harness, "train_step", counted_step)
        monkeypatch.setattr(harness, "record", counted_record)
        res = train_loop(task, cfg)
        assert calls == recorded
        assert [ev["step"] for ev in res.adapt_events] == adapted

    @pytest.mark.parametrize("init_experts, adapt_cfg", [
        (8, AdaptConfig(max_experts=4)),
    ])
    def test_starting_k_outside_adapt_bounds_is_a_config_error(self, init_experts, adapt_cfg):
        cfg = small_cfg(init_experts=init_experts, adapt=adapt_cfg)
        with pytest.raises(ConfigurationError, match="init_experts"):
            train_loop(small_task(), cfg)
        # a top-k run never adapts, so the bounds do not apply to it
        run_baseline(small_task(), small_cfg(steps=2, init_experts=init_experts, adapt=adapt_cfg), 3, 1)

    def test_determinism_identical_runs(self):
        task = small_task()
        res1 = train_loop(task, small_cfg(seed=5))
        res2 = train_loop(task, small_cfg(seed=5))
        assert res1.k_trajectory == res2.k_trajectory
        assert res1.final_accuracy == res2.final_accuracy
        assert res1.metrics.rows == res2.metrics.rows
        doc1, doc2 = model_to_doc(res1.model), model_to_doc(res2.model)
        assert doc1 == doc2

    def test_different_seed_changes_run(self):
        task = small_task()
        res1 = train_loop(task, small_cfg(seed=5))
        res2 = train_loop(task, small_cfg(seed=6))
        assert model_to_doc(res1.model) != model_to_doc(res2.model)

    def test_every_adapt_event_logged_once_in_order(self):
        task = small_task()
        res = train_loop(task, small_cfg())
        logged = [r for r in res.metrics.rows if r.metric == "adapt_event"]
        assert len(logged) == len(res.adapt_events)
        steps = [r.step for r in logged]
        assert steps == sorted(steps)
        assert steps == [ev["step"] for ev in res.adapt_events]


class TestRunBaseline:
    def test_k_equals_K_dense_mixture(self):
        task = small_task()
        cfg = small_cfg(adapt=None, steps=40, eval_every=40)
        res = run_baseline(task, cfg, n_experts=3, top_k=3)
        assert res.mean_k == 3.0

    def test_single_expert_dense_model(self):
        task = small_task()
        cfg = small_cfg(adapt=None, steps=40, eval_every=40)
        res = run_baseline(task, cfg, n_experts=1, top_k=1)
        assert res.mean_k == 1.0
        assert res.k_trajectory == [(0, (1,))]

    def test_bad_k_rejected(self):
        task = small_task()
        with pytest.raises(ConfigurationError):
            run_baseline(task, small_cfg(adapt=None), n_experts=2, top_k=3)

    def test_baseline_learns(self):
        task = small_task()
        cfg = small_cfg(adapt=None, steps=400, eval_every=200)
        res = run_baseline(task, cfg, n_experts=3, top_k=1)
        assert res.final_accuracy >= 0.8


class TestSplit:
    def test_split_deterministic_and_disjoint(self):
        task = small_task()
        cfg = small_cfg()
        tr1, ev1 = split_task(task, cfg)
        tr2, ev2 = split_task(task, cfg)
        np.testing.assert_array_equal(tr1, tr2)
        np.testing.assert_array_equal(ev1, ev2)
        assert set(tr1).isdisjoint(set(ev1))
        assert len(tr1) + len(ev1) == task.n_samples


class TestModelCheckpoint:
    def test_round_trip_dynmoe(self, tmp_path):
        task = small_task()
        res = train_loop(task, small_cfg(steps=40, eval_every=40))
        path = tmp_path / "model.json"
        save_model(res.model, path)
        restored = load_model(path)
        logits1, _, _ = res.model.forward(task.tokens[:32], mode="eval")
        logits2, _, _ = restored.forward(task.tokens[:32], mode="eval")
        np.testing.assert_array_equal(logits1, logits2)

    def test_round_trip_topk(self, tmp_path):
        task = small_task()
        res = run_baseline(task, small_cfg(adapt=None, steps=40, eval_every=40), 3, 2)
        path = tmp_path / "model.json"
        save_model(res.model, path)
        restored = load_model(path)
        logits1, _, _ = res.model.forward(task.tokens[:32], mode="eval")
        logits2, _, _ = restored.forward(task.tokens[:32], mode="eval")
        np.testing.assert_array_equal(logits1, logits2)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            model_from_doc({"schema": "bogus/1"})
