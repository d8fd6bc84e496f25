import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynmoe.adaptive import AdaptConfig, RoutingRecord, adapt
from dynmoe.harness import (
    CheckpointError,
    MoeClassifier,
    activated_params_total,
    load_model,
    model_to_doc,
    save_model,
)
from dynmoe.moe_layer import (
    ExpertMlp,
    MoeLayer,
    gelu,
    gelu_grad,
    moe_backward,
    moe_forward,
)
from dynmoe.numerics import Param, cosine_scores_batch, finite_diff_grad, sigmoid
from dynmoe.router import RouterParams, TopKRouter, route_top_any
from dynmoe.telemetry import PassStats

from conftest import rel_err


def build_layer(rng, d=5, h=7, n_experts=3):
    return MoeLayer.around(RouterParams.random(d, n_experts, rng), h, rng)


def layer_with_router(rng, w, g, d, h):
    n_experts = w.shape[1]
    return MoeLayer(
        router=RouterParams(w_g=Param(w), g=Param(g)),
        experts=ExpertMlp.random(d, h, n_experts, rng),
    )


def one_layer_model(layer, rng):
    """A classifier around ``layer`` alone, for the model-level API."""
    return MoeClassifier([layer], Param(rng.standard_normal((layer.d, 2))), Param(np.zeros(2)))


def stats_with_k(k):
    """Pass statistics of a pass whose tokens activate ``k`` experts each."""
    k = np.asarray(k, dtype=np.int64)
    return PassStats(counts=np.zeros(0, dtype=np.int64), hist=np.bincount(k),
                     n_tokens=k.size, k_total=int(k.sum()))


class TestGelu:
    def test_matches_difference_quotient(self):
        u = np.linspace(-3, 3, 25)
        hstep = 1e-6
        numeric = (gelu(u + hstep)[0] - gelu(u - hstep)[0]) / (2 * hstep)
        assert rel_err(gelu_grad(u, gelu(u)[1]), numeric) < 1e-8


class TestMoeForward:
    def test_single_activation_equals_that_expert(self, rng):
        layer = build_layer(rng)
        tokens = rng.standard_normal((10, layer.d))
        out, dec = moe_forward(layer, tokens)
        singles = np.nonzero(dec.k == 1)[0]
        assert singles.size > 0
        for i in singles:
            e = int(np.argmax(dec.mask[i]))
            want = layer.experts.forward(e, tokens[i : i + 1])[0][0]
            assert rel_err(out[i], want) < 1e-12

    def test_identical_experts_mean_is_either(self, rng):
        layer = build_layer(rng, n_experts=2)
        for p in layer.experts.params():
            p.value[1] = p.value[0]
        # force both experts active for a token with positive cosine to both
        layer.router.w_g.value[:, 0] = 1.0
        layer.router.w_g.value[:, 1] = 1.0
        tokens = np.ones((1, layer.d))
        out, dec = moe_forward(layer, tokens)
        assert dec.k.tolist() == [2]
        want = layer.experts.forward(0, tokens)[0]
        assert rel_err(out, want) < 1e-12

    def test_matches_per_token_loop_oracle(self, rng):
        layer = build_layer(rng, d=6, h=5, n_experts=4)
        tokens = rng.standard_normal((6, 6))
        out, dec = moe_forward(layer, tokens)
        for i in range(6):
            active = np.nonzero(dec.mask[i] > 0)[0]
            if active.size == 0:
                np.testing.assert_array_equal(out[i], 0.0)
                continue
            acc = np.zeros(6)
            for e in active:
                acc += layer.experts.forward(e, tokens[i : i + 1])[0][0]
            assert rel_err(out[i], acc / active.size) < 1e-12

    def test_k0_rows_are_zero_in_train_mode(self, rng):
        layer = build_layer(rng)
        layer.router.g.value[:] = 8.0  # nothing activates
        tokens = rng.standard_normal((4, layer.d))
        out, dec = moe_forward(layer, tokens, mode="train")
        assert np.all(dec.k == 0)
        np.testing.assert_array_equal(out, 0.0)

    def test_eval_mode_has_no_empty_rows(self, rng):
        layer = build_layer(rng)
        layer.router.g.value[:] = 8.0
        tokens = rng.standard_normal((12, layer.d))
        out, dec = moe_forward(layer, tokens, mode="eval")
        assert np.all(dec.k >= 1)
        assert np.any(out != 0.0)

    def test_dispatch_conservation(self, rng):
        layer = build_layer(rng, n_experts=5)
        tokens = rng.standard_normal((40, layer.d))
        _, dec = moe_forward(layer, tokens)
        assert int(dec.mask.sum()) == int(dec.k.sum())

    def test_permutation_equivariance(self, rng):
        layer = build_layer(rng, n_experts=4)
        tokens = rng.standard_normal((15, layer.d))
        out, _ = moe_forward(layer, tokens)

        perm = list(rng.permutation(4))
        permuted = MoeLayer(
            router=RouterParams(
                w_g=Param(layer.router.w_g.value[:, perm].copy()),
                g=Param(layer.router.g.value[perm].copy()),
            ),
            experts=ExpertMlp(*(Param(p.value[perm]) for p in layer.experts.params())),
        )
        out_perm, _ = moe_forward(permuted, tokens)
        assert rel_err(out_perm, out) < 1e-12


def layer_of(router, d, h, n_experts, rng):
    """A top-any layer, or a top-k one selecting 1 to K - 1 experts."""
    if router == "top_any":
        return MoeLayer.around(RouterParams.random(d, n_experts, rng), h, rng)
    top_k = int(rng.integers(1, n_experts))
    return MoeLayer.around(TopKRouter.random(d, n_experts, top_k, rng), h, rng)


class TestEvalWorkspace:
    """Eval mode runs every expert in one workspace per call. Train mode,
    on fresh arrays per expert, is its independent reference."""

    @settings(max_examples=60, deadline=None)
    @given(router=st.sampled_from(["top_any", "topk"]), d=st.integers(2, 8),
           h=st.integers(1, 12), n_experts=st.integers(2, 5), n=st.integers(1, 40),
           idle=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(router="top_any", d=6, h=3, n_experts=3, n=1, idle=True, seed=0)
    @example(router="topk", d=5, h=5, n_experts=4, n=7, idle=True, seed=1)
    @example(router="top_any", d=4, h=11, n_experts=5, n=40, idle=False, seed=2)
    def test_eval_equals_train_bit_for_bit(self, router, d, h, n_experts, n, idle, seed):
        rng = np.random.default_rng(seed)
        layer = layer_of(router, d, h, n_experts, rng)
        tokens = rng.standard_normal((n, d))
        if router == "top_any":
            # Expert 1 serves every row, so eval needs no top-1 fallback and
            # each expert runs the same rows in both modes. A fallback row can
            # turn an expert's one-row product into a taller one, which numpy
            # sends down another BLAS path with other rounding.
            layer.router.g.value[1] = -5.0
            if idle:
                layer.router.g.value[0] = 5.0  # expert 0 serves no row
        elif idle:  # positive tokens and weights; expert 0 always scores lowest
            tokens = np.abs(tokens)
            w = layer.router.w_g.value
            w[:] = np.abs(w)
            w[:, 0] = -1.0
        train_out, train_dec = moe_forward(layer, tokens, mode="train")
        eval_out, eval_dec = moe_forward(layer, tokens, mode="eval")
        np.testing.assert_array_equal(eval_dec.mask, train_dec.mask)
        assert eval_out.tobytes() == train_out.tobytes()
        if idle:
            assert not eval_dec.mask[:, 0].any()

    @pytest.mark.parametrize("router", ["top_any", "topk"])
    def test_returned_outputs_outlive_later_calls(self, rng, router):
        layer = layer_of(router, 6, 9, 4, rng)
        returned = []
        for n in (1024, 257, 1):
            out = moe_forward(layer, rng.standard_normal((n, layer.d)), mode="eval")[0]
            assert out.flags.owndata
            returned.append((out, out.copy()))
        for out, copy in returned:
            assert out.tobytes() == copy.tobytes()


class TestExpertRowCount:
    """A row's expert output, through both products, does not depend on how
    many rows share the gather once there are two or more. One forward over
    an expert's activated and seed-pass rows together relies on it. A
    one-row gather takes another BLAS path and may differ."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([16, 64, 128]), n=st.integers(3, 1100),
           seed=st.integers(0, 2**32 - 1))
    @example(dim=16, n=3, seed=0)
    @example(dim=128, n=1024, seed=1)
    def test_rows_do_not_depend_on_the_gather_size(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        experts = ExpertMlp.random(dim, dim, 2, rng)
        x = rng.standard_normal((n, dim))
        out, (_, pre, _, _) = experts.forward(1, x)
        for m in (2, int(rng.integers(2, n))):
            rows = rng.choice(n, m, replace=False)
            sub_out, (_, sub_pre, _, _) = experts.forward(1, x[rows])
            assert sub_pre.tobytes() == pre[rows].tobytes()  # x @ w1 + b1
            assert sub_out.tobytes() == out[rows].tobytes()  # gelu(.) @ w2 + b2


class TestMoeBackward:
    def test_zero_upstream_zero_grads(self, rng):
        layer = build_layer(rng)
        tokens = rng.standard_normal((8, layer.d))
        _, dec = moe_forward(layer, tokens)
        d_tok = moe_backward(layer, dec, tokens, np.zeros_like(tokens))
        for p in layer.params():
            np.testing.assert_array_equal(p.grad, 0.0)
        np.testing.assert_array_equal(d_tok, 0.0)

    def test_expert_grads_match_finite_differences(self, rng):
        layer = build_layer(rng, d=4, h=5, n_experts=3)
        tokens = rng.standard_normal((6, 4))
        coeff = rng.standard_normal((6, 4))

        out, dec = moe_forward(layer, tokens)
        moe_backward(layer, dec, tokens, coeff)

        def objective(expert_idx, tensor_name):
            def f(p):
                orig = getattr(layer.experts, tensor_name)
                saved = orig.value[expert_idx].copy()
                orig.value[expert_idx] = p.value
                try:
                    out2, dec2 = moe_forward(layer, tokens)
                    # expert weights cannot flip routing, asserted anyway
                    assert np.array_equal(dec2.mask, dec.mask)
                    return float((coeff * out2).sum())
                finally:
                    orig.value[expert_idx] = saved

            return f

        for e in range(3):
            for name in ("w1", "b1", "w2", "b2"):
                p = getattr(layer.experts, name)
                fd = finite_diff_grad(objective(e, name), Param(p.value[e].copy()), eps=1e-6)
                assert rel_err(p.grad[e], fd) < 1e-4

    def test_router_grads_match_surrogate_reference(self, rng):
        # the layer's mask gradient fed through a scalar-loop reference of
        # the sign-to-identity surrogate must agree with the accumulated grads
        import math

        layer = build_layer(rng, d=4, h=5, n_experts=3)
        tokens = rng.standard_normal((5, 4))
        coeff = rng.standard_normal((5, 4))
        out, dec = moe_forward(layer, tokens)
        moe_backward(layer, dec, tokens, coeff)

        # rebuild the upstream-wrt-mask exactly as the layer defines it
        inv_k = np.where(dec.k > 0, 1.0 / np.maximum(dec.k, 1), 0.0)
        e_outs = [layer.experts.forward(e, tokens)[0] for e in range(3)]
        y = np.zeros_like(tokens)
        for e in range(3):
            y += e_outs[e] * dec.mask[:, e, None]
        y *= inv_k[:, None]
        up_mask = np.stack(
            [((e_outs[e] - y) * coeff).sum(axis=1) * inv_k for e in range(3)], axis=1
        )

        w = layer.router.w_g.value
        g = layer.router.g.value
        ref_w = np.zeros_like(w)
        ref_g = np.zeros_like(g)
        for i in range(5):
            xv = tokens[i]
            xn = math.sqrt(float(xv @ xv))
            for e in range(3):
                wv = w[:, e]
                wn = math.sqrt(float(wv @ wv))
                s = float(xv @ wv) / (xn * wn)
                sig_s = 1.0 / (1.0 + math.exp(-s))
                sig_g = 1.0 / (1.0 + math.exp(-g[e]))
                ds = up_mask[i, e] * sig_s * (1.0 - sig_s)
                ref_g[e] += up_mask[i, e] * (-(sig_g * (1.0 - sig_g)))
                ref_w[:, e] += ds * (xv / (xn * wn) - s * wv / wn**2)

        assert rel_err(layer.router.w_g.grad, ref_w) < 1e-10
        assert rel_err(layer.router.g.grad, ref_g) < 1e-10

    def test_stale_decision_rejected(self, rng):
        from dynmoe.numerics import DimensionError

        layer = build_layer(rng)
        tokens = rng.standard_normal((8, layer.d))
        _, dec = moe_forward(layer, tokens)
        with pytest.raises(DimensionError):
            moe_backward(layer, dec, tokens, np.zeros((3, layer.d)))


def surrogate_output(layer, tokens, dec0, sig_g0):
    """The layer output y with the binary mask replaced by its straight-through
    surrogate mask0 + (sig_s - sig_g) - (sig_s0 - sig_g0): equal to the mask
    at the forward point, with the derivative the backward assigns to it.
    ``sig_g0`` is sigmoid(g) at the forward point, taken before finite
    differences move g. Rows that activated nothing at the forward point stay
    at y = 0."""
    sig_s = sigmoid(cosine_scores_batch(tokens, layer.router.w_g.value))
    m = dec0.mask + (sig_s - sigmoid(layer.router.g.value)) - (dec0.scores - sig_g0)
    outs = np.stack([layer.experts.forward(e, tokens)[0] for e in range(layer.n_experts)],
                    axis=1)  # (N, K, d)
    served = dec0.k > 0
    y = np.zeros_like(tokens)
    y[served] = (m[served, :, None] * outs[served]).sum(axis=1) / m[served].sum(axis=1)[:, None]
    return y


def surrogate_objective(layer, tokens, coeff, dec0, sig_g0):
    """sum(coeff * y) for the :func:`surrogate_output` y."""
    return float((coeff * surrogate_output(layer, tokens, dec0, sig_g0)).sum())


def edge_batch_layer(rng, state):
    """A layer and a batch with k = 0 and k = 2 rows and an expert nobody
    activates, either as built or right after adapt removed one expert and
    added one."""
    d, h = 4, 5
    layer = layer_with_router(rng, rng.standard_normal((d, 3)), np.array([0.0, 0.0, 8.0]), d, h)
    if state == "post_adapt":
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [3, 0, 2]
        rec.r_s[:] = rng.standard_normal(d)
        report = adapt(layer, rec, AdaptConfig(max_experts=3), rng)
        assert report.removed_experts == [1] and report.added
        # the new expert carries threshold 0; silence the first one instead
        layer.router.g.value[:] = [8.0, 0.0, 0.0]
    tokens = rng.standard_normal((16, d))
    return layer, tokens


class TestLayerBackwardEdgeStates:
    """Every gradient of the layer against the central-difference oracle
    on the straight-through surrogate, in the states the pair-wise dispatch
    special-cases. With ``accumulate`` the grads already hold another term
    (train_step adds the auxiliary-loss gradient to the router's), which the
    backward must add to on every path, not overwrite."""

    @pytest.mark.parametrize("state", ["fresh", "post_adapt"])
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_all_grads_match_surrogate_fd(self, rng, state, accumulate):
        layer, tokens = edge_batch_layer(rng, state)
        coeff = rng.standard_normal(tokens.shape)
        _, dec = moe_forward(layer, tokens)
        sig_g0 = sigmoid(layer.router.g.value)
        assert np.any(dec.k == 0) and np.any(dec.k == 1) and np.any(dec.k == 2)
        assert np.any(dec.mask.sum(axis=0) == 0)
        prior = [rng.standard_normal(p.grad.shape) if accumulate else np.zeros(p.grad.shape)
                 for p in layer.params()]
        for p, g in zip(layer.params(), prior):
            p.grad[...] = g
        d_tokens = moe_backward(layer, dec, tokens, coeff)

        def objective(_):
            return surrogate_objective(layer, tokens, coeff, dec, sig_g0)

        for i, (p, g) in enumerate(zip(layer.params(), prior)):
            fd = finite_diff_grad(objective, p, eps=1e-6)
            assert rel_err(p.grad - g, fd) < 1e-5, (i, p.name)

        x = Param(tokens.copy())
        fd_x = finite_diff_grad(
            lambda q: surrogate_objective(layer, q.value, coeff, dec, sig_g0), x, eps=1e-6
        )
        assert rel_err(d_tokens, fd_x) < 1e-5


class TestBackwardNeedsCache:
    def test_eval_decision_rejected(self, rng):
        layer = build_layer(rng)
        tokens = rng.standard_normal((6, layer.d))
        _, dec = moe_forward(layer, tokens, mode="eval")
        assert dec.pairs is None
        with pytest.raises(ValueError, match="no expert cache"):
            moe_backward(layer, dec, tokens, np.ones_like(tokens))

    def test_bare_router_decision_rejected(self, rng):
        layer = build_layer(rng)
        tokens = rng.standard_normal((6, layer.d))
        dec = route_top_any(tokens, layer.router)
        with pytest.raises(ValueError, match="no expert cache"):
            moe_backward(layer, dec, tokens, np.ones_like(tokens))


class TestCountActivatedParams:
    """``activated_params_total``: router parameters plus mean k experts."""

    def test_all_k1(self, rng):
        layer = build_layer(rng, d=4, h=3, n_experts=2)
        per_expert = layer.experts.param_count()
        router = 4 * 2 + 2
        model = one_layer_model(layer, rng)
        assert activated_params_total(model, [stats_with_k(np.ones(7))]) == router + per_expert

    def test_mean_of_mixed_k(self, rng):
        layer = build_layer(rng, d=4, h=3, n_experts=4)
        per_expert = layer.experts.param_count()
        router = 4 * 4 + 4
        model = one_layer_model(layer, rng)
        total = activated_params_total(model, [stats_with_k([1, 3, 1, 3])])
        assert total == router + 2 * per_expert

    def test_monotone_in_k(self, rng):
        model = one_layer_model(build_layer(rng, n_experts=4), rng)
        low = activated_params_total(model, [stats_with_k([1, 1, 2])])
        high = activated_params_total(model, [stats_with_k([1, 2, 2])])
        assert high > low

    def test_topk_router_has_no_thresholds(self, rng):
        layer = MoeLayer.around(TopKRouter.random(4, 4, 2, rng), 3, rng)
        model = MoeClassifier([layer], Param(np.zeros((4, 2))), Param(np.zeros(2)))
        per_expert = layer.experts.param_count()
        assert activated_params_total(model, [stats_with_k([2, 2])]) == 4 * 4 + 2 * per_expert


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, rng, tmp_path):
        layer = build_layer(rng, d=6, h=5, n_experts=3)
        tokens = rng.standard_normal((9, 6))
        out1, dec1 = moe_forward(layer, tokens)

        path = tmp_path / "model.json"
        save_model(one_layer_model(layer, rng), path)
        restored = load_model(path).layers[0]
        out2, dec2 = moe_forward(restored, tokens)

        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(dec1.mask, dec2.mask)

    def test_round_trip_values_exact(self, rng, tmp_path):
        layer = build_layer(rng)
        path = tmp_path / "model.json"
        save_model(one_layer_model(layer, rng), path)
        restored = load_model(path).layers[0]
        np.testing.assert_array_equal(restored.router.w_g.value, layer.router.w_g.value)
        np.testing.assert_array_equal(restored.router.g.value, layer.router.g.value)
        for p, q in zip(restored.experts.params(), layer.experts.params()):
            np.testing.assert_array_equal(p.value, q.value)

    def test_unknown_schema_rejected(self, rng, tmp_path):
        doc = model_to_doc(one_layer_model(build_layer(rng), rng))
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, "schema": "dynmoe-model/1"}))
        with pytest.raises(CheckpointError, match="unsupported model schema 'dynmoe-model/1'"):
            load_model(path)

    @pytest.mark.parametrize("w_g_name, g_name, key", [
        ("", "", ""),        # unnamed: both tensors would go under "", and w_g be lost
        ("w_g", "w_g", "w_g"),  # repeated: g would overwrite w_g
    ])
    def test_empty_or_repeated_key_refused(self, rng, tmp_path, w_g_name, g_name, key):
        # the router names its Params; renamed after construction, they collide
        router = RouterParams(w_g=Param(rng.standard_normal((5, 3))), g=Param(np.zeros(3)))
        router.w_g.name, router.g.name = w_g_name, g_name
        layer = MoeLayer(router=router, experts=ExpertMlp.random(5, 4, 3, rng))
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=f"layer 0: tensor key '{key}' is empty or repeated"):
            save_model(one_layer_model(layer, rng), path)
        assert not path.exists()

    def test_unnamed_params_are_named_by_their_owners(self, rng, tmp_path):
        w, g = rng.standard_normal((5, 3)), rng.standard_normal(3)
        layer = MoeLayer(router=RouterParams(w_g=Param(w), g=Param(g)),
                         experts=ExpertMlp.random(5, 4, 3, rng))
        model = MoeClassifier([layer], Param(rng.standard_normal((5, 2))), Param(np.zeros(2)))
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert [p.name for p in restored.params()] == [p.name for p in model.params()] == \
            ["w_out", "b_out", "w_g", "g", "w1", "b1", "w2", "b2"]
        for p, q in zip(restored.params(), model.params()):
            assert p.value.tobytes() == q.value.tobytes(), p.name

    @settings(max_examples=30, deadline=None)
    @given(router=st.sampled_from(["top_any", "topk"]), n_layers=st.integers(1, 2),
           d=st.integers(2, 6), h=st.integers(1, 8), n_experts=st.integers(2, 4),
           adapted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(router="top_any", n_layers=2, d=4, h=7, n_experts=3, adapted=True, seed=0)
    @example(router="topk", n_layers=2, d=5, h=3, n_experts=3, adapted=False, seed=1)
    @example(router="top_any", n_layers=1, d=3, h=5, n_experts=2, adapted=False, seed=2)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, router, n_layers, d, h, n_experts,
                                     adapted, seed):
        """Every Param and the eval logits survive save/load bit for bit,
        for both routers, fresh or after an adapt that removes expert 0 and
        appends one (top-any layers only adapt); each written layer holds
        exactly the documented keys."""
        rng = np.random.default_rng(seed)
        layers = [layer_of(router, d, h, n_experts, rng) for _ in range(n_layers)]
        model = MoeClassifier(layers, Param(rng.standard_normal((d, 2)), name="w_out"),
                              Param(rng.standard_normal(2), name="b_out"))
        if adapted and router == "top_any":
            for layer in layers:
                rec = RoutingRecord.fresh(layer.n_experts, layer.d)
                rec.r_e[1:] = 1
                rec.r_s[:] = rng.standard_normal(d)
                report = adapt(layer, rec, AdaptConfig(max_experts=n_experts), rng)
                assert report.removed_experts == [0] and report.added
        path = tmp_path_factory.mktemp("ckpt") / "model.json"
        save_model(model, path)
        restored = load_model(path)

        doc = json.loads(path.read_text())
        assert set(doc) == {"schema", "w_out", "b_out", "layers"}
        assert doc["schema"] == "dynmoe-model/2"
        router_key = "g" if router == "top_any" else "top_k"
        for layer_doc in doc["layers"]:
            assert set(layer_doc) == {"w_g", router_key, "w1", "b1", "w2", "b2"}

        for got, want in zip(restored.layers, layers):
            assert type(got.router) is type(want.router)
            assert getattr(got.router, "top_k", None) == getattr(want.router, "top_k", None)
        assert [(p.name, p.shape) for p in restored.params()] == \
            [(p.name, p.shape) for p in model.params()]
        for p, q in zip(restored.params(), model.params()):
            assert p.value.tobytes() == q.value.tobytes(), p.name
        tokens = rng.standard_normal((13, d))
        want = model.forward(tokens, mode="eval")[0]
        assert restored.forward(tokens, mode="eval")[0].tobytes() == want.tobytes()
