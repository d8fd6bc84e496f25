import math

import numpy as np
import pytest

from dynmoe.numerics import ConfigurationError, DegenerateInputError, DimensionError, Param, sigmoid
from dynmoe.router import (
    RouterParams,
    TopKRouter,
    route_eval,
    route_top_any,
    route_top_any_backward,
)

from conftest import rel_err


def brute_force_top_any(tokens, w, g):
    """Entrywise scalar-math evaluator of the gating rule; shares no code
    with the vectorized path."""
    n, d = tokens.shape
    n_experts = w.shape[1]
    mask = np.zeros((n, n_experts))
    for i in range(n):
        xn = math.sqrt(sum(tokens[i, j] ** 2 for j in range(d)))
        for e in range(n_experts):
            dot = sum(tokens[i, j] * w[j, e] for j in range(d))
            cn = math.sqrt(sum(w[j, e] ** 2 for j in range(d)))
            s = dot / (xn * cn)
            sig_s = 1.0 / (1.0 + math.exp(-s))
            sig_g = 1.0 / (1.0 + math.exp(-g[e]))
            if sig_s > sig_g:
                mask[i, e] = 1.0
    return mask


def random_router(rng, d, n_experts, threshold_scale=0.5):
    w = Param(rng.standard_normal((d, n_experts)), name="w_g")
    g = Param(threshold_scale * rng.standard_normal(n_experts), name="g")
    return RouterParams(w_g=w, g=g)


def _router(kind, w_g, g=(0.0, 0.0, 0.0), top_k=1):
    if kind == "top_any":
        return RouterParams(w_g=Param(w_g), g=Param(g))
    return TopKRouter(Param(w_g), top_k=top_k)


@pytest.mark.parametrize("kind, w_g, extra, error", [
    ("top_any", np.ones(4), {}, DimensionError),
    ("top_k", np.ones(4), {}, DimensionError),
    ("top_any", np.ones((4, 3)), {"g": np.zeros((3, 1))}, DimensionError),
    ("top_any", np.ones((4, 3)), {"g": np.zeros(2)}, DimensionError),
    ("top_any", np.ones((4, 0)), {"g": np.zeros(0)}, ConfigurationError),
    ("top_any", np.ones((4, 3)) * [1.0, 0.0, 1.0], {}, ConfigurationError),
    ("top_k", np.ones((4, 3)), {"top_k": 0}, ConfigurationError),
    ("top_k", np.ones((4, 3)), {"top_k": 4}, ConfigurationError),
    ("top_k", np.ones((4, 3)), {"top_k": 2.0}, ConfigurationError),
], ids=["top_any_1d_w_g", "top_k_1d_w_g", "2d_g", "short_g", "no_expert", "zero_column",
        "top_k_0", "top_k_K_plus_1", "top_k_float"])
def test_malformed_router_is_refused_on_construction(kind, w_g, extra, error):
    # a 1-d w_g, a g that is not one threshold per column, no expert, a
    # zero column or a top_k outside [1, K] (or not an int) is refused
    with pytest.raises(error) as caught:
        _router(kind, w_g, **extra)
    assert type(caught.value) is error


class TestRouteTopAny:
    def test_identity_router_unit_token(self):
        params = RouterParams(w_g=Param(np.eye(2)), g=Param(np.zeros(2)))
        dec = route_top_any(np.array([[1.0, 0.0]]), params)
        # score 1 squashes above 0.5, score 0 squashes to exactly 0.5 and
        # the strict comparison keeps expert 2 inactive
        np.testing.assert_array_equal(dec.mask, [[1.0, 0.0]])
        assert dec.k.tolist() == [1]
        assert abs(dec.scores[0, 0] - sigmoid(np.array([1.0]))[0]) < 1e-15

    def test_all_negative_cosine_activates_nothing(self):
        params = RouterParams(w_g=Param(np.eye(2)), g=Param(np.zeros(2)))
        dec = route_top_any(np.array([[-1.0, -1.0]]), params)
        np.testing.assert_array_equal(dec.mask, [[0.0, 0.0]])
        assert dec.k.tolist() == [0]

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            n_experts = int(rng.integers(1, 7))
            tokens = rng.standard_normal((int(rng.integers(1, 6)), d))
            params = random_router(rng, d, n_experts)
            dec = route_top_any(tokens, params)
            want = brute_force_top_any(tokens, params.w_g.value, params.g.value)
            np.testing.assert_array_equal(dec.mask, want)
            np.testing.assert_array_equal(dec.k, want.sum(axis=1).astype(np.int64))

    def test_mask_k_consistency(self, rng):
        params = random_router(rng, 6, 4)
        dec = route_top_any(rng.standard_normal((40, 6)), params)
        np.testing.assert_array_equal(dec.k, dec.mask.sum(axis=1).astype(np.int64))
        # the mean-combine weights mask / k, zero rows where k = 0
        assert np.any(dec.k == 0) and np.any(dec.k > 1)
        served = dec.k > 0
        np.testing.assert_array_equal(dec.weights[served],
                                      dec.mask[served] / dec.k[served, None])
        np.testing.assert_array_equal(dec.weights[~served], 0.0)

    def test_positive_scale_invariance(self, rng):
        params = random_router(rng, 5, 4)
        tokens = rng.standard_normal((30, 5))
        base = route_top_any(tokens, params)
        for c in (1e-3, 1.0, 1e3):
            scaled = route_top_any(c * tokens, params)
            np.testing.assert_array_equal(scaled.mask, base.mask)
            np.testing.assert_array_equal(scaled.k, base.k)

    def test_raising_threshold_only_removes_own_activations(self, rng):
        params = random_router(rng, 5, 4)
        tokens = rng.standard_normal((50, 5))
        base = route_top_any(tokens, params)
        bumped = RouterParams(
            w_g=Param(params.w_g.value.copy()), g=Param(params.g.value.copy())
        )
        bumped.g.value[2] += 0.7
        dec = route_top_any(tokens, bumped)
        assert np.all(dec.mask[:, 2] <= base.mask[:, 2])
        others = [0, 1, 3]
        np.testing.assert_array_equal(dec.mask[:, others], base.mask[:, others])

    def test_zero_token_rejected(self, rng):
        params = random_router(rng, 3, 2)
        with pytest.raises(DegenerateInputError):
            route_top_any(np.zeros((1, 3)), params)


class TestRouteTopAnyBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        params = random_router(rng, 4, 3)
        tokens = rng.standard_normal((6, 4))
        dec = route_top_any(tokens, params)
        d_tok = route_top_any_backward(dec, np.zeros_like(dec.mask), tokens, params)
        np.testing.assert_array_equal(params.w_g.grad, 0.0)
        np.testing.assert_array_equal(params.g.grad, 0.0)
        np.testing.assert_array_equal(d_tok, 0.0)

    def test_single_token_single_expert_hand_chain(self):
        # d=2, K=1: s = <x, w>/(|x||w|), upstream 1.
        x = np.array([[0.6, 0.8]])
        w = np.array([[1.0], [0.5]])
        g0 = 0.3
        params = RouterParams(w_g=Param(w.copy()), g=Param(np.array([g0])))
        dec = route_top_any(x, params)
        route_top_any_backward(dec, np.ones((1, 1)), x, params)

        sig_g = 1.0 / (1.0 + math.exp(-g0))
        assert abs(params.g.grad[0] - (-(sig_g * (1 - sig_g)))) < 1e-14

        xv, wv = x[0], w[:, 0]
        xn, wn = np.linalg.norm(xv), np.linalg.norm(wv)
        s = float(xv @ wv / (xn * wn))
        sig_s = 1.0 / (1.0 + math.exp(-s))
        ds = sig_s * (1 - sig_s)
        want_w = ds * (xv / (xn * wn) - s * wv / wn**2)
        assert rel_err(params.w_g.grad[:, 0], want_w) < 1e-12
        want_x = ds * (wv / (xn * wn) - s * xv / xn**2)
        # backward returns the token gradient rather than accumulating it
        params2 = RouterParams(w_g=Param(w.copy()), g=Param(np.array([g0])))
        d_tok = route_top_any_backward(dec, np.ones((1, 1)), x, params2)
        assert rel_err(d_tok[0], want_x) < 1e-12

    def test_matches_surrogate_reference(self, rng):
        # Reference: sign replaced by identity, L = sum(up * (sig(s) - sig(g))),
        # gradients assembled entry by entry with scalar loops.
        for _ in range(30):
            d = int(rng.integers(2, 7))
            n_experts = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            tokens = rng.standard_normal((n, d))
            params = random_router(rng, d, n_experts)
            upstream = rng.standard_normal((n, n_experts))

            dec = route_top_any(tokens, params)
            d_tok = route_top_any_backward(dec, upstream, tokens, params)

            ref_w = np.zeros((d, n_experts))
            ref_g = np.zeros(n_experts)
            ref_x = np.zeros((n, d))
            w = params.w_g.value
            for i in range(n):
                xv = tokens[i]
                xn = math.sqrt(float(xv @ xv))
                for e in range(n_experts):
                    wv = w[:, e]
                    wn = math.sqrt(float(wv @ wv))
                    s = float(xv @ wv) / (xn * wn)
                    sig_s = 1.0 / (1.0 + math.exp(-s))
                    sig_g = 1.0 / (1.0 + math.exp(-params.g.value[e]))
                    ds = upstream[i, e] * sig_s * (1.0 - sig_s)
                    ref_g[e] += upstream[i, e] * (-(sig_g * (1.0 - sig_g)))
                    ref_w[:, e] += ds * (xv / (xn * wn) - s * wv / wn**2)
                    ref_x[i] += ds * (wv / (xn * wn) - s * xv / xn**2)

            assert rel_err(params.w_g.grad, ref_w) < 1e-10
            assert rel_err(params.g.grad, ref_g) < 1e-10
            assert rel_err(d_tok, ref_x) < 1e-10

    def test_surrogate_reference_itself_passes_finite_differences(self, rng):
        # Anchors the analytic reference: central differences on the
        # surrogate objective agree with the straight-through gradients.
        d, n_experts, n = 4, 3, 5
        tokens = rng.standard_normal((n, d))
        params = random_router(rng, d, n_experts)
        upstream = rng.standard_normal((n, n_experts))
        dec = route_top_any(tokens, params)
        route_top_any_backward(dec, upstream, tokens, params)

        from dynmoe.numerics import cosine_scores_batch, finite_diff_grad

        def surrogate(w_param):
            s = cosine_scores_batch(tokens, w_param.value)
            gap = sigmoid(s) - sigmoid(params.g.value)[None, :]
            return float((upstream * gap).sum())

        fd = finite_diff_grad(surrogate, Param(params.w_g.value.copy()), eps=1e-6)
        assert rel_err(params.w_g.grad, fd) < 1e-6

        def surrogate_g(g_param):
            s = cosine_scores_batch(tokens, params.w_g.value)
            gap = sigmoid(s) - sigmoid(g_param.value)[None, :]
            return float((upstream * gap).sum())

        fd_g = finite_diff_grad(surrogate_g, Param(params.g.value.copy()), eps=1e-6)
        assert rel_err(params.g.grad, fd_g) < 1e-6

    def test_shape_mismatch_rejected(self, rng):
        params = random_router(rng, 4, 3)
        tokens = rng.standard_normal((6, 4))
        dec = route_top_any(tokens, params)
        from dynmoe.numerics import DimensionError

        with pytest.raises(DimensionError):
            route_top_any_backward(dec, np.zeros((6, 2)), tokens, params)


class TestRouteEval:
    def test_empty_row_becomes_argmax_one_hot(self):
        # Craft thresholds high enough that nothing activates.
        w = np.array([[1.0, 0.2, -0.5], [0.1, 1.0, 0.3]])
        params = RouterParams(w_g=Param(w), g=Param(np.full(3, 10.0)))
        tokens = np.array([[0.4, 0.9]])
        top_any = route_top_any(tokens, params)
        assert top_any.k.tolist() == [0]
        dec = route_eval(tokens, params)
        best = int(np.argmax(dec.scores[0]))
        want = np.zeros(3)
        want[best] = 1.0
        np.testing.assert_array_equal(dec.mask[0], want)
        # the fallback row's combine weights are its one-hot mask
        np.testing.assert_array_equal(dec.weights[0], want)
        assert dec.k.tolist() == [1]

    def test_rows_with_activations_untouched(self, rng):
        params = random_router(rng, 5, 4)
        tokens = rng.standard_normal((60, 5))
        base = route_top_any(tokens, params)
        dec = route_eval(tokens, params)
        busy = base.k > 0
        np.testing.assert_array_equal(dec.mask[busy], base.mask[busy])
        assert np.all(dec.k >= 1)

    def test_tie_breaks_to_lowest_index(self):
        # Duplicate columns give exactly equal scores.
        w = np.array([[1.0, 1.0], [0.0, 0.0]])
        params = RouterParams(w_g=Param(w), g=Param(np.full(2, 5.0)))
        dec = route_eval(np.array([[0.3, 0.1]]), params)
        # scan oracle: first maximum wins
        row = dec.scores[0]
        best, best_val = 0, row[0]
        for e in range(1, 2):
            if row[e] > best_val:
                best, best_val = e, row[e]
        assert dec.mask[0, best] == 1.0 and best == 0

    def test_min_k_is_one_over_random_tokens(self, rng):
        params = random_router(rng, 6, 5, threshold_scale=2.0)
        dec = route_eval(rng.standard_normal((500, 6)), params)
        assert dec.k.min() >= 1


class TestTopKBaseline:
    def test_k_equals_K_selects_everything(self, rng):
        w_g = Param(rng.standard_normal((4, 2)))
        tokens = rng.standard_normal((5, 4))
        dec = TopKRouter(w_g, top_k=2).route(tokens, "train")
        np.testing.assert_array_equal(dec.mask, 1.0)
        # weights are the softmax itself, which already sums to one
        assert rel_err(dec.weights, dec.scores) < 1e-12

    def test_dominant_logit_top1(self):
        w_g = Param(np.eye(3))
        dec = TopKRouter(w_g, top_k=1).route(np.array([[10.0, 0.0, 0.0]]), "train")
        np.testing.assert_array_equal(dec.mask, [[1.0, 0.0, 0.0]])
        assert abs(dec.weights[0, 0] - 1.0) < 1e-15

    def test_matches_sort_oracle(self, rng):
        w_g = Param(rng.standard_normal((6, 4)))
        tokens = rng.standard_normal((5, 6))
        dec = TopKRouter(w_g, top_k=2).route(tokens, "train")
        logits = tokens @ w_g.value
        for i in range(5):
            exps = [math.exp(z - max(logits[i])) for z in logits[i]]
            scores = [v / sum(exps) for v in exps]
            order = sorted(range(4), key=lambda e: (-scores[e], e))
            chosen = set(order[:2])
            assert set(np.nonzero(dec.mask[i])[0]) == chosen
            total = sum(scores[e] for e in chosen)
            for e in chosen:
                assert abs(dec.weights[i, e] - scores[e] / total) < 1e-12
        assert np.all(dec.k == 2)

    def test_k_out_of_range_rejected(self, rng):
        w_g = Param(rng.standard_normal((3, 2)))
        with pytest.raises(ConfigurationError):
            TopKRouter(w_g, top_k=3)

    def test_backward_matches_finite_differences(self, rng):
        from dynmoe.numerics import finite_diff_grad

        d, n_experts, n, k = 4, 5, 6, 2
        tokens = rng.standard_normal((n, d))
        w_g = Param(rng.standard_normal((d, n_experts)))
        coeff = rng.standard_normal((n, n_experts))

        router = TopKRouter(w_g, top_k=k)
        dec = router.route(tokens, "train")
        router.backward(dec, coeff, tokens)

        def objective(p):
            d2 = TopKRouter(p, top_k=k).route(tokens, "train")
            # selection must not flip under the probe for FD to be valid
            assert np.array_equal(d2.mask, dec.mask)
            return float((coeff * d2.weights).sum())

        fd = finite_diff_grad(objective, Param(w_g.value.copy()), eps=1e-6)
        assert rel_err(w_g.grad, fd) < 1e-6
