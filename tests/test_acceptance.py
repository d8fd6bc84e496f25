"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to see them; a failed test is the FAIL
line). The end-to-end discovery runs are shared between criteria via a
module-scoped fixture."""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dynmoe.adaptive import AdaptConfig, RoutingRecord, adapt, record
from dynmoe.harness import (
    TrainConfig,
    gen_task,
    model_to_doc,
    run_baseline,
    train_loop,
)
from dynmoe.losses import diversity_simplicity_loss
from dynmoe.moe_layer import MoeLayer, moe_forward
from dynmoe.numerics import Param, finite_diff_grad
from dynmoe.router import (
    RouterParams,
    route_eval,
    route_top_any,
    route_top_any_backward,
)
from dynmoe.telemetry import PassStats

from conftest import rel_err
from test_router import brute_force_top_any, random_router


def announce(n, name, detail=""):
    print(f"\nACCEPTANCE {n:2d} PASS {name} {detail}")


# --- shared end-to-end runs ---------------------------------------------------

DISCOVERY_SEEDS = (0, 1, 2, 3, 4)
BASELINE_GRID = [(K, k) for K in (2, 4, 8) for k in (1, 2)]


@pytest.fixture(scope="module")
def discovery():
    task = gen_task(n_skills=4, d=16, n_samples=8000, seed=7)
    base_cfg = TrainConfig(
        steps=3000,
        eval_every=1000,
        hidden=16,
        init_experts=2,
        adapt=AdaptConfig(max_experts=8, check_interval=100),
    )
    dyn_runs = []
    for seed in DISCOVERY_SEEDS:
        t0 = time.monotonic()
        res = train_loop(task, replace(base_cfg, seed=seed))
        dyn_runs.append((seed, res, time.monotonic() - t0))
    baseline_runs = {}
    for K, k in BASELINE_GRID:
        cfg = replace(base_cfg, adapt=None, seed=0)
        baseline_runs[(K, k)] = run_baseline(task, cfg, K, k)
    return task, dyn_runs, baseline_runs


class TestCriterion1GatingOracle:
    def test_route_top_any_matches_brute_force(self):
        rng = np.random.default_rng(101)
        t0 = time.monotonic()
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            n_experts = int(rng.integers(1, 7))
            tokens = rng.standard_normal((int(rng.integers(1, 5)), d))
            params = random_router(rng, d, n_experts)
            dec = route_top_any(tokens, params)
            want = brute_force_top_any(tokens, params.w_g.value, params.g.value)
            np.testing.assert_array_equal(dec.mask, want)
            np.testing.assert_array_equal(dec.k, want.sum(axis=1).astype(np.int64))
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        announce(1, "gating oracle equivalence", f"(1000 instances, {elapsed:.2f}s)")


class TestCriterion2SteCorrectness:
    def test_router_ste_and_expert_finite_differences(self):
        rng = np.random.default_rng(202)
        t0 = time.monotonic()

        # router straight-through gradients vs the sign-to-identity
        # surrogate reference, assembled with scalar loops
        worst = 0.0
        for _ in range(100):
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
            worst = max(worst, rel_err(params.w_g.grad, ref_w),
                        rel_err(params.g.grad, ref_g), rel_err(d_tok, ref_x))
        assert worst < 1e-10

        # expert-weight gradients against central differences, with routing
        # asserted not to move under each probe
        fd_worst = 0.0
        for _ in range(5):
            layer = MoeLayer.around(RouterParams.random(4, 3, rng), 4, rng)
            tokens = rng.standard_normal((5, 4))
            coeff = rng.standard_normal((5, 4))
            out, dec = moe_forward(layer, tokens)
            from dynmoe.moe_layer import moe_backward

            moe_backward(layer, dec, tokens, coeff)
            for e in range(3):
                for name in ("w1", "b1", "w2", "b2"):
                    target = getattr(layer.experts, name)

                    def objective(p, _t=target, _e=e):
                        saved = _t.value[_e].copy()
                        _t.value[_e] = p.value
                        try:
                            out2, dec2 = moe_forward(layer, tokens)
                            assert np.array_equal(dec2.mask, dec.mask)  # mask stability
                            return float((coeff * out2).sum())
                        finally:
                            _t.value[_e] = saved

                    fd = finite_diff_grad(objective, Param(target.value[e].copy()), eps=1e-6)
                    fd_worst = max(fd_worst, rel_err(target.grad[e], fd))
        assert fd_worst < 1e-4

        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        announce(2, "straight-through correctness",
                 f"(router worst {worst:.2e}, expert FD worst {fd_worst:.2e}, {elapsed:.1f}s)")


class TestCriterion3AuxLossGradient:
    def test_gradcheck_and_orthonormal_zero(self):
        rng = np.random.default_rng(303)

        def value_only(w):
            k = w.shape[1]
            m = w.T @ w - np.eye(k)
            return float(np.linalg.norm(m) + np.linalg.norm(w, axis=0).mean())

        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, 7))
            w = Param(rng.standard_normal((d, k)))
            diversity_simplicity_loss(w)
            fd = finite_diff_grad(lambda p: value_only(p.value), Param(w.value.copy()))
            worst = max(worst, rel_err(w.grad, fd))
        assert worst < 1e-5

        ortho = diversity_simplicity_loss(Param(np.eye(6)[:, :4]))
        assert abs(ortho.diversity) <= 1e-12
        announce(3, "auxiliary loss gradient check",
                 f"(20 shapes, worst {worst:.2e}, orthonormal diversity {ortho.diversity:.1e})")


class TestCriterion4ScaleInvariance:
    def test_masks_identical_under_scaling(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            n_experts = int(rng.integers(1, 7))
            tokens = rng.standard_normal((int(rng.integers(1, 6)), d))
            params = random_router(rng, d, n_experts)
            base = route_top_any(tokens, params)
            for c in (1e-3, 1.0, 1e3):
                dec = route_top_any(c * tokens, params)
                np.testing.assert_array_equal(dec.mask, base.mask)
                np.testing.assert_array_equal(dec.k, base.k)
        announce(4, "token-scale invariance", "(100 instances x {1e-3, 1, 1e3}, exact)")


class TestCriterion5AdaptiveAddRemove:
    def test_add_scenario(self):
        rng = np.random.default_rng(505)
        d = 12
        layer = MoeLayer.around(RouterParams.random(d, 2, rng), 8, rng)
        layer.router.g.value[:] = 7.0  # nothing activates

        center = rng.standard_normal(d)
        center /= np.linalg.norm(center)
        cluster = center[None, :] + 0.05 * rng.standard_normal((40, d))
        unit = cluster / np.linalg.norm(cluster, axis=1, keepdims=True)
        assert (unit @ unit.T).min() > 0.0

        dec = route_top_any(cluster, layer.router)
        assert np.all(dec.k == 0)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, cluster)
        stored_sum = rec.r_s.copy()

        report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        assert report.added
        new_col = layer.router.w_g.value[:, -1]
        cos = float(new_col @ stored_sum / (np.linalg.norm(new_col) * np.linalg.norm(stored_sum)))
        assert abs(cos - 1.0) <= 1e-12
        assert layer.router.g.value[-1] == 0.0

        dec2 = route_top_any(cluster, layer.router)
        assert np.all(dec2.mask[:, -1] == 1.0)
        announce(5, "adaptive add/remove", f"(new-column cosine deviation {abs(cos-1.0):.1e})")

    def test_remove_scenario(self):
        rng = np.random.default_rng(506)
        layer = MoeLayer.around(RouterParams.random(10, 4, rng), 6, rng)
        probe = rng.standard_normal((60, 10))
        layer.router.g.value[0] = -9.0  # expert 0 catches every token
        layer.router.g.value[1] = 9.0   # expert 1 unreachable
        dec = route_top_any(probe, layer.router)
        assert dec.mask[:, 1].sum() == 0
        assert np.all(dec.k >= 1)  # no unserved tokens, so removal only
        out_before, _ = moe_forward(layer, probe)

        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, probe)
        report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        assert report.removed_experts == [1] and not report.added
        out_after, _ = moe_forward(layer, probe)
        dev = float(np.max(np.abs(out_after - out_before)))
        assert dev <= 1e-12
        announce(5, "adaptive remove (probe invariance)", f"(max output deviation {dev:.1e})")


class TestCriterion6EvalTotality:
    def test_eval_k_at_least_one_and_nonempty_rows_unchanged(self):
        rng = np.random.default_rng(606)
        total = 0
        for _ in range(10):
            d = int(rng.integers(3, 9))
            n_experts = int(rng.integers(2, 7))
            params = random_router(rng, d, n_experts, threshold_scale=1.5)
            tokens = rng.standard_normal((1000, d))
            base = route_top_any(tokens, params)
            dec = route_eval(tokens, params)
            assert int(dec.k.min()) >= 1
            busy = base.k >= 1
            np.testing.assert_array_equal(dec.mask[busy], base.mask[busy])
            np.testing.assert_array_equal(dec.k[busy], base.k[busy])
            total += tokens.shape[0]
        assert total == 10000
        announce(6, "eval totality", "(10k tokens, min k = 1, busy rows bit-identical)")


class TestCriterion7EndToEndDiscovery:
    def test_discovery_band_and_accuracy(self, discovery):
        task, dyn_runs, baseline_runs = discovery
        best_baseline = max(r.final_accuracy for r in baseline_runs.values())

        passing = 0
        detail = []
        for seed, res, elapsed in dyn_runs:
            assert elapsed < 300.0  # per-run budget on one CPU core
            final_k = sum(res.k_trajectory[-1][1])
            ok = (res.final_accuracy >= best_baseline - 0.02) and (3 <= final_k <= 6)
            passing += int(ok)
            detail.append(f"seed{seed}: acc={res.final_accuracy:.3f} K={final_k}")
        assert passing >= 4, f"only {passing}/5 seeds passed: {detail}"
        announce(7, "end-to-end expert discovery",
                 f"({passing}/5 seeds in band, best baseline {best_baseline:.3f}; {'; '.join(detail)})")


class TestCriterion8TelemetryIdentities:
    def test_identities_on_every_eval_pass(self, discovery):
        task, dyn_runs, baseline_runs = discovery
        rng = np.random.default_rng(808)
        checked = 0
        for seed, res, _ in dyn_runs:
            model = res.model
            logits, caches, _ = model.forward(task.tokens[:1024], mode="eval")
            for _, dec in caches:
                stats = PassStats.from_decisions(dec)
                # exact integer accounting
                assert int(stats.counts.sum()) == stats.k_total
                assert int(stats.hist.sum()) == stats.n_tokens
                # float forms agree to the last ulp of the shared division
                assert math.isclose(stats.activation_frequency.sum(),
                                    stats.mean_top_k, rel_tol=0.0, abs_tol=1e-12)
                assert math.isclose(stats.topk_frequency.sum(), 1.0,
                                    rel_tol=0.0, abs_tol=1e-12)
                checked += 1
        announce(8, "telemetry identities", f"({checked} eval passes, integer-exact)")


class TestCriterion9ActivatedParamsDirection:
    def test_direction_mirror(self, discovery):
        # The sweep baselines (k <= 2) plus fixed k = 3 and k = 4 settings,
        # so the "adaptive mean k below the fixed k" precondition has pairs
        # to fire on regardless of where the adaptive runs settle.
        task, dyn_runs, baseline_runs = discovery
        comparisons = dict(baseline_runs)
        cfg = dyn_runs[0][1].config
        for K, k in ((8, 3), (8, 4)):
            comparisons[(K, k)] = run_baseline(
                task, replace(cfg, adapt=None, seed=0), K, k
            )
        compared = 0
        for seed, res, _ in dyn_runs:
            for (K, k), base in comparisons.items():
                if res.mean_k < k:
                    assert res.activated_params < base.activated_params, (
                        f"seed {seed} mean_k={res.mean_k:.3f} vs baseline K={K} k={k}"
                    )
                    compared += 1
        assert compared > 0
        announce(9, "activated-parameter ordering", f"({compared} run pairs, strict)")


class TestCriterion10Determinism:
    def test_identical_seeds_identical_logs_and_hashes(self, tmp_path):
        task = gen_task(3, 12, 1500, seed=9)
        cfg = TrainConfig(steps=600, eval_every=200, seed=3, hidden=8,
                          init_experts=2, adapt=AdaptConfig(max_experts=6, check_interval=100))
        res1 = train_loop(task, cfg)
        res2 = train_loop(task, cfg)

        assert res1.metrics.rows == res2.metrics.rows
        assert res1.k_trajectory == res2.k_trajectory
        assert res1.adapt_events == res2.adapt_events

        h = []
        for i, res in enumerate((res1, res2)):
            path = tmp_path / f"ckpt{i}.json"
            path.write_text(json.dumps(model_to_doc(res.model), sort_keys=True))
            h.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert h[0] == h[1]
        announce(10, "determinism", f"(checkpoint sha256 {h[0][:12]}..., logs identical)")
