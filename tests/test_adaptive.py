import numpy as np
import pytest

from dynmoe.adaptive import AdaptConfig, adapt, init_new_expert, record
from dynmoe.moe_layer import ExpertMlp, MoeLayer, moe_forward
from dynmoe.numerics import ConfigurationError
from dynmoe.router import route_top_any

from conftest import rel_err


def build_layer(rng, d=6, h=4, n_experts=3):
    return MoeLayer.random(d, h, n_experts, rng)


class TestRecord:
    def test_single_expert_batch(self, rng):
        layer = build_layer(rng, n_experts=3)
        layer.router.w_g.value[:] = 0.0
        layer.router.w_g.value[:, 0] = 1.0
        layer.router.w_g.value[0, 1] = 1.0  # keep columns nonzero
        layer.router.w_g.value[0, 2] = 1.0
        layer.router.g.value[:] = np.array([0.0, 8.0, 8.0])
        tokens = np.abs(rng.standard_normal((5, layer.d))) + 0.1
        dec = route_top_any(tokens, layer.router)
        assert np.all(dec.mask[:, 0] == 1.0) and np.all(dec.mask[:, 1:] == 0.0)
        layer.record.start()
        record(layer.record, dec, tokens)
        np.testing.assert_array_equal(layer.record.r_e, [5, 0, 0])
        np.testing.assert_array_equal(layer.record.r_s, 0.0)

    def test_no_activation_batch(self, rng):
        layer = build_layer(rng)
        layer.router.g.value[:] = 9.0
        tokens = rng.standard_normal((4, layer.d))
        dec = route_top_any(tokens, layer.router)
        assert np.all(dec.k == 0)
        layer.record.start()
        record(layer.record, dec, tokens)
        np.testing.assert_array_equal(layer.record.r_e, 0)
        np.testing.assert_array_equal(layer.record.r_s, tokens.sum(axis=0))

    def test_mixed_batch_matches_loop_oracle(self, rng):
        layer = build_layer(rng, n_experts=4)
        tokens = rng.standard_normal((30, layer.d))
        dec = route_top_any(tokens, layer.router)
        layer.record.start()
        record(layer.record, dec, tokens)

        want_counts = np.zeros(4, dtype=np.int64)
        want_sum = np.zeros(layer.d)
        for i in range(30):
            for e in range(4):
                if dec.mask[i, e] > 0:
                    want_counts[e] += 1
            if dec.k[i] == 0:
                want_sum += tokens[i]
        np.testing.assert_array_equal(layer.record.r_e, want_counts)
        np.testing.assert_allclose(layer.record.r_s, want_sum, rtol=0, atol=1e-12)

    def test_counter_conservation(self, rng):
        layer = build_layer(rng, n_experts=4)
        layer.record.start()
        total = 0
        for _ in range(5):
            tokens = rng.standard_normal((12, layer.d))
            dec = route_top_any(tokens, layer.router)
            record(layer.record, dec, tokens)
            total += int(dec.k.sum())
        assert int(layer.record.r_e.sum()) == total

    def test_not_recording_is_counted_noop(self, rng):
        layer = build_layer(rng)
        tokens = rng.standard_normal((4, layer.d))
        dec = route_top_any(tokens, layer.router)
        record(layer.record, dec, tokens)
        np.testing.assert_array_equal(layer.record.r_e, 0)
        assert layer.record.skipped_batches == 1


class TestAdapt:
    def test_zero_count_expert_removed(self, rng):
        layer = build_layer(rng, n_experts=3)
        layer.record.start()
        layer.record.r_e[:] = [5, 0, 3]
        cfg = AdaptConfig(max_experts=8)
        report = adapt(layer, layer.record, cfg, rng)
        assert report.removed_experts == [1]
        assert not report.added
        assert report.new_k_total == 2
        assert layer.n_experts == 2

    def test_unserved_tokens_add_expert(self, rng):
        layer = build_layer(rng, n_experts=3)
        layer.record.start()
        layer.record.r_e[:] = [5, 2, 3]
        direction = rng.standard_normal(layer.d)
        layer.record.r_s[:] = 4.0 * direction
        cfg = AdaptConfig(max_experts=8)
        report = adapt(layer, layer.record, cfg, rng)
        assert report.added and report.new_k_total == 4
        new_col = layer.router.w_g.value[:, -1]
        assert rel_err(new_col, direction / np.linalg.norm(direction)) < 1e-12
        assert layer.router.g.value[-1] == 0.0
        assert layer.experts.n_experts == 4

    def test_no_room_no_add(self, rng):
        layer = build_layer(rng, n_experts=3)
        layer.record.start()
        layer.record.r_e[:] = [5, 2, 3]
        layer.record.r_s[:] = rng.standard_normal(layer.d)
        cfg = AdaptConfig(max_experts=3)
        report = adapt(layer, layer.record, cfg, rng)
        assert not report.added
        assert report.new_k_total == 3

    def test_all_served_noop(self, rng):
        layer = build_layer(rng, n_experts=3)
        layer.record.start()
        layer.record.r_e[:] = [1, 1, 1]
        cfg = AdaptConfig(max_experts=8)
        report = adapt(layer, layer.record, cfg, rng)
        assert report.removed_experts == [] and not report.added
        assert report.new_k_total == 3

    def test_min_experts_clamp_keeps_lowest_index(self, rng):
        layer = build_layer(rng, n_experts=3)
        layer.record.start()
        layer.record.r_e[:] = [0, 0, 0]
        cfg = AdaptConfig(max_experts=8, min_experts=2)
        report = adapt(layer, layer.record, cfg, rng)
        assert report.clamped
        assert report.removed_experts == [2]
        assert report.new_k_total == 2

    def test_removal_creates_room_for_addition(self, rng):
        layer = build_layer(rng, n_experts=4)
        layer.record.start()
        layer.record.r_e[:] = [3, 0, 2, 1]
        layer.record.r_s[:] = rng.standard_normal(layer.d)
        cfg = AdaptConfig(max_experts=4)
        report = adapt(layer, layer.record, cfg, rng)
        assert report.removed_experts == [1] and report.added
        assert report.new_k_total == 4

    def test_record_reset_after_adapt(self, rng):
        layer = build_layer(rng, n_experts=3)
        layer.record.start()
        layer.record.r_e[:] = [1, 0, 2]
        layer.record.r_s[:] = 1.0
        adapt(layer, layer.record, AdaptConfig(max_experts=8), rng)
        assert not layer.record.recording
        np.testing.assert_array_equal(layer.record.r_e, 0)
        np.testing.assert_array_equal(layer.record.r_s, 0.0)
        assert layer.record.r_e.shape[0] == layer.n_experts

    def test_removal_soundness(self, rng):
        layer = build_layer(rng, n_experts=5)
        layer.record.start()
        counts = np.array([2, 0, 1, 0, 4])
        layer.record.r_e[:] = counts
        report = adapt(layer, layer.record, AdaptConfig(max_experts=8), rng)
        # survivors are exactly the nonzero-count experts, in order
        assert report.removed_experts == [1, 3]
        assert layer.n_experts == 3

    def test_index_compaction_preserves_forward(self, rng):
        layer = build_layer(rng, d=5, h=4, n_experts=4)
        probe = rng.standard_normal((20, 5))
        dec = route_top_any(probe, layer.router)
        dead = [e for e in range(4) if dec.mask[:, e].sum() == 0]
        if not dead:
            # push one expert's threshold out of reach to create a dead one
            layer.router.g.value[2] = 9.0
            dec = route_top_any(probe, layer.router)
            dead = [2]
        out_before, _ = moe_forward(layer, probe)
        layer.record.start()
        record(layer.record, dec, probe)
        adapt(layer, layer.record, AdaptConfig(max_experts=8), rng)
        out_after, _ = moe_forward(layer, probe)
        assert rel_err(out_after, out_before) < 1e-12

    def test_post_adapt_activation_guarantee(self, rng):
        # a tight token cluster that activates nothing; after adapt, the new
        # expert must catch every cluster member
        d = 6
        layer = build_layer(rng, d=d, n_experts=2)
        layer.router.g.value[:] = 6.0  # nothing activates
        center = rng.standard_normal(d)
        center /= np.linalg.norm(center)
        cluster = center[None, :] + 0.05 * rng.standard_normal((25, d))
        gram = (cluster / np.linalg.norm(cluster, axis=1, keepdims=True)) @ (
            cluster / np.linalg.norm(cluster, axis=1, keepdims=True)
        ).T
        assert gram.min() > 0.0  # pairwise-positive cosines

        dec = route_top_any(cluster, layer.router)
        assert np.all(dec.k == 0)
        layer.record.start()
        record(layer.record, dec, cluster)
        report = adapt(layer, layer.record, AdaptConfig(max_experts=8, min_experts=1), rng)
        assert report.added
        new_e = layer.n_experts - 1
        dec2 = route_top_any(cluster, layer.router)
        assert np.all(dec2.mask[:, new_e] == 1.0)


class TestInitNewExpert:
    def test_average_of_opposite_experts_is_zero(self, rng):
        e1 = ExpertMlp.random(4, 3, 1, rng)
        opposite = ExpertMlp.from_arrays(*(np.concatenate([p.value, -p.value]) for p in e1.params()))
        new = init_new_expert("average", opposite, np.array([1, 1]))
        for got in new:
            np.testing.assert_allclose(got, 0.0, atol=1e-15)

    def test_w_average_degenerate_weights_copies(self, rng):
        experts = ExpertMlp.random(4, 3, 2, rng)
        new = init_new_expert("w_average", experts, np.array([0, 7]))
        for got, p in zip(new, experts.params()):
            np.testing.assert_allclose(got, p.value[1], atol=1e-15)

    def test_w_average_matches_direct_loop(self, rng):
        experts = ExpertMlp.random(5, 4, 3, rng)
        counts = np.array([1, 2, 3])
        new = init_new_expert("w_average", experts, counts)
        for got, p in zip(new, experts.params()):
            want = sum(c * p.value[e] for e, c in enumerate(counts)) / counts.sum()
            assert rel_err(got, want) < 1e-12

    def test_w_average_all_zero_falls_back_to_average(self, rng):
        experts = ExpertMlp.random(4, 3, 2, rng)
        new = init_new_expert("w_average", experts, np.array([0, 0]))
        for got, p in zip(new, experts.params()):
            want = 0.5 * (p.value[0] + p.value[1])
            assert rel_err(got, want) < 1e-12

    def test_most_activated_copies_argmax(self, rng):
        experts = ExpertMlp.random(4, 3, 3, rng)
        w1 = init_new_expert("most_activated", experts, np.array([2, 9, 1]))[0]
        np.testing.assert_array_equal(w1, experts.w1.value[1])
        w1[0, 0] += 1.0  # must be an independent copy
        assert w1[0, 0] != experts.w1.value[1, 0, 0]

    def test_paper_rs_fresh_random(self, rng):
        experts = ExpertMlp.random(4, 3, 2, rng)
        w1 = init_new_expert("paper_rs", experts, np.array([1, 1]), rng=rng)[0]
        assert w1.shape == (4, 3)
        assert not np.allclose(w1, experts.w1.value[0])

    def test_unknown_strategy_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            init_new_expert("bogus", ExpertMlp.random(2, 2, 1, rng), np.array([1]))

    def test_empty_expert_list_rejected(self, rng):
        with pytest.raises(ValueError):
            init_new_expert("average", ExpertMlp.random(2, 2, 0, rng), np.array([]))


class TestAdaptConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptConfig(max_experts=2, min_experts=3)
        with pytest.raises(ConfigurationError):
            AdaptConfig(record_window=(0.5, 0.5))
        with pytest.raises(ConfigurationError):
            AdaptConfig(check_interval=0)
        with pytest.raises(ConfigurationError):
            AdaptConfig(init_strategy="nope")
