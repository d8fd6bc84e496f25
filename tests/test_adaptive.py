import copy

import numpy as np
import pytest

from dynmoe.adaptive import AdaptConfig, RoutingRecord, adapt, record
from dynmoe.config import ConfigError, parse_config_doc
from dynmoe.moe_layer import ExpertMlp, MoeLayer, moe_forward
from dynmoe.numerics import ConfigurationError, DimensionError
from dynmoe.router import RouterParams, TopKRouter, route_top_any

from conftest import rel_err


def build_layer(rng, d=6, h=4, n_experts=3):
    return MoeLayer.around(RouterParams.random(d, n_experts, rng), h, rng)


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
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, tokens)
        np.testing.assert_array_equal(rec.r_e, [5, 0, 0])
        np.testing.assert_array_equal(rec.r_s, 0.0)

    def test_no_activation_batch(self, rng):
        layer = build_layer(rng)
        layer.router.g.value[:] = 9.0
        tokens = rng.standard_normal((4, layer.d))
        dec = route_top_any(tokens, layer.router)
        assert np.all(dec.k == 0)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, tokens)
        np.testing.assert_array_equal(rec.r_e, 0)
        np.testing.assert_array_equal(rec.r_s, tokens.sum(axis=0))

    def test_mixed_batch_matches_loop_oracle(self, rng):
        layer = build_layer(rng, n_experts=4)
        tokens = rng.standard_normal((30, layer.d))
        dec = route_top_any(tokens, layer.router)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, tokens)

        want_counts = np.zeros(4, dtype=np.int64)
        want_sum = np.zeros(layer.d)
        for i in range(30):
            for e in range(4):
                if dec.mask[i, e] > 0:
                    want_counts[e] += 1
            if dec.k[i] == 0:
                want_sum += tokens[i]
        np.testing.assert_array_equal(rec.r_e, want_counts)
        np.testing.assert_allclose(rec.r_s, want_sum, rtol=0, atol=1e-12)

    def test_counter_conservation(self, rng):
        layer = build_layer(rng, n_experts=4)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        total = 0
        for _ in range(5):
            tokens = rng.standard_normal((12, layer.d))
            dec = route_top_any(tokens, layer.router)
            record(rec, dec, tokens)
            total += int(dec.k.sum())
        assert int(rec.r_e.sum()) == total


class TestAdapt:
    def test_zero_count_expert_removed(self, rng):
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [5, 0, 3]
        cfg = AdaptConfig(max_experts=8)
        report = adapt(layer, rec, cfg, rng)
        assert report.removed_experts == [1]
        assert not report.added
        assert report.new_k_total == 2
        assert layer.n_experts == 2

    def test_unserved_tokens_add_expert(self, rng):
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [5, 2, 3]
        direction = rng.standard_normal(layer.d)
        rec.r_s[:] = 4.0 * direction
        cfg = AdaptConfig(max_experts=8)
        report = adapt(layer, rec, cfg, rng)
        assert report.added and report.new_k_total == 4
        new_col = layer.router.w_g.value[:, -1]
        assert rel_err(new_col, direction / np.linalg.norm(direction)) < 1e-12
        assert layer.router.g.value[-1] == 0.0
        assert layer.experts.n_experts == 4

    def test_no_room_no_add(self, rng):
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [5, 2, 3]
        rec.r_s[:] = rng.standard_normal(layer.d)
        cfg = AdaptConfig(max_experts=3)
        report = adapt(layer, rec, cfg, rng)
        assert not report.added
        assert report.new_k_total == 3

    def test_all_served_noop(self, rng):
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [1, 1, 1]
        cfg = AdaptConfig(max_experts=8)
        report = adapt(layer, rec, cfg, rng)
        assert report.removed_experts == [] and not report.added
        assert report.new_k_total == 3

    def test_all_unused_keeps_only_the_lowest_index(self, rng):
        # adapt keeps at least one expert: with every expert unused, the
        # lowest-index one survives
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [0, 0, 0]
        cfg = AdaptConfig(max_experts=8)
        report = adapt(layer, rec, cfg, rng)
        assert report.clamped
        assert report.removed_experts == [1, 2]
        assert report.new_k_total == 1

    @pytest.mark.parametrize("n_record", [2, 4])
    def test_record_that_does_not_fit_the_layer_is_refused(self, rng, n_record):
        # a record with too few or too many experts, or the wrong d, is
        # refused before the layer changes
        layer = build_layer(rng, n_experts=3)
        before = [p.value.copy() for p in layer.params()]
        rec = RoutingRecord.fresh(n_record, layer.d)
        rec.r_e[:] = 1
        with pytest.raises(DimensionError, match="does not fit a layer of 3 experts"):
            adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        with pytest.raises(DimensionError, match="d=6"):
            adapt(layer, RoutingRecord.fresh(3, layer.d + 1), AdaptConfig(max_experts=8), rng)
        for p, old in zip(layer.params(), before):
            np.testing.assert_array_equal(p.value, old)

    @pytest.mark.parametrize("r_e", [[3, 0, 2], [1, 1, 1]], ids=["unused_expert", "all_used"])
    def test_top_k_layer_is_refused_untouched(self, rng, r_e):
        # only a top-any layer is resized: a top-k layer with unserved mass
        # (and, in the first case, an unused expert) is refused before any
        # tensor, the record or the generator moves
        layer = MoeLayer.around(TopKRouter.random(4, 3, 2, rng), 5, rng)
        rec = RoutingRecord(r_e=np.array(r_e), r_s=np.ones(4))
        before = [p.value.copy() for p in layer.params()]
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="TopKRouter"):
            adapt(layer, rec, AdaptConfig(), rng)
        for p, old in zip(layer.params(), before):
            np.testing.assert_array_equal(p.value, old)
        np.testing.assert_array_equal(rec.r_e, r_e)
        np.testing.assert_array_equal(rec.r_s, np.ones(4))
        assert rng.bit_generator.state == state
        layer.validate()

    def test_removal_creates_room_for_addition(self, rng):
        layer = build_layer(rng, n_experts=4)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [3, 0, 2, 1]
        rec.r_s[:] = rng.standard_normal(layer.d)
        cfg = AdaptConfig(max_experts=4)
        report = adapt(layer, rec, cfg, rng)
        assert report.removed_experts == [1] and report.added
        assert report.new_k_total == 4

    def test_record_reset_after_adapt(self, rng):
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [1, 0, 2]
        rec.r_s[:] = 1.0
        adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        np.testing.assert_array_equal(rec.r_e, 0)
        np.testing.assert_array_equal(rec.r_s, 0.0)
        assert rec.r_e.shape[0] == layer.n_experts

    def test_removal_soundness(self, rng):
        layer = build_layer(rng, n_experts=5)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        counts = np.array([2, 0, 1, 0, 4])
        rec.r_e[:] = counts
        report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
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
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, probe)
        adapt(layer, rec, AdaptConfig(max_experts=8), rng)
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
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, cluster)
        report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        assert report.added
        new_e = layer.n_experts - 1
        dec2 = route_top_any(cluster, layer.router)
        assert np.all(dec2.mask[:, new_e] == 1.0)

    def test_added_expert_serves_exactly_tokens_with_positive_dot_to_r_s(self, rng):
        # The new column is r_s / |r_s| at threshold zero, so an unserved token
        # x activates it iff <x, r_s> > 0; that fails for some unserved tokens
        # unless their cosines are pairwise positive.
        layer = build_layer(rng, d=4, n_experts=2)
        layer.router.g.value[:] = 9.0  # nothing activates
        tokens = np.array([[1.0, 0.0, 0.0, 0.0], [-0.9, 0.1, 0.0, 0.0]])
        dec = route_top_any(tokens, layer.router)
        assert np.all(dec.k == 0)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        record(rec, dec, tokens)
        dots = tokens @ rec.r_s
        report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        assert report.added
        after = route_top_any(tokens, layer.router)
        np.testing.assert_array_equal(after.mask[:, -1], [1.0, 0.0])
        np.testing.assert_array_equal(after.mask[:, -1], dots > 0.0)


class TestInitNewExpert:
    def test_paper_rs_fresh_random(self, rng):
        # adapt draws the new MLP as the initial experts are drawn; kept
        # experts stay as they were
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_e[:] = [5, 0, 3]
        rec.r_s[:] = rng.standard_normal(layer.d)
        kept = [p.value[[0, 2]].copy() for p in layer.experts.params()]
        twin = copy.deepcopy(rng)
        report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        assert report.removed_experts == [1] and report.added
        fresh = ExpertMlp.random(layer.d, layer.h, 1, twin)
        for p, q, old in zip(layer.experts.params(), fresh.params(), kept):
            np.testing.assert_array_equal(p.value[:2], old)
            np.testing.assert_array_equal(p.value[2], q.value[0])

    def test_unknown_strategy_rejected(self):
        # r_s / |r_s| with a fresh MLP is the only init: a config that names
        # another strategy is refused rather than run with this one
        for strategy in ("paper_rs", "average"):
            with pytest.raises(ConfigError, match=r"unknown key.*adapt\.init_strategy"):
                parse_config_doc({"adapt": {"init_strategy": strategy}})

    def test_all_unused_keeps_the_lowest_index_and_appends_one(self, rng):
        # adapt never empties the bank it appends the new expert to: with
        # every expert unused it keeps the lowest-index one
        layer = build_layer(rng, n_experts=3)
        rec = RoutingRecord.fresh(layer.n_experts, layer.d)
        rec.r_s[:] = rng.standard_normal(layer.d)
        kept = [p.value[0].copy() for p in layer.experts.params()]
        report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
        assert report.clamped and report.removed_experts == [1, 2] and report.added
        assert layer.n_experts == 2
        for p, old in zip(layer.experts.params(), kept):
            np.testing.assert_array_equal(p.value[0], old)


class TestAdaptConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_experts"):
            AdaptConfig(max_experts=0)
        with pytest.raises(ConfigurationError):
            AdaptConfig(record_window=(0.5, 0.5))
        with pytest.raises(ConfigurationError):
            AdaptConfig(check_interval=0)
