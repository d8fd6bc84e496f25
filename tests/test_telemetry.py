from functools import partial

import numpy as np
import pytest

from dynmoe.harness import MoeClassifier, TrainConfig, evaluate, log_eval
from dynmoe.numerics import DegenerateInputError, Param
from dynmoe.router import Decision, RouterParams, route_eval
from dynmoe.telemetry import MetricsLog, PassStats, expert_similarity_matrix


def decision_from_mask(mask):
    mask = np.asarray(mask, dtype=np.float64)
    k = mask.sum(axis=1, keepdims=True)
    return Decision(
        mask=mask,
        k=k[:, 0].astype(np.int64),
        weights=np.divide(mask, k, out=np.zeros_like(mask), where=k > 0),
        scores=np.full_like(mask, 0.5),
    )


class TestActivationFrequency:
    def test_everyone_on_expert_zero(self):
        mask = np.zeros((6, 4))
        mask[:, 0] = 1.0
        freq = PassStats.from_decisions(decision_from_mask(mask)).activation_frequency
        np.testing.assert_array_equal(freq, [1.0, 0.0, 0.0, 0.0])

    def test_everyone_on_all_experts(self):
        freq = PassStats.from_decisions(decision_from_mask(np.ones((5, 3)))).activation_frequency
        np.testing.assert_array_equal(freq, 1.0)

    def test_sum_equals_mean_k_via_integer_counters(self, rng):
        params = RouterParams(w_g=Param(rng.standard_normal((6, 4))), g=Param(np.zeros(4)))
        dec = route_eval(rng.standard_normal((100, 6)), params)
        stats = PassStats.from_decisions(dec)
        # exact in integers: per-expert counts vs per-token loop
        want = 0
        for i in range(dec.mask.shape[0]):
            want += int(dec.k[i])
        assert int(stats.counts.sum()) == want
        assert stats.k_total == want
        # and the float identity holds to the last ulp of the shared division
        assert abs(stats.activation_frequency.sum() - stats.mean_top_k) < 1e-12


class TestTopkFrequency:
    def test_all_tokens_k1(self):
        mask = np.zeros((7, 3))
        mask[:, 1] = 1.0
        freq = PassStats.from_decisions(decision_from_mask(mask)).topk_frequency
        np.testing.assert_array_equal(freq, [0.0, 1.0, 0.0, 0.0])

    def test_integer_histogram_sums_to_token_count(self, rng):
        masks = (rng.uniform(size=(50, 5)) < 0.3).astype(np.float64)
        stats = PassStats.from_decisions(decision_from_mask(masks))
        assert int(stats.hist.sum()) == 50

    def test_matches_histogram_oracle(self, rng):
        masks = (rng.uniform(size=(40, 4)) < 0.4).astype(np.float64)
        dec = decision_from_mask(masks)
        freq = PassStats.from_decisions(dec).topk_frequency
        want = np.zeros(5)
        for i in range(40):
            want[int(masks[i].sum())] += 1
        want /= 40
        np.testing.assert_array_equal(freq, want)

    def test_mean_top_k(self, rng):
        masks = (rng.uniform(size=(30, 4)) < 0.5).astype(np.float64)
        dec = decision_from_mask(masks)
        assert PassStats.from_decisions(dec).mean_top_k == masks.sum() / 30


class TestSimilarityMatrix:
    def test_orthonormal_columns_identity(self):
        router = RouterParams(w_g=Param(np.eye(4)[:, :3]), g=Param(np.zeros(3)))
        np.testing.assert_allclose(expert_similarity_matrix(router), np.eye(3), atol=1e-15)

    def test_duplicated_column(self, rng):
        w = rng.standard_normal((5, 3))
        w[:, 2] = w[:, 0]
        router = RouterParams(w_g=Param(w), g=Param(np.zeros(3)))
        sim = expert_similarity_matrix(router)
        assert abs(sim[0, 2] - 1.0) < 1e-12

    def test_symmetric_unit_diagonal(self, rng):
        router = RouterParams(w_g=Param(rng.standard_normal((8, 5))), g=Param(np.zeros(5)))
        sim = expert_similarity_matrix(router)
        np.testing.assert_array_equal(sim, sim.T)
        np.testing.assert_array_equal(np.diag(sim), 1.0)

    def test_zero_column_rejected(self):
        router = RouterParams(w_g=Param(np.eye(3)), g=Param(np.zeros(3)))
        router.w_g.value[:, 1] = 0.0  # corrupt after construction
        with pytest.raises(DegenerateInputError):
            expert_similarity_matrix(router)


class TestLogEval:
    def test_logged_thresholds_are_a_copy(self, rng):
        model = MoeClassifier.random(TrainConfig(hidden=4), partial(RouterParams.random, 4, 3), rng)
        g = model.layers[0].router.g
        g.value[:] = [0.0, 0.5, -0.2]
        tokens = rng.standard_normal((8, 4))
        accuracy, stats, _ = evaluate(model, tokens, np.zeros(8, dtype=np.int64))
        metrics = MetricsLog()
        log_eval(metrics, 1, model, accuracy, stats)
        g.value[0] = 9.0  # an update after the row was logged
        (row,) = [r for r in metrics.rows if r.metric == "gate_thresholds"]
        assert row.values == (0.0, 0.5, -0.2)


class TestMetricsLog:
    def test_append_and_roundtrip_csv(self, tmp_path):
        log = MetricsLog()
        log.append(10, 0, "avg_top_k", 1.5)
        log.append(10, 0, "activation_frequency", [0.25, 0.75])
        log.append(20, 0, "avg_top_k", 1.25)
        path = tmp_path / "metrics.csv"
        log.to_csv(path)
        back = MetricsLog.read_csv(path)
        assert back.rows == log.rows

    def test_nondecreasing_steps_enforced(self):
        log = MetricsLog()
        log.append(10, 0, "avg_top_k", 1.0)
        with pytest.raises(ValueError):
            log.append(5, 0, "avg_top_k", 1.0)
        # other (layer, metric) pairs are independent
        log.append(5, 1, "avg_top_k", 1.0)

    def test_schema_line_checked(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("step,layer,metric,index,value\n")
        with pytest.raises(ValueError):
            MetricsLog.read_csv(path)

    def test_float_repr_roundtrip_is_exact(self, tmp_path):
        value = 0.1 + 0.2  # classic non-representable sum
        log = MetricsLog()
        log.append(1, 0, "x", value)
        path = tmp_path / "m.csv"
        log.to_csv(path)
        back = MetricsLog.read_csv(path)
        assert back.rows[0].values[0] == value
