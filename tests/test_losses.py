import math

import numpy as np
import pytest

from dynmoe.losses import (
    AuxLossReport,
    diversity_simplicity_loss,
    get_plugin,
    gshard_balance_plugin,
    gshard_style_balance_loss,
    mean_k_efficiency_plugin,
)
from dynmoe.numerics import ConfigurationError, Param, finite_diff_grad
from dynmoe.router import RouterParams, route_top_any

from conftest import rel_err


def loss_value_only(w):
    """Recompute the objective without touching any gradient state."""
    k = w.shape[1]
    m = w.T @ w - np.eye(k)
    return float(np.linalg.norm(m) + np.linalg.norm(w, axis=0).mean())


class TestDiversitySimplicity:
    def test_orthonormal_columns(self):
        w = Param(np.eye(4)[:, :3])
        report = diversity_simplicity_loss(w)
        assert abs(report.diversity) < 1e-12
        assert abs(report.simplicity - 1.0) < 1e-12
        assert abs(report.total - 1.0) < 1e-12
        report.validate()

    def test_zero_matrix(self):
        w = Param(np.zeros((4, 3)))
        report = diversity_simplicity_loss(w)
        assert abs(report.diversity - math.sqrt(3)) < 1e-12
        assert report.simplicity == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_for_bit_with_numpy_wrapper_expressions(self, seed):
        # the loss evaluates np.linalg.norm, mean and eye itself; a zero
        # column takes the subgradient 0 of its norm
        rng = np.random.default_rng(seed)
        d, k = (int(v) for v in rng.integers(2, 9, size=2))
        w = rng.standard_normal((d, k)) * 10.0 ** rng.integers(-3, 4, size=k)
        w[:, rng.random(k) < 0.3] = 0.0
        p = Param(w)
        report = diversity_simplicity_loss(p)
        m = w.T @ w - np.eye(k)
        norms = np.linalg.norm(w, axis=0)
        assert report.diversity == float(np.linalg.norm(m))
        assert report.simplicity == float(norms.mean())
        want = np.zeros_like(w)
        if report.diversity > 0.0:
            want += (2.0 / report.diversity) * (w @ m)
        nz = norms > 0.0
        want[:, nz] += w[:, nz] / (k * norms[nz])
        np.testing.assert_array_equal(p.grad, want)

    def test_gradient_matches_finite_differences(self, rng):
        w = Param(rng.standard_normal((4, 3)))
        report = diversity_simplicity_loss(w)
        assert abs(report.total - loss_value_only(w.value)) < 1e-12
        fd = finite_diff_grad(lambda p: loss_value_only(p.value), Param(w.value.copy()))
        assert rel_err(w.grad, fd) < 1e-5

    def test_gradient_on_20_random_shapes(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, 7))
            w = Param(rng.standard_normal((d, k)))
            diversity_simplicity_loss(w)
            fd = finite_diff_grad(lambda p: loss_value_only(p.value), Param(w.value.copy()))
            assert rel_err(w.grad, fd) < 1e-5

    def test_weight_scales_gradient_not_report(self, rng):
        base = rng.standard_normal((5, 3))
        w1 = Param(base.copy())
        w2 = Param(base.copy())
        r1 = diversity_simplicity_loss(w1, weight=1.0)
        r2 = diversity_simplicity_loss(w2, weight=0.25)
        assert r1.total == r2.total
        assert rel_err(w2.grad, 0.25 * w1.grad) < 1e-12

    def test_column_permutation_invariance(self, rng):
        w = rng.standard_normal((6, 4))
        perm = rng.permutation(4)
        r1 = diversity_simplicity_loss(Param(w.copy()))
        r2 = diversity_simplicity_loss(Param(w[:, perm].copy()))
        assert abs(r1.diversity - r2.diversity) < 1e-12
        assert abs(r1.simplicity - r2.simplicity) < 1e-12

    def test_diversity_zero_iff_orthonormal(self, rng):
        # forward direction: orthonormal -> zero, checked above; reverse:
        # any column-norm or angle defect makes it strictly positive
        w = np.eye(5)[:, :3]
        w[:, 0] *= 1.1
        assert diversity_simplicity_loss(Param(w)).diversity > 1e-3
        w2 = np.eye(5)[:, :3]
        w2[:, 1] = (w2[:, 0] + w2[:, 1]) / np.linalg.norm(w2[:, 0] + w2[:, 1])
        assert diversity_simplicity_loss(Param(w2)).diversity > 1e-3

    def test_report_invariant_enforced(self):
        bad = AuxLossReport(diversity=1.0, simplicity=1.0, total=3.0)
        with pytest.raises(ValueError):
            bad.validate()


class TestGshardStyleBalance:
    def _decision(self, mask, sig_s):
        from dynmoe.router import GatingDecision

        mask = np.asarray(mask, dtype=np.float64)
        return GatingDecision(
            mask=mask,
            k=mask.sum(axis=1).astype(np.int64),
            s=np.zeros_like(mask),
            sig_s=np.asarray(sig_s, dtype=np.float64),
            sig_g=np.zeros(mask.shape[1]),
        )

    def test_uniform_is_one(self):
        # four tokens, K=4, each activating a distinct expert, equal scores
        mask = np.eye(4)
        sig_s = np.full((4, 4), 0.3)
        dec = self._decision(mask, sig_s)
        assert abs(gshard_style_balance_loss(dec, sig_s) - 1.0) < 1e-12

    def test_single_expert_all_mass_is_K(self):
        mask = np.zeros((5, 3))
        mask[:, 0] = 1.0
        sig_s = np.zeros((5, 3))
        sig_s[:, 0] = 0.8
        dec = self._decision(mask, sig_s)
        assert abs(gshard_style_balance_loss(dec, sig_s) - 3.0) < 1e-12

    def test_matches_two_loop_oracle(self, rng):
        n, k = 17, 5
        sig_s = rng.uniform(0.05, 0.95, size=(n, k))
        mask = (rng.uniform(size=(n, k)) < 0.4).astype(np.float64)
        dec = self._decision(mask, sig_s)
        got = gshard_style_balance_loss(dec, sig_s)

        want = 0.0
        for e in range(k):
            frac = sum(mask[i, e] for i in range(n)) / n
            mass = sum(sig_s[i, e] / sig_s[i].sum() for i in range(n)) / n
            want += frac * mass
        want *= k
        assert abs(got - want) < 1e-12

    def test_empty_batch_rejected(self):
        dec = self._decision(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            gshard_style_balance_loss(dec, np.zeros((0, 3)))


class TestPlugins:
    def test_registry_lookup(self):
        assert get_plugin("gshard_balance") is gshard_balance_plugin
        assert get_plugin("mean_k_efficiency") is mean_k_efficiency_plugin
        with pytest.raises(ConfigurationError):
            get_plugin("nope")

    def test_gshard_plugin_mask_gradient_is_exact(self, rng):
        params = RouterParams(
            w_g=Param(rng.standard_normal((5, 3))), g=Param(np.zeros(3))
        )
        tokens = rng.standard_normal((8, 5))
        dec = route_top_any(tokens, params)
        value, grad_mask = gshard_balance_plugin(dec, dec.sig_s, params)
        assert grad_mask.shape == dec.mask.shape
        # flipping one mask entry by h changes the value by h * grad exactly
        # (the loss is affine in the mask)
        h = 0.5
        for (i, e) in [(0, 0), (3, 2), (7, 1)]:
            bumped = dec.mask.copy()
            bumped[i, e] += h
            from dynmoe.router import GatingDecision

            dec2 = GatingDecision(
                mask=bumped, k=dec.k, s=dec.s, sig_s=dec.sig_s, sig_g=dec.sig_g
            )
            v2 = gshard_style_balance_loss(dec2, dec.sig_s)
            assert abs((v2 - value) - h * grad_mask[i, e]) < 1e-12

    def test_mean_k_plugin(self, rng):
        params = RouterParams(
            w_g=Param(rng.standard_normal((4, 3))), g=Param(np.zeros(3))
        )
        tokens = rng.standard_normal((10, 4))
        dec = route_top_any(tokens, params)
        value, grad_mask = mean_k_efficiency_plugin(dec, dec.sig_s, params)
        assert abs(value - dec.k.mean()) < 1e-12
        np.testing.assert_allclose(grad_mask, 1.0 / 10.0)
