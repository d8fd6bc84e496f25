import math

import numpy as np
import pytest

from dynmoe.losses import AuxLossReport, diversity_simplicity_loss
from dynmoe.numerics import Param, finite_diff_grad

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
        assert report.total == report.diversity + report.simplicity

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
        # the total is derived, so a report cannot disagree with itself
        with pytest.raises(TypeError):
            AuxLossReport(diversity=1.0, simplicity=1.0, total=3.0)
        assert AuxLossReport(diversity=1.0, simplicity=0.5).total == 1.5
