import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmoe.numerics import (
    DegenerateInputError,
    DimensionError,
    NonFiniteError,
    Param,
    cosine_scores_batch,
    finite_diff_grad,
    sigmoid,
)

from conftest import rel_err


def cosine_scores(x, w):
    """Scores of one token against every column of ``w``."""
    return cosine_scores_batch(np.asarray(x, dtype=np.float64)[None, :], w)[0]


class TestCosineScores:
    def test_parallel_gives_one(self):
        w = np.array([[3.0, 0.0], [4.0, 1.0]])
        s = cosine_scores(np.array([6.0, 8.0]), w)
        assert abs(s[0] - 1.0) < 1e-12

    def test_orthogonal_gives_zero(self):
        w = np.array([[0.0], [1.0]])
        s = cosine_scores(np.array([1.0, 0.0]), w)
        assert abs(s[0]) < 1e-12

    def test_45_degrees(self):
        w = np.array([[1.0], [0.0]])
        s = cosine_scores(np.array([1.0, 1.0]), w)
        assert abs(s[0] - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_zero_token_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_scores(np.zeros(3), np.ones((3, 2)))

    def test_zero_column_rejected(self):
        w = np.ones((3, 2))
        w[:, 1] = 0.0
        with pytest.raises(DegenerateInputError):
            cosine_scores(np.ones(3), w)

    def test_nonfinite_token_rejected(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError):
                cosine_scores(np.array([np.inf, 1.0]), np.ones((2, 2)))

    def test_bounded(self, rng):
        s = cosine_scores_batch(rng.standard_normal((50, 6)), rng.standard_normal((6, 4)))
        assert np.all(s >= -1.0) and np.all(s <= 1.0)

    @given(c=st.floats(min_value=1e-6, max_value=1e6), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal(5)
        w = g.standard_normal((5, 3))
        assert rel_err(cosine_scores(c * x, w), cosine_scores(x, w)) < 1e-12


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation(self):
        assert abs(sigmoid(np.array([40.0]))[0] - 1.0) < 1e-12

    def test_reference_value_at_one(self):
        # 1 / (1 + e^-1) evaluated independently
        assert abs(sigmoid(np.array([1.0]))[0] - 0.7310585786300049) < 1e-15

    def test_open_interval(self):
        # +-30 is deep saturation but still resolvable in float64; beyond
        # ~36.7 the result rounds to exactly 1.0.
        v = sigmoid(np.array([-30.0, 30.0]))
        assert np.all(v > 0.0) and np.all(v < 1.0)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            sigmoid(np.array([np.nan]))

    @given(st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_strictly_monotone(self, a, b):
        # Gaps below ~1e-12 produce outputs closer than one ulp of 0.5;
        # strictness is asserted wherever float64 can resolve it.
        if abs(a - b) < 1e-9:
            return
        lo, hi = min(a, b), max(a, b)
        assert sigmoid(np.array([lo]))[0] < sigmoid(np.array([hi]))[0]


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        p = Param(np.array([[3.0]]), name="p")
        grad = finite_diff_grad(lambda q: float((q.value**2).sum()), p, eps=1e-5)
        assert abs(grad[0, 0] - 6.0) < 1e-6
        assert p.value[0, 0] == 3.0  # restored in place

    def test_constant_function(self, rng):
        p = Param(rng.standard_normal((2, 3)))
        grad = finite_diff_grad(lambda q: 7.5, p)
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_quadratic_form_matches_analytic(self, rng):
        a = rng.standard_normal((4, 4))
        sym = a + a.T
        p = Param(rng.standard_normal(4))
        grad = finite_diff_grad(lambda q: float(q.value @ sym @ q.value / 2.0), p)
        assert rel_err(grad, sym @ p.value) < 1e-6

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda q: 0.0, Param(np.zeros(1)), eps=0.0)

    def test_nonfinite_objective_propagates(self):
        p = Param(np.array([0.0]))
        with pytest.raises(NonFiniteError):
            finite_diff_grad(lambda q: float("nan"), p)


class TestParam:
    def test_grad_starts_zero_and_resets(self, rng):
        p = Param(rng.standard_normal((2, 2)))
        np.testing.assert_array_equal(p.grad, 0.0)
        p.accumulate(np.ones((2, 2)))
        p.accumulate(np.ones((2, 2)))
        np.testing.assert_array_equal(p.grad, 2.0)
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_shape_mismatch_rejected(self):
        p = Param(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            p.accumulate(np.zeros(3))

    def test_replace_keeps_shapes_consistent(self):
        p = Param(np.zeros((2, 3)))
        p.replace(np.zeros((2, 2)))
        assert p.grad.shape == (2, 2)
