import math
import os
import subprocess
import sys
from importlib.machinery import ExtensionFileLoader
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynmoe import numerics
from dynmoe.numerics import (
    DegenerateInputError,
    DimensionError,
    NonFiniteError,
    Param,
    cosine_scores_batch,
    finite_diff_grad,
    sigmoid,
    vector_norm,
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

    def test_zero_grad_clears_in_place(self, rng):
        p = Param(rng.standard_normal((2, 2)))
        grad = p.grad
        p.accumulate(np.ones((2, 2)))
        p.zero_grad()
        assert p.grad is grad
        np.testing.assert_array_equal(grad, 0.0)

    def test_shape_mismatch_rejected(self):
        p = Param(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            p.accumulate(np.zeros(3))

    def test_replace_keeps_shapes_consistent(self):
        p = Param(np.zeros((2, 3)))
        p.replace(np.zeros((2, 2)))
        assert p.grad.shape == (2, 2)


def scaled_arrays(max_dims=2):
    """Float64 arrays of 1 to ``max_dims`` axes whose entries span about
    1e-100 to 1e101 in magnitude, both signs."""
    shapes = st.lists(st.integers(1, 7), min_size=1, max_size=max_dims)
    return st.tuples(shapes, st.integers(0, 2**32 - 1)).map(_draw_scaled)


def _draw_scaled(args):
    shape, seed = args
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(-10.0, 10.0, size=shape)
    return mantissa * 10.0 ** rng.integers(-100, 101, size=shape)


class TestVectorNorm:
    """``vector_norm`` and the Frobenius expression the auxiliary loss uses
    are numpy's own norm expressions, so they must match ``np.linalg.norm``
    bit for bit."""

    @given(x=scaled_arrays(), axis=st.integers(0, 1), keepdims=st.booleans())
    @example(x=np.array([[1e-100, 3e100], [-4e-100, 0.0]]), axis=1, keepdims=True)
    @settings(max_examples=200, deadline=None)
    def test_matches_linalg_norm_bit_for_bit(self, x, axis, keepdims):
        axis = min(axis, x.ndim - 1)
        got = vector_norm(x, axis=axis, keepdims=keepdims)
        want = np.linalg.norm(x, axis=axis, keepdims=keepdims)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @given(m=scaled_arrays())
    @settings(max_examples=200, deadline=None)
    def test_frobenius_expression_matches_linalg_norm(self, m):
        m = np.atleast_2d(m)
        r = m.ravel()
        assert math.sqrt(r.dot(r)) == float(np.linalg.norm(m))


def ufunc_draw() -> np.ndarray:
    """A fixed draw for the scipy ufuncs: signed zeros, infinities, NaN,
    subnormals, the normal-range edge and |x| up to 40."""
    rng = np.random.default_rng(2024)
    tiny = np.finfo(np.float64).tiny
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny, -tiny,
                         tiny * (1 - 2**-52), 40.0, -40.0])
    signs = rng.choice([-1.0, 1.0], size=20_000)
    return np.concatenate([
        specials,
        rng.uniform(-40.0, 40.0, size=50_000),
        rng.standard_normal(50_000),
        signs * rng.uniform(0.0, tiny, size=20_000),            # subnormals
        signs * 10.0 ** rng.uniform(-308.0, math.log10(40.0), size=20_000),
    ])


def extension_has_ufuncs() -> bool:
    """Whether scipy has the extension ``numerics`` loads by path, holding
    both ufuncs; without it ``numerics`` takes them from ``scipy.special``."""
    try:
        from scipy.special import _special_ufuncs
    except ImportError:
        return False
    return hasattr(_special_ufuncs, "erf") and hasattr(_special_ufuncs, "expit")


class TestScipyUfuncs:
    """``numerics`` loads scipy's ``erf`` and ``expit`` without importing
    ``scipy.special``; they must be scipy's own ufuncs."""

    def test_bit_identical_to_scipy_special(self):
        import scipy.special

        x = ufunc_draw()
        for ours, theirs in ((numerics.erf, scipy.special.erf),
                             (numerics.expit, scipy.special.expit)):
            assert ours(x).tobytes() == theirs(x).tobytes()
        # one extension in the process: importing scipy.special after the
        # loader reuses it (the fallback takes these very objects)
        assert numerics.erf is scipy.special.erf
        assert numerics.expit is scipy.special.expit

    def test_import_leaves_scipy_special_unloaded(self):
        if not extension_has_ufuncs():
            pytest.skip("no scipy.special._special_ufuncs with erf and expit: the "
                        "fallback imports scipy.special")
        code = ("import sys, dynmoe.cli, dynmoe.harness\n"
                "from dynmoe import numerics\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                "import scipy.special\n"
                "print(numerics.erf is scipy.special.erf, numerics.expit is scipy.special.expit)\n")
        src = str(Path(numerics.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out == ["['scipy.special._special_ufuncs']", "True True"]

    class BrokenLoader(ExtensionFileLoader):
        def create_module(self, spec):
            raise ImportError("the extension does not load")

    @pytest.mark.parametrize("miss", ["no_scipy_spec", "no_extension_file", "load_fails"])
    def test_falls_back_to_scipy_special(self, monkeypatch, miss):
        import scipy.special

        monkeypatch.delitem(sys.modules, numerics._UFUNCS, raising=False)
        if miss == "no_scipy_spec":
            monkeypatch.setattr(numerics, "find_spec", lambda name: None)
        elif miss == "no_extension_file":
            monkeypatch.setattr(numerics, "EXTENSION_SUFFIXES", [".missing.so"])
        else:
            monkeypatch.setattr(numerics, "ExtensionFileLoader", self.BrokenLoader)
        erf, expit = numerics._load_erf_expit()
        assert erf is scipy.special.erf and expit is scipy.special.expit
        assert numerics._UFUNCS not in sys.modules  # nothing was loaded by path
