"""Dense float64 primitives with hand-derived gradients.

The package deliberately has no autodiff tape. Each module composes the
forward operations below and writes out its own backward pass; the
finite-difference estimator at the bottom is the independent oracle the
test suite uses to audit every one of those hand-derived gradients.

All arrays are float64 and C-contiguous. Desk-scale sizes (at most a few
dozen experts, embedding dims in the low hundreds) make denser-than-needed
computation acceptable whenever it simplifies the code.

This module is the one owner of the package's two scipy ufuncs, ``erf`` (the
experts' GELU) and ``expit`` (the threshold gate); others import them here.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from typing import Callable

import numpy as np

_UFUNCS = "scipy.special._special_ufuncs"


def _load_erf_expit() -> tuple[np.ufunc, np.ufunc]:
    """scipy's ``erf`` and ``expit`` from the extension that defines them,
    loaded by path so that ``scipy.special`` (66 modules) is never imported;
    a later ``import scipy.special`` finds it in ``sys.modules`` and reuses
    it. Falls back to ``scipy.special`` where that private extension is
    missing or lacks the two."""
    module = sys.modules.get(_UFUNCS)
    scipy = find_spec("scipy")
    if module is None and scipy is not None:
        base = os.path.join(scipy.submodule_search_locations[0], "special", "_special_ufuncs")
        paths = [base + suffix for suffix in EXTENSION_SUFFIXES if os.path.isfile(base + suffix)]
        if paths:
            loader = ExtensionFileLoader(_UFUNCS, paths[0])
            try:
                module = module_from_spec(spec_from_loader(_UFUNCS, loader))
                loader.exec_module(module)
            except ImportError:
                module = None
    if hasattr(module, "erf") and hasattr(module, "expit"):
        sys.modules.setdefault(_UFUNCS, module)
        return module.erf, module.expit
    from scipy.special import erf, expit
    return erf, expit


erf, expit = _load_erf_expit()


class DimensionError(ValueError):
    """Operand shapes cannot be combined."""


class DegenerateInputError(ValueError):
    """A zero-norm vector was used where a direction is required."""


class NonFiniteError(ArithmeticError):
    """An operation produced or received NaN / Inf."""


class ConfigurationError(ValueError):
    """A configuration value is out of its legal range."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""


def _check_finite(out: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return out


def vector_norm(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """Euclidean norms of real ``x`` along ``axis``: the expression
    ``np.linalg.norm(x, axis=axis, keepdims=keepdims)`` itself evaluates,
    without its Python-level argument handling. The Frobenius norm of a
    matrix ``m`` is likewise ``math.sqrt(r.dot(r))`` with ``r = m.ravel()``."""
    return np.sqrt(np.add.reduce(x * x, axis=axis, keepdims=keepdims))


@dataclass(eq=False)
class Param:
    """A trainable array paired with an additively accumulated gradient.

    Gradients accumulate across backward passes and auxiliary losses; call
    :meth:`zero_grad` once per optimization step. Identity (not value)
    semantics: optimizers key their state on the object, which is what lets
    the adaptive process resize ``value`` in place without losing state for
    the surviving entries. An optimizer may rebind ``value`` and ``grad`` to
    views of its own flat storage, so read them through the Param instead of
    keeping the arrays across optimizer steps.

    ``slot_steps`` marks axis 0 as a stack of independent slots (one expert
    each): optimizers then keep one step count per slot, so a slot appended
    later starts its own bias correction. The class holding a Param names it
    (:func:`name_params`); checkpoints key tensors by ``name``.
    """

    value: np.ndarray
    name: str = ""
    slot_steps: bool = False
    grad: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to the gradient."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.grad.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match param {self.name!r} "
                f"shape {self.grad.shape}"
            )
        self.grad += g

    def replace(self, value: np.ndarray) -> None:
        """Swap in new storage, e.g. when an expert slot is added or removed.
        The gradient restarts at zero."""
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def name_params(owner) -> None:
    """Name each ``Param`` field of the dataclass ``owner`` after its field."""
    for f in fields(owner):
        if isinstance(param := getattr(owner, f.name), Param):
            param.name = f.name


def cosine_scores_batch(tokens: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarities, (N, d) x (d, K) -> (N, K).

    Entry (i, e) is <x_i, w[:, e]> / (|x_i| |w[:, e]|), clipped to [-1, 1] to
    absorb last-ulp rounding. The result is scale-free in both arguments,
    which is what makes the gating decision invariant to token magnitude.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if tokens.ndim != 2 or w.ndim != 2:
        raise DimensionError(
            f"cosine_scores expects 2-d operands, got {tokens.shape} and {w.shape}"
        )
    if tokens.shape[1] != w.shape[0]:
        raise DimensionError(
            f"token dim {tokens.shape[1]} does not match column dim {w.shape[0]}"
        )
    tok_norm = vector_norm(tokens, axis=1)
    if (tok_norm == 0.0).any():
        raise DegenerateInputError("zero-norm token row; cosine direction undefined")
    col_norm = vector_norm(w, axis=0)
    if (col_norm == 0.0).any():
        raise DegenerateInputError("zero-norm expert column; cosine direction undefined")
    s = (tokens @ w) / (tok_norm[:, None] * col_norm[None, :])
    # np.clip(s, -1, 1) on finite s, in place
    np.maximum(_check_finite(s, "cosine_scores"), -1.0, out=s)
    return np.minimum(s, 1.0, out=s)


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; outputs lie strictly inside (0, 1)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise NonFiniteError("sigmoid input must be finite")
    return expit(v)


def finite_diff_grad(
    f: Callable[[Param], float], p: Param, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of one Param.

    Perturbs ``p.value`` in place entry by entry and restores it, so ``f``
    must be deterministic and must read the parameter through ``p``. This is
    the package's gradient oracle: it shares no code with any analytic
    backward pass it is used to check.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = p.value
    out = np.zeros_like(base)
    flat = base.reshape(-1)
    out_flat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(p))
        flat[i] = orig - eps
        f_minus = float(f(p))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError("objective returned non-finite value while differencing")
        out_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return out
