"""Dense float64 primitives with hand-derived gradients.

The package deliberately has no autodiff tape. Each module composes the
forward operations below and writes out its own backward pass; the
finite-difference estimator at the bottom is the independent oracle the
test suite uses to audit every one of those hand-derived gradients.

All arrays are float64 and C-contiguous. Desk-scale sizes (at most a few
dozen experts, embedding dims in the low hundreds) make denser-than-needed
computation acceptable whenever it simplifies the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit


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
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{op} produced non-finite values")
    return out


@dataclass(eq=False)
class Param:
    """A trainable array paired with an additively accumulated gradient.

    Gradients accumulate across backward passes and auxiliary losses; call
    :meth:`zero_grad` once per optimization step. Identity (not value)
    semantics: optimizers key their state on the object, which is what lets
    the adaptive process resize ``value`` in place without losing state for
    the surviving entries.
    """

    value: np.ndarray
    name: str = ""
    grad: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.value)

    def accumulate(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match param {self.name!r} "
                f"shape {self.value.shape}"
            )
        self.grad = self.grad + g

    def replace(self, value: np.ndarray, grad: np.ndarray | None = None) -> None:
        """Swap in new storage, e.g. when an expert column is added or removed.

        The gradient is zeroed unless an explicitly resized one is supplied.
        """
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        if grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            grad = np.ascontiguousarray(grad, dtype=np.float64)
            if grad.shape != self.value.shape:
                raise DimensionError(
                    f"replacement grad shape {grad.shape} does not match "
                    f"value shape {self.value.shape}"
                )
            self.grad = grad


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
    tok_norm = np.linalg.norm(tokens, axis=1)
    if np.any(tok_norm == 0.0):
        raise DegenerateInputError("zero-norm token row; cosine direction undefined")
    col_norm = np.linalg.norm(w, axis=0)
    if np.any(col_norm == 0.0):
        raise DegenerateInputError("zero-norm expert column; cosine direction undefined")
    s = (tokens @ w) / (tok_norm[:, None] * col_norm[None, :])
    return np.clip(_check_finite(s, "cosine_scores"), -1.0, 1.0)


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; outputs lie strictly inside (0, 1)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
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
