"""Composite differentiable functions built on :mod:`repro.nn.tensor`.

These are the standard building blocks of policy-gradient and value-based
losses: stable softmax / log-softmax, categorical sampling helpers, entropy,
and the usual regression losses.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, affine, lstm_cell, lstm_sequence, lstm_trunk

__all__ = [
    "affine",
    "categorical_sample",
    "entropy",
    "gather",
    "huber_loss",
    "log_softmax",
    "lstm_cell",
    "lstm_sequence",
    "lstm_trunk",
    "mse_loss",
    "softmax",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def entropy(probs: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Shannon entropy of a probability distribution (Eq. 3 of the paper)."""
    clamped = probs.maximum(Tensor(np.full_like(probs.data, eps)))
    return -(probs * clamped.log()).sum(axis=axis)


def gather(tensor: Tensor, indices: np.ndarray, axis: int = -1) -> Tensor:
    """Pick one element along the last axis: ``out[...] = t[..., indices[...]]``.

    ``indices`` must match the leading shape of ``tensor``; only the
    last-axis case is supported, which is what categorical
    log-probability extraction needs (2-D per-step batches or 3-D
    stacked ``(horizon, batch, actions)`` sequences alike).
    """
    if axis not in (-1, tensor.ndim - 1):
        raise ValueError("gather only supports the last axis")
    indices = np.asarray(indices, dtype=np.int64)
    leading = np.indices(tensor.shape[:-1])
    return tensor[(*leading, indices)]


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error (used for the critic loss, Eq. 2)."""
    target = Tensor.ensure(target).detach()
    diff = prediction - target
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: Tensor | np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss (used for DQN TD-error regression)."""
    target = Tensor.ensure(target).detach()
    diff = (prediction - target).abs()
    quadratic = diff.minimum(Tensor(np.full_like(diff.data, delta)))
    linear = diff - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()


def categorical_sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an index from a 1-D probability vector."""
    probs = np.asarray(probs, dtype=np.float64)
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("probabilities must be finite and sum to a positive value")
    return int(rng.choice(len(probs), p=probs / total))
