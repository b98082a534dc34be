"""Finite-difference checks of composite graphs the per-op tests miss.

Each case mixes several primitives in one graph (sub/rsub with div,
fractional powers, abs, var with keepdims, max, expand, a padded conv
with bias feeding a pool, nll_loss over log_softmax) and gradchecks
every leaf at once.
"""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    check_gradients,
    conv2d,
    cross_entropy,
    log_softmax,
    max_pool2d,
    nll_loss,
)


def _away_from_zero(data, margin=0.15):
    """Shift entries near 0 outward so relu/abs kinks can't be crossed
    by the finite-difference probe."""
    data = np.asarray(data)
    shift = np.where(np.abs(data) < margin, np.where(data >= 0, margin, -margin), 0.0)
    return data + shift


def case_arithmetic(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
    return lambda: (a * b + a / b - b + 2.0 * a).sum(), [a, b]


def case_pow(rng):
    a = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
    return lambda: ((a**3).sum() + (a**0.5).sum()), [a]


def case_piecewise(rng):
    a = Tensor(_away_from_zero(rng.normal(size=(3, 4))), requires_grad=True)
    return lambda: (a.relu() * 2.0 + a.abs()).sum(), [a]


def case_reductions(rng):
    x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    return (
        lambda: x.sum(axis=1, keepdims=True).sum() + x.mean(axis=0).sum() + x.var() * 0.5,
        [x],
    )


def case_max(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    return lambda: x.max(axis=1).sum() + x.max() * 0.5, [x]


def case_movement(rng):
    x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    c = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    return (
        lambda: (x.reshape(3, 4).transpose(1, 0) * x.reshape(4, 3)).sum()
        + (c.expand(3, 4) * x.reshape(3, 4)).sum(),
        [x, c],
    )


def case_conv_pool(rng):
    x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    return (
        lambda: max_pool2d(conv2d(x, w, bias, stride=1, padding=1), kernel=2).sum(),
        [x, w, bias],
    )


def case_losses(rng):
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets = np.array([0, 2, 4, 1])
    return (
        lambda: cross_entropy(logits, targets)
        + nll_loss(log_softmax(logits), targets) * 0.5,
        [logits],
    )


CASES = [
    ("arithmetic", case_arithmetic),
    ("pow", case_pow),
    ("piecewise", case_piecewise),
    ("reductions", case_reductions),
    ("max", case_max),
    ("movement", case_movement),
    ("conv_pool", case_conv_pool),
    ("losses", case_losses),
]


@pytest.mark.parametrize("make", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_gradcheck(make):
    func, leaves = make(np.random.default_rng(0))
    check_gradients(func, leaves, atol=1e-5, max_checks=32)
