"""Tensor hot path: one benchmark row per model and pass.

The timed unit is a full training step — forward, backward, SGD update —
i.e. the paper's unit of local client work, plus a no-grad inference pass.
"""

import numpy as np
import pytest

from repro import nn
from repro.optim import SGD
from repro.tensor import Tensor, no_grad


def make_mlp(rng):
    return nn.Sequential(
        nn.Flatten(),
        nn.Linear(784, 256, rng=rng),
        nn.ReLU(),
        nn.Linear(256, 64, rng=rng),
        nn.ReLU(),
        nn.Linear(64, 10, rng=rng),
    )


def make_cnn(rng):
    return nn.Sequential(
        nn.Conv2d(1, 8, kernel_size=3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, kernel_size=3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(16 * 7 * 7, 10, rng=rng),
    )


def training_step(model, images, labels):
    optimizer = SGD(list(model.named_parameters()), lr=0.01, momentum=0.5)
    loss_fn = nn.CrossEntropyLoss()

    def step():
        optimizer.zero_grad()
        loss = loss_fn(model(Tensor(images)), labels)
        loss.backward()
        optimizer.step()
        return loss.item()

    return step


@pytest.mark.benchmark(group="tensor-engine-mlp")
def test_mlp_training_step(benchmark):
    rng = np.random.default_rng(0)
    model = make_mlp(rng)
    images = rng.normal(size=(32, 1, 28, 28))
    labels = rng.integers(0, 10, size=32)
    benchmark(training_step(model, images, labels))


@pytest.mark.benchmark(group="tensor-engine-cnn")
def test_cnn_training_step(benchmark):
    rng = np.random.default_rng(0)
    model = make_cnn(rng)
    images = rng.normal(size=(16, 1, 28, 28))
    labels = rng.integers(0, 10, size=16)
    benchmark(training_step(model, images, labels))


@pytest.mark.benchmark(group="tensor-engine-inference")
def test_mlp_inference_batch(benchmark):
    """Forward-only under no_grad (the evaluation path)."""
    rng = np.random.default_rng(0)
    model = make_mlp(rng)
    model.eval()
    images = rng.normal(size=(64, 1, 28, 28))
    with no_grad():
        benchmark(lambda: model(Tensor(images)).data.argmax(axis=1))
