"""Minimal neural-network layer stack for the AI-chip case studies.

A small fully-connected classifier (dense + ReLU), trainable with plain
numpy gradient descent on synthetic data — enough to give the fault-effect
experiments (E9) a real accuracy metric without any ML dependencies.

The float model is the reference; :class:`QuantizedMLP` lowers it to int8
so inference can run MAC-for-MAC on the systolic-array model (and through
its fault injectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .quantize import QuantParams, calibrate


def make_blobs(
    n_samples: int, centers: np.ndarray, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic Gaussian-blob classification data (features, labels).

    ``centers`` (classes x features, see :func:`blob_centers`) defines the
    task, so train and test sets drawn around the same centers share it.
    """
    rng = np.random.default_rng(seed)
    n_classes, n_features = centers.shape
    labels = rng.integers(0, n_classes, size=n_samples)
    features = centers[labels] + rng.normal(0.0, 0.9, size=(n_samples, n_features))
    return features, labels


def blob_centers(n_features: int, n_classes: int, seed: int) -> np.ndarray:
    """Deterministic class centers for a blob task."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 2.0, size=(n_classes, n_features))


@dataclass
class DenseLayer:
    """One fully-connected layer ``y = x @ W + b`` with optional ReLU."""

    weights: np.ndarray
    biases: np.ndarray
    relu: bool = True

    @property
    def shape(self) -> Tuple[int, int]:
        return self.weights.shape


class MLP:
    """Float reference model."""

    def __init__(self, layers: List[DenseLayer]):
        self.layers = layers

    @staticmethod
    def random(sizes: Sequence[int], seed: int = 0) -> "MLP":
        """He-initialized MLP with layer widths ``sizes``; every layer but
        the last has a ReLU."""
        rng = np.random.default_rng(seed)
        layers: List[DenseLayer] = []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            weights = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            biases = np.zeros(fan_out)
            relu = i < len(sizes) - 2
            layers.append(DenseLayer(weights, biases, relu=relu))
        return MLP(layers)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs."""
        activations = inputs
        for layer in self.layers:
            activations = activations @ layer.weights + layer.biases
            if layer.relu:
                activations = np.maximum(activations, 0.0)
        return activations

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(inputs), axis=1)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(inputs) == labels))

    def train(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        epochs: int = 60,
        seed: int = 0,
    ) -> List[float]:
        """Softmax cross-entropy SGD (learning rate 0.05, batches of 64);
        returns per-epoch training accuracy."""
        learning_rate, batch_size = 0.05, 64
        rng = np.random.default_rng(seed)
        n_classes = self.layers[-1].weights.shape[1]
        history: List[float] = []
        for _ in range(epochs):
            order = rng.permutation(len(inputs))
            for start in range(0, len(inputs), batch_size):
                batch = order[start : start + batch_size]
                x, y = inputs[batch], labels[batch]
                # Forward with caches.
                caches: List[Tuple[np.ndarray, np.ndarray]] = []
                act = x
                for layer in self.layers:
                    pre = act @ layer.weights + layer.biases
                    post = np.maximum(pre, 0.0) if layer.relu else pre
                    caches.append((act, pre))
                    act = post
                # Softmax gradient.
                logits = act - act.max(axis=1, keepdims=True)
                exp = np.exp(logits)
                probs = exp / exp.sum(axis=1, keepdims=True)
                onehot = np.eye(n_classes)[y]
                grad = (probs - onehot) / len(batch)
                # Backward.
                for layer, (layer_in, pre) in zip(
                    reversed(self.layers), reversed(caches)
                ):
                    if layer.relu:
                        grad = grad * (pre > 0)
                    grad_w = layer_in.T @ grad
                    grad_b = grad.sum(axis=0)
                    grad = grad @ layer.weights.T
                    layer.weights -= learning_rate * grad_w
                    layer.biases -= learning_rate * grad_b
            history.append(self.accuracy(inputs, labels))
        return history


@dataclass
class QuantizedLayer:
    """Int8 weights + float bias folded in at requantization."""

    weights_q: np.ndarray  # int32 storage of int8 values
    weight_params: QuantParams
    biases: np.ndarray
    relu: bool


class QuantizedMLP:
    """Int8 inference model, optionally running its matmuls on a callback.

    ``matmul_hook(x_q, w_q) -> int32 accumulators`` lets the systolic-array
    model (with injected PE faults) take over the arithmetic while the
    surrounding quantization stays fixed.
    """

    def __init__(
        self,
        layers: List[QuantizedLayer],
        input_params: QuantParams,
        matmul_hook: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        self.layers = layers
        self.input_params = input_params
        self.matmul_hook = matmul_hook

    @staticmethod
    def from_float(model: MLP, calibration_inputs: np.ndarray) -> "QuantizedMLP":
        """Post-training quantization with activation calibration."""
        input_params = calibrate(calibration_inputs)
        layers: List[QuantizedLayer] = []
        activations = calibration_inputs
        for layer in model.layers:
            weight_params = calibrate(layer.weights)
            layers.append(
                QuantizedLayer(
                    weights_q=weight_params.quantize(layer.weights),
                    weight_params=weight_params,
                    biases=layer.biases.copy(),
                    relu=layer.relu,
                )
            )
            activations = activations @ layer.weights + layer.biases
            if layer.relu:
                activations = np.maximum(activations, 0.0)
        return QuantizedMLP(layers, input_params)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Float logits computed through int8 matmuls."""
        act_params = self.input_params
        act_q = act_params.quantize(inputs)
        logits: Optional[np.ndarray] = None
        for index, layer in enumerate(self.layers):
            if self.matmul_hook is not None:
                acc = self.matmul_hook(act_q, layer.weights_q)
            else:
                acc = act_q @ layer.weights_q
            floats = (
                acc.astype(np.float64)
                * act_params.scale
                * layer.weight_params.scale
                + layer.biases
            )
            if layer.relu:
                floats = np.maximum(floats, 0.0)
            if index == len(self.layers) - 1:
                logits = floats
            else:
                act_params = calibrate(floats)
                act_q = act_params.quantize(floats)
        assert logits is not None
        return logits

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(inputs), axis=1)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(inputs) == labels))


def trained_reference_model(seed: int = 7) -> Tuple[MLP, np.ndarray, np.ndarray]:
    """A trained float MLP (8 features, 16 hidden, 3 classes) plus its
    held-out test set (E9 fixture): 1200 training and 400 test samples."""
    centers = blob_centers(8, 3, seed)
    train_x, train_y = make_blobs(1200, centers, seed=seed)
    test_x, test_y = make_blobs(400, centers, seed=seed + 1)
    model = MLP.random([8, 16, 3], seed=seed)
    model.train(train_x, train_y, epochs=40, seed=seed)
    return model, test_x, test_y
