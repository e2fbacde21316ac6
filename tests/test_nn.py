"""The reference MLP and its int8 lowering."""

import numpy as np
import pytest

from repro.aichip.nn import (
    MLP,
    QuantizedMLP,
    blob_centers,
    make_blobs,
    trained_reference_model,
)


@pytest.fixture(scope="module")
def fixture():
    return trained_reference_model()


class TestData:
    def test_blobs_deterministic(self):
        a = make_blobs(50, blob_centers(8, 3, seed=3), seed=3)
        b = make_blobs(50, blob_centers(8, 3, seed=3), seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_shared_centers_define_one_task(self):
        centers = blob_centers(8, 3, seed=1)
        x1, _ = make_blobs(10, seed=1, centers=centers)
        x2, _ = make_blobs(10, seed=2, centers=centers)
        assert x1.shape == x2.shape

    def test_shapes(self):
        x, y = make_blobs(100, blob_centers(6, 4, seed=0), seed=0)
        assert x.shape == (100, 6)
        assert set(y) <= {0, 1, 2, 3}


class TestTraining:
    def test_reference_model_learns(self, fixture):
        model, test_x, test_y = fixture
        assert model.accuracy(test_x, test_y) > 0.9

    def test_training_improves(self):
        centers = blob_centers(8, 3, seed=5)
        train = make_blobs(600, seed=5, centers=centers)
        model = MLP.random([8, 12, 3], seed=5)
        before = model.accuracy(*train)
        history = model.train(*train, epochs=15, seed=5)
        assert history[-1] > before

    def test_forward_shapes(self, fixture):
        model, test_x, _ = fixture
        logits = model.forward(test_x[:7])
        assert logits.shape == (7, 3)


class TestQuantizedInference:
    def test_int8_close_to_float(self, fixture):
        model, test_x, test_y = fixture
        quantized = QuantizedMLP.from_float(model, test_x)
        float_acc = model.accuracy(test_x, test_y)
        int8_acc = quantized.accuracy(test_x, test_y)
        assert abs(float_acc - int8_acc) < 0.05

    def test_weights_are_int8_range(self, fixture):
        model, test_x, _ = fixture
        quantized = QuantizedMLP.from_float(model, test_x)
        for layer in quantized.layers:
            assert layer.weights_q.min() >= -127
            assert layer.weights_q.max() <= 127

    def test_matmul_hook_is_used(self, fixture):
        model, test_x, test_y = fixture
        calls = []

        def hook(x, w):
            calls.append((x.shape, w.shape))
            return x @ w

        quantized = QuantizedMLP.from_float(model, test_x)
        hooked = QuantizedMLP(quantized.layers, quantized.input_params, matmul_hook=hook)
        hooked.predict(test_x[:5])
        assert len(calls) == len(quantized.layers)
