"""Shared test fixtures: tiny datasets, random params, gradient oracles,
report readers and a reference byte entropy."""

import csv
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from fedransom import metrics, nn
from fedransom.data import Dataset


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread alive; autouse where a module imports it."""
    before = set(threading.enumerate())
    yield
    new = [t for t in threading.enumerate() if t not in before]
    for thread in new:
        thread.join(timeout=1.0)
    alive = [t.name for t in new if t.is_alive()]
    assert not alive, f"threads left alive: {alive}"


def tiny_dataset(n=24, side=8, seed=0) -> Dataset:
    """A small separable image set: class 0 dark, class 1 bright."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    dark = rng.random((n, 1, side, side)) * 0.3
    bright = rng.random((n, 1, side, side)) * 0.4 + 0.6
    images = np.where(labels[:, None, None, None] == 1, bright, dark)
    return Dataset(images.astype(np.float32), labels.astype(np.int64))


def random_params(side=8, seed=0, dtype=np.float32) -> nn.ModelParams:
    rng = np.random.default_rng(seed)
    width = nn.N_FILTERS * side * side
    return nn.ModelParams(
        conv_kernels=(rng.standard_normal((nn.N_FILTERS, 1, 3, 3)) * 0.5).astype(dtype),
        conv_bias=(rng.standard_normal(nn.N_FILTERS) * 0.1).astype(dtype),
        dense_weights=(rng.standard_normal((2, width)) * 0.02).astype(dtype),
        dense_bias=(rng.standard_normal(2) * 0.1).astype(dtype),
    )


def params_equal(a: nn.ModelParams, b: nn.ModelParams) -> bool:
    return all(
        x.shape == y.shape and (x == y).all()
        for x, y in zip(a.named().values(), b.named().values())
    )


def constant_params(value: float, side=8) -> nn.ModelParams:
    template = nn.init_params(side, 0)
    return nn.ModelParams(*(np.full_like(t, value) for t in template.named().values()))


def hinge_safe_bias(params: nn.ModelParams, batch: np.ndarray,
                    margin: float = 2e-3) -> nn.ModelParams:
    """Place each filter bias mid-gap so no conv pre-activation sits within
    *margin* of the ReLU hinge; a finite-difference sweep then never
    crosses a non-differentiable point."""
    pre = nn.conv2d_same(batch, params.conv_kernels,
                         np.zeros_like(params.conv_bias))
    bias = np.empty_like(params.conv_bias)
    for f in range(pre.shape[1]):
        offsets = np.sort(pre[:, f].ravel())
        gaps = np.diff(offsets)
        g = int(np.argmax(gaps))
        assert gaps[g] > 2 * margin, f"filter {f}: largest hinge gap {gaps[g]:.2e} too small"
        bias[f] = -(offsets[g] + offsets[g + 1]) / 2
    return nn.ModelParams(params.conv_kernels, bias,
                          params.dense_weights, params.dense_bias)


def make_loss_fn(params, batch, labels, config, mask_seed):
    """Loss of the training-mode forward pass with a frozen dropout mask."""
    def loss_at() -> float:
        rng = np.random.default_rng(mask_seed)
        trace = nn.forward(params, batch, config, rng, training=True)
        shifted = trace.logits - trace.logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        return float((log_norm - (labels * shifted).sum(axis=1)).mean())
    return loss_at


def numeric_gradients(loss_at, params: nn.ModelParams,
                      delta: float = 1e-3) -> nn.ModelParams:
    """Central finite differences of loss_at() over every parameter,
    perturbing the arrays in place."""
    grads = {}
    for name, arr in params.named().items():
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + delta
            plus = loss_at()
            arr[idx] = orig - delta
            minus = loss_at()
            arr[idx] = orig
            num[idx] = (plus - minus) / (2 * delta)
        grads[name] = num
    return nn.ModelParams(**grads)


def max_relative_error(analytic: nn.ModelParams, numeric: nn.ModelParams) -> float:
    worst = 0.0
    for name, a in analytic.named().items():
        n = numeric.named()[name]
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy of the byte-value distribution, in bits per byte."""
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    p = counts[counts > 0] / len(data)
    return float(-(p * np.log2(p)).sum())


def parse_report(path) -> metrics.EvalReport:
    """Read back a json report; reals are re-quantized to single precision."""
    doc = json.loads(Path(path).read_text())
    cm = metrics.ConfusionMatrix(**doc["confusion"])
    return metrics.EvalReport(
        confusion=cm,
        precision=tuple(metrics._f32(v) for v in doc["precision"]),
        recall=tuple(metrics._f32(v) for v in doc["recall"]),
        f1=tuple(metrics._f32(v) for v in doc["f1"]),
        accuracy=metrics._f32(doc["accuracy"]),
        degenerate=tuple(doc["degenerate"]),
        history=tuple(
            metrics.history_row(int(idx), train, val) for idx, train, val in doc["history"]
        ),
    )


def parse_history_csv(path) -> tuple[metrics.HistoryRow, ...]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != metrics.CSV_HEADER:
            raise ValueError(f"unexpected csv header {header!r}")
        return tuple(
            metrics.history_row(int(idx), float(train) if train else None,
                                float(val) if val else None)
            for idx, train, val in reader
        )
