"""The two-class convolutional classifier, written directly on numpy.

Layer stack: one 3x3 stride-1 same-padding convolution with 32 filters
over the one-channel image, ReLU, inverted dropout, flatten, a dense
projection to two logits, and a softmax over the two classes. The
convolution is one im2col matmul whose patches end in a row of ones that
carries the bias. Training is exact backpropagation with plain mini-batch
SGD. Arithmetic is single precision; operations preserve the dtype of
their inputs so the whole path can also run in float64 (which is how the
gradients are cross-checked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset, one_hot
from .errors import EmptyDataset, FedransomError, InvalidRate, ShapeMismatch
from .imaging import MIN_SIDE

N_FILTERS = 32
KERNEL_SIDE = 3
N_CLASSES = 2
# one chunk's conv output in fit: 128 samples at side 64, 5 at side 300;
# at side 300 each chunk streams the 23 MB dense weights twice, so fewer,
# larger chunks train faster
CHUNK_BYTES = 64 << 20
# one chunk's conv output in predict: 16 samples at side 64, 1 at side 300;
# an eval chunk reads the dense weights once, and a small one stays in cache
PREDICT_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.006
    batch_size: int = 64
    epochs: int = 10
    dropout_rate: float = 0.25
    side: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        # learning_rate 0 is allowed so "training changes nothing" holds
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidRate("dropout_rate must lie in [0, 1)")
        if self.side < MIN_SIDE:
            raise ValueError(f"side must be at least {MIN_SIDE}")


@dataclass(frozen=True)
class ModelParams:
    """All weights of the classifier as named, shaped arrays."""

    conv_kernels: np.ndarray  # (32, 1, 3, 3)
    conv_bias: np.ndarray     # (32,)
    dense_weights: np.ndarray  # (2, 32 * side * side)
    dense_bias: np.ndarray    # (2,)

    @property
    def side(self) -> int:
        return math.isqrt(self.dense_weights.shape[1] // N_FILTERS)

    def named(self) -> dict[str, np.ndarray]:
        return {
            "conv_kernels": self.conv_kernels,
            "conv_bias": self.conv_bias,
            "dense_weights": self.dense_weights,
            "dense_bias": self.dense_bias,
        }

    def count(self) -> int:
        return sum(int(a.size) for a in self.named().values())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(*(a.astype(dtype) for a in self.named().values()))


def init_params(side: int, seed: int, dtype=np.float32) -> ModelParams:
    """Seeded uniform init; scales keep the initial logits close to zero."""
    rng = np.random.default_rng(seed)
    conv_bound = math.sqrt(6.0 / (KERNEL_SIDE * KERNEL_SIDE))  # fan_in = 9
    width = N_FILTERS * side * side
    dense_bound = math.sqrt(6.0 / (width + N_CLASSES))
    return ModelParams(
        conv_kernels=rng.uniform(-conv_bound, conv_bound,
                                 (N_FILTERS, 1, KERNEL_SIDE, KERNEL_SIDE)).astype(dtype),
        conv_bias=np.zeros(N_FILTERS, dtype=dtype),
        dense_weights=rng.uniform(-dense_bound, dense_bound,
                                  (N_CLASSES, width)).astype(dtype),
        dense_bias=np.zeros(N_CLASSES, dtype=dtype),
    )


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise max(0, x); pass out=x to work in place."""
    return np.maximum(x, 0, out=out)


def softmax_output(h: np.ndarray) -> np.ndarray:
    """Normalized exponentials along the last axis, max-shifted for stability."""
    shifted = h - h.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _patches(batch: np.ndarray) -> np.ndarray:
    """im2col of an (n, 1, h, w) batch, (n, 10, h*w): nine rows of zero-padded
    3x3 neighbourhoods ordered (row tap, column tap) like a flattened kernel,
    then a row of ones that the bias multiplies."""
    n, _, h, w = batch.shape
    padded = np.pad(batch[:, 0], ((0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(padded, (KERNEL_SIDE, KERNEL_SIDE), axis=(1, 2))
    patches = np.empty((n, KERNEL_SIDE ** 2 + 1, h * w), dtype=batch.dtype)
    # a view: the nine tap rows split into (row tap, column tap, h, w)
    taps = patches[:, :-1].reshape(n, KERNEL_SIDE, KERNEL_SIDE, h, w)
    taps[...] = windows.transpose(0, 3, 4, 1, 2)
    patches[:, -1] = 1
    return patches


def _chunk_size(params: ModelParams, batch: np.ndarray, budget: int) -> int:
    """Samples per chunk of *batch*: one chunk's conv output fits *budget*
    bytes, and a chunk holds at least one sample. Callers pass CHUNK_BYTES
    or PREDICT_CHUNK_BYTES as read at call time."""
    # the dense width is the size of one sample's conv output
    return max(1, budget // (params.dense_weights.shape[1] * batch.itemsize))


def conv2d_same(batch: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation of an (n, 1, h, w) batch with (f, 1, 3, 3)
    kernels and a one-pixel zero border; the (n, f, h, w) output keeps the
    spatial size. One matmul: the bias is the kernel matrix's last column,
    against the patches' ones row."""
    n, _, h, w = batch.shape
    weights = np.concatenate((kernels.reshape(len(kernels), -1), bias[:, None]), axis=1)
    return np.matmul(weights, _patches(batch)).reshape(n, len(kernels), h, w)


def dropout(x: np.ndarray, rate: float, rng: Optional[np.random.Generator],
            training: bool, gate: Optional[np.ndarray] = None,
            out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: returns (x * keep / (1 - rate), keep), keep a boolean
    mask. A given *gate*, such as ReLU's x > 0, is ANDed into keep in place;
    pass out=x to scale and mask in place. Without a gate, in eval mode or
    at rate 0, the output equals the input.

    Each unit costs 16 random bits: it is kept when its draw is at least
    round(rate * 2**16), so it drops with probability round(rate * 2**16) / 2**16
    (exact for 0.25, within 2**-17 of *rate* otherwise). Draws are taken in
    whole 64-bit words, so arrays of a multiple of 4 units drawn in turn give
    the bits of one draw over all of them."""
    if not 0.0 <= rate < 1.0:
        raise InvalidRate(f"dropout rate must lie in [0, 1), got {rate}")
    keep = np.ones(x.shape, dtype=bool) if gate is None else gate
    if training and rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs a generator")
        bits = rng.bit_generator.random_raw(math.ceil(x.size / 4)).view("<u2")[: x.size]
        keep &= bits.reshape(x.shape) >= round(rate * 2 ** 16)
    out = np.multiply(x, _survivor_scale(x.dtype, rate, training), out=out)
    out *= keep
    return out, keep


def _survivor_scale(dtype: np.dtype, rate: float, training: bool):
    return dtype.type(1.0) / dtype.type(1.0 - rate if training else 1.0)


@dataclass(frozen=True)
class ForwardTrace:
    """Every intermediate the backward pass needs."""

    batch: np.ndarray        # (n, 1, side, side)
    gate: np.ndarray         # bool, conv pre-activation > 0 and kept by dropout
    scale: np.floating       # dropout survivor scale, 1 outside training
    flat: np.ndarray         # post-dropout activations, flattened per sample;
                             # loss_and_grad overwrites them with their gradient
    logits: np.ndarray       # (n, 2)
    probs: np.ndarray        # (n, 2), rows sum to 1


def _conv_layer(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Conv pre-activation of an (n, 1, side, side) batch that fits the model."""
    if batch.ndim != 4 or batch.shape[1] != 1:
        raise ShapeMismatch(f"expected (n, 1, side, side) batch, got {batch.shape}")
    if params.dense_weights.shape[1] != N_FILTERS * batch.shape[2] * batch.shape[3]:
        raise ShapeMismatch(
            f"batch side {batch.shape[2]} does not match dense width "
            f"{params.dense_weights.shape[1]}")
    return conv2d_same(batch, params.conv_kernels, params.conv_bias)


def forward(params: ModelParams, batch: np.ndarray, config: TrainConfig,
            rng: Optional[np.random.Generator] = None,
            training: bool = False) -> ForwardTrace:
    """Run the full stack: conv, ReLU, dropout, flatten, dense, softmax.
    ReLU and dropout share one boolean gate and work in the conv output's
    buffer, which the trace keeps as its flat activations."""
    act = _conv_layer(params, batch)
    _, gate = dropout(act, config.dropout_rate, rng, training, act > 0, out=act)
    scale = _survivor_scale(act.dtype, config.dropout_rate, training)
    flat = act.reshape(batch.shape[0], -1)
    logits = flat @ params.dense_weights.T + params.dense_bias
    return ForwardTrace(batch, gate, scale, flat, logits, softmax_output(logits))


def loss_and_grad(trace: ForwardTrace, labels: np.ndarray, params: ModelParams,
                  batch_size: Optional[int] = None) -> tuple[float, ModelParams]:
    """Cross-entropy and its exact gradients, summed over the traced samples
    and divided by *batch_size* (default: the number of traced samples, so
    the mean). With the size of a whole mini-batch, the results for its
    chunks add up to the mini-batch's loss and gradients.

    *labels* is one-hot, shape (n, 2). The loss is computed from the
    logits via log-sum-exp so confident mistakes stay finite. Gradients
    flow through the dense layer, the stored ReLU-and-dropout gate, and
    the convolution; the returned object has parameter shapes.

    This consumes the trace: the activation gradient is written over
    trace.flat, so the activations are gone once this returns.
    """
    n = trace.batch.shape[0]
    if labels.shape != trace.probs.shape:
        raise ShapeMismatch(f"expected {trace.probs.shape} one-hot labels, got {labels.shape}")
    divisor = trace.probs.dtype.type(n if batch_size is None else batch_size)

    shifted = trace.logits - trace.logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    loss = float((log_norm - (labels * shifted).sum(axis=1)).sum() / divisor)

    d_logits = (trace.probs - labels) / divisor
    d_dense_w = d_logits.T @ trace.flat
    d_dense_b = d_logits.sum(axis=0)

    # the activations are spent: their buffer takes the activation gradient
    d_pre = np.matmul(d_logits * trace.scale, params.dense_weights, out=trace.flat)
    d_pre *= trace.gate.reshape(n, -1)
    # (32, 10): dK in the first nine columns, the bias gradient in the last
    d_conv = np.matmul(d_pre.reshape(n, N_FILTERS, -1),
                       _patches(trace.batch).transpose(0, 2, 1)).sum(axis=0)
    return loss, ModelParams(d_conv[:, :-1].reshape(params.conv_kernels.shape),
                             d_conv[:, -1], d_dense_w, d_dense_b)


def batch_loss_and_grad(params: ModelParams, images: np.ndarray, labels: np.ndarray,
                        config: TrainConfig, rng: np.random.Generator,
                        ) -> tuple[float, ModelParams]:
    """Training-mode loss and mean gradients of one mini-batch.

    The batch runs in chunks of consecutive samples, each conv output
    within CHUNK_BYTES, and the chunks' exact partial sums are added up.
    Dropout masks are drawn chunk by chunk in sample order, which gives the
    bits of one whole-batch draw. A batch that fits one chunk runs as one.
    """
    n = images.shape[0]
    step = _chunk_size(params, images, CHUNK_BYTES)
    loss, grads = 0.0, None
    for start in range(0, n, step):
        part = slice(start, start + step)
        # each trace is dropped as soon as its gradients exist
        part_loss, part_grads = loss_and_grad(
            forward(params, images[part], config, rng, training=True),
            labels[part], params, batch_size=n)
        loss += part_loss
        if grads is None:
            grads = part_grads
        else:
            for total, g in zip(grads.named().values(), part_grads.named().values()):
                total += g
    return loss, grads


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """p <- p - lr * g, elementwise."""
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    new = {}
    for name, p in params.named().items():
        g = grads.named()[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        new[name] = p - learning_rate * g
    return ModelParams(**new)


def predict(params: ModelParams, batch: np.ndarray,
            threshold: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode class labels and probabilities.

    A sample is called ransomware (1) when its class-1 probability strictly
    exceeds *threshold*; at the default 0.5 this is argmax with the exact
    tie resolved to class 0. Chunks of the batch run in turn, each conv
    output within PREDICT_CHUNK_BYTES, a budget smaller than fit's.
    """
    chunk = _chunk_size(params, batch, PREDICT_CHUNK_BYTES)
    probs = np.empty((batch.shape[0], N_CLASSES), dtype=np.float32)
    for start in range(0, batch.shape[0], chunk):
        act = _conv_layer(params, batch[start : start + chunk])
        relu(act, out=act)
        logits = act.reshape(len(act), -1) @ params.dense_weights.T + params.dense_bias
        probs[start : start + len(act)] = softmax_output(logits)
        del act  # so the next chunk's conv output does not overlap this one
    labels = (probs[:, 1] > threshold).astype(np.int64)
    return labels, probs


def accuracy(params: ModelParams, dataset: Dataset) -> float:
    labels, _ = predict(params, dataset.images)
    return float((labels == dataset.labels).mean())


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: Optional[float]
    val_accuracy: Optional[float] = None


def fit(params: ModelParams, train: Dataset, config: TrainConfig,
        rng: np.random.Generator, val: Optional[Dataset] = None,
        score_train: bool = True) -> tuple[ModelParams, list[EpochStats]]:
    """Mini-batch SGD over shuffled epochs; the short final batch is kept.

    Deterministic for a given generator state: the same seed replays the
    same shuffles, dropout masks, and parameter trajectory bit for bit.
    Each mini-batch goes through batch_loss_and_grad, in chunks that bound
    its memory.
    Without *score_train* the per-epoch pass over the training set is
    skipped and train_accuracy is None; the weights do not change.
    """
    if len(train) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    if train.side != config.side:
        raise ShapeMismatch(f"dataset side {train.side} != config side {config.side}")
    labels = one_hot(train.labels).astype(params.dense_bias.dtype)
    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        losses = []
        for start in range(0, len(train), config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = batch_loss_and_grad(params, train.images[idx], labels[idx],
                                              config, rng)
            if not math.isfinite(loss):
                raise FedransomError(f"loss diverged to {loss} in epoch {epoch}")
            params = sgd_step(params, grads, config.learning_rate)
            losses.append(loss)
        history.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            train_accuracy=accuracy(params, train) if score_train else None,
            val_accuracy=accuracy(params, val) if val is not None and len(val) else None,
        ))
    return params, history
