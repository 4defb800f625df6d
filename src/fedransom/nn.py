"""The two-class convolutional classifier, written directly on numpy.

Layer stack: one 3x3 stride-1 same-padding convolution with 32 filters
over the one-channel image, ReLU, inverted dropout (its survivor scale on
the logits), flatten, a dense projection to two logits, and a softmax. The
convolution is one im2col matmul whose patches end in a row of ones that
carries the bias. Training is exact backpropagation with plain mini-batch
SGD. Each layer has one code path, which runs in a workspace of reused
buffers; a public call made without one (conv2d_same, forward,
batch_loss_and_grad) builds a workspace for that call alone. fit and
predict run a batch's chunks on two lanes, the calling thread and a helper thread
that each job starts and joins, each in its own workspace, where the caller passes
two or more *cores* (by default, every usable core); chunks take their dropout
draws and add their gradients in chunk order, so the lane count changes no bit.
The dense layer picks each product's kernel by its shape: one gemv per sample
for the logits (so they do not depend on the chunk) and the activation gradient,
an outer product for one sample's weight gradient, 256 KiB steps to add one.
Arithmetic is single precision; operations preserve the dtype of their
inputs so the whole path can also run in float64 (which is how the
gradients are cross-checked).
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset, one_hot
from .errors import EmptyDataset, FedransomError, InvalidRate, ShapeMismatch
from .imaging import MAX_SIDE, MIN_SIDE

N_FILTERS = 32
KERNEL_SIDE = 3
N_CLASSES = 2
# one chunk's conv output in fit: 64 samples at side 64, 2 at side 300; the
# two lanes' 2-sample chunks hold less than one 5-sample chunk, and on one
# thread 2-sample chunks train within about 5% of 5-sample ones
CHUNK_BYTES = 32 << 20
# one chunk's conv output in predict: 16 samples at side 64, 1 at side 300;
# an eval chunk reads the dense weights once, and a small one stays in cache
PREDICT_CHUNK_BYTES = 8 << 20
# blocks inside a training chunk: dense-gradient columns and patch groups (of at
# least one sample) of this many bytes, and dropout draws of 1/32 as many units;
# predict's patch groups take a quarter, so both lanes stay within its budget
_BLOCK_BYTES = 4 << 20


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
        if not 0 <= self.learning_rate < math.inf:  # nan compares false
            raise ValueError("learning_rate must be a finite number >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidRate("dropout_rate must lie in [0, 1)")
        if self.side < MIN_SIDE:
            raise ValueError(f"side must be at least {MIN_SIDE}")
        if self.side > MAX_SIDE:  # before anything of that side is allocated
            raise ValueError(f"side must be at most {MAX_SIDE}, the largest that can federate")


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


def softmax_output(h: np.ndarray) -> np.ndarray:
    """Normalized exponentials along the last axis, max-shifted for stability."""
    shifted = h - h.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _patches(batch: np.ndarray, workspace: _Workspace) -> np.ndarray:
    """im2col of an (n, 1, h, w) batch, (n, 10, h*w), in the workspace's patch
    group: nine rows of zero-padded 3x3 neighbourhoods ordered (row tap,
    column tap) like a flattened kernel, then a row of ones that the bias
    multiplies."""
    n, _, h, w = batch.shape
    padded, patches = workspace.padded[:n], workspace.patches[:n]
    padded[:, 1:-1, 1:-1] = batch[:, 0]  # the border stays zero
    windows = sliding_window_view(padded, (KERNEL_SIDE, KERNEL_SIDE), axis=(1, 2))
    # a view: the nine tap rows split into (row tap, column tap, h, w)
    taps = patches[:, :-1].reshape(n, KERNEL_SIDE, KERNEL_SIDE, h, w)
    taps[...] = windows.transpose(0, 3, 4, 1, 2)
    return patches


class _Workspace:
    """One lane's buffers for its largest chunk: the conv output (shaped by
    the *kernels*) and a patch group; to train, the gathered chunk, the gate
    and a dense-gradient column block. order and k are the job and chunk the
    lane runs."""

    def __init__(self, samples: int, images: np.ndarray, kernels: np.ndarray,
                 training: bool = True) -> None:
        h, w = images.shape[2:]
        dtype = np.result_type(kernels, images)
        group_bytes = _BLOCK_BYTES if training else _BLOCK_BYTES // 4
        group = max(1, min(samples,
                           group_bytes // ((KERNEL_SIDE ** 2 + 1) * h * w * dtype.itemsize)))
        self.act = np.empty((samples, len(kernels), h * w), dtype)  # conv output
        self.padded = np.zeros((group, h + 2, w + 2), images.dtype)
        self.patches = np.ones((group, KERNEL_SIDE ** 2 + 1, h * w), images.dtype)  # the ones row stays
        if training:
            self.chunk = np.empty((samples, *images.shape[1:]), images.dtype)
            self.gate = np.empty((samples, len(kernels), h, w), dtype=bool)
            # 4 MiB, though loss_and_grad walks it in 256 KiB steps: a 256 KiB block raised
            # wire-300's peak RSS from 256-260 MiB to 267-299 MiB (4 of 4 processes)
            width = min(self.act[0].size, _BLOCK_BYTES // (N_CLASSES * dtype.itemsize))
            self.cols = np.empty((N_CLASSES, width), dtype)
        self.order: Optional[_Order] = None
        self.k = 0

    def turn(self, resource: str):
        """The current chunk's turn at a shared resource; off the lanes, no wait."""
        return nullcontext() if self.order is None else self.order.turn(resource, self.k)


class _Stopped(Exception):
    """A lane's wait ended because another lane failed."""


class _Order:
    """Chunk order of one job on its lanes: chunk k takes its turn at a
    resource the chunks share (the generator, a gradient total) once chunk
    k-1 has taken its own, so every draw and sum runs as on one lane. The
    first failure ends every wait."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._taken: set[tuple[str, int]] = set()
        self.failures: dict[int, BaseException] = {}  # by chunk

    @contextmanager
    def turn(self, resource: str, k: int):
        with self._cond:
            while k and (resource, k - 1) not in self._taken:
                if self.failures:
                    raise _Stopped
                self._cond.wait()
        yield
        with self._cond:
            self._taken.add((resource, k))
            self._cond.notify_all()

    def fail(self, k: int, exc: BaseException) -> None:
        with self._cond:
            self.failures[k] = exc
            self._cond.notify_all()


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Lanes:
    """The plan of one pass over *samples* samples: chunks of step samples,
    each conv output within *budget* bytes; the calling thread and, where
    *cores* (None: every usable core) and the chunks allow, one helper thread,
    so that no pass's buffers grow with the core count; and one workspace per
    lane. Each job of two chunks or more starts its own helper and joins it
    before it returns, so the lanes hold no thread and need no closing."""

    def __init__(self, params: ModelParams, images: np.ndarray, samples: int, budget: int,
                 cores: Optional[int], training: bool = True) -> None:
        self.step = min(max(1, samples), _chunk_size(params, images, budget))
        lanes = max(1, min(2, cores or _usable_cores(), -(-samples // self.step)))
        self.workspaces = tuple(_Workspace(self.step, images, params.conv_kernels, training)
                                for _ in range(lanes))

    def run(self, chunks: int, work: Callable[[int, _Workspace], None]) -> None:
        """work(k, workspace) for each chunk k < chunks, on lane k % lanes.
        Once every lane has stopped, raise the first failure in chunk order."""
        lanes = max(1, min(chunks, len(self.workspaces)))
        order, helper = _Order(), None
        if lanes > 1:
            helper = threading.Thread(target=self._lane, args=(1, 2, order, chunks, work),
                                      name="fedransom-lane")
            helper.start()
        try:
            self._lane(0, lanes, order, chunks, work)
        finally:
            if helper is not None:
                helper.join()
        if order.failures:
            raise order.failures[min(order.failures)]

    def _lane(self, lane: int, lanes: int, order: _Order, chunks: int, work) -> None:
        workspace, k = self.workspaces[lane], lane
        try:
            for k in range(lane, chunks, lanes):
                if order.failures:
                    return
                workspace.order, workspace.k = order, k
                work(k, workspace)
        except _Stopped:
            pass
        except BaseException as exc:  # run raises it on the caller's thread
            order.fail(k, exc)


def _chunk_size(params: ModelParams, batch: np.ndarray, budget: int) -> int:
    """Samples per chunk of *batch*: one chunk's conv output fits *budget*
    bytes, and a chunk holds at least one sample. Callers pass CHUNK_BYTES
    or PREDICT_CHUNK_BYTES as read at call time."""
    # the dense width is the size of one sample's conv output
    return max(1, budget // (params.dense_weights.shape[1] * batch.itemsize))


def conv2d_same(batch: np.ndarray, kernels: np.ndarray, bias: np.ndarray, *,
                workspace: Optional[_Workspace] = None) -> np.ndarray:
    """Stride-1 cross-correlation of an (n, 1, h, w) batch with (f, 1, 3, 3)
    kernels and a one-pixel zero border; the (n, f, h, w) output keeps the
    spatial size, in the workspace's conv output. One matmul per patch group:
    the bias is the kernel matrix's last column, against the patches' ones row."""
    n, _, h, w = batch.shape
    if workspace is None:  # a public call: buffers for this call alone
        workspace = _Workspace(n, batch, kernels, training=False)
    weights = np.concatenate((kernels.reshape(len(kernels), -1), bias[:, None]), axis=1)
    for s in range(0, n, len(workspace.patches)):
        part = workspace.act[s : min(n, s + len(workspace.patches))]
        np.matmul(weights, _patches(batch[s : s + len(part)], workspace), out=part)
    return workspace.act[:n].reshape(n, len(kernels), h, w)


def dropout(x: np.ndarray, rate: float, rng: Optional[np.random.Generator],
            training: bool) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: returns (x * keep / (1 - rate), keep), keep a boolean
    mask. In eval mode or at rate 0, the output equals the input. forward
    draws its keep mask into its ReLU gate and scales its logits instead.

    Each unit costs 16 random bits: it is kept when its draw is at least
    round(rate * 2**16), so it drops with probability round(rate * 2**16) / 2**16
    (exact for 0.25, within 2**-17 of *rate* otherwise). Draws are taken in
    whole 64-bit words, so arrays of a multiple of 4 units drawn in turn give
    the bits of one draw over all of them; keep is drawn so, in blocks."""
    if not 0.0 <= rate < 1.0:
        raise InvalidRate(f"dropout rate must lie in [0, 1), got {rate}")
    keep = np.ones(x.shape, dtype=bool)
    if training and rate > 0.0:
        _draw_keep(keep, rate, rng)
    out = np.multiply(x, _survivor_scale(x.dtype, rate, training))
    out *= keep
    return out, keep


def _draw_keep(keep: np.ndarray, rate: float, rng: Optional[np.random.Generator]) -> None:
    """AND dropout's training draw into the contiguous boolean *keep* in
    place, block by block, each block's comparison in one compare block."""
    if rng is None:
        raise ValueError("training-mode dropout needs a generator")
    flat = keep.reshape(-1)  # a view, as keep is contiguous
    units = 4 * max(1, _BLOCK_BYTES // 128)  # whole 64-bit words of 4 units
    # one compare block per draw, not per workspace: kept in the workspaces,
    # it put wire-300 at 37-40K minor faults per cycle in 5 of 7 processes, against 20-21K
    compare = np.empty(min(units, flat.size), dtype=bool)
    for start in range(0, flat.size, units):
        block = flat[start : start + units]
        bits = rng.bit_generator.random_raw(math.ceil(block.size / 4)).view("<u2")
        block &= np.greater_equal(bits[: block.size], round(rate * 2 ** 16),
                                  out=compare[: block.size])


def _survivor_scale(dtype: np.dtype, rate: float, training: bool):
    return dtype.type(1.0) / dtype.type(1.0 - rate if training else 1.0)


@dataclass(frozen=True)
class ForwardTrace:
    """Every intermediate the backward pass needs, in its workspace."""

    batch: np.ndarray        # (n, 1, side, side)
    gate: np.ndarray         # bool, conv pre-activation > 0 and kept by dropout
    scale: np.floating       # dropout survivor scale, 1 outside training
    flat: np.ndarray         # gated activations, flattened per sample;
                             # loss_and_grad overwrites them with their gradient
    logits: np.ndarray       # (n, 2)
    probs: np.ndarray        # (n, 2), rows sum to 1
    workspace: _Workspace


def _check_batch(params: ModelParams, batch: np.ndarray) -> None:
    """Raise unless *batch* is an (n, 1, side, side) batch that fits the model."""
    if batch.ndim != 4 or batch.shape[1] != 1:
        raise ShapeMismatch(f"expected (n, 1, side, side) batch, got {batch.shape}")
    if params.dense_weights.shape[1] != N_FILTERS * batch.shape[2] * batch.shape[3]:
        raise ShapeMismatch(
            f"batch side {batch.shape[2]} does not match dense width "
            f"{params.dense_weights.shape[1]}")


def _logits(flat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """flat @ weights.T without the scale and bias, one gemv per sample: for a 2-sample
    side-300 chunk OpenBLAS's GEMM took 7-9 ms, two gemvs 3-5 ms (one BLAS thread)."""
    logits = np.empty((len(flat), len(weights)), np.result_type(flat, weights))
    for row, sample in zip(logits, flat):
        np.matmul(weights, sample, out=row)
    return logits


def forward(params: ModelParams, batch: np.ndarray, config: TrainConfig,
            rng: Optional[np.random.Generator] = None, training: bool = False, *,
            workspace: Optional[_Workspace] = None) -> ForwardTrace:
    """Run the full stack: conv, ReLU, dropout, flatten, dense, softmax.
    ReLU and dropout share one boolean gate that masks the conv output in its
    buffer, which the trace keeps as its flat activations; the dropout scale
    multiplies the logits. The workspace holds the conv output and the gate."""
    _check_batch(params, batch)
    if workspace is None:  # a public call: buffers for this call alone
        workspace = _Workspace(len(batch), batch, params.conv_kernels)
    act = conv2d_same(batch, params.conv_kernels, params.conv_bias, workspace=workspace)
    gate = np.greater(act, 0, out=workspace.gate[: len(act)])
    if training and config.dropout_rate > 0.0:
        with workspace.turn("draw"):
            _draw_keep(gate, config.dropout_rate, rng)
    act *= gate
    scale = _survivor_scale(act.dtype, config.dropout_rate, training)
    flat = act.reshape(batch.shape[0], -1)
    logits = _logits(flat, params.dense_weights) * scale + params.dense_bias
    return ForwardTrace(batch, gate, scale, flat, logits, softmax_output(logits), workspace)


def loss_and_grad(trace: ForwardTrace, labels: np.ndarray, params: ModelParams,
                  batch_size: Optional[int] = None, into: Optional[ModelParams] = None,
                  overwrite: bool = False) -> tuple[float, ModelParams]:
    """Cross-entropy and its exact gradients, summed over the traced samples
    and divided by *batch_size* (default: the number of traced samples, so
    the mean). With the size of a whole mini-batch, the results for its
    chunks add up to the mini-batch's loss and gradients.

    *labels* is one-hot, shape (n, 2). The loss is computed from the
    logits via log-sum-exp so confident mistakes stay finite. Gradients
    flow through the dense layer, the stored ReLU-and-dropout gate, and
    the convolution into new arrays, or into *into*'s: added in place, or
    written over them with *overwrite*, in the buffers and turns of the
    trace's workspace.

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
    d_dense = d_logits * trace.scale  # through the survivor scale on the logits
    if into is None:
        into, overwrite = params.astype(d_dense.dtype), True  # new arrays to write over
    workspace = trace.workspace
    # one sample's weight gradient is an outer product: as a (2, 1) @ (1, F) GEMM it
    # took 9.4-15.7 ms at side 300, as a broadcast multiply 2-4 ms, with the same bits
    product = np.multiply if n == 1 else np.matmul
    with workspace.turn("dense"):
        if overwrite:
            product(d_dense.T, trace.flat, out=into.dense_weights)
        else:
            # 256 KiB steps inside the column block: a 2-sample side-300 chunk added
            # its gradient so in 5.4 ms, in 4 MiB blocks in 8.5 ms, with the same bits
            cols = min(workspace.cols.shape[1], (256 << 10) // (N_CLASSES * workspace.cols.itemsize))
            for c in range(0, trace.flat.shape[1], cols):
                block = trace.flat[:, c : c + cols]
                into.dense_weights[:, c : c + cols] += product(
                    d_dense.T, block, out=workspace.cols[:, : block.shape[1]])

    # the activations are spent: their buffer takes the activation gradient, one gemv
    # per sample (16-sample desk chunk: 1.3 ms, one GEMM 2.4 ms; same bits at 1-16 samples)
    for g, row in zip(d_dense, trace.flat):
        np.matmul(g, params.dense_weights, out=row)
    d_pre = trace.flat
    d_pre *= trace.gate.reshape(n, -1)
    # (32, 10): dK in the first nine columns, the bias gradient in the last
    hw = d_pre.shape[1] // N_FILTERS
    d_conv = np.zeros((N_FILTERS, KERNEL_SIDE ** 2 + 1), dtype=d_pre.dtype)
    group = len(workspace.patches)
    for s in range(0, n, group):
        for product in np.matmul(d_pre[s : s + group].reshape(-1, N_FILTERS, hw),
                                 _patches(trace.batch[s : s + group], workspace).transpose(0, 2, 1)):
            d_conv += product  # in sample order, as one sum over the chunk adds
    with workspace.turn("tail"):
        for total, g in ((into.conv_kernels, d_conv[:, :-1].reshape(params.conv_kernels.shape)),
                         (into.conv_bias, d_conv[:, -1]), (into.dense_bias, d_logits.sum(axis=0))):
            total[...] = g if overwrite else total + g
    return loss, into


def batch_loss_and_grad(params: ModelParams, images: np.ndarray, labels: np.ndarray,
                        config: TrainConfig, rng: np.random.Generator,
                        index: Optional[np.ndarray] = None, *, into: Optional[ModelParams] = None,
                        lanes: Optional[_Lanes] = None) -> tuple[float, ModelParams]:
    """Training-mode loss and mean gradients of one mini-batch.

    The mini-batch is images[index] (default: every image), each chunk of
    lanes.step consecutive samples gathered into its lane's workspace;
    later chunks add their exact partial sums to the first's. Dropout masks
    are drawn chunk by chunk in sample order, which gives the bits of one
    whole-batch draw. The gradients go into *into*'s arrays or new ones.
    Chunks run on *lanes* (fit's, with fit's index) or, in a public call, on
    the caller, each conv output within CHUNK_BYTES; a public index follows
    numpy's rules, so one out of range raises IndexError; none, EmptyDataset.
    """
    if lanes is None:  # a public call: buffers for this call alone
        index = np.arange(len(images))[slice(None) if index is None else index]
        if len(index) == 0:
            raise EmptyDataset("cannot take a step on an empty mini-batch")
        lanes = _Lanes(params, images, len(index), CHUNK_BYTES, cores=1)
    n = len(index)
    parts = [slice(start, start + lanes.step) for start in range(0, n, lanes.step)]
    losses = [0.0] * len(parts)
    if into is None:  # the first chunk writes over it
        into = params.astype(np.result_type(params.dense_weights, images))

    def work(k: int, workspace: _Workspace) -> None:
        part = index[parts[k]]
        # the index is a permutation (fit's) or in range (a public call's), so "clip"
        # clips nothing; "raise" would buffer
        chunk = np.take(images, part, axis=0, out=workspace.chunk[: len(part)], mode="clip")
        losses[k], _ = loss_and_grad(  # each trace is dropped once its gradients exist
            forward(params, chunk, config, rng, training=True, workspace=workspace),
            labels[parts[k]], params, batch_size=n, into=into, overwrite=k == 0)

    lanes.run(len(parts), work)
    loss = 0.0
    for part_loss in losses:  # in chunk order, as one lane adds them
        loss += part_loss
    return loss, into


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float, *,
             out: Optional[ModelParams] = None) -> ModelParams:
    """p <- p - lr * g, elementwise, into new arrays or into *out*'s, which may be grads'."""
    if not 0 <= learning_rate < math.inf:
        raise ValueError("learning_rate must be a finite number >= 0")
    new = {}
    for name, p in params.named().items():
        g = grads.named()[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        step = np.multiply(g, learning_rate, out=None if out is None else out.named()[name])
        new[name] = np.subtract(p, step, out=step)  # the step's buffer takes the result
    return ModelParams(**new)


def predict(params: ModelParams, batch: np.ndarray, threshold: float = 0.5, *,
            cores: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode class labels and probabilities, in the dtype the model
    computes them in.

    A sample is called ransomware (1) when its class-1 probability strictly
    exceeds *threshold*; at the default 0.5 this is argmax with the exact
    tie resolved to class 0. Chunks run on two lanes where *cores* allow,
    each conv output within PREDICT_CHUNK_BYTES, a budget smaller than fit's;
    the pass starts its helper thread and joins it before it returns.
    """
    _check_batch(params, batch)
    n = batch.shape[0]
    probs = np.empty((n, N_CLASSES), np.result_type(params.dense_weights, batch))
    lanes = _Lanes(params, batch, n, PREDICT_CHUNK_BYTES, cores, training=False)

    def work(k: int, workspace: _Workspace) -> None:
        part = slice(k * lanes.step, (k + 1) * lanes.step)
        act = conv2d_same(batch[part], params.conv_kernels, params.conv_bias,
                          workspace=workspace)
        np.maximum(act, 0, out=act)  # ReLU
        logits = _logits(act.reshape(len(act), -1), params.dense_weights) + params.dense_bias
        probs[part] = softmax_output(logits)

    lanes.run(-(-n // lanes.step), work)
    labels = (probs[:, 1] > threshold).astype(np.int64)
    return labels, probs


def accuracy(params: ModelParams, dataset: Dataset, cores: Optional[int] = None) -> float:
    labels, _ = predict(params, dataset.images, cores=cores)
    return float((labels == dataset.labels).mean())


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: Optional[float]
    val_accuracy: Optional[float] = None


def fit(params: ModelParams, train: Dataset, config: TrainConfig,
        rng: np.random.Generator, val: Optional[Dataset] = None, score_train: bool = True,
        cores: Optional[int] = None) -> tuple[ModelParams, list[EpochStats]]:
    """Mini-batch SGD over shuffled epochs; the short final batch is kept.

    Deterministic for a given generator state: the same seed replays the
    same shuffles, dropout masks, and parameter trajectory bit for bit.
    Each mini-batch goes through batch_loss_and_grad, in chunks that bound its memory, on
    two lanes where *cores* allow, as do its accuracy passes; each starts and joins its helper.
    Steps write their models over their gradients in two private sets of
    arrays, never the caller's, which clients may share.
    Without *score_train* the per-epoch pass over the training set is
    skipped and train_accuracy is None; the weights do not change.
    """
    if len(train) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    if train.side != config.side:
        raise ShapeMismatch(f"dataset side {train.side} != config side {config.side}")
    labels = one_hot(train.labels).astype(params.dense_bias.dtype)
    history: list[EpochStats] = []
    lanes = _Lanes(params, train.images, min(config.batch_size, len(train)), CHUNK_BYTES, cores)
    # the lanes' buffers before the model pair: built after it, wire-300
    # peaked at 265-281 MiB RSS against 256-260 MiB (4 of 4 processes)
    pair = tuple(ModelParams(*map(np.empty_like, params.named().values())) for _ in range(2))
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        losses = []
        for start in range(0, len(train), config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = batch_loss_and_grad(params, train.images, labels[idx], config, rng,
                                              index=idx, into=pair[0], lanes=lanes)
            if not math.isfinite(loss):
                raise FedransomError(f"loss diverged to {loss} in epoch {epoch}")
            params, pair = sgd_step(params, grads, config.learning_rate, out=grads), pair[::-1]
            losses.append(loss)
        history.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            train_accuracy=accuracy(params, train, cores) if score_train else None,
            val_accuracy=accuracy(params, val, cores) if val is not None and len(val) else None,
        ))
    return params, history
