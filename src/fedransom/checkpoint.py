"""Bit-exact binary weight files.

Layout, all little-endian:

    magic   4 bytes  "FRWM"
    version u16      1
    count   u16      4
    per tensor, in ModelParams order (conv_kernels, conv_bias,
    dense_weights, dense_bias):
        name_len u16, name UTF-8
        rank     u8
        dims     u32 * rank
        payload  float32 * prod(dims), raw little-endian

Everything except the payloads is fixed once the image side is known. The
writer and the reader share one template of per-tensor heads for each
side. One writer, param_buffers, lists the heads and the tensors unjoined,
for params_to_bytes to join, save_params to write and fedwire to send. One
parser, read_params, reads bytes, files and sockets alike: its caller works
the side out (from the blob's length, the file's size or the agreed wire
frame) and hands it a function that fills each buffer in turn, so every
payload lands straight in its tensor.

load(save(p)) reproduces p bit for bit.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import CorruptCheckpoint, ShapeMismatch
from .imaging import MIN_SIDE
from .nn import KERNEL_SIDE, N_CLASSES, N_FILTERS, ModelParams

MAGIC = b"FRWM"
VERSION = 1
_NAMES = ("conv_kernels", "conv_bias", "dense_weights", "dense_bias")
_PIXEL_BYTES = 4 * N_CLASSES * N_FILTERS  # dense weights per image pixel


def _shapes(side: int) -> tuple[tuple[int, ...], ...]:
    return ((N_FILTERS, 1, KERNEL_SIDE, KERNEL_SIDE), (N_FILTERS,),
            (N_CLASSES, N_FILTERS * side * side), (N_CLASSES,))


def _heads(side: int) -> list[bytes]:
    """The bytes before each payload; the first head starts the file."""
    heads = [struct.pack(f"<H{len(name)}sB{len(shape)}I", len(name), name.encode(),
                         len(shape), *shape)
             for name, shape in zip(_NAMES, _shapes(side))]
    heads[0] = MAGIC + struct.pack("<HH", VERSION, len(_NAMES)) + heads[0]
    return heads


def byte_length(side: int) -> int:
    """The size of a side-*side* model's checkpoint."""
    return sum(map(len, _heads(side))) + 4 * sum(map(math.prod, _shapes(side)))


def param_buffers(params: ModelParams) -> list:
    """The checkpoint of *params*: each head, then its tensor as "<f4", a float32 tensor itself."""
    chunks = []
    side = params.side
    for head, shape, arr in zip(_heads(side), _shapes(side), params.named().values()):
        if arr.shape != shape:
            raise ShapeMismatch(f"{arr.shape} does not fit a side-{side} model's {shape}")
        chunks += (head, np.ascontiguousarray(arr, dtype="<f4"))
    return chunks


def params_to_bytes(params: ModelParams) -> bytes:
    """The checkpoint of *params*, made in one join."""
    return b"".join(param_buffers(params))


def _side(magic: bytes, n_bytes: int) -> int:
    """The side of the model whose checkpoint starts with *magic* and has
    *n_bytes* bytes."""
    if magic != MAGIC:
        raise CorruptCheckpoint(f"bad magic {bytes(magic)!r}")
    # byte_length(0) counts the bytes that do not grow with the side
    side = math.isqrt(max(n_bytes - byte_length(0), 0) // _PIXEL_BYTES)
    if side < MIN_SIDE or byte_length(side) != n_bytes:
        raise CorruptCheckpoint(f"{n_bytes} bytes is the length of no model of side >= {MIN_SIDE}")
    return side


def read_params(fill, side: int) -> ModelParams:
    """The side-*side* model whose checkpoint *fill* yields, in order.

    fill(view) fills the whole memoryview *view* or raises. Each head is
    read into a buffer of its own size and compared with the template; each
    payload is read straight into its tensor, so the tensors are the one
    copy made of the bytes.
    """
    arrays = []
    for name, head, shape in zip(_NAMES, _heads(side), _shapes(side)):
        got = bytearray(len(head))
        fill(memoryview(got))
        if got != head:
            raise CorruptCheckpoint(f"the head of {name} differs from a side-{side} model's")
        arr = np.empty(shape, "<f4")
        fill(memoryview(arr).cast("B"))
        arrays.append(arr)
    # checked only once all four are filled: a check's freed temporary left
    # between the tensors in the heap raised wire-300's peak RSS by ~60 MiB
    for name, arr in zip(_NAMES, arrays):
        if not np.isfinite(arr).all():
            raise CorruptCheckpoint(f"non-finite values in {name}")
    return ModelParams(*arrays)


def params_from_bytes(blob: bytes) -> ModelParams:
    """The model in *blob*, any bytes-like object."""
    blob = memoryview(blob).cast("B")
    side = _side(blob[:4], len(blob))
    offset = 0

    def fill(view: memoryview) -> None:
        nonlocal offset
        view[:] = blob[offset : offset + len(view)]
        offset += len(view)

    return read_params(fill, side)


def save_params(params: ModelParams, path) -> None:
    """Write *params* to *path*, unless a tensor is not finite in float32, as load_params asks."""
    buffers = param_buffers(params)
    for name, arr in zip(_NAMES, buffers[1::2]):
        if not np.isfinite(arr).all():
            raise CorruptCheckpoint(f"non-finite values in {name}")
    with open(path, "wb") as fh:
        fh.writelines(buffers)


def load_params(path) -> ModelParams:
    """The model in the file at *path*. The magic and the file's size are
    checked before any payload is read."""
    with open(path, "rb") as fh:
        side = _side(fh.read(4), os.fstat(fh.fileno()).st_size)
        fh.seek(0)

        def fill(view: memoryview) -> None:
            if fh.readinto(view) != len(view):
                raise CorruptCheckpoint(f"{path} ended before its last tensor")

        return read_params(fill, side)
