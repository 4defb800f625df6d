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
side, and the reader works the side out from the blob's length.

load(save(p)) reproduces p bit for bit.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

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


def _length(side: int) -> int:
    return sum(map(len, _heads(side))) + 4 * sum(map(math.prod, _shapes(side)))


def params_to_bytes(params: ModelParams, prefix: bytes = b"") -> bytes:
    """*prefix*, then the checkpoint of *params*, made in one join."""
    chunks = [prefix]
    side = params.side
    for head, shape, arr in zip(_heads(side), _shapes(side), params.named().values()):
        if arr.shape != shape:
            raise ShapeMismatch(f"{arr.shape} does not fit a side-{side} model's {shape}")
        chunks += (head, np.ascontiguousarray(arr, dtype="<f4"))  # join reads the buffer
    return b"".join(chunks)


def params_from_bytes(blob: bytes) -> ModelParams:
    """The model in *blob*, any bytes-like object; each tensor is the one
    copy made of its payload."""
    blob = memoryview(blob)
    if blob[:4] != MAGIC:
        raise CorruptCheckpoint(f"bad magic {bytes(blob[:4])!r}")
    # _length(0) counts the bytes that do not grow with the side
    side = math.isqrt(max(len(blob) - _length(0), 0) // _PIXEL_BYTES)
    if side < MIN_SIDE or _length(side) != len(blob):
        raise CorruptCheckpoint(f"{len(blob)} bytes is the length of no model of side >= {MIN_SIDE}")
    arrays, offset = [], 0
    for name, head, shape in zip(_NAMES, _heads(side), _shapes(side)):
        if blob[offset : offset + len(head)] != head:
            raise CorruptCheckpoint(f"the head of {name} differs from a side-{side} model's")
        offset += len(head)
        arr = np.frombuffer(blob, "<f4", math.prod(shape), offset).astype(np.float32)
        arrays.append(arr.reshape(shape))
        offset += arr.nbytes
    # checked only once all four are copied: a check's freed temporary left
    # between the copies in the heap raised wire-300's peak RSS by ~60 MiB
    for name, arr in zip(_NAMES, arrays):
        if not np.isfinite(arr).all():
            raise CorruptCheckpoint(f"non-finite values in {name}")
    return ModelParams(*arrays)


def save_params(params: ModelParams, path) -> None:
    Path(path).write_bytes(params_to_bytes(params))


def load_params(path) -> ModelParams:
    return params_from_bytes(Path(path).read_bytes())
