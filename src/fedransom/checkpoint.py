"""Bit-exact binary weight files.

Layout, all little-endian:

    magic   4 bytes  "FRWM"
    version u16      1
    count   u16      number of tensors
    per tensor:
        name_len u16, name UTF-8
        rank     u8
        dims     u32 * rank
        payload  float32 * prod(dims), raw little-endian

load(save(p)) reproduces p bit for bit.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpoint
from .nn import ModelParams, validate_params

MAGIC = b"FRWM"
VERSION = 1

_HEAD = struct.Struct("<HH")
_NAME_LEN = struct.Struct("<H")
_RANK = struct.Struct("<B")


def write_tensors(named: dict[str, np.ndarray], prefix: bytes = b"") -> bytes:
    """*prefix*, then the checkpoint of *named*, made in one join."""
    chunks = [prefix, MAGIC, _HEAD.pack(VERSION, len(named))]
    for name, arr in named.items():
        encoded = name.encode("utf-8")
        chunks.append(_NAME_LEN.pack(len(encoded)))
        chunks.append(encoded)
        chunks.append(_RANK.pack(arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4"))  # join reads the buffer
    return b"".join(chunks)


def read_tensors(blob: bytes) -> dict[str, np.ndarray]:
    """The named tensors of *blob*, any bytes-like object; each tensor is
    the one copy made of its payload."""
    blob = memoryview(blob)
    if blob[:4] != MAGIC:
        raise CorruptCheckpoint(f"bad magic {bytes(blob[:4])!r}")
    try:
        version, count = _HEAD.unpack_from(blob, 4)
        if version != VERSION:
            raise CorruptCheckpoint(f"unsupported version {version}")
        offset = 4 + _HEAD.size
        named: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = _NAME_LEN.unpack_from(blob, offset)
            offset += _NAME_LEN.size
            if len(blob) < offset + name_len:
                raise CorruptCheckpoint("truncated tensor name")
            name = str(blob[offset : offset + name_len], "utf-8")
            offset += name_len
            (rank,) = _RANK.unpack_from(blob, offset)
            offset += _RANK.size
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            size = int(np.prod(dims, dtype=np.int64)) if rank else 1
            payload = blob[offset : offset + 4 * size]
            if len(payload) != 4 * size:
                raise CorruptCheckpoint(f"truncated payload for {name!r}")
            offset += 4 * size
            named[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(
                np.float32, copy=True)
        if offset != len(blob):
            raise CorruptCheckpoint(f"{len(blob) - offset} trailing bytes")
        return named
    except struct.error as exc:
        raise CorruptCheckpoint(f"truncated checkpoint: {exc}") from exc


def params_to_bytes(params: ModelParams) -> bytes:
    return write_tensors(params.named())


def params_from_bytes(blob: bytes) -> ModelParams:
    named = read_tensors(blob)
    expected = ("conv_kernels", "conv_bias", "dense_weights", "dense_bias")
    if set(named) != set(expected):
        raise CorruptCheckpoint(f"expected tensors {expected}, found {sorted(named)}")
    try:
        return validate_params(ModelParams(**named))
    except Exception as exc:
        raise CorruptCheckpoint(f"checkpoint does not describe a valid model: {exc}") from exc


def save_params(params: ModelParams, path) -> None:
    Path(path).write_bytes(params_to_bytes(params))


def load_params(path) -> ModelParams:
    return params_from_bytes(Path(path).read_bytes())
