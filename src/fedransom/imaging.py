"""Turn raw binaries into grayscale images.

Bytes map one per pixel, row major, scaled from 0..255 into [0, 1].
Inputs shorter than side*side are zero padded; longer inputs are
truncated. The mapping is deterministic: same bytes, same picture.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput, InvalidSide

MIN_SIDE = 8
# the largest side whose weight frame, 8 + checkpoint.byte_length(side) bytes,
# fits fedwire.MAX_PAYLOAD: a larger model could train but never federate
MAX_SIDE = 2896


def bytes_to_image(data: bytes, side: int) -> np.ndarray:
    """The first side*side bytes of *data* as a read-only (side, side) float32
    grid of pixel intensities in [0, 1]."""
    if len(data) == 0:
        raise EmptyInput("cannot image an empty byte sequence")
    if side < MIN_SIDE:
        raise InvalidSide(f"side must be at least {MIN_SIDE}, got {side}")
    n = side * side
    raw = np.frombuffer(data, dtype=np.uint8, count=min(len(data), n))
    pixels = np.zeros(n, dtype=np.float32)
    pixels[: raw.size] = raw.astype(np.float32) / np.float32(255.0)
    pixels = pixels.reshape(side, side)
    pixels.setflags(write=False)
    return pixels
