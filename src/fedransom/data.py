"""Packed image datasets as fed to the classifier."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, ShapeMismatch


@dataclass(frozen=True)
class Dataset:
    """A batch-ready stack of labeled grayscale images.

    images: (n, 1, side, side) float32 with values in [0, 1]
    labels: (n,) int64 with values in {0 normal, 1 ransomware}
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ShapeMismatch(f"expected (n, 1, side, side) images, got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeMismatch("one label per image required")
        if len(self.labels) and not np.isin(self.labels, (0, 1)).all():
            raise ShapeMismatch("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def side(self) -> int:
        return self.images.shape[2]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.images[idx], self.labels[idx])


def from_images(images: Sequence[np.ndarray], labels: Sequence[int]) -> Dataset:
    """Stack (side, side) images, as imaging.bytes_to_image makes them, all of one side."""
    if len(images) != len(labels):
        raise ShapeMismatch("one label per image required")
    if not images:
        raise EmptyDataset("cannot stack a dataset from no images")
    side = len(images[0])
    if any(img.shape != (side, side) for img in images):
        raise ShapeMismatch("images of mixed sides")
    stack = np.stack(images)[:, None, :, :]
    return Dataset(stack.astype(np.float32, copy=False), np.asarray(labels, dtype=np.int64))


def one_hot(labels: np.ndarray, n_classes: int = 2) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), dtype=np.float32)
    out[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)] = 1.0
    return out
