"""Labeled corpora: synthetic binaries, manifests, and the 80/10/10 split.

No real malware ships with this package. The generators reproduce the
structural signal that separates the classes: benign-like files are
repetitive and low entropy (header stamps, a skewed 64-symbol code
section, a zero tail), ransomware-like files are dominated by a
uniform-random "packed payload" section with high entropy throughout.
A loader for user-supplied directories covers the real-data case.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Dataset, from_images
from .errors import CorruptManifest, InvalidSplitSpec, SizeTooSmall, TooFewSamples
from .imaging import bytes_to_image

MIN_FILE_SIZE = 1024
DEFAULT_SIZE_RANGE = (4096, 262144)

# benign layout
_STAMP_LEN = 16
_BENIGN_STAMP_REGION = 2048
_BENIGN_TAIL_FRACTION = 0.22
_ALPHABET_SIZE = 64
_SYMBOL_DECAY = 0.93
_MOTIF_COUNT = 12
_MOTIF_LEN = 8

# ransomware-like layout
_STUB_LEN = 256

_BENIGN_DIR_HINTS = ("benign", "normal", "goodware", "clean", "negative")
_RANSOM_DIR_HINTS = ("ransom", "malware", "malicious", "packed", "positive")


@dataclass(frozen=True)
class ManifestEntry:
    path: str  # relative to the manifest's base_dir
    label: int
    size: int
    sha256: str


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    base_dir: Path

    def __post_init__(self) -> None:
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise CorruptManifest("duplicate paths in manifest")
        for e in self.entries:
            if e.label not in (0, 1):
                raise CorruptManifest(f"bad label {e.label} for {e.path}")

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> np.ndarray:
        return np.array([e.label for e in self.entries], dtype=np.int64)

    def subset(self, indices: Iterable[int]) -> "Manifest":
        return Manifest(tuple(self.entries[i] for i in indices), self.base_dir)


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)  # train, val, test
    seed: int = 0

    def __post_init__(self) -> None:
        if any(f <= 0 for f in self.fractions):
            raise InvalidSplitSpec(f"fractions must be positive, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise InvalidSplitSpec(f"fractions must sum to 1, got {self.fractions}")


def _file_rng(seed: int, label: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(label, index)))


def synth_benign(seed, size_bytes: int) -> bytes:
    """A deterministic benign-like binary: stamps, skewed code, zero tail."""
    if size_bytes < MIN_FILE_SIZE:
        raise SizeTooSmall(f"size must be at least {MIN_FILE_SIZE} bytes, got {size_bytes}")
    rng = np.random.default_rng(seed)

    stamp = rng.integers(0, 256, _STAMP_LEN, dtype=np.uint8)
    head_len = min(_BENIGN_STAMP_REGION, size_bytes // 4)
    head = np.tile(stamp, head_len // _STAMP_LEN + 1)[:head_len]

    tail_len = int(size_bytes * _BENIGN_TAIL_FRACTION)
    code_len = size_bytes - head_len - tail_len

    alphabet = rng.choice(256, _ALPHABET_SIZE, replace=False).astype(np.uint8)
    weights = _SYMBOL_DECAY ** np.arange(_ALPHABET_SIZE)
    weights /= weights.sum()
    motifs = rng.choice(alphabet, (_MOTIF_COUNT, _MOTIF_LEN), p=weights)
    picks = rng.integers(0, _MOTIF_COUNT, code_len // _MOTIF_LEN + 1)
    code = motifs[picks].reshape(-1)[:code_len]

    out = np.concatenate([head, code, np.zeros(tail_len, dtype=np.uint8)])
    return out.tobytes()


def synth_ransomlike(seed, size_bytes: int) -> bytes:
    """A deterministic packed-looking binary: small stub, then uniform noise."""
    if size_bytes < MIN_FILE_SIZE:
        raise SizeTooSmall(f"size must be at least {MIN_FILE_SIZE} bytes, got {size_bytes}")
    rng = np.random.default_rng(seed)
    stamp = rng.integers(0, 256, _STAMP_LEN, dtype=np.uint8)
    stub = np.tile(stamp, _STUB_LEN // _STAMP_LEN)
    payload = rng.integers(0, 256, size_bytes - _STUB_LEN, dtype=np.uint8)
    return np.concatenate([stub, payload]).tobytes()


def build_corpus(n_per_class: int, size_range: tuple[int, int], seed: int,
                 out_dir) -> Manifest:
    """Write n benign plus n ransomware-like files and return their manifest.

    Every file gets its own derived generator, so rebuilding with the same
    seed reproduces identical bytes and digests.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    lo, hi = size_range
    if lo < MIN_FILE_SIZE or hi < lo:
        raise SizeTooSmall(f"size range must satisfy {MIN_FILE_SIZE} <= lo <= hi, got {size_range}")
    out_dir = Path(out_dir)
    entries = []
    for label, (subdir, synth) in enumerate(
            (("benign", synth_benign), ("ransom", synth_ransomlike))):
        (out_dir / subdir).mkdir(parents=True, exist_ok=True)
        for index in range(n_per_class):
            rng = _file_rng(seed, label, index)
            size = int(rng.integers(lo, hi + 1))
            blob = synth(rng, size)
            rel = f"{subdir}/{subdir}-{index:05d}.bin"
            (out_dir / rel).write_bytes(blob)
            entries.append(ManifestEntry(
                path=rel, label=label, size=size,
                sha256=hashlib.sha256(blob).hexdigest(),
            ))
    return Manifest(tuple(entries), out_dir)


def write_manifest(manifest: Manifest, path) -> None:
    """One JSON object per line: {path, label, size, sha256}."""
    with Path(path).open("w") as fh:
        for e in manifest.entries:
            fh.write(json.dumps(
                {"path": e.path, "label": e.label, "size": e.size, "sha256": e.sha256}) + "\n")


def read_manifest(path) -> Manifest:
    """The manifest at *path*; a line that is not one well-formed entry
    raises CorruptManifest naming the file and the 1-based line."""
    path = Path(path)
    entries = []
    with path.open() as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                entries.append(_parse_entry(line, f"{path}:{number}"))
    return Manifest(tuple(entries), path.parent)


def _parse_entry(line: str, where: str) -> ManifestEntry:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptManifest(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptManifest(f"{where}: expected a JSON object")
    for key in ("path", "label", "size", "sha256"):
        if key not in doc:
            raise CorruptManifest(f"{where}: missing key {key!r}")
    if not isinstance(doc["path"], str):
        raise CorruptManifest(f"{where}: path {doc['path']!r} is not a string")
    for key in ("label", "size"):
        if type(doc[key]) is not int:
            raise CorruptManifest(f"{where}: {key} {doc[key]!r} is not an integer")
    return ManifestEntry(doc["path"], doc["label"], doc["size"], doc["sha256"])


def split_paths(manifest_path) -> tuple[Path, Path, Path]:
    """Where the train/val/test manifests live, next to the base manifest."""
    base = Path(manifest_path)
    stem = base.name[: -len(".jsonl")] if base.name.endswith(".jsonl") else base.name
    return tuple(base.parent / f"{stem}.{part}.jsonl" for part in ("train", "val", "test"))


def split(manifest: Manifest, spec: SplitSpec) -> tuple[Manifest, Manifest, Manifest]:
    """Stratified train/val/test split; per-class rounding, remainder to train."""
    if len(manifest) < 10:
        raise TooFewSamples(f"need at least 10 samples to split, got {len(manifest)}")
    rng = np.random.default_rng(spec.seed)
    labels = manifest.labels()
    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == label)
        shuffled = idx[rng.permutation(len(idx))]
        n_val = round(spec.fractions[1] * len(idx))
        n_test = round(spec.fractions[2] * len(idx))
        buckets[1].extend(shuffled[:n_val].tolist())
        buckets[2].extend(shuffled[n_val : n_val + n_test].tolist())
        buckets[0].extend(shuffled[n_val + n_test :].tolist())
    return tuple(manifest.subset(sorted(b)) for b in buckets)


def load_dataset(manifest: Manifest, side: int) -> Dataset:
    """Image every file in manifest order at the given side.

    Only the first side*side bytes of a file are read: the image uses no more.
    A file whose size differs from its entry's raises CorruptManifest; the
    sha256 is not checked, as that would read every byte. An empty manifest
    gives an empty dataset.
    """
    images = []
    for e in manifest.entries:
        file = manifest.base_dir / e.path
        with file.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != e.size:
                raise CorruptManifest(f"{file} is {size} bytes, its manifest entry says {e.size}")
            images.append(bytes_to_image(fh.read(side * side), side))
    if not images:  # from_images takes the side from its first image
        return Dataset(np.empty((0, 1, side, side), np.float32), np.empty(0, np.int64))
    return from_images(images, [e.label for e in manifest.entries])


def scan_tree(root) -> Manifest:
    """Build a manifest from a user-supplied directory tree.

    The label comes from the nearest ancestor directory whose name contains
    a benign or ransomware hint (for example samples/goodware/x.exe is
    label 0, samples/ransom-2024/y.bin is label 1); a file under no such
    directory raises CorruptManifest. Files are hashed 1 MiB at a time.
    """
    root = Path(root)
    entries = []
    block = memoryview(bytearray(1 << 20))
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        label = _label_from_path(path.relative_to(root))
        if label is None:
            raise CorruptManifest(f"cannot infer a label from the directories of {path}")
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while n := fh.readinto(block):
                digest.update(block[:n])
        entries.append(ManifestEntry(str(path.relative_to(root)), label, path.stat().st_size,
                                     digest.hexdigest()))
    return Manifest(tuple(entries), root)


def _label_from_path(rel: Path):
    for part in reversed(rel.parent.parts):
        name = part.lower()
        if any(h in name for h in _RANSOM_DIR_HINTS):
            return 1
        if any(h in name for h in _BENIGN_DIR_HINTS):
            return 0
    return None
