import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import shannon_entropy

from fedransom import corpus
from fedransom.corpus import (Manifest, ManifestEntry, build_corpus, read_manifest,
                              scan_tree, split, synth_benign, synth_ransomlike,
                              write_manifest)
from fedransom.data import from_images
from fedransom.errors import (CorruptManifest, EmptyDataset, EmptyInput, FedransomError,
                              ShapeMismatch, SizeTooSmall, TooFewSamples)
from fedransom.imaging import bytes_to_image


def test_generators_are_deterministic():
    assert synth_benign(3, 4096) == synth_benign(3, 4096)
    assert synth_ransomlike(3, 4096) == synth_ransomlike(3, 4096)
    assert synth_benign(3, 4096) != synth_benign(4, 4096)


def test_generators_honor_requested_size():
    assert len(synth_benign(0, 1024)) == 1024
    assert len(synth_ransomlike(0, 1024)) == 1024
    assert len(synth_benign(1, 70_001)) == 70_001


def test_generators_reject_tiny_sizes():
    with pytest.raises(SizeTooSmall):
        synth_benign(0, 1023)
    with pytest.raises(SizeTooSmall):
        synth_ransomlike(0, 512)


def test_entropy_separates_the_classes():
    benign = [shannon_entropy(synth_benign(s, 65_536)) for s in range(20)]
    ransom = [shannon_entropy(synth_ransomlike(s, 65_536)) for s in range(20)]
    assert max(benign) < 6.0
    assert min(ransom) > 7.0
    assert np.mean(ransom) - np.mean(benign) >= 1.0


def test_ransomlike_payload_dominates_the_windows():
    for seed in range(5):
        blob = synth_ransomlike(seed, 65_536)
        entropies = np.array([shannon_entropy(blob[start : start + 4096])
                              for start in range(0, len(blob), 4096)])
        assert (entropies > 7.5).mean() >= 0.70


def test_benign_has_a_zero_tail():
    blob = synth_benign(9, 10_000)
    tail = blob[-int(10_000 * 0.2):]
    assert set(tail) == {0}


def test_build_corpus_counts_and_balance(tmp_path):
    manifest = build_corpus(3, (1024, 2048), seed=7, out_dir=tmp_path)
    assert len(manifest) == 6
    labels = manifest.labels()
    assert (labels == 0).sum() == 3
    assert (labels == 1).sum() == 3
    for entry in manifest.entries:
        blob = (tmp_path / entry.path).read_bytes()
        assert len(blob) == entry.size


def test_build_corpus_single_pair(tmp_path):
    manifest = build_corpus(1, (1024, 1024), seed=0, out_dir=tmp_path)
    assert len(manifest) == 2


def test_rebuild_reproduces_digests(tmp_path):
    first = build_corpus(4, (1024, 4096), seed=11, out_dir=tmp_path / "a")
    second = build_corpus(4, (1024, 4096), seed=11, out_dir=tmp_path / "b")
    assert [e.sha256 for e in first.entries] == [e.sha256 for e in second.entries]
    different = build_corpus(4, (1024, 4096), seed=12, out_dir=tmp_path / "c")
    assert [e.sha256 for e in first.entries] != [e.sha256 for e in different.entries]


def test_manifest_file_round_trip(tmp_path):
    manifest = build_corpus(2, (1024, 2048), seed=1, out_dir=tmp_path)
    path = tmp_path / "manifest.jsonl"
    write_manifest(manifest, path)
    again = read_manifest(path)
    assert again.entries == manifest.entries
    assert again.base_dir == tmp_path


_GOOD_LINE = '{"path": "a.bin", "label": 0, "size": 1024, "sha256": ""}'


@pytest.mark.parametrize("bad_line, cause", [
    ('{"path": "b.bin", "label": 0, "size": 1024', "invalid JSON"),
    ('["b.bin", 0, 1024, ""]', "expected a JSON object"),
    ('{"path": "b.bin", "label": 0, "sha256": ""}', "missing key 'size'"),
    ('{"path": "b.bin", "label": "1", "size": 1024, "sha256": ""}', "label '1' is not an integer"),
    ('{"path": "b.bin", "label": 0, "size": 10.5, "sha256": ""}', "size 10.5 is not an integer"),
    ('{"path": null, "label": 0, "size": 1024, "sha256": ""}', "path None is not a string"),
], ids=["invalid-json", "not-an-object", "missing-key", "string-label", "float-size",
        "null-path"])
def test_read_manifest_names_the_file_and_line_of_a_bad_entry(tmp_path, bad_line, cause):
    path = tmp_path / "manifest.jsonl"
    path.write_text(f"{_GOOD_LINE}\n\n{bad_line}\n")
    with pytest.raises(CorruptManifest) as exc:
        read_manifest(path)
    assert str(exc.value).startswith(f"{path}:3: {cause}")


def test_manifest_rejects_duplicate_paths_and_bad_labels():
    entry = ManifestEntry("a.bin", 0, 1024, "")
    with pytest.raises(CorruptManifest, match="duplicate paths"):
        Manifest((entry, entry), Path("."))
    with pytest.raises(CorruptManifest, match="bad label 2 for b.bin"):
        Manifest((entry, ManifestEntry("b.bin", 2, 1024, "")), Path("."))
    # still a ValueError, as it was before the typed error
    with pytest.raises(ValueError):
        Manifest((entry, entry), Path("."))


def test_load_dataset_rejects_a_file_shorter_than_its_manifest_size(tmp_path):
    (tmp_path / "short.bin").write_bytes(b"\x80" * 5000)
    manifest = Manifest((ManifestEntry("short.bin", 0, 9999, ""),), tmp_path)
    with pytest.raises(CorruptManifest) as exc:
        corpus.load_dataset(manifest, side=16)
    assert str(exc.value) == (
        f"{tmp_path / 'short.bin'} is 5000 bytes, its manifest entry says 9999")


def _fake_manifest(n_per_class):
    entries = []
    for label in (0, 1):
        for i in range(n_per_class):
            entries.append(ManifestEntry(
                path=f"{label}/{i}.bin", label=label, size=1024, sha256=f"{label}-{i}"))
    return Manifest(tuple(entries), base_dir=Path("."))


def test_split_of_balanced_600_is_480_60_60():
    train, val, test = split(_fake_manifest(300), 5)
    assert (len(train), len(val), len(test)) == (480, 60, 60)
    for part in (train, val, test):
        labels = part.labels()
        assert (labels == 0).sum() == (labels == 1).sum()


def test_split_of_balanced_6000_is_4800_600_600():
    train, val, test = split(_fake_manifest(3000), 5)
    assert (len(train), len(val), len(test)) == (4800, 600, 600)


def test_split_partition_laws():
    manifest = _fake_manifest(40)
    train, val, test = split(manifest, 9)
    seen = [e.path for part in (train, val, test) for e in part.entries]
    assert len(seen) == len(set(seen)) == len(manifest)
    assert set(seen) == {e.path for e in manifest.entries}


def test_split_is_deterministic():
    manifest = _fake_manifest(25)
    a = split(manifest, 3)
    b = split(manifest, 3)
    c = split(manifest, 4)
    assert [p.entries for p in a] == [p.entries for p in b]
    assert [p.entries for p in a] != [p.entries for p in c]


def test_split_needs_at_least_ten_samples():
    with pytest.raises(TooFewSamples):
        split(_fake_manifest(4), 0)


def test_load_dataset_preserves_order_and_labels(tmp_path):
    manifest = build_corpus(3, (1024, 2048), seed=2, out_dir=tmp_path)
    ds = corpus.load_dataset(manifest, side=16)
    assert ds.images.shape == (6, 1, 16, 16)
    assert ds.labels.tolist() == manifest.labels().tolist()


def test_load_dataset_of_an_empty_manifest_is_an_empty_dataset(tmp_path):
    (tmp_path / "manifest.jsonl").write_text("\n")
    ds = corpus.load_dataset(read_manifest(tmp_path / "manifest.jsonl"), side=16)
    assert len(ds) == 0 and ds.side == 16
    assert ds.images.shape == (0, 1, 16, 16) and ds.images.dtype == np.float32
    assert ds.labels.shape == (0,) and ds.labels.dtype == np.int64


def test_from_images_of_no_images_raises_a_typed_error():
    # no first image gives the side; load_dataset answers an empty manifest itself
    with pytest.raises(EmptyDataset, match="no images"):
        from_images([], [])


def test_from_images_of_mixed_sides_raises_a_typed_error():
    with pytest.raises(ShapeMismatch, match="mixed sides"):
        from_images([bytes_to_image(b"\x01", 8), bytes_to_image(b"\x01", 9)], [0, 1])


def test_load_dataset_images_long_and_short_files_as_whole_reads(tmp_path):
    side = 16
    blobs = {"long.bin": np.random.default_rng(5).bytes(3 * side * side + 7),
             "short.bin": b"\x80" * 100}
    entries = []
    for i, (name, blob) in enumerate(blobs.items()):
        (tmp_path / name).write_bytes(blob)
        entries.append(ManifestEntry(name, i % 2, len(blob), ""))
    ds = corpus.load_dataset(Manifest(tuple(entries), tmp_path), side)
    for image, blob in zip(ds.images, blobs.values()):
        assert (image[0] == bytes_to_image(blob, side)).all()


def test_load_dataset_memory_at_reference_side(tmp_path):
    # 64 side-300 files: the per-file images and their stack are two copies
    # of the dataset's bytes; a float32 copy of the stack made it 3.00x
    side, rng, entries = 300, np.random.default_rng(6), []
    for i in range(64):
        (tmp_path / f"{i}.bin").write_bytes(rng.bytes(side * side))
        entries.append(ManifestEntry(f"{i}.bin", i % 2, side * side, ""))
    tracemalloc.start()
    try:
        ds = corpus.load_dataset(Manifest(tuple(entries), tmp_path), side)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.images.dtype == np.float32
    assert peak <= 2.25 * ds.images.nbytes, f"the load peaked at {peak / ds.images.nbytes:.2f}x"


def test_load_dataset_rejects_an_empty_file(tmp_path):
    (tmp_path / "empty.bin").write_bytes(b"")
    manifest = Manifest((ManifestEntry("empty.bin", 0, 0, ""),), tmp_path)
    with pytest.raises(EmptyInput):
        corpus.load_dataset(manifest, side=16)


def test_scan_tree_infers_labels_from_directories(tmp_path):
    (tmp_path / "goodware").mkdir()
    (tmp_path / "ransom-2024").mkdir()
    (tmp_path / "goodware" / "a.bin").write_bytes(b"x" * 100)
    (tmp_path / "ransom-2024" / "b.bin").write_bytes(b"y" * 100)
    manifest = scan_tree(tmp_path)
    by_path = {e.path: e.label for e in manifest.entries}
    assert by_path["goodware/a.bin"] == 0
    assert by_path["ransom-2024/b.bin"] == 1


def test_scan_tree_rejects_unlabellable_files(tmp_path):
    (tmp_path / "stuff").mkdir()
    (tmp_path / "stuff" / "a.bin").write_bytes(b"x")
    with pytest.raises(ValueError):
        scan_tree(tmp_path)


def test_scan_tree_names_an_unlabellable_file_with_a_typed_error(tmp_path):
    (tmp_path / "stuff").mkdir()
    (tmp_path / "stuff" / "a.bin").write_bytes(b"x")
    with pytest.raises(FedransomError, match="a.bin"):
        scan_tree(tmp_path)


def test_scan_tree_hashes_a_large_file_in_blocks(tmp_path):
    blob = np.random.default_rng(0).bytes(9 << 20)
    (tmp_path / "ransom").mkdir()
    (tmp_path / "ransom" / "big.bin").write_bytes(blob)
    tracemalloc.start()
    try:
        (entry,) = scan_tree(tmp_path).entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20
    assert entry.size == len(blob)
    assert entry.sha256 == hashlib.sha256(blob).hexdigest()
