import struct

import numpy as np
import pytest
from helpers import params_equal, random_params

from fedransom import checkpoint, fedwire, nn
from fedransom.errors import CorruptCheckpoint, ShapeMismatch


def frwm_bytes(tensors) -> bytes:
    """A checkpoint of the (name, array) pairs, built field by field as
    README "File formats" lays it out."""
    out = [b"FRWM", struct.pack("<HH", 1, len(tensors))]
    for name, arr in tensors:
        encoded = name.encode("utf-8")
        out += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim),
                struct.pack(f"<{arr.ndim}I", *arr.shape), arr.astype("<f4").tobytes()]
    return b"".join(out)


def test_header_layout():
    blob = checkpoint.params_to_bytes(random_params(side=8, seed=0))
    # magic, version 1 LE, tensor count 4 LE
    assert blob[:8] == b"FRWM" + b"\x01\x00" + b"\x04\x00"


def test_byte_layout_matches_the_documented_format():
    params = random_params(side=8, seed=5)
    golden = frwm_bytes(list(params.named().items()))
    assert checkpoint.params_to_bytes(params) == golden
    again = checkpoint.params_from_bytes(golden)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(params.named().values(), again.named().values()))
    assert fedwire.encode_weight_blob(3, 7, params) == struct.pack("<II", 3, 7) + golden


def test_bytes_round_trip_is_bit_exact():
    for seed in range(20):
        params = random_params(side=8, seed=seed)
        again = checkpoint.params_from_bytes(checkpoint.params_to_bytes(params))
        assert params_equal(params, again)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(params.named().values(), again.named().values()))


def test_file_round_trip(tmp_path):
    params = random_params(side=12, seed=3)
    path = tmp_path / "model.frwm"
    checkpoint.save_params(params, path)
    assert params_equal(checkpoint.load_params(path), params)


def test_bad_magic_rejected():
    blob = checkpoint.params_to_bytes(random_params(side=8, seed=0))
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(b"WXYZ" + blob[4:])


def test_unsupported_version_rejected():
    blob = checkpoint.params_to_bytes(random_params(side=8, seed=0))
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(blob[:4] + b"\x02\x00" + blob[6:])


def test_truncation_rejected():
    blob = checkpoint.params_to_bytes(random_params(side=8, seed=1))
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(blob[:-3])


def test_trailing_garbage_rejected():
    blob = checkpoint.params_to_bytes(random_params(side=8, seed=1))
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(blob + b"\x00")


def test_wrong_tensor_names_rejected():
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(frwm_bytes([("foo", np.zeros(3, dtype=np.float32))]))


def test_inconsistent_shapes_rejected():
    params = random_params(side=8, seed=2)
    named = params.named()
    named["dense_weights"] = named["dense_weights"][:, :100]  # not 32 * side**2
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(frwm_bytes(list(named.items())))


def test_reordered_tensors_rejected():
    params = random_params(side=8, seed=2)
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(frwm_bytes(list(params.named().items())[::-1]))


def test_writer_rejects_a_shape_the_layout_cannot_describe():
    params = random_params(side=8, seed=2)
    wide = nn.ModelParams(np.zeros((32, 1, 5, 5), np.float32), params.conv_bias,
                          params.dense_weights, params.dense_bias)
    with pytest.raises(ShapeMismatch):
        checkpoint.params_to_bytes(wide)


def test_non_finite_values_rejected():
    params = random_params(side=8, seed=4)
    params.conv_bias[0] = np.nan
    with pytest.raises(CorruptCheckpoint):
        checkpoint.params_from_bytes(checkpoint.params_to_bytes(params))
