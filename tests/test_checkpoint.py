import struct
import tracemalloc

import numpy as np
import pytest
from helpers import params_equal, random_params
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_params_writes_the_bytes_of_params_to_bytes(tmp_path, dtype):
    params = random_params(side=12, seed=4, dtype=dtype)
    path = tmp_path / "model.frwm"
    checkpoint.save_params(params, path)
    assert path.read_bytes() == checkpoint.params_to_bytes(params)


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


@pytest.mark.parametrize("dtype, value", [(np.float32, np.nan), (np.float64, 1e39)],
                         ids=["nan", "past-float32"])
def test_save_params_refuses_a_model_load_params_would_reject(tmp_path, dtype, value):
    path = tmp_path / "model.frwm"
    path.write_bytes(b"an earlier file")
    params = random_params(side=8, seed=4, dtype=dtype)
    params.dense_weights[1, 5] = value
    with pytest.raises(CorruptCheckpoint, match="non-finite values in dense_weights"):
        checkpoint.save_params(params, path)
    assert path.read_bytes() == b"an earlier file"


@pytest.mark.parametrize("head", [b"", b"FRWM"], ids=["zeros", "magic"])
def test_load_params_rejects_a_huge_file_before_reading_it(tmp_path, head):
    path = tmp_path / "big.bin"
    with path.open("wb") as fh:
        fh.write(head)
        fh.truncate(400 * 10**6)  # sparse: no block of it is written
    tracemalloc.start()
    try:
        with pytest.raises(CorruptCheckpoint):
            checkpoint.load_params(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


_SIDE_8 = checkpoint.params_to_bytes(random_params(side=8, seed=9))


@st.composite
def _damaged_side_8(draw):
    """A side-8 checkpoint with bytes flipped, cut short or appended, or random bytes."""
    kind = draw(st.sampled_from(["flip", "truncate", "append", "random"]))
    blob = bytearray(_SIDE_8)
    if kind == "flip":
        for at in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=8)):
            blob[at] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif kind == "append":
        blob += draw(st.binary(min_size=1, max_size=64))
    else:
        blob = bytearray(draw(st.binary(max_size=2 * len(_SIDE_8))))
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(_damaged_side_8())
def test_a_damaged_checkpoint_loads_or_raises_corrupt_checkpoint(blob):
    try:
        params = checkpoint.params_from_bytes(blob)
    except CorruptCheckpoint:
        return
    assert isinstance(params, nn.ModelParams) and params.side == 8
