import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from helpers import shannon_entropy

from fedransom.errors import EmptyInput, InvalidSide
from fedransom.imaging import bytes_to_image


def test_saturated_fill_is_all_ones():
    img = bytes_to_image(b"\xff" * 90_000, 300)
    assert img.shape == (300, 300)
    assert (img == 1.0).all()


def test_short_input_pads_remaining_rows_with_zeros():
    img = bytes_to_image(b"\xff" * 45_000, 300)
    assert (img[:150] == 1.0).all()
    assert (img[150:] == 0.0).all()


def test_single_byte_normalization():
    flat = bytes_to_image(b"\x80", 8).reshape(-1)
    assert flat[0] == np.float32(128 / 255)
    assert (flat[1:] == 0.0).all()


def test_excess_bytes_are_truncated():
    base = bytes(range(256)) * 352  # 90112 bytes
    assert (bytes_to_image(base[:90_001], 300) == bytes_to_image(base[:90_000], 300)).all()


def test_empty_input_and_small_side_rejected():
    with pytest.raises(EmptyInput):
        bytes_to_image(b"", 300)
    with pytest.raises(InvalidSide):
        bytes_to_image(b"x", 7)


@given(st.binary(min_size=1, max_size=400), st.integers(8, 20))
def test_image_determinism_range_and_fill(data, side):
    img = bytes_to_image(data, side)
    assert (img == bytes_to_image(data, side)).all()
    assert img.min() >= 0.0
    assert img.max() <= 1.0
    assert (img != 0).sum() <= min(len(data), side * side)


@given(st.binary(min_size=64, max_size=200), st.binary(max_size=100))
def test_prefix_of_full_image_is_stable(prefix, tail):
    # once the 8x8 grid is covered, trailing bytes cannot matter
    assert (bytes_to_image(prefix, 8) == bytes_to_image(prefix + tail, 8)).all()


def test_entropy_of_constant_data_is_zero():
    assert shannon_entropy(b"\x00" * 4096) == 0.0


def test_entropy_of_all_byte_values_once_is_eight():
    assert shannon_entropy(bytes(range(256))) == 8.0


def test_entropy_of_two_equiprobable_symbols():
    assert shannon_entropy(b"\x00" * 500 + b"\x01" * 500) == pytest.approx(1.0)


@given(st.binary(min_size=1, max_size=512))
def test_entropy_stays_in_range(data):
    assert 0.0 <= shannon_entropy(data) <= 8.0

