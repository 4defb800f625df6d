import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from helpers import (hinge_safe_bias, make_loss_fn, max_relative_error,
                     no_thread_outlives_its_test,  # noqa: F401 (autouse)
                     numeric_gradients, params_equal, random_params, tiny_dataset)

from fedransom import nn
from fedransom.data import Dataset, one_hot
from fedransom.errors import EmptyDataset, InvalidRate, ShapeMismatch
from fedransom.imaging import MAX_SIDE
from fedransom.metrics import history_row


def test_softmax_symmetry():
    assert nn.softmax_output(np.zeros(2, dtype=np.float32)).tolist() == [0.5, 0.5]


def test_softmax_closed_form():
    z = nn.softmax_output(np.array([math.log(2.0), 0.0]))
    assert z == pytest.approx([2 / 3, 1 / 3])


def test_softmax_large_logits_do_not_overflow():
    z = nn.softmax_output(np.array([1000.0, 0.0], dtype=np.float32))
    assert np.isfinite(z).all()
    assert z[0] == pytest.approx(1.0)
    assert z[1] == pytest.approx(0.0, abs=1e-6)


def test_softmax_rows_sum_to_one():
    h = np.random.default_rng(3).standard_normal((40, 2)).astype(np.float32)
    sums = nn.softmax_output(h).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-6


def test_conv_hand_computed_all_ones():
    x = np.ones((1, 3, 3), dtype=np.float32)
    k = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = nn.conv2d_same(x[None], k, np.zeros(1, dtype=np.float32))
    expected = [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]
    assert out[0, 0].tolist() == expected


def test_conv_center_delta_kernel_is_identity():
    rng = np.random.default_rng(1)
    x = rng.random((2, 1, 6, 7), dtype=np.float32)
    k = np.zeros((1, 1, 3, 3), dtype=np.float32)
    k[0, 0, 1, 1] = 1.0
    out = nn.conv2d_same(x, k, np.zeros(1, dtype=np.float32))
    assert (out[:, 0] == x[:, 0]).all()


def test_conv_zero_input_yields_bias_planes():
    x = np.zeros((1, 5, 5), dtype=np.float32)
    k = np.random.default_rng(2).standard_normal((4, 1, 3, 3)).astype(np.float32)
    bias = np.array([0.5, -1.0, 0.0, 3.0], dtype=np.float32)
    out = nn.conv2d_same(x[None], k, bias)
    for f, b in enumerate(bias):
        assert (out[0, f] == b).all()


def _conv_by_pixel(x, kernels, bias):
    """Direct float64 cross-correlation, one output pixel at a time."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2))
    padded[:, :, 1:-1, 1:-1] = x
    out = np.empty((n, kernels.shape[0], h, w))
    for s in range(n):
        for f in range(kernels.shape[0]):
            for r in range(h):
                for q in range(w):
                    out[s, f, r, q] = bias[f] + float(
                        (padded[s, :, r:r + 3, q:q + 3] * kernels[f]).sum())
    return out


@pytest.mark.parametrize("channels", [1])
def test_conv_matches_per_pixel_oracle(channels):
    rng = np.random.default_rng(channels)
    x = rng.random((2, channels, 5, 7))
    k = rng.standard_normal((4, channels, 3, 3))
    bias = rng.standard_normal(4)
    want = _conv_by_pixel(x, k, bias)
    assert np.abs(nn.conv2d_same(x, k, bias) - want).max() < 1e-12
    got32 = nn.conv2d_same(*(a.astype(np.float32) for a in (x, k, bias)))
    assert got32.dtype == np.float32
    assert np.abs(got32 - want).max() < 1e-5


@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 8, 8)], ids=["3-channel", "3-d"])
def test_forward_and_predict_reject_what_the_conv_does_not_take(shape):
    # the conv takes (n, 1, side, side) only; _check_batch guards it
    params = random_params(side=8, seed=0)
    batch = np.ones(shape, dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        nn.forward(params, batch, nn.TrainConfig(side=8))
    with pytest.raises(ShapeMismatch):
        nn.predict(params, batch)


def test_dropout_rate_zero_is_identity():
    x = np.random.default_rng(0).random((5, 5), dtype=np.float32)
    out, mask = nn.dropout(x, 0.0, np.random.default_rng(1), training=True)
    assert (out == x).all()
    assert (mask == 1.0).all()


def test_dropout_eval_mode_is_identity():
    x = np.random.default_rng(0).random((5, 5), dtype=np.float32)
    out, mask = nn.dropout(x, 0.9, None, training=False)
    assert (out == x).all()
    assert (mask == 1.0).all()


def test_dropout_survival_fraction_and_mean():
    x = np.random.default_rng(7).random(1_000_000, dtype=np.float32) + 0.5
    out, mask = nn.dropout(x, 0.5, np.random.default_rng(11), training=True)
    surviving = (mask > 0).mean()
    assert 0.497 <= surviving <= 0.503
    assert abs(out.mean() / x.mean() - 1.0) < 0.01


def test_dropout_invalid_rate():
    x = np.zeros(3, dtype=np.float32)
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(InvalidRate):
            nn.dropout(x, rate, np.random.default_rng(0), training=True)


def _one_draw_keep(shape, rate, seed):
    """The keep mask and generator state of one whole random_raw draw."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    bits = rng.bit_generator.random_raw(math.ceil(size / 4)).view("<u2")[:size]
    return bits.reshape(shape) >= round(rate * 2 ** 16), rng.bit_generator.state


def test_dropout_in_blocks_draws_the_bits_of_one_draw(monkeypatch):
    # 1001 units in draws of one 64-bit word (4 units): 250 whole blocks and a short last one
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 40)
    x = np.ones((7, 11, 13), dtype=np.float32)
    expected, state = _one_draw_keep(x.shape, 0.25, 21)
    rng = np.random.default_rng(21)
    _, keep = nn.dropout(x, 0.25, rng, training=True)
    assert np.array_equal(keep, expected)
    assert rng.bit_generator.state == state


def test_public_forward_calls_share_no_buffers():
    # each public call builds its own workspace: a later call changes
    # nothing that an earlier trace holds
    side = 12
    params = random_params(side=side, seed=11, dtype=np.float64)
    batches = np.random.default_rng(43).random((2, 4, 1, side, side))
    labels = one_hot(np.array([0, 1, 1, 0])).astype(np.float64)
    cfg = nn.TrainConfig(side=side, dropout_rate=0.25)

    def traced(b):
        return nn.forward(params, batches[b], cfg, np.random.default_rng(b), training=True)

    want = [nn.loss_and_grad(traced(b), labels, params) for b in (0, 1)]
    first = traced(0)
    flat, gate = first.flat.copy(), first.gate.copy()
    second = traced(1)
    buffers = [[a for a in vars(trace.workspace).values() if isinstance(a, np.ndarray)]
               + [trace.gate, trace.flat, trace.logits, trace.probs] for trace in (first, second)]
    assert not any(np.shares_memory(a, b) for a in buffers[0] for b in buffers[1])
    assert np.array_equal(first.flat, flat) and np.array_equal(first.gate, gate)
    for trace, (want_loss, want_grads) in zip((first, second), want):
        loss, grads = nn.loss_and_grad(trace, labels, params)
        assert loss == want_loss and params_equal(grads, want_grads)


def test_zero_params_predict_half_half():
    params = random_params(side=8, seed=0)
    zeros = nn.ModelParams(*(np.zeros_like(a) for a in params.named().values()))
    batch = np.random.default_rng(5).random((3, 1, 8, 8), dtype=np.float32)
    trace = nn.forward(zeros, batch, nn.TrainConfig(side=8))
    assert (trace.probs == 0.5).all()


def test_forward_is_batch_independent_in_eval():
    params = random_params(side=10, seed=4)
    batch = np.random.default_rng(9).random((4, 1, 10, 10), dtype=np.float32)
    cfg = nn.TrainConfig(side=10)
    alone = nn.forward(params, batch[2:3], cfg).probs
    together = nn.forward(params, batch, cfg).probs
    assert np.abs(alone[0] - together[2]).max() < 1e-6


def test_flatten_width_follows_shape_law():
    params = random_params(side=64, seed=1)
    batch = np.zeros((1, 1, 64, 64), dtype=np.float32)
    trace = nn.forward(params, batch, nn.TrainConfig(side=64))
    assert trace.flat.shape == (1, 32 * 64 * 64)
    assert trace.flat.shape[1] == 131_072


def test_forward_rejects_wrong_side():
    params = random_params(side=8, seed=0)
    with pytest.raises(ShapeMismatch):
        nn.forward(params, np.zeros((1, 1, 10, 10), dtype=np.float32), nn.TrainConfig(side=10))


def test_loss_at_even_probabilities_is_log_two():
    params = random_params(side=8, seed=0)
    zeros = nn.ModelParams(*(np.zeros_like(a) for a in params.named().values()))
    batch = np.random.default_rng(0).random((6, 1, 8, 8), dtype=np.float32)
    trace = nn.forward(zeros, batch, nn.TrainConfig(side=8))
    labels = one_hot(np.array([0, 1, 0, 1, 1, 0]))
    loss, grads = nn.loss_and_grad(trace, labels, zeros)
    assert loss == pytest.approx(math.log(2.0), rel=1e-6)
    for name, g in grads.named().items():
        assert g.shape == zeros.named()[name].shape


def test_loss_of_confident_correct_prediction_is_near_zero():
    params = random_params(side=8, seed=2)
    batch = np.random.default_rng(1).random((1, 1, 8, 8), dtype=np.float32)
    cfg = nn.TrainConfig(side=8)
    trace = nn.forward(params, batch, cfg)
    # force near-certainty on class 0 via the dense bias
    boosted = nn.ModelParams(params.conv_kernels, params.conv_bias, params.dense_weights,
                             params.dense_bias + np.array([30.0, -30.0], dtype=np.float32))
    trace = nn.forward(boosted, batch, cfg)
    loss, _ = nn.loss_and_grad(trace, one_hot(np.array([0])), boosted)
    assert 0.0 <= loss < 1e-6


def test_gradients_match_finite_differences_small_model():
    # float64 end to end, frozen dropout mask, hinge-safe bias placement
    side, batch_size = 8, 2
    cfg = nn.TrainConfig(side=side, dropout_rate=0.25)
    rng = np.random.default_rng(101)
    batch = rng.random((batch_size, 1, side, side))
    labels = one_hot(rng.integers(0, 2, batch_size)).astype(np.float64)
    params = nn.init_params(side, 11).astype(np.float64)
    params = hinge_safe_bias(params, batch)
    loss_at = make_loss_fn(params, batch, labels, cfg, mask_seed=55)

    trace = nn.forward(params, batch, cfg, np.random.default_rng(55), training=True)
    _, analytic = nn.loss_and_grad(trace, labels, params)
    numeric = numeric_gradients(loss_at, params)
    assert max_relative_error(analytic, numeric) < 1e-3


def test_sgd_zero_gradient_leaves_params_unchanged():
    params = random_params(side=8, seed=3)
    zeros = nn.ModelParams(*(np.zeros_like(a) for a in params.named().values()))
    assert params_equal(nn.sgd_step(params, zeros, 0.5), params)


def test_sgd_arithmetic():
    params = nn.ModelParams(*(np.full_like(a, 1.0) for a in random_params(8, 0).named().values()))
    grads = nn.ModelParams(*(np.full_like(a, 0.5) for a in params.named().values()))
    stepped = nn.sgd_step(params, grads, 0.006)
    assert stepped.conv_bias[0] == pytest.approx(0.997)


def test_sgd_two_steps_equal_one_with_doubled_rate():
    params = random_params(side=8, seed=6)
    grads = random_params(side=8, seed=7)
    twice = nn.sgd_step(nn.sgd_step(params, grads, 0.01), grads, 0.01)
    once = nn.sgd_step(params, grads, 0.02)
    for a, b in zip(twice.named().values(), once.named().values()):
        assert np.abs(a - b).max() < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_step_equals_the_plain_formula_bit_for_bit(dtype):
    params = random_params(side=8, seed=6, dtype=dtype)
    grads = random_params(side=8, seed=7, dtype=dtype)
    stepped = nn.sgd_step(params, grads, 0.006)
    for name, got in stepped.named().items():
        want = params.named()[name] - 0.006 * grads.named()[name]
        assert got.dtype == dtype and got.tobytes() == want.tobytes(), name


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        nn.sgd_step(random_params(side=8, seed=0), random_params(side=10, seed=0), 0.1)


@pytest.mark.parametrize("rate", [-0.1, math.nan, math.inf])
def test_a_learning_rate_that_is_not_a_finite_number_at_least_zero_is_rejected(rate):
    with pytest.raises(ValueError, match="learning_rate"):
        nn.TrainConfig(learning_rate=rate)
    params = random_params(side=8, seed=0)
    with pytest.raises(ValueError, match="learning_rate"):
        nn.sgd_step(params, params, rate)


def test_train_config_bounds_the_side_by_the_wire_cap():
    # checked before a model or an image of that side is allocated
    assert nn.TrainConfig(side=MAX_SIDE).side == MAX_SIDE
    with pytest.raises(ValueError, match=f"side must be at most {MAX_SIDE}"):
        nn.TrainConfig(side=MAX_SIDE + 1)


def test_fit_with_zero_learning_rate_changes_nothing():
    train = tiny_dataset(n=20, side=8, seed=1)
    cfg = nn.TrainConfig(side=8, learning_rate=0.0, epochs=2, batch_size=8)
    params = nn.init_params(8, 5)
    fitted, history = nn.fit(params, train, cfg, np.random.default_rng(5))
    assert params_equal(fitted, params)
    assert len(history) == 2


def test_fit_is_deterministic_for_a_seed():
    train = tiny_dataset(n=20, side=8, seed=2)
    cfg = nn.TrainConfig(side=8, epochs=2, batch_size=8, seed=9)
    runs = []
    for _ in range(2):
        params = nn.init_params(8, cfg.seed)
        runs.append(nn.fit(params, train, cfg, np.random.default_rng(cfg.seed)))
    assert params_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_fit_reaches_full_accuracy_on_separable_images():
    train = tiny_dataset(n=200, side=32, seed=4)
    cfg = nn.TrainConfig(side=32, epochs=10, batch_size=16, seed=3)
    params = nn.init_params(32, cfg.seed)
    params, history = nn.fit(params, train, cfg, np.random.default_rng(cfg.seed))
    assert history[-1].train_accuracy == 1.0


def test_fit_rejects_empty_dataset():
    empty = tiny_dataset(n=20, side=8, seed=0).subset([])
    with pytest.raises(EmptyDataset):
        nn.fit(nn.init_params(8, 0), empty, nn.TrainConfig(side=8), np.random.default_rng(0))


def test_accuracy_of_an_empty_dataset_raises():
    empty = tiny_dataset(n=4, side=8, seed=0).subset([])
    with pytest.raises(EmptyDataset):
        nn.accuracy(nn.init_params(8, 0), empty)


def test_fit_keeps_short_final_batch():
    # replicate one epoch by hand: 10 samples at batch 8 must take two steps
    train = tiny_dataset(n=10, side=8, seed=3)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=8, seed=0, learning_rate=0.1,
                         dropout_rate=0.0)
    params, _ = nn.fit(nn.init_params(8, 0), train, cfg, np.random.default_rng(0))

    manual = nn.init_params(8, 0)
    labels = one_hot(train.labels)
    order = np.random.default_rng(0).permutation(10)
    for idx in (order[:8], order[8:]):
        trace = nn.forward(manual, train.images[idx], cfg, training=True)
        _, grads = nn.loss_and_grad(trace, labels[idx], manual)
        manual = nn.sgd_step(manual, grads, cfg.learning_rate)
    assert params_equal(params, manual)


def _chunk_bytes(samples, side, itemsize=8):
    """A CHUNK_BYTES budget that holds the conv output of *samples* samples."""
    return samples * nn.N_FILTERS * side * side * itemsize


def _recording_gates(func, gates):
    def wrapped(*args, **kwargs):
        out = func(*args, **kwargs)
        gates.append(out.gate.copy())  # the next chunk reuses the gate's buffer
        return out
    return wrapped


def test_fit_in_chunks_equals_whole_batch_fit(monkeypatch):
    side = 12
    rng = np.random.default_rng(31)
    train = Dataset(rng.random((10, 1, side, side)), rng.integers(0, 2, 10))
    cfg = nn.TrainConfig(side=side, epochs=2, batch_size=10, seed=4, learning_rate=0.05)
    params = nn.init_params(side, cfg.seed).astype(np.float64)
    real_forward, batches = nn.forward, []

    def recorded(params, batch, *args, **kwargs):
        batches.append(batch.copy())  # a lane gathers its next chunk into the same buffer
        return real_forward(params, batch, *args, **kwargs)

    monkeypatch.setattr(nn, "forward", recorded)
    whole, whole_history = nn.fit(params, train, cfg, np.random.default_rng(cfg.seed))
    epoch_batches, batches[:] = list(batches), []

    # 3 samples per chunk: each batch of 10 runs as 3 + 3 + 3 + 1
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side))
    chunked, chunked_history = nn.fit(params, train, cfg, np.random.default_rng(cfg.seed))

    # two lanes finish chunks out of order: key each chunk by its position in its batch
    chunks = []
    for epoch, batch in enumerate(epoch_batches):
        starts = {}
        for chunk in batches[4 * epoch : 4 * epoch + 4]:
            start = next(i for i, sample in enumerate(batch) if np.array_equal(sample, chunk[0]))
            assert np.array_equal(batch[start : start + len(chunk)], chunk)
            starts[start] = len(chunk)
        chunks += sorted(starts.items())
    assert len(epoch_batches) == cfg.epochs and len(batches) == 4 * cfg.epochs
    assert chunks == [(0, 3), (3, 3), (6, 3), (9, 1)] * cfg.epochs
    for a, b in zip(chunked.named().values(), whole.named().values()):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    for c, w in zip(chunked_history, whole_history):
        assert c.train_loss == pytest.approx(w.train_loss, rel=1e-12)
        assert c.train_accuracy == w.train_accuracy


def test_chunked_dropout_masks_equal_one_whole_batch_draw(monkeypatch):
    side = 12
    rng = np.random.default_rng(32)
    images = rng.random((10, 1, side, side))
    labels = one_hot(rng.integers(0, 2, 10)).astype(np.float64)
    cfg = nn.TrainConfig(side=side, dropout_rate=0.25)
    params = nn.init_params(side, 5).astype(np.float64)
    # every pre-activation positive, so the keep mask is the random draw alone
    params = nn.ModelParams(params.conv_kernels, np.full_like(params.conv_bias, 10.0),
                            params.dense_weights, params.dense_bias)
    real_forward = nn.forward
    masks, states = {}, {}
    for name, samples in (("whole", 10), ("chunked", 3)):
        monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(samples, side))
        masks[name] = []
        monkeypatch.setattr(nn, "forward", _recording_gates(real_forward, masks[name]))
        draw = np.random.default_rng(77)
        nn.batch_loss_and_grad(params, images, labels, cfg, draw)
        states[name] = draw.bit_generator.state

    assert len(masks["whole"]) == 1 and len(masks["chunked"]) == 4
    assert 0.7 < masks["whole"][0].mean() < 0.8
    assert np.array_equal(np.concatenate(masks["chunked"]), masks["whole"][0])
    assert states["chunked"] == states["whole"]


def test_in_place_chunk_total_equals_the_chunk_results_summed_in_order(monkeypatch):
    side, n = 12, 10
    rng = np.random.default_rng(34)
    images = rng.random((n, 1, side, side))
    labels = one_hot(rng.integers(0, 2, n)).astype(np.float64)
    cfg = nn.TrainConfig(side=side, dropout_rate=0.25)
    params = random_params(side=side, seed=7, dtype=np.float64)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side))
    draw = np.random.default_rng(78)
    loss, total = 0.0, None
    for part in (slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)):
        trace = nn.forward(params, images[part], cfg, draw, training=True)
        part_loss, grads = nn.loss_and_grad(trace, labels[part], params, batch_size=n)
        loss += part_loss
        if total is None:
            total = grads
        else:
            for t, g in zip(total.named().values(), grads.named().values()):
                t += g

    # blocks small enough for 18 dense column blocks, one-sample patch
    # groups and several dropout draws per chunk
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 4096)
    in_place_loss, in_place = nn.batch_loss_and_grad(params, images, labels, cfg,
                                                     np.random.default_rng(78))
    assert in_place_loss == loss
    assert params_equal(in_place, total)


def test_fit_gathering_chunks_by_index_equals_fit_on_gathered_batches(monkeypatch):
    side = 12
    train = tiny_dataset(n=11, side=side, seed=35)
    cfg = nn.TrainConfig(side=side, epochs=2, batch_size=7, seed=2, learning_rate=0.05)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    params, history = nn.fit(nn.init_params(side, 2), train, cfg,
                             np.random.default_rng(cfg.seed), score_train=False)

    manual, rng = nn.init_params(side, 2), np.random.default_rng(cfg.seed)
    labels, losses = one_hot(train.labels), []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = nn.batch_loss_and_grad(manual, train.images[idx], labels[idx],
                                                 cfg, rng)
            manual = nn.sgd_step(manual, grads, cfg.learning_rate)
            losses.append(loss)
    assert params_equal(params, manual)
    assert [h.train_loss for h in history] == [float(np.mean(losses[:2])),
                                               float(np.mean(losses[2:]))]


def test_a_public_index_follows_numpys_rules():
    # an index out of range raises, and a negative one counts from the end:
    # gathered with "clip" alone, [0, 99] read images[[0, 9]] and [-1, 0] images[[0, 0]]
    side = 8
    rng = np.random.default_rng(36)
    images = rng.random((10, 1, side, side))
    labels = one_hot(rng.integers(0, 2, 2)).astype(np.float64)
    cfg = nn.TrainConfig(side=side)
    params = nn.init_params(side, 3).astype(np.float64)
    with pytest.raises(IndexError):
        nn.batch_loss_and_grad(params, images, labels, cfg, np.random.default_rng(0),
                               index=[0, 99])
    loss, grads = nn.batch_loss_and_grad(params, images, labels, cfg, np.random.default_rng(0),
                                         index=[-1, 0])
    expected_loss, expected = nn.batch_loss_and_grad(params, images[[-1, 0]], labels, cfg,
                                                     np.random.default_rng(0))
    assert loss == expected_loss
    assert params_equal(grads, expected)


def test_a_public_mini_batch_of_no_samples_raises_before_building_lanes(monkeypatch):
    # a step over no samples has no mean gradient, not a zero one
    side = 8
    rng = np.random.default_rng(37)
    images = rng.random((4, 1, side, side))
    labels = one_hot(rng.integers(0, 2, 4)).astype(np.float64)
    cfg = nn.TrainConfig(side=side)
    params = nn.init_params(side, 3).astype(np.float64)

    def no_lanes(*_args, **_kwargs):
        raise AssertionError("lanes were built for an empty mini-batch")

    monkeypatch.setattr(nn, "_Lanes", no_lanes)
    with pytest.raises(EmptyDataset):
        nn.batch_loss_and_grad(params, images[:0], labels[:0], cfg, np.random.default_rng(0))
    with pytest.raises(EmptyDataset):
        nn.batch_loss_and_grad(params, images, labels[:0], cfg, np.random.default_rng(0),
                               index=[])


def test_fit_leaves_the_callers_model_untouched(monkeypatch):
    # 3 epochs of 3 steps, each in chunks of 3 + 1 (the last 3): every step
    # writes its new model over its gradients, never over the input
    side = 12
    train = tiny_dataset(n=11, side=side, seed=36)
    cfg = nn.TrainConfig(side=side, epochs=3, batch_size=4, learning_rate=0.1)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    params = nn.init_params(side, 3)
    before = [a.tobytes() for a in params.named().values()]
    fitted, _ = nn.fit(params, train, cfg, np.random.default_rng(0), score_train=False)
    assert [a.tobytes() for a in params.named().values()] == before
    assert not params_equal(fitted, params)
    for a in fitted.named().values():
        assert not any(np.shares_memory(a, b) for b in params.named().values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fit_in_its_workspace_equals_the_public_step_bit_for_bit(monkeypatch, dtype):
    # batches of 7 from 11 float32 images in chunks of 3: 3 + 3 + 1, then 3 + 1;
    # one-sample patch groups, 9 or 18 dense column blocks, 128-unit dropout draws
    side = 12
    train = tiny_dataset(n=11, side=side, seed=37)
    cfg = nn.TrainConfig(side=side, epochs=2, batch_size=7, learning_rate=0.05)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 4096)
    start = nn.init_params(side, 4).astype(dtype)
    fitted, history = nn.fit(start, train, cfg, np.random.default_rng(9), score_train=False)

    manual, rng = start, np.random.default_rng(9)
    labels, losses = one_hot(train.labels).astype(dtype), []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train))
        for begin in range(0, len(train), cfg.batch_size):
            idx = order[begin : begin + cfg.batch_size]
            loss, total = 0.0, None
            for part in (idx[i : i + 3] for i in range(0, len(idx), 3)):
                trace = nn.forward(manual, train.images[part], cfg, rng, training=True)
                part_loss, grads = nn.loss_and_grad(trace, labels[part], manual,
                                                    batch_size=len(idx))
                loss += part_loss
                if total is None:
                    total = grads
                else:
                    for t, g in zip(total.named().values(), grads.named().values()):
                        t += g
            manual = nn.sgd_step(manual, total, cfg.learning_rate)
            losses.append(loss)
    assert all(a.dtype == dtype for a in fitted.named().values())
    assert params_equal(fitted, manual)
    assert [h.train_loss for h in history] == [float(np.mean(losses[:2])),
                                               float(np.mean(losses[2:]))]


@pytest.mark.parametrize("by_argument", [False, True], ids=["usable-cores", "cores-argument"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch_size, chunks", [(2, 1), (5, 2), (8, 3), (20, 7)])
def test_fit_on_two_lanes_equals_one_lane_bit_for_bit(monkeypatch, dtype, batch_size, chunks,
                                                      by_argument):
    # 23 float32 images in chunks of 3, each step's last chunk short, and a
    # short final batch; with the accuracy pass, which predicts on the lanes
    # too, in 8 chunks. The lanes come from the usable cores or, on two
    # usable cores, from fit's cores argument
    side = 12
    train = tiny_dataset(n=23, side=side, seed=38)
    cfg = nn.TrainConfig(side=side, epochs=2, batch_size=batch_size, learning_rate=0.05)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    monkeypatch.setattr(nn, "PREDICT_CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    real_forward, real_conv2d_same, real_sgd_step = nn.forward, nn.conv2d_same, nn.sgd_step
    runs = {}
    for lanes in (1, 2):
        steps, conv_threads = [[]], set()  # per step, (thread, samples) of each chunk

        def recorded(params, chunk, *args, **kwargs):
            steps[-1].append((threading.get_ident(), len(chunk)))
            return real_forward(params, chunk, *args, **kwargs)

        def step_boundary(*args, **kwargs):
            steps.append([])
            return real_sgd_step(*args, **kwargs)

        def recorded_conv(*args, **kwargs):  # in forward and in the accuracy pass
            conv_threads.add(threading.get_ident())
            return real_conv2d_same(*args, **kwargs)

        monkeypatch.setattr(nn, "forward", recorded)
        monkeypatch.setattr(nn, "conv2d_same", recorded_conv)
        monkeypatch.setattr(nn, "sgd_step", step_boundary)
        monkeypatch.setattr(nn, "_usable_cores", lambda: lanes)
        cores = None
        if by_argument:
            monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
            cores = lanes
        rng = np.random.default_rng(10)
        fitted, history = nn.fit(nn.init_params(side, 5).astype(dtype), train, cfg, rng,
                                 cores=cores)
        runs[lanes] = fitted, history, rng.bit_generator.state
        # each step starts a helper of its own, so only within a step do the
        # threads count the lanes: across steps an ident repeats only by chance
        full = [{ident for ident, _ in step} for step in steps
                if sum(n for _, n in step) == batch_size]
        assert full and all(len(threads) == min(lanes, chunks) for threads in full)
        # each accuracy pass starts a helper of its own, which may get a new ident
        assert (len(conv_threads) > 1) == (lanes > 1)
    (one, one_history, one_state), (two, two_history, two_state) = runs[1], runs[2]
    assert all(a.dtype == dtype for a in two.named().values())
    assert params_equal(two, one)
    assert two_history == one_history
    assert two_state == one_state


def test_no_lane_thread_is_alive_between_the_steps_of_a_fit(monkeypatch):
    # chunks of 3 in batches of 6: each of the 4 steps runs its 2 chunks on 2 lanes
    side = 12
    train = tiny_dataset(n=12, side=side, seed=39)
    cfg = nn.TrainConfig(side=side, epochs=2, batch_size=6, learning_rate=0.05)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
    real_forward, real_sgd_step, ran, live = nn.forward, nn.sgd_step, set(), []

    def recorded(*args, **kwargs):
        ran.add(threading.current_thread().name)
        return real_forward(*args, **kwargs)

    def between_steps(*args, **kwargs):
        live.append([t.name for t in threading.enumerate() if t.name.startswith("fedransom-lane")])
        return real_sgd_step(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", recorded)
    monkeypatch.setattr(nn, "sgd_step", between_steps)
    nn.fit(nn.init_params(side, 5), train, cfg, np.random.default_rng(11))
    assert "fedransom-lane" in ran
    assert live == [[]] * 4


def test_concurrent_fits_on_two_lanes_each_equal_one_lane_fits(monkeypatch):
    # three fits at once, as loopback wire clients train, on two lanes each:
    # six threads, more than a 2-core machine has, switching every microsecond
    side = 12
    train = tiny_dataset(n=23, side=side, seed=42)
    cfg = nn.TrainConfig(side=side, epochs=2, batch_size=20, learning_rate=0.05)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    monkeypatch.setattr(nn, "_usable_cores", lambda: 1)
    want = [nn.fit(nn.init_params(side, s), train, cfg, np.random.default_rng(s))
            for s in range(3)]
    monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
    got = [None] * 3

    def client(s):
        got[s] = nn.fit(nn.init_params(side, s), train, cfg, np.random.default_rng(s))

    threads = [threading.Thread(target=client, args=(s,), daemon=True) for s in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (fitted, history), (want_fitted, want_history) in zip(got, want):
        assert params_equal(fitted, want_fitted)
        assert history == want_history


class ChunkFailed(Exception):
    pass


@pytest.mark.parametrize("failures", [{1: ChunkFailed}, {2: ChunkFailed}, {2: KeyboardInterrupt},
                                      {1: ChunkFailed, 2: KeyboardInterrupt}],
                         ids=["chunk-1", "chunk-2", "interrupt-chunk-2", "chunks-1-and-2"])
def test_the_first_failing_chunk_in_order_is_the_error_fit_raises(monkeypatch, failures):
    # one step of 4 chunks of 3 on two lanes: the caller takes chunks 0 and 2,
    # the helper 1 and 3; the chunk after a failed one waits for its turn
    side = 12
    train = tiny_dataset(n=12, side=side, seed=39)
    cfg = nn.TrainConfig(side=side, epochs=1, batch_size=12)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
    order = np.random.default_rng(0).permutation(12)  # fit's first draw from the generator
    real_loss_and_grad = nn.loss_and_grad

    def failing(trace, *args, **kwargs):
        for k, error in failures.items():
            if np.array_equal(trace.batch[0], train.images[order[3 * k]]):
                raise error(k)
        return real_loss_and_grad(trace, *args, **kwargs)

    monkeypatch.setattr(nn, "loss_and_grad", failing)
    raised = []

    def caller():
        try:
            nn.fit(nn.init_params(side, 0), train, cfg, np.random.default_rng(0), score_train=False)
        except BaseException as exc:  # KeyboardInterrupt too, on this thread
            raised.append(exc)

    thread = threading.Thread(target=caller, daemon=True)  # a hung fit must not block exit
    began = time.monotonic()
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "fit hung after a failed chunk"
    assert time.monotonic() - began < 1.0
    first = min(failures)
    assert len(raised) == 1 and type(raised[0]) is failures[first] and raised[0].args == (first,)
    assert not [t.name for t in threading.enumerate() if t.name.startswith("fedransom-lane")]


def test_fit_and_predict_call_the_timed_layers_through_the_module(monkeypatch):
    # a traced bench run times these layers by rebinding their module names:
    # 2 epochs of 2 steps, each 3 + 3 samples; then 4 predict chunks of 3
    side = 12
    train = tiny_dataset(n=12, side=side, seed=44)
    cfg = nn.TrainConfig(side=side, epochs=2, batch_size=6)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    monkeypatch.setattr(nn, "PREDICT_CHUNK_BYTES", _chunk_bytes(3, side, itemsize=4))
    calls = []  # list.append is atomic, as the two lanes call at once

    def counting(name, func):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapped

    for name in ("conv2d_same", "forward", "loss_and_grad", "sgd_step"):
        monkeypatch.setattr(nn, name, counting(name, getattr(nn, name)))
    params, _ = nn.fit(nn.init_params(side, 0), train, cfg, np.random.default_rng(0),
                       score_train=False)
    assert sorted(calls) == ["conv2d_same"] * 8 + ["forward"] * 8 + ["loss_and_grad"] * 8 \
        + ["sgd_step"] * 4
    calls.clear()
    nn.predict(params, train.images)
    assert calls == ["conv2d_same"] * 4


@pytest.mark.parametrize("val_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train_chunk, predict_chunk", [(3, 5), (5, 3)])
@pytest.mark.parametrize("lanes", [1, 2])
def test_a_fits_accuracies_equal_standalone_accuracy_on_the_fitted_model(
        monkeypatch, lanes, train_chunk, predict_chunk, val_dtype):
    # one epoch of 6-sample steps, then passes over 17 training and 11 val
    # samples in predict's chunks, larger or smaller than a step's, in the
    # fit's one plan; float64 val images do not fit its workspaces and plan their own
    side = 12
    train, val = tiny_dataset(n=17, side=side, seed=45), tiny_dataset(n=11, side=side, seed=46)
    val = Dataset(val.images.astype(val_dtype), val.labels)
    cfg = nn.TrainConfig(side=side, epochs=1, batch_size=6, learning_rate=0.05)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(train_chunk, side, itemsize=4))
    monkeypatch.setattr(nn, "PREDICT_CHUNK_BYTES", _chunk_bytes(predict_chunk, side, itemsize=4))
    monkeypatch.setattr(nn, "_usable_cores", lambda: lanes)
    real_lanes, real_predict, plans, scored = nn._Lanes, nn.predict, [], []

    def planned(*args, **kwargs):
        plans.append(real_lanes(*args, **kwargs))
        return plans[-1]

    def recorded(*args, **kwargs):
        labels, probs = real_predict(*args, **kwargs)
        scored.append(probs.tobytes())
        return labels, probs

    monkeypatch.setattr(nn, "_Lanes", planned)
    monkeypatch.setattr(nn, "predict", recorded)
    fitted, history = nn.fit(nn.init_params(side, 7), train, cfg, np.random.default_rng(3), val)
    assert len(plans) == (1 if val_dtype == np.float32 else 2)
    assert len(plans[0].workspaces) == lanes
    monkeypatch.setattr(nn, "_Lanes", real_lanes)
    monkeypatch.setattr(nn, "predict", real_predict)
    assert scored == [nn.predict(fitted, d.images)[1].tobytes() for d in (train, val)]
    assert history == [history_row(0, nn.accuracy(fitted, train), nn.accuracy(fitted, val),
                                   train_loss=history[0].train_loss)]


def test_a_fits_accuracy_passes_reuse_its_step_lanes_at_reference_side(monkeypatch):
    # 4 training and 2 val samples at side 300: steps of two 2-sample chunks
    # on two lanes, scoring passes of 1-sample chunks. Run in lanes of their
    # own, the passes added about two predict lanes (~30 MiB) to the peak
    monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
    side, rng = 300, np.random.default_rng(16)
    train, val = (Dataset(rng.random((n, 1, side, side), dtype=np.float32),
                          np.arange(n, dtype=np.int64) % 2) for n in (4, 2))
    cfg = nn.TrainConfig(side=side, epochs=1, batch_size=4)
    params = nn.init_params(side, 0)
    assert nn._chunk_size(params, train.images, nn.CHUNK_BYTES) == 2
    assert nn._chunk_size(params, train.images, nn.PREDICT_CHUNK_BYTES) == 1
    peaks = {}
    for scored in (False, True):
        tracemalloc.start()
        try:
            nn.fit(params, train, cfg, np.random.default_rng(0), val if scored else None,
                   score_train=scored)
            _, peaks[scored] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    lane_conv = nn.N_FILTERS * side * side * 4  # one predict lane's conv output
    assert peaks[True] - peaks[False] < lane_conv, \
        f"scoring added {(peaks[True] - peaks[False]) / lane_conv:.2f}x a predict lane's conv output"


def _step_transients(monkeypatch, train, cfg):
    """One fit epoch; for each SGD step, the traced peak during the step less
    the memory live when it began."""
    real_step, transients, live = nn.sgd_step, [], [0]

    def recorded(*args, **kwargs):
        out = real_step(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        transients.append(peak - live[0])
        tracemalloc.reset_peak()
        live[0] = current
        return out

    monkeypatch.setattr(nn, "sgd_step", recorded)
    params = nn.init_params(cfg.side, 0)  # untraced, so its release is no step's
    tracemalloc.start()
    try:
        nn.fit(params, train, cfg, np.random.default_rng(0), score_train=False)
    finally:
        tracemalloc.stop()
    return transients


@pytest.mark.parametrize("side, n, batch_size", [(64, 48, 16), (300, 24, 12)])
def test_a_steady_state_step_allocates_nothing_chunk_sized(monkeypatch, side, n, batch_size):
    # side 64: 3 one-chunk steps; side 300: 2 steps of 6 two-sample chunks
    # on two lanes, whose transients both count. A step that allocates its
    # own conv output, gate and gradients read about 2.0x of its chunk's conv
    # output at both sides (in chunks of 5 at side 300); reused buffers
    # read 0.06x and 0.03x
    train = Dataset(np.random.default_rng(15).random((n, 1, side, side), dtype=np.float32),
                    np.arange(n, dtype=np.int64) % 2)
    cfg = nn.TrainConfig(side=side, epochs=1, batch_size=batch_size)
    chunk = min(batch_size, nn._chunk_size(nn.init_params(side, 0), train.images, nn.CHUNK_BYTES))
    conv_bytes = chunk * nn.N_FILTERS * side * side * 4
    transients = _step_transients(monkeypatch, train, cfg)
    assert len(transients) == n // batch_size
    worst = max(transients[1:])
    assert worst < conv_bytes / 8, f"a step allocated {worst / conv_bytes:.2f}x its conv output"


def test_gradient_oracle_holds_with_chunks_on(monkeypatch):
    # the setup, helpers and tolerance of acceptance criterion 1
    side, batch_size = 12, 4
    cfg = nn.TrainConfig(side=side, dropout_rate=0.25)
    rng = np.random.default_rng(1011)
    batch = rng.random((batch_size, 1, side, side))
    labels = one_hot(rng.integers(0, 2, batch_size)).astype(np.float64)
    params = nn.init_params(side, 11).astype(np.float64)
    params = hinge_safe_bias(params, batch, margin=2e-3)
    loss_at = make_loss_fn(params, batch, labels, cfg, mask_seed=2011)
    numeric = numeric_gradients(loss_at, params, delta=1e-3)

    for samples in (1, 3):
        monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(samples, side))
        _, analytic = nn.batch_loss_and_grad(params, batch, labels, cfg,
                                             np.random.default_rng(2011))
        worst = max_relative_error(analytic, numeric)
        assert worst < 1e-3, f"{samples} per chunk: max relative error {worst:.2e}"


def test_predict_simple_cases_and_tie_break():
    params = random_params(side=8, seed=0)
    zeros = nn.ModelParams(*(np.zeros_like(a) for a in params.named().values()))
    batch = np.random.default_rng(2).random((3, 1, 8, 8), dtype=np.float32)
    labels, probs = nn.predict(zeros, batch)
    assert (probs == 0.5).all()
    assert (labels == 0).all()  # exact tie resolves to class 0


def test_predict_is_deterministic():
    params = random_params(side=8, seed=8)
    batch = np.random.default_rng(3).random((5, 1, 8, 8), dtype=np.float32)
    l1, p1 = nn.predict(params, batch)
    l2, p2 = nn.predict(params, batch)
    assert (l1 == l2).all()
    assert (p1 == p2).all()


def test_predict_follows_probabilities():
    params = random_params(side=8, seed=0)
    boosted = nn.ModelParams(params.conv_kernels, params.conv_bias, params.dense_weights,
                             np.array([5.0, -5.0], dtype=np.float32))
    batch = np.zeros((1, 1, 8, 8), dtype=np.float32)
    labels, probs = nn.predict(boosted, batch)
    assert probs[0, 0] > 0.9
    assert labels[0] == 0


def test_predict_memory_is_bounded_at_reference_side():
    # one unchunked eval pass over 24 side-300 images holds a 264 MiB conv output
    params = nn.init_params(300, 0)
    batch = np.zeros((24, 1, 300, 300), dtype=np.float32)
    tracemalloc.start()
    try:
        labels, _ = nn.predict(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (24,)
    assert peak < 128 * 2 ** 20, f"predict peaked at {peak / 2 ** 20:.0f} MiB"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_samples_logits_do_not_depend_on_its_chunk(monkeypatch, dtype):
    # the dense layer runs one gemv per sample, so the chunk that holds a sample
    # changes no bit of its logits, in predict's chunks or in forward's batch
    side = 12
    params = random_params(side=side, seed=6, dtype=dtype)
    batch = np.random.default_rng(34).random((10, 1, side, side)).astype(dtype)
    probs = []
    for samples in (1, 3, 10):
        monkeypatch.setattr(nn, "PREDICT_CHUNK_BYTES",
                            _chunk_bytes(samples, side, itemsize=np.dtype(dtype).itemsize))
        probs.append(nn.predict(params, batch)[1].tobytes())
    assert probs[0] == probs[1] == probs[2]

    cfg = nn.TrainConfig(side=side)
    together = nn.forward(params, batch, cfg)
    alone = [nn.forward(params, sample[None], cfg) for sample in batch]
    assert together.logits.tobytes() == b"".join(t.logits.tobytes() for t in alone)
    assert together.probs.tobytes() == b"".join(t.probs.tobytes() for t in alone)


def test_chunked_predict_equals_whole_batch_predict(monkeypatch):
    side = 12
    rng = np.random.default_rng(33)
    batch = rng.random((10, 1, side, side))
    params = random_params(side=side, seed=6, dtype=np.float64)
    results, chunks = {}, {}
    real_conv2d_same = nn.conv2d_same
    for name, samples in (("whole", 10), ("chunked", 3)):
        monkeypatch.setattr(nn, "PREDICT_CHUNK_BYTES", _chunk_bytes(samples, side))
        calls = []

        def recorded(chunk, *args, **kwargs):
            # two lanes finish chunks out of order: key each by its first sample's position
            calls.append(((chunk.ctypes.data - batch.ctypes.data) // batch.strides[0], len(chunk)))
            return real_conv2d_same(chunk, *args, **kwargs)

        monkeypatch.setattr(nn, "conv2d_same", recorded)
        results[name] = nn.predict(params, batch)
        chunks[name] = sorted(calls)

    assert chunks == {"whole": [(0, 10)], "chunked": [(0, 3), (3, 3), (6, 3), (9, 1)]}
    (whole_labels, whole_probs), (labels, probs) = results["whole"], results["chunked"]
    assert np.array_equal(labels, whole_labels)
    assert np.abs(probs - whole_probs).max() <= 1e-6


@pytest.mark.parametrize("by_argument", [False, True], ids=["usable-cores", "cores-argument"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_on_two_lanes_equals_one_lane_bit_for_bit(monkeypatch, dtype, by_argument):
    # the lanes come from the usable cores or, on two usable cores, from
    # predict's cores argument
    side = 12
    batch = np.random.default_rng(40).random((10, 1, side, side)).astype(dtype)
    params = random_params(side=side, seed=9, dtype=dtype)
    monkeypatch.setattr(nn, "PREDICT_CHUNK_BYTES", _chunk_bytes(3, side))  # 3 + 3 + 3 + 1
    real_conv2d_same, results = nn.conv2d_same, {}
    for lanes in (1, 2):
        threads = set()

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return real_conv2d_same(*args, **kwargs)

        monkeypatch.setattr(nn, "conv2d_same", recorded)
        monkeypatch.setattr(nn, "_usable_cores", lambda: lanes)
        cores = None
        if by_argument:
            monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
            cores = lanes
        results[lanes] = nn.predict(params, batch, cores=cores)
        assert len(threads) == lanes
    (one_labels, one_probs), (two_labels, two_probs) = results[1], results[2]
    assert two_probs.dtype == dtype
    assert np.array_equal(two_labels, one_labels)
    assert two_probs.tobytes() == one_probs.tobytes()


def test_predict_returns_probabilities_in_the_models_dtype():
    side = 8
    batch = np.random.default_rng(41).random((5, 1, side, side))
    params = random_params(side=side, seed=10, dtype=np.float64)
    _, probs = nn.predict(params, batch)
    want = nn.forward(params, batch, nn.TrainConfig(side=side)).probs  # float64 throughout
    assert probs.dtype == np.float64
    assert np.abs(probs - want).max() < 1e-12  # float32 probabilities miss by about 1e-8
    _, probs32 = nn.predict(params.astype(np.float32), batch.astype(np.float32))
    assert probs32.dtype == np.float32


def test_predict_memory_is_bounded_by_its_chunk_budget_at_desk_side():
    # 480 side-64 samples: 16 per chunk hold an 8 MiB conv output, one on
    # each of two lanes, which peak at 18.1 MiB; one fit-sized chunk of 64
    # samples would hold 32 MiB
    params = nn.init_params(64, 0)
    batch = np.zeros((480, 1, 64, 64), dtype=np.float32)
    tracemalloc.start()
    try:
        labels, _ = nn.predict(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (480,)
    assert peak <= 2.5 * nn.PREDICT_CHUNK_BYTES, f"predict peaked at {peak / 2 ** 20:.1f} MiB"


def test_fit_and_predict_memory_does_not_grow_with_the_core_count(monkeypatch):
    # 5 chunks per step and 3 predict chunks per pass: two lanes whatever the cores
    side = 64
    train = Dataset(np.zeros((40, 1, side, side), dtype=np.float32),
                    np.arange(40, dtype=np.int64) % 2)
    cfg = nn.TrainConfig(side=side, epochs=1, batch_size=40)
    monkeypatch.setattr(nn, "CHUNK_BYTES", _chunk_bytes(8, side, itemsize=4))
    params = nn.init_params(side, 0)
    peaks = {}
    for cores in (2, 64):
        monkeypatch.setattr(nn, "_usable_cores", lambda: cores)
        tracemalloc.start()
        try:
            nn.fit(params, train, cfg, np.random.default_rng(0))
            _, peaks[cores] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[64] < 1.1 * peaks[2], f"{peaks[64] / peaks[2]:.2f}x the 2-core peak"


def test_fit_memory_is_bounded_at_reference_side():
    # as one unchunked step, these 16 side-300 samples peak at 478 MiB;
    # in chunks of 2 on two lanes they peak at 117 MiB: each lane's buffers
    # for a 2-sample chunk (36 MiB) and fit's two model sets (44 MiB),
    # allocated once
    train = Dataset(np.zeros((16, 1, 300, 300), dtype=np.float32),
                    np.arange(16, dtype=np.int64) % 2)
    cfg = nn.TrainConfig(side=300, epochs=1, batch_size=16)
    params = nn.init_params(300, 0)
    tracemalloc.start()
    try:
        fitted, _ = nn.fit(params, train, cfg, np.random.default_rng(0), score_train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(fitted.dense_weights).all()
    assert peak < 256 * 2 ** 20, f"one fit epoch peaked at {peak / 2 ** 20:.0f} MiB"


def test_lean_training_step_memory_at_reference_side():
    # 16 side-300 samples in chunks of 2 on two lanes, each gathered from
    # the dataset, with blocked dropout draws, an in-place dense gradient
    # and one-sample patch groups; in chunks of 5 on one lane, whole-chunk
    # temporaries peaked at 159 MiB and fresh chunk buffers at 108 MiB; two
    # lanes' workspaces with two model sets peak at 117 MiB
    train = Dataset(np.zeros((16, 1, 300, 300), dtype=np.float32),
                    np.arange(16, dtype=np.int64) % 2)
    cfg = nn.TrainConfig(side=300, epochs=1, batch_size=16)
    params = nn.init_params(300, 0)
    tracemalloc.start()
    try:
        nn.fit(params, train, cfg, np.random.default_rng(0), score_train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20, f"one fit epoch peaked at {peak / 2 ** 20:.0f} MiB"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("side, seed", [(8, 0), (37, 5), (64, 2 ** 70)])
def test_init_params_takes_the_bits_of_one_float64_draw(side, seed, dtype):
    # the dense weights are drawn block by block, with the bits of one draw cast once
    rng = np.random.default_rng(seed)
    conv_bound = math.sqrt(6.0 / 9)
    kernels = rng.uniform(-conv_bound, conv_bound, (32, 1, 3, 3)).astype(dtype)
    width = 32 * side * side
    dense_bound = math.sqrt(6.0 / (width + 2))
    dense = rng.uniform(-dense_bound, dense_bound, (2, width)).astype(dtype)
    params = nn.init_params(side, seed, dtype)
    assert all(a.dtype == dtype for a in params.named().values())
    assert params.conv_kernels.tobytes() == kernels.tobytes()
    assert params.dense_weights.tobytes() == dense.tobytes()
    assert not params.conv_bias.any() and not params.dense_bias.any()


def test_init_params_holds_no_draw_of_the_dense_weights_size():
    # one float64 draw cast at the end peaked at 65.9 MiB at side 300,
    # nearly three times the 22 MiB float32 weights
    tracemalloc.start()
    try:
        params = nn.init_params(300, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.dense_weights.nbytes + 2 ** 20, f"peaked at {peak / 2 ** 20:.1f} MiB"


def test_parameter_counts_at_reference_side():
    params = nn.init_params(300, 0)
    assert params.conv_kernels.size + params.conv_bias.size == 320
    assert params.dense_weights.shape == (2, 2_880_000)
    assert params.count() == 320 + 5_760_002

def test_dropout_drops_the_16_bit_quantized_rate():
    # a unit drops when its 16-bit draw is below round(0.1 * 2**16) = 6554
    x = np.ones(1_000_000, dtype=np.float32)
    _, keep = nn.dropout(x, 0.1, np.random.default_rng(13), training=True)
    p = 6554 / 2 ** 16
    sigma = math.sqrt(p * (1 - p) / x.size)
    assert abs((~keep).mean() - p) <= 4 * sigma


def test_training_step_memory_at_desk_scale():
    # one desk mini-batch (16 samples at side 64) has an 8 MiB conv output;
    # a step that keeps separate dropout, activation and gradient arrays
    # peaks near 21.5 MiB
    side, n = 64, 16
    rng = np.random.default_rng(14)
    images = rng.random((n, 1, side, side), dtype=np.float32)
    labels = one_hot(rng.integers(0, 2, n))
    cfg = nn.TrainConfig(side=side, batch_size=n)
    params = nn.init_params(side, 0)
    conv_bytes = n * nn.N_FILTERS * side * side * 4
    tracemalloc.start()
    try:
        loss, grads = nn.batch_loss_and_grad(params, images, labels, cfg, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(loss) and np.isfinite(grads.dense_weights).all()
    assert peak <= 2.25 * conv_bytes, f"one step peaked at {peak / 2 ** 20:.1f} MiB"
