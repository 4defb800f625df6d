import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from helpers import (constant_params, no_thread_outlives_its_test,  # noqa: F401 (autouse)
                     params_equal, random_params, tiny_dataset)

from fedransom import fedavg, nn
from fedransom.errors import (EmptyShard, EmptyUpdateSet, FedransomError,
                              RoundMismatch, ShapeMismatch, TooFewSamples)
from fedransom.fedavg import (ClientShard, ClientUpdate, FedConfig, aggregate,
                              client_stream_seed, local_train, partition,
                              partition_indices, run_federation)


def test_partition_of_6000_across_3_is_even():
    sizes = [len(b) for b in partition_indices(6000, 3, seed=0)]
    assert sizes == [2000, 2000, 2000]


def test_partition_remainder_rule():
    sizes = sorted(len(b) for b in partition_indices(10, 3, seed=1))
    assert sizes == [3, 3, 4]


def test_partition_one_sample_per_client():
    blocks = partition_indices(7, 7, seed=2)
    assert all(len(b) == 1 for b in blocks)


def test_partition_is_disjoint_and_covers_everything():
    blocks = partition_indices(103, 5, seed=3)
    merged = np.concatenate(blocks)
    assert len(merged) == 103
    assert sorted(merged.tolist()) == list(range(103))


def test_partition_is_deterministic_per_seed():
    a = partition_indices(50, 3, seed=4)
    b = partition_indices(50, 3, seed=4)
    c = partition_indices(50, 3, seed=5)
    assert all((x == y).all() for x, y in zip(a, b))
    assert not all((x == y).all() for x, y in zip(a, c))


def test_partition_needs_enough_samples():
    with pytest.raises(TooFewSamples):
        partition_indices(2, 3, seed=0)


def test_partition_shards_carry_dataset_rows():
    ds = tiny_dataset(n=12, side=8, seed=1)
    shards = partition(ds, 3, seed=0)
    assert [s.client_id for s in shards] == ["client-0", "client-1", "client-2"]
    total = sum(len(s) for s in shards)
    assert total == 12
    merged_labels = np.concatenate([s.samples.labels for s in shards])
    assert sorted(merged_labels.tolist()) == sorted(ds.labels.tolist())


def test_single_client_partition_preserves_dataset_order():
    ds = tiny_dataset(n=9, side=8, seed=2)
    (shard,) = partition(ds, 1, seed=123)
    assert (shard.samples.images == ds.images).all()
    assert (shard.samples.labels == ds.labels).all()


def test_client_stream_reduces_to_base_seed_for_first_client():
    assert client_stream_seed(42, "client-0", 0) == 42
    assert client_stream_seed(42, "client-1", 0) != 42
    assert client_stream_seed(42, "client-0", 1) != 42


def test_a_partition_id_keeps_its_stream():
    # pinned values: every id partition gives keeps the stream of the digit-scan rule
    assert [client_stream_seed(42, f"client-{k}", r)
            for k, r in [(0, 0), (1, 0), (2, 3), (7, 29), (999, 5)]] == [
        42, 11400714819323198527, 9549599518208801341, 7044211458827619500,
        4033371564728831572]
    assert client_stream_seed(2**64 - 1, "client-2", 1) == 62591141875686534


def test_distinct_client_ids_draw_distinct_streams():
    # a rule that reads an id's trailing digits gives each pair one stream
    pairs = [("alice-1", "bob-1"), ("client-01", "client-1"), ("client-\u0663", "client-3"),
             ("", "client-0")]
    for a, b in pairs:
        assert client_stream_seed(5, a, 0) != client_stream_seed(5, b, 0), (a, b)
    # an id whose digits int() rejects gets a seed too
    ids = [i for pair in pairs for i in pair]
    ids += ["node\u00b2", "node-" + "7" * 5000, "client-999999999"]
    assert len({client_stream_seed(5, i, 0) for i in ids}) == len(ids) == 11


def test_local_train_on_a_client_id_that_is_not_utf8_names_it():
    shard = ClientShard("node\udcff", tiny_dataset(n=4, side=8, seed=0))
    with pytest.raises(ValueError, match=r"client id 'node\\udcff' is not valid UTF-8"):
        local_train(nn.init_params(8, 0), shard, nn.TrainConfig(side=8, epochs=1))


def _update(client_id, value, n, round_index=0, side=8):
    return ClientUpdate(client_id, round_index, constant_params(value, side), n)


def test_aggregate_single_update_is_identity():
    update = ClientUpdate("client-0", 0, random_params(8, 1), 17)
    assert params_equal(aggregate([update]), update.params)


def test_aggregate_equal_counts_is_plain_mean():
    merged = aggregate([_update("a", 2.0, 10), _update("b", 4.0, 10)])
    assert (merged.dense_weights == 3.0).all()
    assert (merged.conv_kernels == 3.0).all()


def test_aggregate_weights_by_sample_count():
    merged = aggregate([_update("a", 2.0, 100), _update("b", 4.0, 300)])
    # 0.25 * 2 + 0.75 * 4
    assert (merged.dense_weights == 3.5).all()


def test_aggregate_fixed_point_is_exact():
    params = random_params(8, 5)
    updates = [ClientUpdate(f"client-{k}", 2, params, n)
               for k, n in enumerate((7, 19, 4))]
    assert params_equal(aggregate(updates), params)


def test_aggregate_stays_within_client_envelope():
    rng = np.random.default_rng(6)
    for trial in range(20):
        updates = [ClientUpdate(f"client-{k}", 0, random_params(8, 100 * trial + k),
                                int(rng.integers(1, 50)))
                   for k in range(int(rng.integers(1, 5)))]
        merged = aggregate(updates)
        for name, arr in merged.named().items():
            stack = np.stack([u.params.named()[name] for u in updates])
            assert (arr >= stack.min(axis=0) - 1e-7).all()
            assert (arr <= stack.max(axis=0) + 1e-7).all()


def test_aggregate_is_order_invariant_bit_for_bit():
    updates = [ClientUpdate(f"client-{k}", 0, random_params(8, k), 5 + k)
               for k in range(4)]
    forward_order = aggregate(updates)
    reverse_order = aggregate(updates[::-1])
    assert params_equal(forward_order, reverse_order)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_aggregate_equals_the_whole_tensor_sum_bit_for_bit(dtype):
    # at side 50 the dense weights are two whole blocks and part of a third
    updates = [ClientUpdate(f"client-{k}", 0, random_params(50, k, dtype), n)
               for k, n in enumerate((3, 7, 1))]
    for u in updates:
        u.params.dense_weights[0, :4] = -0.0  # a sum of zeros keeps the sign of none
    total = sum(u.n_samples for u in updates)
    merged = aggregate(updates)
    for name, got in merged.named().items():
        acc = np.zeros(got.shape)
        for u in updates:
            acc += u.params.named()[name].astype(np.float64) * (u.n_samples / total)
        assert got.dtype == dtype and got.tobytes() == acc.astype(dtype).tobytes(), name


def test_aggregate_of_reference_side_updates_allocates_about_one_model():
    updates = [ClientUpdate(f"client-{k}", 0, nn.init_params(300, k), 1 + k) for k in range(3)]
    model_bytes = sum(a.nbytes for a in updates[0].params.named().values())
    tracemalloc.start()
    try:
        merged = aggregate(updates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert merged.side == 300
    assert peak <= 1.1 * model_bytes, f"peak {peak / model_bytes:.2f}x the model"


def test_aggregate_validation():
    with pytest.raises(EmptyUpdateSet):
        aggregate([])
    with pytest.raises(RoundMismatch):
        aggregate([_update("a", 1.0, 5, round_index=0), _update("b", 1.0, 5, round_index=1)])
    with pytest.raises(ShapeMismatch):
        aggregate([_update("a", 1.0, 5, side=8), _update("b", 1.0, 5, side=10)])


def test_local_train_zero_rate_returns_global_params():
    ds = tiny_dataset(n=10, side=8, seed=3)
    shard = ClientShard("client-0", ds)
    cfg = nn.TrainConfig(side=8, learning_rate=0.0, epochs=2, batch_size=4, seed=1)
    global_params = nn.init_params(8, 1)
    update = local_train(global_params, shard, cfg)
    assert params_equal(update.params, global_params)
    assert update.n_samples == 10


def test_local_train_does_not_touch_global_params():
    ds = tiny_dataset(n=10, side=8, seed=3)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    global_params = nn.init_params(8, 1)
    before = {k: v.copy() for k, v in global_params.named().items()}
    local_train(global_params, ClientShard("client-0", ds), cfg)
    assert all((global_params.named()[k] == v).all() for k, v in before.items())


def test_identical_clients_produce_identical_updates():
    ds = tiny_dataset(n=8, side=8, seed=4)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=7)
    global_params = nn.init_params(8, 7)
    a = local_train(global_params, ClientShard("client-1", ds), cfg, round_index=3)
    b = local_train(global_params, ClientShard("client-1", ds), cfg, round_index=3)
    assert params_equal(a.params, b.params)


def test_sole_client_training_equals_centralized_fit():
    ds = tiny_dataset(n=14, side=8, seed=5)
    cfg = nn.TrainConfig(side=8, epochs=2, batch_size=4, seed=21)
    global_params = nn.init_params(8, 21)
    update = local_train(global_params, ClientShard("client-0", ds), cfg, round_index=0)
    central, _ = nn.fit(global_params, ds, cfg, np.random.default_rng(cfg.seed))
    assert params_equal(update.params, central)


def test_local_train_equals_fit_and_skips_accuracy_passes(monkeypatch):
    ds = tiny_dataset(n=10, side=8, seed=13)
    cfg = nn.TrainConfig(side=8, epochs=2, batch_size=4, seed=17)
    global_params = nn.init_params(8, 17)

    def no_accuracy(*_args, **_kwargs):
        raise AssertionError("local_train ran an accuracy pass")

    with monkeypatch.context() as patch:
        patch.setattr(nn, "accuracy", no_accuracy)
        update = local_train(global_params, ClientShard("client-2", ds), cfg, round_index=3)
    stream = np.random.default_rng(client_stream_seed(cfg.seed, "client-2", 3))
    fitted, history = nn.fit(global_params, ds, cfg, stream)
    assert params_equal(update.params, fitted)
    assert [h.train_accuracy is not None for h in history] == [True, True]


def test_local_train_rejects_empty_shard():
    empty = tiny_dataset(n=10, side=8, seed=0).subset([])
    with pytest.raises(EmptyShard):
        local_train(nn.init_params(8, 0), ClientShard("client-0", empty),
                    nn.TrainConfig(side=8))


def test_single_client_federation_equals_centralized_fit():
    ds = tiny_dataset(n=12, side=8, seed=6)
    seed = 33
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=2, batch_size=4,
                    learning_rate=0.006, seed=seed)
    train_cfg = nn.TrainConfig(side=8, epochs=2, batch_size=4,
                               learning_rate=0.006, seed=seed)
    fed_params, reports = run_federation(ds, fed, train_cfg)
    central, _ = nn.fit(nn.init_params(8, seed), ds, train_cfg,
                        np.random.default_rng(seed))
    assert params_equal(fed_params, central)
    assert len(reports) == 1


def test_single_client_federation_equals_centralized_fit_at_a_seed_past_64_bits():
    ds = tiny_dataset(n=12, side=8, seed=6)
    seed = 2**64 + 7
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=2, batch_size=4, seed=seed)
    train_cfg = nn.TrainConfig(side=8, epochs=2, batch_size=4, seed=seed)
    fed_params, _ = run_federation(ds, fed, train_cfg)
    central, _ = nn.fit(nn.init_params(8, seed), ds, train_cfg, np.random.default_rng(seed))
    assert params_equal(fed_params, central)


def test_zero_learning_rate_federation_is_a_fixed_point():
    ds = tiny_dataset(n=12, side=8, seed=7)
    fed = FedConfig(n_clients=3, n_rounds=3, local_epochs=1, batch_size=4,
                    learning_rate=0.0, seed=2)
    train_cfg = nn.TrainConfig(side=8, learning_rate=0.0, seed=2)
    fed_params, reports = run_federation(ds, fed, train_cfg)
    assert params_equal(fed_params, nn.init_params(8, 2))
    assert len(reports) == 3


def test_federation_history_carries_round_rows():
    ds = tiny_dataset(n=12, side=8, seed=8)
    val = tiny_dataset(n=6, side=8, seed=9)
    fed = FedConfig(n_clients=2, n_rounds=2, local_epochs=1, batch_size=4, seed=3)
    train_cfg = nn.TrainConfig(side=8, seed=3)
    _, reports = run_federation(ds, fed, train_cfg, val)
    assert [r.history[0].index for r in reports] == [0, 1]
    assert all(r.history[0].val_accuracy is not None for r in reports)


def test_round_report_without_val_set_predicts_the_training_set_once(monkeypatch):
    ds = tiny_dataset(n=12, side=8, seed=8)
    fed = FedConfig(n_clients=2, n_rounds=2, local_epochs=1, batch_size=4, seed=3)
    train_cfg = nn.TrainConfig(side=8, seed=3)
    calls = []
    real_predict = nn.predict

    def counted(params, images, *args, **kwargs):
        calls.append(len(images))
        return real_predict(params, images, *args, **kwargs)

    monkeypatch.setattr(nn, "predict", counted)
    monkeypatch.setattr(fedavg, "predict", counted)
    _, reports = run_federation(ds, fed, train_cfg)
    assert calls == [12, 12]
    for r in reports:
        (row,) = r.history
        assert row.train_accuracy == r.accuracy
        assert row.val_accuracy is None


def _sequential_federation(dataset, fed, train_cfg):
    """run_federation's rounds with the clients trained one after another."""
    local_cfg = replace(train_cfg, epochs=fed.local_epochs, batch_size=fed.batch_size,
                        learning_rate=fed.learning_rate)
    shards = partition(dataset, fed.n_clients, fed.seed)
    params = nn.init_params(train_cfg.side, train_cfg.seed)
    for round_index in range(fed.n_rounds):
        params = aggregate([local_train(params, shard, local_cfg, round_index)
                            for shard in shards])
    return params


@pytest.mark.parametrize("seed", [5, 19])
@pytest.mark.parametrize("n_clients", [1, 2, 3, 5])
def test_concurrent_clients_give_the_sequential_bits(n_clients, seed):
    # 5 clients are more than the cores, so some of a round's clients queue
    ds = tiny_dataset(n=40, side=16, seed=seed)
    fed = FedConfig(n_clients=n_clients, n_rounds=2, local_epochs=2, batch_size=4,
                    learning_rate=0.05, seed=seed)
    train_cfg = nn.TrainConfig(side=16, seed=seed)
    pooled, _ = run_federation(ds, fed, train_cfg)
    assert params_equal(pooled, _sequential_federation(ds, fed, train_cfg))


@pytest.mark.parametrize("cores, lanes", [(2, [1, 1, 1]), (8, [2, 2, 2])],
                         ids=["2-cores", "8-cores"])
def test_each_pooled_client_trains_on_its_share_of_the_cores(monkeypatch, cores, lanes):
    # 3 clients in steps of 2 chunks: on 2 cores all three train at once on
    # one core, so one lane, each; on 8 cores on two cores, so two lanes, each
    ds = tiny_dataset(n=24, side=8, seed=21)
    fed = FedConfig(n_clients=3, n_rounds=2, local_epochs=1, batch_size=4, seed=6)
    train_cfg = nn.TrainConfig(side=8, seed=6)
    monkeypatch.setattr(nn, "CHUNK_BYTES", 2 * nn.N_FILTERS * 8 * 8 * 4)
    monkeypatch.setattr(fedavg, "_usable_cores", lambda: cores)
    monkeypatch.setattr(nn, "_usable_cores", lambda: cores)
    real_local_train, real_fit, seen, fits = fedavg.local_train, fedavg.fit, {}, []

    def recorded(global_params, shard, config, round_index=0, share=None):
        seen.setdefault(shard.client_id, set()).add(share)
        return real_local_train(global_params, shard, config, round_index, share)

    def recorded_fit(*args, cores=None, **kwargs):
        fits.append(cores)
        return real_fit(*args, cores=cores, **kwargs)

    monkeypatch.setattr(fedavg, "local_train", recorded)
    monkeypatch.setattr(fedavg, "fit", recorded_fit)
    fed_params, _ = run_federation(ds, fed, train_cfg)
    assert [seen[f"client-{k}"] for k in range(3)] == [{n} for n in lanes]
    assert sorted(fits) == sorted(lanes * fed.n_rounds)  # each share reaches its fit
    assert params_equal(fed_params, _sequential_federation(ds, fed, train_cfg))


def _two_core_federation(monkeypatch, n_clients, inside):
    """run_federation of *n_clients* on a machine of 2 cores, each local_train
    call run in the context inside(cores); the fitted model equals the sequential one."""
    ds = tiny_dataset(n=4 * n_clients, side=8, seed=n_clients)
    fed = FedConfig(n_clients=n_clients, n_rounds=2, local_epochs=1, batch_size=4, seed=3)
    train_cfg = nn.TrainConfig(side=8, seed=3)
    monkeypatch.setattr(fedavg, "_usable_cores", lambda: 2)
    monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
    real_local_train = fedavg.local_train

    def observed(global_params, shard, config, round_index=0, cores=None):
        with inside(cores):
            return real_local_train(global_params, shard, config, round_index, cores)

    monkeypatch.setattr(fedavg, "local_train", observed)
    fed_params, _ = run_federation(ds, fed, train_cfg)
    assert params_equal(fed_params, _sequential_federation(ds, fed, train_cfg))


def test_pool_trains_every_client_of_a_round_at_once_on_two_cores(monkeypatch):
    # each round's 3 clients meet at the barrier, so none waits for another's
    # end; waves of 2 would leave client 2 queued and the barrier would break
    barrier, shares = threading.Barrier(3, timeout=10), []

    @contextmanager
    def meet(cores):
        shares.append(cores)
        barrier.wait()
        yield

    _two_core_federation(monkeypatch, 3, meet)
    assert shares == [1] * 6


def test_pool_runs_at_most_two_clients_per_core(monkeypatch):
    # 7 clients on 2 cores: at most 4 local_train calls run at any moment;
    # each lasts long enough for an uncapped pool to run all 7 at once
    lock, running, peak = threading.Lock(), [0], [0]

    @contextmanager
    def count(cores):
        assert cores == 1
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.1)
        try:
            yield
        finally:
            with lock:
                running[0] -= 1

    _two_core_federation(monkeypatch, 7, count)
    assert peak[0] == 4


class ClientCrashed(FedransomError):
    pass


def test_failing_client_raises_its_typed_error_and_leaks_no_thread(monkeypatch):
    ds = tiny_dataset(n=18, side=8, seed=10)
    fed = FedConfig(n_clients=3, n_rounds=2, local_epochs=1, batch_size=4, seed=4)
    train_cfg = nn.TrainConfig(side=8, seed=4)
    crash = ClientCrashed("client-1 lost its shard")
    real_local_train = fedavg.local_train

    def failing(global_params, shard, config, round_index=0, cores=None):
        if shard.client_id == "client-1":
            raise crash
        return real_local_train(global_params, shard, config, round_index, cores)

    monkeypatch.setattr(fedavg, "local_train", failing)
    before = threading.active_count()
    with pytest.raises(ClientCrashed) as caught:
        run_federation(ds, fed, train_cfg)
    assert caught.value is crash
    assert threading.active_count() == before
